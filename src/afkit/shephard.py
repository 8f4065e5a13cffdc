"""Determinantal Alexandrov-Fenchel machinery.

A Gram table keeps the pairings d_ij of r+1 classes against a fixed
background as one integer grid D over one denominator den. Its Shephard
matrix S[i][j] = d_0i d_0j - d_00 d_ij is positive semi-definite when
the table comes from an AF system; det S = (-1)^r d_00^(r-1) det(table)
holds for every symmetric table. Each verdict reads den^2 S off D as the
integer grid D_0i D_0j - D_00 D_ij. Both Gram builders run one core,
`_gram`, which checks their arguments and takes the engine's pairing:
the mixed discriminant, or the torus intersection number.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import lcm
from typing import Sequence

from ._kernels import gauss_det
from .errors import DimensionMismatchError, HypothesisError, InvariantViolationError, _expect
from .ineqcheck import GapReport, _discriminant_value, gap_report
from .matrixcore import HermMat, is_psd, principal_minor_sums
from .rationals import as_rat
from .toruskahler import _inum


def _symmetric_rows(entries, name, detail=""):
    """The rows of a square symmetric table of rationals, validated; the
    symmetry error names the table and then `detail` with (i, j) filled in."""
    rows = tuple(tuple(as_rat(x) for x in row) for row in entries)
    if any(len(row) != len(rows) for row in rows):
        raise DimensionMismatchError(f"{name} must be square")
    for i in range(len(rows)):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"{name} must be symmetric" + detail.format(i=i, j=j))
    return rows


class GramTable:
    """Symmetric (r+1) x (r+1) table of pairings, r >= 1: the integer
    grid `_rows` over `_den` > 0, in lowest terms; treat as immutable."""

    __slots__ = ("r", "_rows", "_den")

    def __init__(self, d):
        d = tuple(d)
        if len(d) < 2:
            raise ValueError("a Gram table needs at least two classes")
        rows = _symmetric_rows(d, "Gram table", ": entries ({i},{j}) and ({j},{i}) differ")
        # the lcm of reduced denominators leaves the grid in lowest terms
        self._den = den = lcm(*(x.denominator for row in rows for x in row))
        self._rows = tuple(tuple(x.numerator * den // x.denominator for x in row) for row in rows)
        self.r = len(rows) - 1

    @property
    def d(self) -> tuple:
        """The pairings as Fractions, for serialization and display."""
        return tuple(tuple(Fraction(x, self._den) for x in row) for row in self._rows)

    def __eq__(self, other):
        return isinstance(other, GramTable) and (self._den, self._rows) == (other._den, other._rows)

    def __hash__(self):
        return hash((self._den, self._rows))

    def __repr__(self):
        return f"GramTable(r={self.r})"


class ShephardMatrix:
    """The r x r matrix S[i][j] = d_0i d_0j - d_00 d_ij, symmetric."""

    __slots__ = ("r", "entries")

    def __init__(self, entries):
        self.entries = _symmetric_rows(entries, "Shephard matrix")
        if not self.entries:
            raise ValueError("a Shephard matrix needs at least one row")
        self.r = len(self.entries)

    def __eq__(self, other):
        return isinstance(other, ShephardMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ShephardMatrix(r={self.r})"


def _shephard_grid(g: GramTable) -> list:
    """The Shephard matrix of a Gram table as an integer grid over
    g._den ** 2: D_0i D_0j - D_00 D_ij on the table's grid D."""
    _expect([g], GramTable, "a Gram table")
    (d00, *top), *rest = g._rows
    return [[ti * tj - d00 * x for tj, x in zip(top, row[1:])] for ti, row in zip(top, rest)]


def _gauss(grid) -> tuple:
    """An integer grid as the (re, 0) pairs the Gaussian kernels take."""
    return tuple(tuple((x, 0) for x in row) for row in grid)


def shephard_matrix(g: GramTable) -> ShephardMatrix:
    """Build the Shephard matrix of a Gram table, in Fractions."""
    return ShephardMatrix([[Fraction(x, g._den ** 2) for x in row] for row in _shephard_grid(g)])


def check_psd_shephard(g: GramTable):
    """Certify positive semi-definiteness of the Shephard matrix.

    Returns (True, None) or (False, (k, c_k)) where c_k is the first
    negative coefficient in the sums of principal k x k minors. Never
    raises on a negative verdict: the witness is the point.
    """
    sums = principal_minor_sums(HermMat._of_grid(_gauss(_shephard_grid(g)), g._den ** 2))
    for k, c in enumerate(sums, start=1):
        if c < 0:
            return False, (k, c)
    return True, None


def det_identity_check(g: GramTable) -> bool:
    """Check det S = (-1)^r d_00^(r-1) det(table), valid unconditionally, in
    integers: det(den^2 S) = (-1)^r D_00^(r-1) det(D) is den^(2r) times it."""
    lhs, d = gauss_det(_gauss(_shephard_grid(g)))[0], g._rows
    return lhs == (-1) ** g.r * d[0][0] ** (g.r - 1) * gauss_det(_gauss(d))[0]


def r2_inequality(g: GramTable) -> GapReport:
    """The r = 2 determinantal inequality.

    lhs = (d_01^2 - d_00 d_11)(d_02^2 - d_00 d_22) = S_11 S_22 and
    rhs = (d_01 d_02 - d_00 d_12)^2 = S_12^2, compared on the integer
    Shephard grid; the gap is exactly det S. A negative gap disproves
    the AF hypotheses, so it raises HypothesisError rather than reporting.
    """
    s = _shephard_grid(g)
    if g.r != 2:
        raise ValueError(f"r = 2 required, got r = {g.r}")
    (s11, s12), (_, s22) = s
    if s11 * s22 < s12 * s12:
        raise HypothesisError("negative 2 x 2 Shephard determinant: table is not AF-sourced")
    lhs, rhs = (Fraction(x, g._den ** 4) for x in (s11 * s22, s12 * s12))
    return gap_report(lhs, rhs, None, False, "r = 2 determinantal")


def _gram(value, classes, rest) -> GramTable:
    """Gram table d_ij = value([A_i, A_j] + rest) over r+1 Hermitian classes,
    for a pairing of the sign of D; both public builders run it, so its
    indefinite-input warning names their caller (stacklevel 3)."""
    classes = list(classes)
    rest = list(rest)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    _expect(classes + rest, HermMat, "a Hermitian matrix")
    n = classes[0].n
    if n < 2:
        raise DimensionMismatchError(f"Gram tables need matrices of dimension at least 2, got {n}")
    if len(rest) != n - 2:
        raise DimensionMismatchError(
            f"need {n - 2} fixed matrices for dimension {n}, got {len(rest)}"
        )
    qualified = all(is_psd(m) for m in classes + rest)
    if not qualified:
        warnings.warn(
            "Gram table from indefinite matrices: AF conclusions are not guaranteed",
            stacklevel=3,
        )
    size = len(classes)
    table = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            val = value([classes[i], classes[j]] + rest)
            if qualified and val < 0:
                raise InvariantViolationError("negative pairing from semi-definite matrices")
            table[i][j] = table[j][i] = val
    return GramTable(table)


def gram_from_discriminants(
    classes: Sequence[HermMat], rest: Sequence[HermMat] = ()
) -> GramTable:
    """Gram table d_ij = D(A_i, A_j, rest) over r+1 Hermitian classes.

    Positive semi-definite inputs guarantee nonnegative entries and the
    AF conclusions; anything indefinite still yields a table but emits
    a warning, since no conclusion is claimed for it.
    """
    return _gram(_discriminant_value, classes, rest)


def gram_from_torus(
    classes: Sequence[HermMat], rest: Sequence[HermMat] = ()
) -> GramTable:
    """Gram table of torus intersection numbers n! 2^n D(A_i, A_j, rest).

    Proportional to gram_from_discriminants entry by entry with the
    constant n! 2^n, the normalization of the flat unit torus.
    """
    return _gram(_inum, classes, rest)
