"""Determinantal Alexandrov-Fenchel machinery.

A Gram table collects the pairings d_ij of r+1 classes against a fixed
background; its Shephard matrix S[i][j] = d_0i d_0j - d_00 d_ij is
positive semi-definite whenever the table comes from an AF system. The
determinant identity det S = (-1)^r d_00^(r-1) det(table) holds for
every symmetric table, AF-sourced or not. Both Gram builders run one
core, `_gram`, which checks their arguments and takes the engine's
pairing: the mixed discriminant, or the torus intersection number.
"""

from __future__ import annotations

import warnings
from math import lcm
from typing import Sequence

from .errors import DimensionMismatchError, HypothesisError, InvariantViolationError, _expect
from .ineqcheck import GapReport, _discriminant_value, gap_report
from .matrixcore import GenMat, HermMat, is_psd, principal_minor_sums
from .rationals import Rat, as_rat
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
    """Symmetric (r+1) x (r+1) table of pairings, r >= 1."""

    __slots__ = ("r", "d")

    def __init__(self, d):
        d = tuple(d)
        if len(d) < 2:
            raise ValueError("a Gram table needs at least two classes")
        self.d = _symmetric_rows(d, "Gram table", ": entries ({i},{j}) and ({j},{i}) differ")
        self.r = len(self.d) - 1

    def __eq__(self, other):
        return isinstance(other, GramTable) and self.d == other.d

    def __hash__(self):
        return hash(self.d)

    def __repr__(self):
        return f"GramTable(r={self.r})"


class ShephardMatrix:
    """The r x r matrix S[i][j] = d_0i d_0j - d_00 d_ij, symmetric."""

    __slots__ = ("r", "entries")

    def __init__(self, entries):
        self.entries = _symmetric_rows(entries, "Shephard matrix")
        self.r = len(self.entries)

    def __eq__(self, other):
        return isinstance(other, ShephardMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ShephardMatrix(r={self.r})"


def shephard_matrix(g: GramTable) -> ShephardMatrix:
    """Build the Shephard matrix of a Gram table."""
    _expect([g], GramTable, "a Gram table")
    d = g.d
    d00 = d[0][0]
    return ShephardMatrix(
        [
            [d[0][i + 1] * d[0][j + 1] - d00 * d[i + 1][j + 1] for j in range(g.r)]
            for i in range(g.r)
        ]
    )


def _cleared(table):
    """A square table of rationals as an integer grid of (re, 0) pairs
    over the lcm of its denominators: (grid, den), for `_of_grid`."""
    den = lcm(*(x.denominator for row in table for x in row))
    grid = tuple(tuple((x.numerator * (den // x.denominator), 0) for x in row) for row in table)
    return grid, den


def check_psd_shephard(g: GramTable):
    """Certify positive semi-definiteness of the Shephard matrix.

    Returns (True, None) or (False, (k, c_k)) where c_k is the first
    negative coefficient in the sums of principal k x k minors. Never
    raises on a negative verdict: the witness is the point.
    """
    s = shephard_matrix(g)
    sums = principal_minor_sums(HermMat._of_grid(*_cleared(s.entries)))
    for k, c in enumerate(sums, start=1):
        if c < 0:
            return False, (k, c)
    return True, None


def _real_det(table) -> Rat:
    return GenMat._of_grid(*_cleared(table)).det().re


def det_identity_check(g: GramTable) -> bool:
    """Check det S = (-1)^r d_00^(r-1) det(table), valid unconditionally."""
    s = shephard_matrix(g)
    lhs = _real_det(s.entries)
    rhs = (-1) ** g.r * g.d[0][0] ** (g.r - 1) * _real_det(g.d)
    return lhs == rhs


def r2_inequality(g: GramTable) -> GapReport:
    """The r = 2 determinantal inequality.

    lhs = (d_01^2 - d_00 d_11)(d_02^2 - d_00 d_22) and
    rhs = (d_01 d_02 - d_00 d_12)^2; the gap is exactly det of the
    2 x 2 Shephard matrix. A negative gap disproves the AF hypotheses
    on the table, so it raises HypothesisError rather than reporting.
    """
    _expect([g], GramTable, "a Gram table")
    if g.r != 2:
        raise ValueError(f"r = 2 required, got r = {g.r}")
    d = g.d
    lhs = (d[0][1] ** 2 - d[0][0] * d[1][1]) * (d[0][2] ** 2 - d[0][0] * d[2][2])
    rhs = (d[0][1] * d[0][2] - d[0][0] * d[1][2]) ** 2
    if lhs - rhs < 0:
        raise HypothesisError(
            "negative 2 x 2 Shephard determinant: table is not AF-sourced"
        )
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
