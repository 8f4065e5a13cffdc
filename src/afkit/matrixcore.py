"""Matrices over the Gaussian rationals.

Two immutable types: GenMat for general square matrices and HermMat for
Hermitian ones (validated at construction). Each holds one grid of
Gaussian integers over one denominator, cleared once at construction;
every operation works on it, and GaussRat entries are built only at the
API boundary. Positivity is decided by exact minor arithmetic, never by
eigenvalues: the principal-minor sums of a HermMat come from Berkowitz's
characteristic polynomial in its Hermitian form, which the validated
grid licenses and which forms no imaginary part.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

from ._kernels import _gdot, _gmul, _ratio, clear_gauss_matrix, gauss_det, hermitian_charpoly
from .errors import DimensionMismatchError, _expect
from .rationals import GaussRat, Rat


# the entries of `GenMat.zero` and `GenMat.identity`, shared by every call
_ZERO, _ONE = GaussRat(0), GaussRat(1)


def _as_gauss(value) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    return GaussRat(value)


class GenMat:
    """Square matrix: the Gaussian-integer grid `_rows` over `_den` > 0,
    with gcd(_den, every component) = 1; treat instances as immutable."""

    __slots__ = ("n", "_rows", "_den")

    def __init__(self, rows: Sequence[Sequence[object]]):
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        grid = []
        for row in rows:
            if len(row) != n:
                raise DimensionMismatchError(f"row of length {len(row)} in a {n}x{n} matrix")
            grid.append(tuple(_as_gauss(x) for x in row))
        # the lcm of the entry denominators leaves the grid in lowest terms
        self.n = n
        self._rows, self._den = clear_gauss_matrix(grid)
        self._validate()

    @classmethod
    def _of_grid(cls, rows, den: int) -> "GenMat":
        """The matrix rows / den for an integer grid and den > 0."""
        g = gcd(den, *chain.from_iterable(chain.from_iterable(rows)))
        if g > 1:
            rows = tuple(tuple((re // g, im // g) for re, im in row) for row in rows)
        m = object.__new__(cls)
        m.n = len(rows)
        m._rows = rows
        m._den = den // g
        m._validate()
        return m

    def _validate(self) -> None:
        """Check subclass invariants on the grid; a general matrix has none."""

    @property
    def entries(self) -> tuple:
        """The grid as GaussRat entries, for serialization and display."""
        den = self._den
        return tuple(
            tuple(GaussRat(Fraction(re, den), Fraction(im, den)) for re, im in row)
            for row in self._rows
        )

    @classmethod
    def zero(cls, n: int) -> "GenMat":
        return cls([[_ZERO] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "GenMat":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    def _require_same_shape(self, other: "GenMat") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"matrix dimensions differ: {self.n} vs {other.n}")

    def _combine(self, other, sign: int):
        """self + sign * other over the common denominator."""
        if not isinstance(other, GenMat):
            return NotImplemented
        self._require_same_shape(other)
        den = lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        rows = tuple(
            tuple((s * a[0] + t * b[0], s * a[1] + t * b[1]) for a, b in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)
        )
        cls = HermMat if isinstance(self, HermMat) and isinstance(other, HermMat) else GenMat
        return cls._of_grid(rows, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._scaled(GaussRat(-1), type(self))

    def _scaled(self, z: GaussRat, cls):
        den = lcm(z.re.denominator, z.im.denominator)
        w = (int(z.re * den), int(z.im * den))
        return cls._of_grid(
            tuple(tuple(_gmul(x, w) for x in row) for row in self._rows), self._den * den
        )

    def scale(self, c) -> "GenMat":
        return self._scaled(_as_gauss(c), GenMat)

    def __matmul__(self, other):
        if not isinstance(other, GenMat):
            return NotImplemented
        self._require_same_shape(other)
        cols = tuple(zip(*other._rows))
        rows = tuple(tuple(_gdot(row, col) for col in cols) for row in self._rows)
        return GenMat._of_grid(rows, self._den * other._den)

    def conj_transpose(self) -> "GenMat":
        return GenMat._of_grid(
            tuple(tuple((re, -im) for re, im in col) for col in zip(*self._rows)), self._den
        )

    def trace(self) -> GaussRat:
        re, im = map(sum, zip(*(self._rows[i][i] for i in range(self.n))))
        return GaussRat(Fraction(re, self._den), Fraction(im, self._den))

    def det(self) -> GaussRat:
        dre, dim = gauss_det(self._rows)
        s = self._den ** self.n
        return GaussRat(Fraction(dre, s), Fraction(dim, s))

    def is_zero(self) -> bool:
        return not any(c for row in self._rows for z in row for c in z)

    def __eq__(self, other):
        if not isinstance(other, GenMat):
            return NotImplemented
        return self._den == other._den and self._rows == other._rows

    def __hash__(self):
        return hash((self._den, self._rows))

    def __repr__(self):
        return f"{type(self).__name__}({[[str(x.re) if x.is_real else (str(x.re), str(x.im)) for x in row] for row in self.entries]!r})"


class HermMat(GenMat):
    """Hermitian matrix: conjugate-symmetric entries, real diagonal."""

    __slots__ = ()

    def _validate(self) -> None:
        e = self._rows
        for i in range(self.n):
            if e[i][i][1] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) is not real")
            for j in range(i + 1, self.n):
                if e[i][j] != (e[j][i][0], -e[j][i][1]):
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not conjugate")

    @classmethod
    def from_gram(cls, g: GenMat) -> "HermMat":
        """The Gram matrix G G*, Hermitian and positive semi-definite.

        Entry (i, j) is sum_k G[i][k] conj(G[j][k]); the upper triangle
        is taken on the grid and mirrored.
        """
        rows, n = g._rows, g.n
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                re = im = 0
                for (ar, ai), (br, bi) in zip(rows[i], rows[j]):
                    re += ar * br + ai * bi
                    im += ai * br - ar * bi
                grid[i][j] = (re, im)
                grid[j][i] = (re, -im)
        return cls._of_grid(tuple(map(tuple, grid)), g._den * g._den)

    def scale(self, c) -> "HermMat":
        z = _as_gauss(c)
        if not z.is_real:
            raise ValueError("scaling a Hermitian matrix requires a real scalar")
        return self._scaled(z, HermMat)


def principal_minor_sums(a: HermMat) -> list:
    """Coefficients c_k = sum of all k x k principal minors, k = 1..n.

    These are the characteristic-polynomial coefficients in the expansion
    det(tI - A) = t^n - c_1 t^(n-1) + c_2 t^(n-2) - ... and a Hermitian A
    is positive semi-definite exactly when every c_k is nonnegative.
    They come from one division-free characteristic polynomial of the
    integer grid, in O(n^4) operations rather than 2^n minors: Berkowitz's
    recursion in its Hermitian form (`_kernels.hermitian_charpoly`), half
    the general count of matrix-vector products and all its sums real.
    """
    if not isinstance(a, HermMat):
        raise TypeError("positivity tests require a Hermitian matrix")
    den = a._den
    return [
        Fraction(-c if k & 1 else c, den ** k)
        for k, c in enumerate(hermitian_charpoly(a._rows)[1:], start=1)
    ]


def is_psd(a: HermMat) -> bool:
    """Exact positive semi-definiteness test."""
    return all(c >= 0 for c in principal_minor_sums(a))


def is_pd(a: HermMat) -> bool:
    """Exact positive definiteness test: every c_k is positive."""
    return all(c > 0 for c in principal_minor_sums(a))


def proportional(a: GenMat, b: GenMat) -> Optional[Rat]:
    """Return the real rational lambda with B = lambda * A, if one exists.

    Conventions: (0, 0) gives 0, (A, 0) gives 0 for nonzero A, and
    (0, B) for nonzero B gives None. A complex ratio is rejected: a real
    lambda scales the grids' (re, im) components alike, so they go through
    the integer ratio test `_kernels._ratio`, scaled by the denominators.
    """
    _expect([a, b], GenMat, "a matrix")
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix dimensions differ: {a.n} vs {b.n}")
    lam = _ratio(*([c for row in m._rows for z in row for c in z] for m in (a, b)))
    return None if lam is None else lam * Fraction(a._den, b._den)
