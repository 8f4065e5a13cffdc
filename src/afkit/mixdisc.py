"""Mixed discriminants of matrix tuples.

Two independent evaluation routes cross-validate each other: a folded
permutation sum (n factorial collapsed into a subset DP) and the
multiset polarization sum over sum determinants. Inside the library
`_discriminant_auto` routes each tuple by what it holds: a tuple of one
matrix is its determinant, any other runs the DP up to
`PERMUTATION_ROUTE_MAX_N` and is polarized above it. The module also
carries the determinant expansion identity checker and the mixed
adjugate, the matrix of discriminants against single-entry basis
matrices, read off one layer of the same DP. Neither keeps finished
values; the kernels' one memo (`_kernels._rest_layer`) holds the rest
layers and the adjugates W(X, rest) that each D(X, Y, rest) pairs Y
with. The values D(A^[m], B^[n-m]) of a pair, m = 0..n, come together
from det A, det B and n - 1 determinants of the pencil x A + B.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from typing import Sequence

from ._kernels import (
    _expansion_args,
    _multinomial_expansion,
    gauss_det,
    hermitian_det,
    mixed_adjugate_sum,
    mixed_perm_sum,
)
from .errors import DimensionMismatchError, InvariantViolationError, SizeLimitError, _expect
from .matrixcore import GenMat, HermMat
from .rationals import GaussRat

PERMUTATION_ROUTE_MAX_N = 6
POLARIZED_ROUTE_MAX_N = 20
ADJUGATE_MAX_N = 10


class MatTuple:
    """An ordered tuple of n matrices of dimension n."""

    __slots__ = ("n", "mats")

    def __init__(self, mats: Sequence[GenMat]):
        mats = tuple(mats)
        if not mats:
            raise ValueError("matrix tuple must not be empty")
        _expect(mats, GenMat, "a matrix")
        n = mats[0].n
        if len(mats) != n or any(m.n != n for m in mats):
            raise DimensionMismatchError(
                f"need exactly {n} matrices of dimension {n}, "
                f"got {len(mats)} of dimensions {[m.n for m in mats]}"
            )
        self.n = n
        self.mats = mats

    def all_hermitian(self) -> bool:
        return all(isinstance(m, HermMat) for m in self.mats)


def _finalize(t: MatTuple, re: Fraction, im: Fraction) -> GaussRat:
    result = GaussRat(re, im)
    if t.all_hermitian() and not result.is_real:
        raise InvariantViolationError("mixed discriminant of Hermitian matrices must be real")
    return result


def mixed_discriminant(t: MatTuple) -> GaussRat:
    """D(A_1, ..., A_n) by the permutation sum over column assignments.

    Column j of the working matrix is column j of A_sigma(j); the result
    is the determinant sum over all sigma divided by n factorial.
    """
    _expect([t], MatTuple, "a matrix tuple")
    n = t.n
    if n > PERMUTATION_ROUTE_MAX_N:
        raise SizeLimitError(
            f"permutation route limited to n <= {PERMUTATION_ROUTE_MAX_N}, got {n}; "
            "use mixed_discriminant_polarized"
        )
    sre, sim = mixed_perm_sum([m._rows for m in t.mats])
    denom = factorial(n) * prod(m._den for m in t.mats)
    return _finalize(t, Fraction(sre, denom), Fraction(sim, denom))


def mixed_discriminant_polarized(t: MatTuple) -> GaussRat:
    """D(A_1, ..., A_n) by multiset polarization over sum determinants.

    Equal matrices are grouped, B_i repeated r_i times, and n! D is the
    sum over 0 <= k <= r, k != 0, of prod_i C(r_i, k_i) (-1)^(n - |k|)
    det(sum_i k_i B_i); over the lcm of the B_i denominators, each sum
    is an integer grid, and the signed sum stays in two ints.
    """
    _expect([t], MatTuple, "a matrix tuple")
    n = t.n
    if n > POLARIZED_ROUTE_MAX_N:
        raise SizeLimitError(
            f"polarization route limited to n <= {POLARIZED_ROUTE_MAX_N}, got {n}"
        )
    counts = Counter(t.mats)
    scale = lcm(*(m._den for m in counts))
    grids = [(scale // m._den, m._rows) for m in counts]
    re = im = 0
    for k in product(*(range(r + 1) for r in counts.values())):
        if not any(k):
            continue
        terms = [(c * f, g) for c, (f, g) in zip(k, grids) if c]
        dre, dim = gauss_det([
            [tuple(sum(c * g[i][j][part] for c, g in terms) for part in (0, 1)) for j in range(n)]
            for i in range(n)
        ])
        weight = prod(map(comb, counts.values(), k)) * (-1) ** (n - sum(k))
        re += weight * dre
        im += weight * dim
    denom = factorial(n) * scale ** n
    return _finalize(t, Fraction(re, denom), Fraction(im, denom))


def _discriminant_auto(t: MatTuple) -> GaussRat:
    """D by the route the tuple calls for: D(A, ..., A) = det A, and any
    other tuple runs the DP up to the permutation cap, polarization above."""
    first = t.mats[0]
    if all(m == first for m in t.mats):
        d = first.det()
        return _finalize(t, d.re, d.im)
    if t.n > PERMUTATION_ROUTE_MAX_N:
        return mixed_discriminant_polarized(t)
    return mixed_discriminant(t)


def _pencil_discriminants(a: HermMat, b: HermMat, det_a: Fraction, det_b: Fraction) -> list:
    """D(a^[m], b^[n-m]) for m = 0..n, from det a, det b and n - 1
    determinants.

    p(x) = det(x a + b) = sum_m C(n, m) D(a^[m], b^[n-m]) x^m. Over the
    common denominator, p(0) is the given det b, p(1), ..., p(n-1) are
    integer determinants of Hermitian grids (`hermitian_det`) and the
    leading coefficient is det a, so Delta^n p(0) = n! det a; the
    forward differences give p in the falling factorial basis,
    p(x) = sum_k Delta^k p(0) / k! x(x-1)...(x-k+1), which nested
    multiplication turns into monomial coefficients. It runs on the
    integers n!/k! Delta^k p(0), so each coefficient is one Fraction at
    the end. x a + b is Hermitian for real x, so a non-real p(x) raises
    `InvariantViolationError`.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix dimensions differ: {a.n} vs {b.n}")
    n = a.n
    den = lcm(a._den, b._den)
    s, t = den // a._den, den // b._den
    scale = den ** n
    # det a and det b have denominators dividing den^n
    diffs = [det_b.numerator * (scale // det_b.denominator)]
    for x in range(1, n):
        u = x * s
        re, im = hermitian_det([
            [(u * ar + t * br, u * ai + t * bi) for (ar, ai), (br, bi) in zip(ra, rb)]
            for ra, rb in zip(a._rows, b._rows)
        ])
        if im:
            raise InvariantViolationError("det(x a + b) of Hermitian matrices must be real")
        diffs.append(re)
    for k in range(1, n):
        for x in range(n - 1, k - 1, -1):
            diffs[x] -= diffs[x - 1]
    nf = factorial(n)
    diffs.append(nf * det_a.numerator * (scale // det_a.denominator))
    # n! p = a_0 + x (a_1 + (x - 1) (a_2 + ...)), a_k = n!/k! Delta^k p(0),
    # coefficients lowest first
    coeffs = []
    for k in range(n, -1, -1):
        shifted = [0] + coeffs
        coeffs = [c - k * d for c, d in zip(shifted, coeffs + [0])]
        coeffs[0] += diffs[k] * (nf // factorial(k))
    return [Fraction(c, nf * comb(n, m) * scale) for m, c in enumerate(coeffs)]


def det_expansion_check(mats: Sequence[GenMat], lambdas: Sequence) -> bool:
    """Verify det(sum lambda_r A_r) against its multinomial expansion.

    The right-hand side runs over all compositions r_1 + ... + r_m = n,
    weighting D(A_1 repeated r_1, ..., A_m repeated r_m) by the
    multinomial coefficient and the monomial in the lambdas.
    """
    mats, lams = _expansion_args(mats, lambdas, GenMat, ("matrix", "matrices"))
    n = mats[0].n
    combo = GenMat.zero(n)
    for m, lam in zip(mats, lams):
        combo = combo + m.scale(lam)
    return combo.det() == _multinomial_expansion(
        mats, lams, n, lambda rep: _discriminant_auto(MatTuple(rep))
    )


def mixed_adjugate(partial: Sequence[HermMat]) -> HermMat:
    """The matrix W with W[j][k] = D(E_jk, A_1, ..., A_(n-1)).

    E_jk is the single-entry basis matrix. Over the integer grids,
    n! prod(den) W is read off the permutation-sum DP's layer after the
    n - 1 inputs (`mixed_adjugate_sum`), up to n = `ADJUGATE_MAX_N`. The
    pairing identity D(B, A_1, ..., A_(n-1)) = sum_jk B[j][k] W[j][k]
    holds for every B.
    """
    part = list(partial)
    if not part:
        raise ValueError("need at least one matrix")
    _expect(part, HermMat, "a Hermitian matrix")
    n = part[0].n
    if len(part) != n - 1 or any(m.n != n for m in part):
        raise DimensionMismatchError(
            f"need exactly {n - 1} Hermitian matrices of dimension {n}"
        )
    if n > ADJUGATE_MAX_N:
        raise SizeLimitError(f"mixed adjugate limited to n <= {ADJUGATE_MAX_N}, got {n}")
    grid = mixed_adjugate_sum([m._rows for m in part])
    den = factorial(n) * prod(m._den for m in part)
    try:
        return HermMat._of_grid(grid, den)
    except ValueError as exc:
        raise InvariantViolationError(
            "mixed adjugate of Hermitian inputs must be Hermitian"
        ) from exc
