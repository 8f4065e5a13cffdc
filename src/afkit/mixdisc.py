"""Mixed discriminants of matrix tuples.

Two independent evaluation routes cross-validate each other: a folded
permutation sum (n factorial collapsed into a subset DP) and the
multiset polarization sum over sum determinants; `_discriminant_auto`
takes the cheaper one for each multiset. The module also carries the
determinant expansion identity checker and the mixed adjugate, the
matrix of discriminants against single-entry basis matrices, read off
one layer of the same DP. Both memoize their exact values by matrix
multiset and evaluate a miss in the caller's order, fixed matrices
last, so the DP reuses the layer after them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Sequence

from ._kernels import (
    _multinomial_expansion,
    _polarize,
    gauss_det,
    mixed_adjugate_sum,
    mixed_perm_sum,
)
from .errors import DimensionMismatchError, InvariantViolationError, SizeLimitError
from .matrixcore import GenMat, HermMat
from .rationals import GaussRat, as_rat

PERMUTATION_ROUTE_MAX_N = 6
POLARIZED_ROUTE_MAX_N = 20

# Three memos serve one instance. The two here hold finished values and
# adjugates, so a value asked for twice costs a lookup; the kernels'
# rest-layer memo (`_kernels._REST_LAYER_MEMO_SIZE`) holds the DP layer
# after a call's trailing n - 2 matrices, so distinct values and
# adjugates that share their fixed matrices each cost two more layers
# (one for an adjugate).
#
# A torus instance asks for the three values of the pair theorem, then
# the n + 1 <= 7 Khovanskii-Teissier values, then the m-fold values,
# whose first is the pair's D(g1, g2, rest) again (at m = 2 all three
# are). 3 + 7 entries keep the pair's values until the fold asks; the
# discriminant mode's pair-then-fold pattern needs only its 3.
_VALUE_MEMO_SIZE = 10
# The pair theorem builds W(g1, rest) and W(g2, rest); the m-fold
# theorem that follows builds C(2m - 2, m - 1) adjugates in
# lexicographic order, the pair's two among them. At m = 2 they are its
# first two; at m = 3 the second comes fifth, after three new ones, so
# 5 entries catch both. Larger m asks again later than a few n x n
# grids are worth keeping.
#
# Rest layers: the discriminant, shephard and bm (m = 2) modes and the
# torus pair theorem ask for one rest per instance, back to back: the
# 3 values, the 10 Gram entries of r = 3, the 3 coefficients, or the
# pair's 3 values and 2 adjugates. A torus fold at m = 3 interleaves
# three rests, g_i + tail for its leading classes g_i, one of them the
# pair's: its values D(g_i^[3], tail) and adjugates W(g_i, g_j, tail)
# revisit each. 4 layers keep those three with one to spare, at about
# 30 KB a layer for n = 6.
_ADJUGATE_MEMO_SIZE = 5


class MatTuple:
    """An ordered tuple of n matrices of dimension n."""

    __slots__ = ("n", "mats")

    def __init__(self, mats: Sequence[GenMat]):
        mats = tuple(mats)
        if not mats:
            raise ValueError("matrix tuple must not be empty")
        for m in mats:
            if not isinstance(m, GenMat):
                raise TypeError(f"expected a matrix, got {type(m).__name__}")
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

    Equal matrices are grouped, and n! D is the polarization sum of
    det(sum_i k_i B_i) over 0 <= k <= r, k != 0 (`_polarize`); over the
    lcm of the B_i denominators, each sum is an integer grid.
    """
    n = t.n
    if n > POLARIZED_ROUTE_MAX_N:
        raise SizeLimitError(
            f"polarization route limited to n <= {POLARIZED_ROUTE_MAX_N}, got {n}"
        )
    counts = Counter(t.mats)
    scale = lcm(*(m._den for m in counts))
    grids = [(scale // m._den, m._rows) for m in counts]

    def det_of_sum(k):
        terms = [(c * f, g) for c, (f, g) in zip(k, grids) if c]
        return GaussRat(*gauss_det([
            [tuple(sum(c * g[r][j][part] for c, g in terms) for part in (0, 1)) for j in range(n)]
            for r in range(n)
        ]))

    total = _polarize(list(counts.values()), det_of_sum)
    denom = factorial(n) * scale ** n
    return _finalize(t, total.re / denom, total.im / denom)


class _MemoKey:
    """A matrix tuple in its caller's order, hashed and compared as its
    multiset plus the all-Hermitian flag.

    D is symmetric in its matrices, so the multiset fixes its value: a
    permuted tuple is a memo hit, while a miss evaluates `mats` as the
    caller ordered them, fixed matrices last, which is the order the
    kernels' rest-layer memo keys on. GenMat and HermMat grids compare
    equal; the flag keeps them apart, so a value cached for general
    matrices never skips the Hermitian invariant of a Hermitian tuple.
    """

    __slots__ = ("mats", "counts", "_key")

    def __init__(self, mats):
        self.mats = tuple(mats)
        self.counts = frozenset(Counter(self.mats).items())
        self._key = self.counts, all(isinstance(m, HermMat) for m in self.mats)

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return self._key == other._key


def _polarized_is_cheaper(n: int, mults) -> bool:
    """prod(r_i + 1) - 1 sum determinants at about n^3 steps each,
    against the DP's sum over c of C(n, c)^2 states with (n - c)^2
    extensions each: after c matrices, the (row, column) mask pairs of
    count c, each extended by a row and a column for the next."""
    dets = prod(r + 1 for r in mults) - 1
    return dets * n ** 3 < sum(comb(n, c) ** 2 * (n - c) ** 2 for c in range(n))


def _discriminant_auto(t: MatTuple) -> GaussRat:
    return _auto_value(_MemoKey(t.mats))


@lru_cache(maxsize=_VALUE_MEMO_SIZE)
def _auto_value(key: _MemoKey) -> GaussRat:
    """D of the multiset by the cheaper route, in the key's order."""
    t = MatTuple(key.mats)
    if t.n > PERMUTATION_ROUTE_MAX_N or _polarized_is_cheaper(t.n, (r for _, r in key.counts)):
        return mixed_discriminant_polarized(t)
    return mixed_discriminant(t)


def det_expansion_check(mats: Sequence[GenMat], lambdas: Sequence) -> bool:
    """Verify det(sum lambda_r A_r) against its multinomial expansion.

    The right-hand side runs over all compositions r_1 + ... + r_m = n,
    weighting D(A_1 repeated r_1, ..., A_m repeated r_m) by the
    multinomial coefficient and the monomial in the lambdas.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    if len(lambdas) != len(mats):
        raise DimensionMismatchError(
            f"{len(mats)} matrices but {len(lambdas)} coefficients"
        )
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise DimensionMismatchError("matrices must share one dimension")
    lams = [as_rat(l) for l in lambdas]

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
    n - 1 inputs (`mixed_adjugate_sum`). The pairing identity
    D(B, A_1, ..., A_(n-1)) = sum_jk B[j][k] W[j][k] holds for every B.
    """
    part = list(partial)
    if not part:
        raise ValueError("need at least one matrix")
    for m in part:
        if not isinstance(m, HermMat):
            raise TypeError("mixed adjugate requires Hermitian inputs")
    n = part[0].n
    if len(part) != n - 1 or any(m.n != n for m in part):
        raise DimensionMismatchError(
            f"need exactly {n - 1} Hermitian matrices of dimension {n}"
        )
    return _adjugate(_MemoKey(part))


@lru_cache(maxsize=_ADJUGATE_MEMO_SIZE)
def _adjugate(key: _MemoKey) -> HermMat:
    """W of the matrix multiset, which is all Hermitian, in the key's order."""
    part = key.mats
    grid = mixed_adjugate_sum([m._rows for m in part])
    den = factorial(part[0].n) * prod(m._den for m in part)
    try:
        return HermMat._of_grid(grid, den)
    except ValueError as exc:
        raise InvariantViolationError(
            "mixed adjugate of Hermitian inputs must be Hermitian"
        ) from exc
