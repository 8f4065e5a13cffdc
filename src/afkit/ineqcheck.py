"""Alexandrov-Fenchel inequality verdicts for both engines.

Every left-hand side, right-hand side, and gap is an exact rational,
and equality verdicts are exact comparisons. Floating point enters in
exactly one place: the m-th roots of the concavity samples, which both
engines form exactly from a pair's m+1 mixed values. There is one gap
check, the m-fold one, shared with the torus verdicts; the pair check is
its case m = 2. The shared cores hold the argument checks as well: the
fold checks m, `_bm_shape` the samplers' m and rest length, and a wrong
type raises TypeError (`errors._expect`) at every front door.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .convexvol import BodyTuple, Polytope, _homothety_ratio, mixed_volume
from .errors import (
    DimensionMismatchError,
    HypothesisError,
    InvariantViolationError,
    NotBigError,
    SizeLimitError,
    _expect,
)
from .matrixcore import HermMat, _definiteness, is_psd, proportional
from .mixdisc import MatTuple, _discriminant_auto
from .rationals import Rat, as_rat

DEFAULT_GRID_SIZE = 11


@dataclass(frozen=True)
class GapReport:
    """Exact verdict for one Alexandrov-Fenchel type instance.

    gap is lhs - rhs and is nonnegative on qualified inputs. The
    certificate carries a proportionality (or homothety) constant when
    one was found; it always implies equality. characterized records
    whether equality is claimed to occur *only* under such a
    certificate, which needs definite inputs.
    """

    lhs: Rat
    rhs: Rat
    gap: Rat
    equality: bool
    certificate: Optional[Rat]
    characterized: bool

    def __post_init__(self):
        if self.gap != self.lhs - self.rhs or self.equality != (self.gap == 0):
            raise InvariantViolationError("inconsistent gap report fields")


@dataclass(frozen=True)
class ConcavityReport:
    """Float samples of a concave root function on a rational grid."""

    grid: tuple
    values: tuple
    max_violation: float


def gap_report(lhs, rhs, certificate, characterized, context) -> GapReport:
    """Assemble a report, enforcing the inequality and its equality case."""
    gap = lhs - rhs
    if gap < 0:
        raise InvariantViolationError(f"{context}: negative gap {gap}")
    if certificate is not None and gap != 0:
        raise InvariantViolationError(
            f"{context}: certificate {certificate} found but gap {gap} is nonzero"
        )
    if characterized and gap == 0 and certificate is None:
        raise InvariantViolationError(
            f"{context}: equality holds on definite inputs but no certificate exists"
        )
    return GapReport(lhs, rhs, gap, gap == 0, certificate, characterized)


def _fold_gap(value, ratio, items, m, characterized, context) -> GapReport:
    """V(items)^m against prod_{i<m} V(items_i repeated m, items[m:]).

    The certificate is ratio(items[0], items[1]) when every items[i],
    i < m, has a ratio to items[0]. The pair check is m = 2. Every fold
    checks its m here; the value checks the shape of the tuple.
    """
    items = list(items)
    if not 2 <= m <= len(items):
        raise ValueError(f"m must lie in [2, {len(items)}], got {m}")
    tail = items[m:]
    lhs = value(items) ** m
    rhs = 1
    for x in items[:m]:
        rhs *= value([x] * m + tail)
    ratios = [ratio(items[0], x) for x in items[1:m]]
    cert = ratios[0] if all(r is not None for r in ratios) else None
    return gap_report(lhs, rhs, cert, characterized, context)


def _discriminant_value(mats) -> Rat:
    return _discriminant_auto(MatTuple(mats)).re


def _volume_value(bodies) -> Rat:
    return mixed_volume(BodyTuple(bodies))


def af_gap_discriminant(a: HermMat, b: HermMat, rest: Sequence[HermMat] = ()) -> GapReport:
    """Pairwise AF inequality for mixed discriminants.

    lhs = D(A, B, rest)^2 and rhs = D(A, A, rest) D(B, B, rest), where
    A and the fixed matrices must be positive semi-definite while B may
    be any Hermitian matrix. When A and the fixed matrices are positive
    definite the equality case is characterized: gap = 0 exactly when
    B is a real multiple of A, and that multiple is the certificate.
    """
    rest = list(rest)
    _expect([a, b] + rest, HermMat, "a Hermitian matrix")
    psd, characterized = _definiteness([a] + rest)
    if not psd:
        raise HypothesisError(
            "the first and the fixed matrices must be positive semi-definite"
        )
    return _fold_gap(
        _discriminant_value, proportional, [a, b] + rest, 2, characterized, "AF discriminant"
    )


def af_m_fold_discriminant(t: MatTuple, m: int) -> GapReport:
    """m-fold AF inequality D(A_1..A_n)^m >= prod_i D(A_i^[m], tail).

    The i-th right-hand factor repeats A_i in the first m slots; the
    tail A_{m+1}..A_n is shared. All matrices must be positive
    semi-definite. For positive definite inputs equality holds exactly
    when A_1..A_m are pairwise proportional, and the certificate is the
    ratio of the second to the first.
    """
    _expect([t], MatTuple, "a matrix tuple")
    _expect(t.mats, HermMat, "a Hermitian matrix")
    psd, characterized = _definiteness(t.mats)
    if not psd:
        raise HypothesisError("m-fold AF requires positive semi-definite matrices")
    return _fold_gap(
        _discriminant_value, proportional, t.mats, m, characterized, "m-fold AF discriminant"
    )


def homothety_ratio(k: Polytope, l: Polytope) -> Optional[Rat]:
    """Scale factor lam >= 0 with L = lam K + t, or None if no such map.

    Dilation by a positive factor plus translation preserves the
    lexicographic order of vertices, so the sorted vertex grids must
    match position by position.
    """
    _expect([k, l], Polytope, "a Polytope")
    if k.dim != l.dim:
        raise DimensionMismatchError(f"body dimensions differ: {k.dim} vs {l.dim}")
    return _homothety_ratio(k, l)


def af_gap_volume(k: Polytope, l: Polytope, rest: Sequence[Polytope] = ()) -> GapReport:
    """Pairwise AF inequality for mixed volumes.

    lhs = V(K, L, rest)^2 and rhs = V(K, K, rest) V(L, L, rest). A
    homothety L = lam K + t is detected and reported as a certificate,
    which is sufficient for equality; no full equality characterization
    is claimed, so characterized is always False here.
    """
    return _fold_gap(_volume_value, homothety_ratio, [k, l, *rest], 2, False, "AF volume")


def af_m_fold_volume(t: BodyTuple, m: int) -> GapReport:
    """m-fold AF inequality for mixed volumes; see af_m_fold_discriminant."""
    _expect([t], BodyTuple, "a body tuple")
    return _fold_gap(_volume_value, homothety_ratio, t.bodies, m, False, "m-fold AF volume")


def _grid(grid_size: int):
    if grid_size < 3:
        raise ValueError(f"grid_size must be at least 3, got {grid_size}")
    return [Fraction(k, grid_size - 1) for k in range(grid_size)]


def _bm_shape(n, rest, m, what) -> None:
    """Both samplers' shape check: 1 <= m <= n and n - m fixed `what`."""
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    if len(rest) != n - m:
        raise DimensionMismatchError(f"need {n - m} fixed {what} for m = {m}, got {len(rest)}")


def _concavity_report(value, x0, x1, rest, m, grid_size) -> ConcavityReport:
    """The m-th root of lam -> V(((1-lam)X0 + lam X1)^[m], rest) on the
    grid. V is multilinear, so each sample is exactly sum_k C(m, k)
    (1-lam)^(m-k) lam^k v_k with v_k = value(X0^[m-k], X1^[k], rest)."""
    grid = _grid(grid_size)
    coeffs = [math.comb(m, k) * value([x0] * (m - k) + [x1] * k + rest) for k in range(m + 1)]
    exact = [sum(c * (1 - lam) ** (m - k) * lam ** k for k, c in enumerate(coeffs)) for lam in grid]
    if any(v < 0 for v in exact):
        raise InvariantViolationError("a sampled mixed discriminant or mixed volume must be nonnegative")
    return _root_report(grid, exact, m)


def _root_report(grid, exact, m) -> ConcavityReport:
    """Float m-th roots of exact nonnegative samples on the grid."""
    # samples past 2^1000 are divided by a common 2^(m k) that brings
    # them below it, so no root, sum or difference of roots overflows to
    # inf (inf - inf is NaN, which no comparison reports); multiplying
    # the roots and violations back by 2^k is exact, and k = 0 otherwise
    top = max(v.numerator.bit_length() - v.denominator.bit_length() for v in exact)
    k = max(0, -(-(top - 1000) // m))
    values = [float(Fraction(v.numerator, v.denominator << m * k)) ** (1.0 / m) for v in exact]
    # second differences of grid triples, then shortfalls below the chord
    g0, g1 = values[0], values[-1]
    max_violation = max(
        [0.0]
        + [values[i] + values[i + 2] - 2 * values[i + 1] for i in range(len(values) - 2)]
        + [(1 - float(lam)) * g0 + float(lam) * g1 - gv for lam, gv in zip(grid, values)]
    )
    if k:
        try:
            values = [math.ldexp(v, k) for v in values]
            max_violation = math.ldexp(max_violation, k)
        except OverflowError:
            raise SizeLimitError(
                f"the {m}-th root of a concavity sample exceeds the float range"
            ) from None
    return ConcavityReport(tuple(grid), tuple(values), max_violation)


def bm_concavity_discriminant(
    a0: HermMat,
    a1: HermMat,
    rest: Sequence[HermMat],
    m: int,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> ConcavityReport:
    """Sample lam -> D(((1-lam)A0 + lam A1)^[m], rest)^(1/m) on [0, 1].

    The samples are exact; only the m-th root is floated. Concavity is
    probed two ways: second differences of consecutive grid triples and
    shortfall below the chord through the endpoints.
    """
    rest = list(rest)
    _expect([a0, a1] + rest, HermMat, "a Hermitian matrix")
    _bm_shape(a0.n, rest, m, "matrices")
    if not all(is_psd(x) for x in [a0, a1] + rest):
        raise HypothesisError("concavity needs positive semi-definite matrices")
    return _concavity_report(_discriminant_value, a0, a1, rest, m, grid_size)


def bm_concavity_volume(
    k0: Polytope,
    k1: Polytope,
    rest: Sequence[Polytope],
    m: int,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> ConcavityReport:
    """Sample lam -> V(((1-lam)K0 + lam K1)^[m], rest)^(1/m) on [0, 1]."""
    rest = list(rest)
    _expect([k0, k1] + rest, Polytope, "a Polytope")
    _bm_shape(k0.dim, rest, m, "bodies")
    return _concavity_report(_volume_value, k0, k1, rest, m, grid_size)


def equality_lambda(d00, d01) -> Rat:
    """Proportionality constant d01/d00 read off a pairing table.

    A vanishing reference pairing d00 signals a non-big configuration,
    where no constant exists; that case raises NotBigError.
    """
    d00 = as_rat(d00)
    d01 = as_rat(d01)
    if d00 == 0:
        raise NotBigError("reference pairing d00 = 0: configuration is not big")
    return d01 / d00
