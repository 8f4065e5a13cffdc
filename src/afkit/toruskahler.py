"""Flat-torus model for cohomology classes of constant coefficients.

A Hermitian matrix A stands for the constant (1,1)-form it defines on
the unit torus; the intersection number of n such classes is
n! 2^n D(A_1, ..., A_n). Under this bridge nef means positive
semi-definite, Kahler means positive definite, and big-given-nef means
det > 0, so the AF inequality, the Khovanskii-Teissier inequalities,
and the equality theorems all become exactly checkable. Both equality
theorems run one core: the pair theorem is the m-fold theorem at m = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    HypothesisError,
    InvariantViolationError,
    NotBigError,
    _expect,
)
from .ineqcheck import GapReport, _discriminant_value, _fold_gap
from .matrixcore import HermMat, _minor_sums, proportional
from .mixdisc import MatTuple, _pencil_discriminants, mixed_adjugate
from .rationals import Rat


class TorusClass:
    """A constant class on the torus, carried by a Hermitian matrix."""

    __slots__ = ("mat", "det", "nef", "big", "kahler")

    def __init__(self, mat: HermMat):
        _expect([mat], HermMat, "a Hermitian matrix")
        self.mat = mat
        # c_k den^k, each of the sign of c_k; c_n / den^n is the determinant
        scaled = _minor_sums(mat)
        self.det = Fraction(scaled[-1], mat._den ** mat.n)
        self.nef = all(c >= 0 for c in scaled)
        self.big = scaled[-1] > 0
        self.kahler = all(c > 0 for c in scaled)
        if (self.nef and self.big) != self.kahler:
            raise InvariantViolationError(
                "nef and big must coincide with Kahler on the torus"
            )

    def __eq__(self, other):
        return isinstance(other, TorusClass) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        flags = [name for name in ("nef", "big", "kahler") if getattr(self, name)]
        return f"TorusClass(n={self.mat.n}, {'+'.join(flags) or 'none'})"


def _big_mats(classes) -> list:
    """The matrices of the classes, which must be nef and big."""
    classes = list(classes)
    _expect(classes, TorusClass, "a TorusClass")
    if not all(c.nef and c.big for c in classes):
        raise NotBigError("equality theorems need nef and big classes")
    return [c.mat for c in classes]


def _inum(mats: Sequence[HermMat]) -> Rat:
    return math.factorial(len(mats)) * 2 ** len(mats) * _discriminant_value(mats)


def intersection_number(classes: Sequence[TorusClass]) -> Rat:
    """Integral of the wedge of n classes: n! 2^n D(A_1, ..., A_n)."""
    classes = list(classes)
    _expect(classes, TorusClass, "a TorusClass")
    return _inum([c.mat for c in classes])


def af_gap_torus(
    alpha: TorusClass, c: TorusClass, rest: Sequence[TorusClass] = ()
) -> GapReport:
    """AF inequality on intersection numbers against a Kahler reference.

    lhs = (alpha c rest)^2, rhs = (alpha^2 rest)(c^2 rest). The
    reference c and the fixed classes must be Kahler; alpha may be any
    class. Equality holds exactly when alpha = lam c, and that lam is
    the certificate.
    """
    rest = list(rest)
    _expect([alpha, c] + rest, TorusClass, "a TorusClass")
    if not (c.kahler and all(x.kahler for x in rest)):
        raise HypothesisError("the reference and fixed classes must be Kahler")
    mats = [alpha.mat, c.mat] + [x.mat for x in rest]
    # the certificate is lam with alpha = lam c
    return _fold_gap(_inum, lambda a, b: proportional(b, a), mats, 2, True, "AF Kahler")


def kt_sequence(g1: TorusClass, g2: TorusClass) -> list:
    """Khovanskii-Teissier numbers s_m = g1^m g2^(n-m) for m = 0..n.

    Both classes must be nef. The whole sequence comes from one
    determinant pencil: det(x A_1 + A_2) = sum_m C(n, m) D(A_1^[m],
    A_2^[n-m]) x^m, so det A_2 = p(0), the determinants at x = 1..n-1
    and the leading coefficient det A_1 fix every
    s_m = n! 2^n D(A_1^[m], A_2^[n-m]) exactly, at any n
    (`mixdisc._pencil_discriminants`). x A_1 + A_2 is Hermitian, so
    each determinant is fraction-free elimination on its upper triangle
    (`_kernels.hermitian_det`), and det A_1, det A_2 are the classes'.
    Log-concavity of the sequence, s_m^2 >= s_(m-1) s_(m+1), is asserted
    before returning.
    """
    _expect([g1, g2], TorusClass, "a TorusClass")
    if not (g1.nef and g2.nef):
        raise HypothesisError("Khovanskii-Teissier needs nef classes")
    n = g1.mat.n
    scale = math.factorial(n) * 2 ** n
    seq = [scale * d for d in _pencil_discriminants(g1.mat, g2.mat, g1.det, g2.det)]
    for m in range(1, n):
        if seq[m] ** 2 < seq[m - 1] * seq[m + 1]:
            raise InvariantViolationError(
                f"log-concavity failed at position {m}: {seq}"
            )
    return seq


@dataclass(frozen=True)
class PairEqualityVerdict:
    """Equality theorem for a pair: gap, adjugates, and class ratios."""

    report: GapReport
    adjugates_proportional: bool
    adjugate_ratio: Optional[Rat]
    matrices_proportional: bool
    matrix_ratio: Optional[Rat]


@dataclass(frozen=True)
class MFoldEqualityVerdict:
    """m-fold equality theorem: gap plus the family of mixed adjugates."""

    report: GapReport
    adjugates_proportional: bool
    adjugate_count: int


@dataclass(frozen=True)
class FullEqualityVerdict:
    """Full-product corollary: gap plus pairwise class proportionality."""

    report: GapReport
    matrices_proportional: bool


def _equality_core(classes, m, context):
    """The m-fold gap report of nef and big classes, and the ratio of each
    later mixed adjugate W(g_{i_1}, ..., g_{i_(m-1)}, tail), all i_k < m,
    to the first; gap = 0 exactly when every ratio exists (asserted).
    Adjugates go rest by rest, each rest g_{i_2}, ..., tail with all its
    leads g_{i_1} in one run, while the kernels' memo still holds it."""
    mats = _big_mats(classes)
    report = _fold_gap(_inum, proportional, mats, m, True, context)
    tail = mats[m:]
    combos = combinations_with_replacement(range(m), m - 1)
    adjugates = [
        mixed_adjugate([mats[i] for i in combo] + tail)
        for combo in sorted(combos, key=lambda c: (c[1:], c[0]))
    ]
    ratios = [proportional(adjugates[0], w) for w in adjugates[1:]]
    if report.equality != all(r is not None for r in ratios):
        raise InvariantViolationError(
            f"{context}: adjugate proportionality must match the equality case"
        )
    return report, ratios


def equality_theorem_pair(
    g1: TorusClass, g2: TorusClass, rest: Sequence[TorusClass] = ()
) -> PairEqualityVerdict:
    """Certify the pair equality theorem on nef and big classes.

    The AF gap of (g1 g2 rest)^2 vs (g1^2 rest)(g2^2 rest) vanishes
    exactly when the mixed adjugates W(g1, rest) and W(g2, rest) are
    proportional, and exactly when g1 and g2 themselves are; both
    biconditionals are asserted. This is the m-fold theorem at m = 2.
    """
    report, (ratio,) = _equality_core([g1, g2, *rest], 2, "pair equality")
    cert = report.certificate
    return PairEqualityVerdict(report, ratio is not None, ratio, cert is not None, cert)


def equality_theorem_m(classes: Sequence[TorusClass], m: int) -> MFoldEqualityVerdict:
    """Certify the m-fold equality theorem on nef and big classes.

    Equality in the m-fold AF inequality holds exactly when all mixed
    adjugates W(g_{i_1}, ..., g_{i_(m-1)}, tail) over multi-indices
    drawn from the first m classes are pairwise proportional; the
    biconditional is asserted.
    """
    report, ratios = _equality_core(classes, m, "m-fold equality")
    return MFoldEqualityVerdict(report, all(r is not None for r in ratios), len(ratios) + 1)


def equality_corollary_full(classes: Sequence[TorusClass]) -> FullEqualityVerdict:
    """Certify (g1 ... gn)^n = prod_i g_i^n iff all classes proportional."""
    mats = _big_mats(classes)
    n = MatTuple(mats).n
    if n < 2:
        raise DimensionMismatchError("the full corollary needs at least two classes")
    report = _fold_gap(_inum, proportional, mats, n, True, "full proportionality")
    return FullEqualityVerdict(report, report.certificate is not None)
