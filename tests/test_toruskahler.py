"""Flat-torus model: intersection numbers of constant classes, the
Kahler-cone AF gap, Khovanskii-Teissier sequences, and the equality
theorems certified through mixed adjugates."""

import math
import random
from fractions import Fraction

import pytest

from afkit import _kernels, mixdisc
from afkit.errors import (
    DimensionMismatchError,
    HypothesisError,
    InvariantViolationError,
    NotBigError,
    SizeLimitError,
)
from afkit.ineqcheck import af_gap_discriminant
from afkit.matrixcore import proportional
from afkit.mixdisc import MatTuple, mixed_adjugate, mixed_discriminant
from afkit.toruskahler import (
    FullEqualityVerdict,
    MFoldEqualityVerdict,
    PairEqualityVerdict,
    TorusClass,
    af_gap_torus,
    equality_corollary_full,
    equality_theorem_m,
    equality_theorem_pair,
    intersection_number,
    kt_sequence,
)

from oracles import kt_sequence_reference
from support import count_calls, diag, gen, gen_psd_singular, herm, identity, rand_pd, rand_psd

F = Fraction


def tc(mat):
    return TorusClass(mat)


def rand_kahler(rng, n):
    return tc(rand_pd(rng, n))


def test_class_flags():
    k = tc(diag(2, 3))
    assert k.nef and k.big and k.kahler
    s = tc(diag(1, 0))
    assert s.nef and not s.big and not s.kahler
    ind = tc(diag(1, -1))
    assert not ind.nef and not ind.kahler
    with pytest.raises(TypeError):
        tc(gen([[1, 0], [0, 1]]))


def test_intersection_frozen():
    one = tc(identity(2))
    assert intersection_number([one, one]) == 8
    zero = tc(diag(0, 0))
    assert intersection_number([one, zero]) == 0


def test_intersection_is_scaled_discriminant():
    rng = random.Random(293)
    for n in (2, 3):
        mats = [rand_pd(rng, n) for _ in range(n)]
        d = mixed_discriminant(MatTuple(mats)).re
        got = intersection_number([tc(m) for m in mats])
        assert got == math.factorial(n) * 2 ** n * d


def test_intersection_validation():
    with pytest.raises(TypeError):
        intersection_number([identity(2), identity(2)])
    with pytest.raises(DimensionMismatchError):
        intersection_number([tc(identity(2))])


def test_af_gap_torus_frozen():
    r = af_gap_torus(tc(diag(2, 1)), tc(diag(1, 2)))
    assert r.lhs == 400
    assert r.rhs == 256
    assert r.gap == 144
    assert not r.equality
    assert r.characterized


def test_af_gap_torus_proportional_certificate():
    rng = random.Random(307)
    c = rand_kahler(rng, 3)
    rest = [rand_kahler(rng, 3)]
    alpha = tc(c.mat.scale(F(5, 2)))
    r = af_gap_torus(alpha, c, rest)
    assert r.equality
    assert r.certificate == F(5, 2)


def test_af_gap_torus_scales_discriminant_gap():
    rng = random.Random(311)
    n = 3
    c = rand_kahler(rng, n)
    rest = [rand_kahler(rng, n)]
    alpha = tc(rand_pd(rng, n))
    torus = af_gap_torus(alpha, c, rest)
    disc = af_gap_discriminant(c.mat, alpha.mat, [x.mat for x in rest])
    factor = (math.factorial(n) * 2 ** n) ** 2
    assert torus.gap == factor * disc.gap


def test_af_gap_torus_requires_kahler_reference():
    with pytest.raises(HypothesisError):
        af_gap_torus(tc(identity(2)), tc(diag(1, 0)))


def test_kt_frozen_sequence():
    seq = kt_sequence(tc(diag(1, 2)), tc(identity(2)))
    assert seq == [8, 12, 16]


def test_kt_equal_classes_are_geometric():
    g = tc(diag(2, 1, 1))
    seq = kt_sequence(g, g)
    assert len(seq) == 4
    assert all(x == seq[0] for x in seq)


def test_kt_log_concavity_sweep():
    rng = random.Random(313)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        seq = kt_sequence(tc(rand_psd(rng, n)), tc(rand_psd(rng, n)))
        for m in range(1, n):
            assert seq[m] ** 2 >= seq[m - 1] * seq[m + 1]


def test_kt_requires_nef():
    with pytest.raises(HypothesisError):
        kt_sequence(tc(diag(1, -1)), tc(identity(2)))


def test_kt_needs_one_dimension():
    with pytest.raises(DimensionMismatchError):
        kt_sequence(tc(identity(2)), tc(identity(3)))


@pytest.mark.parametrize("n", range(2, 9))
def test_kt_pencil_matches_the_per_m_reference(n):
    """Generic pairs over different denominators, proportional pairs,
    equal classes and singular nef classes, past the DP cap at n = 7, 8."""
    rng = random.Random(337 + n)
    g1 = tc(rand_psd(rng, n, bound=2))
    g2 = tc(rand_pd(rng, n, bound=2).scale(F(2, 5)))
    s1, s2 = tc(gen_psd_singular(n, n, 2)), tc(gen_psd_singular(50 + n, n, 2))
    pairs = [
        (g1, g2),
        (g2, tc(g2.mat.scale(F(7, 3)))),
        (g1, g1),
        (s1, g2),
        (s1, s2),
    ]
    for a, b in pairs:
        assert kt_sequence(a, b) == kt_sequence_reference(a, b)
    assert kt_sequence(s1, s2)[-1] == 0


def padded(mat):
    """0 (+) mat: a nef class that is not big, with a zero first row."""
    rows = [[0] * (mat.n + 1)] + [[0, *row] for row in mat.entries]
    return tc(herm(rows))


@pytest.mark.parametrize("n", range(2, 8))
def test_kt_pencil_on_nef_but_not_big_pairs(monkeypatch, n):
    """Singular pairs whose pencil is regular, and pairs with a common
    zero row, whose pencil grids hand their zero first pivot from
    `hermitian_det` to `gauss_det`."""
    rng = random.Random(379 + n)
    s1, s2 = tc(gen_psd_singular(n, n, 2)), tc(gen_psd_singular(70 + n, n, 2))
    p1 = padded(rand_pd(rng, n - 1, bound=2))
    p2 = padded(rand_psd(rng, n - 1, bound=2).scale(F(2, 3)))
    for a, b, handovers in [(s1, s2, 0), (s2, s1, 0), (p1, p2, n - 1), (p2, p1, n - 1)]:
        assert a.nef and b.nef and not (a.big or b.big)
        calls = count_calls(monkeypatch, _kernels, "gauss_det")
        assert kt_sequence(a, b) == kt_sequence_reference(a, b)
        assert len(calls) == handovers
        monkeypatch.undo()


@pytest.mark.parametrize("n", [2, 5])
def test_kt_pencil_takes_p0_from_the_class(monkeypatch, n):
    # p(0) = det A_2 and the leading coefficient det A_1 are the c_n that
    # each TorusClass already holds, so only p(1), ..., p(n-1) run a
    # determinant, each a Hermitian one that never hands over
    rng = random.Random(341 + n)
    g1, g2 = tc(rand_pd(rng, n, bound=2)), tc(rand_pd(rng, n, bound=2).scale(F(3, 4)))
    assert (g1.det, g2.det) == (g1.mat.det().re, g2.mat.det().re)
    want = kt_sequence_reference(g1, g2)
    calls = count_calls(monkeypatch, mixdisc, "hermitian_det")
    general = count_calls(monkeypatch, mixdisc, "gauss_det")
    handovers = count_calls(monkeypatch, _kernels, "gauss_det")
    assert kt_sequence(g1, g2) == want
    assert (len(calls), len(general), len(handovers)) == (n - 1, 0, 0)


def test_kt_non_real_pencil_determinant_raises(monkeypatch):
    det = mixdisc.hermitian_det
    monkeypatch.setattr(mixdisc, "hermitian_det", lambda rows: (det(rows)[0], 1))
    with pytest.raises(InvariantViolationError):
        kt_sequence(tc(diag(1, 2)), tc(identity(2)))


def test_kt_non_real_handed_over_determinant_raises(monkeypatch):
    # the pencil of two classes with a zero first row hands its grids
    # to `gauss_det`, whose value reaches the same check
    a, b = padded(diag(1, 2)), padded(identity(2))
    assert kt_sequence(a, b) == kt_sequence_reference(a, b)
    det = _kernels.gauss_det
    monkeypatch.setattr(_kernels, "gauss_det", lambda rows: (det(rows)[0], 1))
    with pytest.raises(InvariantViolationError):
        kt_sequence(a, b)


def test_equality_pair_proportional_classes():
    rng = random.Random(317)
    g1 = rand_kahler(rng, 3)
    g2 = tc(g1.mat.scale(3))
    rest = [rand_kahler(rng, 3)]
    v = equality_theorem_pair(g1, g2, rest)
    assert isinstance(v, PairEqualityVerdict)
    assert v.report.equality
    assert v.matrices_proportional and v.matrix_ratio == 3
    assert v.adjugates_proportional and v.adjugate_ratio == 3


def test_equality_pair_diagonal_cases():
    eq = equality_theorem_pair(tc(diag(1, 2)), tc(diag(2, 4)))
    assert eq.report.equality and eq.matrix_ratio == 2
    strict = equality_theorem_pair(tc(diag(1, 2)), tc(diag(2, 1)))
    assert not strict.report.equality
    assert strict.report.gap == 144
    assert not strict.adjugates_proportional
    assert not strict.matrices_proportional


def test_equality_pair_generic_strict():
    rng = random.Random(331)
    for _ in range(10):
        g1 = rand_kahler(rng, 3)
        g2 = rand_kahler(rng, 3)
        if proportional(g1.mat, g2.mat) is not None:
            continue
        rest = [rand_kahler(rng, 3)]
        v = equality_theorem_pair(g1, g2, rest)
        assert v.report.gap > 0
        assert not v.adjugates_proportional


def test_equality_pair_adjugates_match_direct_computation():
    rng = random.Random(337)
    g1 = rand_kahler(rng, 3)
    g2 = rand_kahler(rng, 3)
    rest = [rand_kahler(rng, 3)]
    v = equality_theorem_pair(g1, g2, rest)
    w1 = mixed_adjugate([g1.mat] + [x.mat for x in rest])
    w2 = mixed_adjugate([g2.mat] + [x.mat for x in rest])
    assert v.adjugates_proportional == (proportional(w1, w2) is not None)


def test_equality_pair_rejects_non_big():
    with pytest.raises(NotBigError):
        equality_theorem_pair(tc(diag(1, 0)), tc(identity(2)))
    with pytest.raises(NotBigError):
        equality_theorem_pair(tc(identity(2)), tc(diag(1, -1)))


def test_equality_pair_stops_at_the_adjugate_size_limit():
    # the values of eleven equal classes take the det route; the
    # certificate's mixed adjugates at n = 11 lie past ADJUGATE_MAX_N
    classes = [tc(identity(11))] * 11
    with pytest.raises(SizeLimitError):
        equality_theorem_pair(classes[0], classes[1], classes[2:])


def test_equality_m_fold_proportional_family():
    rng = random.Random(347)
    base = rand_pd(rng, 3)
    classes = [tc(base.scale(F(i + 1, 2))) for i in range(3)]
    v = equality_theorem_m(classes, 3)
    assert isinstance(v, MFoldEqualityVerdict)
    assert v.report.equality
    assert v.adjugates_proportional
    # multisets of size 2 drawn from 3 classes
    assert v.adjugate_count == 6


def test_equality_m_fold_reduces_to_pair():
    rng = random.Random(349)
    classes = [rand_kahler(rng, 3) for _ in range(3)]
    v2 = equality_theorem_m(classes, 2)
    pair = equality_theorem_pair(classes[0], classes[1], classes[2:])
    assert v2.report.lhs == pair.report.lhs
    assert v2.report.rhs == pair.report.rhs
    assert v2.adjugates_proportional == pair.adjugates_proportional


def test_equality_m_fold_generic_strict():
    rng = random.Random(353)
    classes = [rand_kahler(rng, 4) for _ in range(4)]
    for m in (2, 3, 4):
        v = equality_theorem_m(classes, m)
        assert v.report.gap > 0
        assert not v.adjugates_proportional


def test_equality_m_fold_validation():
    rng = random.Random(359)
    classes = [rand_kahler(rng, 3) for _ in range(3)]
    with pytest.raises(ValueError):
        equality_theorem_m(classes, 1)
    with pytest.raises(NotBigError):
        equality_theorem_m([tc(diag(1, 0, 0))] + classes[1:], 2)


def test_equality_full_corollary():
    rng = random.Random(367)
    base = rand_pd(rng, 3)
    scaled = [tc(base.scale(i + 1)) for i in range(3)]
    v = equality_corollary_full(scaled)
    assert isinstance(v, FullEqualityVerdict)
    assert v.report.equality and v.matrices_proportional

    generic = [rand_kahler(rng, 3) for _ in range(3)]
    w = equality_corollary_full(generic)
    assert w.report.gap > 0
    assert not w.matrices_proportional


def test_equality_full_corollary_needs_two_classes():
    with pytest.raises(DimensionMismatchError):
        equality_corollary_full([tc(diag(2))])


def test_af_gap_torus_is_exported():
    import afkit
    from afkit import toruskahler

    assert afkit.af_gap_torus is toruskahler.af_gap_torus
    assert "af_gap_torus" in afkit.__all__


def test_adjugate_linearity():
    rng = random.Random(373)
    x = rand_pd(rng, 3)
    y = rand_pd(rng, 3)
    rest = [rand_pd(rng, 3)]
    a, b = F(3, 2), F(-2, 5)
    combo = mixed_adjugate([x.scale(a) + y.scale(b)] + rest)
    split = mixed_adjugate([x] + rest).scale(a) + mixed_adjugate([y] + rest).scale(b)
    assert combo == split
