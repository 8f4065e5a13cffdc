"""Inequality verdicts: pairwise and m-fold Alexandrov-Fenchel gaps for
both engines, Brunn-Minkowski concavity of root functions, and the
equality certificates."""

import random
from fractions import Fraction

import pytest

from afkit import ineqcheck
from afkit.convexvol import BodyTuple, convex_hull, dilate, translate
from afkit.errors import DimensionMismatchError, HypothesisError, NotBigError, SizeLimitError
from afkit.ineqcheck import (
    ConcavityReport,
    GapReport,
    _grid,
    _root_report,
    af_gap_discriminant,
    af_gap_volume,
    af_m_fold_discriminant,
    af_m_fold_volume,
    bm_concavity_discriminant,
    bm_concavity_volume,
    equality_lambda,
    homothety_ratio,
)
from afkit.matrixcore import proportional
from afkit.mixdisc import MatTuple

from oracles import bm_samples_bodies, bm_samples_matrices, permanent
from support import box, diag, gen, identity, rand_pd

F = Fraction


def rand_cloud(rng, d, count=6, bound=5, denom=2):
    return [
        tuple(F(rng.randint(-bound, bound), rng.randint(1, denom)) for _ in range(d))
        for _ in range(count)
    ]


def nonprop_pd_pair(rng, n):
    a = rand_pd(rng, n)
    while True:
        b = rand_pd(rng, n)
        if proportional(a, b) is None:
            return a, b


def test_af_discriminant_frozen_diag():
    r = af_gap_discriminant(diag(1, 2), diag(2, 1))
    assert r.lhs == F(25, 4)
    assert r.rhs == 4
    assert r.gap == F(9, 4)
    assert not r.equality
    assert r.certificate is None
    assert r.characterized


def test_af_discriminant_proportional_pd():
    rng = random.Random(163)
    for n in (2, 3, 4):
        a = rand_pd(rng, n)
        rest = [rand_pd(rng, n) for _ in range(n - 2)]
        r = af_gap_discriminant(a, a.scale(2), rest)
        assert r.equality and r.gap == 0
        assert r.certificate == 2
        assert r.characterized


def test_af_discriminant_gap_positive_on_nonproportional():
    rng = random.Random(167)
    for n in (2, 3):
        for _ in range(15):
            a, b = nonprop_pd_pair(rng, n)
            rest = [rand_pd(rng, n) for _ in range(n - 2)]
            r = af_gap_discriminant(a, b, rest)
            assert r.gap > 0
            assert r.certificate is None


def test_af_discriminant_negative_lambda_is_still_equality():
    a = rand_pd(random.Random(5), 2)
    r = af_gap_discriminant(a, a.scale(F(-3, 2)))
    assert r.equality
    assert r.certificate == F(-3, 2)


def test_af_discriminant_psd_only_not_characterized():
    r = af_gap_discriminant(diag(1, 0), diag(0, 1))
    assert r.gap == F(1, 4)
    assert not r.characterized


def test_af_discriminant_hypothesis_and_type_errors():
    with pytest.raises(HypothesisError):
        af_gap_discriminant(diag(1, -1), identity(2))
    with pytest.raises(TypeError):
        af_gap_discriminant(identity(2), gen([[1, 0], [0, 1]]))
    with pytest.raises(DimensionMismatchError):
        af_gap_discriminant(identity(2), identity(2), [identity(2)])


def test_af_discriminant_scaling_covariance():
    rng = random.Random(173)
    a, b = nonprop_pd_pair(rng, 3)
    rest = [rand_pd(rng, 3)]
    base = af_gap_discriminant(a, b, rest)
    c = F(7, 3)
    scaled = af_gap_discriminant(a.scale(c), b, rest)
    assert scaled.gap == c ** 2 * base.gap
    assert scaled.equality == base.equality


def test_m_fold_matches_pair_at_m_two():
    rng = random.Random(179)
    for n in (3, 4):
        mats = [rand_pd(rng, n) for _ in range(n)]
        t = MatTuple(mats)
        folded = af_m_fold_discriminant(t, 2)
        pair = af_gap_discriminant(mats[0], mats[1], mats[2:])
        assert folded == pair


def test_m_fold_frozen_diagonal_triple():
    t = MatTuple([diag(1, 1, 1), diag(1, 2, 3), diag(2, 1, 1)])
    r = af_m_fold_discriminant(t, 3)
    assert r.lhs == F(17, 6) ** 3
    assert r.rhs == 12
    assert r.gap == F(2321, 216)
    assert not r.equality


def test_m_fold_proportional_family():
    rng = random.Random(181)
    n = 4
    g = rand_pd(rng, n)
    rest = [rand_pd(rng, n) for _ in range(2)]
    for m in (2, 3):
        mats = [g.scale(F(i + 1, 2)) for i in range(m)] + rest[: n - m]
        r = af_m_fold_discriminant(MatTuple(mats), m)
        assert r.equality
        # scales are (i+1)/2, so the second matrix is twice the first
        assert r.certificate == 2
    all_equal = af_m_fold_discriminant(MatTuple([g] * n), n)
    assert all_equal.equality and all_equal.certificate == 1


def test_m_fold_range_and_hypotheses():
    t = MatTuple([identity(3)] * 3)
    with pytest.raises(ValueError):
        af_m_fold_discriminant(t, 1)
    with pytest.raises(ValueError):
        af_m_fold_discriminant(t, 4)
    bad = MatTuple([diag(1, -1, 1), identity(3), identity(3)])
    with pytest.raises(HypothesisError):
        af_m_fold_discriminant(bad, 2)


def unit_square():
    return convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_af_volume_frozen_square_vs_segment():
    k = unit_square()
    l = convex_hull([(0, 0), (1, 0)])
    r = af_gap_volume(k, l)
    assert r.lhs == F(1, 4)
    assert r.rhs == 0
    assert r.gap == F(1, 4)
    assert not r.characterized


def test_volume_checks_reject_foreign_and_mixed_dimension_bodies():
    k = unit_square()
    with pytest.raises(DimensionMismatchError):
        homothety_ratio(convex_hull([(0,), (1,)]), convex_hull([(0, 0), (2, 0)]))
    with pytest.raises(TypeError):
        homothety_ratio(k, "x")
    with pytest.raises(TypeError):
        bm_concavity_volume([[0, 0]], k, [], 2)
    with pytest.raises(DimensionMismatchError):
        bm_concavity_volume(k, k, [convex_hull([(0, 0, 0)])], 1)


def test_af_volume_equal_and_homothetic():
    rng = random.Random(191)
    k = convex_hull(rand_cloud(rng, 2))
    same = af_gap_volume(k, k)
    assert same.equality and same.certificate == 1
    moved = translate(dilate(k, 2), ("5/3", -4))
    r = af_gap_volume(k, moved)
    assert r.equality
    assert r.certificate == 2


def test_af_volume_gap_nonnegative_random():
    rng = random.Random(193)
    for d in (2, 3):
        for _ in range(8 if d == 2 else 4):
            k = convex_hull(rand_cloud(rng, d))
            l = convex_hull(rand_cloud(rng, d))
            rest = [convex_hull(rand_cloud(rng, d)) for _ in range(d - 2)]
            assert af_gap_volume(k, l, rest).gap >= 0


def test_m_fold_volume_matches_pair_and_boxes():
    rng = random.Random(197)
    k = convex_hull(rand_cloud(rng, 2))
    l = convex_hull(rand_cloud(rng, 2))
    assert af_m_fold_volume(BodyTuple([k, l]), 2) == af_gap_volume(k, l)

    import itertools

    def axis_box(lengths):
        return convex_hull(list(itertools.product(*[(0, le) for le in lengths])))

    lengths = [[F(1), F(2), F(1)], [F(2), F(1), F(3)], [F(1), F(1), F(2)]]
    t = BodyTuple([axis_box(le) for le in lengths])
    r = af_m_fold_volume(t, 3)
    v = permanent(lengths) / 6
    assert r.lhs == v ** 3
    assert r.rhs == (
        permanent([lengths[0]] * 3) / 6
        * (permanent([lengths[1]] * 3) / 6)
        * (permanent([lengths[2]] * 3) / 6)
    )
    assert r.gap >= 0

    all_equal = af_m_fold_volume(BodyTuple([k, k]), 2)
    assert all_equal.equality and all_equal.certificate == 1


def test_bm_discriminant_constant_when_equal():
    a = rand_pd(random.Random(199), 3)
    rep = bm_concavity_discriminant(a, a, [rand_pd(random.Random(200), 3)], 2)
    assert rep.max_violation == 0.0
    assert len(set(rep.values)) == 1
    assert rep.grid[0] == 0 and rep.grid[-1] == 1


def test_bm_discriminant_diagonal_pd():
    rep = bm_concavity_discriminant(diag(1, 1), diag(2, 3), [], 2)
    assert rep.max_violation <= 1e-9
    assert len(rep.grid) == 11


def test_bm_discriminant_proportional_chord_equality():
    rng = random.Random(211)
    a = rand_pd(rng, 3)
    rest = [rand_pd(rng, 3)]
    rep = bm_concavity_discriminant(a, a.scale(4), rest, 2)
    g0, g1 = rep.values[0], rep.values[-1]
    for lam, gv in zip(rep.grid, rep.values):
        chord = (1 - float(lam)) * g0 + float(lam) * g1
        assert abs(gv - chord) <= 1e-9


def test_bm_discriminant_validation():
    a = identity(3)
    with pytest.raises(HypothesisError):
        bm_concavity_discriminant(diag(1, -1, 1), a, [a], 2)
    with pytest.raises(ValueError):
        bm_concavity_discriminant(a, a, [a], 2, grid_size=2)
    with pytest.raises(DimensionMismatchError):
        bm_concavity_discriminant(a, a, [], 2)


def test_bm_volume_behaviors():
    rng = random.Random(223)
    k = convex_hull(rand_cloud(rng, 2, count=5))
    rep = bm_concavity_volume(k, k, [], 2)
    assert rep.max_violation == 0.0

    l = convex_hull(rand_cloud(rng, 2, count=5))
    rep = bm_concavity_volume(k, l, [], 2)
    assert rep.max_violation <= 1e-9

    hom = bm_concavity_volume(k, dilate(k, 3), [], 2)
    g0, g1 = hom.values[0], hom.values[-1]
    for lam, gv in zip(hom.grid, hom.values):
        chord = (1 - float(lam)) * g0 + float(lam) * g1
        assert abs(gv - chord) <= 1e-9


def test_bm_volume_with_fixed_body_d3():
    rng = random.Random(227)
    k0 = convex_hull(rand_cloud(rng, 3, count=5, bound=3, denom=1))
    k1 = convex_hull(rand_cloud(rng, 3, count=5, bound=3, denom=1))
    rest = [convex_hull(rand_cloud(rng, 3, count=4, bound=3, denom=1))]
    rep = bm_concavity_volume(k0, k1, rest, 2, grid_size=5)
    assert rep.max_violation <= 1e-9


def test_bm_discriminant_samples_past_the_float_range():
    # D(A, A) = det A = 10^400 has no float; its square root 10^200 has
    big = diag(10 ** 200, 10 ** 200)
    rep = bm_concavity_discriminant(big, big, [], 2)
    assert all(v == pytest.approx(1e200, rel=1e-12) for v in rep.values)
    assert 0 <= rep.max_violation <= 1e-12 * 1e200
    rep = bm_concavity_discriminant(big, diag(10 ** 200, 3 * 10 ** 200), [], 2)
    assert rep.values[-1] == pytest.approx(3 ** 0.5 * 1e200, rel=1e-12)
    assert rep.max_violation <= 1e-12 * 1e200
    # at m = 1 the root is the sample itself, which has no float
    huge = diag(10 ** 400, 10 ** 400)
    with pytest.raises(SizeLimitError):
        bm_concavity_discriminant(huge, huge, [identity(2)], 1)


def test_bm_volume_samples_past_the_float_range():
    # the square of side 10^160 has area 10^320, past the float range
    k = box([10 ** 160, 10 ** 160])
    rep = bm_concavity_volume(k, k, [], 2)
    assert all(v == pytest.approx(1e160, rel=1e-12) for v in rep.values)
    assert 0 <= rep.max_violation <= 1e-12 * 1e160
    rep = bm_concavity_volume(k, box([2 * 10 ** 160, 10 ** 160]), [], 2)
    assert rep.values[-1] == pytest.approx(2 ** 0.5 * 1e160, rel=1e-12)
    assert rep.max_violation <= 1e-12 * 1e160



def test_concavity_violation_near_the_float_maximum_is_reported():
    # roots just below the float maximum: unscaled, the second difference
    # 1.0 + 1.65 - 2 * 1.6 (times 10^308) is inf - inf = NaN and the 0.05
    # bulge of the middle triple was skipped, reporting 0.0
    samples = [F(c, 100) * 10 ** 308 for c in (100, 160, 165, 175, 120)]
    rep = _root_report(_grid(5), samples, 1)
    assert rep.max_violation == pytest.approx(5e306, rel=1e-12)
    assert rep.values == pytest.approx([float(v) for v in samples], rel=1e-15)


def _report_or_error(check, *args):
    try:
        return check(*args)
    except SizeLimitError:
        return SizeLimitError


def _assert_samples_match(monkeypatch, check, oracle, x0, x1, rest, m, grid_size):
    # the exact samples the shared sampler hands to _root_report equal
    # the per-lambda oracle's, and so does the report built from them
    seen = []

    def spy(grid, exact, k):
        seen.append(exact)
        return _root_report(grid, exact, k)

    monkeypatch.setattr(ineqcheck, "_root_report", spy)
    got = _report_or_error(check, x0, x1, rest, m, grid_size)
    grid = _grid(grid_size)
    want = oracle(x0, x1, rest, m, grid)
    assert seen == [want]
    assert got == _report_or_error(_root_report, grid, want, m)


@pytest.mark.parametrize("grid_size", [3, 5, 11])
def test_bm_discriminant_samples_match_the_per_lambda_oracle(monkeypatch, grid_size):
    rng = random.Random(229)
    big = 2 ** 1001
    for n in (2, 3):
        a0 = rand_pd(rng, n)
        huge0 = diag(*[big + i for i in range(n)])
        pairs = [
            (a0, rand_pd(rng, n)),
            (a0, a0.scale(F(7, 3))),
            (huge0, diag(*[3 * big - i for i in range(n)])),
            (huge0, huge0.scale(F(1, 5))),
        ]
        for x0, x1 in pairs:
            for m in range(1, n + 1):
                rest = [rand_pd(rng, n) for _ in range(n - m)]
                _assert_samples_match(
                    monkeypatch, bm_concavity_discriminant, bm_samples_matrices,
                    x0, x1, rest, m, grid_size,
                )


@pytest.mark.parametrize("grid_size", [3, 5, 11])
def test_bm_volume_samples_match_the_per_lambda_oracle(monkeypatch, grid_size):
    rng = random.Random(233)
    big = 2 ** 600
    for d in (2, 3):
        k0 = convex_hull(rand_cloud(rng, d, count=d + 2, bound=2, denom=2))
        huge0 = box([big + i for i in range(d)])
        pairs = [
            (k0, convex_hull(rand_cloud(rng, d, count=d + 2, bound=2, denom=2))),
            (k0, translate(dilate(k0, F(5, 2)), [1] * d)),
            (huge0, box([3 * big - i for i in range(d)])),
            (huge0, dilate(huge0, F(1, 3))),
        ]
        for x0, x1 in pairs:
            for m in range(1, d + 1):
                rest = [convex_hull(rand_cloud(rng, d, count=d + 1, bound=2, denom=1)) for _ in range(d - m)]
                _assert_samples_match(
                    monkeypatch, bm_concavity_volume, bm_samples_bodies,
                    x0, x1, rest, m, grid_size,
                )


def test_equality_lambda():
    assert equality_lambda(2, 6) == 3
    assert equality_lambda(F(7, 3), F(7, 3)) == 1
    with pytest.raises(NotBigError):
        equality_lambda(0, 5)


def test_gap_report_shape():
    r = af_gap_discriminant(diag(1, 2), diag(2, 1))
    assert isinstance(r, GapReport)
    assert r.gap == r.lhs - r.rhs
    assert r.equality == (r.gap == 0)
