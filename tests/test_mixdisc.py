"""Mixed discriminants: frozen values, route equivalence against a
permutation-enumeration reference, the route rule of the library's
evaluator, the rest-layer builds of an instance, multilinearity, and
the mixed adjugate."""

import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from afkit import _kernels, matrixcore, mixdisc
from afkit.errors import DimensionMismatchError, InvariantViolationError, SizeLimitError
from afkit.harness import RunConfig, run_suite
from afkit.matrixcore import GenMat, HermMat
from afkit.mixdisc import (
    MatTuple,
    _discriminant_auto,
    det_expansion_check,
    mixed_adjugate,
    mixed_discriminant,
    mixed_discriminant_polarized,
)
from afkit.rationals import GaussRat

from oracles import mixed_disc_perm, mixed_disc_polarized
from support import (
    as_pairs, count_calls, diag, gen, herm, identity, layer_builds, rand_gen, rand_herm,
    rand_psd,
)


def test_diagonal_of_polarization_is_det():
    a = diag(1, 2)
    t = MatTuple([a, a])
    assert mixed_discriminant(t) == 2
    assert mixed_discriminant_polarized(t) == 2


def test_frozen_two_by_two_value():
    t = MatTuple([diag(1, 2), diag(3, 4)])
    assert mixed_discriminant(t) == 5
    assert mixed_discriminant_polarized(t) == 5


def test_zero_slot_kills_the_discriminant():
    rng = random.Random(1)
    t = MatTuple([diag(0, 0, 0), rand_herm(rng, 3), rand_herm(rng, 3)])
    assert mixed_discriminant(t) == 0
    assert mixed_discriminant_polarized(t) == 0


def test_one_dimensional_tuple():
    t = MatTuple([herm([["-7/3"]])])
    assert mixed_discriminant(t) == Fraction(-7, 3)
    assert mixed_discriminant_polarized(t) == Fraction(-7, 3)


def test_tuple_shape_validation():
    with pytest.raises(DimensionMismatchError):
        MatTuple([identity(2)])
    with pytest.raises(DimensionMismatchError):
        MatTuple([identity(2), identity(3)])
    with pytest.raises(ValueError):
        MatTuple([])


def test_routes_match_reference_on_general_tuples():
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randint(2, 4)
        mats = [rand_gen(rng, n, bound=3, denom=3) for _ in range(n)]
        t = MatTuple(mats)
        want = mixed_disc_perm([as_pairs(m) for m in mats])
        got = mixed_discriminant(t)
        assert (got.re, got.im) == want
        assert mixed_discriminant_polarized(t) == got
        if trial < 10:
            assert mixed_disc_polarized([as_pairs(m) for m in mats]) == want
    # tuples that repeat a matrix, which the polarized route groups
    rng = random.Random(43)
    for n in (2, 3, 4, 5):
        a, b, c = (rand_gen(rng, n, bound=3, denom=3) for _ in range(3))
        for mats in ([a] * n, [a, a] + [b] * (n - 2), [a] * (n - 1) + [b],
                     [b, a, c, a, b][:n]):
            t = MatTuple(mats)
            want = mixed_disc_perm([as_pairs(m) for m in mats])
            got = mixed_discriminant(t)
            assert (got.re, got.im) == want
            assert mixed_discriminant_polarized(t) == got
            assert mixed_disc_polarized([as_pairs(m) for m in mats]) == want


def test_hermitian_tuple_gives_real_value():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 4)
        t = MatTuple([rand_herm(rng, n, denom=3) for _ in range(n)])
        assert mixed_discriminant(t).is_real


def test_psd_tuple_gives_nonnegative_value():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(2, 4)
        t = MatTuple([rand_psd(rng, n) for _ in range(n)])
        d = mixed_discriminant(t)
        assert d.is_real
        assert d.re >= 0


def test_symmetric_in_all_arguments_n3():
    rng = random.Random(23)
    mats = [rand_herm(rng, 3) for _ in range(3)]
    base = mixed_discriminant(MatTuple(mats))
    for perm in itertools.permutations(range(3)):
        assert mixed_discriminant(MatTuple([mats[i] for i in perm])) == base


def test_symmetric_under_sampled_permutations():
    rng = random.Random(29)
    for n in (4, 5):
        mats = [rand_herm(rng, n, bound=2) for _ in range(n)]
        base = mixed_discriminant(MatTuple(mats))
        for _ in range(5):
            p = list(range(n))
            rng.shuffle(p)
            assert mixed_discriminant(MatTuple([mats[i] for i in p])) == base


def test_multilinear_in_first_slot():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 4)
        x = rand_gen(rng, n, bound=2, denom=2)
        y = rand_gen(rng, n, bound=2, denom=2)
        rest = [rand_gen(rng, n, bound=2, denom=2) for _ in range(n - 1)]
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        combo = x.scale(a) + y.scale(b)
        lhs = mixed_discriminant(MatTuple([combo] + rest))
        rhs = mixed_discriminant(MatTuple([x] + rest)) * a + mixed_discriminant(MatTuple([y] + rest)) * b
        assert lhs == rhs


def test_permutation_route_size_limit():
    mats = [identity(7) for _ in range(7)]
    with pytest.raises(SizeLimitError):
        mixed_discriminant(MatTuple(mats))
    # the polarized route stays open past the factorial wall
    assert mixed_discriminant_polarized(MatTuple(mats)) == 1


def test_expansion_single_matrix():
    rng = random.Random(37)
    a = rand_gen(rng, 3)
    assert det_expansion_check([a], [Fraction(5, 2)])


def test_expansion_two_matrices_quadratic():
    rng = random.Random(41)
    a = rand_herm(rng, 2, denom=2)
    b = rand_herm(rng, 2, denom=2)
    assert det_expansion_check([a, b], [1, 1])


def test_expansion_three_matrices_cubic():
    rng = random.Random(43)
    mats = [rand_gen(rng, 3, bound=2, denom=2) for _ in range(3)]
    assert det_expansion_check(mats, [1, 2, 3])


def test_expansion_random_shapes():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        mats = [rand_gen(rng, n, bound=2, denom=2) for _ in range(m)]
        lams = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        assert det_expansion_check(mats, lams)


def test_expansion_shape_validation():
    with pytest.raises(DimensionMismatchError):
        det_expansion_check([identity(2)], [1, 2])
    with pytest.raises(DimensionMismatchError):
        det_expansion_check([identity(2), identity(3)], [1, 2])


def test_adjugate_frozen_identity():
    w = mixed_adjugate([identity(2)])
    assert w == diag(Fraction(1, 2), Fraction(1, 2))


def test_adjugate_frozen_diagonal():
    w = mixed_adjugate([diag(3, 7)])
    assert w == diag(Fraction(7, 2), Fraction(3, 2))


def test_adjugate_matches_basis_definition():
    rng = random.Random(53)
    for n in (2, 3, 4, 5):
        part = [rand_herm(rng, n, denom=2) for _ in range(n - 1)]
        w = mixed_adjugate(part)
        assert isinstance(w, HermMat)
        pairs = [as_pairs(m) for m in part]
        for j in range(n):
            for k in range(n):
                basis = [
                    [(Fraction(1 if (r == j and c == k) else 0), Fraction(0)) for c in range(n)]
                    for r in range(n)
                ]
                want = mixed_disc_perm([basis] + pairs)
                assert (w.entries[j][k].re, w.entries[j][k].im) == want


def test_adjugate_pairing_identity():
    rng = random.Random(59)
    for trial in range(50):
        n = rng.randint(2, 4)
        part = [rand_herm(rng, n) for _ in range(n - 1)]
        w = mixed_adjugate(part)
        b = rand_herm(rng, n, denom=3) if trial % 2 else rand_gen(rng, n, bound=3, denom=2)
        lhs = mixed_discriminant(MatTuple([b] + part))
        rhs = GaussRat(0)
        for j in range(n):
            for k in range(n):
                rhs = rhs + b.entries[j][k] * w.entries[j][k]
        assert lhs == rhs


def test_adjugate_shape_validation():
    with pytest.raises(DimensionMismatchError):
        mixed_adjugate([identity(3)])
    with pytest.raises(TypeError):
        mixed_adjugate([gen([[1, 0], [0, 1]])])


def test_polarized_route_beyond_the_permutation_cap():
    # n = 7 lies past PERMUTATION_ROUTE_MAX_N, where only the polarized
    # route runs; a repeated matrix gives the determinant
    rng = random.Random(47)
    a = rand_gen(rng, 7, bound=3, denom=3)
    b = rand_herm(rng, 7, bound=3, denom=2)
    assert mixed_discriminant_polarized(MatTuple([a] * 7)) == a.det()
    assert det_expansion_check([a, b], [Fraction(2, 3), -3])


def partitions(n, most=None):
    """Multiplicity shapes of n matrices: partitions of n, largest part first."""
    most = n if most is None else most
    if n == 0:
        yield ()
        return
    for head in range(min(n, most), 0, -1):
        for tail in partitions(n - head, head):
            yield (head,) + tail


def shaped_tuple(rng, shape, n):
    mats = [rand_gen(rng, n, bound=3, denom=2) for _ in shape]
    return [m for m, r in zip(mats, shape) for _ in range(r)]


def test_auto_route_matches_both_routes_on_every_shape():
    rng = random.Random(61)
    for n in range(2, 7):
        for shape in partitions(n):
            mats = shaped_tuple(rng, shape, n)
            t = MatTuple(mats)
            got = _discriminant_auto(t)
            assert got == mixed_discriminant(t) == mixed_discriminant_polarized(t)
            assert (got.re, got.im) == mixed_disc_perm([as_pairs(m) for m in mats])
            if len(shape) == 1:
                # D(A, ..., A) = det A for a general complex A
                assert got == mats[0].det()


def route_calls(monkeypatch, mats):
    """(DP calls, sum determinants) that one evaluation makes."""
    dp = count_calls(monkeypatch, mixdisc, "mixed_perm_sum")
    dets = count_calls(monkeypatch, mixdisc, "gauss_det")
    _discriminant_auto(MatTuple(mats))
    monkeypatch.undo()
    return len(dp), len(dets)


def test_route_rule_pins_the_route(monkeypatch):
    rng = random.Random(67)
    for n in range(2, 7):
        mats = [rand_herm(rng, n) for _ in range(n)]
        # every tuple of two or more distinct matrices runs the DP once
        for shape in partitions(n):
            if len(shape) > 1:
                tup = [m for m, r in zip(mats, shape) for _ in range(r)]
                assert route_calls(monkeypatch, tup) == (1, 0)
    # a tuple of one matrix is its determinant, on both sides of the cap
    for n in range(1, 8):
        assert route_calls(monkeypatch, [rand_herm(rng, n)] * n) == (0, 0)
    # past the cap, A^[r] B^[7 - r] is polarized over (r + 1)(8 - r) - 1 sums
    a, b = rand_herm(rng, 7, bound=2), rand_herm(rng, 7, bound=2)
    for r in range(1, 7):
        assert route_calls(monkeypatch, [a] * r + [b] * (7 - r)) == (0, (r + 1) * (8 - r) - 1)
    # past the polarization cap only the determinant is left, on every call
    assert _discriminant_auto(MatTuple([diag(*range(1, 22))] * 21)) == factorial(21)
    for _ in range(2):
        with pytest.raises(SizeLimitError):
            _discriminant_auto(MatTuple([identity(21)] * 20 + [diag(*range(1, 22))]))


def test_polarized_route_matches_the_dp_past_the_cap(monkeypatch):
    # complex, non-Hermitian tuples of two and three groups past the
    # permutation cap; the DP kernel itself has no cap
    rng = random.Random(89)
    for n, shape in [(7, (4, 3)), (7, (3, 2, 2)), (8, (5, 3)), (8, (3, 3, 2))]:
        mats = shaped_tuple(rng, shape, n)
        dets = count_calls(monkeypatch, mixdisc, "gauss_det")
        got = mixed_discriminant_polarized(MatTuple(mats))
        monkeypatch.undo()
        assert len(dets) == prod(r + 1 for r in shape) - 1
        re, im = _kernels.mixed_perm_sum([m._rows for m in mats])
        den = factorial(n) * prod(m._den for m in mats)
        assert got == GaussRat(Fraction(re, den), Fraction(im, den))
        assert not got.is_real
        if (n, shape) == (7, (3, 2, 2)):
            # the subset-sum oracle takes seconds at n = 7 and more at n = 8
            assert (got.re, got.im) == mixed_disc_polarized([as_pairs(m) for m in mats])


def test_hermitian_invariant_fires_on_every_call(monkeypatch):
    rng = random.Random(79)
    h = [rand_herm(rng, 3) for _ in range(3)]
    g = [GenMat(m.entries) for m in h]
    assert g == h  # equal grids compare equal across the two types
    assert _discriminant_auto(MatTuple(g)) == _discriminant_auto(MatTuple(h))
    # a non-real sum breaks the invariant of a Hermitian tuple on each call
    monkeypatch.setattr(mixdisc, "mixed_perm_sum", lambda mats: (6, 6))
    for _ in range(2):
        with pytest.raises(InvariantViolationError):
            _discriminant_auto(MatTuple(h))
    assert _discriminant_auto(MatTuple(g)) == GaussRat(1, 1)
    # and so does a non-real determinant of a tuple of one matrix
    monkeypatch.setattr(matrixcore, "gauss_det", lambda rows: (1, 1))
    for _ in range(2):
        with pytest.raises(InvariantViolationError):
            _discriminant_auto(MatTuple([h[0]] * 3))
    assert _discriminant_auto(MatTuple([g[0]] * 3)) == GaussRat(1, 1)
    # and a skew-symmetric kernel grid breaks the mixed adjugate's
    def skewed(mats):
        n = len(mats[0])
        return tuple(tuple((r - c, 0) for c in range(n)) for r in range(n))

    monkeypatch.setattr(mixdisc, "mixed_adjugate_sum", skewed)
    for _ in range(2):
        with pytest.raises(InvariantViolationError):
            mixed_adjugate(h[:2])


@pytest.mark.parametrize("mode, n, dp_calls, adjugate_calls, rest_layers, lead_layers", [
    # r = 3: the 10 Gram entries D(K_i, K_j, rest), one adjugate per K_i
    pytest.param("shephard", 6, 10, 0, 1, 4, id="shephard-6-10-0"),
    # the pair's three values and W(g1, rest), W(g2, rest), whose rest the
    # m = 2 fold shares; the values D(g1, .) and W(g1) read one cached
    # adjugate, D(g2, g2) and W(g2) the other. The KT values come from the
    # determinant pencil det(x g1 + g2) and run no DP
    pytest.param("torus", 5, 3, 2, 1, 2, id="torus-5-3-2"),
    # the pair's three values, which the m = 2 fold shares: D(A, .) and
    # D(B, B) lead with A and B
    pytest.param("discriminant", 6, 3, 0, 1, 2, id="discriminant-6-3-0"),
])
def test_one_instance_builds_its_rest_layer_once(
    monkeypatch, mode, n, dp_calls, adjugate_calls, rest_layers, lead_layers
):
    dp = count_calls(monkeypatch, mixdisc, "mixed_perm_sum")
    adjugates = count_calls(monkeypatch, mixdisc, "mixed_adjugate_sum")
    with layer_builds() as builds:
        run = run_suite(RunConfig(mode=mode, n=n, r=3, trials=1))
        assert builds() == (rest_layers, lead_layers)
    assert run.summary["failures"] == 0
    assert "error" not in run.records[0]
    assert (len(dp), len(adjugates)) == (dp_calls, adjugate_calls)
