"""Determinantal layer: Gram tables of pairings, Shephard matrices,
PSD certification, the unconditional determinant identity, and the
r = 2 inequality."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afkit import shephard
from afkit.errors import DimensionMismatchError, HypothesisError
from afkit.mixdisc import MatTuple, mixed_discriminant
from afkit.shephard import (
    GramTable,
    ShephardMatrix,
    check_psd_shephard,
    det_identity_check,
    gram_from_discriminants,
    gram_from_torus,
    r2_inequality,
    shephard_matrix,
)

from oracles import (
    check_psd_shephard_gaussrat,
    det_identity_check_gaussrat,
    negative_direction,
    quadratic_form,
    real_det,
)
from support import diag, identity, rand_pd, rand_psd

F = Fraction


def rand_table(rng, r, bound=9):
    d = [[F(0)] * (r + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        for j in range(i, r + 1):
            d[i][j] = d[j][i] = F(rng.randint(-bound, bound), rng.randint(1, 3))
    return GramTable(d)


def adapter_table(rng, r, n):
    classes = [rand_pd(rng, n) for _ in range(r + 1)]
    rest = [rand_pd(rng, n) for _ in range(n - 2)]
    return gram_from_discriminants(classes, rest), classes, rest


def test_gram_table_validation():
    g = GramTable([[1, 2], [2, 5]])
    assert g.r == 1
    assert g.d[0][1] == 2
    with pytest.raises(ValueError):
        GramTable([[1, 2], [3, 5]])
    with pytest.raises(DimensionMismatchError):
        GramTable([[1, 2], [2, 5, 7]])
    with pytest.raises(ValueError):
        GramTable([[1]])


def test_equal_tables_from_different_spellings_compare_and_hash_equal():
    # the grid over the lcm of reduced denominators is canonical, and the
    # hash comes from it
    groups = [
        [[[4, 6], [6, 10]], [["4", "6"], ["6", "10"]], [[F(8, 2), F(18, 3)], [F(6), F(30, 3)]]],
        [[[F(1, 2), 2], [2, F(-7, 3)]], [["1/2", "2"], ["2", "-7/3"]],
         [[F(3, 6), F(10, 5)], [F(-4, -2), F(14, -6)]]],
    ]
    tables = [[GramTable(t) for t in group] for group in groups]
    for group, spelled in zip(groups, tables):
        for g in spelled:
            assert g == spelled[0] and hash(g) == hash(spelled[0])
            assert g.d == tuple(tuple(F(x) for x in row) for row in group[1])
    assert tables[0][0] != tables[1][0]
    assert (tables[1][0]._den, tables[1][0]._rows) == (6, ((3, 12), (12, -14)))


def test_shephard_matrix_rejects_empty():
    with pytest.raises(ValueError, match="at least one row"):
        ShephardMatrix([])


def test_shephard_matrix_frozen_r1():
    s = shephard_matrix(GramTable([[2, 3], [3, 5]]))
    assert isinstance(s, ShephardMatrix)
    assert s.r == 1
    assert s.entries == ((F(-1),),)


def test_shephard_matrix_constant_table_is_zero():
    d = [[F(7)] * 3 for _ in range(3)]
    s = shephard_matrix(GramTable(d))
    assert all(x == 0 for row in s.entries for x in row)


def test_shephard_entries_formula():
    rng = random.Random(229)
    g = rand_table(rng, 3)
    s = shephard_matrix(g)
    for i in range(3):
        for j in range(3):
            want = g.d[0][i + 1] * g.d[0][j + 1] - g.d[0][0] * g.d[i + 1][j + 1]
            assert s.entries[i][j] == want


def test_check_psd_on_adapter_tables():
    rng = random.Random(233)
    for r in (1, 2, 3):
        for n in (2, 3):
            for _ in range(10):
                g, _, _ = adapter_table(rng, r, n)
                ok, witness = check_psd_shephard(g)
                assert ok and witness is None


def test_check_psd_witness_frozen():
    ok, witness = check_psd_shephard(GramTable([[100, 3], [3, 1]]))
    assert not ok
    assert witness == (1, F(-91))


# the first four primes above 2^61
BIG_PRIMES = tuple(2**61 + k for k in (15, 21, 57, 65))


def mixed_denominator_tables(r):
    """(r+1) x (r+1) symmetric tables of Fractions whose entries share no
    denominator: three that cycle through 1/3, 5/7 and -2/9; one whose
    Shephard matrix is the Gram matrix V V^T of r rational vectors in the
    plane, PSD by construction and singular from r = 3 on; the first
    cycling table with d_00 = 0; and one over four primes above 2^61."""
    vals = (F(1, 3), F(5, 7), F(-2, 9))
    tables = [
        [[vals[(i + j + shift) % 3] for j in range(r + 1)] for i in range(r + 1)]
        for shift in range(3)
    ]
    d00, d0 = vals[0], [vals[(i + 1) % 3] for i in range(r)]
    vecs = [(vals[i % 3], vals[(i + 1) % 3] * (i + 1)) for i in range(r)]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
    rest = [[(d0[i] * d0[j] - gram[i][j]) / d00 for j in range(r)] for i in range(r)]
    tables.append([[d00] + d0] + [[d0[i]] + rest[i] for i in range(r)])
    tables.append([[F(0)] + tables[0][0][1:]] + tables[0][1:])
    tables.append([[F((i + 1) * (j + 1) - 3, BIG_PRIMES[(i + j) % 4]) for j in range(r + 1)]
                   for i in range(r + 1)])
    return tables


def test_check_psd_mixed_denominator_witness_frozen():
    # S = d01^2 - d00 d11 = 4/81 - 5/21 = -107/567
    g = GramTable([[F(1, 3), F(-2, 9)], [F(-2, 9), F(5, 7)]])
    assert check_psd_shephard(g) == (False, (1, F(-107, 567)))
    assert check_psd_shephard_gaussrat(g) == (1, F(-107, 567))
    assert det_identity_check(g)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_shephard_checks_on_mixed_denominators_match_the_gaussrat_route(r):
    verdicts = []
    for t in mixed_denominator_tables(r):
        g = GramTable(t)
        ok, witness = check_psd_shephard(g)
        assert witness == check_psd_shephard_gaussrat(g)
        assert ok == (witness is None)
        assert det_identity_check(g) and det_identity_check_gaussrat(g)
        verdicts.append(ok)
        if r == 2:
            # r2_inequality against its Fraction formula on the input table
            lhs = (t[0][1] ** 2 - t[0][0] * t[1][1]) * (t[0][2] ** 2 - t[0][0] * t[2][2])
            rhs = (t[0][1] * t[0][2] - t[0][0] * t[1][2]) ** 2
            if lhs < rhs:
                with pytest.raises(HypothesisError):
                    r2_inequality(g)
            else:
                rep = r2_inequality(g)
                assert (rep.lhs, rep.rhs, rep.gap) == (lhs, rhs, lhs - rhs)
    # the Gram-built table is PSD, and some cycling table is not
    assert verdicts[3] and False in verdicts[:3]


def test_check_psd_at_rank_40():
    # S = d_0i d_0j - d_00 d_ij has 2^40 principal minors; their sums come
    # from one characteristic polynomial. d_00 = 1, d_0i = 0 and
    # d_ij = delta_ij give S = -I; d_0i = 1 and d_ij = 1 - delta_ij give S = I
    minus = GramTable([[int(i == j) for j in range(41)] for i in range(41)])
    assert check_psd_shephard(minus) == (False, (1, F(-40)))
    plus = GramTable([[1] * 41] + [[1] + [int(i != j) for j in range(40)] for i in range(40)])
    assert check_psd_shephard(plus) == (True, None)


def test_det_identity_r1():
    g = GramTable([[2, 3], [3, 5]])
    assert det_identity_check(g)


def test_det_identity_random_signed_tables():
    rng = random.Random(239)
    for _ in range(100):
        r = rng.choice((1, 2, 3))
        assert det_identity_check(rand_table(rng, r))


def test_det_identity_zero_corner():
    rng = random.Random(241)
    for r in (1, 2, 3):
        g = rand_table(rng, r)
        d = [list(row) for row in g.d]
        d[0][0] = F(0)
        assert det_identity_check(GramTable(d))


@pytest.mark.parametrize("size", ["shephard", "table"])
def test_det_identity_fails_on_one_wrong_determinant(monkeypatch, size):
    # the identity holds for every symmetric table, so only a wrong
    # determinant can fail it: det S (r x r) or det(table) (r+1 x r+1)
    # one off must give False
    g = GramTable([[2, 3, 1], [3, 5, 4], [1, 4, 7]])
    assert det_identity_check(g)
    exact, target = shephard.gauss_det, g.r if size == "shephard" else g.r + 1

    def perturbed(rows):
        re, im = exact(rows)
        return (re + (len(rows) == target), im)

    monkeypatch.setattr(shephard, "gauss_det", perturbed)
    assert not det_identity_check(g)


def test_det_identity_matches_oracle_determinants():
    rng = random.Random(251)
    g = rand_table(rng, 2)
    s = shephard_matrix(g)
    lhs = real_det([list(row) for row in s.entries])
    rhs = g.d[0][0] * real_det([list(row) for row in g.d])
    assert det_identity_check(g) == (lhs == rhs)


def test_zero_padding_preserves_verdicts():
    rng = random.Random(257)
    g, _, _ = adapter_table(rng, 2, 3)
    padded = [list(row) + [F(0)] for row in g.d] + [[F(0)] * (g.r + 2)]
    gp = GramTable(padded)
    ok, _ = check_psd_shephard(gp)
    assert ok
    assert det_identity_check(gp)


def test_r2_frozen_equal_classes():
    rng = random.Random(263)
    a = rand_pd(rng, 3)
    c = rand_pd(rng, 3)
    g = gram_from_discriminants([a, c, c], [rand_pd(rng, 3)])
    r = r2_inequality(g)
    assert r.equality and r.gap == 0


def test_r2_matches_shephard_determinant_and_propagation():
    rng = random.Random(269)
    for _ in range(20):
        g, classes, rest = adapter_table(rng, 2, 3)
        rep = r2_inequality(g)
        s = shephard_matrix(g)
        det_s = s.entries[0][0] * s.entries[1][1] - s.entries[0][1] * s.entries[1][0]
        assert rep.gap == det_s
        assert rep.gap >= 0
    # equality in the first diagonal entry propagates along the row
    a = rand_pd(rng, 3)
    g = gram_from_discriminants([a, a.scale(3), rand_pd(rng, 3)], [rand_pd(rng, 3)])
    d = g.d
    assert d[0][1] ** 2 == d[0][0] * d[1][1]
    assert d[0][1] * d[0][2] == d[0][0] * d[1][2]


def test_r2_requires_rank_two():
    with pytest.raises(ValueError):
        r2_inequality(GramTable([[2, 3], [3, 5]]))


def test_r2_rejects_non_af_table():
    bad = GramTable([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(HypothesisError):
        r2_inequality(bad)


def test_gram_from_discriminants_entries():
    rng = random.Random(271)
    classes = [rand_pd(rng, 3) for _ in range(2)]
    rest = [rand_pd(rng, 3)]
    g = gram_from_discriminants(classes, rest)
    assert g.r == 1
    for i in range(2):
        for j in range(2):
            want = mixed_discriminant(MatTuple([classes[i], classes[j]] + rest)).re
            assert g.d[i][j] == want


def test_gram_from_discriminants_warns_on_indefinite():
    with pytest.warns(UserWarning):
        g = gram_from_discriminants([diag(1, -1), identity(2)], [])
    assert g.r == 1


def test_gram_from_torus_factor_and_frozen():
    g = gram_from_torus([identity(2), identity(2)], [])
    assert all(x == 8 for row in g.d for x in row)

    rng = random.Random(277)
    classes = [rand_pd(rng, 3) for _ in range(3)]
    rest = [rand_pd(rng, 3)]
    base = gram_from_discriminants(classes, rest)
    torus = gram_from_torus(classes, rest)
    factor = math.factorial(3) * 2 ** 3
    for bi, ti in zip(base.d, torus.d):
        for b, t in zip(bi, ti):
            assert t == factor * b


def test_verdicts_invariant_under_scaling():
    rng = random.Random(281)
    g, _, _ = adapter_table(rng, 2, 3)
    scaled = GramTable([[4 * x for x in row] for row in g.d])
    assert check_psd_shephard(g)[0] == check_psd_shephard(scaled)[0]
    assert det_identity_check(scaled)
    assert r2_inequality(g).equality == r2_inequality(scaled).equality


def test_psd_adapter_entries_nonnegative():
    rng = random.Random(283)
    classes = [rand_psd(rng, 3) for _ in range(3)]
    g = gram_from_discriminants(classes, [rand_psd(rng, 3)])
    assert all(x >= 0 for row in g.d for x in row)


@st.composite
def symmetric_tables(draw):
    """Gram tables of r + 1 = 2..5 classes with small integer entries,
    sometimes with rows copied so that the Shephard matrix is singular."""
    r = draw(st.integers(1, 4))
    d = [[0] * (r + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        for j in range(i, r + 1):
            d[i][j] = d[j][i] = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        # class j a copy of class i: row and column j repeat row i
        i, j = draw(st.integers(0, r)), draw(st.integers(0, r))
        if i != j:
            for k in range(r + 1):
                d[j][k] = d[i][k]
            for k in range(r + 1):
                d[k][j] = d[k][i]
            d[j][j] = d[i][i]
    return GramTable(d)


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(g=symmetric_tables())
@example(g=GramTable([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))  # S = 0
@example(g=GramTable([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))  # S = [[0, -1], [-1, 0]]
def test_psd_witness_is_sound(g):
    """A (False, (k, c_k)) verdict names the first negative sum of
    principal k x k minors; one of those minors is negative, and exact
    LDL^T on it yields a rational x with x^T S x < 0. A True verdict
    leaves no such x."""
    s = shephard_matrix(g).entries
    ok, witness = check_psd_shephard(g)
    if ok:
        assert witness is None
        assert negative_direction(s) is None
        return
    k, c_k = witness
    minors = {
        idx: real_det([[s[a][b] for b in idx] for a in idx])
        for idx in itertools.combinations(range(g.r), k)
    }
    assert sum(minors.values()) == c_k < 0
    for j in range(1, k):
        assert sum(real_det([[s[a][b] for b in idx] for a in idx])
                   for idx in itertools.combinations(range(g.r), j)) >= 0
    idx = next(i for i, v in minors.items() if v < 0)
    y = negative_direction([[s[a][b] for b in idx] for a in idx])
    x = [F(0)] * g.r
    for a, v in zip(idx, y):
        x[a] = v
    assert quadratic_form(s, x) < 0
