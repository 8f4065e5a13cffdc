"""Property tests for mixed discriminants and the mixed adjugate.

D is symmetric under every permutation of its matrices, which is what
lets the kernels key their rest-layer memo on a multiset, and linear in
each slot; both routes are checked directly. The
one-sweep adjugate is checked against the minor-expansion oracle on
indefinite, singular, sparse, repeated and scaled Hermitian inputs.
Rank-one sums A_i = sum_j v_ij v_ij* must match the closed form
n! D = sum |det|^2 over one vector per matrix, on both routes
`_discriminant_auto` takes, through the adjugate's pairing and through
the Khovanskii-Teissier pencil.
Draws are derandomized and bounded, so the suite stays deterministic
and keeps no example database.
"""

import random
from functools import reduce
from itertools import permutations
from math import factorial

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from afkit.matrixcore import GenMat, HermMat
from afkit.mixdisc import (
    MatTuple,
    _discriminant_auto,
    mixed_adjugate,
    mixed_discriminant,
    mixed_discriminant_polarized,
)
from afkit.rationals import GaussRat
from afkit.toruskahler import TorusClass, kt_sequence

from oracles import ZERO, c_add, c_mul, mixed_adjugate_minors, rank_one_mixed_disc
from support import as_pairs

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30, database=None)

rats = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# zero is drawn often, so sparse and singular grids come up
parts = st.one_of(st.just(0), rats)
gauss = st.builds(GaussRat, parts, parts)
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4)
ROUTES = (mixed_discriminant, mixed_discriminant_polarized)


@st.composite
def gen_mats(draw, n):
    return GenMat([[draw(gauss) for _ in range(n)] for _ in range(n)])


@st.composite
def herm_mats(draw, n):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussRat(draw(parts))
        for j in range(i + 1, n):
            rows[i][j] = draw(gauss)
            rows[j][i] = rows[i][j].conjugate()
    return HermMat(rows)


@st.composite
def singular_herm(draw, n):
    """G G* with one column of G zeroed: positive semi-definite, det 0."""
    g = [[draw(gauss) for _ in range(n)] for _ in range(n)]
    col = draw(st.integers(0, n - 1))
    for row in g:
        row[col] = GaussRat(0)
    return HermMat.from_gram(GenMat(g))


@st.composite
def adjugate_inputs(draw, n):
    """n - 1 Hermitian matrices of dimension n; each slot after the first
    is fresh, singular, a repeat or a rational multiple of an earlier one."""
    part = []
    for i in range(n - 1):
        kind = draw(st.sampled_from(("fresh", "singular", "repeat", "scaled") if i else ("fresh", "singular")))
        if kind == "fresh":
            part.append(draw(herm_mats(n)))
        elif kind == "singular":
            part.append(draw(singular_herm(n)))
        else:
            earlier = part[draw(st.integers(0, i - 1))]
            part.append(earlier if kind == "repeat" else earlier.scale(draw(scalars)))
    return part


def tuples(kind, n):
    return st.lists(kind(n), min_size=n, max_size=n)


# The oracle takes about 0.1 s per draw at n = 5, so shrinking a failure
# would run into Hypothesis's five-minute cap per case; the first
# falsifying draw is reported as drawn instead.
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@settings(SETTINGS, max_examples=15, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_adjugate_sweep_matches_minor_oracle(n, data):
    part = data.draw(adjugate_inputs(n))
    w = mixed_adjugate(part)
    assert isinstance(w, HermMat)
    want = mixed_adjugate_minors([as_pairs(m) for m in part])
    assert [[(z.re, z.im) for z in row] for row in w.entries] == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_symmetric_under_every_permutation(n, data):
    mats = data.draw(st.one_of(tuples(gen_mats, n), tuples(herm_mats, n)))
    for route in ROUTES:
        base = route(MatTuple(mats))
        for perm in permutations(mats):
            assert route(MatTuple(perm)) == base


@st.composite
def slot_split(draw, n):
    """A tuple, a slot, and the slot's matrix split as a X + b Y."""
    mats = draw(tuples(gen_mats, n))
    slot = draw(st.integers(0, n - 1))
    return mats, slot, draw(gen_mats(n)), draw(gen_mats(n)), draw(scalars), draw(scalars)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_multilinear_in_each_slot(n, data):
    mats, slot, x, y, a, b = data.draw(slot_split(n))

    def at_slot(m):
        return MatTuple(mats[:slot] + [m] + mats[slot + 1:])

    for route in ROUTES:
        lhs = route(at_slot(x.scale(a) + y.scale(b)))
        assert lhs == route(at_slot(x)) * a + route(at_slot(y)) * b


def rank_one_sum(vectors):
    """sum_j v_j v_j* for vectors of (re, im) pairs."""
    n = len(vectors[0])
    return HermMat([
        [
            GaussRat(*reduce(c_add, (c_mul(v[r], (v[c][0], -v[c][1])) for v in vectors), ZERO))
            for c in range(n)
        ]
        for r in range(n)
    ])


def vector_sets(n, count):
    """count sets of 1-2 Gaussian-integer vectors of length n."""
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    vectors = st.lists(st.tuples(*[entry] * n), min_size=1, max_size=2)
    return st.lists(vectors, min_size=count, max_size=count)


# n = 7 runs the polarized route. As above, a failure is reported as
# drawn: shrinking one at n = 7 runs for minutes.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@settings(SETTINGS, max_examples=5, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_rank_one_sums_match_the_closed_form(n, data):
    sets = data.draw(vector_sets(n, n))
    got = _discriminant_auto(MatTuple([rank_one_sum(s) for s in sets]))
    assert got == rank_one_mixed_disc(sets)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@settings(SETTINGS, max_examples=5, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_rank_one_adjugate_pairs_with_the_closed_form(n, data):
    # D(B, A_2, ..., A_n) = sum_jk B[j][k] W[j][k] for B = w w*
    w = data.draw(vector_sets(n, 1))[0][0]
    rest = data.draw(vector_sets(n, n - 1))
    b = rank_one_sum([w]).entries
    adj = mixed_adjugate([rank_one_sum(s) for s in rest]).entries
    pairing = sum((x * y for rb, ra in zip(b, adj) for x, y in zip(rb, ra)), GaussRat(0))
    assert pairing == rank_one_mixed_disc([[w]] + rest)


# The cofactor oracle takes about 25 s at n = 6, so the sweep stops at 5.
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kt_pencil_matches_the_rank_one_closed_form(n):
    # s_m = n! 2^n D(V^[m], W^[n-m]) for V = sum v v*, W = sum w w*. With
    # a vectors in V and n - a + 1 in W, D vanishes unless m is a - 1 or
    # a; with fewer vectors every s_m would be 0 and prove nothing. The
    # swapped pair reverses the sequence, and at n = 2 its first class is
    # full rank, so the pencil's leading coefficient det A is checked too
    rng = random.Random(n)

    def vectors(count):
        return [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(count)]

    a = (n + 1) // 2
    v, w = vectors(a), vectors(n - a + 1)
    scale = factorial(n) * 2 ** n
    want = [scale * rank_one_mixed_disc([v] * m + [w] * (n - m)) for m in range(n + 1)]
    assert any(want)
    assert kt_sequence(TorusClass(rank_one_sum(v)), TorusClass(rank_one_sum(w))) == want
    assert kt_sequence(TorusClass(rank_one_sum(w)), TorusClass(rank_one_sum(v))) == want[::-1]
