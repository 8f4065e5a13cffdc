"""Property tests for mixed discriminants and the mixed adjugate.

D is symmetric under every permutation of its matrices, which is what
lets the kernels key their rest-layer memo on a multiset, and linear in
each slot; both routes are checked directly. The
one-sweep adjugate is checked against the minor-expansion oracle on
indefinite, singular, sparse, repeated and scaled Hermitian inputs.
Draws are derandomized and bounded, so the suite stays deterministic
and keeps no example database.
"""

from itertools import permutations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from afkit.matrixcore import GenMat, HermMat
from afkit.mixdisc import MatTuple, mixed_adjugate, mixed_discriminant, mixed_discriminant_polarized
from afkit.rationals import GaussRat

from oracles import mixed_adjugate_minors
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
