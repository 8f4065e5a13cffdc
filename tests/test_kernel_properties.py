"""Property tests for the subset-DP kernels on sparse integer grids.

`mixed_perm_sum` and `mixed_adjugate_sum` are checked against the
literal permutation-sum and minor-expansion oracles for n = 1..5, and
against the former dict-keyed DP at n = 6, on grids with entries in
{-1, 0, 1} for both parts, zero columns, singular and repeated matrices,
alone and in call sequences that share their trailing grids, through a
cold and a warm rest-layer memo. Hermitian tuples, which the kernels
mirror, are checked against the same unmirrored oracles, as are tuples
that mix Hermitian and non-Hermitian grids, in the rest or in the lead.
Draws are derandomized and bounded.
"""

from math import factorial

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from afkit import _kernels
from afkit._kernels import mixed_adjugate_sum, mixed_perm_sum

from oracles import adjugate_sum_dict, mixed_adjugate_minors, mixed_disc_perm, perm_sum_dict
from support import layer_builds

# no shrinking: a failing example is reported as drawn, since the
# oracles make every shrink step slow
SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=15, database=None,
    phases=(Phase.explicit, Phase.generate),
)

unit = st.sampled_from((-1, 0, 1))
entry = st.tuples(unit, unit)


@st.composite
def sparse_grids(draw, n, count):
    """count n x n grids of (re, im) pairs, each part in {-1, 0, 1}; then
    maybe a zero column, a singular matrix (a row copied onto another,
    or zeroed at n = 1) and a matrix repeated in another slot."""
    mats = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(count)]
    slot = st.integers(0, count - 1)
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        m, c = draw(slot), draw(index)
        for row in mats[m]:
            row[c] = (0, 0)
    if draw(st.booleans()):
        m, i, j = draw(slot), draw(index), draw(index)
        mats[m][j] = list(mats[m][i]) if i != j else [(0, 0)] * n
    if count > 1 and draw(st.booleans()):
        src, dst = draw(slot), draw(slot)
        mats[dst] = [list(row) for row in mats[src]]
    return [tuple(tuple(row) for row in m) for m in mats]


def scaled(value, factor):
    re, im = value
    return (re * factor, im * factor)


def test_empty_perm_sum_is_one():
    assert mixed_perm_sum([]) == (1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@SETTINGS
@given(data=st.data())
def test_perm_sum_matches_the_permutation_oracle(n, data):
    mats = data.draw(sparse_grids(n, n))
    assert mixed_perm_sum(mats) == scaled(mixed_disc_perm(mats), factorial(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@SETTINGS
@given(data=st.data())
def test_adjugate_sum_matches_the_minor_oracle(n, data):
    mats = data.draw(sparse_grids(n, n - 1))
    want = [tuple(scaled(z, factorial(n)) for z in row) for row in mixed_adjugate_minors(mats)]
    assert list(mixed_adjugate_sum(mats)) == want


@settings(SETTINGS, max_examples=10)
@given(mats=sparse_grids(6, 6))
def test_perm_sum_matches_the_dict_dp_at_n6(mats):
    assert mixed_perm_sum(mats) == perm_sum_dict(mats)


@settings(SETTINGS, max_examples=5)
@given(mats=sparse_grids(6, 5))
def test_adjugate_sum_matches_the_dict_dp_at_n6(mats):
    assert mixed_adjugate_sum(mats) == adjugate_sum_dict(mats)


def reference_perm_sum(mats):
    n = len(mats)
    return scaled(mixed_disc_perm(mats), factorial(n)) if n <= 5 else perm_sum_dict(mats)


def reference_adjugate_sum(mats):
    n = len(mats[0])
    if n > 5:
        return adjugate_sum_dict(mats)
    return tuple(tuple(scaled(z, factorial(n)) for z in row) for row in mixed_adjugate_minors(mats))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_calls_sharing_a_rest_match_the_oracles(n, data):
    """Calls whose trailing grids form one multiset, in shuffled order,
    with leading grids drawn from the rest itself, a zero grid and the
    sparse pool; a second rest of the same size sits between them. The
    first call of each example starts from a cold rest-layer memo."""
    size = max(n - 2, 0)
    pool = data.draw(sparse_grids(n, size + 3))
    rest, other = pool[:size], pool[1:size + 1]
    zero = tuple(tuple((0, 0) for _ in range(n)) for _ in range(n))
    leads = st.sampled_from(pool + [zero])
    keys = set()
    with layer_builds() as builds:
        for tail in (rest, other, rest):
            lead = [data.draw(leads) for _ in range(min(n, 2))]
            mats = lead + data.draw(st.permutations(tail))
            assert mixed_perm_sum(mats) == reference_perm_sum(mats)
            if n >= 2:
                part = lead[:1] + data.draw(st.permutations(tail))
                assert mixed_adjugate_sum(part) == reference_adjugate_sum(part)
                keys.add((tuple(sorted(tail)), lead[0]))
        # one build per distinct rest multiset, and one per distinct first
        # grid over it, which the value and the adjugate share; n = 1
        # reads its one entry and builds none
        rests = 0 if n == 1 else 1 if sorted(rest) == sorted(other) else 2
        assert builds() == (rests, len(keys))


@st.composite
def hermitian_grids(draw, n, count):
    """count n x n Hermitian grids with parts in {-1, 0, 1}: a real
    diagonal, the upper triangle drawn and the lower its conjugate."""
    mats = []
    for _ in range(count):
        grid = [[None] * n for _ in range(n)]
        for r in range(n):
            grid[r][r] = (draw(unit), 0)
            for c in range(r + 1, n):
                re, im = draw(entry)
                grid[r][c], grid[c][r] = (re, im), (re, -im)
        mats.append(tuple(map(tuple, grid)))
    return mats


def with_entry(grid, r, c, z):
    """The grid with entry (r, c) replaced by z."""
    return tuple(
        tuple(z if (i, j) == (r, c) else x for j, x in enumerate(row))
        for i, row in enumerate(grid)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(SETTINGS, max_examples=5)
@given(data=st.data())
def test_hermitian_tuples_match_the_unmirrored_oracles(n, data):
    mats = data.draw(hermitian_grids(n, n))
    _kernels._rest_layer.cache_clear()
    assert mixed_perm_sum(mats) == reference_perm_sum(mats)
    assert mixed_adjugate_sum(mats[1:]) == reference_adjugate_sum(mats[1:])
    # the rest layer was built mirrored; it and the adjugates of mats[0]
    # and of mats[1] over it are read here from the memo
    misses = _kernels._rest_layer.cache_info().misses
    rest = tuple(sorted(mats[2:]))
    assert _kernels._rest_layer(n, rest, None)[1] is True
    for lead in mats[:2]:
        assert _kernels._rest_layer(n, rest, lead) == reference_adjugate_sum([lead, *rest])
    assert _kernels._rest_layer.cache_info().misses == misses


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(SETTINGS, max_examples=5)
@given(data=st.data())
def test_non_hermitian_lead_after_a_cached_hermitian_rest(n, data):
    """A Hermitian rest is built mirrored and cached under Hermitian
    leads, then read again, by both kernels, under leads holding a grid
    with a non-real diagonal entry, first or second: no layer after that
    grid may mirror."""
    herm = data.draw(hermitian_grids(n, n))
    lead, tail = herm[:2], herm[2:]
    odd = with_entry(lead[0], 0, 0, (1, 1))
    with layer_builds() as builds:
        for pair in (lead, [odd, lead[1]], [lead[1], odd]):
            mats = pair + data.draw(st.permutations(tail))
            assert mixed_perm_sum(mats) == reference_perm_sum(mats)
        for first in (lead[0], odd):
            part = [first] + data.draw(st.permutations(tail))
            assert mixed_adjugate_sum(part) == reference_adjugate_sum(part)
        # one rest and an adjugate per distinct first grid of lead[0],
        # odd and lead[1] (a draw may repeat a grid); later adjugates
        # read the cached rest, and both adjugate calls a cached entry
        assert builds() == (1, len({lead[0], odd, lead[1]}))
        assert _kernels._rest_layer.cache_info().hits == 4
        rest = tuple(sorted(tail))
        misses = _kernels._rest_layer.cache_info().misses
        assert _kernels._rest_layer(n, rest, None)[1] is True
        for g in (lead[0], odd):
            assert _kernels._rest_layer(n, rest, g) == reference_adjugate_sum([g, *rest])
        assert _kernels._rest_layer.cache_info().misses == misses


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(SETTINGS, max_examples=5)
@given(data=st.data())
def test_grid_hermitian_but_for_one_entry(n, data):
    """One grid of a Hermitian tuple gets one off-diagonal entry that
    the entry across the diagonal no longer matches. It sits in any
    slot, so in the lead or in the rest, after some mirrored layers."""
    mats = data.draw(hermitian_grids(n, n))
    slot = data.draw(st.integers(0, n - 1))
    r, c = data.draw(st.permutations(range(n)))[:2]
    re, im = mats[slot][r][c]
    mats[slot] = with_entry(mats[slot], r, c, (re, im + data.draw(st.sampled_from((-1, 1)))))
    _kernels._rest_layer.cache_clear()
    assert mixed_perm_sum(mats) == reference_perm_sum(mats)
    part = [m for i, m in enumerate(mats) if i != (slot + 1) % n]
    assert mixed_adjugate_sum(part) == reference_adjugate_sum(part)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(SETTINGS, max_examples=5)
@given(data=st.data(), hermitian=st.booleans())
def test_a_lead_entry_is_the_adjugate_grid(n, data, hermitian):
    """The memo entry of a rest and a first grid is the adjugate grid,
    immutable int pairs, and a second value over the same rest and first
    grid pairs another second grid with it, adding no layer."""
    mats = data.draw(hermitian_grids(n, n) if hermitian else sparse_grids(n, n))
    other = data.draw(hermitian_grids(n, 1) if hermitian else sparse_grids(n, 1))[0]
    with layer_builds() as builds:
        assert mixed_perm_sum(mats) == reference_perm_sum(mats)
        misses = _kernels._rest_layer.cache_info().misses
        grid = _kernels._rest_layer(n, tuple(sorted(mats[2:])), mats[0])
        assert _kernels._rest_layer.cache_info().misses == misses
        assert type(grid) is tuple and len(grid) == n
        assert all(type(row) is tuple and len(row) == n for row in grid)
        assert all(type(z) is tuple and [type(x) for x in z] == [int, int] for row in grid for z in row)
        assert grid == reference_adjugate_sum([mats[0], *mats[2:]])
        steps = builds()
        again = [mats[0], other, *mats[2:]]
        assert mixed_perm_sum(again) == reference_perm_sum(again)
        assert builds() == steps


# A value D(A_1, A_2, rest) is the pairing of A_2 with the adjugate of A_1
# over the rest, sum_rc (-1)^(r + c) A_2[r][c] F_(n-1)(rows - r,
# columns - c). The tests below check that pairing: where it does not
# apply, under grids that break the Hermitian mirror on either side of
# it, and through a cold and a warm memo.


@SETTINGS
@given(data=st.data())
def test_pairing_at_the_smallest_n(data):
    """n = 1 is the one entry: it has no second grid to pair and reads
    no memo (n = 0, the empty sum, is `test_empty_perm_sum_is_one`).
    n = 2 pairs A_2 with the adjugate of A_1 alone, n = 3 over one rest
    grid."""
    _kernels._rest_layer.cache_clear()
    one = data.draw(sparse_grids(1, 1))
    assert mixed_perm_sum(one) == one[0][0][0] == reference_perm_sum(one)
    assert _kernels._rest_layer.cache_info().misses == 0
    for n in (2, 3):
        mats = data.draw(sparse_grids(n, n))
        assert mixed_perm_sum(mats) == reference_perm_sum(mats)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(SETTINGS, max_examples=5)
@given(data=st.data())
def test_non_hermitian_grid_after_a_cached_hermitian_lead_layer(n, data):
    """A Hermitian tuple caches the adjugate of its first grid, read off a
    mirrored layer; then either grid of the pair turns non-Hermitian. A
    non-Hermitian second grid is only paired, so it reads the cached
    adjugate; a non-Hermitian first grid builds its adjugate off an
    unmirrored layer on the cached rest."""
    herm = data.draw(hermitian_grids(n, n))
    r, c = data.draw(st.permutations(range(n)))[:2]
    with layer_builds() as builds:
        assert mixed_perm_sum(herm) == reference_perm_sum(herm)
        assert builds() == (1, 1)
        for slot, want in ((1, (1, 1)), (0, (1, 2))):
            mats = list(herm)
            re, im = mats[slot][r][c]
            mats[slot] = with_entry(mats[slot], r, c, (re, im + 1))
            assert mixed_perm_sum(mats) == reference_perm_sum(mats)
            assert builds() == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(SETTINGS, max_examples=5)
@given(data=st.data())
def test_cold_and_warm_memos_give_equal_values(n, data):
    """Each value from a cleared memo equals the same value read again
    from the warm memo, under a shuffled rest, and the reference."""
    mats = data.draw(sparse_grids(n, n))
    want = reference_perm_sum(mats)
    _kernels._rest_layer.cache_clear()
    cold = mixed_perm_sum(mats)
    misses = _kernels._rest_layer.cache_info().misses
    warm = mixed_perm_sum(mats[:2] + data.draw(st.permutations(mats[2:])))
    assert _kernels._rest_layer.cache_info().misses == misses
    assert cold == warm == want
