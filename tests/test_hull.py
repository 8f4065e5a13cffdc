"""The outside-set hull against the lexicographic insertion oracle.

`_hull_shape` must give the same extreme indices, and through its facet
measures the same d! * volume as a support sum, as
`oracles.hull_insertion`, the former insertion hull, for d = 2..5 on
random clouds, on subsets of {0,1,2}^d (heavy coplanarity),
on points placed on the edges and facets of a few corners, and in any
input order; points that lie on several facets without being vertices
stay out. The facets of `_hull_full_dim` must form a closed simplicial
surface with primitive planes that every input point satisfies, and
only the initial simplex may take its planes from `_facet_plane`,
whose plane must equal the Bareiss cofactor plane of the oracle, sign
included. Draws are derandomized and bounded, so the suite stays
deterministic and keeps no example database.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afkit import convexvol
from afkit.convexvol import (
    _affine_basis,
    _facet_plane,
    _hull_full_dim,
    _hull_shape,
    _support_sum,
    convex_hull,
    volume,
)
from afkit.errors import InvariantViolationError

from oracles import facet_plane_minors, hull_insertion

SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)

dims = st.sampled_from([2, 3, 4, 5])
# corners are multiples of 60, so every edge point k/60 of the way and
# every barycenter of d corners (d <= 5) is an integer point
SCALE = 60


def points(d, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * d)


@st.composite
def random_clouds(draw, d):
    return draw(st.lists(points(d, -6, 6), min_size=1, max_size=14, unique=True))


@st.composite
def lattice_clouds(draw, d):
    grid = list(product(range(3), repeat=d))
    return draw(st.lists(st.sampled_from(grid), min_size=1, max_size=16, unique=True))


@st.composite
def boundary_clouds(draw, d):
    """A few corners plus points on their edges and barycenters of d of them."""
    corners = draw(st.lists(points(d, -2, 2), min_size=2, max_size=d + 3, unique=True))
    corners = [tuple(SCALE * c for c in p) for p in corners]
    idx = st.integers(0, len(corners) - 1)
    cloud = set(corners)
    for i, j, k in draw(st.lists(st.tuples(idx, idx, st.integers(1, SCALE - 1)), max_size=6)):
        u, v = corners[i], corners[j]
        cloud.add(tuple((k * a + (SCALE - k) * b) // SCALE for a, b in zip(u, v)))
    if len(corners) >= d:
        faces = st.lists(st.sampled_from(list(combinations(range(len(corners)), d))), max_size=4)
        for face in draw(faces):
            cloud.add(tuple(sum(corners[i][j] for i in face) // d for j in range(d)))
    return sorted(cloud)


@st.composite
def clouds(draw):
    """(d, distinct integer points in a drawn order)."""
    d = draw(dims)
    kind = draw(st.sampled_from([random_clouds, lattice_clouds, boundary_clouds]))
    return d, draw(st.permutations(draw(kind(d))))


def shape(pts, d):
    """The extreme indices and d! volume, the cloud's support sum against
    its facet measures."""
    idx, measures = _hull_shape(pts, d)
    return idx, _support_sum(pts, measures)


@SETTINGS
@given(clouds())
def test_hull_matches_the_insertion_oracle(case):
    d, pts = case
    assert shape(pts, d) == hull_insertion(pts, d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_full_lattice_cube_in_shuffled_orders(d):
    # every point of {0,1,2}^d: only the 2^d corners are extreme
    cube = list(product(range(3), repeat=d))
    for seed in range(3):
        pts = cube[:]
        Random(seed).shuffle(pts)
        idx, vol = shape(pts, d)
        assert sorted(pts[i] for i in idx) == list(product((0, 2), repeat=d))
        assert (idx, vol) == hull_insertion(pts, d)


def test_points_on_several_facets_are_not_vertices():
    # the 4-cube {0,2}^4 with its 32 edge midpoints, each on 3 facets,
    # and some 2-face and 3-face centres: such a point that enters the
    # boundary triangulation (through the initial simplex, say) can be a
    # vertex of 4 or more simplices, so counting simplices would keep
    # it; the rank of its distinct planes, at most 3, does not
    corners = list(product((0, 2), repeat=4))
    mids = [p for p in product(range(3), repeat=4) if sum(c == 1 for c in p) == 1]
    centres = [(1, 1, 0, 2), (2, 1, 1, 0), (0, 2, 1, 1), (1, 1, 1, 0), (2, 1, 1, 1)]
    pts = corners + mids + centres
    for seed in range(3):
        Random(seed).shuffle(pts)
        idx, vol = shape(pts, 4)
        assert sorted(pts[i] for i in idx) == corners
        assert vol == 16 * 24
        assert (idx, vol) == hull_insertion(pts, 4)
    body = convex_hull([tuple(Fraction(c) for c in p) for p in pts])
    assert sorted(body.vertices) == corners
    assert volume(body) == 16


def dot(a, p):
    return sum(x * y for x, y in zip(a, p))


@SETTINGS
@given(clouds())
def test_facets_form_a_closed_surface_of_primitive_supporting_planes(case):
    d, pts = case
    basis_idx, ech = _affine_basis(pts, d)
    assume(ech.rank == d)
    facets = _hull_full_dim(pts, d, basis_idx)
    ridges = Counter()
    for a, b, vidx in facets:
        assert len(set(vidx)) == d
        assert gcd(*a, b) == 1
        assert all(dot(a, pts[v]) == b for v in vidx)
        assert all(dot(a, p) <= b for p in pts)
        ridges.update(tuple(sorted(r)) for r in combinations(vidx, d - 1))
    assert set(ridges.values()) == {2}


@SETTINGS
@given(dims.flatmap(lambda d: st.lists(points(d, -40, 40), min_size=d, max_size=d)))
def test_facet_plane_is_the_signed_cofactor_plane_and_refuses_degenerate_points(pts):
    vidx = tuple(range(len(pts)))
    try:
        want = facet_plane_minors(pts, vidx)
    except ValueError:
        # affinely dependent points: `_facet_plane` must refuse them too
        with pytest.raises(InvariantViolationError, match="degenerate facet"):
            _facet_plane(pts, vidx)
        return
    assert _facet_plane(pts, vidx) == want



@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_only_the_initial_simplex_calls_facet_plane(d, monkeypatch):
    # every later facet takes its plane from the two at its horizon ridge
    calls = []

    def counting(ints, vidx):
        calls.append(vidx)
        return _facet_plane(ints, vidx)

    monkeypatch.setattr(convexvol, "_facet_plane", counting)
    rng = Random(d)
    pts = sorted({tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(40)})
    basis_idx, ech = _affine_basis(pts, d)
    assert ech.rank == d
    facets = _hull_full_dim(pts, d, basis_idx)
    assert len(calls) == d + 1
    assert len(facets) > 2 * (d + 1)
