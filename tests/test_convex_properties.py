"""Property tests for the integer grid behind Polytope and for mixed volumes.

A body is one grid of integer extreme points over one denominator in
lowest terms. These properties check the canonical form (equal bodies
have equal grids and hashes, whatever interior points, duplicates or
unreduced fractions the input carries), `minkowski_sum` against the
hull of the Fraction pointwise sums, and the algebra of V: symmetry,
translation invariance, and Minkowski additivity and homogeneity in
each slot. The grid forms of translation, dilation and the homothety
test are checked against their former Fraction-vertex forms, on full,
flat, segment and single-point bodies, and the images that skip the
hull against the hull-built body, facet measures included. `mixed_volume`
is checked against the former polarization route in every order of each
tuple, including tuples whose rest sum is flat or lower-dimensional, and
the facet measures against Minkowski's relation, the volume and the
polarization route, for d = 1..4 and flat bodies. Zonotopes with
rational generators, flat ones included, must match the closed form
d! V = sum |det| over one generator per body, for d = 2..4. The mixed area measure
`_area` behind it must not depend on the order of the rest, must balance
(sum_u S(u) u = 0), and must give a set's facet measures for a rest of
that set repeated, through the fold as well, and must equal the support-scan
measure `oracles.area_by_support`, for d = 2..4. Draws are
derandomized and bounded, so the suite stays deterministic and keeps no
example database.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial, gcd

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from afkit.convexvol import (
    DEFAULT_VERTEX_BUDGET,
    BodyTuple,
    Polytope,
    _area,
    _hull_shape,
    _support_sum,
    dilate,
    minkowski_sum,
    mixed_volume,
    translate,
    volume,
)
from afkit.ineqcheck import homothety_ratio

from oracles import (
    dilate_fraction,
    extreme_points_bruteforce,
    homothety_ratio_fraction,
    area_by_support,
    mixed_volume_polarized,
    translate_fraction,
    volume_insertion,
    zonotope_mixed_volume,
)
from support import zonotope

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30, database=None)

rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)
positive_rats = st.fractions(min_value=0, max_value=4, max_denominator=5).filter(bool)
dims = st.sampled_from([2, 3])


def vectors(d):
    return st.tuples(*[rats] * d)


def clouds(d, max_size=5):
    return st.lists(vectors(d), min_size=1, max_size=max_size)


@st.composite
def dim_and_bodies(draw, count):
    """A dimension d in {2, 3} and d + count - 1 bodies of dimension d."""
    d = draw(dims)
    size = 5 if d == 2 else 4
    return d, [Polytope(draw(clouds(d, size))) for _ in range(d + count - 1)]


@st.composite
def shaped_body(draw, d):
    """A body in dimension d: the hull of a random cloud, a flat one (the
    cloud pressed into the hyperplane x_0 = c), a segment or a point."""
    shape = draw(st.sampled_from(["full", "flat", "segment", "point"]))
    size = {"full": 5, "flat": 5, "segment": 2, "point": 1}[shape]
    cloud = draw(st.lists(vectors(d), min_size=size, max_size=size))
    if shape == "flat":
        c = draw(rats)
        cloud = [(c,) + pt[1:] for pt in cloud]
    return Polytope(cloud)


def dim_and(*parts):
    """A dimension d in {2, 3} and one draw of each part(d)."""
    return dims.flatmap(lambda d: st.tuples(st.just(d), *(part(d) for part in parts)))


def assert_canonical(p):
    assert p._den > 0
    assert gcd(p._den, *(c for pt in p._pts for c in pt)) == 1
    assert list(p._pts) == sorted(p._pts)
    again = Polytope(p.vertices)
    assert again == p and hash(again) == hash(p)
    assert (again._den, again._pts) == (p._den, p._pts)


def V(bodies):
    return mixed_volume(BodyTuple(bodies))


@SETTINGS
@given(dims.flatmap(lambda d: st.tuples(st.just(d), clouds(d, 6))))
def test_grid_holds_the_extreme_points_in_lowest_terms(case):
    d, cloud = case
    p = Polytope(cloud)
    assert_canonical(p)
    assert list(p.vertices) == extreme_points_bruteforce(cloud, d)


@SETTINGS
@given(
    dims.flatmap(lambda d: st.tuples(st.just(d), clouds(d))),
    st.integers(2, 7),
    st.integers(1, 6),
)
def test_grid_ignores_interior_points_duplicates_and_unreduced_input(case, q, a):
    d, cloud = case
    p = Polytope(cloud)
    u, v = cloud[0], cloud[-1]
    a = min(a, q - 1)
    # points of the segment [u, v] and the centroid carry new denominators
    extra = [
        tuple((a * x + (q - a) * y) / q for x, y in zip(u, v)),
        tuple(sum(c) / len(cloud) for c in zip(*cloud)),
    ]
    unreduced = [tuple(f"{q * x.numerator}/{q * x.denominator}" for x in pt) for pt in cloud]
    for variant in (cloud + extra, cloud + cloud[:2], unreduced):
        other = Polytope(variant)
        assert other == p and hash(other) == hash(p)
        assert (other._den, other._pts) == (p._den, p._pts)


@SETTINGS
@given(dim_and_bodies(count=1).map(lambda c: (c[0], c[1][:2])))
def test_minkowski_sum_is_the_hull_of_pointwise_sums(case):
    _, (p, q) = case
    s = minkowski_sum(p, q)
    want = Polytope({tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices})
    assert s == want and hash(s) == hash(want)
    assert volume(s) == volume(want)
    assert_canonical(s)


@SETTINGS
@given(dim_and_bodies(count=1), st.randoms(use_true_random=False), st.tuples(rats, rats, rats))
def test_mixed_volume_symmetric_and_translation_invariant(case, rng, shift):
    d, bodies = case
    base = V(bodies)
    assert base >= 0
    assert V(rng.sample(bodies, d)) == base
    i = rng.randrange(d)
    moved = bodies[:i] + [translate(bodies[i], shift[:d])] + bodies[i + 1:]
    assert V(moved) == base


@SETTINGS
@given(dim_and_bodies(count=2), st.integers(0, 2), rats.map(abs))
def test_mixed_volume_additive_and_homogeneous_in_each_slot(case, slot, lam):
    d, (k, kp, *rest) = case
    slot = min(slot, d - 1)

    def at(body):
        return V(rest[:slot] + [body] + rest[slot:])

    assert at(minkowski_sum(k, kp)) == at(k) + at(kp)
    assert at(dilate(k, lam)) == lam * at(k)


@SETTINGS
@given(dim_and(shaped_body, shaped_body, vectors), rats.map(abs))
def test_grid_operations_match_their_fraction_references(case, lam):
    _, k, l, t = case
    assert translate(k, t) == translate_fraction(k, t)
    assert dilate(k, lam) == dilate_fraction(k, lam)
    assert homothety_ratio(k, l) == homothety_ratio_fraction(k, l)


@SETTINGS
@given(dim_and(shaped_body, vectors), positive_rats)
def test_a_homothetic_copy_has_ratio_lambda(case, lam):
    _, k, t = case
    l = translate(dilate(k, lam), t)
    assert l == translate_fraction(dilate_fraction(k, lam), t)
    point = len(k.vertices) == 1
    assert homothety_ratio(k, l) == homothety_ratio_fraction(k, l) == (0 if point else lam)
    assert homothety_ratio(l, k) == homothety_ratio_fraction(l, k) == (0 if point else 1 / lam)


@SETTINGS
@given(dim_and(shaped_body))
def test_dilation_by_zero_is_the_origin(case):
    d, k = case
    z = dilate(k, 0)
    assert z == dilate_fraction(k, 0) == Polytope([(0,) * d])
    assert volume(z) == 0
    assert homothety_ratio(k, z) == homothety_ratio_fraction(k, z) == 0
    assert homothety_ratio(z, k) == homothety_ratio_fraction(z, k)


@SETTINGS
@given(dim_and(shaped_body, shaped_body))
def test_mismatched_vertex_counts_have_no_ratio(case):
    _, k, l = case
    assume(len(k.vertices) != len(l.vertices))
    want = 0 if len(l.vertices) == 1 else None
    assert homothety_ratio(k, l) == homothety_ratio_fraction(k, l) == want


@SETTINGS
@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(shaped_body(d), vectors(d))),
    st.just(Fraction(0)) | positive_rats,
)
@example(
    (Polytope([(0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 3))]), (Fraction(1, 2), 0)),
    Fraction(3, 2),
)
def test_images_without_a_hull_equal_the_hull_built_body(case, lam):
    # a positive dilation and a shift keep the sorted extreme grid, so
    # they skip the hull; lam = 0 is one point. The example grows the grid
    # by 3 over a den of 6, which then reduces by 3.
    k, t = case
    images = [
        (dilate(k, lam), [tuple(lam * x for x in v) for v in k.vertices]),
        (translate(k, t), [tuple(x + y for x, y in zip(v, t)) for v in k.vertices]),
    ]
    for got, points in images:
        want = Polytope(points)
        assert got == want and hash(got) == hash(want)
        assert (volume(got), got._measures) == (volume(want), want._measures)
        assert_canonical(got)


def normals(d):
    """Integer normals with a positive first coordinate."""
    return st.tuples(st.integers(1, 3), *[st.integers(-2, 2)] * (d - 1))


def pressed(cloud, normal, c):
    """The cloud moved along x_0 into the hyperplane normal . x = c."""
    return [
        ((c - sum(n * x for n, x in zip(normal[1:], pt[1:]))) / normal[0],) + pt[1:]
        for pt in cloud
    ]


@st.composite
def mixed_tuples(draw, d, layout):
    """d bodies of dimension d, repeats allowed, drawn from a pool of a
    free body and d - 1 more laid out freely, in parallel hyperplanes
    n . x = c (a flat rest sum) or as parallel segments and points (a
    lower-dimensional one)."""
    normal = draw(normals(d))
    direction = draw(vectors(d).filter(any))
    size = {1: 3, 2: 5, 3: 4, 4: 3}[d]

    def body(kind):
        if kind == "collinear":
            a, lam = draw(vectors(d)), draw(rats)
            return Polytope([a, tuple(x + lam * y for x, y in zip(a, direction))])
        count = size if kind == "flat" else draw(st.sampled_from([size, size, 1]))
        cloud = draw(st.lists(vectors(d), min_size=count, max_size=count))
        if kind == "flat":
            cloud = pressed(cloud, normal, draw(rats))
        return Polytope(cloud)

    pool = [body("free")] + [body(layout) for _ in range(d - 1)]
    if draw(st.booleans()):
        return pool
    return [pool[i] for i in draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))]


@pytest.mark.parametrize("layout", ["free", "flat", "collinear"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_mixed_volume_matches_the_polarized_oracle_in_every_order(d, layout, data):
    bodies = data.draw(mixed_tuples(d, layout))
    want = mixed_volume_polarized(bodies)
    assert want >= 0
    for order in set(permutations(bodies)):
        assert V(list(order)) == want


@st.composite
def measured_body(draw, d):
    """A body in dimension d: the hull of a random cloud (drawn twice as
    often), a flat one in a random hyperplane (at d = 1 a point), a
    segment or a point."""
    shape = draw(st.sampled_from(["full", "full", "flat", "segment", "point"]))
    size = {"full": 6 if d < 4 else 5, "flat": 5, "segment": 2, "point": 1}[shape]
    cloud = draw(st.lists(vectors(d), min_size=size, max_size=size))
    if shape == "flat":
        cloud = pressed(cloud, draw(normals(d)), draw(rats))
    return Polytope(cloud)


def support(body, u):
    return max(sum(a * x for a, x in zip(u, v)) for v in body.vertices)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_facet_measures_satisfy_minkowskis_relation(d, data):
    # sum_u m(u) u = 0: the facets of a closed body balance, and a flat
    # body's two sides cancel
    k = data.draw(measured_body(d))
    assert all(m > 0 for m in k._measures.values())
    assert [sum(m * u[j] for u, m in k._measures.items()) for j in range(d)] == [0] * d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_volume_is_the_support_sum_of_the_facet_measures(d, data):
    # d! vol(K) = sum_u h_K(u) m(u), against the insertion hull's volume;
    # the measures are on the grid, den^(d-1) times their true values; a
    # shifted copy carries them over, so no facet hides at offset 0
    k = data.draw(measured_body(d))
    want = factorial(d) * volume_insertion(k)
    for body in (k, translate(k, data.draw(vectors(d)))):
        total = sum(support(body, u) * m for u, m in body._measures.items())
        assert total == want * body._den ** (d - 1)
        assert factorial(d) * volume(body) == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_measure_shortcut_matches_the_polarized_oracle(d, data):
    # V(L, K, ..., K) leads with L and reads K's measures in every order
    l, k = data.draw(measured_body(d)), data.draw(measured_body(d))
    want = mixed_volume_polarized([l] + [k] * (d - 1))
    for i in range(d):
        assert V([k] * i + [l] + [k] * (d - 1 - i)) == want


generators = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(SETTINGS, max_examples=15)
@given(data=st.data())
def test_zonotopes_match_the_closed_form(d, data):
    # d! V(Z_1, ..., Z_d) = sum |det| over one generator per body; a set
    # of rank below d gives a flat zonotope, and equal sets give volume
    gens = st.lists(st.tuples(*[generators] * d), min_size=1, max_size=d)
    sets = data.draw(st.lists(gens, min_size=d, max_size=d))
    if data.draw(st.booleans()):
        sets = [sets[0]] * d
    bodies = [zonotope(s) for s in sets]
    want = zonotope_mixed_volume(sets)
    for order in set(permutations(bodies)):
        assert V(list(order)) == want
    if len(set(bodies)) == 1:
        assert volume(bodies[0]) == want


@st.composite
def grids(draw, d, count):
    """The integer grids of count measured bodies, repeats allowed."""
    pool = [draw(measured_body(d))._pts for _ in range(count)]
    if draw(st.booleans()):
        return pool
    picks = draw(st.lists(st.integers(0, count - 1), min_size=count, max_size=count))
    return [pool[i] for i in picks]


def area(rest, d):
    return _area(list(rest), d, DEFAULT_VERTEX_BUDGET)


@pytest.mark.parametrize("d", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_area_is_the_same_in_every_order_of_the_rest(d, data):
    # and V is symmetric: each set of a d-tuple, against the area measure
    # of the other d - 1, gives one d! V
    sets = data.draw(grids(d, d))
    rest = sets[1:]
    want = area(rest, d)
    assert all(m >= 0 for m in want.values())
    for order in set(permutations(rest)):
        assert area(order, d) == want
    assert len({_support_sum(sets[k], area(sets[:k] + sets[k + 1:], d)) for k in range(d)}) == 1


@pytest.mark.parametrize("d", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_area_balances(d, data):
    # sum_u S(u) u = 0: d! V(L + t, rest) - d! V(L, rest) is that sum
    # dotted with t, so V is translation invariant exactly when it is 0
    s = area(data.draw(grids(d, d - 1)), d)
    assert [sum(m * u[j] for u, m in s.items()) for j in range(d)] == [0] * d


@pytest.mark.parametrize("d", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_a_repeated_set_has_its_facet_measures(d, data):
    # read off the hull directly, and through the fold and the face
    # recursion when the copies list the set in rotated orders, which
    # count as distinct sets
    pts = data.draw(measured_body(d))._pts
    want = _hull_shape(pts, d)[1]
    assert area([pts] * (d - 1), d) == want
    assert area([pts[i:] + pts[:i] for i in range(d - 1)], d) == want


@st.composite
def rests(draw, d, source):
    """d - 1 grids: measured bodies, the rest of a flat or collinear
    `mixed_tuples` draw (a flat last sum, or segments in the rest), or
    one set repeated or listed in rotated orders."""
    if source == "grids":
        return draw(grids(d, d - 1))
    if source in ("flat", "collinear"):
        return [b._pts for b in draw(mixed_tuples(d, source))[1:]]
    pts = draw(measured_body(d))._pts
    if source == "repeated":
        return [pts] * (d - 1)
    return [pts[i:] + pts[:i] for i in range(d - 1)]


@pytest.mark.parametrize("source", ["grids", "flat", "collinear", "repeated", "rotated"])
@pytest.mark.parametrize("d", [2, 3, 4])
@settings(SETTINGS, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_area_reads_the_faces_a_support_scan_finds(d, source, data):
    # the faces come off the last sum's facet groups, the scan's off
    # every point of the rest: same normals in the same order, same values
    rest = data.draw(rests(d, source))
    assert list(area(rest, d).items()) == list(area_by_support(rest, d).items())
