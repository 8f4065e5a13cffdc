"""Property tests for the integer grid behind Polytope and for mixed volumes.

A body is one grid of integer extreme points over one denominator in
lowest terms. These properties check the canonical form (equal bodies
have equal grids and hashes, whatever interior points, duplicates or
unreduced fractions the input carries), `minkowski_sum` against the
hull of the Fraction pointwise sums, and the algebra of V: symmetry,
translation invariance, and Minkowski additivity and homogeneity in
each slot. Draws are derandomized and bounded, so the suite stays
deterministic and keeps no example database.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.convexvol import BodyTuple, Polytope, dilate, minkowski_sum, mixed_volume, translate

from oracles import extreme_points_bruteforce

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30, database=None)

rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)
dims = st.sampled_from([2, 3])


def clouds(d, max_size=5):
    return st.lists(st.tuples(*[rats] * d), min_size=1, max_size=max_size)


@st.composite
def dim_and_bodies(draw, count):
    """A dimension d in {2, 3} and d + count - 1 bodies of dimension d."""
    d = draw(dims)
    size = 5 if d == 2 else 4
    return d, [Polytope(draw(clouds(d, size))) for _ in range(d + count - 1)]


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
    assert s._volume == want._volume
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
