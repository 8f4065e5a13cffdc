"""Convex body engine: hulls, exact volumes, Minkowski arithmetic, and
mixed volumes, cross-checked against brute-force geometry oracles."""

import ast
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import afkit
from afkit import convexvol
from afkit.convexvol import (
    BodyTuple,
    Polytope,
    convex_hull,
    dilate,
    minkowski_expansion_check,
    minkowski_sum,
    mixed_volume,
    translate,
    volume,
)
from afkit.errors import DimensionMismatchError, SizeLimitError

from oracles import (
    extreme_points_bruteforce,
    hull_cycle_2d,
    mixed_volume_polarized,
    permanent,
    real_det,
    shoelace_area,
    truncated_simplex_mixed_volume,
)

F = Fraction


def fr_points(pts):
    return [tuple(Fraction(c) for c in p) for p in pts]


def unit_box(d):
    return convex_hull(list(itertools.product((0, 1), repeat=d)))


def std_simplex(d):
    pts = [tuple(0 for _ in range(d))]
    for i in range(d):
        pts.append(tuple(1 if j == i else 0 for j in range(d)))
    return convex_hull(pts)


def axis_box(lengths):
    return convex_hull(list(itertools.product(*[(0, l) for l in lengths])))


def seg(v):
    d = len(v)
    return convex_hull([tuple(0 for _ in range(d)), tuple(v)])


def rand_cloud(rng, d, count, bound=6, denom=3):
    return [
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, denom)) for _ in range(d))
        for _ in range(count)
    ]


def test_hull_square_with_center():
    p = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert p.vertices == tuple(fr_points([(0, 0), (0, 2), (2, 0), (2, 2)]))
    assert p.dim == 2


def test_hull_all_points_identical():
    p = convex_hull([("1/2", "1/3"), ("1/2", "1/3"), ("1/2", "1/3")])
    assert p.vertices == ((F(1, 2), F(1, 3)),)


def test_hull_points_in_simplex_vs_bruteforce():
    rng = random.Random(61)
    corners = fr_points([(0, 0), (6, 0), (0, 6)])
    pts = list(corners)
    for _ in range(17):
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        c = rng.randint(1, 5)
        s = a + b + c
        pts.append(tuple(
            (F(a) * corners[0][i] + F(b) * corners[1][i] + F(c) * corners[2][i]) / s
            for i in range(2)
        ))
    p = convex_hull(pts)
    assert list(p.vertices) == extreme_points_bruteforce(pts, 2)


def test_hull_matches_monotone_chain():
    rng = random.Random(67)
    for _ in range(50):
        pts = rand_cloud(rng, 2, rng.randint(1, 14))
        pts += pts[: len(pts) // 2]  # duplicates must not matter
        got = convex_hull(pts).vertices
        want = tuple(sorted(set(hull_cycle_2d(pts))))
        assert got == want


def test_hull_3d_vs_bruteforce():
    rng = random.Random(71)
    for _ in range(5):
        pts = rand_cloud(rng, 3, 10, bound=4, denom=2)
        got = convex_hull(pts).vertices
        assert list(got) == extreme_points_bruteforce(pts, 3)


def test_hull_4d_box_corners():
    corners = list(itertools.product((0, 1), repeat=4))
    cloud = corners + [("1/2", "1/2", "1/2", "1/2"), (0, 0, 0, "1/2")]
    p = convex_hull(cloud)
    assert p.vertices == tuple(fr_points(sorted(corners)))


def test_hull_idempotent():
    rng = random.Random(73)
    for d in (1, 2, 3):
        pts = rand_cloud(rng, d, 9)
        p = convex_hull(pts)
        again = convex_hull(p.vertices)
        assert again == p


def test_hull_flat_inputs():
    p = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert p.vertices == tuple(fr_points([(0, 0), (3, 3)]))
    tri = convex_hull([(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1), ("1/2", "1/2", 1)])
    assert tri.vertices == tuple(fr_points([(0, 0, 1), (0, 2, 1), (2, 0, 1)]))
    line3 = convex_hull([(1, 1, 1), (3, 3, 3), (2, 2, 2)])
    assert line3.vertices == tuple(fr_points([(1, 1, 1), (3, 3, 3)]))
    sq3 = convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), ("1/2", "1/2", 1)])
    assert len(sq3.vertices) == 4


def test_hull_validation():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(DimensionMismatchError):
        convex_hull([(0, 0), (1, 1, 1)])
    with pytest.raises(SizeLimitError):
        convex_hull([(0, 0, 0, 0, 0), (1, 1, 1, 1, 1)])
    with pytest.raises(ValueError):
        convex_hull([()])


def test_volume_unit_cubes():
    for d in (1, 2, 3, 4):
        assert volume(unit_box(d)) == 1


def test_volume_standard_simplex():
    for d in (2, 3, 4):
        assert volume(std_simplex(d)) == F(1, factorial(d))


def test_volume_flat_bodies():
    assert volume(convex_hull([(0, 0), (3, 4)])) == 0
    assert volume(convex_hull([(0, 0, 1), (2, 0, 1), (0, 2, 1)])) == 0
    assert volume(convex_hull([(5,)])) == 0


def test_volume_2d_matches_shoelace():
    rng = random.Random(79)
    for _ in range(40):
        pts = rand_cloud(rng, 2, rng.randint(3, 12))
        assert volume(convex_hull(pts)) == shoelace_area(hull_cycle_2d(pts))


def test_volume_parallelepiped_is_det():
    rng = random.Random(83)
    for d in (2, 3):
        for _ in range(10):
            vecs = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
            p = seg(vecs[0])
            for v in vecs[1:]:
                p = minkowski_sum(p, seg(v))
            assert volume(p) == abs(real_det(vecs))


def test_volume_4d_cross_checks():
    assert volume(dilate(std_simplex(4), "3/2")) == F(3, 2) ** 4 / 24
    assert volume(axis_box([2, "1/2", 3, "1/3"])) == 1


def test_minkowski_point_translation():
    p = convex_hull([(0, 0), (2, 0), (0, 2)])
    q = minkowski_sum(p, convex_hull([("1/2", -1)]))
    assert q.vertices == tuple(fr_points([("1/2", -1), ("1/2", 1), ("5/2", -1)]))
    assert q == translate(p, ("1/2", -1))


def test_minkowski_squares():
    s = unit_box(2)
    assert minkowski_sum(s, s) == axis_box([2, 2])


def test_minkowski_segments_make_square():
    assert minkowski_sum(seg((1, 0)), seg((0, 1))) == unit_box(2)


def test_minkowski_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        minkowski_sum(unit_box(2), unit_box(3))


def test_dilate():
    p = convex_hull([(0, 0), (1, 2), (3, 1)])
    assert dilate(p, 1) == p
    assert dilate(p, 0) == convex_hull([(0, 0)])
    assert dilate(p, 0).vertices == ((F(0), F(0)),)
    with pytest.raises(ValueError):
        dilate(p, -1)
    rng = random.Random(89)
    for d in (2, 3):
        q = convex_hull(rand_cloud(rng, d, 8))
        lam = F(5, 3)
        assert volume(dilate(q, lam)) == lam ** d * volume(q)


def test_mixed_volume_diagonal_is_volume():
    rng = random.Random(97)
    for d in (2, 3):
        p = convex_hull(rand_cloud(rng, d, 8))
        t = BodyTuple([p] * d)
        assert mixed_volume(t) == volume(p)


def test_mixed_volume_frozen_boxes():
    b1 = axis_box([1, 2])
    b2 = axis_box([3, 4])
    assert mixed_volume(BodyTuple([b1, b2])) == 5


def test_mixed_volume_boxes_match_permanent():
    rng = random.Random(101)
    for d in (2, 3, 4):
        for _ in range(6):
            lengths = [[F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(d)]
                       for _ in range(d)]
            t = BodyTuple([axis_box(l) for l in lengths])
            assert mixed_volume(t) == permanent(lengths) / factorial(d)


def test_mixed_volume_segments_match_det():
    rng = random.Random(103)
    for d in (2, 3):
        for _ in range(8):
            vecs = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
            t = BodyTuple([seg(v) for v in vecs])
            assert mixed_volume(t) == abs(real_det(vecs)) / factorial(d)
    degenerate = BodyTuple([seg((1, 1)), seg((2, 2))])
    assert mixed_volume(degenerate) == 0


def truncated_simplex(d, a, b):
    """T(A, B) = {x >= 0, B <= sum x <= A}: the corners A e_i and B e_i."""
    corners = [tuple(c if j == i else 0 for j in range(d)) for c in (a, b) for i in range(d)]
    return convex_hull(corners)


def test_mixed_volume_of_truncated_simplices_is_the_closed_form():
    # (prod A_i - prod B_i) / d!, including B = 0 (a simplex) and B = A,
    # a flat body whose facet normals are u and -u
    shapes = [(6, 2), (6, 3), (5, 1), (5, 0), (2, 2), (F(7, 2), F(1, 3))]
    for d in (2, 3):
        for pairs in itertools.product(shapes, repeat=d):
            t = BodyTuple([truncated_simplex(d, a, b) for a, b in pairs])
            assert mixed_volume(t) == truncated_simplex_mixed_volume(pairs)


def test_mixed_volume_symmetric_d3():
    rng = random.Random(107)
    bodies = [convex_hull(rand_cloud(rng, 3, 5, bound=3, denom=1)) for _ in range(3)]
    base = mixed_volume(BodyTuple(bodies))
    for perm in itertools.permutations(range(3)):
        assert mixed_volume(BodyTuple([bodies[i] for i in perm])) == base


def test_mixed_volume_translation_invariant():
    rng = random.Random(109)
    bodies = [convex_hull(rand_cloud(rng, 2, 6)) for _ in range(2)]
    base = mixed_volume(BodyTuple(bodies))
    shifted = translate(bodies[0], (7, "-5/3"))
    assert mixed_volume(BodyTuple([shifted, bodies[1]])) == base


def test_mixed_volume_multilinear_nonneg():
    rng = random.Random(113)
    for _ in range(5):
        k, kp, l = (convex_hull(rand_cloud(rng, 2, 5)) for _ in range(3))
        a, b = F(rng.randint(0, 4), rng.randint(1, 3)), F(rng.randint(0, 4), rng.randint(1, 3))
        combo = minkowski_sum(dilate(k, a), dilate(kp, b))
        lhs = mixed_volume(BodyTuple([combo, l]))
        rhs = a * mixed_volume(BodyTuple([k, l])) + b * mixed_volume(BodyTuple([kp, l]))
        assert lhs == rhs


def test_mixed_volume_nonnegative():
    rng = random.Random(127)
    for d in (2, 3):
        for _ in range(10):
            bodies = [convex_hull(rand_cloud(rng, d, 5, bound=3, denom=1)) for _ in range(d)]
            assert mixed_volume(BodyTuple(bodies)) >= 0


def test_mixed_volume_budget():
    # V(K, L, M) builds the sum of the two bodies after the lead, and the
    # budget bounds it before it is built
    rng = random.Random(131)
    bodies = [convex_hull(rand_cloud(rng, 3, 8, bound=9, denom=1)) for _ in range(3)]
    with pytest.raises(SizeLimitError):
        mixed_volume(BodyTuple(bodies), budget=3)


def test_a_pair_builds_no_sum_under_any_budget():
    # V(K, L) reads the facet measures of one body alone, so no Minkowski
    # sum is materialized and the budget has nothing to bound
    rng = random.Random(131)
    for _ in range(5):
        kp, lp = (rand_cloud(rng, 2, 8, bound=9, denom=1) for _ in range(2))
        want = (polygon_area(pointwise_sums(kp, lp)) - polygon_area(kp) - polygon_area(lp)) / 2
        t = BodyTuple([convex_hull(kp), convex_hull(lp)])
        assert mixed_volume(t, budget=3) == want == mixed_volume(t)


def polygon_area(pts):
    return shoelace_area(hull_cycle_2d(pts))


def pointwise_sums(a, b):
    return [tuple(x + y for x, y in zip(u, v)) for u in a for v in b]


def test_mixed_volume_multiset_route_matches_shoelace():
    rng = random.Random(157)
    for _ in range(25):
        kp = rand_cloud(rng, 2, rng.randint(1, 7))
        lp = rand_cloud(rng, 2, rng.randint(1, 7))
        k, l = convex_hull(kp), convex_hull(lp)
        area_k, area_l = polygon_area(kp), polygon_area(lp)
        area_kl = polygon_area(pointwise_sums(kp, lp))
        assert mixed_volume(BodyTuple([k, l])) == (area_kl - area_k - area_l) / 2
        assert mixed_volume(BodyTuple([l, k])) == (area_kl - area_k - area_l) / 2
        assert mixed_volume(BodyTuple([k, k])) == area_k
        assert mixed_volume(BodyTuple([l, l])) == area_l


def test_mixed_volume_repeated_body_order_free_d3():
    rng = random.Random(163)
    for _ in range(3):
        k, m = (convex_hull(rand_cloud(rng, 3, 6, bound=3, denom=2)) for _ in range(2))
        values = {
            mixed_volume(BodyTuple(order))
            for order in itertools.permutations([k, k, m])
        }
        assert len(values) == 1
    # V(K, K, K) is the volume, and V(K, K, M) is linear in M
    assert mixed_volume(BodyTuple([k, k, k])) == volume(k)
    assert mixed_volume(BodyTuple([k, k, dilate(m, 3)])) == 3 * values.pop()


def test_a_repeated_rest_builds_no_sum(monkeypatch):
    # V(K, K, M) leads with M and reads K's facet measures in every order,
    # so neither the rest-area cache nor the area fold runs
    rng = random.Random(165)
    cases = []
    for d in (3, 4):
        k, m = (convex_hull(rand_cloud(rng, d, 7, bound=4, denom=3)) for _ in range(2))
        cases.append(([k] * (d - 1) + [m], mixed_volume_polarized([k] * (d - 1) + [m])))

    def no_sum(*args):
        raise AssertionError("a Minkowski sum was built")

    monkeypatch.setattr(convexvol, "_rest_area", no_sum)
    monkeypatch.setattr(convexvol, "_area", no_sum)
    for bodies, want in cases:
        assert want > 0
        for order in set(itertools.permutations(bodies)):
            assert mixed_volume(BodyTuple(order)) == want


def dot(u, p):
    return sum(a * b for a, b in zip(u, p))


def has_point_face(pts, u):
    top = max(dot(u, p) for p in pts)
    return sum(dot(u, p) == top for p in pts) == 1


@pytest.mark.parametrize("d, distinct, flat", [
    (3, 2, False), (4, 2, False), (4, 3, False), (3, 2, True), (4, 3, True),
])
def test_the_area_measure_takes_the_normals_of_the_whole_sum(d, distinct, flat):
    # `_area` folds the rest's distinct bodies into their Minkowski sum,
    # keeping the extreme points of each sum but the last, and hulls the
    # last for its normals only: its keys must be the measures' keys of
    # the full hull of that sum, in their order, less the normals where
    # some body has a point face. A flat sum (every body in x_d = 0) is
    # hulled by `_hull_shape`'s flat branch.
    rng = random.Random(40 * d + distinct + flat)
    for _ in range(8):
        bodies = []
        for _ in range(distinct):
            cloud = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 3)]
            if flat:
                cloud = [p[:-1] + (0,) for p in cloud]
            bodies.append(convex_hull(fr_points(cloud))._pts)
        rest = (bodies * d)[:d - 1]
        assert len(set(rest)) == distinct
        total = bodies[0]
        for pts in bodies[1:]:
            total = [total[i] for i in convexvol._hull_shape(total, d)[0]]
            total = sorted({tuple(a + b for a, b in zip(v, w)) for v in total for w in pts})
        normals = convexvol._hull_shape(total, d)[1]
        want = [u for u in normals if not any(has_point_face(pts, u) for pts in rest)]
        assert want
        assert list(convexvol._area(rest, d, convexvol.DEFAULT_VERTEX_BUDGET)) == want


def test_memo_keys_on_the_budget():
    # the tighter budget misses the cached measure and raises, caching
    # nothing; the default budget then hits its own entry again
    rng = random.Random(167)
    t = BodyTuple([convex_hull(rand_cloud(rng, 3, 8, bound=9, denom=1)) for _ in range(3)])
    convexvol._rest_area.cache_clear()
    value = mixed_volume(t)
    with pytest.raises(SizeLimitError):
        mixed_volume(t, budget=3)
    assert mixed_volume(t) == value
    info = convexvol._rest_area.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 1)


def test_memo_separates_translated_and_dilated_copies():
    rng = random.Random(173)
    kp, lp = rand_cloud(rng, 2, 6), rand_cloud(rng, 2, 6)
    k, l = convex_hull(kp), convex_hull(lp)
    area_kl = polygon_area(pointwise_sums(kp, lp))
    base = (area_kl - polygon_area(kp) - polygon_area(lp)) / 2
    assert mixed_volume(BodyTuple([k, l])) == base
    shift = (F(5, 2), F(-7))
    moved = translate(k, shift)
    assert moved != k
    moved_pts = [tuple(a + b for a, b in zip(p, shift)) for p in kp]
    assert mixed_volume(BodyTuple([moved, moved])) == polygon_area(moved_pts)
    assert mixed_volume(BodyTuple([moved, l])) == base
    big = dilate(k, 3)
    assert big != k
    assert mixed_volume(BodyTuple([big, big])) == 9 * polygon_area(kp)
    assert mixed_volume(BodyTuple([big, l])) == 3 * base


def test_expansion_single_body():
    rng = random.Random(137)
    p = convex_hull(rand_cloud(rng, 2, 6))
    assert minkowski_expansion_check([p], ["7/2"])


def test_expansion_two_bodies_quadratic():
    rng = random.Random(139)
    k = convex_hull(rand_cloud(rng, 2, 5))
    l = convex_hull(rand_cloud(rng, 2, 5))
    assert minkowski_expansion_check([k, l], [1, 1])


def test_expansion_three_bodies_d2():
    rng = random.Random(149)
    for _ in range(3):
        bodies = [convex_hull(rand_cloud(rng, 2, rng.randint(3, 6))) for _ in range(3)]
        lams = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(3)]
        assert minkowski_expansion_check(bodies, lams)


def test_expansion_d3():
    rng = random.Random(151)
    bodies = [convex_hull(rand_cloud(rng, 3, 4, bound=2, denom=1)) for _ in range(2)]
    assert minkowski_expansion_check(bodies, [2, "1/2"])


def test_expansion_validation():
    p = unit_box(2)
    with pytest.raises(DimensionMismatchError):
        minkowski_expansion_check([p], [1, 2])
    with pytest.raises(ValueError):
        minkowski_expansion_check([p], [-1])


def test_body_tuple_validation():
    with pytest.raises(DimensionMismatchError):
        BodyTuple([unit_box(2)])
    with pytest.raises(DimensionMismatchError):
        BodyTuple([unit_box(2), unit_box(3)])
    with pytest.raises(ValueError):
        BodyTuple([])


def test_polytope_canonicalizes_on_construction():
    p = Polytope([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    assert p.vertices == tuple(fr_points([(0, 0), (0, 2), (2, 0), (2, 2)]))
    with pytest.raises(AttributeError):
        p.vertices = ()


def _scoped_names(node, scope=()):
    """(scope, name) for every name, attribute and import alias in node,
    scope being the enclosing class and function names."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    name = node.name if isinstance(node, ast.alias) else getattr(node, "id", None)
    name = name or getattr(node, "attr", None)
    if name:
        yield ".".join(scope), name
    for child in ast.iter_child_nodes(node):
        yield from _scoped_names(child, scope)


def test_only_the_constructor_clears_a_polytope():
    # a body is cleared once, at construction; every other operation works
    # on its integer grid, which no other module reads, and the Fraction
    # vertices are a derived view
    clears, grid_readers, slots = set(), set(), None
    for path in sorted(Path(afkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, name in _scoped_names(tree):
            if name == "_clear_points":
                clears.add((path.stem, scope))
            if name == "_pts":
                grid_readers.add(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Polytope":
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "__slots__":
                        slots = ast.literal_eval(stmt.value)
    assert clears == {("convexvol", "Polytope.__init__")}
    assert grid_readers == {"convexvol"}
    assert slots is not None and "vertices" not in slots
    assert set(slots) == {"dim", "_pts", "_den", "_measures", "_hash"}


def test_only_jsonio_reads_the_vertices_view():
    # every library operation works on the grid: the Fraction view is
    # built for JSON alone, whether read as an attribute or named as a
    # string to attrgetter or getattr
    readers = set()
    for path in sorted(Path(afkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "vertices":
                readers.add(path.stem)
            if isinstance(node, ast.Constant) and node.value == "vertices":
                readers.add(path.stem)
    assert readers == {"jsonio"}
