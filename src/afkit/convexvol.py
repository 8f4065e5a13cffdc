"""Exact convex body engine over the rationals.

A body is stored by its extreme points only (V-representation): one
integer grid over one denominator, cleared once at construction, on
which hulls are built from outside sets, each step adding the farthest
point above one facet. A new facet's plane combines the two planes at
its horizon ridge; only the first simplex takes cofactors, for every d.
One hull pass per point cloud yields the extreme points and the facet
measures m_K(u) = (d-1)! vol_{d-1}(F(K, u)) / |u|, one per primitive
outer normal u, which a Polytope keeps; a dilation or a shift carries
them over without a hull.

Every volume is one support sum against a mixed area measure
(Schneider, Convex Bodies, 5.1): d! V(L, K_2, ..., K_d) =
sum_u h_L(u) S(K_2, ..., K_d)(u). A rest that repeats one body K has
S = m_K, so vol(K) = V(K, ..., K) and V(L, K, ..., K) need no sum; a
body of least multiplicity leads. `_area` builds any other S: the
Minkowski sum of the rest's distinct bodies gives the normals, and the
projected faces at each normal give S(u) by the same identity one
dimension down. Such measures sit in a 4-entry LRU cache, the engine's
only one, keyed by the (body, count) multiset and the vertex budget.
Every operation after construction works on the grid, and every measure
is an integer on the grid it came from; Fractions appear only in the
volumes, and in the `vertices` view JSON reads.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import factorial, gcd, lcm
from operator import add, mul
from typing import Sequence

from ._kernels import _expansion_args, _multinomial_expansion, _ratio, int_det
from .errors import DimensionMismatchError, InvariantViolationError, SizeLimitError, _expect
from .rationals import Rat, as_rat

MAX_DIMENSION = 4
DEFAULT_VERTEX_BUDGET = 50_000


def _dot(a, b):
    return sum(map(mul, a, b))


def _clear_points(points):
    """Scale rational points to integer coordinates by a common factor."""
    scale = lcm(1, *(c.denominator for p in points for c in p))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]
    return ints, scale


class _IntEchelon:
    """Row echelon store over the integers, for exact rank and span tests."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []  # (pivot index, normalized row) pairs

    def add(self, vec) -> bool:
        """Insert vec if independent of the stored rows; report growth."""
        v = list(vec)
        for piv, row in self.rows:
            if v[piv]:
                a, b = v[piv], row[piv]
                v = [b * x - a * y for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        g = 0
        for x in v:
            g = gcd(g, x)
        self.rows.append((piv, tuple(x // g for x in v)))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def _affine_basis(ints, d):
    """Greedy affinely independent subset; returns (indices, echelon)."""
    base = ints[0]
    ech = _IntEchelon()
    idx = [0]
    for i in range(1, len(ints)):
        if ech.add(tuple(a - b for a, b in zip(ints[i], base))):
            idx.append(i)
            if len(idx) == d + 1:
                break
    return idx, ech


def _primitive(a, b):
    """The plane a . x = b divided by the gcd of its coefficients."""
    g = gcd(*a, b)
    if g > 1:
        return tuple(x // g for x in a), b // g
    return tuple(a), b


def _facet_plane(ints, vidx):
    """Primitive (normal, offset) of the hyperplane through d points.

    The normal is the cofactor vector of the d - 1 edge vectors from the
    first point: entry j is (-1)^j times the Bareiss determinant of the
    edges without coordinate j. It is orthogonal to every edge, and zero
    exactly when the points are affinely dependent.
    """
    base = ints[vidx[0]]
    edges = [[x - y for x, y in zip(ints[v], base)] for v in vidx[1:]]
    normal = [(-1) ** j * int_det([e[:j] + e[j + 1:] for e in edges]) for j in range(len(base))]
    if not any(normal):
        raise InvariantViolationError("degenerate facet in hull construction")
    return _primitive(normal, _dot(normal, base))


def _oriented(plane, cref, dplus1):
    # orient the facet so the initial-simplex barycenter is strictly beneath
    a, b = plane
    s = _dot(a, cref)
    rhs = dplus1 * b
    if s > rhs:
        return tuple(-x for x in a), -b
    if s == rhs:
        raise InvariantViolationError("interior reference point on a facet plane")
    return a, b


def _hull_full_dim(ints, d, basis_idx):
    """Hull of a full-dimensional integer point cloud by outside sets.

    Returns the facets: (normal, offset, vertex index tuple) triples
    forming a simplicial triangulation of the boundary, oriented so
    that normal . x <= offset holds on the hull.

    Each live facet keeps the unprocessed points strictly above it, each
    point in at most one such outside set; a point above no facet is
    inside the current hull and dropped for good. A step takes a facet
    with a nonempty set and its farthest point, the largest a . p with
    ties to the lowest index; walks across shared ridges (a ridge to
    facets dict) to collect the facets that point sees; replaces them
    by one new facet per horizon ridge; and hands their points to the
    new facets. A point of a removed set that lies above none of them
    is inside the new hull, since the new facets bound its tangent cone
    at the apex. The apex itself lies on every new facet, so it is
    handed to none.

    Only the d + 1 facets of the initial simplex take their plane from
    `_facet_plane`. The walk keeps the height h = a . p - b of p over
    each facet it meets, and the facet on the horizon ridge between a
    visible f (h_f > 0) and a hidden g (h_g <= 0) gets the plane
    h_f (a_g, b_g) - h_g (a_f, b_f) over its gcd: it vanishes on the
    ridge and at p, and a point beneath both facets is beneath it, so
    it is the outward primitive plane through the new facet's points.
    """
    cref = tuple(sum(ints[i][j] for i in basis_idx) for j in range(d))
    dplus1 = d + 1
    facets = {}  # id -> (normal, offset, vertex indices, ridge keys)
    outside = {}  # id -> indices of the points strictly above that facet
    ridges = {}  # sorted ridge vertex indices -> ids of its facets
    pending = []  # ids whose outside set was nonempty when assigned
    ids = count()

    def add(vidx, plane):
        fid = next(ids)
        a, b = _oriented(plane, cref, dplus1)
        keys = [tuple(sorted(vidx[:i] + vidx[i + 1:])) for i in range(d)]
        facets[fid] = (a, b, vidx, keys)
        for key in keys:
            ridges.setdefault(key, []).append(fid)
        return fid

    def assign(points, fids):
        # each point goes to the first new facet it lies strictly above
        sets = [(facets[f][0], facets[f][1], outside.setdefault(f, [])) for f in fids]
        for q in points:
            p = ints[q]
            for a, b, bucket in sets:
                if _dot(a, p) > b:
                    bucket.append(q)
                    break
        pending.extend(f for f in fids if outside[f])

    seeded = set(basis_idx)
    simplex = []
    for drop in range(dplus1):
        vidx = tuple(basis_idx[i] for i in range(dplus1) if i != drop)
        simplex.append(add(vidx, _facet_plane(ints, vidx)))
    assign([i for i in range(len(ints)) if i not in seeded], simplex)
    while pending:
        fid = pending.pop()
        if fid not in facets:
            continue
        a, b = facets[fid][:2]
        pi = max(outside[fid], key=lambda q: (_dot(a, ints[q]), -q))
        p = ints[pi]
        visible = [fid]
        seen = {fid: _dot(a, p) - b}  # facet id -> height of p above it
        horizon = []  # (new facet's vertex indices, its plane)
        for f in visible:  # grows while walked
            fa, fb, _, keys = facets[f]
            hf = seen[f]
            for key in keys:
                g0, g1 = ridges[key]
                g = g1 if g0 == f else g0
                ga, gb = facets[g][:2]
                hg = seen.get(g)
                if hg is None:
                    hg = seen[g] = _dot(ga, p) - gb
                    if hg > 0:
                        visible.append(g)
                if hg <= 0:
                    normal = [hf * y - hg * x for x, y in zip(fa, ga)]
                    horizon.append((key + (pi,), _primitive(normal, hf * gb - hg * fb)))
        handed = []
        for f in visible:
            handed += outside.pop(f)
            for key in facets.pop(f)[3]:
                through = ridges[key]
                through.remove(f)
                if not through:
                    del ridges[key]
        assign(handed, [add(*new) for new in horizon])
    return [f[:3] for f in facets.values()]


def _exact_measure(total, ui) -> int:
    m, r = divmod(total, abs(ui))
    if r:
        raise InvariantViolationError("inexact facet measure")
    return m


def _hull_shape(ints, d):
    """Extreme indices and facet measures of a cloud of distinct points, in
    one pass.

    The measures map each distinct primitive outer normal u to
    m(u) = (d-1)! vol_{d-1}(F(u)) / |u|, an integer on the grid; the
    support sum of the cloud against them is d! vol. A full-dimensional
    cloud is hulled once by `_hull_full_dim`, and one loop over its
    facets reads both: a listed point is extreme when the normals of its
    facets span R^d (a point on a facet fixes the offset, so the normal
    names the plane), and a facet simplex with normal u adds |det| / |u_i|
    of its d - 1 edge vectors without coordinate i, u's first nonzero
    one, since dropping u_i scales (d-1)-volumes normal to u by
    |u_i| / |u|. A flat cloud has no extreme point off its affine span;
    dropping all but the pivot coordinates of its affine basis echelon
    is injective there, so the projected cloud is recursed. At rank
    d - 1 its plane's normals ±u each take the projected volume, a
    support sum, over |u_j|, j the dropped coordinate; a lower rank has
    no facets. On a line both directions have measure 1.
    """
    if d == 1:
        lo = min(range(len(ints)), key=ints.__getitem__)
        hi = max(range(len(ints)), key=ints.__getitem__)
        return sorted({lo, hi}), {(1,): 1, (-1,): 1}
    if len(ints) == 1:
        return [0], {}
    basis_idx, ech = _affine_basis(ints, d)
    rank = ech.rank
    if rank < d:
        pivots = [piv for piv, _ in ech.rows]
        projected = [tuple(p[i] for i in pivots) for p in ints]
        idx, measures = _hull_shape(projected, rank)
        if rank < d - 1:
            return idx, {}
        u = _facet_plane(ints, basis_idx)[0]
        vol = _support_sum([projected[i] for i in idx], measures)
        m = _exact_measure(vol, u[next(j for j in range(d) if j not in pivots)])
        return idx, {u: m, tuple(-x for x in u): m}
    planes = {}  # normal -> sum of |minor| over its facet simplices
    through = {}  # listed point -> the distinct normals of its facets
    for a, _, vidx in _hull_full_dim(ints, d, basis_idx):
        i = next(j for j, x in enumerate(a) if x)
        base = ints[vidx[0]]
        edges = [[x - y for j, (x, y) in enumerate(zip(ints[v], base)) if j != i] for v in vidx[1:]]
        planes[a] = planes.get(a, 0) + abs(int_det(edges))
        for v in vidx:
            through.setdefault(v, set()).add(a)
    # every geometric facet through a vertex has a simplex there, while a
    # point inside a face meets only facets containing that face, whose
    # normals have rank below d; coplanar splits share one normal
    idx = []
    for v in sorted(through):
        ech = _IntEchelon()
        if any(ech.add(a) and ech.rank == d for a in through[v]):
            idx.append(v)
    measures = {a: _exact_measure(m, next(x for x in a if x)) for a, m in planes.items()}
    return idx, measures


def _support_sum(pts, measures):
    """sum_u h(u) m(u), h the support function of the points."""
    return sum(max(_dot(u, p) for p in pts) * m for u, m in measures.items())


class Polytope:
    """Convex polytope in Q^d: its extreme points, the integer grid `_pts`
    over `_den` > 0 with gcd(_den, every coordinate) = 1.

    Construction canonicalizes: whatever point set comes in, `_pts` holds
    the sorted extreme points of its hull, so equal bodies have equal
    grids. Flat bodies are allowed. The facet measures come out of the
    same hull pass and are kept with the grid as integers on it, den^(d-1)
    times their true values; every volume is a support sum against them
    or against a rest's area measure. The hash is kept too, since bodies key the rest-area cache.
    """

    __slots__ = ("dim", "_pts", "_den", "_measures", "_hash")

    def __init__(self, points):
        pts = [tuple(as_rat(c) for c in p) for p in points]
        if not pts:
            raise ValueError("a polytope needs at least one point")
        d = len(pts[0])
        if d == 0:
            raise ValueError("points must have at least one coordinate")
        if any(len(p) != d for p in pts):
            raise DimensionMismatchError("points of mixed dimension")
        if d > MAX_DIMENSION:
            raise SizeLimitError(
                f"dimension {d} exceeds the supported maximum {MAX_DIMENSION}"
            )
        self._set_grid(*_clear_points(set(pts)), d)

    @classmethod
    def _of_grid(cls, ints, den: int, d: int, like=None, scale=1) -> "Polytope":
        """The hull of ints / den, for distinct integer points and den > 0; no
        hull runs when they are `like`'s grid times the integer scale > 0 or shifted."""
        p = object.__new__(cls)
        p._set_grid(ints, den, d, like, scale)
        return p

    def _set_grid(self, ints, den, d, like=None, scale=1):
        uniq = sorted(ints)
        if like is None:
            idx, measures = _hull_shape(uniq, d)
            pts = tuple(uniq[i] for i in idx)
        else:  # both maps keep the sorted order; the grid grew by scale
            pts, measures = tuple(uniq), like._measures
            if scale != 1:
                measures = {u: m * scale ** (d - 1) for u, m in measures.items()}
        # reduce after the hull: a dropped point may hold a factor of den
        g = gcd(den, *(c for p in pts for c in p))
        if g > 1:
            pts = tuple(tuple(c // g for c in p) for p in pts)
            measures = {u: _exact_measure(m, g ** (d - 1)) for u, m in measures.items()}
        self.dim, self._pts, self._den, self._measures = d, pts, den // g, measures
        self._hash = hash((d, self._den, pts))

    @property
    def vertices(self) -> tuple:
        """The extreme points as Fraction tuples, for serialization and display."""
        den = self._den
        return tuple(tuple(Fraction(c, den) for c in p) for p in self._pts)

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return (self.dim, self._den, self._pts) == (other.dim, other._den, other._pts)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self._pts)})"


class BodyTuple:
    """An ordered tuple of d bodies in dimension d."""

    __slots__ = ("dim", "bodies")

    def __init__(self, bodies: Sequence[Polytope]):
        bodies = tuple(bodies)
        if not bodies:
            raise ValueError("body tuple must not be empty")
        _expect(bodies, Polytope, "a Polytope")
        d = bodies[0].dim
        if len(bodies) != d or any(b.dim != d for b in bodies):
            raise DimensionMismatchError(
                f"need exactly {d} bodies of dimension {d}, "
                f"got {len(bodies)} of dimensions {[b.dim for b in bodies]}"
            )
        self.dim = d
        self.bodies = bodies


def convex_hull(points) -> Polytope:
    """Extreme points of the hull of a finite rational point set."""
    return Polytope(points)


def _against(body: Polytope, area, den) -> Rat:
    """V(body, rest) = sum_u h_body(u) S(u) / d!, S the rest's area measure
    on the grid over den, so S(u) / den^(d-1) in true coordinates."""
    d = body.dim
    return Fraction(_support_sum(body._pts, area), factorial(d) * body._den * den ** (d - 1))


def volume(p: Polytope) -> Rat:
    """Exact d-dimensional volume V(K, ..., K); 0 for lower-dimensional bodies."""
    _expect([p], Polytope, "a Polytope")
    return _against(p, p._measures, p._den)


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Hull of all pairwise vertex sums, added on the grids over lcm(den)."""
    _expect([p, q], Polytope, "a Polytope")
    if p.dim != q.dim:
        raise DimensionMismatchError(f"body dimensions differ: {p.dim} vs {q.dim}")
    if len(p._pts) == 1:
        p, q = q, p
    den = lcm(p._den, q._den)
    s, t = den // p._den, den // q._den
    sums = {tuple(s * a + t * b for a, b in zip(u, v)) for u in p._pts for v in q._pts}
    return Polytope._of_grid(sums, den, p.dim, p if len(q._pts) == 1 else None, s)


def translate(p: Polytope, vec) -> Polytope:
    """The body shifted by a fixed vector: its Minkowski sum with that point."""
    _expect([p], Polytope, "a Polytope")
    t = tuple(vec)
    if len(t) != p.dim:
        raise DimensionMismatchError(f"translation vector of length {len(t)} in dimension {p.dim}")
    return minkowski_sum(p, Polytope([t]))


def dilate(p: Polytope, lam) -> Polytope:
    """Scale by a nonnegative factor; factor 0 collapses to the origin."""
    _expect([p], Polytope, "a Polytope")
    lam = as_rat(lam)
    if lam < 0:
        raise ValueError("dilation requires a nonnegative factor")
    a, b = lam.numerator, lam.denominator
    grid = {tuple(a * c for c in v) for v in p._pts}
    return Polytope._of_grid(grid, p._den * b, p.dim, p if lam else None, a)


def _homothety_ratio(k: Polytope, l: Polytope) -> Rat | None:
    """`ineqcheck.homothety_ratio` on the grids: the one integer ratio
    test (`_kernels._ratio`) on the offsets from the first point, scaled
    by the denominators. Both grids are sorted, so the first nonzero
    offset of each is positive, and so is any factor that passes."""
    u, v = k._pts, l._pts
    if len(v) == 1:
        return Fraction(0)
    if len(u) != len(v):
        return None
    lam = _ratio(*([x - x0 for p in w for x, x0 in zip(p, w[0])] for w in (u, v)))
    return None if lam is None else lam * Fraction(k._den, l._den)


def _check_budget(size, budget) -> None:
    if size > budget:
        raise SizeLimitError(
            f"intermediate Minkowski sum of {size} points exceeds the budget of {budget}"
        )


def _area(rest, d, budget) -> dict:
    """The mixed area measure S(P_2, ..., P_d) of integer point sets, d >= 2:
    d! V(P_1, ..., P_d) = sum_u h_{P_1}(u) S(u) for every P_1.

    A rest that is one set repeated, as always at d = 2, has that set's
    facet measures. Any other rest folds its distinct sets into their
    Minkowski sum, keeping the extreme points after each step; counts do
    not move a normal. At each outer normal u of the sum, u's first
    nonzero coordinate u_i is dropped from the rest's faces F(P_j, u),
    and S(u) is the (d-1)! mixed volume of those faces over |u_i|; a
    point face gives no entry. The budget bounds every pairwise product of
    the fold, here and in the faces, before it is built.
    """
    acc, *tail = dict.fromkeys(map(tuple, rest))
    if not tail:
        return _hull_shape(acc, d)[1]
    for pts in tail:
        _check_budget(len(acc) * len(pts), budget)
        acc = sorted({tuple(map(add, v, w)) for v in acc for w in pts})
        idx, normals = _hull_shape(acc, d)
        acc = [acc[i] for i in idx]
    area = {}
    for u in normals:
        i = next(j for j, x in enumerate(u) if x)
        faces = []
        for pts in rest:
            dots = [_dot(u, p) for p in pts]
            top = max(dots)
            face = [p[:i] + p[i + 1:] for p, x in zip(pts, dots) if x == top]
            if len(face) == 1:
                break  # a point face: no term
            faces.append(face)
        else:
            area[u] = _exact_measure(_support_sum(faces[0], _area(faces[1:], d - 1, budget)), u[i])
    return area


# The area measures of the rests that `mixed_volume` reads, keyed by the
# (body, count) terms by rising count, ties in canonical body order, plus
# the vertex budget, so a tighter budget never reuses a measure built
# under a looser one. A value needs one only when its rest holds two
# distinct bodies: of the pair check V(K, L, rest), V(K, K, rest),
# V(L, L, rest) that is V(K, L, M) at d = 3 and all three at d = 4, back
# to back; the others lead with the lone body and read the measures of
# the repeated one. The m-fold at m >= 3 asks for V(items) again right
# after them, its one hit; its other values repeat one body. 4 entries
# keep an instance's three with one to spare. The lru_cache is
# thread-safe and caches no exception.
@lru_cache(maxsize=4)
def _rest_area(terms, budget) -> tuple:
    """`_area` of the terms' bodies, each repeated by its count, on the grid
    over the lcm of their dens, and that lcm."""
    d, den = terms[0][0].dim, lcm(*(b._den for b, _ in terms))
    grids = [[tuple(c * (den // b._den) for c in p) for p in b._pts] for b, _ in terms]
    rest = [pts for pts, (_, n) in zip(grids, terms) for _ in range(n)]
    return _area(rest, d, budget), den


def mixed_volume(t: BodyTuple, budget: int = DEFAULT_VERTEX_BUDGET) -> Rat:
    """V(K_1, ..., K_d) as one support sum against a mixed area measure.

    d! V = sum_u h_{K_1}(u) S(u), S the mixed area measure of the rest
    K_2, ..., K_d (Schneider, Convex Bodies, 5.1). V is symmetric, so
    the bodies are taken by rising multiplicity, ties in `(_den, _pts)`
    order, and the first leads. A rest of one body K repeated has K's
    facet measures for S, and at d = 1 the lead's own measures give its
    length; any other S comes from `_rest_area`. The budget bounds every
    pairwise vertex product behind S before it is materialized.
    """
    _expect([t], BodyTuple, "a body tuple")
    counts = Counter(t.bodies)
    order = sorted(counts, key=lambda b: (counts[b], b._den, b._pts))
    lead = order[0]
    counts[lead] -= 1
    rest = [b for b in order if counts[b]]  # still by rising multiplicity
    if len(rest) > 1:
        area, den = _rest_area(tuple((b, counts[b]) for b in rest), budget)
    else:  # a rest of one body, or none at d = 1
        body = (rest or order)[0]
        area, den = body._measures, body._den
    result = _against(lead, area, den)
    if result < 0:
        raise InvariantViolationError("mixed volume of polytopes must be nonnegative")
    return result


def minkowski_expansion_check(bodies: Sequence[Polytope], lambdas) -> bool:
    """Verify volume(sum lambda_i K_i) against its multinomial expansion.

    The right-hand side runs over all compositions r_1 + ... + r_m = d,
    weighting V(K_1 repeated r_1, ..., K_m repeated r_m) by the
    multinomial coefficient and the monomial in the lambdas.
    """
    bodies, lams = _expansion_args(bodies, lambdas, Polytope, ("body", "bodies"))
    if any(l < 0 for l in lams):
        raise ValueError("expansion requires nonnegative coefficients")

    combo = dilate(bodies[0], lams[0])
    for b, lam in zip(bodies[1:], lams[1:]):
        combo = minkowski_sum(combo, dilate(b, lam))
    return volume(combo) == _multinomial_expansion(
        bodies, lams, bodies[0].dim, lambda rep: mixed_volume(BodyTuple(rep))
    )
