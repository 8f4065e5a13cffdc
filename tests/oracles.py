"""Hand-rolled reference implementations used only as test oracles.

Everything here is deliberately independent of the package internals:
complex rationals are plain (re, im) Fraction pairs, determinants are
literal cofactor expansions, mixed discriminants enumerate permutations
one by one, and polytope membership is a brute-force Caratheodory search.
The exceptions are former library routes kept as references: the
lexicographic insertion hull, which keeps the Bareiss kernel `int_det`
for its plane minors and fan volume, the per-lambda Brunn-Minkowski
samplers, which combine matrices and bodies with the public API, the
general Berkowitz characteristic polynomial, the two Shephard checks on
GaussRat entries, the GaussRat-entry matrix generator, the Fraction-cloud
polytope generator, the Fraction-vertex homothety test, translation and
dilation, the polarized mixed volume, which runs its own signed sum over
the constructor's hulls, the dict-keyed permutation-sum DP, and the
Khovanskii-Teissier sequence one intersection number at a time. Two
closed forms tie the engines together: the mixed volume of zonotopes and
the mixed discriminant of rank-one sums, the same sum over one generator
per slot with |det| against |det|^2. Slow is fine; these exist to catch
bugs in the fast code.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, lcm, prod

from afkit._kernels import int_det
from afkit.convexvol import (
    BodyTuple,
    Polytope,
    convex_hull,
    dilate,
    minkowski_sum,
    mixed_volume,
)
from afkit.errors import DimensionMismatchError
from afkit.harness import SplitMix64
from afkit.matrixcore import GenMat, HermMat, principal_minor_sums
from afkit.rationals import GaussRat, as_rat
from afkit.shephard import shephard_matrix
from afkit.toruskahler import intersection_number

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_scale(a, s):
    return (a[0] * s, a[1] * s)


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion; rows of (re, im) pairs.

    The minor below row i is fixed by its column set, so each one is
    expanded once per call, and zero entries are skipped.
    """
    n = len(rows)
    memo = {}

    def minor(i, cols):
        if i == n - 1:
            return rows[i][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        total = ZERO
        for pos, j in enumerate(cols):
            if rows[i][j] == ZERO:
                continue
            term = c_mul(rows[i][j], minor(i + 1, cols[:pos] + cols[pos + 1:]))
            total = c_add(total, term) if pos % 2 == 0 else c_sub(total, term)
        memo[cols] = total
        return total

    return minor(0, tuple(range(n)))


def mixed_disc_perm(mats):
    """Literal permutation-sum mixed discriminant.

    mats: list of n row-major grids of (re, im) pairs. Column j of each
    assembled matrix is taken from mats[sigma[j]].
    """
    n = len(mats)
    # equal matrices assemble equal working matrices: label each matrix
    # by its first equal and expand each assembly once
    label = [next(i for i in range(n) if mats[i] == m) for m in mats]
    dets = {}
    acc = ZERO
    for sigma in permutations(range(n)):
        key = tuple(label[s] for s in sigma)
        if key not in dets:
            rows = [[mats[key[j]][i][j] for j in range(n)] for i in range(n)]
            dets[key] = det_cofactor(rows)
        acc = c_add(acc, dets[key])
    f = factorial(n)
    return (acc[0] / f, acc[1] / f)


def mixed_disc_polarized(mats):
    """Inclusion-exclusion mixed discriminant over subset sums."""
    n = len(mats)
    acc = ZERO
    for mask in range(1, 1 << n):
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            if mask >> i & 1:
                for r in range(n):
                    for c in range(n):
                        rows[r][c] = c_add(rows[r][c], mats[i][r][c])
        term = det_cofactor(rows)
        if (n + bin(mask).count("1")) % 2 == 1:
            term = c_sub(ZERO, term)
        acc = c_add(acc, term)
    f = factorial(n)
    return (acc[0] / f, acc[1] / f)


def mixed_adjugate_minors(mats):
    """Mixed adjugate by minor expansion, for n - 1 grids of dimension n.

    Expanding the lone nonzero column of E_jk in D(E_jk, A_1, ...,
    A_(n-1)) leaves the row/column deleted minors:

        W[j][k] = (-1)^(j+k) / n * D(A_1 del (j,k), ..., A_(n-1) del (j,k))

    with D from `mixed_disc_perm`.
    """
    n = len(mats[0])
    out = []
    for j in range(n):
        row = []
        for k in range(n):
            minors = [[r[:k] + r[k + 1:] for i, r in enumerate(m) if i != j] for m in mats]
            val = c_scale(mixed_disc_perm(minors), Fraction(1, n))
            row.append(c_sub(ZERO, val) if (j + k) & 1 else val)
        out.append(row)
    return out


def _perm_step(dp, grids, col):
    """One column of the (rows used, matrices used) subset DP, pushed:
    every state extends by column col of one unused grid at one unused
    row r, signed by (-1)^(count of used rows above r)."""
    nxt = {}
    rows = range(len(grids[0]))
    for (rmask, mmask), (ar, ai) in dp.items():
        free = [(r, (rmask >> (r + 1)).bit_count() & 1) for r in rows if not rmask >> r & 1]
        for mi, grid in enumerate(grids):
            if mmask >> mi & 1:
                continue
            nm = mmask | 1 << mi
            for r, odd in free:
                er, ei = grid[r][col]
                if not (er or ei):
                    continue
                if odd:
                    er, ei = -er, -ei
                key = (rmask | 1 << r, nm)
                tr, ti = ar * er - ai * ei, ar * ei + ai * er
                cur = nxt.get(key)
                nxt[key] = (tr, ti) if cur is None else (cur[0] + tr, cur[1] + ti)
    return nxt


def perm_sum_dict(mats):
    """n! D of n integer grids by the former library DP: one dict keyed
    by (rows used, matrices used) per column, which skips zero entries
    and stops at an empty layer."""
    n = len(mats)
    dp = {(0, 0): (1, 0)}
    for col in range(n):
        dp = _perm_step(dp, mats, col)
        if not dp:
            return (0, 0)
    full = (1 << n) - 1
    return dp.get((full, full), (0, 0))


def adjugate_sum_dict(mats):
    """n! W for n - 1 integer grids of dimension n, by the minor
    expansion of `mixed_adjugate_minors` over `perm_sum_dict`:
    n! W[j][k] = (-1)^(j+k) (n-1)! D(A_1 del (j,k), ...)."""
    n = len(mats[0])
    out = []
    for j in range(n):
        row = []
        for k in range(n):
            re, im = perm_sum_dict([[r[:k] + r[k + 1:] for i, r in enumerate(m) if i != j] for m in mats])
            row.append((-re, -im) if (j + k) & 1 else (re, im))
        out.append(tuple(row))
    return tuple(out)


def kt_sequence_reference(g1, g2):
    """s_m = g1^m g2^(n-m), m = 0..n, each its own intersection number
    (the DP up to n = 6, polarization above, det A for A^[n])."""
    n = g1.mat.n
    return [intersection_number([g1] * m + [g2] * (n - m)) for m in range(n + 1)]


def principal_minor_sums_subsets(rows):
    """Sums c_k of the k x k principal minors, k = 1..n, of a grid of
    (re, im) pairs, as (re, im) pairs: the former library loop, one
    cofactor determinant for each of the 2^n - 1 index subsets."""
    n = len(rows)
    out = []
    for k in range(1, n + 1):
        total = ZERO
        for subset in combinations(range(n), k):
            total = c_add(total, det_cofactor([[rows[i][j] for j in subset] for i in subset]))
        out.append(total)
    return out


def charpoly_berkowitz(rows):
    """Coefficients of det(tI - A), t^n first, of any square grid of
    (re, im) pairs: Berkowitz's general division-free recursion, the
    former library kernel. With A_r the leading r x r block, R and S the
    rest of row and column r and a its diagonal entry, the polynomial of
    A_(r+1) is the lower triangular Toeplitz matrix with first column
    (1, -a, -R S, -R A_r S, ..., -R A_r^(r-1) S) applied to that of A_r."""
    poly = [(1, 0)]
    for r in range(len(rows)):
        col = [c_scale(rows[r][r], -1)]
        vec = [rows[i][r] for i in range(r)]
        for j in range(r):
            if j:
                vec = [sum_products(rows[i][:r], vec) for i in range(r)]
            col.append(c_scale(sum_products(rows[r][:r], vec), -1))
        nxt = poly + [(0, 0)]
        for i in range(1, r + 2):
            for j in range(i):
                nxt[i] = c_add(nxt[i], c_mul(col[i - 1 - j], poly[j]))
        poly = nxt
    return poly


def sum_products(xs, ys):
    """sum_k xs[k] ys[k] over (re, im) pairs."""
    total = (0, 0)
    for x, y in zip(xs, ys):
        total = c_add(total, c_mul(x, y))
    return total


def is_pd_sylvester(rows):
    """Sylvester's criterion on a Hermitian grid of (re, im) pairs: every
    leading principal minor is positive. The former library loop, one
    cofactor determinant per leading block."""
    n = len(rows)
    return all(det_cofactor([row[:k] for row in rows[:k]])[0] > 0 for k in range(1, n + 1))


def gen_pd_hermitian_gaussrat(seed, n, entry_bound=5):
    """G G* + I with G drawn as in `harness.gen_pd_hermitian`: the former
    library route, one GaussRat per entry of G, cleared by the GenMat
    constructor."""
    rng = SplitMix64(seed)

    def entry():
        re = rng.int_between(-entry_bound, entry_bound)
        im = rng.int_between(-entry_bound, entry_bound)
        return GaussRat(Fraction(re), Fraction(im))

    g = GenMat([[entry() for _ in range(n)] for _ in range(n)])
    return HermMat.from_gram(g) + HermMat.identity(n)


def check_psd_shephard_gaussrat(g):
    """`shephard.check_psd_shephard` by the former library route: the
    Shephard matrix's entries made GaussRat and cleared by the HermMat
    constructor."""
    sums = principal_minor_sums(HermMat(shephard_matrix(g).entries))
    return next(((k, c) for k, c in enumerate(sums, start=1) if c < 0), None)


def det_identity_check_gaussrat(g):
    """`shephard.det_identity_check` by the former library route: each
    determinant from a GenMat built of GaussRat entries."""
    lhs = GenMat(shephard_matrix(g).entries).det().re
    rhs = (-1) ** g.r * g.d[0][0] ** (g.r - 1) * GenMat(g.d).det().re
    return lhs == rhs


def gen_polytope_fraction(seed, d, points=6, coord_bound=5):
    """The hull of the cloud drawn as in `harness.gen_polytope`: the
    former library route, one Fraction per coordinate, hulled by
    `convex_hull`."""
    rng = SplitMix64(seed)
    b = coord_bound
    cloud = [
        tuple(Fraction(rng.int_between(-b, b), rng.int_between(1, 3)) for _ in range(d))
        for _ in range(points)
    ]
    return convex_hull(cloud)


def homothety_ratio_fraction(k, l):
    """The former `ineqcheck.homothety_ratio`: the sorted Fraction vertex
    lists, whose offsets from the first vertex must be proportional."""
    u, v = k.vertices, l.vertices
    if len(v) == 1:
        return Fraction(0)
    if len(u) != len(v):
        return None
    du = [tuple(a - b for a, b in zip(u[i], u[0])) for i in range(1, len(u))]
    dv = [tuple(a - b for a, b in zip(v[i], v[0])) for i in range(1, len(v))]
    lam = None
    for c, val in enumerate(du[0]):
        if val:
            lam = dv[0][c] / val
            break
    if lam is None or lam <= 0:
        return None
    for row_u, row_v in zip(du, dv):
        if any(y != lam * x for x, y in zip(row_u, row_v)):
            return None
    return lam


def translate_fraction(p, vec):
    """The former `convexvol.translate`: every Fraction vertex shifted,
    then hulled again by the constructor."""
    t = tuple(as_rat(c) for c in vec)
    if len(t) != p.dim:
        raise DimensionMismatchError(f"translation vector of length {len(t)} in dimension {p.dim}")
    return Polytope([tuple(a + b for a, b in zip(v, t)) for v in p.vertices])


def dilate_fraction(p, lam):
    """The former `convexvol.dilate`: every Fraction vertex scaled, then
    hulled again by the constructor; factor 0 gives the origin."""
    lam = as_rat(lam)
    if lam < 0:
        raise ValueError("dilation requires a nonnegative factor")
    if lam == 0:
        return Polytope([(0,) * p.dim])
    return Polytope([tuple(lam * c for c in v) for v in p.vertices])


def bm_samples_matrices(a0, a1, rest, m, grid):
    """D(((1-lam)A0 + lam A1)^[m], rest) at each lam of the grid: the
    former per-lambda sampler, one combined matrix per lam, each tuple
    evaluated by the literal permutation sum."""

    def pairs(mat):
        return [[(e.re, e.im) for e in row] for row in mat.entries]

    fixed = [pairs(x) for x in rest]
    return [
        mixed_disc_perm([pairs(a0.scale(1 - lam) + a1.scale(lam))] * m + fixed)[0]
        for lam in grid
    ]


def bm_samples_bodies(k0, k1, rest, m, grid):
    """V(((1-lam)K0 + lam K1)^[m], rest) at each lam of the grid: the
    former per-lambda sampler, one Minkowski combination per lam."""
    return [
        mixed_volume(BodyTuple([minkowski_sum(dilate(k0, 1 - lam), dilate(k1, lam))] * m + list(rest)))
        for lam in grid
    ]


def mixed_volume_polarized(bodies):
    """The former `convexvol.mixed_volume`, by multiset polarization:
    d! V is the sum over 0 <= k <= r, k != 0, of prod_i C(r_i, k_i)
    (-1)^(d - |k|) vol(sum_i k_i K_i), each sum the constructor's hull
    of the pointwise Fraction vertex sums, no memo, and each volume
    `volume_insertion`'s, not the facet measures'."""
    counts = Counter(bodies)
    d = len(bodies)
    total = 0
    for k in product(*(range(r + 1) for r in counts.values())):
        if not any(k):
            continue
        acc = None
        for body, c in zip(counts, k):
            for _ in range(c):
                acc = body if acc is None else Polytope(
                    {tuple(a + b for a, b in zip(u, v)) for u in acc.vertices for v in body.vertices}
                )
        total += prod(map(comb, counts.values(), k)) * (-1) ** (d - sum(k)) * volume_insertion(acc)
    return total / factorial(d)


def volume_insertion(body):
    """The volume of a body by `hull_insertion` of its cleared vertices."""
    verts, d = body.vertices, body.dim
    den = lcm(*(c.denominator for v in verts for c in v))
    ints = [tuple(int(c * den) for c in v) for v in verts]
    return Fraction(hull_insertion(ints, d)[1], factorial(d) * den ** d)


def truncated_simplex_mixed_volume(pairs):
    """V(T(A_1, B_1), ..., T(A_d, B_d)) = (prod A_i - prod B_i) / d! for
    the truncated simplices T(A, B) = {x >= 0, B <= sum x <= A}, the
    classes A H - B E on the blow-up of P^d at a point."""
    return Fraction(prod(a for a, _ in pairs) - prod(b for _, b in pairs), factorial(len(pairs)))


def zonotope_mixed_volume(generator_sets):
    """V(Z_1, ..., Z_d) for the zonotopes Z_i = sum_j [0, u_ij]: the sum
    of |det(u_(1 j_1), ..., u_(d j_d))| / d! over one generator per body
    (Schneider, Convex Bodies, 2nd ed., 5.3)."""
    total = Fraction(0)
    for pick in product(*generator_sets):
        total += abs(real_det([list(map(as_rat, u)) for u in pick]))
    return total / factorial(len(generator_sets))


def rank_one_mixed_disc(vector_sets):
    """D(A_1, ..., A_n) for the rank-one sums A_i = sum_j v_ij v_ij*,
    vectors of (re, im) pairs: n! D = sum |det(v_(1 j_1), ..., v_(n j_n))|^2
    over one vector per matrix (Bapat, Linear Algebra Appl. 1989)."""
    total = Fraction(0)
    for pick in product(*vector_sets):
        det = det_cofactor(pick)
        total += c_mul(det, (det[0], -det[1]))[0]
    return total / factorial(len(vector_sets))


def permanent(rows):
    """Permanent of a square grid of Fractions (box mixed-volume oracle)."""
    n = len(rows)
    total = Fraction(0)
    for sigma in permutations(range(n)):
        p = Fraction(1)
        for i in range(n):
            p *= rows[i][sigma[i]]
        total += p
    return total


def real_det(rows):
    """Determinant of a square grid of Fractions."""
    return det_cofactor([[(x, Fraction(0)) for x in row] for row in rows])[0]


def negative_direction(rows):
    """A rational vector x with x^T M x < 0 for a symmetric grid M of
    Fractions, or None when M is positive semi-definite, by exact
    symmetric elimination (LDL^T) with diagonal pivoting.

    A negative diagonal entry gives a basis vector. A zero diagonal
    entry M_ii beside a nonzero M_ij gives x = e_j + t e_i with
    x^T M x = M_jj + 2t M_ij = -1. Otherwise a positive pivot M_pp is
    eliminated: a witness y of the Schur complement, extended by
    x_p = -(M_p . y) / M_pp, has x^T M x = y^T (Schur) y.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    k = len(m)
    for i in range(k):
        if m[i][i] < 0:
            return [Fraction(int(j == i)) for j in range(k)]
    for i in range(k):
        if m[i][i] == 0:
            for j in range(k):
                if m[i][j] != 0:
                    x = [Fraction(0)] * k
                    x[j] = Fraction(1)
                    x[i] = -(m[j][j] + 1) / (2 * m[i][j])
                    return x
    pivots = [i for i in range(k) if m[i][i] > 0]
    if not pivots:
        return None
    p = pivots[0]
    others = [i for i in range(k) if i != p]
    schur = [[m[a][b] - m[a][p] * m[p][b] / m[p][p] for b in others] for a in others]
    y = negative_direction(schur)
    if y is None:
        return None
    x = [Fraction(0)] * k
    for a, v in zip(others, y):
        x[a] = v
    x[p] = -sum(m[p][a] * x[a] for a in others) / m[p][p]
    return x


def quadratic_form(rows, x):
    """x^T M x over Fractions."""
    return sum(x[i] * rows[i][j] * x[j] for i in range(len(x)) for j in range(len(x)))


def shoelace_area(pts):
    """Twice the polygon area is the shoelace sum; pts in ccw or cw order."""
    n = len(pts)
    s = Fraction(0)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2


def monotone_chain(pts):
    """Extreme points of a 2d point set, lexicographically sorted.

    Strict cross-product turns, so collinear interior points are dropped.
    """
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return sorted(set(lower[:-1] + upper[:-1]))


def hull_cycle_2d(pts):
    """Counterclockwise vertex cycle of a 2d hull, for the shoelace oracle."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _solve_exact(aug, rows, cols):
    """Gaussian elimination over Fractions on an augmented matrix.

    Returns the unique solution vector or None when the system is
    inconsistent or underdetermined.
    """
    m = [row[:] for row in aug]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if len(pivots) < cols:
        return None
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    sol = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        sol[c] = m[i][cols]
    # rows above rank may still encode inconsistency when cols < rows
    for i in range(rows):
        lhs = sum(aug[i][c] * sol[c] for c in range(cols))
        if lhs != aug[i][cols]:
            return None
    return sol


def in_convex_hull(p, pts, d):
    """Brute-force membership of p in conv(pts) via Caratheodory subsets."""
    for size in range(1, d + 2):
        for subset in combinations(pts, size):
            aug = []
            for coord in range(d):
                aug.append([q[coord] for q in subset] + [p[coord]])
            aug.append([Fraction(1)] * size + [Fraction(1)])
            sol = _solve_exact(aug, d + 1, size)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def extreme_points_bruteforce(pts, d):
    """Extreme points of a small rational point set, sorted."""
    uniq = sorted(set(pts))
    out = []
    for p in uniq:
        others = [q for q in uniq if q != p]
        if not others or not in_convex_hull(p, others, d):
            out.append(p)
    return out


def simplex_volume(verts, d):
    """Volume of the simplex spanned by d+1 points."""
    rows = [[verts[i + 1][c] - verts[0][c] for c in range(d)] for i in range(d)]
    return abs(real_det(rows)) / factorial(d)


def echelon_pivots(rows):
    """Pivot columns of the reduced row echelon form of rational rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def facet_plane_minors(ints, vidx):
    """Primitive (normal, offset) of the hyperplane through d integer points.

    The normal is the cofactor vector of the edge matrix, each component
    a general Bareiss determinant of one (d-1) x (d-1) minor; the plane
    is divided by the gcd of the normal and the offset.
    """
    d = len(ints[0])
    base = ints[vidx[0]]
    edges = [tuple(ints[v][j] - base[j] for j in range(d)) for v in vidx[1:]]
    normal = []
    for j in range(d):
        minor = [[e[c] for c in range(d) if c != j] for e in edges]
        a = int_det(minor)
        normal.append(-a if j & 1 else a)
    if not any(normal):
        raise ValueError("degenerate facet")
    b = sum(x * y for x, y in zip(normal, base))
    g = gcd(*normal, b)
    return tuple(x // g for x in normal), b // g


def hull_insertion(ints, d):
    """Extreme indices and d! times the volume of distinct integer points.

    The former `convexvol._hull`, kept as the reference: the points go
    into the simplex of a greedy affine basis one by one in index order,
    each tested against every facet; the facets it sees are replaced by
    one new facet per horizon ridge, with planes from
    `facet_plane_minors`. A flat cloud is projected on the pivot
    coordinates of its difference vectors and recursed, with volume 0.
    """
    if len(ints) == 1:
        return [0], 0
    if d == 1:
        lo = min(range(len(ints)), key=ints.__getitem__)
        hi = max(range(len(ints)), key=ints.__getitem__)
        return sorted({lo, hi}), ints[hi][0] - ints[lo][0]
    diffs = [[a - b for a, b in zip(p, ints[0])] for p in ints]
    pivots = echelon_pivots(diffs)
    if len(pivots) < d:
        flat = [tuple(p[c] for c in pivots) for p in ints]
        return hull_insertion(flat, len(pivots))[0], 0
    basis = [0]
    for i in range(1, len(ints)):
        if len(echelon_pivots([diffs[j] for j in basis[1:] + [i]])) == len(basis):
            basis.append(i)
            if len(basis) == d + 1:
                break
    cref = [sum(ints[i][j] for i in basis) for j in range(d)]

    def plane(vidx):
        # orient so that the basis barycenter lies strictly beneath
        a, b = facet_plane_minors(ints, vidx)
        s = sum(x * y for x, y in zip(a, cref))
        if s == (d + 1) * b:
            raise ValueError("interior reference point on a facet plane")
        return (a, b) if s < (d + 1) * b else (tuple(-x for x in a), -b)

    def above(f, p):
        return sum(x * y for x, y in zip(f[0], p)) > f[1]

    facets = []
    for drop in range(d + 1):
        vidx = tuple(basis[i] for i in range(d + 1) if i != drop)
        facets.append(plane(vidx) + (vidx,))
    for pi, p in enumerate(ints):
        if pi in basis:
            continue
        visible = [f for f in facets if above(f, p)]
        if not visible:
            continue
        ridge_count = {}
        for _, _, vidx in visible:
            for drop in range(d):
                ridge = tuple(sorted(vidx[i] for i in range(d) if i != drop))
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        facets = [f for f in facets if not above(f, p)]
        facets += [plane(r + (pi,)) + (r + (pi,),) for r, c in ridge_count.items() if c == 1]

    listed = sorted({v for _, _, vidx in facets for v in vidx})
    extreme = []
    for v in listed:
        active = [a for a, b, _ in facets if sum(x * y for x, y in zip(a, ints[v])) == b]
        if len(echelon_pivots(active)) == d:
            extreme.append(v)
    apex = ints[0]
    total = 0
    for _, _, vidx in facets:
        if 0 not in vidx:
            total += abs(int_det([[ints[v][j] - apex[j] for j in range(d)] for v in vidx]))
    return extreme, total
