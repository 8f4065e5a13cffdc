"""Integer kernels: exact determinants over Z and Z[i], the
permutation-sum DP behind mixed discriminants and mixed adjugates, and
the polarization and expansion sums shared by both engines.

Matrices at this level are tuples of tuples, with Gaussian integers as
(re, im) int pairs. Callers clear denominators before descending here and
divide the scale factor back out afterwards; the determinant kernels are
pure integer arithmetic, so intermediate growth is the only cost.

The permutation-sum DP runs column by column over (rows used, matrices
used) states. A layer maps each matrix mask to two flat int lists, the
real and imaginary parts, indexed by row mask. Each state of the next
layer is pulled from its predecessors: per member row, the products
with each member matrix's entry go into local sums, signed once by the
row's parity, and the state is stored once. The mask tables behind it
are built once per n, on first use.
"""

from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm, prod

_GZERO = (0, 0)


def compositions(total, parts):
    """All tuples of nonnegative ints of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def _polarize(mults, value):
    """d! times the mixed value of the multiset {X_i repeated r_i}, d = sum r_i.

    It is the sum over 0 <= k <= r, k != 0, in lexicographic order, of
    prod_i C(r_i, k_i) (-1)^(d - |k|) value(k), where value(k) is the
    top-degree value (a volume or a determinant) of sum_i k_i X_i.
    """
    d = sum(mults)
    total = 0
    for k in product(*(range(r + 1) for r in mults)):
        if any(k):
            term = prod(map(comb, mults, k)) * value(k)
            total += -term if (d - sum(k)) & 1 else term
    return total


def _multinomial_expansion(items, lams, d, mixed):
    """A degree-d form at sum_i lam_i X_i, expanded in mixed values.

    Sums the multinomial d! / prod_i r_i! times prod_i lam_i^r_i times
    mixed([X_i repeated r_i]) over all compositions r of d, skipping
    vanishing monomials.
    """
    total = 0
    for comp in compositions(d, len(items)):
        monomial = prod(lam ** r for lam, r in zip(lams, comp))
        if monomial:
            coeff = factorial(d) // prod(map(factorial, comp))
            rep = [x for x, r in zip(items, comp) for _ in range(r)]
            total = total + mixed(rep) * (coeff * monomial)
    return total


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdivexact(a, b):
    # exact division in Z[i]; Bareiss guarantees divisibility, so any
    # remainder here is an arithmetic bug
    den = b[0] * b[0] + b[1] * b[1]
    qr, rr = divmod(a[0] * b[0] + a[1] * b[1], den)
    qi, ri = divmod(a[1] * b[0] - a[0] * b[1], den)
    if rr or ri:
        raise ArithmeticError("non-exact division in a fraction-free elimination step")
    return (qr, qi)


def clear_gauss_matrix(entries):
    """Scale a GaussRat grid up to Gaussian integers; return (rows, scale)."""
    dens = [1]
    for row in entries:
        for z in row:
            dens.append(z.re.denominator)
            dens.append(z.im.denominator)
    scale = lcm(*dens)
    rows = tuple(
        tuple(
            (z.re.numerator * (scale // z.re.denominator),
             z.im.numerator * (scale // z.im.denominator))
            for z in row
        )
        for row in entries
    )
    return rows, scale


def gauss_det(rows):
    """Determinant of a Gaussian-integer matrix via Bareiss elimination.

    Fraction-free: every division is exact in Z[i]. Returns an (re, im)
    int pair.
    """
    n = len(rows)
    if n == 0:
        return (1, 0)
    m = [list(r) for r in rows]
    sign = 1
    prev = (1, 0)
    for k in range(n - 1):
        if m[k][k] == _GZERO:
            for i in range(k + 1, n):
                if m[i][k] != _GZERO:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return _GZERO
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                p = _gmul(pivot, m[i][j])
                q = _gmul(mik, m[k][j])
                m[i][j] = _gdivexact((p[0] - q[0], p[1] - q[1]), prev)
            m[i][k] = _GZERO
        prev = pivot
    d = m[n - 1][n - 1]
    return (sign * d[0], sign * d[1]) if sign < 0 else d


def gauss_charpoly(rows):
    """Coefficients of det(tI - A), t^n first, of a Gaussian-integer
    matrix by Berkowitz's division-free recursion; (re, im) int pairs.

    With A_r the leading r x r block, R and S the rest of row and column
    r and a its diagonal entry, the polynomial of A_(r+1) is the lower
    triangular Toeplitz matrix with first column (1, -a, -R S, -R A_r S,
    ..., -R A_r^(r-1) S) applied to the polynomial of A_r.
    """
    poly = [(1, 0)]
    for r in range(len(rows)):
        ar, ai = rows[r][r]
        col = [(-ar, -ai)]
        vec = [rows[i][r] for i in range(r)]
        for j in range(r):
            if j:
                vec = [_gdot(rows[i], vec) for i in range(r)]
            dr, di = _gdot(rows[r], vec)
            col.append((-dr, -di))
        nxt = poly + [_GZERO]
        for i in range(1, r + 2):
            tr, ti = nxt[i]
            for j in range(i):
                (cr, ci), (pr, pi) = col[i - 1 - j], poly[j]
                tr += cr * pr - ci * pi
                ti += cr * pi + ci * pr
            nxt[i] = (tr, ti)
        poly = nxt
    return poly


def _gdot(row, vec):
    """sum_k row[k] vec[k] over the first len(vec) entries of row."""
    tr = ti = 0
    for (ar, ai), (br, bi) in zip(row, vec):
        tr += ar * br - ai * bi
        ti += ar * bi + ai * br
    return (tr, ti)


def int_det(rows):
    """Determinant of a plain integer matrix via Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - mik * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("non-exact division in a fraction-free elimination step")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


@lru_cache(maxsize=8)
def _mask_tables(n):
    """Tables of the subset DP over n bits, built once per n on first use.

    by_count[c] lists the masks with c bits set; members[mask] lists, for
    each bit r of mask, (mask without r, r, parity of the bits of mask
    above r); flip[mask] reverses the n bits; cross[mask] is the parity
    of the pairs (s in mask, p not in mask) with p > s.
    """
    by_count = [[] for _ in range(n + 1)]
    members = []
    flip = [0] * (1 << n)
    cross = []
    full = (1 << n) - 1
    for mask in range(1 << n):
        by_count[mask.bit_count()].append(mask)
        own = tuple(
            (mask ^ 1 << r, r, (mask >> (r + 1)).bit_count() & 1) for r in range(n) if mask >> r & 1
        )
        members.append(own)
        cross.append(sum(((full ^ mask) >> (r + 1)).bit_count() for _, r, _ in own) & 1)
        if mask:
            low = mask & -mask
            flip[mask] = flip[mask ^ low] | 1 << (n - low.bit_length())
    return tuple(map(tuple, by_count)), tuple(members), tuple(flip), tuple(cross)


def _dp_layers(grids, n):
    """Yield the subset-DP layers over n x n grids, from the empty one.

    Layer c maps each mask of c matrices to (re, im) lists indexed by the
    mask of c rows: the signed sum over the ways to fill columns 0..c-1,
    column j from one of those matrices each, at those rows. Row r of a
    state of layer c + 1 pulls the layer-c values at both masks less r
    and a matrix k, times entry (r, c) of k, signed by (-1)^(rows of the
    mask above r); the signs accumulate sign(tau).
    """
    size = 1 << n
    rows_by, rmembers, _, _ = _mask_tables(n)
    mats_by, mmembers, _, _ = _mask_tables(len(grids))
    one = [0] * size
    one[0] = 1
    layer = {0: (one, [0] * size)}
    yield layer
    for col in range(min(n, len(grids))):
        cre = [[g[r][col][0] for r in range(n)] for g in grids]
        cim = [[g[r][col][1] for r in range(n)] for g in grids]
        nxt = {}
        for nm in mats_by[col + 1]:
            srcs = [(*layer[pm], cre[mi], cim[mi]) for pm, mi, _ in mmembers[nm]]
            re = [0] * size
            im = [0] * size
            for rp in rows_by[col + 1]:
                tr = ti = 0
                for pr, r, odd in rmembers[rp]:
                    sr = si = 0
                    for pre, pim, gre, gim in srcs:
                        ar, ai = pre[pr], pim[pr]
                        er, ei = gre[r], gim[r]
                        sr += ar * er - ai * ei
                        si += ar * ei + ai * er
                    if odd:
                        sr, si = -sr, -si
                    tr += sr
                    ti += si
                re[rp] = tr
                im[rp] = ti
            nxt[nm] = (re, im)
        layer = nxt
        yield layer


def mixed_perm_sum(mats):
    """Sum, over all ways to draw column j of a working matrix from a
    distinct source matrix, of the determinant of the result.

    Equals n! times the mixed discriminant of the integer inputs. The
    double sum over (matrix assignment, row permutation) folds into the
    subset DP of `_dp_layers`, of which only the current layer is kept.
    """
    n = len(mats)
    for layer in _dp_layers(mats, n):
        pass
    re, im = layer[(1 << n) - 1]
    return (re[-1], im[-1])


def mixed_adjugate_sum(mats):
    """The grid G with G[r][c] = n! D(E_rc, A_1, ..., A_(n-1)) for the
    n - 1 integer n x n inputs A_i, E_rc the single-entry basis matrix.

    G[r][c] sums the permutation-sum terms that give column c to E_rc,
    so row r sits at column c. A forward sweep F_c(R, M) fills columns
    0..c-1 with rows R and matrices M; a backward sweep B_(c+1)(S, N)
    fills columns c+1..n-1 with rows S and matrices N. It is the forward
    sweep run on the grids turned by 180 degrees, whose sign rule counts
    the later rows below each placed row, and its lists are read through
    the bit reversal `flip` of the row masks. With S = rows - R - {r}
    and N the matrices not in M,

        G[r][c] = sum F_c(R, M) B_(c+1)(S, N) (-1)^(#{p in R: p > r} + cross(S)),

    where cross(S) = sum_(s in S) #{p not in S: p > s} counts the
    inversions between the rows before column c+1 and those after it.
    """
    n = len(mats[0])
    full = (1 << n) - 1
    fullm = (1 << len(mats)) - 1
    by_count, members, flip, cross = _mask_tables(n)
    turned = [tuple(tuple(row[::-1]) for row in reversed(g)) for g in mats]
    # back[k] holds B_(n-k), over the turned row masks
    back = list(_dp_layers(turned, n))
    cols = []
    for c, fwd in enumerate(_dp_layers(mats, n)):
        later = back[n - 1 - c]
        gre = [0] * n
        gim = [0] * n
        for mmask, (fre, fim) in fwd.items():
            bre, bim = later[fullm ^ mmask]
            for rmask in by_count[c]:
                fr, fi = fre[rmask], fim[rmask]
                for s, r, _ in members[full ^ rmask]:
                    t = flip[s]
                    br, bi = bre[t], bim[t]
                    if ((rmask >> (r + 1)).bit_count() + cross[s]) & 1:
                        br, bi = -br, -bi
                    gre[r] += fr * br - fi * bi
                    gim[r] += fr * bi + fi * br
        cols.append((gre, gim))
    return tuple(tuple((cols[c][0][r], cols[c][1][r]) for c in range(n)) for r in range(n))
