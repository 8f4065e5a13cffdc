"""Integer kernels: exact determinants over Z and Z[i], the determinant
and characteristic polynomial of a Hermitian matrix over Z[i], the
permutation-sum DP behind mixed discriminants and mixed adjugates, and
the multinomial expansion sums and the ratio test `_ratio` shared by
both engines. Multiset polarization lives with its one caller, `mixdisc`.

The characteristic polynomial is Berkowitz's recursion in its Hermitian
form, which pairs powers A^k S of each column S and so takes half the
general recursion's matrix-vector products; the general one is a test
oracle. The Hermitian determinant is Bareiss elimination on the upper
triangle, which stays Hermitian with real pivots; a zero pivot hands
the grid to the general kernel.

Matrices at this level are tuples of tuples, with Gaussian integers as
(re, im) int pairs. Callers clear denominators before descending here and
divide the scale factor back out afterwards; the determinant kernels are
pure integer arithmetic, so intermediate growth is the only cost.

The permutation-sum DP runs matrix by matrix over (rows used, columns
used) states. A layer maps each row mask to two flat int lists, the real
and imaginary parts, indexed by column mask. Each state of the next
layer is pulled from its predecessors and stored once; the mask tables
behind it are built once per n, on first use. Both kernels read the
mixed adjugate W of a call's first grid over its trailing grids, the
signed states one layer past the rest layer, and a value pairs its
second grid with W, n^2 products. A small memo keyed by the trailing
multiset, and by the first grid, holds the rest layer and each W read
over it, so the values and adjugates that share fixed matrices build
the rest once and each distinct first grid one more layer, dropped once
W is read. It is the only cache of the matrix engine: finished values
are not kept.

A layer whose grids are all Hermitian is mirrored: F_t(C, R) is the
conjugate of F_t(R, C), so each such layer pulls only the states with
the column mask at or after the row mask and writes the conjugate into
the swapped state. Whether to mirror is read off the grids themselves,
one check per added grid; a non-Hermitian grid turns it off for every
layer after it, a cached rest layer included.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm, prod
from operator import mul

from .errors import DimensionMismatchError, _expect
from .rationals import as_rat

_GZERO = (0, 0)


def _expansion_args(items, lambdas, cls, nouns):
    """Both expansion checks' arguments: nonempty cls items, named by `nouns`,
    one per coefficient, made rational; mixed dimensions fail in the sum."""
    items = list(items)
    one, many = nouns
    if not items:
        raise ValueError(f"need at least one {one}")
    _expect(items, cls, f"a {one}")
    if len(lambdas) != len(items):
        raise DimensionMismatchError(f"{len(items)} {many} but {len(lambdas)} coefficients")
    return items, [as_rat(l) for l in lambdas]


def _multinomial_expansion(items, lams, d, mixed):
    """A degree-d form at sum_i lam_i X_i, expanded in mixed values.

    Sums the multinomial d! / prod_i r_i! times prod_i lam_i^r_i times
    mixed([X_i repeated r_i]) over all compositions r of d, skipping
    vanishing monomials.
    """
    total = 0
    for comp in product(range(d + 1), repeat=len(items)):
        if sum(comp) != d:
            continue
        monomial = prod(lam ** r for lam, r in zip(lams, comp))
        if monomial:
            coeff = factorial(d) // prod(map(factorial, comp))
            rep = [x for x, r in zip(items, comp) for _ in range(r)]
            total = total + mixed(rep) * (coeff * monomial)
    return total


def _ratio(xs, ys):
    """The Fraction lam with ys = lam xs for integer sequences of equal
    length, or None: two zero sequences give 0, a zero xs with a nonzero
    ys None, through the stand-in pivot (1, 0). Matrices pass their
    (re, im) components, bodies their offsets from the first point."""
    x0, y0 = next(((x, y) for x, y in zip(xs, ys) if x), (1, 0))
    if any(x0 * y != y0 * x for x, y in zip(xs, ys)):
        return None
    return Fraction(y0, x0)


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


def hermitian_det(rows):
    """Determinant of a Hermitian Gaussian-integer matrix via Bareiss
    elimination on its upper triangle; an (re, im) int pair.

    Entry (i, j) after step k is the minor on rows 0..k, i and columns
    0..k, j, so each step leaves the matrix Hermitian with real pivots,
    its leading principal minors: only entries j >= i are updated,
    m[i][k] read as the conjugate of m[k][i], and each division by the
    previous pivot is exact in Z, part by part. A zero pivot hands the
    grid to `gauss_det`, which swaps rows. The caller vouches that the
    grid is Hermitian: the kernel reads no entry below the diagonal.
    """
    n = len(rows)
    re = [[z[0] for z in row] for row in rows]
    im = [[z[1] for z in row] for row in rows]
    prev = 1
    for k in range(n - 1):
        pivot = re[k][k]
        if not pivot:
            return gauss_det(rows)
        kre, kim = re[k], im[k]
        for i in range(k + 1, n):
            ar, ai = kre[i], kim[i]
            ire, iim = re[i], im[i]
            for j in range(i, n):
                # pivot m[i][j] - conj(m[k][i]) m[k][j], over prev
                br, bi = kre[j], kim[j]
                qr, rr = divmod(pivot * ire[j] - ar * br - ai * bi, prev)
                qi, ri = divmod(pivot * iim[j] - ar * bi + ai * br, prev)
                if rr or ri:
                    raise ArithmeticError("non-exact division in a fraction-free elimination step")
                ire[j], iim[j] = qr, qi
        prev = pivot
    return (re[-1][-1], im[-1][-1]) if n else (1, 0)


def hermitian_charpoly(rows):
    """Coefficients of det(tI - A), t^n first, of a Hermitian
    Gaussian-integer matrix by Berkowitz's division-free recursion; ints.

    With A_r the leading r x r block, S the rest of column r and a its
    diagonal entry, the polynomial of A_(r+1) is the lower triangular
    Toeplitz matrix with first column (1, -a, -S* S, -S* A_r S, ...,
    -S* A_r^(r-1) S) applied to the polynomial of A_r. In the general
    recursion the row beside a stands where S* does; on Hermitian input
    each S* A_r^j S is real and equals Re(y_(j//2)* y_(j - j//2)) for
    y_0 = S and y_(k+1) = A_r y_k. So step r takes r // 2 products
    A_r y_k instead of r - 1, and its dots and Toeplitz update run on
    real ints. The caller vouches that A is Hermitian: the kernel reads
    no row beside a diagonal entry outside A_r, and no imaginary part
    of the diagonal.
    """
    poly = [1]
    for r in range(len(rows)):
        block = rows[:r]
        y = [row[r] for row in block]
        ys = [y]
        for _ in range(r // 2):
            y = [_gdot(row, y) for row in block]
            ys.append(y)
        col = [-rows[r][r][0]]
        for j in range(r):
            t = 0
            for (xr, xi), (yr, yi) in zip(ys[j // 2], ys[j - j // 2]):
                t += xr * yr + xi * yi
            col.append(-t)
        poly = [1] + [
            (poly[i] if i <= r else 0) + sum(map(mul, col[i - 1::-1], poly))
            for i in range(1, r + 2)
        ]
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


# Entries kept by `_rest_layer`: rest layers, and the adjugate grids W
# over them. The discriminant, shephard and bm (m = 2) modes and the
# torus pair theorem read one rest per instance, back to back, and one
# W over it per first grid: 2 for the pair's 3 values (and, in torus,
# its 2 adjugates), 4 for the 10 Gram entries of r = 3. A torus fold at
# m = 3 interleaves three rests, g_j + tail, and 6 W over them, and
# rereads each rest. Over three instances at seed 0, torus n = 5,
# m = 3 builds 9 rests, all distinct, and 21 W, 18 distinct. At n = 6
# (recursive sys.getsizeof) a rest layer takes 27.7 KiB and a W 4.5 KiB;
# the 9.2 KiB layer a W is read off is not kept.
_REST_LAYER_MEMO_SIZE = 8


@lru_cache(maxsize=8)
def _mask_tables(n):
    """Tables of the subset DP over n bits, built once per n on first use.

    by_count[t] lists the masks with t bits set; members[mask] lists, for
    each bit b of mask, (mask without b, 2b + parity of the bits of mask
    above b), the second being the index of that bit in a signed row.
    """
    by_count = [[] for _ in range(n + 1)]
    members = []
    for mask in range(1 << n):
        by_count[mask.bit_count()].append(mask)
        members.append(tuple(
            (mask ^ 1 << b, 2 * b + ((mask >> (b + 1)).bit_count() & 1))
            for b in range(n) if mask >> b & 1
        ))
    return tuple(map(tuple, by_count)), tuple(members)


def _signed_rows(grid):
    """(re, im) lists with part[2r + p][2c + q] = (-1)^(p + q) grid[r][c]."""
    re, im = [], []
    for row in grid:
        pre = [x for z in row for x in (z[0], -z[0])]
        pim = [x for z in row for x in (z[1], -z[1])]
        re += (pre, [-x for x in pre])
        im += (pim, [-x for x in pim])
    return re, im


def _is_hermitian(grid):
    """Whether the grid equals its conjugate transpose."""
    return all(
        grid[r][c] == (grid[c][r][0], -grid[c][r][1])
        for r in range(len(grid)) for c in range(r, len(grid))
    )


def _add_matrix(layer, grid, n):
    """The DP layer after one more n x n grid A.

    A layer is a pair (states, hermitian). states maps each row mask R
    of its count t to (re, im) lists indexed by column mask C: F_t(R, C),
    the signed sum over the ways to give each of its t matrices its own
    row in R and column in C; hermitian says that all t are Hermitian.
    Each state of the next layer is pulled from its predecessors,

        F_(t+1)(R, C) = sum_(r in R, c in C) (-1)^(#(R above r) + #(C above c))
                        A[r][c] F_t(R - r, C - c),

    the signs accumulating sign(rho) sign(gamma); both parities are
    read off `_signed_rows`. If A and the grids behind the layer are
    all Hermitian, F_(t+1)(C, R) = conj F_(t+1)(R, C): then only the
    states with C at or after R in `by_count` order are pulled, and each
    is written to (C, R) conjugated in the same step. A new layer never
    shares a list with the old.
    """
    states, hermitian = layer
    mirror = hermitian and _is_hermitian(grid)
    by_count, members = _mask_tables(n)
    masks = by_count[next(iter(states)).bit_count() + 1]
    sre, sim = _signed_rows(grid)
    size = 1 << n
    nxt = {rmask: ([0] * size, [0] * size) for rmask in masks}
    for i, rmask in enumerate(masks):
        srcs = [(*states[pr], sre[k], sim[k]) for pr, k in members[rmask]]
        re, im = nxt[rmask]
        for cmask in masks[i:] if mirror else masks:
            cols = members[cmask]
            tr = ti = 0
            for pre, pim, gre, gim in srcs:
                for pc, k in cols:
                    fr, fi = pre[pc], pim[pc]
                    er, ei = gre[k], gim[k]
                    tr += fr * er - fi * ei
                    ti += fr * ei + fi * er
            re[cmask] = tr
            im[cmask] = ti
            if mirror:
                mre, mim = nxt[cmask]
                mre[rmask] = tr
                mim[rmask] = -ti
    return nxt, mirror


@lru_cache(maxsize=_REST_LAYER_MEMO_SIZE)
def _rest_layer(n, grids, lead):
    """The layer after the grids, from the empty one, or with a lead grid
    the grid G with G[r][c] = n! D(E_rc, lead, *grids), E_rc the
    single-entry basis matrix. F_t is symmetric in its matrices, so the
    caller passes the grids sorted; entries are shared, never mutated.

    Giving E_rc the last row r and column c leaves the other n - 1
    matrices every other row and column, so G[r][c] is (-1)^(r + c)
    F_(n-1)(rows - r, columns - c), read off the cached rest layer plus
    one `_add_matrix` step."""
    if lead is not None:
        states = _add_matrix(_rest_layer(n, grids, None), lead, n)[0]
        masks = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        return tuple(
            tuple((-re[k], -im[k]) if (r + c) & 1 else (re[k], im[k]) for c, k in enumerate(masks))
            for r, (re, im) in enumerate(states[m] for m in masks)
        )
    layer = ({0: ([1] + [0] * ((1 << n) - 1), [0] * (1 << n))}, True)
    for g in grids:
        layer = _add_matrix(layer, g, n)
    return layer


def mixed_perm_sum(mats):
    """n! times the mixed discriminant of the n integer n x n inputs:

        n! D(A_1, ..., A_n) = sum_(rho, gamma in S_n) sgn(rho) sgn(gamma)
                              prod_i A_i[rho(i)][gamma(i)].

    D is linear in A_2, so n! D = sum_rc A_2[r][c] G[r][c] with G the
    memo's adjugate grid of A_1 over mats[2:] (`_rest_layer`): an n^2
    pairing, which the calls that share their trailing grids and their
    first read from one entry.
    """
    n = len(mats)
    if n < 2:
        # no second grid to pair: the empty sum, or the one entry
        re, im = mats[0][0][0] if n else (1, 0)
        return (re, im)
    adj = _rest_layer(n, tuple(sorted(mats[2:])), mats[0])
    terms = [_gdot(y, w) for y, w in zip(mats[1], adj)]
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def mixed_adjugate_sum(mats):
    """The grid G with G[r][c] = n! D(E_rc, A_1, ..., A_(n-1)) for the
    n - 1 integer n x n inputs A_i, E_rc the single-entry basis matrix.

    G is the memo's entry for mats[1:] and A_1, the one that
    `mixed_perm_sum` pairs for the same trailing grids and first grid.
    """
    return _rest_layer(len(mats[0]), tuple(sorted(mats[1:])), mats[0])
