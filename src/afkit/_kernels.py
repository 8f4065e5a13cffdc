"""Integer kernels: exact determinants over Z and Z[i], the
permutation-sum DP behind mixed discriminants and mixed adjugates, and
the polarization and expansion sums shared by both engines.

Matrices at this level are tuples of tuples, with Gaussian integers as
(re, im) int pairs. Callers clear denominators before descending here and
divide the scale factor back out afterwards; the determinant kernels are
pure integer arithmetic, so intermediate growth is the only cost.
"""

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


def _perm_step(dp, grids, col):
    """One column of the (rows used, matrices used) subset DP.

    Extends every state by column col of one unused grid, drawn at one
    unused row r; placing r after the rows already used contributes
    (-1)^(count of used rows above r), which accumulates sign(tau).
    """
    nxt = {}
    rows = range(len(grids[0]))
    for (rmask, mmask), (ar, ai) in dp.items():
        # each unused row with the sign of placing it after rmask
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


def mixed_perm_sum(mats):
    """Sum, over all ways to draw column j of a working matrix from a
    distinct source matrix, of the determinant of the result.

    Equals n! times the mixed discriminant of the integer inputs. The
    double sum over (matrix assignment, row permutation) folds into one
    subset DP keyed by (rows used, matrices used), one `_perm_step` per
    column.
    """
    n = len(mats)
    dp = {(0, 0): (1, 0)}
    for col in range(n):
        dp = _perm_step(dp, mats, col)
        if not dp:
            return _GZERO
    full = (1 << n) - 1
    return dp.get((full, full), _GZERO)


def mixed_adjugate_sum(mats):
    """The grid G with G[r][c] = n! D(E_rc, A_1, ..., A_(n-1)) for the
    n - 1 integer n x n inputs A_i, E_rc the single-entry basis matrix.

    G[r][c] sums the permutation-sum terms that give column c to E_rc,
    so row r sits at column c. A forward sweep F_c(R, M) fills columns
    0..c-1 with rows R and matrices M; a backward sweep B_(c+1)(S, N)
    fills columns c+1..n-1 with rows S and matrices N. It is the forward
    sweep run on the grids turned by 180 degrees, whose sign rule counts
    the later rows below each placed row. With S = rows - R - {r} and N
    the matrices not in M,

        G[r][c] = sum F_c(R, M) B_(c+1)(S, N) (-1)^(#{p in R: p > r} + cross(S)),

    where cross(S) = sum_(s in S) #{p not in S: p > s} counts the
    inversions between the rows before column c+1 and those after it.
    """
    n = len(mats[0])
    full = (1 << n) - 1
    fullm = (1 << len(mats)) - 1
    flip = [0] * (1 << n)  # row mask of the turned grids -> unturned
    for mask in range(1, 1 << n):
        low = mask & -mask
        flip[mask] = flip[mask ^ low] | 1 << (n - low.bit_length())
    cross = [  # parity of cross(S)
        sum(((full & ~mask) >> (s + 1)).bit_count() for s in range(n) if mask >> s & 1) & 1
        for mask in range(1 << n)
    ]
    turned = [tuple(tuple(row[::-1]) for row in reversed(g)) for g in mats]
    # back[k] holds B_(n-k), keyed in the unturned row coordinates
    back = [{(0, 0): (1, 0)}]
    for k in range(n - 1):
        back.append(_perm_step(back[-1], turned, k))
    back = [{(flip[s], m): v for (s, m), v in layer.items()} for layer in back]
    out = [[_GZERO] * n for _ in range(n)]
    fwd = {(0, 0): (1, 0)}
    for c in range(n):
        later = back[n - 1 - c]
        for (rmask, mmask), (fr, fi) in fwd.items():
            rest = full & ~rmask
            nm = fullm & ~mmask
            for r in range(n):
                if not rest >> r & 1:
                    continue
                s = rest & ~(1 << r)
                b = later.get((s, nm))
                if b is None:
                    continue
                br, bi = b
                if ((rmask >> (r + 1)).bit_count() + cross[s]) & 1:
                    br, bi = -br, -bi
                cr, ci = out[r][c]
                out[r][c] = (cr + fr * br - fi * bi, ci + fr * bi + fi * br)
        if c < n - 1:
            fwd = _perm_step(fwd, mats, c)
    return tuple(tuple(row) for row in out)
