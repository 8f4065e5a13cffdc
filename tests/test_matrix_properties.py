"""Property tests for the integer grid behind GenMat and HermMat.

Every matrix operation works on a Gaussian-integer grid over one
denominator in lowest terms. These properties check each operation
against the entrywise GaussRat reference built from `entries`, the
determinant against the cofactor oracle, and the canonical form: equal
matrices have equal grids, equal hashes and a denominator coprime to
the grid. The principal-minor sums from the division-free
characteristic polynomial must equal the subset-minor oracle, its
Hermitian kernel must match the general Berkowitz recursion on
positive definite, singular and indefinite families, and
`is_pd`, which reads their signs, must agree with Sylvester's
leading-minor criterion; the `TorusClass` flags and `_definiteness` on
mixed families, read off the same signs, must agree with the subset
oracle and Sylvester's criterion, which share no code with them. The
Hermitian Bareiss determinant must equal the general one on the same
families and on zero pivots, which it hands to the general kernel.
Draws are derandomized and bounded, so the suite stays deterministic and
keeps no example database.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afkit import _kernels
from afkit._kernels import gauss_det, hermitian_charpoly, hermitian_det
from afkit.harness import gen_pd_hermitian
from afkit.matrixcore import GenMat, HermMat, _definiteness, is_pd, principal_minor_sums, proportional
from afkit.rationals import GaussRat
from afkit.toruskahler import TorusClass

from oracles import charpoly_berkowitz, det_cofactor, is_pd_sylvester, principal_minor_sums_subsets
from support import as_pairs, count_calls, gauss, gen_mats, gen_psd_singular, herm_mats, rats

_GZ = (0, 0)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=50, database=None)

nonzero_rats = rats.filter(bool)
sizes = st.integers(1, 7)


@st.composite
def same_size(draw, kind):
    n = draw(st.integers(1, 4))
    return draw(kind(n)), draw(kind(n))


def assert_canonical(m):
    assert m._den > 0
    assert gcd(m._den, *(c for row in m._rows for z in row for c in z)) == 1
    assert m == GenMat(m.entries)
    assert hash(m) == hash(GenMat(m.entries))


def entrywise(f, *mats):
    return [[f(*xs) for xs in zip(*rows)] for rows in zip(*(m.entries for m in mats))]


def assert_entries(m, want):
    assert [list(row) for row in m.entries] == want
    assert_canonical(m)


@SETTINGS
@given(same_size(gen_mats))
def test_sum_and_difference_are_entrywise(pair):
    a, b = pair
    assert_entries(a + b, entrywise(lambda x, y: x + y, a, b))
    assert_entries(a - b, entrywise(lambda x, y: x - y, a, b))
    assert_entries(-a, entrywise(lambda x: -x, a))


@SETTINGS
@given(gen_mats(), gauss)
def test_scale_is_entrywise(a, z):
    assert_entries(a.scale(z), entrywise(lambda x: x * z, a))


@SETTINGS
@given(same_size(gen_mats))
def test_product_and_conjugate_transpose_match_the_reference(pair):
    a, b = pair
    n = a.n
    ea, eb = a.entries, b.entries
    want = [
        [sum((ea[i][k] * eb[k][j] for k in range(n)), GaussRat(0)) for j in range(n)]
        for i in range(n)
    ]
    assert_entries(a @ b, want)
    assert_entries(a.conj_transpose(), [[ea[j][i].conjugate() for j in range(n)] for i in range(n)])


@SETTINGS
@given(gen_mats())
def test_trace_det_and_zero_test_match_the_reference(a):
    e = a.entries
    assert a.trace() == sum((e[i][i] for i in range(a.n)), GaussRat(0))
    got = a.det()
    assert (got.re, got.im) == det_cofactor(as_pairs(a))
    assert a.is_zero() == all(not x for row in e for x in row)
    assert a.scale(0).is_zero()


@SETTINGS
@given(same_size(herm_mats), nonzero_rats)
def test_hermitian_results_stay_hermitian(pair, q):
    a, b = pair
    for m in (a + b, a - b, -a, a.scale(q), HermMat.from_gram(a)):
        assert isinstance(m, HermMat)
        assert_canonical(m)
    want = entrywise(lambda x, y: x * q + y, a, b)
    assert_entries(a.scale(q) + b, want)


@SETTINGS
@given(gen_mats())
def test_gram_is_the_matrix_times_its_conjugate_transpose(g):
    a = HermMat.from_gram(g)
    assert isinstance(a, HermMat)
    assert_entries(a, [list(row) for row in (g @ g.conj_transpose()).entries])


@SETTINGS
@given(gen_mats(), nonzero_rats)
def test_the_grid_is_canonical(a, q):
    assert_canonical(a)
    assert a + a == a.scale(2)
    assert hash(a + a) == hash(a.scale(2))
    assert a.scale(q).scale(1 / q) == a
    assert hash(a.scale(q).scale(1 / q)) == hash(a)
    assert a - a == GenMat.zero(a.n)


@SETTINGS
@given(herm_mats(), rats)
def test_proportional_recovers_the_real_ratio(a, q):
    assume(not a.is_zero())
    assert proportional(a, a.scale(q)) == q
    if q:
        assert proportional(a.scale(q), a) == 1 / q


@SETTINGS
@given(gen_mats(), nonzero_rats, nonzero_rats)
def test_proportional_rejects_a_complex_ratio(a, re, im):
    assume(not a.is_zero())
    assert proportional(a, a.scale(GaussRat(re, im))) is None
    assert proportional(a, a.scale(GaussRat(0, im))) is None
    assert proportional(a, a.scale(GaussRat(re))) == Fraction(re)


@SETTINGS
@given(sizes.flatmap(gen_mats))
def test_charpoly_coefficients_are_signed_principal_minor_sums(a):
    # det(tI - A) = sum_k (-1)^k c_k t^(n-k) for any square A, with the
    # grid scaling each c_k by den^k; the general recursion is the oracle
    poly = charpoly_berkowitz(a._rows)
    assert len(poly) == a.n + 1 and poly[0] == (1, 0)
    for k, (re, im) in enumerate(principal_minor_sums_subsets(as_pairs(a)), start=1):
        scale = (-1) ** k * a._den ** k
        assert poly[k] == (re * scale, im * scale)


def hermitian_family(kind, n, seed):
    """A positive definite, singular PSD or indefinite HermMat; the
    indefinite one is P - P[0][0] I for a positive definite P, whose
    leading 2 x 2 minor -|P[0][1]|^2 is negative once P[0][1] != 0."""
    if kind == "pd":
        return gen_pd_hermitian(seed, n)
    if kind == "singular":
        return gen_psd_singular(seed, n)
    p = gen_pd_hermitian(seed, n)
    return p - HermMat.identity(n).scale(p.entries[0][0])


@pytest.mark.parametrize(
    "kind, n",
    # a singular PSD draw needs n >= 2
    [(kind, n) for kind in ("pd", "singular", "indefinite") for n in range(1 + (kind == "singular"), 9)],
)
def test_hermitian_charpoly_matches_the_general_recursion(kind, n):
    for seed in range(4):
        a = hermitian_family(kind, n, seed)
        if kind == "indefinite" and n > 1:
            assert a._rows[0][0] == (0, 0) and a._rows[0][1] != (0, 0)
        want = charpoly_berkowitz(a._rows)
        assert [im for _, im in want] == [0] * (n + 1)
        assert hermitian_charpoly(a._rows) == [re for re, _ in want]


def repeated_row_gram(seed, n):
    """G G* for a G whose row 1 repeats row 0: PSD, singular, and its
    leading 2 x 2 minor is 0, so Bareiss meets a zero pivot at step 1."""
    g = gen_pd_hermitian(seed, n).entries
    return HermMat.from_gram(GenMat([g[0], g[0], *g[2:]]))


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ("pd", "singular", "indefinite") for n in range(1 + (kind == "singular"), 8)]
    + [("repeated", n) for n in range(2, 8)],
)
def test_hermitian_det_matches_gauss_det(monkeypatch, kind, n):
    # the indefinite family has a zero corner, so its first pivot hands
    # over at n >= 2, and the repeated-row family its second at n >= 3;
    # a singular draw's only zero pivot is its last, the determinant
    handovers = count_calls(monkeypatch, _kernels, "gauss_det")
    for seed in range(4):
        a = repeated_row_gram(seed, n) if kind == "repeated" else hermitian_family(kind, n, seed)
        assert hermitian_det(a._rows) == gauss_det(a._rows)
    handover = (kind == "indefinite" and n >= 2) or (kind == "repeated" and n >= 3)
    assert len(handovers) == (4 if handover else 0)


def test_hermitian_det_small_and_zero_diagonal_grids(monkeypatch):
    assert hermitian_det(()) == gauss_det(()) == (1, 0)
    assert hermitian_det((((-7, 0),),)) == (-7, 0)
    handovers = count_calls(monkeypatch, _kernels, "gauss_det")
    # [[0, z], [conj z, 0]] has det -|z|^2 and [[0, z, 0], [conj z, 0, w],
    # [0, conj w, 0]] det 0, both through the handover
    z, w = (3, -2), (1, 4)
    zc, wc = (3, 2), (1, -4)
    assert hermitian_det(((_GZ, z), (zc, _GZ))) == (-13, 0)
    grid = ((_GZ, z, _GZ), (zc, _GZ, w), (_GZ, wc, _GZ))
    assert hermitian_det(grid) == gauss_det(grid) == _GZ
    assert len(handovers) == 2


@SETTINGS
@given(sizes.flatmap(herm_mats))
def test_principal_minor_sums_match_the_subset_oracle(a):
    want = principal_minor_sums_subsets(as_pairs(a))
    assert all(im == 0 for _, im in want)
    assert principal_minor_sums(a) == [re for re, _ in want]


@st.composite
def positivity_cases(draw):
    """(kind, matrix) with kind "pd", "singular" (PSD, det 0) or
    "indefinite" (a negative corner beside a positive diagonal; at
    n = 1, negative definite)."""
    n = draw(sizes)
    seed = draw(st.integers(0, (1 << 64) - 1))
    kind = draw(st.sampled_from(("pd", "singular", "indefinite")))
    p = gen_pd_hermitian(seed, n)
    if kind == "singular":
        return kind, gen_psd_singular(seed, n) if n > 1 else HermMat([[0]])
    if kind == "indefinite":
        shift = p.entries[0][0] + draw(st.integers(1, 5))
        corner = [[shift if i == j == 0 else 0 for j in range(n)] for i in range(n)]
        return kind, p - HermMat(corner)
    return kind, p


@SETTINGS
@given(positivity_cases())
def test_is_pd_matches_the_leading_minor_oracle(case):
    kind, a = case
    assert is_pd(a) == is_pd_sylvester(as_pairs(a)) == (kind == "pd")


def oracle_signs(a):
    """(PSD, det > 0, PD) of a HermMat by the 2^n-minor oracle and
    Sylvester's criterion, neither of which reads the library's sums."""
    sums = [re for re, _ in principal_minor_sums_subsets(as_pairs(a))]
    return all(x >= 0 for x in sums), sums[-1] > 0, is_pd_sylvester(as_pairs(a))


@SETTINGS
@given(positivity_cases())
def test_torus_class_flags_match_the_three_pass_oracle(case):
    kind, a = case
    c = TorusClass(a)
    assert (c.nef, c.big, c.kahler) == oracle_signs(a)
    assert c.kahler == (kind == "pd")


def family_member(kind, n, seed):
    return HermMat([[0]]) if kind == "singular" and n == 1 else hermitian_family(kind, n, seed)


# every family of one to three members drawn from the three kinds
MIXED_FAMILIES = [kinds for r in (1, 2, 3) for kinds in combinations(("pd", "singular", "indefinite"), r)]


@pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind in ("pd", "singular", "indefinite", "mixed") for n in range(1, 8)]
)
def test_torus_class_reads_the_signs_of_the_principal_minor_sums(kind, n):
    # the flags come from the integer coefficients c_k den^k; the oracles,
    # on grids over 1 and over 7, must give the same flags. The "mixed"
    # cases run `_definiteness` over families that mix the three kinds
    for seed in range(4):
        if kind == "mixed":
            for kinds in MIXED_FAMILIES:
                family = [family_member(k, n, seed + i) for i, k in enumerate(kinds)]
                signs = [oracle_signs(a) for a in family]
                want = (all(s[0] for s in signs), all(s[2] for s in signs))
                assert _definiteness(family) == want
                assert want[1] == (kinds == ("pd",))
        else:
            base = family_member(kind, n, seed)
            for a in (base, base.scale(Fraction(3, 7))):
                c = TorusClass(a)
                assert (c.nef, c.big, c.kahler) == oracle_signs(a)
                assert type(c.det) is Fraction and c.det == a.det().re
                assert c.kahler == (kind == "pd")
