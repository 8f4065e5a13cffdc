"""Property tests: each pair check is the m = 2 case of its m-fold check.

On generic and on proportional (or homothetic) pairs, the pairwise AF
gap for discriminants and for volumes must equal the m-fold gap at
m = 2 over the same slots, and the pair equality theorem must agree
with the m-fold theorem at m = 2 on the report and on adjugate
proportionality. Draws are derandomized and bounded, so the suite stays
deterministic and keeps no example database.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.convexvol import BodyTuple, dilate, translate
from afkit.harness import gen_pd_hermitian, gen_polytope
from afkit.ineqcheck import (
    af_gap_discriminant,
    af_gap_volume,
    af_m_fold_discriminant,
    af_m_fold_volume,
)
from afkit.mixdisc import MatTuple
from afkit.toruskahler import TorusClass, equality_theorem_m, equality_theorem_pair

SETTINGS = settings(derandomize=True, deadline=None, max_examples=20, database=None)

seeds = st.integers(0, (1 << 64) - 1)
kinds = st.sampled_from(("generic", "proportional"))
scales = st.fractions(min_value=Fraction(1, 3), max_value=6, max_denominator=3)


@st.composite
def matrix_pairs(draw):
    """(kind, a, b, rest): n - 2 fixed PD matrices beside a PD pair,
    n in 2..4, from distinct seeds, with b a positive multiple of a when
    kind is proportional."""
    n = draw(st.integers(2, 4))
    kind = draw(kinds)
    drawn = draw(st.lists(seeds, min_size=n, max_size=n, unique=True))
    a, b, *rest = [gen_pd_hermitian(seed, n) for seed in drawn]
    if kind == "proportional":
        b = a.scale(draw(scales))
    return kind, a, b, rest


@st.composite
def body_pairs(draw):
    """(kind, k, l, rest) in dimension 2 or 3, with l a dilated and
    translated copy of k when kind is proportional."""
    d = draw(st.sampled_from((2, 3)))
    kind = draw(kinds)
    drawn = draw(st.lists(seeds, min_size=d, max_size=d, unique=True))
    k, l, *rest = [gen_polytope(seed, d, d + 3, 3) for seed in drawn]
    if kind == "proportional":
        shift = [draw(st.integers(-3, 3)) for _ in range(d)]
        l = translate(dilate(k, draw(scales)), shift)
    return kind, k, l, rest


@SETTINGS
@given(matrix_pairs())
def test_discriminant_pair_is_the_fold_at_m_two(case):
    kind, a, b, rest = case
    pair = af_gap_discriminant(a, b, rest)
    # equal reports: lhs, rhs, gap, equality, certificate and characterized
    assert pair == af_m_fold_discriminant(MatTuple([a, b, *rest]), 2)
    assert pair.equality == (kind == "proportional")


@settings(SETTINGS, max_examples=10)
@given(body_pairs())
def test_volume_pair_is_the_fold_at_m_two(case):
    kind, k, l, rest = case
    pair = af_gap_volume(k, l, rest)
    assert pair == af_m_fold_volume(BodyTuple([k, l, *rest]), 2)
    if kind == "proportional":
        assert pair.equality and pair.certificate is not None


@SETTINGS
@given(matrix_pairs())
def test_pair_equality_theorem_is_the_m_fold_theorem_at_m_two(case):
    kind, a, b, rest = case
    g1, g2, *fixed = [TorusClass(x) for x in [a, b, *rest]]
    pair = equality_theorem_pair(g1, g2, fixed)
    fold = equality_theorem_m([g1, g2, *fixed], 2)
    assert pair.report == fold.report
    assert pair.adjugates_proportional == fold.adjugates_proportional
    assert fold.adjugate_count == 2
    assert pair.matrices_proportional == (kind == "proportional")
