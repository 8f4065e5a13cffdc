"""One fault per row at every public front door, and the exception class
it must raise.

The argument checks live in the cores the three engines share (the
fold, the Brunn-Minkowski sampler, the Gram builder, the expansion sum),
so this table pins what each entry point reports however those checks
are arranged: a wrong argument type is a TypeError, m outside its range
a ValueError, a wrong rest length or mixed dimensions a
DimensionMismatchError, and a failed theorem hypothesis a
HypothesisError (NotBigError for the equality theorems). An input past
a documented size limit is a SizeLimitError.
"""

import warnings

import pytest

from afkit import (
    BodyTuple,
    DimensionMismatchError,
    HypothesisError,
    MatTuple,
    NotBigError,
    SizeLimitError,
    TorusClass,
    af_gap_discriminant,
    af_gap_torus,
    af_gap_volume,
    af_m_fold_discriminant,
    af_m_fold_volume,
    bm_concavity_discriminant,
    bm_concavity_volume,
    check_psd_shephard,
    det_expansion_check,
    det_identity_check,
    dilate,
    equality_corollary_full,
    equality_theorem_m,
    equality_theorem_pair,
    gram_from_discriminants,
    gram_from_torus,
    homothety_ratio,
    intersection_number,
    kt_sequence,
    minkowski_expansion_check,
    minkowski_sum,
    mixed_adjugate,
    mixed_discriminant,
    mixed_discriminant_polarized,
    mixed_volume,
    proportional,
    r2_inequality,
    shephard_matrix,
    translate,
    volume,
)

from support import box, diag, gen, identity

A2, B2 = diag(1, 2), diag(3, 1)
A3, B3, C3 = diag(1, 2, 3), diag(2, 1, 1), diag(1, 1, 2)
INDEF2 = diag(1, -1)
FLAT2 = diag(1, 0)  # nef, not big
NONHERM2 = gen([[1, 2], [0, 1]])
SQ, SQ2 = box([1, 1]), box([2, 1])
CUBE, CUBE2 = box([1, 1, 1]), box([1, 2, 1])
K2 = TorusClass(A2)
K3, L3, M3 = TorusClass(A3), TorusClass(B3), TorusClass(C3)
NOTKAHLER2, NOTBIG2 = TorusClass(INDEF2), TorusClass(FLAT2)

# (row id, call, expected exception class)
ROWS = [
    # pairwise AF, matrix engine
    ("af_gap_discriminant/type", lambda: af_gap_discriminant(A2, "B"), TypeError),
    ("af_gap_discriminant/rest", lambda: af_gap_discriminant(A3, B3), DimensionMismatchError),
    ("af_gap_discriminant/dims", lambda: af_gap_discriminant(A2, B3), DimensionMismatchError),
    ("af_gap_discriminant/indefinite", lambda: af_gap_discriminant(INDEF2, A2), HypothesisError),
    # m-fold AF, matrix engine
    ("af_m_fold_discriminant/list", lambda: af_m_fold_discriminant([A2, B2], 2), TypeError),
    ("af_m_fold_discriminant/type",
     lambda: af_m_fold_discriminant(MatTuple([A2, NONHERM2]), 2), TypeError),
    ("af_m_fold_discriminant/m-low", lambda: af_m_fold_discriminant(MatTuple([A2, B2]), 1), ValueError),
    ("af_m_fold_discriminant/m-high", lambda: af_m_fold_discriminant(MatTuple([A2, B2]), 3), ValueError),
    ("af_m_fold_discriminant/indefinite",
     lambda: af_m_fold_discriminant(MatTuple([INDEF2, A2]), 2), HypothesisError),
    # pairwise and m-fold AF, convex engine
    ("af_gap_volume/type", lambda: af_gap_volume(SQ, "L"), TypeError),
    ("af_gap_volume/rest", lambda: af_gap_volume(CUBE, CUBE2), DimensionMismatchError),
    ("af_gap_volume/dims", lambda: af_gap_volume(SQ, CUBE), DimensionMismatchError),
    ("af_m_fold_volume/list", lambda: af_m_fold_volume([SQ, SQ2], 2), TypeError),
    ("af_m_fold_volume/m-low", lambda: af_m_fold_volume(BodyTuple([SQ, SQ2]), 1), ValueError),
    ("af_m_fold_volume/m-high", lambda: af_m_fold_volume(BodyTuple([SQ, SQ2]), 3), ValueError),
    ("homothety_ratio/type", lambda: homothety_ratio(SQ, "L"), TypeError),
    ("homothety_ratio/dims", lambda: homothety_ratio(SQ, CUBE), DimensionMismatchError),
    # Brunn-Minkowski samplers
    ("bm_concavity_discriminant/type",
     lambda: bm_concavity_discriminant(A2, "A1", [], 2), TypeError),
    ("bm_concavity_discriminant/m-low",
     lambda: bm_concavity_discriminant(A2, B2, [A2, B2], 0), ValueError),
    ("bm_concavity_discriminant/m-high",
     lambda: bm_concavity_discriminant(A2, B2, [], 3), ValueError),
    ("bm_concavity_discriminant/rest",
     lambda: bm_concavity_discriminant(A3, B3, [C3], 1), DimensionMismatchError),
    ("bm_concavity_discriminant/dims",
     lambda: bm_concavity_discriminant(A2, B3, [], 2), DimensionMismatchError),
    ("bm_concavity_discriminant/indefinite",
     lambda: bm_concavity_discriminant(INDEF2, A2, [], 2), HypothesisError),
    ("bm_concavity_volume/type", lambda: bm_concavity_volume(SQ, "K1", [], 2), TypeError),
    ("bm_concavity_volume/m-low", lambda: bm_concavity_volume(SQ, SQ2, [SQ, SQ2], 0), ValueError),
    ("bm_concavity_volume/m-high", lambda: bm_concavity_volume(SQ, SQ2, [], 3), ValueError),
    ("bm_concavity_volume/rest",
     lambda: bm_concavity_volume(CUBE, CUBE2, [CUBE], 1), DimensionMismatchError),
    ("bm_concavity_volume/dims", lambda: bm_concavity_volume(SQ, CUBE, [], 2), DimensionMismatchError),
    # Gram builders
    ("gram_from_discriminants/type", lambda: gram_from_discriminants([A2, "B"]), TypeError),
    ("gram_from_discriminants/empty", lambda: gram_from_discriminants([]), ValueError),
    ("gram_from_discriminants/rest",
     lambda: gram_from_discriminants([A3, B3]), DimensionMismatchError),
    ("gram_from_discriminants/dims",
     lambda: gram_from_discriminants([A2, B3]), DimensionMismatchError),
    ("gram_from_torus/type", lambda: gram_from_torus([A2, "B"]), TypeError),
    ("gram_from_torus/empty", lambda: gram_from_torus([]), ValueError),
    ("gram_from_torus/rest", lambda: gram_from_torus([A3, B3]), DimensionMismatchError),
    ("gram_from_torus/dims", lambda: gram_from_torus([A2, B3]), DimensionMismatchError),
    # torus model
    ("TorusClass/type", lambda: TorusClass(NONHERM2), TypeError),
    ("af_gap_torus/type", lambda: af_gap_torus(K2, A2), TypeError),
    ("af_gap_torus/rest", lambda: af_gap_torus(K3, L3), DimensionMismatchError),
    ("af_gap_torus/not-kahler", lambda: af_gap_torus(K2, NOTKAHLER2), HypothesisError),
    ("kt_sequence/type", lambda: kt_sequence(K2, A2), TypeError),
    ("kt_sequence/dims", lambda: kt_sequence(K2, K3), DimensionMismatchError),
    ("kt_sequence/not-nef", lambda: kt_sequence(K2, NOTKAHLER2), HypothesisError),
    ("intersection_number/type", lambda: intersection_number([K2, A2]), TypeError),
    ("intersection_number/empty", lambda: intersection_number([]), ValueError),
    ("intersection_number/dims", lambda: intersection_number([K2, K3]), DimensionMismatchError),
    # equality theorems
    ("equality_theorem_pair/type", lambda: equality_theorem_pair(K2, A2), TypeError),
    ("equality_theorem_pair/rest", lambda: equality_theorem_pair(K3, L3), DimensionMismatchError),
    ("equality_theorem_pair/not-big", lambda: equality_theorem_pair(K2, NOTBIG2), NotBigError),
    ("equality_theorem_m/type", lambda: equality_theorem_m([K2, A2], 2), TypeError),
    ("equality_theorem_m/empty", lambda: equality_theorem_m([], 2), ValueError),
    ("equality_theorem_m/m-low", lambda: equality_theorem_m([K3, L3, M3], 1), ValueError),
    ("equality_theorem_m/m-high", lambda: equality_theorem_m([K3, L3, M3], 4), ValueError),
    ("equality_theorem_m/rest", lambda: equality_theorem_m([K3, L3], 2), DimensionMismatchError),
    ("equality_theorem_m/not-big", lambda: equality_theorem_m([K2, NOTBIG2], 2), NotBigError),
    ("equality_corollary_full/type", lambda: equality_corollary_full([K2, A2]), TypeError),
    ("equality_corollary_full/empty", lambda: equality_corollary_full([]), ValueError),
    ("equality_corollary_full/one-class",
     lambda: equality_corollary_full([TorusClass(diag(1))]), DimensionMismatchError),
    ("equality_corollary_full/dims",
     lambda: equality_corollary_full([K2, K3]), DimensionMismatchError),
    ("equality_corollary_full/not-big",
     lambda: equality_corollary_full([K2, NOTBIG2]), NotBigError),
    # mixed values
    ("mixed_adjugate/type", lambda: mixed_adjugate([NONHERM2]), TypeError),
    ("mixed_adjugate/empty", lambda: mixed_adjugate([]), ValueError),
    ("mixed_adjugate/count", lambda: mixed_adjugate([A3]), DimensionMismatchError),
    ("mixed_adjugate/size", lambda: mixed_adjugate([identity(11)] * 10), SizeLimitError),
    ("mixed_discriminant/list", lambda: mixed_discriminant([A2, B2]), TypeError),
    ("mixed_discriminant_polarized/list",
     lambda: mixed_discriminant_polarized([A2, B2]), TypeError),
    ("mixed_volume/list", lambda: mixed_volume([SQ, SQ2]), TypeError),
    ("MatTuple/type", lambda: MatTuple([A2, "B"]), TypeError),
    ("MatTuple/empty", lambda: MatTuple([]), ValueError),
    ("MatTuple/dims", lambda: MatTuple([A2, B3]), DimensionMismatchError),
    ("BodyTuple/type", lambda: BodyTuple([SQ, "L"]), TypeError),
    ("BodyTuple/empty", lambda: BodyTuple([]), ValueError),
    ("BodyTuple/dims", lambda: BodyTuple([SQ, CUBE]), DimensionMismatchError),
    # single bodies and matrices
    ("volume/type", lambda: volume("K"), TypeError),
    ("minkowski_sum/type", lambda: minkowski_sum(SQ, "L"), TypeError),
    ("dilate/type", lambda: dilate("K", 2), TypeError),
    ("translate/type", lambda: translate("K", (1, 1)), TypeError),
    ("proportional/type", lambda: proportional(A2, "B"), TypeError),
    # Shephard matrices of a Gram table
    ("shephard_matrix/type", lambda: shephard_matrix("G"), TypeError),
    ("check_psd_shephard/type", lambda: check_psd_shephard("G"), TypeError),
    ("det_identity_check/type", lambda: det_identity_check("G"), TypeError),
    ("r2_inequality/type", lambda: r2_inequality("G"), TypeError),
    # expansion checks
    ("det_expansion_check/type", lambda: det_expansion_check(["A", A2], [1, 1]), TypeError),
    ("det_expansion_check/empty", lambda: det_expansion_check([], []), ValueError),
    ("det_expansion_check/coefficients",
     lambda: det_expansion_check([A2, B2], [1, 2, 3]), DimensionMismatchError),
    ("det_expansion_check/dims",
     lambda: det_expansion_check([A2, B3], [1, 1]), DimensionMismatchError),
    ("minkowski_expansion_check/type",
     lambda: minkowski_expansion_check(["K", SQ], [1, 1]), TypeError),
    ("minkowski_expansion_check/empty", lambda: minkowski_expansion_check([], []), ValueError),
    ("minkowski_expansion_check/coefficients",
     lambda: minkowski_expansion_check([SQ, SQ2], [1, 2, 3]), DimensionMismatchError),
    ("minkowski_expansion_check/negative",
     lambda: minkowski_expansion_check([SQ, SQ2], [1, -1]), ValueError),
    ("minkowski_expansion_check/dims",
     lambda: minkowski_expansion_check([SQ, CUBE], [1, 1]), DimensionMismatchError),
]


@pytest.mark.parametrize("call, exc", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_front_door_fault(call, exc):
    with warnings.catch_warnings():
        # the indefinite Gram inputs warn; the rows here are about raising
        warnings.simplefilter("ignore")
        with pytest.raises(Exception) as info:
            call()
    assert type(info.value) is exc, repr(info.value)


@pytest.mark.parametrize("build", [gram_from_discriminants, gram_from_torus])
def test_gram_warning_names_the_caller(build):
    # an indefinite class still yields a table, with a warning at the call site
    with pytest.warns(UserWarning) as record:
        build([INDEF2, A2])
    assert record[0].filename == __file__
