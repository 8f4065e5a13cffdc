"""Exact tools for mixed volumes, mixed discriminants, and the
Alexandrov-Fenchel family of inequalities.

Everything numeric in this package is exact rational arithmetic over
Gaussian rationals; floats appear only in concavity reports, where an
m-th root has no rational value.
"""

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
from afkit.errors import (
    AfkitError,
    DimensionMismatchError,
    FormatError,
    HypothesisError,
    InvariantViolationError,
    NotBigError,
    SizeLimitError,
)
from afkit.ineqcheck import (
    ConcavityReport,
    GapReport,
    af_gap_discriminant,
    af_gap_volume,
    af_m_fold_discriminant,
    af_m_fold_volume,
    bm_concavity_discriminant,
    bm_concavity_volume,
    equality_lambda,
    homothety_ratio,
)
from afkit.matrixcore import (
    GenMat,
    HermMat,
    is_pd,
    is_psd,
    principal_minor_sums,
    proportional,
)
from afkit.mixdisc import (
    MatTuple,
    det_expansion_check,
    mixed_adjugate,
    mixed_discriminant,
    mixed_discriminant_polarized,
)
from afkit.rationals import GaussRat, Rat, as_rat, format_rat, parse_rat
from afkit.shephard import (
    GramTable,
    ShephardMatrix,
    check_psd_shephard,
    det_identity_check,
    gram_from_discriminants,
    gram_from_torus,
    r2_inequality,
    shephard_matrix,
)
from afkit.toruskahler import (
    TorusClass,
    af_gap_torus,
    equality_corollary_full,
    equality_theorem_m,
    equality_theorem_pair,
    intersection_number,
    kt_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "AfkitError",
    "BodyTuple",
    "ConcavityReport",
    "DimensionMismatchError",
    "FormatError",
    "GapReport",
    "GaussRat",
    "GenMat",
    "GramTable",
    "HermMat",
    "HypothesisError",
    "InvariantViolationError",
    "MatTuple",
    "NotBigError",
    "Polytope",
    "Rat",
    "ShephardMatrix",
    "SizeLimitError",
    "TorusClass",
    "af_gap_discriminant",
    "af_gap_torus",
    "af_gap_volume",
    "af_m_fold_discriminant",
    "af_m_fold_volume",
    "as_rat",
    "bm_concavity_discriminant",
    "bm_concavity_volume",
    "check_psd_shephard",
    "convex_hull",
    "det_expansion_check",
    "det_identity_check",
    "dilate",
    "equality_corollary_full",
    "equality_lambda",
    "equality_theorem_m",
    "equality_theorem_pair",
    "format_rat",
    "gram_from_discriminants",
    "gram_from_torus",
    "homothety_ratio",
    "intersection_number",
    "is_pd",
    "is_psd",
    "kt_sequence",
    "minkowski_expansion_check",
    "minkowski_sum",
    "mixed_adjugate",
    "mixed_discriminant",
    "mixed_discriminant_polarized",
    "mixed_volume",
    "parse_rat",
    "principal_minor_sums",
    "proportional",
    "r2_inequality",
    "shephard_matrix",
    "translate",
    "volume",
]
