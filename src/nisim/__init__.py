"""Tools for studying how well one-bit functions of correlated binary strings
can agree.

Two length-n uniform binary strings with coordinate-wise correlation rho are
observed by two parties, each of which outputs one bit by testing membership
of its string in a chosen set.  The package computes the joint law of those
bits exactly for explicit sets (``model``), bounds the achievable agreement
probability over all sets of given densities (``bounds``), searches for
extremal sets (``oracle``), and supplies the transform and distance machinery
behind both (``codes``, ``fourier``, ``distance``), plus a randomized
self-check harness (``verify``) and a command line (``cli``).
"""

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DimensionRangeError,
    EmptyCodeError,
    FormatError,
    NumericalConsistencyError,
    ParameterRangeError,
    SearchBudgetError,
    WordRangeError,
)
from .codes import (
    BinaryCode,
    CubeSymmetry,
    apply_symmetry,
    canonical_form,
    canonical_pair,
    complement,
    format_code,
    hamming_ball,
    make_code,
    parse_code,
    star,
    subcube,
    symmetry_group,
)
from .distance import (
    AvgDistanceBounds,
    DistanceDistribution,
    DualDistribution,
    chang_bound,
    cross_distance_bounds,
    distance_distribution,
    distance_enumerator,
    distance_moment,
    dual_distribution,
    dual_enumerator,
    fwy_lower_bound,
    macwilliams_forward,
    macwilliams_inverse,
    psi,
    psi_bound,
)
from .fourier import (
    FourierSpectrum,
    LevelSums,
    fwht,
    level_sums,
    spectrum,
    tail_sign_sums,
    theta_from_levels,
)
from .model import (
    DsbsInstance,
    JointCellProbs,
    collision_prob,
    dyadic_round,
    joint_cells,
)
from .bounds import (
    BoundsReport,
    Theorem1Bounds,
    TransformRecord,
    combined_report,
    hc_bounds,
    maximal_correlation_bounds,
    normalize_instance,
    symmetric_bounds,
    theorem1_bounds,
    theta_minus,
    theta_plus,
)
from .oracle import (
    OracleResult,
    RHO_CERTIFICATION_GRID,
    construction_value,
    exhaustive_distance_extremes,
    exhaustive_extremes,
    local_search,
)
from .verify import FamilyResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "AvgDistanceBounds",
    "BinaryCode",
    "BoundsReport",
    "ConvergenceError",
    "CubeSymmetry",
    "DimensionMismatchError",
    "DimensionRangeError",
    "DistanceDistribution",
    "DsbsInstance",
    "DualDistribution",
    "EmptyCodeError",
    "FamilyResult",
    "FormatError",
    "FourierSpectrum",
    "JointCellProbs",
    "LevelSums",
    "NumericalConsistencyError",
    "OracleResult",
    "ParameterRangeError",
    "RHO_CERTIFICATION_GRID",
    "SearchBudgetError",
    "Theorem1Bounds",
    "TransformRecord",
    "VerifyReport",
    "WordRangeError",
    "apply_symmetry",
    "canonical_form",
    "canonical_pair",
    "chang_bound",
    "collision_prob",
    "combined_report",
    "complement",
    "construction_value",
    "cross_distance_bounds",
    "distance_distribution",
    "distance_enumerator",
    "distance_moment",
    "dual_distribution",
    "dual_enumerator",
    "dyadic_round",
    "exhaustive_distance_extremes",
    "exhaustive_extremes",
    "format_code",
    "fwht",
    "fwy_lower_bound",
    "hamming_ball",
    "hc_bounds",
    "joint_cells",
    "level_sums",
    "local_search",
    "macwilliams_forward",
    "macwilliams_inverse",
    "make_code",
    "maximal_correlation_bounds",
    "normalize_instance",
    "parse_code",
    "psi",
    "psi_bound",
    "run_verify",
    "spectrum",
    "star",
    "subcube",
    "symmetric_bounds",
    "symmetry_group",
    "tail_sign_sums",
    "theorem1_bounds",
    "theta_from_levels",
    "theta_minus",
    "theta_plus",
]
