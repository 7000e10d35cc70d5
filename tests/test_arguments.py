"""The two argument rules, one row per public integer, correlation or density
argument.

An integer argument takes any integer but a bool and is used as a Python int;
a correlation or a density takes any real number but a bool and is used as a
Python float.
Each row is called with a Python value and with the numpy scalar of that value,
which must give equal results of the same type, and with values of the wrong
kind, which must raise the argument's own error.
"""

import numpy as np
import pytest

from nisim import (
    AvgDistanceBounds,
    BinaryCode,
    CubeSymmetry,
    DistanceDistribution,
    DsbsInstance,
    DualDistribution,
    FourierSpectrum,
    LevelSums,
    chang_bound,
    collision_prob,
    combined_report,
    construction_value,
    distance_distribution,
    distance_moment,
    dyadic_round,
    fwy_lower_bound,
    hamming_ball,
    hc_bounds,
    joint_cells,
    make_code,
    maximal_correlation_bounds,
    normalize_instance,
    psi_bound,
    subcube,
    symmetric_bounds,
    symmetry_group,
    theorem1_bounds,
    theta_from_levels,
)
from nisim.errors import DimensionRangeError, ParameterRangeError, WordRangeError

_CODE = make_code(3, [0, 3, 5])
_DIST = distance_distribution(_CODE)
_LEVELS = LevelSums(2, (0.0, 0.5, 0.25))

# id: (call, valid value, error).  An int value marks an integer argument, a
# float value a correlation or a density.
ARGUMENTS = {
    "make_code-n": (lambda v: make_code(v, [1]).n, 2, DimensionRangeError),
    "BinaryCode-n": (lambda v: BinaryCode(v, (1,)).n, 2, DimensionRangeError),
    "subcube-n": (lambda v: subcube(v, 1).n, 2, DimensionRangeError),
    "subcube-k": (lambda v: subcube(4, v), 2, ParameterRangeError),
    "hamming_ball-n": (lambda v: hamming_ball(v, 0, 1).n, 2, DimensionRangeError),
    "hamming_ball-center": (lambda v: hamming_ball(4, v, 1), 2, WordRangeError),
    "hamming_ball-radius": (lambda v: hamming_ball(4, 0, v), 2, ParameterRangeError),
    "CubeSymmetry-perm": (lambda v: CubeSymmetry((v, 0, 1), 0).perm[0], 2, ParameterRangeError),
    "CubeSymmetry-flips": (lambda v: CubeSymmetry((1, 0), v).flips, 2, WordRangeError),
    "symmetry_group-n": (symmetry_group, 2, DimensionRangeError),
    "DsbsInstance-n": (lambda v: DsbsInstance(0.5, v).n, 2, DimensionRangeError),
    "pair_probability-d": (
        lambda v: DsbsInstance(0.5, 4).pair_probability(v), 2, ParameterRangeError
    ),
    "dyadic_round-n": (lambda v: dyadic_round(0.3, v), 2, DimensionRangeError),
    "dyadic_round-target": (lambda t: dyadic_round(t, 3), 0.3, ParameterRangeError),
    "distance_moment-k": (lambda v: distance_moment(_DIST, v), 2, ParameterRangeError),
    "fwy_lower_bound-n": (lambda v: fwy_lower_bound(v, 0.25), 2, DimensionRangeError),
    "chang_bound-n": (lambda v: chang_bound(v, 0.25), 2, DimensionRangeError),
    "psi_bound-n": (lambda v: psi_bound(v, 0.25), 2, DimensionRangeError),
    "construction_value-n": (
        lambda v: construction_value("symmetric-subcube", v, 1, 0.5), 2, DimensionRangeError
    ),
    "construction_value-i": (
        lambda v: construction_value("hamming-ball-pair", 4, v, 0.5), 2, ParameterRangeError
    ),
    "collision_prob-rho": (lambda r: collision_prob(_CODE, _CODE, r), 0.5, ParameterRangeError),
    "joint_cells-rho": (lambda r: joint_cells(_CODE, _CODE, r), 0.5, ParameterRangeError),
    "DsbsInstance-rho": (lambda r: DsbsInstance(r, 3).rho, 0.5, ParameterRangeError),
    "theta_from_levels-rho": (lambda r: theta_from_levels(_LEVELS, r), 0.5, ParameterRangeError),
    "normalize_instance-rho": (
        lambda r: normalize_instance(0.3, 0.6, r)[2], 0.5, ParameterRangeError
    ),
    "theorem1_bounds-rho": (lambda r: theorem1_bounds(0.2, 0.3, r), 0.5, ParameterRangeError),
    "symmetric_bounds-rho": (lambda r: symmetric_bounds(0.3, r), 0.5, ParameterRangeError),
    "maximal_correlation_bounds-rho": (
        lambda r: maximal_correlation_bounds(0.2, 0.3, r), 0.5, ParameterRangeError
    ),
    "combined_report-rho": (
        lambda r: combined_report(0.3, 0.3, r).original_rho, 0.5, ParameterRangeError
    ),
    "DistanceDistribution-n": (
        lambda v: DistanceDistribution(v, (0.25, 0.5, 0.25)).n, 2, DimensionRangeError
    ),
    "DualDistribution-n": (
        lambda v: DualDistribution(v, (1.0, 0.0, -0.5)).n, 2, DimensionRangeError
    ),
    "AvgDistanceBounds-n": (
        lambda v: AvgDistanceBounds(v, 0.25, 0.25, 0.5, 1.5).n, 2, DimensionRangeError
    ),
    "LevelSums-n": (lambda v: LevelSums(v, (0.0, 0.5, 0.25)).n, 2, DimensionRangeError),
    "FourierSpectrum-n": (
        lambda v: FourierSpectrum(v, np.zeros(8), _CODE).n, 3, DimensionRangeError
    ),
    "normalize_instance-a": (
        lambda a: normalize_instance(a, 0.6, 0.5)[0], 0.3, ParameterRangeError
    ),
    "hc_bounds-b": (lambda b: hc_bounds(0.3, b, 0.5), 0.5, ParameterRangeError),
    "theorem1_bounds-a": (lambda a: theorem1_bounds(a, 0.3, 0.5), 0.2, ParameterRangeError),
    "symmetric_bounds-a": (lambda a: symmetric_bounds(a, 0.5), 0.3, ParameterRangeError),
    "maximal_correlation_bounds-b": (
        lambda b: maximal_correlation_bounds(0.2, b, 0.5), 0.3, ParameterRangeError
    ),
    "combined_report-a": (
        lambda a: combined_report(a, 0.5, 0.5).original_a, 0.3, ParameterRangeError
    ),
}


@pytest.mark.parametrize("call, value, error", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_argument_rule(call, value, error):
    integer = type(value) is int
    got, want = call(np.int64(value) if integer else np.float64(value)), call(value)
    assert got == want and type(got) is type(want)
    for bad in (True, float(value), value + 0.5) if integer else (True, str(value)):
        with pytest.raises(error):
            call(bad)
