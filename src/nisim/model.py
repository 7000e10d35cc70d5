"""Agreement probabilities for indicator functions of codes driven by a pair
of uniformly random, coordinate-wise correlated binary strings.

Each coordinate pair (X_i, Y_i) is uniform on {-1,+1}^2 with correlation rho,
independent across coordinates.  For codes A and B the quantity of interest is
q = P(X in A, Y in B), which depends on the codes only through their cross
distance distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import MAX_TRANSFORM_DIM, BinaryCode
from .distance import DistanceDistribution, distance_distribution
from .errors import (
    DimensionMismatchError,
    DimensionRangeError,
    NumericalConsistencyError,
    ParameterRangeError,
)
from .fourier import level_sums, spectrum, theta_from_levels

_PATH_TOL = 1e-9
_CLAMP_SLACK = 1e-12


@dataclass(frozen=True)
class DsbsInstance:
    """A source description: blocklength and per-coordinate correlation."""

    rho: float
    n: int

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterRangeError(f"correlation must be in [-1, 1], got {self.rho}")
        if not isinstance(self.n, int) or self.n < 1:
            raise DimensionRangeError(f"blocklength must be a positive integer, got {self.n}")

    def pair_probability(self, d: int) -> float:
        """Probability of one specific pair (x, y) at Hamming distance d."""
        if not 0 <= d <= self.n:
            raise ParameterRangeError(f"distance must be in 0..{self.n}, got {d}")
        return ((1.0 - self.rho) / 4.0) ** d * ((1.0 + self.rho) / 4.0) ** (self.n - d)


@dataclass(frozen=True)
class JointCellProbs:
    """The four cell probabilities of the indicator pair (1_A(X), 1_B(Y))."""

    a: float
    b: float
    q_pp: float
    q_pm: float
    q_mp: float
    q_mm: float

    def __post_init__(self):
        cells = (self.q_pp, self.q_pm, self.q_mp, self.q_mm)
        if min(cells) < -_CLAMP_SLACK:
            raise NumericalConsistencyError(f"cell below -1e-12: {min(cells):.3e}")
        total = math.fsum(cells)
        if abs(total - 1.0) > 1e-12:
            raise NumericalConsistencyError(f"cells sum to {total!r}, not 1")


def _distance_path(dist: DistanceDistribution, pairs: int, rho: float) -> float:
    """The agreement probability summed over a cross distance distribution of
    ``pairs`` code pairs: each pair at distance d has probability
    ``pair_probability(d)``."""
    inst = DsbsInstance(rho, dist.n)
    return math.fsum(
        pairs * p * inst.pair_probability(d) for d, p in enumerate(dist.p) if p > 0.0
    )


def collision_prob(a: BinaryCode, b: BinaryCode, rho: float) -> float:
    """P(X in A, Y in B) for the correlated pair at correlation rho.

    Summed through the distance distribution; checked against the independent
    spectral route (mean product plus correlation-weighted level sums) whenever
    the transform is feasible.  The two must agree to 1e-9.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"code dimensions differ: {a.n} vs {b.n}")
    if not -1.0 <= rho <= 1.0:
        raise ParameterRangeError(f"correlation must be in [-1, 1], got {rho}")
    n = a.n
    q = _distance_path(distance_distribution(a, b), a.size * b.size, rho)

    if n <= MAX_TRANSFORM_DIM:
        dens = a.density * b.density
        theta = theta_from_levels(level_sums(spectrum(a), spectrum(b)), rho)
        q_spec = dens + theta
        if abs(q - q_spec) > _PATH_TOL:
            raise NumericalConsistencyError(
                f"distance path {q!r} and spectral path {q_spec!r} disagree"
            )

    if q < -_CLAMP_SLACK or q > 1.0 + _CLAMP_SLACK:
        raise NumericalConsistencyError(f"agreement probability {q!r} outside [0, 1]")
    return min(1.0, max(0.0, q))


def joint_cells(a: BinaryCode, b: BinaryCode, rho: float) -> JointCellProbs:
    """Full 2x2 joint law of (1_A(X), 1_B(Y)); the off cells follow from the
    marginals and the agreement probability."""
    q = collision_prob(a, b, rho)
    da, db = a.density, b.density
    return JointCellProbs(
        a=da,
        b=db,
        q_pp=q,
        q_pm=da - q,
        q_mp=db - q,
        q_mm=1.0 - da - db + q,
    )


def dyadic_round(target: float, n: int) -> tuple[float, float]:
    """Largest multiple of 2^-n not exceeding target, with the rounding gap.

    The gap is always less than 2^-n, so blocklength-n codes can match any
    requested density to that resolution.
    """
    if not 0.0 <= target <= 1.0:
        raise ParameterRangeError(f"target density must be in [0, 1], got {target}")
    if not isinstance(n, int) or n < 1:
        raise DimensionRangeError(f"blocklength must be a positive integer, got {n}")
    scale = 1 << n
    rounded = math.floor(target * scale) / scale
    return rounded, target - rounded
