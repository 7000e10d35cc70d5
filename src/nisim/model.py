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
from .distance import DistanceDistribution, _level_products, distance_distribution
from .errors import (
    DimensionMismatchError,
    DimensionRangeError,
    NumericalConsistencyError,
    as_integer,
    as_real,
)
from .fourier import LevelSums, theta_from_levels

_PATH_TOL = 1e-9
_CLAMP_SLACK = 1e-12


@dataclass(frozen=True)
class DsbsInstance:
    """A source description: blocklength and per-coordinate correlation."""

    rho: float
    n: int

    def __post_init__(self):
        rho = as_real("correlation", self.rho, -1.0, 1.0)
        n = as_integer("blocklength", self.n, 1, error=DimensionRangeError)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "n", n)

    def pair_weights(self) -> tuple[float, ...]:
        """``pair_probability(d)`` for every distance d = 0..n."""
        apart, alike = (1.0 - self.rho) / 4.0, (1.0 + self.rho) / 4.0
        return tuple(apart**d * alike ** (self.n - d) for d in range(self.n + 1))

    def pair_probability(self, d: int) -> float:
        """Probability of one specific pair (x, y) at Hamming distance d."""
        return self.pair_weights()[as_integer("distance", d, 0, self.n)]


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
    weights = DsbsInstance(rho, dist.n).pair_weights()
    return math.fsum(pairs * p * w for p, w in zip(dist.p, weights) if p > 0.0)


def collision_prob(a: BinaryCode, b: BinaryCode, rho: float) -> float:
    """P(X in A, Y in B) for the correlated pair at correlation rho.

    Summed through the distance distribution; checked against the independent
    spectral route (mean product plus correlation-weighted level sums) whenever
    the transform is feasible.  Its level sums are those of the +-1
    indicators' transform products over 4^n, which are the same bits as the
    level sums of the two spectra.  The two routes must agree to 1e-9.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"code dimensions differ: {a.n} vs {b.n}")
    rho = as_real("correlation", rho, -1.0, 1.0)
    n = a.n
    q = _distance_path(distance_distribution(a, b), a.size * b.size, rho)

    if n <= MAX_TRANSFORM_DIM:
        dens = a.density * b.density
        sums = _level_products(a.indicator(-1), b.indicator(-1)) / 4**n
        theta = theta_from_levels(LevelSums(n, tuple(sums.tolist())), rho)
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
    target = as_real("target density", target, 0.0, 1.0)
    n = as_integer("blocklength", n, 1, error=DimensionRangeError)
    scale = 1 << n
    rounded = math.floor(target * scale) / scale
    return rounded, target - rounded
