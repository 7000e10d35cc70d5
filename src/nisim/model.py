"""Agreement probabilities for indicator functions of codes driven by a pair
of uniformly random, coordinate-wise correlated binary strings.

Each coordinate pair (X_i, Y_i) is uniform on {-1,+1}^2 with correlation rho,
independent across coordinates.  For codes A and B the quantity of interest is
q = P(X in A, Y in B), which depends on the codes only through their cross
distance distribution.  A pair of words has an exact rational probability
(``_pair_weights``), so q is an exact rational, and it is returned rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .codes import MAX_TRANSFORM_DIM, BinaryCode
from .distance import _counted_pairwise, _level_products, _transform_counts, distance_distribution
from .errors import (
    DimensionMismatchError,
    DimensionRangeError,
    NumericalConsistencyError,
    as_integer,
    as_real,
)
from .fourier import LevelSums, theta_from_levels

_PATH_TOL = 1e-9


def _pair_weights(n: int, rho: float) -> tuple[list[int], int]:
    """(W, D): W[d] / D is the probability of one pair of words at distance d,
    with W[d] = (den - num)^d (den + num)^(n - d) and D = (4 den)^n for
    rho = num/den exactly, all Python ints; the powers are running products."""
    num, den = float(rho).as_integer_ratio()
    apart = list(accumulate(repeat(den - num, n), mul, initial=1))
    alike = list(accumulate(repeat(den + num, n), mul, initial=1))
    return [x * y for x, y in zip(apart, reversed(alike))], (4 * den) ** n


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
        """``pair_probability(d)`` for every distance d = 0..n, rounded once."""
        weights, scale = _pair_weights(self.n, self.rho)
        return tuple(w / scale for w in weights)

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
        if min(cells) < -1e-12:
            raise NumericalConsistencyError(f"cell below -1e-12: {min(cells):.3e}")
        total = math.fsum(cells)
        if abs(total - 1.0) > 1e-12:
            raise NumericalConsistencyError(f"cells sum to {total!r}, not 1")


def collision_prob(a: BinaryCode, b: BinaryCode, rho: float) -> float:
    """P(X in A, Y in B) for the correlated pair at correlation rho.

    The exact sum of c_d W_d / D over the distance counts c_d, rounded once.
    At n <= ``MAX_TRANSFORM_DIM`` the 0/1 indicators' level sums are taken once:
    the transform path's counts come from them, and pairwise counts are read
    back exactly from the distance distribution (at most 2^48 pairs at n <= 24,
    ``PAIRWISE_LIMIT`` above).  The sums also give the spectral route, mean
    product plus rho-weighted level sums over 4^(n-1); the two agree to 1e-9.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"code dimensions differ: {a.n} vs {b.n}")
    rho = as_real("correlation", rho, -1.0, 1.0)
    n = a.n
    pairs = a.size * b.size
    levels = _level_products(a, b) if n <= MAX_TRANSFORM_DIM else None
    if levels is None or _counted_pairwise(a, b):
        counts = [round(p * pairs) for p in distance_distribution(a, b).p]
    else:
        counts = _transform_counts(a, b, levels).tolist()
    if sum(counts) != pairs:
        raise NumericalConsistencyError(f"distance counts {counts} do not sum to {pairs}")
    weights, scale = _pair_weights(n, rho)
    q = sum(c * w for c, w in zip(counts, weights) if c) / scale

    if levels is not None:
        sums = LevelSums(n, tuple((levels / 4 ** (n - 1)).tolist()))
        q_spec = a.density * b.density + theta_from_levels(sums, rho)
        if abs(q - q_spec) > _PATH_TOL:
            raise NumericalConsistencyError(
                f"distance path {q!r} and spectral path {q_spec!r} disagree"
            )
    return q


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
