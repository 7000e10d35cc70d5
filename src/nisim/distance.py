"""Distance distributions between codes and bounds on average distance.

The cross distance distribution of codes A, B records the fraction of pairs
(x, y) in A x B at each Hamming distance.  Its weight enumerator, its moments,
and its transform-side twin (the dual distribution, built from character sums)
drive everything else in the package: agreement probabilities, identity
checking, and the average-distance bounds collected at the bottom of this
module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codes import MAX_TRANSFORM_DIM, BinaryCode
from .errors import (
    DimensionMismatchError,
    DimensionRangeError,
    NumericalConsistencyError,
    ParameterRangeError,
    as_integer,
    as_real,
)
from .fourier import _weights, fwht

PAIRWISE_LIMIT = 1 << 26


@dataclass(frozen=True)
class DistanceDistribution:
    """Fraction of code pairs at each Hamming distance 0..n."""

    n: int
    p: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer("dimension", self.n, 1, error=DimensionRangeError))
        if len(self.p) != self.n + 1:
            raise ParameterRangeError(
                f"need {self.n + 1} entries for dimension {self.n}, got {len(self.p)}"
            )
        total = math.fsum(self.p)
        if abs(total - 1.0) > 1e-12:
            raise ParameterRangeError(f"distribution sums to {total!r}, not 1")


@dataclass(frozen=True)
class DualDistribution:
    """Signed weight-indexed character sums, normalized so index 0 is 1."""

    n: int
    q: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer("dimension", self.n, 1, error=DimensionRangeError))
        if len(self.q) != self.n + 1:
            raise ParameterRangeError(
                f"need {self.n + 1} entries for dimension {self.n}, got {len(self.q)}"
            )
        if abs(self.q[0] - 1.0) > 1e-12:
            raise ParameterRangeError(f"index-0 entry is {self.q[0]!r}, must be 1")


@dataclass(frozen=True)
class AvgDistanceBounds:
    """Two-sided bound on the average distance between codes of given densities."""

    n: int
    a: float
    b: float
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer("dimension", self.n, 1, error=DimensionRangeError))
        if not 0.0 <= self.lower <= self.upper <= self.n:
            raise ParameterRangeError(
                f"bounds ({self.lower}, {self.upper}) must be ordered within [0, {self.n}]"
            )


def _pairwise_counts(a: BinaryCode, b: BinaryCode) -> np.ndarray:
    counts = np.zeros(a.n + 1, dtype=np.int64)
    aw, bw = a.word_array(), b.word_array()
    chunk = max(1, (1 << 22) // b.size)
    for start in range(0, a.size, chunk):
        block = aw[start : start + chunk, None] ^ bw[None, :]
        dists = np.bitwise_count(block)
        counts += np.bincount(dists.ravel(), minlength=a.n + 1).astype(np.int64)
    return counts


def _level_products(a: BinaryCode, b: BinaryCode) -> np.ndarray:
    """The level sums L_k: products of the two codes' 0/1 indicator transforms,
    summed by mask weight k.

    By Parseval the absolute products total at most 2^n sqrt(|A| |B|) <= 4^n,
    so every partial sum is an exact integer below 2^53 whatever its order
    (n <= ``MAX_TRANSFORM_DIM``).  A self pair (equal codes) transforms its
    one table and squares it in place, which gives the same integers.  The
    sums must be integers totalling 2^n |A & B| (Parseval), the overlap
    counted from the untransformed tables (|A| for a self pair).
    """
    if a == b:
        overlap, prods = a.size, fwht(a.indicator())
        prods *= prods
    else:
        # Both tables before either transform: one freed in between cost 18x the page faults.
        x, y = a.indicator(), b.indicator()
        overlap = np.count_nonzero(x & y)
        prods = fwht(x)
        prods *= fwht(y)
    sums = np.bincount(_weights(a.n), weights=prods)
    levels = sums.tolist()
    if not all(v.is_integer() for v in levels):
        raise NumericalConsistencyError(f"transform level sums {levels} are not all integers")
    if sum(levels) != overlap << a.n:
        raise NumericalConsistencyError(f"level sums {levels} do not total 2^{a.n} |A & B|")
    return sums


@functools.cache
def _krawtchouk(n: int) -> tuple[tuple[int, ...], ...]:
    """K[d][k] = sum over j of (-1)^j C(k, j) C(n - k, d - j): the sum of
    (-1)^popcount(mask & z) over the words z of weight d, for a mask of weight k."""
    return tuple(
        tuple(
            sum((-1) ** j * math.comb(k, j) * math.comb(n - k, d - j) for j in range(d + 1))
            for k in range(n + 1)
        )
        for d in range(n + 1)
    )


def _transform_counts(a: BinaryCode, b: BinaryCode, levels: np.ndarray | None = None) -> np.ndarray:
    """Distance counts c_d = sum over k of K[d][k] L_k / 2^n, in integers, from the
    level sums L_k of ``_level_products(a, b)``, or ``levels`` if already at hand."""
    sums = [int(v) for v in (_level_products(a, b) if levels is None else levels).tolist()]
    scaled = [sum(kd * lk for kd, lk in zip(row, sums)) for row in _krawtchouk(a.n)]
    if any(c % (1 << a.n) for c in scaled):
        raise NumericalConsistencyError(
            f"transform distance counts {scaled} are not all multiples of 2^{a.n}"
        )
    return np.array([c >> a.n for c in scaled], dtype=np.int64)


def _counted_pairwise(a: BinaryCode, b: BinaryCode) -> bool:
    """Whether A x B is counted pair by pair: up to max(n 2^n / 8, 2^13) pairs, the
    transform path's cost (one BLAS thread: crossovers at 8k-47k pairs for n <= 14,
    0.1-0.2 n 2^n above), and never past ``PAIRWISE_LIMIT``."""
    return a.size * b.size <= min(PAIRWISE_LIMIT, max(a.n << a.n >> 3, 1 << 13))


def distance_distribution(a: BinaryCode, b: BinaryCode | None = None) -> DistanceDistribution:
    """Distribution of Hamming distance over all pairs in A x B (B defaults to A).

    Pairs are counted one by one while that is cheaper (``_counted_pairwise``),
    else, at n <= ``MAX_TRANSFORM_DIM``, from the n + 1 integer level sums of the
    two indicators' transform products by the Krawtchouk (MacWilliams)
    transform, in exact integers.  Both paths give exact counts.
    """
    if b is None:
        b = a
    if a.n != b.n:
        raise DimensionMismatchError(f"code dimensions differ: {a.n} vs {b.n}")
    if _counted_pairwise(a, b):
        counts = _pairwise_counts(a, b)
    else:
        if a.n > MAX_TRANSFORM_DIM:
            raise DimensionRangeError(
                f"pair too large for pairwise counting and dimension {a.n} exceeds "
                f"the transform limit {MAX_TRANSFORM_DIM}"
            )
        counts = _transform_counts(a, b)
    total = int(counts.sum())
    if total != a.size * b.size:
        raise NumericalConsistencyError(
            f"distance counts sum to {total}, expected {a.size * b.size}"
        )
    return DistanceDistribution(a.n, tuple((counts / total).tolist()))


def distance_moment(dist: DistanceDistribution, k: int) -> float:
    """k-th moment of the distance distribution; k=1 is the average distance."""
    k = as_integer("moment order", k, 0)
    idx = np.arange(dist.n + 1, dtype=np.float64)
    return float(np.dot(dist.p, idx**k))


def _poly_eval(coeffs, z: float) -> float:
    total = 0.0
    for c in reversed(tuple(coeffs)):
        total = total * z + c
    return total


def distance_enumerator(dist: DistanceDistribution, z: float) -> float:
    """Weight enumerator sum p_i z^i, for nonnegative z."""
    if z < 0:
        raise ParameterRangeError(f"enumerator argument must be nonnegative, got {z}")
    return _poly_eval(dist.p, z)


def dual_distribution(a: BinaryCode, b: BinaryCode | None = None) -> DualDistribution:
    """Weight-aggregated products of the two codes' character sums, scaled so
    the weight-0 entry is 1.

    The character sums are the 0/1 indicators' transforms, so entry k is the
    level sum L_k over |A| |B|: the bits of the two dyadic spectra's level
    sums over 4ab.  A self pair takes one transform, and its exact integer
    level sums must be nonnegative with total 2^n |A| (Parseval).
    """
    if b is None:
        b = a
    if a.n != b.n:
        raise DimensionMismatchError(f"code dimensions differ: {a.n} vs {b.n}")
    if a.n > MAX_TRANSFORM_DIM:
        raise DimensionRangeError(
            f"dual distribution supports dimensions up to {MAX_TRANSFORM_DIM}, got {a.n}"
        )
    sums = _level_products(a, b)
    q = [1.0] + (sums[1:] / (a.size * b.size)).tolist()
    if a == b and sums.min() < 0:
        raise NumericalConsistencyError(f"self level sums {sums} are not all >= 0")
    return DualDistribution(a.n, tuple(q))


def dual_enumerator(dual: DualDistribution, z: float) -> float:
    """Sum q_i z^i, for nonnegative z."""
    if z < 0:
        raise ParameterRangeError(f"enumerator argument must be nonnegative, got {z}")
    return _poly_eval(dual.q, z)


def macwilliams_forward(a: BinaryCode, b: BinaryCode, z: float) -> tuple[float, float]:
    """Both sides of the transform identity relating the dual enumerator at z
    to the distance enumerator at (1-z)/(1+z), scaled by (1+z)^n.

    Returns (dual side, distance side); they agree to within 1e-9 relative.
    """
    if z < 0:
        raise ParameterRangeError(f"identity argument must be nonnegative, got {z}")
    lhs = dual_enumerator(dual_distribution(a, b), z)
    w = (1.0 - z) / (1.0 + z)
    rhs = (1.0 + z) ** a.n * _poly_eval(distance_distribution(a, b).p, w)
    return lhs, rhs


def macwilliams_inverse(a: BinaryCode, b: BinaryCode, z: float) -> tuple[float, float]:
    """Both sides of the inverse identity: distance enumerator at z against the
    dual enumerator at (1-z)/(1+z), scaled by ((1+z)/2)^n."""
    if z < 0:
        raise ParameterRangeError(f"identity argument must be nonnegative, got {z}")
    lhs = distance_enumerator(distance_distribution(a, b), z)
    w = (1.0 - z) / (1.0 + z)
    rhs = ((1.0 + z) / 2.0) ** a.n * _poly_eval(dual_distribution(a, b).q, w)
    return lhs, rhs


def fwy_lower_bound(n: int, a: float) -> float:
    """Lower bound n/2 - 1/(4a) on the average self-distance of a code of
    density a <= 1/2, clamped at zero."""
    n = as_integer("dimension", n, 1, error=DimensionRangeError)
    a = as_real("density", a, 0.0, 1.0)
    if not 0.0 < a <= 0.5:
        raise ParameterRangeError(f"density must be in (0, 1/2], got {a}")
    return max(0.0, n / 2.0 - 1.0 / (4.0 * a))


def cross_distance_bounds(n: int, a: float, b: float) -> AvgDistanceBounds:
    """Two-sided bound n/2 -+ sqrt((a ^ ab)(b ^ bb))/(4ab) on the average
    distance between codes of densities a and b, clamped to [0, n]."""
    n = as_integer("dimension", n, 1, error=DimensionRangeError)
    a, b = as_real("density", a, 0.0, 1.0), as_real("density", b, 0.0, 1.0)
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ParameterRangeError(f"densities must be in (0, 1], got ({a}, {b})")
    dev = math.sqrt(min(a, 1.0 - a) * min(b, 1.0 - b)) / (4.0 * a * b)
    return AvgDistanceBounds(n, a, b, max(0.0, n / 2.0 - dev), min(float(n), n / 2.0 + dev))


def chang_bound(n: int, a: float) -> float:
    """Lower bound n/2 - ln(1/a) on the average self-distance, clamped at zero."""
    n = as_integer("dimension", n, 1, error=DimensionRangeError)
    a = as_real("density", a, 0.0, 1.0)
    if not 0.0 < a <= 1.0:
        raise ParameterRangeError(f"density must be in (0, 1], got {a}")
    return max(0.0, n / 2.0 + math.log(a))


# Taylor coefficients 1/((k+1)(k+2)) of _h2 in -y.  For |y| < 0.1 the first
# omitted term, k = 16, is below 4e-19.
_H2_SERIES = tuple(1.0 / ((k + 1) * (k + 2)) for k in range(16))


def _h2(y: float) -> float:
    """((1 + y) log1p(y) - y) / y^2 for y > -1, equal to 1/2 at y = 0.  Below
    |y| = 0.1 it is summed as its alternating series, sum over k of
    (-y)^k / ((k+1)(k+2)), so no cancellation is formed."""
    if abs(y) < 0.1:
        return _poly_eval(_H2_SERIES, -y)
    return ((1.0 + y) * math.log1p(y) - y) / (y * y)


def _psi_objective(a: float, u: float) -> float:
    """Value of the variational functional at t = e^u.

    With eps = t - 1 the functional is (1 + a eps)(a t u - (1 + a eps)
    log1p(a eps)) / (a eps)^2.  The bracket vanishes to second order at
    eps = 0, so it is taken as a eps^2 (h2(eps) - a h2(a eps)), which leaves
    (1 + a eps)(h2(eps) - a h2(a eps)) / a: exactly (1 - a)/(2a) at u = 0.
    """
    eps = math.expm1(u)
    return (1.0 + a * eps) * (_h2(eps) - a * _h2(a * eps)) / a


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section search of f on [lo, hi]: the least value seen and where."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    best = min((fc, c), (fd, d), (f(lo), lo), (f(hi), hi))
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
            best = min(best, (fc, c))
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
            best = min(best, (fd, d))
    return best


def psi(a: float) -> float:
    """Infimum over t > 0 of the variational functional whose clamped gap from
    n/2 lower-bounds average self-distance; always at most ln(1/a)."""
    a = as_real("density", a, 0.0, 1.0)
    if not 0.0 < a < 1.0:
        raise ParameterRangeError(f"density must be in (0, 1), got {a}")
    f = lambda u: _psi_objective(a, u)
    grid = np.linspace(-14.0, 14.0, 57)
    vals = [f(u) for u in grid]
    i = int(np.argmin(vals))
    lo, hi = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
    return min(min(vals), _golden_min(f, lo, hi, 1e-10)[0])


def psi_bound(n: int, a: float) -> float:
    """Sharper companion of :func:`chang_bound`: n/2 - psi(a), clamped at zero."""
    n = as_integer("dimension", n, 1, error=DimensionRangeError)
    a = as_real("density", a, 0.0, 1.0)
    if not 0.0 < a <= 1.0:
        raise ParameterRangeError(f"density must be in (0, 1], got {a}")
    return n / 2.0 if a == 1.0 else max(0.0, n / 2.0 - psi(a))
