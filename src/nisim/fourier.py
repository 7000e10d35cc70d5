"""Character expansion of code indicator functions.

``spectrum`` expands the +-1 indicator of a code over the parity characters of
the cube; ``level_sums`` aggregates coefficient products of two codes by
character weight.  Those level sums carry the correlation dependence of the
agreement probability: weighting level k by rho^k recovers the covariance term
directly (see :func:`theta_from_levels`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .codes import MAX_TRANSFORM_DIM, BinaryCode
from .errors import (
    DimensionMismatchError,
    DimensionRangeError,
    ParameterRangeError,
    as_integer,
    as_real,
)


# Each pass of fwht transforms up to 5 index bits with one product against a
# Hadamard matrix of order up to 32 (Fino and Algazi's factorization).
# Products are cut to 128 columns: larger ones cross OpenBLAS's threading
# threshold, and with BLAS threads unpinned the small transforms then stalled.
_BLOCK_BITS = 5
_MAX_COLUMNS = 128


@functools.cache
def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k matrix with entry (i, j) = (-1)^popcount(i & j); read-only."""
    idx = np.arange(1 << k)
    h = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)
    h.flags.writeable = False
    return h


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform with the (-1)^(popcount(mask & word)) kernel.

    Returns a new float array; applying it twice multiplies by len(values).
    Every product is +-1 times an input, so on integer-valued input (below
    2^53 in magnitude) the result is exact whatever the summation order.
    """
    src = np.asarray(values, dtype=np.float64)
    if src.ndim != 1:
        raise ParameterRangeError(f"transform input must be 1-D, got shape {src.shape}")
    size = src.shape[0]
    if size == 0 or size & (size - 1):
        raise ParameterRangeError(f"transform length must be a power of two, got {size}")
    bits = size.bit_length() - 1
    passes = max(1, -(-bits // _BLOCK_BITS))
    buffers = (np.empty(size), np.empty(size))
    low = 0
    for i in range(passes):
        # Blocks as even as possible, largest first: a lone 1- or 2-bit pass
        # would take thousands of tiny products at n = 21 or 22.
        k = (bits + passes - 1 - i) // passes
        dst = buffers[i % 2]
        if low == 0:
            # The lowest bits index rows: multiply 128-row blocks from the right
            # (the matrix is symmetric).
            shape = (-1, min(size >> k, _MAX_COLUMNS), 1 << k)
            np.matmul(src.reshape(shape), _hadamard(k), out=dst.reshape(shape))
        else:
            # Bits low..low+k-1 index the middle axis of (high, 2^k, low);
            # the low axis is cut into blocks of at most 128 columns.
            width = min(1 << low, _MAX_COLUMNS)
            shape = (size >> (low + k), 1 << k, (1 << low) // width, width)
            np.matmul(
                _hadamard(k),
                src.reshape(shape).swapaxes(1, 2),
                out=dst.reshape(shape).swapaxes(1, 2),
            )
        src, low = dst, low + k
    return src


def xor_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f * g)[x] = sum over y of f[y] g[x ^ y], through the transform."""
    return fwht(fwht(f) * fwht(g)) / f.shape[0]


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Expectation-normalized character coefficients of a code's +-1 indicator.

    ``coeffs[mask]`` is the coefficient of the character picking out the
    coordinates in ``mask``.
    """

    n: int
    coeffs: np.ndarray
    source: BinaryCode

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer("dimension", self.n, 1, error=DimensionRangeError))
        self.coeffs.flags.writeable = False

    def coefficient(self, mask: int) -> float:
        return float(self.coeffs[mask])


def spectrum(code: BinaryCode) -> FourierSpectrum:
    """Expand the +-1 indicator of the code (value +1 on code words)."""
    if code.n > MAX_TRANSFORM_DIM:
        raise DimensionRangeError(
            f"spectrum supports dimensions up to {MAX_TRANSFORM_DIM}, got {code.n}"
        )
    size = 1 << code.n
    transformed = fwht(code.indicator(-1.0))
    # The character convention counts a coordinate as active when its bit is 0,
    # so each mask picks up a sign (-1)^popcount(mask) relative to the raw kernel.
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(size, dtype=np.int64)) & 1)
    return FourierSpectrum(code.n, signs * transformed / size, code)


@dataclass(frozen=True)
class LevelSums:
    """Coefficient products of two spectra, summed by character weight."""

    n: int
    s: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer("dimension", self.n, 1, error=DimensionRangeError))
        if len(self.s) != self.n + 1:
            raise ParameterRangeError(
                f"need {self.n + 1} level sums for dimension {self.n}, got {len(self.s)}"
            )


def level_sums(f: FourierSpectrum, g: FourierSpectrum) -> LevelSums:
    if f.n != g.n:
        raise DimensionMismatchError(f"spectra dimensions differ: {f.n} vs {g.n}")
    weights = np.bitwise_count(np.arange(1 << f.n, dtype=np.int64))
    sums = np.bincount(weights, weights=f.coeffs * g.coeffs, minlength=f.n + 1)
    return LevelSums(f.n, tuple(float(v) for v in sums))


def theta_from_levels(levels: LevelSums, rho: float) -> float:
    """Covariance term of the agreement probability: one quarter of the
    rho-weighted level sums above level zero."""
    rho = as_real("correlation", rho, -1.0, 1.0)
    total = 0.0
    power = 1.0
    for k in range(1, levels.n + 1):
        power *= rho
        total += levels.s[k] * power
    return 0.25 * total


def tail_sign_sums(f: FourierSpectrum, g: FourierSpectrum) -> tuple[float, float]:
    """Quarter-sums of coefficient products at weight two and above, split by
    sign: (sum of nonnegative products, sum of negative products).

    The first component is nonnegative, the second nonpositive; together with
    the weight-one term they decompose the covariance at full correlation.
    Mainly useful as a diagnostic of how much cancellation the tail hides.
    """
    if f.n != g.n:
        raise DimensionMismatchError(f"spectra dimensions differ: {f.n} vs {g.n}")
    weights = np.bitwise_count(np.arange(1 << f.n, dtype=np.int64))
    products = f.coeffs * g.coeffs
    tail = weights >= 2
    pos = products[tail & (products >= 0)].sum()
    neg = products[tail & (products < 0)].sum()
    return 0.25 * float(pos), 0.25 * float(neg)
