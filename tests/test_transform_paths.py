"""Bits and memory of the transform paths at n = 12 (pairwise distance
counting) and n = 16 (distance counts from transform level sums).

The digests pin every output byte of the spectral and distance layers, so a
reordered sum, a shortcut that flips a signed zero or a changed rounding shows
up even where a tolerance would pass it.  They were recorded with the
out-of-place transform; a deliberate change of the arithmetic re-records them.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from nisim import (
    collision_prob,
    distance_distribution,
    dual_distribution,
    joint_cells,
    level_sums,
    make_code,
    spectrum,
)

# Code sizes: the 256 x 200 pairs at n = 12 are counted one by one, the
# 3000 x 5000 at n = 16 through the transform.
SIZES = {12: (256, 200), 16: (3000, 5000)}

DIGESTS = {
    12: {
        "spectrum": "ce525ebe380a4736815f50823551b2b8977a8e76e894e8ec0092569deb080659",
        "level_sums": "f40424fe708a8c6a30a763d0a9b6d5ec3790edc8ac45dca594c35376fa8b1a96",
        "dual_distribution": "b131fe137329979f502f7e0482d6ab87c92e1010c9827563057f47b4d0a20c5b",
        "distance_distribution": "7abf3553b5bc49f629e44e1ae301bdbc971e520f64f86939d8886c502ce47ab0",
        "collision_prob": "e869a87a8a99b4a9280ad2b9a96b1139b9e2988a0de3ea5a8c5d6b821b21c5a5",
        "joint_cells": "6a20bb8e14b338829f2a927ffc2889482e4db5763985c68047c2dd2785ad4a4d",
    },
    16: {
        "spectrum": "97533a33ca22b317dce3d20d97caeeea8f518615991eefdcab2efbbd2cd44725",
        "level_sums": "d9ced2e1000b2fbac9ddc15f24e1146b7fd17a9c43864ad46f0b8176f5cfe65a",
        "dual_distribution": "d420d4941461fc71d4d6fdea90e732b1471059e67759de1ce0e1471b2cd5a980",
        "distance_distribution": "45a2c70fa010a1ada871dd481061599349ab3d4fbd18a818169f645ce4f30f81",
        "collision_prob": "3b01cee46931c70c42322aa4fdaeb7f3f0eaf99518faf7422181036d400a7745",
        "joint_cells": "49ca1b34a409945ac788b96cedeedba8ea77b846e10fc7a8c944aa24611b8ec9",
    },
}


def seeded_pair(n):
    rng = np.random.default_rng(n)
    return [make_code(n, rng.choice(1 << n, size, replace=False)) for size in SIZES[n]]


def output_bytes(a, b):
    fa, fb = spectrum(a), spectrum(b)
    cells = joint_cells(a, b, 0.3)
    return {
        "spectrum": fa.coeffs.tobytes() + fb.coeffs.tobytes(),
        "level_sums": np.array(level_sums(fa, fb).s).tobytes(),
        "dual_distribution": np.array(dual_distribution(a, b).q).tobytes(),
        "distance_distribution": np.array(distance_distribution(a, b).p).tobytes(),
        "collision_prob": np.float64(collision_prob(a, b, 0.3)).tobytes(),
        "joint_cells": np.array([cells.q_pp, cells.q_pm, cells.q_mp, cells.q_mm]).tobytes(),
    }


@pytest.mark.parametrize("n", sorted(SIZES))
def test_outputs_keep_their_bits(n):
    a, b = seeded_pair(n)
    assert (a.size * b.size <= max(2 * n << n, 1 << 15)) == (n == 12)
    coeffs = spectrum(a).coeffs
    # The pin covers signed zeros: odd-weight masks with a zero sum carry -0.0.
    assert np.any((coeffs == 0) & np.signbit(coeffs))
    assert np.any((coeffs == 0) & ~np.signbit(coeffs))
    got = {k: hashlib.sha256(v).hexdigest() for k, v in output_bytes(a, b).items()}
    assert got == DIGESTS[n]


def peak_arrays(call, n):
    """Peak traced allocation of one call, in arrays of 2^n doubles; a first
    call fills the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 << n)
    finally:
        tracemalloc.stop()


# Before the in-place transform: spectrum 3.0, the transform path of
# distance_distribution 5.0 and collision_prob 5.0 arrays; before level sums
# straight from the transform products, collision_prob and dual_distribution
# 4.0.
@pytest.mark.parametrize(
    "name, arrays",
    [
        ("spectrum", 2),
        ("distance_distribution", 3),
        ("collision_prob", 3),
        ("dual_distribution", 3),
    ],
)
def test_peak_memory_at_n16(name, arrays):
    n = 16
    a, b = seeded_pair(n)
    call = {
        "spectrum": lambda: spectrum(a),
        "distance_distribution": lambda: distance_distribution(a, b),
        "collision_prob": lambda: collision_prob(a, b, 0.3),
        "dual_distribution": lambda: dual_distribution(a, b),
    }[name]
    assert peak_arrays(call, n) < arrays + 0.5
