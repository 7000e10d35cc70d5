"""Bits, memory and transform counts of the transform paths at n = 12
(pairwise distance counting) and n = 16 (distance counts from transform level
sums), and exact agreement values on the transform path at n = 14.

The digests pin every output byte of the spectral and distance layers, so a
reordered sum, a shortcut that flips a signed zero or a changed rounding shows
up even where a tolerance would pass it.  They were recorded with the
out-of-place transform; a deliberate change of the arithmetic re-records them.
"""

import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nisim
from nisim import (
    collision_prob,
    distance_distribution,
    dual_distribution,
    exhaustive_extremes,
    fwht,
    hamming_ball,
    joint_cells,
    level_sums,
    make_code,
    spectrum,
    subcube,
)
from nisim.distance import _counted_pairwise

# Code sizes: the 64 x 100 pairs at n = 12 are counted one by one, the
# 3000 x 5000 at n = 16 through the transform.  The n = 12 pair was 256 x 200
# until the pairwise limit fell to max(n 2^n / 8, 2^13) pairs; its row was
# re-recorded for the smaller pair, and matches the code before that change.
SIZES = {12: (64, 100), 16: (3000, 5000)}

DIGESTS = {
    12: {
        "spectrum": "4963d84d958119193db4979bec768a998d38919ab6f1a8765b283761db18eca2",
        "level_sums": "b8e6a89a7eae79af4cf68fd80495f4618dddc9197fa796e11ca2fcd33f25d68d",
        "dual_distribution": "5a428c88bdd2d6d7e7d7b19a929ff4fce98f80cc2313a5121a1b00560a712ce7",
        "distance_distribution": "098b613eaf42e795bfdfae9ee1baee96ef02a2ed3b8b1257eb6737d8993eb78a",
        "collision_prob": "d4ed26c983a22963d1ef4f5cedc8c730fc90b41300098c6199cd5543944f8cb8",
        "joint_cells": "6b8ee1bd9868d292b2d709e9417a24e30abf3d3f581ac04e038c8232e315498d",
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
    assert (a.size * b.size <= max(n << n >> 3, 1 << 13)) == (n == 12)
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


# Ceilings on the peak, in arrays of 2^n doubles.  With float32 transforms of
# the int8 tables the peaks are spectrum 1.63 and the others 2.75; float64
# scratch gave 2.13 and 3.25, which fail.  Before the in-place transform:
# spectrum 3.0, the transform path of distance_distribution 5.0 and
# collision_prob 5.0 arrays; before level sums straight from the transform
# products, collision_prob and dual_distribution 4.0.
@pytest.mark.parametrize(
    "name, arrays",
    [
        ("spectrum", 2),
        ("distance_distribution", 3),
        ("collision_prob", 3),
        ("joint_cells", 3),
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
        "joint_cells": lambda: joint_cells(a, b, 0.3),
        "dual_distribution": lambda: dual_distribution(a, b),
    }[name]
    assert peak_arrays(call, n) < arrays


def random_pair(n, size_a, size_b):
    rng = np.random.default_rng(n)
    return [make_code(n, rng.choice(1 << n, size, replace=False)) for size in (size_a, size_b)]


def self_pair(n, size):
    a = random_pair(n, size, size)[0]
    return a, a


# Public fwht calls per call: one 0/1-indicator product counts distances by
# transform and gives the dual at every n.  collision_prob takes it once at
# n <= 24: on the transform path its counts and its spectral check read the
# same level sums (it took 4 transforms, 2 for a self pair, when the counts
# came from distance_distribution); on the pairwise path only the check
# reads them.  A self pair transforms its one table once and squares it.
@pytest.mark.parametrize(
    "name, call, transforms",
    [
        ("distance pairwise", lambda: distance_distribution(*random_pair(12, 64, 100)), 0),
        ("distance by transform", lambda: distance_distribution(*random_pair(12, 256, 200)), 2),
        ("dual at n = 10", lambda: dual_distribution(*random_pair(10, 64, 100)), 2),
        ("dual at n = 12", lambda: dual_distribution(*random_pair(12, 64, 100)), 2),
        ("dual self at n = 10", lambda: dual_distribution(*self_pair(10, 64)), 1),
        ("distance self by transform", lambda: distance_distribution(*self_pair(12, 256)), 1),
        ("collision pairwise", lambda: collision_prob(*random_pair(12, 64, 100), 0.3), 2),
        ("collision by transform", lambda: collision_prob(*random_pair(12, 256, 200), 0.3), 2),
        ("collision self by transform", lambda: collision_prob(*self_pair(12, 256), 0.3), 1),
        ("collision at n = 14", lambda: collision_prob(*random_pair(14, 300, 8192), 0.3), 2),
        ("joint_cells by transform", lambda: joint_cells(*random_pair(12, 256, 200), 0.3), 2),
        ("collision at n = 30", lambda: collision_prob(*random_pair(30, 64, 100), 0.3), 0),
        ("exhaustive", lambda: exhaustive_extremes(3, 3, 4, 0.3), 0),
        ("exhaustive distance", lambda: exhaustive_extremes(3, 3, 4, None, "distance"), 0),
    ],
)
def test_transform_counts(monkeypatch, name, call, transforms):
    calls = []

    def counted(values):
        calls.append(len(values))
        return fwht(values)

    for module in (nisim.fourier, nisim.distance, nisim.model, nisim.oracle):
        if hasattr(module, "fwht"):
            monkeypatch.setattr(module, "fwht", counted)
    call()
    assert len(calls) == transforms


def reference_q(a, b, rho):
    """Exact agreement from distance counts by a plain XOR popcount over all
    pairs, each pair weighted by (den - num)^d (den + num)^(n - d) / (4 den)^n."""
    n = a.n
    aw = np.array(a.words, dtype=np.uint64)
    bw = np.array(b.words, dtype=np.uint64)
    counts = np.bincount(np.bitwise_count(aw[:, None] ^ bw[None, :]).ravel(), minlength=n + 1)
    num, den = rho.as_integer_ratio()
    total = sum(int(c) * (den - num) ** d * (den + num) ** (n - d) for d, c in enumerate(counts))
    return float(Fraction(total, (4 * den) ** n))


@pytest.mark.parametrize(
    "pair",
    [lambda: random_pair(14, 300, 8192), lambda: (subcube(14, 4), hamming_ball(14, 0b1011, 3))],
    ids=["random 300 x 8192", "subcube and ball"],
)
@pytest.mark.parametrize("rho", [0.3, -0.7, 0.95])
def test_transform_path_matches_an_independent_count(pair, rho):
    a, b = pair()
    assert not _counted_pairwise(a, b)
    q = reference_q(a, b, rho)
    assert collision_prob(a, b, rho) == q
    cells = joint_cells(a, b, rho)
    assert (cells.q_pp, cells.q_pm, cells.q_mp) == (q, a.density - q, b.density - q)
    assert cells.q_mm == 1.0 - a.density - b.density + q
