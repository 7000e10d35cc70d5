"""Shared fixtures, slow-path reference implementations, and reporting hooks.

The reference implementations here deliberately avoid the package's vectorized
code paths.  They walk codewords with plain Python loops so that agreement
between the two is evidence of correctness rather than of shared bugs.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nisim import apply_symmetry, exhaustive_extremes, make_code, symmetry_group

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# reference implementations


def radix2_fwht(values):
    """Walsh transform by n radix-2 butterfly passes over a copy of the input:
    the summation order the blocked transform replaced."""
    arr = np.array(values, dtype=np.float64, copy=True)
    h = 1
    while h < arr.shape[0]:
        view = arr.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        view[:, :h] = left + view[:, h:]
        view[:, h:] = left - view[:, h:]
        h *= 2
    return arr


def brute_distance_distribution(code_a, code_b):
    """Distance histogram of two codes by direct double loop."""
    n = code_a.n
    counts = [0] * (n + 1)
    for x in code_a.words:
        for y in code_b.words:
            counts[bin(x ^ y).count("1")] += 1
    total = len(code_a.words) * len(code_b.words)
    return [c / total for c in counts]


def brute_collision_prob(n, words_a, words_b, rho):
    """Joint one-one probability by summing the cell mass of every word pair."""
    lo = (1.0 - rho) / 4.0
    hi = (1.0 + rho) / 4.0
    total = 0.0
    for x in words_a:
        for y in words_b:
            d = bin(x ^ y).count("1")
            total += lo**d * hi ** (n - d)
    return total


def fraction_collision_prob(n, words_a, words_b, rho):
    """Joint one-one probability as an exact Fraction: the count of word pairs
    at each distance d times the cell mass ((1-rho)/4)^d ((1+rho)/4)^(n-d)."""
    counts = [0] * (n + 1)
    for x in words_a:
        for y in words_b:
            counts[bin(x ^ y).count("1")] += 1
    r = Fraction(rho)
    lo, hi = (1 - r) / 4, (1 + r) / 4
    return sum(c * lo**d * hi ** (n - d) for d, c in enumerate(counts) if c)


def brute_dual_distribution(code_a, code_b):
    """Weight-graded character sums, normalized so the zero level equals one."""
    n = code_a.n
    m1 = len(code_a.words)
    m2 = len(code_b.words)
    q = [0.0] * (n + 1)
    for u in range(1 << n):
        ta = sum(-1 if bin(u & x).count("1") % 2 else 1 for x in code_a.words)
        tb = sum(-1 if bin(u & x).count("1") % 2 else 1 for x in code_b.words)
        q[bin(u).count("1")] += ta * tb / (m1 * m2)
    return q


def brute_extremes_no_symmetry(n, m, n_second, rho):
    """Extremes of the joint one-one probability over every code pair.

    Enumerates all size-m by size-n_second pairs without any symmetry
    reduction, so it cross-checks both the kernel arithmetic and the orbit
    machinery of the search code.  Only sensible for n <= 3.
    """
    best_max = -1.0
    best_min = 2.0
    univ = range(1 << n)
    for wa in combinations(univ, m):
        for wb in combinations(univ, n_second):
            q = brute_collision_prob(n, wa, wb, rho)
            best_max = max(best_max, q)
            best_min = min(best_min, q)
    return best_min, best_max


def brute_orbit(*codes):
    """Joint images of the codes under every cube symmetry, as tuples of word
    lists, one per group element.  Applies each element to the words
    themselves, so it shares nothing with the package's canonicalization keys.  The minimum of
    the result is the canonical form (one code) or canonical pair (two)."""
    return [
        tuple(apply_symmetry(g, c).words for c in codes)
        for g in symmetry_group(codes[0].n)
    ]


def brute_orbit_minima(n, m):
    """Smallest word list of each symmetry orbit of m-subsets of the n-cube,
    sorted.  Each subset not yet seen is closed under the whole group."""
    seen, minima = set(), []
    for combo in combinations(range(1 << n), m):
        if combo in seen:
            continue
        orbit = {words for (words,) in brute_orbit(make_code(n, combo))}
        seen |= orbit
        minima.append(min(orbit))
    return sorted(minima)


def random_code(rng, n, size=None):
    """Uniformly random code of the given (or random nonzero) size."""
    if size is None:
        size = int(rng.integers(1, (1 << n) + 1))
    words = rng.choice(1 << n, size=size, replace=False)
    return make_code(n, [int(w) for w in words])


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def extremes_cache():
    """Memoized exhaustive search so acceptance tests can share instances."""
    cache = {}

    def get(n, m, n_second, rho):
        key = (n, m, n_second, rho)
        if key not in cache:
            cache[key] = exhaustive_extremes(n, m, n_second, rho)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240823)


# ---------------------------------------------------------------------------
# acceptance reporting

ACCEPTANCE_TESTS = {
    "test_c1_balanced_sharpness": (
        1,
        "balanced half-density extremes equal (1 +/- rho)/4 to 1e-12",
    ),
    "test_c2_quarter_density_product_point": (
        2,
        "quarter-density maximum equals ((1+rho)/4)^2 with subcube witnesses",
    ),
    "test_c3_bounds_contain_exhaustive_extremes": (
        3,
        "combined analytic bounds contain every exhaustive extreme (slack 1e-9)",
    ),
    "test_c4_average_distance_floor_equalities": (
        4,
        "self-pair minimum average distance equals n/2 - 1/(4a) with subcube witnesses",
    ),
    "test_c5_average_distance_band_equalities": (
        5,
        "complement and star constructions meet the average-distance band edges",
    ),
    "test_c6_identity_families": (
        6,
        "randomized identity families (transforms, duals, moments) all pass",
    ),
    "test_c7_certificate_crossover": (
        7,
        "certificate bound beats the closed forms at low density and loses near 1/2",
    ),
    "test_c8_variational_rate_bound": (
        8,
        "variational exponent stays below ln(1/a) and dominates the simple rate bound",
    ),
    "test_c9_complement_duality": (
        9,
        "minimum collision equals N/2^n minus the complement maximum to 1e-12",
    ),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            if name not in ACCEPTANCE_TESTS:
                continue
            num, desc = ACCEPTANCE_TESTS[name]
            status = "PASS" if outcome == "passed" else "FAIL"
            if lines.get(num, (None, "PASS"))[1] == "FAIL":
                continue
            lines[num] = (desc, status)
    if lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(lines):
            desc, status = lines[num]
            terminalreporter.write_line(f"criterion {num} [{status}] {desc}")
