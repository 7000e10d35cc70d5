"""Extremal searches over pairs of codes.

``exhaustive_extremes`` finds the exact extremes of the agreement probability
(or average distance) over all code pairs of given sizes, pruning by symmetry:
the first code ranges over orbit representatives, the second is its exact best
response, read off one sorted column of the pair kernel as the words above the
boundary entry and the words tied with it.  The kernel is exact (integer pair
weights, or integer distances), so ranking is by exact comparison, and each
extreme is the witness's kernel sum over (4 den)^n or m * n_second, rounded
once.  The witness is the smallest jointly canonical pair: the first optimal
representative, and the fill of its tied words that the representative's
stabilizer moves to the smallest words.

``local_search`` scales to larger blocklengths by alternating exact best
responses: against a fixed partner the best code of a given size is read off
one XOR convolution, and the two codes take turns until neither changes.  It
starts from the subcube pair (when both sizes are powers of two), the
Hamming-ball pair and seeded random pairs.  Its value is attained by its
witness, so it is a valid one-sided bound, nothing more.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .codes import (
    BinaryCode,
    canonical_pair,
    format_code,
    make_code,
    star,
    subcube,
    hamming_ball,
    MAX_CANONICAL_DIM,
    _key_bits,
    _key_code,
    _orbit_keys,
)
from .errors import (
    DimensionRangeError,
    ParameterRangeError,
    SearchBudgetError,
    as_integer,
    as_real,
)
from .fourier import _transform, _weights
from .model import _pair_weights, collision_prob

RHO_CERTIFICATION_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
MAX_EXHAUSTIVE_DIM = 4
MAX_LOCAL_DIM = 16
MAX_LOCAL_ROUNDS = 1000
_TIME_BUDGET_S = 600.0


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an extremal search.

    Exactly one objective's fields are populated: (max_q, min_q) for the
    agreement probability, (max_d, min_d) for average distance.  A local
    search fills only the requested direction.  For an exhaustive search
    ``pairs_evaluated`` is the number of pairs covered, orbit representatives
    times every second code of the requested size; for a local search it is
    the sum over starts of (rounds + 1), a round being a best response that
    changed a code.  ``to_json_dict`` serializes every field in declaration
    order, each witness as its two formatted codes, except ``wall_time_s``,
    which is measured and therefore kept out of serialized output.
    """

    n: int
    m: int
    n_second: int
    rho: float | None
    objective: str
    exhaustive: bool
    max_q: float | None = None
    min_q: float | None = None
    max_d: float | None = None
    min_d: float | None = None
    witness_max: tuple[BinaryCode, BinaryCode] | None = None
    witness_min: tuple[BinaryCode, BinaryCode] | None = None
    pairs_evaluated: int = 0
    orbits_enumerated: int = 0
    wall_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time_s"}
        for key in ("witness_max", "witness_min"):
            if out[key] is not None:
                out[key] = {"first": format_code(out[key][0]), "second": format_code(out[key][1])}
        return out


@functools.cache
def _orbit_reps(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically first member of each symmetry orbit of m-subsets of
    the n-cube, in that order: each subset whose key is unseen opens an orbit.
    Memoized as immutable tuples, at most 30 keys as n <= MAX_EXHAUSTIVE_DIM:
    scans at every rho, second size and objective share each (n, m)'s loop."""
    combos = list(itertools.combinations(range(1 << n), m))
    seen, reps = set(), []
    for combo, key in zip(combos, _key_bits(n, np.array(combos)).sum(axis=1).tolist()):
        if key not in seen:
            reps.append(combo)
            seen.update(_orbit_keys(n, np.array([combo]))[0].tolist())
    return tuple(reps)


def _exact_kernel(n: int, weights: list[int] | None) -> np.ndarray:
    """The pair kernel over word pairs in exact integers: their distance if
    ``weights`` is None, else the integer pair weight W_d of ``_pair_weights``
    at their distance d, as Python ints."""
    words = np.arange(1 << n, dtype=np.int64)
    dists = np.bitwise_count(words[:, None] ^ words[None, :]).astype(np.int64)
    if weights is None:
        return dists
    return np.array(weights, dtype=object)[dists]


def _best_responses(reps, kernel, n_second: int, sign: int):
    """The first representative A attaining the extreme of sign * 1_A K 1_B,
    compared exactly, with the words of its column sign * kernel[A].sum(0)
    above its n_second-th largest entry and the words equal to that entry.

    The best B against A are exactly the words above filled up with any
    n_second - len(above) of the tied words.  Representatives come in
    lexicographic order, so A is the canonical optimal code with the largest key.
    """
    cols = sign * kernel[np.array(reps)].sum(axis=1)
    top = np.sort(cols, axis=1)[:, ::-1][:, :n_second]
    scores = top.sum(axis=1)
    i = np.flatnonzero(scores == scores.max())[0]
    edge = top[i, -1]
    return reps[i], np.flatnonzero(cols[i] > edge), np.flatnonzero(cols[i] == edge)


def _witness(n: int, a, above: np.ndarray, tied: np.ndarray, n_second: int):
    """The smallest joint canonical pair (A, B) over every B made of the words
    ``above`` and n_second - len(above) of the words ``tied``; A is canonical.

    A canonical pair maximizes A's key first, so B moves only under A's
    stabilizer: the group elements giving A the identity's key (column 0).
    Under each, the best fill is the tied words with the smallest images (the
    largest key bits), and the largest key of B over them wins.
    """
    keys = _orbit_keys(n, np.array([a]), above[None], tied[:, None])
    stab = keys[0] == keys[0, 0]
    fill = np.sort(keys[2:, stab], axis=0)[len(above) + len(tied) - n_second :]
    return _key_code(n, keys[0, 0]), _key_code(n, (keys[1, stab] + fill.sum(axis=0)).max())


def exhaustive_extremes(
    n: int, m: int, n_second: int, rho: float | None, objective: str = "collision"
) -> OracleResult:
    """Exact extremes over every pair (|A| = m, |B| = n_second) of the n-cube.

    Refuses dimensions above 4 (the search space past that exceeds the time
    budget by orders of magnitude; use :func:`local_search` instead).
    """
    n = as_integer("n", n, 1, error=DimensionRangeError)
    if n > MAX_EXHAUSTIVE_DIM:
        raise SearchBudgetError(
            f"exhaustive search at dimension {n} would exceed the {_TIME_BUDGET_S:.0f}s "
            f"budget; use local_search for one-sided bounds"
        )
    size = 1 << n
    m, n_second = as_integer("m", m, 1, size), as_integer("n_second", n_second, 1, size)
    if objective not in ("collision", "distance"):
        raise ParameterRangeError(f"objective must be collision or distance, got {objective!r}")
    if objective == "collision":
        if rho is None:
            raise ParameterRangeError("collision objective needs a correlation value")
        rho = as_real("correlation", rho, -1.0, 1.0)
    else:
        rho = None

    start = time.perf_counter()
    reps = _orbit_reps(n, m)
    weights, scale = _pair_weights(n, rho) if objective == "collision" else (None, m * n_second)
    kernel = _exact_kernel(n, weights)

    def resolve(sign: int):
        pair = _witness(n, *_best_responses(reps, kernel, n_second, sign), n_second)
        return int(kernel[np.ix_(pair[0].words, pair[1].words)].sum()) / scale, pair

    (hi_value, hi_pair), (lo_value, lo_pair) = resolve(+1), resolve(-1)
    elapsed = time.perf_counter() - start

    common = dict(
        n=n,
        m=m,
        n_second=n_second,
        rho=rho,
        objective=objective,
        exhaustive=True,
        witness_max=hi_pair,
        witness_min=lo_pair,
        pairs_evaluated=len(reps) * math.comb(size, n_second),
        orbits_enumerated=len(reps),
        wall_time_s=elapsed,
    )
    if objective == "collision":
        return OracleResult(max_q=hi_value, min_q=lo_value, **common)
    return OracleResult(max_d=hi_value, min_d=lo_value, **common)


def exhaustive_distance_extremes(n: int, m: int, n_second: int) -> OracleResult:
    """Exact extremes of the average distance over pairs of given sizes."""
    return exhaustive_extremes(n, m, n_second, None, objective="distance")


def _top(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m largest scores, largest first and ties by index, as
    np.argsort(-scores, kind="stable")[:m], sorting only the entries at or
    above the m-th largest."""
    neg = -scores
    kept = np.flatnonzero(neg <= np.partition(neg, m - 1)[m - 1])
    return kept[np.argsort(neg[kept], kind="stable")[:m]]


def _alternate(g_hat: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Give A and B in turn their exact best response until one changes nothing.

    ``g_hat`` is sign / 2^n times the transform of the pair weight by word
    weight, so fwht(fwht(1_B) * g_hat) is sign * K 1_B, the score of every word
    against B, and the best A of size m is its top m entries (ties by word
    index); likewise for B against A.  The scores are floats, so which of two
    nearly equal words wins depends on fwht's rounding.  A side changes only
    when its response beats it by more than 1e-15, so each round raises sign * q
    and a fixed point is single-swap optimal.  Returns (a, b, sign * q, rounds,
    converged).
    """
    sides, side, rounds = [a, b], 0, 0
    for step in itertools.count():
        other = np.zeros(g_hat.shape[0])
        other[sides[1 - side]] = 1.0
        scores = _transform(other)
        scores = _transform(np.multiply(scores, g_hat, out=scores))
        current = float(scores[sides[side]].sum())
        top = _top(scores, sides[side].shape[0])
        if float(scores[top].sum()) > current + 1e-15:
            if rounds == MAX_LOCAL_ROUNDS:
                return (*sides, current, rounds, False)
            sides[side], rounds = top, rounds + 1
        elif step:
            return (*sides, current, rounds, True)
        side = 1 - side


def local_search(
    n: int,
    m: int,
    n_second: int,
    rho: float,
    direction: str = "max",
    seed: int = 0,
    iters: int = 20,
) -> OracleResult:
    """Seeded alternating best response over code pairs; returns a one-sided bound.

    Starts, each improved until neither code's exact best response changes it:

    * the subcube pair (antisubcube for ``min``) when both sizes are powers of
      two;
    * the Hamming-ball pair: the m and n_second lowest-weight words (ties by
      word index), the second code reflected for ``min``;
    * ``iters`` random pairs drawn from ``seed``.

    The result keeps this contract:

    * the reported value is attained by the witness, so it bounds the true
      extreme from one side only;
    * the witness is single-swap optimal: replacing one word of either code
      does not improve it;
    * it is no worse than the subcube and Hamming-ball starts, and never better
      than the exhaustive optimum;
    * it is deterministic for a fixed seed on a given numpy/BLAS build.

    Which of several fixed points a start reaches depends on the float rounding
    of its scores and is not part of the contract.  Starts are ranked by the
    witness's ``collision_prob``, the exact value rounded once, compared
    exactly; ties go to the smallest canonical pair at n <=
    ``MAX_CANONICAL_DIM``; above it, to the smallest sorted word lists, and
    the witness is reported as found, not canonicalized.  A start still
    improving after ``MAX_LOCAL_ROUNDS`` rounds stops there, possibly short of
    single-swap optimality, with a ``RuntimeWarning``.
    """
    n = as_integer("n", n, 1, MAX_LOCAL_DIM, DimensionRangeError)
    size = 1 << n
    m, n_second = as_integer("m", m, 1, size), as_integer("n_second", n_second, 1, size)
    rho = as_real("correlation", rho, -1.0, 1.0)
    if direction not in ("max", "min"):
        raise ParameterRangeError(f"direction must be max or min, got {direction!r}")
    iters, seed = as_integer("iters", iters, 0), as_integer("seed", seed, 0)

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sign = 1.0 if direction == "max" else -1.0
    weight = _weights(n)
    # The transform of the pair weight by word weight in closed form: per
    # coordinate the cell masses (1 +- rho)/4 sum to 1/2 and differ by rho/2,
    # so mask S gets rho^|S| / 2^n.
    g_hat = np.power(rho, np.arange(n + 1.0))[weight] * (sign / 4.0**n)
    starts = []
    if m & (m - 1) == 0 and n_second & (n_second - 1) == 0:
        pin_a = n - m.bit_length() + 1
        pin_b = n - n_second.bit_length() + 1
        b0 = subcube(n, pin_b) if direction == "max" else star(subcube(n, pin_b))
        starts.append(("subcube", subcube(n, pin_a).word_array(), b0.word_array()))
    by_weight = np.argsort(weight, kind="stable")
    reflect = 0 if direction == "max" else size - 1
    starts.append(("hamming-ball", by_weight[:m], by_weight[:n_second] ^ reflect))
    for i in range(iters):
        starts.append(
            (f"random restart {i}", rng.permutation(size)[:m], rng.permutation(size)[:n_second])
        )

    outcomes = []
    total_rounds = 0
    for name, a0, b0 in starts:
        a, b, score, rounds, converged = _alternate(g_hat, a0, b0)
        total_rounds += rounds + 1
        if not converged:
            warnings.warn(
                f"local search n={n} m={m} n2={n_second} rho={rho} {direction}: start "
                f"{name!r} was still improving after {MAX_LOCAL_ROUNDS} rounds",
                RuntimeWarning,
                stacklevel=2,
            )
        outcomes.append((score, np.sort(a), np.sort(b)))

    # Transform scores rank the starts; only pairs that can still win get the
    # reported value, canonical form and tie-break below, where the correctly
    # rounded values are compared exactly.
    top = max(score for score, _, _ in outcomes)
    best_rank = best_value = best_pair = None
    seen = set()
    for score, a, b in outcomes:
        pair_bytes = (a.tobytes(), b.tobytes())
        if score < top - 1e-12 or pair_bytes in seen:
            continue
        seen.add(pair_bytes)
        code_a = make_code(n, a)
        code_b = make_code(n, b)
        value = collision_prob(code_a, code_b, rho)
        if n <= MAX_CANONICAL_DIM:
            code_a, code_b = canonical_pair(code_a, code_b)
        rank = (-sign * value, code_a.words, code_b.words)
        if best_rank is None or rank < best_rank:
            best_rank, best_value, best_pair = rank, value, (code_a, code_b)
    elapsed = time.perf_counter() - start

    common = dict(
        n=n,
        m=m,
        n_second=n_second,
        rho=rho,
        objective="collision",
        exhaustive=False,
        pairs_evaluated=total_rounds,
        orbits_enumerated=0,
        wall_time_s=elapsed,
    )
    if direction == "max":
        return OracleResult(max_q=best_value, witness_max=best_pair, **common)
    return OracleResult(min_q=best_value, witness_min=best_pair, **common)


def construction_value(kind: str, n: int, i: int, rho: float) -> float:
    """Agreement probability of a named explicit construction.

    ``symmetric-subcube``: both codes pin the first i coordinates to 1, giving
    ((1+rho)/4)^i.  ``antisymmetric-subcube``: the second code is the
    coordinate-wise reflection, giving ((1-rho)/4)^i.  ``hamming-ball-pair``:
    both codes are the radius-i ball around the all-ones word.
    """
    rho = as_real("correlation", rho, -1.0, 1.0)
    if kind == "symmetric-subcube":
        a = subcube(n, i)
        return collision_prob(a, a, rho)
    if kind == "antisymmetric-subcube":
        a = subcube(n, i)
        return collision_prob(a, star(a), rho)
    if kind == "hamming-ball-pair":
        ball = hamming_ball(n, (1 << n) - 1, i)
        return collision_prob(ball, ball, rho)
    raise ParameterRangeError(
        f"kind must be symmetric-subcube, antisymmetric-subcube, or hamming-ball-pair, got {kind!r}"
    )
