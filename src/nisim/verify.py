"""Randomized cross-validation of the package's identity lattice.

Generates seeded random code pairs across several blocklengths and checks
every identity the modules promise: transform inversions, enumerator and
moment reflections, level-sum relations (the 0/1 dual against the +-1
spectra among them), path agreement for the agreement probability, and the
Cauchy-Schwarz inequalities tying cross statistics to self statistics.  Any
failure names the violated identity and the instance.

The report is deterministic for a fixed seed, so its rendered form can be
compared byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import (
    MAX_CANONICAL_DIM,
    MAX_TRANSFORM_DIM,
    BinaryCode,
    CubeSymmetry,
    apply_symmetry,
    canonical_form,
    complement,
    make_code,
)
from .errors import ParameterRangeError, as_integer
from .distance import (
    DistanceDistribution,
    _poly_eval,
    distance_distribution,
    distance_moment,
    dual_distribution,
)
from .fourier import fwht, level_sums, spectrum, theta_from_levels

_DEFAULT_DIMS = (4, 6, 8, 10)
_RHO_GRID = (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0)

FAMILY_NAMES = (
    "parseval",
    "transform-self-inverse",
    "level-one-extraction",
    "level-one-sum",
    "dual-bridge",
    "macwilliams-forward",
    "macwilliams-round-trip",
    "complement-average-distance",
    "star-average-distance",
    "moment-reflection",
    "enumerator-complement",
    "enumerator-star",
    "collision-path-agreement",
    "covariance-range",
    "negation-reduction",
    "dual-cauchy-schwarz",
    "distance-cauchy-schwarz",
    "enumerator-cauchy-schwarz",
    "canonical-invariance",
    "symmetry-distance-invariance",
)


@dataclass(frozen=True)
class FamilyResult:
    name: str
    checked: int
    failed: int
    worst_err: float
    first_failures: tuple[str, ...]


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    trials: int
    dims: tuple[int, ...]
    families: tuple[FamilyResult, ...]

    @property
    def passed(self) -> bool:
        return all(f.failed == 0 for f in self.families)

    @property
    def failed_families(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.families if f.failed > 0)

    def to_text(self) -> str:
        lines = [f"verify seed={self.seed} trials={self.trials} dims={list(self.dims)}"]
        for f in self.families:
            status = "PASS" if f.failed == 0 else "FAIL"
            lines.append(
                f"{f.name}: {status} checked={f.checked} worst={f.worst_err:.3e}"
            )
            for msg in f.first_failures:
                lines.append(f"  {msg}")
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {overall}")
        return "\n".join(lines) + "\n"


def _distance_path(dist: DistanceDistribution, pairs: int, rho: float) -> float:
    """Agreement probability of ``pairs`` code pairs with this distance
    distribution, in floats with the textbook pair weights."""
    apart, alike = (1.0 - rho) / 4.0, (1.0 + rho) / 4.0
    weights = [apart**d * alike ** (dist.n - d) for d in range(dist.n + 1)]
    return math.fsum(pairs * p * w for p, w in zip(dist.p, weights) if p > 0.0)


class _Collector:
    def __init__(self, fault: str | None):
        self.fault = fault
        self._fault_pending = {fault} if fault else set()
        self.stats: dict[str, list] = {name: [0, 0.0, []] for name in FAMILY_NAMES}

    def check(self, name: str, err: float, tol: float, desc: str) -> None:
        if name in self._fault_pending:
            self._fault_pending.discard(name)
            err = err + 1.0
        st = self.stats[name]
        st[0] += 1
        st[1] = max(st[1], err)
        if not err <= tol:
            if len(st[2]) < 3:
                st[2].append(f"{desc}: error {err:.3e} exceeds {tol:.1e}")

    def results(self) -> tuple[FamilyResult, ...]:
        out = []
        for name in FAMILY_NAMES:
            checked, worst, fails = self.stats[name]
            out.append(FamilyResult(name, checked, len(fails), worst, tuple(fails)))
        return out


def _run_families(a: BinaryCode, b: BinaryCode, sym: CubeSymmetry | None, c: _Collector) -> None:
    n = a.n
    size = 1 << n
    da, db = a.density, b.density
    fa = spectrum(a)
    levels = level_sums(fa, spectrum(b))
    p_ab = distance_distribution(a, b)
    p_aa, p_bb = distance_distribution(a), distance_distribution(b)
    dual_ab, dual_aa, dual_bb = dual_distribution(a, b), dual_distribution(a), dual_distribution(b)
    # the complement of the full cube is empty
    p_acb = distance_distribution(complement(a), b) if a.size < size else None
    where = f"n={n} |A|={a.size} |B|={b.size}"

    err = abs(float(np.sum(fa.coeffs**2)) - 1.0)
    c.check("parseval", err, 1e-9, where)

    ind = a.indicator()
    err = float(np.max(np.abs(fwht(fwht(ind)) / size - ind)))
    c.check("transform-self-inverse", err, 1e-9, where)

    signs = 2.0 * ((a.word_array()[:, None] >> np.arange(n, dtype=np.uint64)) & 1) - 1.0
    expect = 2.0 * signs.sum(axis=0) / size
    got = np.array([fa.coeffs[1 << i] for i in range(n)])
    c.check("level-one-extraction", float(np.max(np.abs(got - expect))), 1e-9, where)

    d_ab = distance_moment(p_ab, 1)
    err = abs(levels.s[1] - 4.0 * da * db * (n - 2.0 * d_ab))
    c.check("level-one-sum", err, 1e-9, where)

    # Above level 0 the spectra's level sums over 4ab are the 0/1 dual.
    bridge = np.array(levels.s[1:]) / (4.0 * da * db)
    err = float(np.max(np.abs(bridge - np.array(dual_ab.q[1:]))))
    c.check("dual-bridge", err, 1e-9, where)

    for z in (0.3, 1.0, 1.7):
        lhs = _poly_eval(dual_ab.q, z)
        rhs = (1.0 + z) ** n * _poly_eval(p_ab.p, (1.0 - z) / (1.0 + z))
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        c.check("macwilliams-forward", err, 1e-9, f"{where} z={z}")

    for z in (0.0, 0.4, 1.0, 2.5):
        lhs = _poly_eval(p_ab.p, z)
        rhs = ((1.0 + z) / 2.0) ** n * _poly_eval(dual_ab.q, (1.0 - z) / (1.0 + z))
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        c.check("macwilliams-round-trip", err, 1e-9, f"{where} z={z}")

    if a.size < size:
        lhs = a.size * d_ab + (size - a.size) * distance_moment(p_acb, 1)
        rhs = n * size / 2.0
        c.check("complement-average-distance", abs(lhs - rhs) / rhs, 1e-9, where)

        for z in (0.3, 1.0, 2.0):
            lhs = a.size * _poly_eval(p_ab.p, z) + (size - a.size) * _poly_eval(
                p_acb.p, z
            )
            rhs = (1.0 + z) ** n
            c.check("enumerator-complement", abs(lhs - rhs) / rhs, 1e-9, f"{where} z={z}")

    p_star = DistanceDistribution(n, p_ab.p[::-1])
    err = abs(d_ab + distance_moment(p_star, 1) - n)
    c.check("star-average-distance", err, 1e-9, where)

    for k in range(1, 5):
        lhs = distance_moment(p_star, k)
        rhs = math.fsum(
            math.comb(k, i) * n ** (k - i) * (-1.0) ** i * distance_moment(p_ab, i)
            for i in range(k + 1)
        )
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        c.check("moment-reflection", err, 1e-9, f"{where} k={k}")

    for z in (0.5, 1.3):
        lhs = _poly_eval(p_star.p, z)
        rhs = z**n * _poly_eval(p_ab.p, 1.0 / z)
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        c.check("enumerator-star", err, 1e-9, f"{where} z={z}")

    pairs = a.size * b.size
    for rho in _RHO_GRID:
        q_dist = _distance_path(p_ab, pairs, rho)
        q_spec = da * db + theta_from_levels(levels, rho)
        c.check("collision-path-agreement", abs(q_dist - q_spec), 1e-9, f"{where} rho={rho}")

        theta = q_dist - da * db
        viol = max(-da * db - theta, theta - da * (1.0 - db))
        c.check("covariance-range", viol, 1e-12, f"{where} rho={rho}")

    for rho in (0.3, 0.7, 1.0):
        lhs = _distance_path(p_ab, pairs, -rho)
        rhs = _distance_path(p_star, pairs, rho)
        c.check("negation-reduction", abs(lhs - rhs), 1e-9, f"{where} rho={rho} star")
        if a.size < size:
            lhs = _distance_path(p_acb, (size - a.size) * b.size, rho)
            rhs = db - _distance_path(p_ab, pairs, rho)
            c.check("negation-reduction", abs(lhs - rhs), 1e-9, f"{where} rho={rho} compl")

    qa = np.maximum(np.array(dual_aa.q), 0.0)
    qb = np.maximum(np.array(dual_bb.q), 0.0)
    viol = float(np.max(np.abs(np.array(dual_ab.q)) - np.sqrt(qa * qb)))
    c.check("dual-cauchy-schwarz", viol, 1e-9, where)

    half = n / 2.0
    gap_a = max(0.0, half - distance_moment(p_aa, 1))
    gap_b = max(0.0, half - distance_moment(p_bb, 1))
    lhs = abs(half - d_ab)
    mid = math.sqrt(gap_a * gap_b)
    viol = max(lhs - mid, mid - (gap_a + gap_b) / 2.0)
    c.check("distance-cauchy-schwarz", viol, 1e-9, where)

    for z in (0.0, 0.4, 1.0):
        g_ab = _poly_eval(p_ab.p, z)
        g_a = _poly_eval(p_aa.p, z)
        g_b = _poly_eval(p_bb.p, z)
        mid = math.sqrt(max(0.0, g_a * g_b))
        viol = max(g_ab - mid, mid - (g_a + g_b) / 2.0)
        c.check("enumerator-cauchy-schwarz", viol, 1e-9, f"{where} z={z}")
    for z in (1.0, 2.5):
        g_ab = _poly_eval(p_ab.p, z)
        g_a = _poly_eval(p_aa.p[::-1], z)
        g_b = _poly_eval(p_bb.p[::-1], z)
        mid = math.sqrt(max(0.0, g_a * g_b))
        viol = max(g_ab - mid, mid - (g_a + g_b) / 2.0)
        c.check("enumerator-cauchy-schwarz", viol, 1e-9, f"{where} z={z} reflected")

    if sym is not None:
        ga = apply_symmetry(sym, a)
        canon = canonical_form(a)
        # Orbit invariance alone passes any orbit-invariant function, so also
        # check the form against A directly: it shares A's self distance
        # distribution, and as the orbit minimum it starts at 0 and is at most
        # every translate A ^ x (x in A), each of which lies in the orbit.
        translates = np.sort(a.word_array()[:, None] ^ a.word_array()[None, :], axis=1)
        ok = (
            canonical_form(ga).words == canon.words
            and canon.words[0] == 0
            and distance_distribution(canon).p == p_aa.p
            and all(canon.words <= tuple(row) for row in translates.tolist())
        )
        c.check("canonical-invariance", 0.0 if ok else 1.0, 0.0, where)

        gb = apply_symmetry(sym, b)
        moved = distance_distribution(ga, gb)
        err = float(np.max(np.abs(np.array(moved.p) - np.array(p_ab.p))))
        c.check("symmetry-distance-invariance", err, 1e-12, where)


def run_verify(
    seed: int = 20240823,
    trials: int = 100,
    dims: tuple[int, ...] = _DEFAULT_DIMS,
    fault: str | None = None,
) -> VerifyReport:
    """Run every identity family on ``trials`` random pairs per dimension.

    ``fault`` injects a synthetic error into the named family's first check,
    for exercising the failure path end to end.
    """
    seed, trials = as_integer("seed", seed, 0), as_integer("trials", trials, 1)
    dims = tuple(as_integer("dims entry", n, 1, MAX_TRANSFORM_DIM) for n in dims)
    if not dims:
        raise ParameterRangeError("dims must name at least one dimension")
    if fault is not None and fault not in FAMILY_NAMES:
        raise ParameterRangeError(f"unknown family {fault!r}")
    rng = np.random.default_rng(seed)
    collector = _Collector(fault)
    for n in dims:
        size = 1 << n
        for _ in range(trials):
            sa = int(rng.integers(1, size + 1))
            sb = int(rng.integers(1, size + 1))
            a = make_code(n, rng.permutation(size)[:sa])
            b = make_code(n, rng.permutation(size)[:sb])
            sym = None
            if n <= MAX_CANONICAL_DIM:
                sym = CubeSymmetry(
                    tuple(int(p) for p in rng.permutation(n)),
                    int(rng.integers(0, size)),
                )
            _run_families(a, b, sym, collector)
    return VerifyReport(seed, trials, dims, collector.results())
