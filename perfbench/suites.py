"""The four workloads: their input pools, how one op runs, and how its output
is checked against the reference recorded from the package's sources.

Every op is built from a pool entry in ``reference/<workload>.json``.  The
pools are fixed; a run's seed picks one entry from each stratum per round and
orders the round.  The parameter generators below are what ``record.py``
used to make the pools; the exact workload also regenerates its code words
from them at run time and checks them against the recorded digests.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math

import numpy as np

from checks import (
    TOL,
    achievable_values,
    bound_problem,
    close,
    collision_from_words,
    parse_code_text,
    subcube_value,
)
from harness import BenchError, Op, run_cli, sha256_text

WORKLOADS = ("curve", "search", "verify", "exact")

# ---------------------------------------------------------------------------
# pool parameters (record.py turns these into reference files)

CURVE_RHOS = (0.1, 0.5, 0.9)
BOUNDS_POOL = 144
STRATUM_SIZE = 8


def curve_grid() -> list[float]:
    """The CLI's default density grid: 50 log-spaced points in [0.02, 0.5]
    plus the dyadics 2^-1..2^-5, 54 in all."""
    dyadic = {0.5**i for i in range(1, 6)}
    return sorted(set(np.geomspace(0.02, 0.5, 50).tolist()) | dyadic)


def bounds_instances(seed: int = 7) -> list[tuple[float, float, float]]:
    """Instances anywhere in (0,1)^2 x (-1,1): unequal densities, densities
    above 1/2 and negative correlations all occur."""
    rng = np.random.default_rng(seed)
    return [
        (float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)), float(rng.uniform(-1, 1)))
        for _ in range(BOUNDS_POOL)
    ]


def exhaustive_instances() -> list[dict]:
    """Criteria 1-3: every size pair at n=2,3 and the half and quarter
    densities at n=4, at rho 0.1, 0.5, 0.9; then the distance objective at n=4."""
    out = []
    for n in (2, 3):
        for m in range(1, (1 << n) + 1):
            for m2 in range(1, (1 << n) + 1):
                for rho in CURVE_RHOS:
                    out.append({"n": n, "m": m, "n2": m2, "rho": rho, "objective": "collision"})
    for m in (8, 4):
        for rho in CURVE_RHOS:
            out.append({"n": 4, "m": m, "n2": m, "rho": rho, "objective": "collision"})
    for m, m2 in ((4, 4), (8, 8), (4, 8), (8, 4)):
        out.append({"n": 4, "m": m, "n2": m2, "rho": None, "objective": "distance"})
    return out


def local_instances(seed: int = 11) -> list[dict]:
    """Seeded local search at n=10..12, both directions, rho 0.3 and 0.8,
    two restarts; four size pairs per class."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (10, 11, 12):
        half, quarter, eighth = 1 << (n - 1), 1 << (n - 2), 1 << (n - 3)
        for direction in ("max", "min"):
            for rho in (0.3, 0.8):
                for m, m2 in ((quarter, quarter), (half, eighth), (3 * eighth, quarter), (half, quarter)):
                    out.append({
                        "n": n, "m": m, "n2": m2, "rho": rho, "direction": direction,
                        "seed": int(rng.integers(1, 1 << 30)), "iters": 2,
                    })
    return out


# Seeds per dimension; with STRATUM_SIZE entries per stratum a round runs
# 4, 4, 8, 4 ops at n = 4, 6, 8, 10.  Equal counts, as the CLI runs, would put
# the median exactly between the slowest n=8 op and the fastest n=10 op;
# doubling n=8 puts it inside the n=8 ops.
VERIFY_POOL = {4: 32, 6: 32, 8: 64, 10: 32}


def verify_instances() -> list[dict]:
    return [{"n": n, "seed": 1000 * n + k} for n, count in VERIFY_POOL.items() for k in range(count)]


EXACT_FUNCTIONS = ("collision_prob", "joint_cells", "distance_distribution", "dual_distribution")
EXACT_VARIANTS = 4
EXACT_RHOS = (0.3, 0.7, -0.5, 0.9)

# (name, n, first code, second code, functions run on the pair).  A code is
# ("random", size), ("subcube", pinned) or ("ball", radius); ball centres and
# random words come from the variant's generator seed.  Pairs sit on both
# sides of distance.PAIRWISE_LIMIT = 2^26 pairs.  At n=20 each function takes
# about a second, so only three run there: the transform path on a
# half-density code (make_code's worst case), the dual, and collision_prob on
# a pair at the pairwise limit, which includes its spectral check at 2^20.
# The three share one stratum (see N20_STRATUM).
EXACT_SPECS = (
    ("n14-half-quarter", 14, ("random", 1 << 13), ("random", 1 << 12), EXACT_FUNCTIONS),  # 2^25 pairs
    ("n14-small-half", 14, ("random", 300), ("random", 1 << 13), EXACT_FUNCTIONS),
    ("n14-subcube-ball", 14, ("subcube", 2), ("ball", 5), EXACT_FUNCTIONS),
    ("n16-half-quarter", 16, ("random", 1 << 15), ("random", 1 << 14), EXACT_FUNCTIONS),  # transform
    ("n16-small-quarter", 16, ("random", 300), ("random", 1 << 14), EXACT_FUNCTIONS),
    ("n18-half-quarter", 18, ("random", 1 << 17), ("random", 1 << 16), EXACT_FUNCTIONS),  # transform
    ("n18-small-half", 18, ("random", 300), ("random", 1 << 17), EXACT_FUNCTIONS),
    ("n18-subcube-ball", 18, ("subcube", 1), ("ball", 7), EXACT_FUNCTIONS),  # transform
    ("n20-half-quarter", 20, ("random", 1 << 19), ("random", 1 << 18),
     ("distance_distribution", "dual_distribution")),  # transform
    ("n20-256-quarter", 20, ("random", 256), ("random", 1 << 18), ("collision_prob",)),  # 2^26 pairs
)


# Every n=20 call falls in this one stratum, so a round runs one of them, not
# all three.  These calls stream 8 MB arrays, and on a shared host they slowed
# more than the small ones when other tenants were busy; three per round took
# two fifths of the run's time and made the run-to-run spread too wide.
N20_STRATUM = "n20"


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def gen_seed(spec_name: str, variant: int, side: int) -> int:
    return int(sha256_text(f"{spec_name}/{variant}/{side}")[:16], 16)


def random_words(n: int, size: int, seed: int) -> np.ndarray:
    """``size`` distinct words of the n-cube in a seeded order, from a keyed
    hash, so the same seed gives the same words on any numpy version."""
    keys = _mix64(np.arange(1 << n, dtype=np.uint64) + np.uint64(seed))
    idx = np.argpartition(keys, size - 1)[:size]
    return idx[np.argsort(keys[idx], kind="stable")].astype(np.int64)


def code_input(n: int, spec: tuple, seed: int) -> tuple:
    """What the program receives for one code: a word list for make_code, or
    the arguments of subcube / hamming_ball."""
    kind, param = spec
    if kind == "random":
        return ("make_code", n, random_words(n, param, seed).tolist())
    if kind == "subcube":
        return ("subcube", n, param)
    if kind == "ball":
        return ("hamming_ball", n, seed % (1 << n), param)
    raise ValueError(kind)


def exact_pairs() -> list[dict]:
    out = []
    for name, n, spec_a, spec_b, functions in EXACT_SPECS:
        for v in range(EXACT_VARIANTS):
            out.append({
                "spec": name, "variant": v, "n": n, "functions": list(functions),
                "a": list(spec_a), "b": list(spec_b),
                "seed_a": gen_seed(name, v, 0), "seed_b": gen_seed(name, v, 1),
                "rho": EXACT_RHOS[v % len(EXACT_RHOS)],
            })
    return out


def build_code(nisim, made: tuple):
    maker = getattr(nisim, made[0])
    return maker(*made[1:])


def exact_call(nisim, fn_name: str, made_a: tuple, made_b: tuple, rho: float):
    a = build_code(nisim, made_a)
    b = build_code(nisim, made_b)
    fn = getattr(nisim, fn_name)
    if fn_name in ("collision_prob", "joint_cells"):
        return fn(a, b, rho)
    return fn(a, b)


def words_digest(made: tuple) -> str | None:
    if made[0] != "make_code":
        return None
    words = np.sort(np.asarray(made[2], dtype=np.int64))
    return hashlib.sha256(words.astype("<i8").tobytes()).hexdigest()


def exact_inputs(entry: dict) -> tuple[tuple, tuple]:
    n = entry["n"]
    return (
        code_input(n, tuple(entry["a"]), entry["seed_a"]),
        code_input(n, tuple(entry["b"]), entry["seed_b"]),
    )


def exact_outputs(fn_name: str, result) -> dict:
    """The parts of a result the reference keeps, as JSON-ready values."""
    if fn_name == "collision_prob":
        return {"q": result}
    if fn_name == "joint_cells":
        return {k: getattr(result, k) for k in ("a", "b", "q_pp", "q_pm", "q_mp", "q_mm")}
    if fn_name == "distance_distribution":
        return {"p": list(result.p)}
    return {"q": list(result.q)}


# ---------------------------------------------------------------------------
# output checks


def _exit_problem(out) -> str | None:
    code, _, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    return None


def check_curve_row(entry: dict, preamble: list[str], out) -> str | None:
    problem = _exit_problem(out)
    if problem:
        return problem
    lines = out[1].splitlines()
    if lines[:2] != preamble or len(lines) != 3:
        return f"unexpected CSV layout: {lines[:2]!r} and {len(lines) - 2} rows"
    row = next(csv.reader([lines[2]]))
    ref = entry["row"]
    if len(row) != len(ref) or row[0] != ref[0]:
        return f"row {row!r} does not match reference {ref!r}"
    cols = dict(zip(preamble[1].split(","), row))
    refs = dict(zip(preamble[1].split(","), ref))
    for key in ("mc_lb", "mc_ub", "ours_lb", "ours_ub"):
        if not close(float(cols[key]), float(refs[key])):
            return f"{key} {cols[key]} differs from reference {refs[key]}"
    a, rho = entry["a"], entry["rho"]
    for key, sign in (("sym_subcube", 1), ("antisym_subcube", -1)):
        if (cols[key] == "") != (refs[key] == ""):
            return f"{key} {cols[key]!r} against reference {refs[key]!r}"
        if cols[key]:
            i = round(-math.log2(a))
            value = float(cols[key])
            if not close(value, float(refs[key])) or not close(value, subcube_value(i, rho, sign)):
                return f"{key} {value!r} is not the subcube value"
    return bound_problem(
        "hc", float(cols["hc_lb"]), float(cols["hc_ub"]),
        float(refs["hc_lb"]), float(refs["hc_ub"]), achievable_values(a, a, rho),
    )


_BOUNDS_EXACT = ("schema_version", "a", "b", "rho", "normalized")
_BOUNDS_CLOSE = (
    "upsilon1_lb", "upsilon2_lb", "upsilon1_ub", "upsilon2_ub",
    "upsilon_lb", "upsilon_ub", "mc_lb", "mc_ub",
)


def check_bounds(entry: dict, out) -> str | None:
    problem = _exit_problem(out)
    if problem:
        return problem
    got = json.loads(out[1])
    ref = entry["ref"]
    for key in _BOUNDS_EXACT:
        if got.get(key) != ref[key]:
            return f"{key} {got.get(key)!r} differs from reference {ref[key]!r}"
    for key in _BOUNDS_CLOSE:
        if not close(got[key], ref[key]):
            return f"{key} {got[key]!r} differs from reference {ref[key]!r}"
    norm = ref["normalized"]
    return bound_problem(
        "hc", got["hc_lb"], got["hc_ub"], ref["hc_lb"], ref["hc_ub"],
        achievable_values(norm["a"], norm["b"], norm["rho"]),
    ) or bound_problem(
        "combined", got["combined_lb"], got["combined_ub"], ref["combined_lb"], ref["combined_ub"],
        achievable_values(entry["a"], entry["b"], entry["rho"]),
    )


def oracle_payload(stdout: str) -> dict:
    """``oracle --output -`` writes the JSON document, then a text summary."""
    payload, _ = json.JSONDecoder().raw_decode(stdout)
    return payload


_ORACLE_EXACT = (
    "schema_version", "n", "m", "n_second", "rho", "objective", "exhaustive",
    "witness_max", "witness_min", "pairs_evaluated", "orbits_enumerated",
)


def check_exhaustive(entry: dict, out) -> str | None:
    problem = _exit_problem(out)
    if problem:
        return problem
    got = oracle_payload(out[1])
    ref = entry["ref"]
    for key in _ORACLE_EXACT:
        if got.get(key) != ref[key]:
            return f"{key} differs from reference"
    for key in ("max_q", "min_q", "max_d", "min_d"):
        if not close(got[key], ref[key]):
            return f"{key} {got[key]!r} differs from reference {ref[key]!r}"
    return None


def check_local(entry: dict, out) -> str | None:
    problem = _exit_problem(out)
    if problem:
        return problem
    got = oracle_payload(out[1])
    ref = entry["ref"]
    for key in ("schema_version", "n", "m", "n_second", "rho", "objective", "exhaustive"):
        if got.get(key) != ref[key]:
            return f"{key} differs from reference"
    key, sign = ("max_q", 1.0) if entry["direction"] == "max" else ("min_q", -1.0)
    value = got[key]
    if sign * (value - ref[key]) < -1e-12:
        return f"{key} {value!r} is worse than the reference {ref[key]!r}"
    witness = got["witness_" + entry["direction"]]
    n_a, words_a = parse_code_text(witness["first"])
    n_b, words_b = parse_code_text(witness["second"])
    n, m, m2 = entry["n"], entry["m"], entry["n2"]
    if (n_a, n_b, len(words_a), len(words_b), len(set(words_a)), len(set(words_b))) != (n, n, m, m2, m, m2):
        return "witness has the wrong dimension or sizes"
    if max(words_a + words_b) >= 1 << n or min(words_a + words_b) < 0:
        return "witness word out of range"
    q = collision_from_words(n, words_a, words_b, entry["rho"])
    if not close(q, value):
        return f"witness agreement {q!r} does not match the reported {value!r}"
    return None


def check_verify(entry: dict, report) -> str | None:
    if not report.passed:
        return f"failed families {report.failed_families}"
    checked = {f.name: f.checked for f in report.families}
    if checked != entry["checked"]:
        return f"per-family checked counts {checked} differ from reference {entry['checked']}"
    return None


def check_exact(entry: dict, fn_name: str, result) -> str | None:
    ref = entry["ref"][fn_name]
    got = exact_outputs(fn_name, result)
    if fn_name == "distance_distribution":
        counts = [p * entry["pairs"] for p in got["p"]]
        if len(counts) != len(ref["counts"]):
            return "wrong number of distances"
        for d, (c, want) in enumerate(zip(counts, ref["counts"])):
            if round(c) != want or abs(c - want) > 1e-3:
                return f"count at distance {d}: {c!r} against {want}"
        return None
    if fn_name == "dual_distribution":
        if len(got["q"]) != len(ref["q"]):
            return "wrong number of dual entries"
        for k, (v, want) in enumerate(zip(got["q"], ref["q"])):
            if not close(v, want, TOL * max(1.0, abs(want))):
                return f"dual entry {k}: {v!r} against {want!r}"
        return None
    for key, want in ref.items():
        if not close(got[key], want):
            return f"{key} {got[key]!r} against {want!r}"
    return None


# ---------------------------------------------------------------------------
# ops


def curve_argv(e: dict) -> list[str]:
    return ["curve", "--rho", repr(e["rho"]), "--grid", repr(e["a"])]


def bounds_argv(e: dict) -> list[str]:
    return ["bounds", "--a", repr(e["a"]), "--b", repr(e["b"]), "--rho", repr(e["rho"])]


def oracle_argv(e: dict) -> list[str]:
    """Exhaustive when the entry has no direction, else local search."""
    argv = ["oracle", "--n", str(e["n"]), "--m", str(e["m"]), "--n2", str(e["n2"]), "--output", "-"]
    if e["rho"] is not None:
        argv += ["--rho", repr(e["rho"])]
    if "direction" in e:
        return argv + ["--mode", "local", "--direction", e["direction"],
                       "--seed", str(e["seed"]), "--iters", str(e["iters"])]
    return argv + ["--objective", e["objective"]]


def _cli_op(nisim, kind, label, stratum, entry, argv, check) -> Op:
    return Op(
        kind=kind,
        label=label,
        stratum=stratum,
        cost_s=entry["cost_s"],
        prepare=lambda: (list(argv),),
        call=functools.partial(run_cli, nisim),
        check=check,
        digest=lambda out: sha256_text(out[1]),
        ref_digest=entry["stdout_sha256"],
    )


def curve_ops(nisim, ref: dict) -> list[Op]:
    ops = []
    for i, e in enumerate(ref["grid"]):
        ops.append(_cli_op(
            nisim, "curve", f"curve rho={e['rho']} a={e['a']:.6g}", f"grid/{i:03d}", e, curve_argv(e),
            functools.partial(check_curve_row, e, ref["preamble"]),
        ))
    for e in ref["bounds"]:
        ops.append(_cli_op(
            nisim, "bounds", f"bounds a={e['a']:.4f} b={e['b']:.4f} rho={e['rho']:.4f}",
            f"bounds/{e['stratum']:02d}", e, bounds_argv(e), functools.partial(check_bounds, e),
        ))
    return ops


def search_ops(nisim, ref: dict) -> list[Op]:
    ops = []
    for i, e in enumerate(ref["exhaustive"]):
        ops.append(_cli_op(
            nisim, f"exhaustive-{e['objective']}",
            f"oracle n={e['n']} m={e['m']} n2={e['n2']} rho={e['rho']} {e['objective']}",
            f"exhaustive/{i:03d}", e, oracle_argv(e), functools.partial(check_exhaustive, e),
        ))
    for e in ref["local"]:
        ops.append(_cli_op(
            nisim, "local",
            f"oracle local n={e['n']} m={e['m']} n2={e['n2']} rho={e['rho']} {e['direction']}",
            f"local/{e['n']}-{e['direction']}-{e['rho']}/{e['stratum']}", e, oracle_argv(e),
            functools.partial(check_local, e),
        ))
    return ops


def _run_verify(nisim, seed: int, n: int):
    return nisim.run_verify(seed=seed, trials=1, dims=(n,))


def verify_ops(nisim, ref: dict) -> list[Op]:
    return [
        Op(
            kind=f"verify-n{e['n']:02d}",
            label=f"run_verify seed={e['seed']} dims=({e['n']},)",
            stratum=f"n{e['n']:02d}/{e['stratum']}",
            cost_s=e["cost_s"],
            prepare=lambda e=e: (e["seed"], e["n"]),
            call=functools.partial(_run_verify, nisim),
            check=functools.partial(check_verify, e),
            digest=lambda report: sha256_text(report.to_text()),
            ref_digest=e["text_sha256"],
        )
        for e in ref["pool"]
    ]


class _ExactInputs:
    """Regenerates a pool entry's codes' inputs; the first time, checks the
    generated words against the digests recorded with the reference."""

    def __init__(self, entry: dict):
        self.entry = entry
        self.verified = False

    def __call__(self, fn_name: str) -> tuple:
        made_a, made_b = exact_inputs(self.entry)
        if not self.verified:
            for made, side in ((made_a, "a"), (made_b, "b")):
                if words_digest(made) != self.entry[f"words_{side}_sha256"]:
                    raise BenchError(f"generated words for {self.entry['spec']} differ from the reference")
            self.verified = True
        return fn_name, made_a, made_b, self.entry["rho"]


def exact_ops(nisim, ref: dict) -> list[Op]:
    ops = []
    for e in ref["pool"]:
        inputs = _ExactInputs(e)
        for fn_name in e["functions"]:
            ops.append(Op(
                kind=fn_name,
                label=f"{fn_name} {e['spec']} variant {e['variant']}",
                stratum=N20_STRATUM if e["n"] == 20 else f"{e['spec']}/{fn_name}",
                cost_s=e["cost_s"][fn_name],
                prepare=functools.partial(inputs, fn_name),
                call=functools.partial(exact_call, nisim),
                check=functools.partial(check_exact, e, fn_name),
            ))
    return ops


WORKLOAD_OPS = {"curve": curve_ops, "search": search_ops, "verify": verify_ops, "exact": exact_ops}
