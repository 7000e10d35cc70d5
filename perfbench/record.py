"""Record the reference outputs the benchmark checks every op against.

Run once from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/record.py [workload ...]

It runs every pool entry of each named workload (all four by default) once,
stores the program's outputs, stdout digests and the time each entry took,
and writes ``perfbench/reference/<workload>.json``.  The recorded times only
group entries of similar cost into strata; they are never compared with a
run's times.  Recorded exact-workload distance counts are also checked
against an independent integer Walsh-Hadamard computation.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
import warnings

import harness

harness.pin_environment()

import numpy as np  # noqa: E402  (after the thread pinning)

import suites  # noqa: E402
from checks import achievable_values  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def cli(nisim, argv):
    cost, (code, stdout, stderr) = timed(harness.run_cli, nisim, argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}: {stderr}")
    return cost, stdout


def stratify(entries: list[dict], key=lambda e: "", size=lambda e: suites.STRATUM_SIZE) -> None:
    """Within each class, sort by recorded cost and number the chunks of
    ``size`` entries; a round takes one entry per chunk."""
    classes: dict = {}
    for e in entries:
        classes.setdefault(key(e), []).append(e)
    for members in classes.values():
        members.sort(key=lambda e: e["cost_s"])
        for i, e in enumerate(members):
            e["stratum"] = i // size(e)


def record_curve(nisim) -> dict:
    grid, preamble, warned = [], None, 0
    for rho in suites.CURVE_RHOS:
        for a in suites.curve_grid():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cost, stdout = cli(nisim, suites.curve_argv({"rho": rho, "a": a}))
            lines = stdout.splitlines()
            preamble = lines[:2]
            row = next(csv.reader([lines[2]]))
            warned += bool(caught)
            grid.append({"rho": rho, "a": a, "row": row, "stdout_sha256": harness.sha256_text(stdout),
                         "cost_s": cost, "warned": bool(caught)})
            cols = dict(zip(preamble[1].split(","), row))
            ach = achievable_values(a, a, rho)
            if float(cols["hc_lb"]) > min(ach) + 1e-9 or float(cols["hc_ub"]) < max(ach) - 1e-9:
                print(f"note: curve rho={rho} a={a} does not bracket the achievable values")
    print(f"curve: {len(grid)} grid rows, {warned} with a warning")
    bounds = []
    for a, b, rho in suites.bounds_instances():
        cost, stdout = cli(nisim, suites.bounds_argv({"a": a, "b": b, "rho": rho}))
        payload = json.loads(stdout)
        ach = achievable_values(a, b, rho)
        if payload["combined_lb"] > min(ach) + 1e-9 or payload["combined_ub"] < max(ach) - 1e-9:
            print(f"note: bounds a={a} b={b} rho={rho} do not bracket the achievable values")
        ref = {k: v for k, v in payload.items() if k not in ("raw", "warnings")}
        bounds.append({"a": a, "b": b, "rho": rho, "ref": ref, "warnings": len(payload["warnings"]),
                       "stdout_sha256": harness.sha256_text(stdout), "cost_s": cost})
    stratify(bounds)
    return {"preamble": preamble, "grid": grid, "bounds": bounds}


def record_search(nisim) -> dict:
    def run(e):
        cost, stdout = cli(nisim, suites.oracle_argv(e))
        ref = suites.oracle_payload(stdout)
        if e.get("direction"):
            # a local search is checked by its value, not its witness
            ref = {k: v for k, v in ref.items() if not k.startswith("witness")}
        e.update(ref=ref, stdout_sha256=harness.sha256_text(stdout), cost_s=cost)
        return e

    exhaustive = [run(e) for e in suites.exhaustive_instances()]
    local = [run(e) for e in suites.local_instances()]
    # Two n=12 ops per class in a round, so the tail (the op with ten slower
    # ones after it) falls inside the n=12 ops rather than at their edge.
    stratify(local, key=lambda e: (e["n"], e["direction"], e["rho"]),
             size=lambda e: 2 if e["n"] == 12 else 4)
    return {"exhaustive": exhaustive, "local": local}


def record_verify(nisim) -> dict:
    pool = []
    for e in suites.verify_instances():
        cost, report = timed(lambda: nisim.run_verify(seed=e["seed"], trials=1, dims=(e["n"],)))
        if not report.passed:
            raise SystemExit(f"run_verify fails at {e}: {report.failed_families}")
        e.update(checked={f.name: f.checked for f in report.families},
                 text_sha256=harness.sha256_text(report.to_text()), cost_s=cost)
        pool.append(e)
    stratify(pool, key=lambda e: e["n"])
    return {"pool": pool}


def _wht(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    h = 1
    while h < out.size:
        view = out.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        view[:, :h] += view[:, h:]
        view[:, h:] = left - view[:, h:]
        h *= 2
    return out


def independent_counts(n: int, words_a, words_b) -> list[int]:
    """Distance counts by an exact integer XOR convolution."""
    size = 1 << n
    ia = np.zeros(size, dtype=np.int64)
    ia[np.asarray(words_a)] = 1
    ib = np.zeros(size, dtype=np.int64)
    ib[np.asarray(words_b)] = 1
    conv = _wht(_wht(ia) * _wht(ib)) // size
    weights = np.bitwise_count(np.arange(size, dtype=np.int64))
    return np.bincount(weights, weights=conv, minlength=n + 1).astype(np.int64).tolist()


def record_exact(nisim) -> dict:
    pool = []
    for e in suites.exact_pairs():
        made_a, made_b = suites.exact_inputs(e)
        code_a = suites.build_code(nisim, made_a)
        code_b = suites.build_code(nisim, made_b)
        e.update(words_a_sha256=suites.words_digest(made_a), words_b_sha256=suites.words_digest(made_b),
                 sizes=[code_a.size, code_b.size], pairs=code_a.size * code_b.size,
                 cost_s={}, ref={})
        counts = independent_counts(e["n"], code_a.words, code_b.words)
        lo, hi = (1 - e["rho"]) / 4, (1 + e["rho"]) / 4
        q = math.fsum(c * lo**d * hi ** (e["n"] - d) for d, c in enumerate(counts))
        for fn_name in e["functions"]:
            cost, result = timed(suites.exact_call, nisim, fn_name, made_a, made_b, e["rho"])
            e["cost_s"][fn_name] = cost
            out = suites.exact_outputs(fn_name, result)
            if fn_name == "distance_distribution":
                out = {"counts": [round(p * e["pairs"]) for p in out["p"]]}
                if out["counts"] != counts:
                    raise SystemExit(f"distance counts disagree with the integer transform at {e['spec']}")
            if fn_name in ("collision_prob", "joint_cells"):
                got = out["q"] if fn_name == "collision_prob" else out["q_pp"]
                if abs(got - q) > 1e-9:
                    raise SystemExit(f"agreement probability disagrees with the counts at {e['spec']}")
            e["ref"][fn_name] = out
        pool.append(e)
        print(f"exact: {e['spec']} variant {e['variant']} "
              + " ".join(f"{k}={v * 1e3:.0f}ms" for k, v in e["cost_s"].items()))
    return {"pool": pool}


RECORDERS = {"curve": record_curve, "search": record_search, "verify": record_verify,
             "exact": record_exact}


def main(argv: list[str]) -> int:
    names = argv or list(suites.WORKLOADS)
    nisim = harness.import_nisim()
    facts = harness.machine_facts()
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        start = time.perf_counter()
        data = RECORDERS[name](nisim)
        data["recorded_with"] = {k: facts[k] for k in ("git_commit", "src_lines", "src_sha256",
                                                        "python", "numpy", "cpu_model")}
        path = harness.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{name}: wrote {path.name} in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
