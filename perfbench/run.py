"""Benchmark of nisim: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload {curve,search,verify,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; nisim is imported from its ``src``.  Each
workload is a closed loop with one caller: the next op starts when the
previous one returns, in this single process.  Ops come in rounds (see
``harness.schedule``); a run does as many whole rounds as take S seconds at
the op costs recorded with the reference, so every run of a seed does the
same ops whatever its speed.  Every op's output is checked against the
reference in ``reference/``.

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; set-up time is the median over fresh probe processes.  With
``--trace 1`` it runs the rounds for S/2 seconds, each op untraced and then
again with every public nisim function wrapped (``spans.py``), prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The last line
of stdout is the result as one JSON object.  ``--toy`` shrinks every round
to the cheapest op of each kind, for the self-test.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time

import harness

harness.pin_environment()

import spans  # noqa: E402
import suites  # noqa: E402

# (name, unit), in the order BENCHMARK.json lists them.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=suites.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="cheapest op of each kind only")
    return parser.parse_args(argv)


def measure_setup(workload: str, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its warm-ups being done,
    less the probe's own input work, for ``count`` probes in turn."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(harness.BENCH_DIR / "probe.py"), workload],
            cwd=harness.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise harness.BenchError("set-up probe did not exit")
        if proc.returncode != 0 or not line:
            raise harness.BenchError(f"set-up probe failed: {err.strip()[-500:]}")
        samples.append(ready - start - json.loads(line)["harness_s"])
    return samples


def toy_ops(ops: list[harness.Op]) -> list[harness.Op]:
    return [dataclasses.replace(op, stratum=op.kind) for op in harness.warmup_ops(ops)]


def run_traced(nisim, ops, seed: int, seconds: float, path) -> tuple[list, list, dict, spans.Tracer]:
    """The rounds for half the run, each op once untraced and then at once
    traced, so the pair sees the same machine state."""
    tracer = spans.Tracer(nisim)
    plain, traced = [], []
    for index, op in enumerate(harness.schedule(ops, seed, seconds / 2)):
        plain.append(harness.execute(op))
        tracer.op = index
        with tracer:
            traced.append(harness.execute(op))
    overhead = sum(o.seconds for o in traced) - sum(o.seconds for o in plain)
    harness.OUT_DIR.mkdir(exist_ok=True)
    tracer.write(path)
    return plain, traced, tracer.metrics(overhead), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nisim = harness.import_nisim()
        ops = suites.WORKLOAD_OPS[args.workload](nisim, harness.load_reference(args.workload))
        setup = [] if args.trace else measure_setup(args.workload, 1 if args.toy else PROBES)
        if args.toy:
            ops = toy_ops(ops)
        warmups = [harness.execute(op) for op in harness.warmup_ops(ops)]
        details = {"workload": args.workload, "seed": args.seed, "facts": harness.machine_facts()}
        if args.trace:
            path = harness.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            plain, traced, values, tracer = run_traced(nisim, ops, args.seed, args.seconds, path)
            measured = plain + traced
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
            details.update(
                traced_ops=len(plain), spans=len(tracer.spans), spans_file=str(path.relative_to(harness.ROOT)),
                untraced_s=sum(o.seconds for o in plain), traced_s=sum(o.seconds for o in traced),
                layer_self_s=tracer.self_times(), hc_warned_by_kind=_warned_by_kind(tracer, traced),
            )
        else:
            measured = [harness.execute(op) for op in harness.schedule(ops, args.seed, args.seconds)]
            summary = harness.latency_summary([o.seconds for o in measured])
            values = {
                **summary,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            details.update(
                ops=summary["ops"], timed_s=summary["timed_s"],
                tail_percentile=summary["op_tail_percentile"], setup_samples_s=setup,
                kind_p50_ms=_kind_medians(measured),
            )
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outcomes = warmups + measured
    failures = [o for o in outcomes if o.problem]
    details.update(
        attempted=len(outcomes),
        failed=len(failures),
        failed_ratio=len(failures) / len(outcomes),
        first_failures=[f"{o.op.label}: {o.problem}" for o in failures[:5]],
        stdout_digest_changed=sum(o.digest_changed for o in outcomes),
        first_digest_changes=[o.op.label for o in outcomes if o.digest_changed][:5],
    )
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_ratio':32s} {details['failed_ratio']:.6g} fraction"
          f" ({len(failures)} of {len(outcomes)} ops)")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _kind_medians(outcomes: list) -> dict:
    by_kind: dict[str, list[float]] = {}
    for o in outcomes:
        by_kind.setdefault(o.op.kind, []).append(o.seconds)
    return {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())}


def _warned_by_kind(tracer: spans.Tracer, traced: list) -> dict:
    """hc_bounds calls that warned, per kind of op, in the traced round."""
    out: dict[str, list[int]] = {}
    for name, _, _, _, _, op, extra in tracer.spans:
        if name == "bounds.hc_bounds":
            tally = out.setdefault(traced[op].op.kind, [0, 0])
            tally[0] += (extra or {}).get("bounds.hc.warned", 0)
            tally[1] += 1
    return {kind: f"{w} of {n} calls" for kind, (w, n) in sorted(out.items())}


if __name__ == "__main__":
    sys.exit(main())
