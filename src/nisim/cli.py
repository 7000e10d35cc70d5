"""Command-line access to the bound computations and searches.

Subcommands: ``bounds`` (one instance, every bound family), ``curve`` (CSV
sweep over the symmetric density grid at fixed correlation), ``oracle``
(exhaustive or local extremal search), and ``verify`` (randomized identity
checking).  Exit codes: 0 success, 1 verification or consistency failure,
2 invalid input, 3 search budget refusal.

Output is deterministic: rerunning a command with the same arguments and seed
produces byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from .bounds import FAMILIES, combined_report, hc_bounds, maximal_correlation_bounds, symmetric_bounds
from .errors import (
    ConvergenceError,
    FormatError,
    NumericalConsistencyError,
    SearchBudgetError,
)
from .oracle import (
    construction_value,
    exhaustive_distance_extremes,
    exhaustive_extremes,
    local_search,
)
from .verify import run_verify

SCHEMA_VERSION = 1

CURVE_COLUMNS = (
    "a",
    "mc_lb",
    "mc_ub",
    "hc_lb",
    "hc_ub",
    "ours_lb",
    "ours_ub",
    "sym_subcube",
    "antisym_subcube",
)

_DYADIC_GRID = tuple(0.5**i for i in range(1, 6))


def default_a_grid() -> tuple[float, ...]:
    """50 log-spaced densities in [0.02, 0.5] plus the dyadics 2^-1..2^-5."""
    points = set(np.geomspace(0.02, 0.5, 50).tolist()) | set(_DYADIC_GRID)
    return tuple(sorted(points))


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def cmd_bounds(args) -> int:
    report = combined_report(args.a, args.b, args.rho)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "a": report.original_a,
        "b": report.original_b,
        "rho": report.original_rho,
        "normalized": {
            "a": report.a,
            "b": report.b,
            "rho": report.rho,
            "steps": list(report.transform.steps),
            "alpha": report.transform.alpha,
            "beta": report.transform.beta,
        },
        **{key: getattr(report, key) for key in FAMILIES},
        "upsilon_lb": max(report.upsilon1_lb, report.upsilon2_lb),
        "upsilon_ub": min(report.upsilon1_ub, report.upsilon2_ub),
        "combined_lb": report.combined_lb,
        "combined_ub": report.combined_ub,
        "raw": report.raw,
        "warnings": list(report.warnings),
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"instance a={args.a} b={args.b} rho={args.rho}"]
        if report.transform.steps:
            lines.append(f"normalized to a={report.a} b={report.b} rho={report.rho} "
                         f"via {', '.join(report.transform.steps)}")
        for key in FAMILIES:
            lines.append(f"{key:12s} {payload[key]!r}")
        lines.append(f"{'combined':12s} [{report.combined_lb!r}, {report.combined_ub!r}]")
        for note in report.warnings:
            lines.append(f"warning: {note}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def cmd_curve(args) -> int:
    rho = args.rho
    if not 0.0 < rho < 1.0:
        raise FormatError(f"curve correlation must be strictly inside (0, 1), got {rho}")
    if args.grid:
        grid = tuple(float(x) for x in args.grid.split(","))
    else:
        grid = default_a_grid()
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    for a in grid:
        mc_lb, mc_ub = maximal_correlation_bounds(a, a, rho)
        hc_lb, hc_ub = hc_bounds(a, a, rho)
        ours_lb, ours_ub = symmetric_bounds(a, rho)
        if a in _DYADIC_GRID:
            i = _DYADIC_GRID.index(a) + 1
            sym = repr(construction_value("symmetric-subcube", i, i, rho))
            antisym = repr(construction_value("antisymmetric-subcube", i, i, rho))
        else:
            sym = ""
            antisym = ""
        writer.writerow(
            [repr(a), repr(mc_lb), repr(mc_ub), repr(hc_lb), repr(hc_ub),
             repr(ours_lb), repr(ours_ub), sym, antisym]
        )
    _emit(buf.getvalue(), args.output)
    return 0


def cmd_oracle(args) -> int:
    if args.mode == "exhaustive":
        if args.objective == "distance":
            result = exhaustive_distance_extremes(args.n, args.m, args.n2)
        else:
            if args.rho is None:
                raise FormatError("collision objective needs --rho")
            result = exhaustive_extremes(args.n, args.m, args.n2, args.rho)
    else:
        if args.objective == "distance":
            raise FormatError("local mode supports the collision objective only")
        if args.rho is None:
            raise FormatError("collision objective needs --rho")
        result = local_search(
            args.n, args.m, args.n2, args.rho,
            direction=args.direction, seed=args.seed, iters=args.iters,
        )
    payload = result.to_json_dict()
    payload["schema_version"] = SCHEMA_VERSION
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        _emit(text, args.output)
    summary = [
        f"oracle n={result.n} m={result.m} n2={result.n_second} "
        f"objective={result.objective} exhaustive={result.exhaustive}"
    ]
    if result.rho is not None:
        summary[0] += f" rho={result.rho}"
    for label, value, witness in (
        ("max_q", result.max_q, result.witness_max),
        ("min_q", result.min_q, result.witness_min),
        ("max_d", result.max_d, result.witness_max),
        ("min_d", result.min_d, result.witness_min),
    ):
        if value is None:
            continue
        summary.append(f"{label}={value!r}")
        if witness is not None:
            wa, wb = (",".join([str(w) for w in code.words]) for code in witness)
            summary.append(f"  witness A=[{wa}] B=[{wb}]")
    summary.append(
        f"pairs_evaluated={result.pairs_evaluated} orbits={result.orbits_enumerated}"
    )
    sys.stdout.write("\n".join(summary) + "\n")
    return 0


def cmd_verify(args) -> int:
    report = run_verify(seed=args.seed, trials=args.trials, fault=args.inject_fault)
    sys.stdout.write(report.to_text())
    machine = {
        "schema_version": SCHEMA_VERSION,
        "seed": report.seed,
        "trials": report.trials,
        "passed": report.passed,
        "failed_families": list(report.failed_families),
    }
    sys.stdout.write(json.dumps(machine, sort_keys=True) + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nisim",
        description="Bounds and searches for agreement probabilities of "
        "correlated binary strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="every bound family for one instance")
    p.add_argument("--a", type=float, required=True, help="density of the first set")
    p.add_argument("--b", type=float, required=True, help="density of the second set")
    p.add_argument("--rho", type=float, required=True, help="correlation in [-1, 1]")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("curve", help="CSV sweep over symmetric densities")
    p.add_argument("--rho", type=float, required=True, help="correlation in (0, 1)")
    p.add_argument("--grid", help="comma-separated densities (default: built-in grid)")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("oracle", help="extremal search over code pairs")
    p.add_argument("--n", type=int, required=True, help="blocklength")
    p.add_argument("--m", type=int, required=True, help="size of the first code")
    p.add_argument("--n2", type=int, required=True, help="size of the second code")
    p.add_argument("--rho", type=float, help="correlation (collision objective)")
    p.add_argument("--objective", choices=("collision", "distance"), default="collision")
    p.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p.add_argument("--direction", choices=("max", "min"), default="max",
                   help="search direction for local mode")
    p.add_argument("--seed", type=int, default=0, help="local search seed")
    p.add_argument("--iters", type=int, default=20, help="local search restarts")
    p.add_argument("--output", help="write the JSON result here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="randomized identity checking")
    p.add_argument("--seed", type=int, default=20240823)
    p.add_argument("--trials", type=int, default=100, help="instances per dimension")
    p.add_argument("--inject-fault", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building one takes
    about 1 ms, longer than many oracle calls, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except SearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalConsistencyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
