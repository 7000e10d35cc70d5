"""Plumbing shared by the benchmark scripts.

Locates the checkout the benchmark runs in, pins the thread environment,
imports ``nisim`` from that checkout's sources (never from an installed copy),
runs single operations with timing kept apart from input preparation and
output checking, and summarises latencies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

# One process, one thread of numeric work: BLAS and OpenMP pools are pinned to
# a single thread and the package's own NISIM_THREADS stays unset.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, references, ...)."""


def pin_environment() -> None:
    """Must run before numpy is first imported in this process."""
    os.environ.update(PINNED_THREADS)
    os.environ.pop("NISIM_THREADS", None)


def import_nisim():
    """Import nisim from ``<checkout>/src`` and refuse any other copy."""
    package = SRC / "nisim"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no nisim sources under {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nisim
    import nisim.cli  # noqa: F401  (the package does not import its CLI)

    found = Path(nisim.__file__).resolve().parent
    if found != package.resolve():
        raise BenchError(f"imported nisim from {found}, expected {package}")
    return nisim


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference file {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(nisim, argv: list[str]) -> tuple[int, str, str]:
    """``nisim.cli.main(argv)`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nisim.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One operation of a workload.

    ``prepare`` builds the call's inputs and is not timed; ``call`` is the
    timed call into the program; ``check`` compares its output with the
    reference and returns a description of the first problem, or None.
    ``digest`` (optional) maps the output to a digest that is compared with
    ``ref_digest`` to make byte changes visible without failing the op.
    """

    kind: str
    label: str
    stratum: str
    cost_s: float
    prepare: Callable[[], tuple]
    call: Callable
    check: Callable[[object], str | None]
    digest: Callable[[object], str] | None = None
    ref_digest: str | None = None


@dataclass
class OpOutcome:
    op: Op
    seconds: float
    problem: str | None
    digest_changed: bool


def execute(op: Op) -> OpOutcome:
    args = op.prepare()
    start = time.perf_counter()
    try:
        output = op.call(*args)
    except Exception as exc:  # the program raised: the op failed, the run goes on
        seconds = time.perf_counter() - start
        return OpOutcome(op, seconds, f"raised {type(exc).__name__}: {exc}", False)
    seconds = time.perf_counter() - start
    try:
        problem = op.check(output)
    except Exception as exc:  # malformed output the checker could not parse
        problem = f"output check raised {type(exc).__name__}: {exc}"
    changed = op.digest is not None and op.digest(output) != op.ref_digest
    return OpOutcome(op, seconds, problem, changed)


def schedule(ops: list[Op], seed: int, seconds: float) -> list[Op]:
    """The ops of a run: whole rounds, as many as take ``seconds`` at the
    per-op costs recorded with the reference.

    A round holds one op from every stratum, chosen by the seed, in a seeded
    order; strata group ops of similar cost, so every round does about the
    same work whatever the seed.  The round count depends only on the
    reference, never on this run's speed, so every run of a seed does the
    same ops."""
    by_stratum: dict[str, list[Op]] = {}
    for op in ops:
        by_stratum.setdefault(op.stratum, []).append(op)
    keys = sorted(by_stratum)
    per_round = sum(statistics.fmean(op.cost_s for op in by_stratum[k]) for k in keys)
    rng = random.Random(seed)
    out = []
    for _ in range(max(1, round(seconds / per_round))):
        chosen = [rng.choice(by_stratum[k]) for k in keys]
        rng.shuffle(chosen)
        out += chosen
    return out


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The cheapest op of each kind, by the cost recorded with the reference."""
    best: dict[str, Op] = {}
    for op in ops:
        if op.kind not in best or op.cost_s < best[op.kind].cost_s:
            best[op.kind] = op
    return [best[k] for k in sorted(best)]


def tail(latencies: list[float], beyond: int = 10) -> tuple[float, float]:
    """Latency at the highest percentile with at least ``beyond`` ops above it,
    and that percentile.  With too few ops it is the maximum (percentile 100)."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= beyond:
        return ordered[-1], 100.0
    return ordered[count - beyond - 1], 100.0 * (count - beyond) / count


def latency_summary(latencies: list[float]) -> dict:
    tail_s, tail_pct = tail(latencies)
    timed_s = sum(latencies)
    return {
        "ops": len(latencies),
        "timed_s": timed_s,
        "ops_per_s": len(latencies) / timed_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "op_tail_percentile": tail_pct,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a benchmark
    checkout is usually not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_facts() -> dict:
    files = sorted((SRC / "nisim").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def machine_facts() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        **source_facts(),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "NISIM_THREADS": os.environ.get("NISIM_THREADS", "unset"),
    }
