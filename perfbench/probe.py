"""One set-up probe: a fresh interpreter imports nisim and runs one warm-up op
of each kind of a workload, so lazy caches are filled.

    python3 perfbench/probe.py <workload>

It prints one JSON line, {"harness_s": ...}, as soon as the warm-ups are
done: the seconds it spent on the benchmark's own work (loading references,
making inputs), which the caller subtracts from the wall time it measured
from starting this process to reading that line.
"""

from __future__ import annotations

import json
import sys
import time

import harness

harness.pin_environment()


def main(argv: list[str]) -> int:
    workload = argv[0]
    nisim = harness.import_nisim()
    start = time.perf_counter()
    import suites

    ops = suites.WORKLOAD_OPS[workload](nisim, harness.load_reference(workload))
    prepared = [(op, op.prepare()) for op in harness.warmup_ops(ops)]
    harness_s = time.perf_counter() - start
    for op, args in prepared:
        op.call(*args)
    print(json.dumps({"harness_s": harness_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
