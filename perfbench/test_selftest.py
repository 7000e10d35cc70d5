"""Self-test of the benchmark at toy sizes; no timing assertions.

    python3 -m pytest perfbench

Runs every workload end to end and traced with ``--toy`` (the cheapest op of
each kind), checks the result line against BENCHMARK.json, checks that the
output checks reject wrong answers, and that the benchmark refuses to run
without the package's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import harness
import spans
import suites

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
RUN = harness.BENCH_DIR / "run.py"


def run_bench(workload: str, trace: int, cwd: Path = harness.ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", suites.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_toy_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_declared_metrics_match_the_code():
    import run

    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    described = json.loads((harness.BENCH_DIR / "workloads.json").read_text())["workloads"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suites.WORKLOADS)
    assert [w["name"] for w in described] == list(suites.WORKLOADS)


def test_refuses_to_run_without_sources():
    stripped = harness.OUT_DIR / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(harness.BENCH_DIR, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", stripped)
        proc = run_bench("verify", 0, cwd=stripped, script=stripped / "perfbench" / "run.py")
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_the_package():
    nisim = harness.import_nisim()
    original = nisim.distance.fwht
    with spans.Tracer(nisim) as tracer:
        assert nisim.distance.fwht is not original
        nisim.collision_prob(nisim.subcube(4, 1), nisim.subcube(4, 2), 0.5)
    assert nisim.distance.fwht is original
    values = tracer.metrics(0.0)
    assert values["model.collision.calls"] == 1
    assert values["distance.pairwise.calls"] == 1
    assert values["fourier.fwht.calls"] == 2
    assert values["fourier.fwht.butterflies"] == 2 * 4 * 8
    assert values["model.collision.check_s"] > 0


def test_checks_reject_wrong_outputs():
    ref = harness.load_reference("curve")
    entry = ref["bounds"][0]
    payload = dict(entry["ref"], warnings=[], raw={})
    good = (0, json.dumps(payload), "")
    assert suites.check_bounds(entry, good) is None
    # a looser bound is refused, and so is a tighter one that cuts off an
    # achievable value
    looser = dict(payload, combined_ub=payload["combined_ub"] + 1e-3)
    assert suites.check_bounds(entry, (0, json.dumps(looser), "")) is not None
    ach = checks.achievable_values(entry["a"], entry["b"], entry["rho"])
    cut = dict(payload, combined_ub=max(ach) - 1e-3)
    assert suites.check_bounds(entry, (0, json.dumps(cut), "")) is not None
    assert suites.check_bounds(entry, (2, "", "error")) is not None


def test_checks_hold_counts_and_witnesses_exactly():
    entry = harness.load_reference("search")["exhaustive"][-1]
    summary = "\noracle summary\n"
    assert suites.check_exhaustive(entry, (0, json.dumps(entry["ref"]) + summary, "")) is None
    moved = dict(entry["ref"], orbits_enumerated=entry["ref"]["orbits_enumerated"] + 1)
    assert suites.check_exhaustive(entry, (0, json.dumps(moved) + summary, "")) is not None

    entry = harness.load_reference("verify")["pool"][0]
    report = SimpleNamespace(passed=True, families=[
        SimpleNamespace(name=k, checked=v) for k, v in entry["checked"].items()
    ])
    assert suites.check_verify(entry, report) is None
    report.families[0].checked -= 1
    assert suites.check_verify(entry, report) is not None

    entry = harness.load_reference("exact")["pool"][0]
    counts = entry["ref"]["distance_distribution"]["counts"]
    exact = SimpleNamespace(p=[c / entry["pairs"] for c in counts])
    assert suites.check_exact(entry, "distance_distribution", exact) is None
    shifted = [counts[0] + 1, counts[1] - 1] + counts[2:]
    exact = SimpleNamespace(p=[c / entry["pairs"] for c in shifted])
    assert suites.check_exact(entry, "distance_distribution", exact) is not None


def test_achievable_values_are_probabilities_of_real_pairs():
    # half density: the dictator pair reaches (1+rho)/4, half-spaces approach
    # 1/4 + asin(rho)/(2 pi)
    values = checks.achievable_values(0.5, 0.5, 0.5)
    assert values[0] == pytest.approx(0.25 + 0.5 * 0.5235987755982988 / 3.141592653589793)
    assert values[2] == pytest.approx(0.375)
    assert checks.collision_from_words(2, [3], [3], 0.5) == pytest.approx(((1 + 0.5) / 4) ** 2)
