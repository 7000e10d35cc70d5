"""Randomized self-check harness: determinism, coverage, fault injection."""

import numpy as np
import pytest

import nisim.verify
from nisim import run_verify
from nisim.codes import canonical_form, star
from nisim.errors import ParameterRangeError
from nisim.verify import FAMILY_NAMES


class TestRunVerify:
    def test_small_run_passes(self):
        report = run_verify(seed=11, trials=5, dims=(4, 6))
        assert report.passed
        assert report.failed_families == ()

    def test_covers_all_families(self):
        report = run_verify(seed=11, trials=3, dims=(4,))
        assert len(report.families) == len(FAMILY_NAMES)
        assert {f.name for f in report.families} == set(FAMILY_NAMES)

    def test_check_counts_scale_with_trials(self):
        report = run_verify(seed=2, trials=4, dims=(4, 5, 6))
        for fam in report.families:
            assert fam.checked >= 4, fam.name

    def test_deterministic_for_fixed_seed(self):
        one = run_verify(seed=5, trials=4, dims=(4, 6)).to_text()
        two = run_verify(seed=5, trials=4, dims=(4, 6)).to_text()
        assert one == two

    def test_different_seeds_still_pass(self):
        for seed in (1, 99, 12345):
            assert run_verify(seed=seed, trials=3, dims=(5,)).passed

    def test_report_text_has_line_per_family(self):
        report = run_verify(seed=7, trials=3, dims=(4,))
        lines = report.to_text().splitlines()
        assert len(lines) == 2 + len(FAMILY_NAMES)
        for line in lines[1:-1]:
            assert ": PASS " in line or ": FAIL " in line
        assert lines[-1] == "overall: PASS"

    def test_parameter_guards(self):
        with pytest.raises(ParameterRangeError):
            run_verify(trials=0)
        with pytest.raises(ParameterRangeError):
            run_verify(dims=())
        with pytest.raises(ParameterRangeError):
            run_verify(fault="no-such-family")
        for kwargs in (
            {"trials": 1.5, "dims": (4,)},
            {"trials": True, "dims": (4,)},
            {"trials": 1, "dims": (4.0,)},
            {"trials": 1, "dims": (True,)},
            {"trials": 1, "dims": (0,)},
        ):
            with pytest.raises(ParameterRangeError):
                run_verify(**kwargs)

    def test_numpy_integer_arguments_run(self):
        report = run_verify(seed=3, trials=np.int64(2), dims=(np.int64(4), np.uint8(5)))
        assert report.to_text() == run_verify(seed=3, trials=2, dims=(4, 5)).to_text()


class TestFaultInjection:
    def test_fault_is_detected_and_isolated(self):
        report = run_verify(seed=4, trials=3, dims=(4,), fault="parseval")
        assert not report.passed
        assert report.failed_families == ("parseval",)
        detail = {f.name: f for f in report.families}["parseval"]
        assert detail.failed >= 1
        assert detail.first_failures

    def test_every_family_can_be_faulted(self):
        for name in FAMILY_NAMES:
            report = run_verify(seed=4, trials=2, dims=(4,), fault=name)
            assert report.failed_families == (name,), name

    def test_orbit_invariant_but_wrong_canonical_form_is_caught(self, monkeypatch):
        # star(canonical_form(A)) is the same for every member of A's orbit,
        # so comparing g.A with A alone would pass it.
        monkeypatch.setattr(nisim.verify, "canonical_form", lambda c: star(canonical_form(c)))
        report = run_verify(seed=11, trials=5, dims=(4, 6))
        assert report.failed_families == ("canonical-invariance",)
