"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nisim.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


class TestBoundsCommand:
    def test_json_output(self, capsys):
        rc, out = run_cli(
            capsys, "bounds", "--a", "0.25", "--b", "0.25", "--rho", "0.5"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["upsilon_ub"] == 0.140625
        assert doc["combined_ub"] == 0.140625
        assert doc["combined_lb"] <= doc["combined_ub"]
        assert isinstance(doc["warnings"], list)
        assert doc["normalized"]["steps"] == []

    def test_normalization_surface(self, capsys):
        rc, out = run_cli(
            capsys, "bounds", "--a", "0.7", "--b", "0.25", "--rho", "-0.4"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["a"] == 0.7
        assert doc["normalized"]["a"] == 0.25
        assert "complement-first" in doc["normalized"]["steps"]

    def test_text_format(self, capsys):
        rc, out = run_cli(
            capsys,
            "bounds",
            "--a", "0.5", "--b", "0.5", "--rho", "0.5",
            "--format", "text",
        )
        assert rc == 0
        assert "combined" in out
        assert "0.375" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc, out = run_cli(
            capsys,
            "bounds",
            "--a", "0.25", "--b", "0.25", "--rho", "0.5",
            "--output", str(target),
        )
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["upsilon_ub"] == 0.140625

    def test_invalid_density_exits_2(self, capsys):
        rc, _ = run_cli(
            capsys, "bounds", "--a", "1.5", "--b", "0.25", "--rho", "0.5"
        )
        assert rc == 2

    def test_invalid_rho_exits_2(self, capsys):
        rc, _ = run_cli(
            capsys, "bounds", "--a", "0.25", "--b", "0.25", "--rho", "2.0"
        )
        assert rc == 2


class TestCurveCommand:
    def test_header_and_schema_line(self, capsys):
        rc, out = run_cli(capsys, "curve", "--rho", "0.5", "--grid", "0.25,0.3")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == (
            "a,mc_lb,mc_ub,hc_lb,hc_ub,ours_lb,ours_ub,"
            "sym_subcube,antisym_subcube"
        )
        assert len(lines) == 4

    def test_construction_columns_only_at_dyadic_densities(self, capsys):
        rc, out = run_cli(capsys, "curve", "--rho", "0.5", "--grid", "0.25,0.3")
        assert rc == 0
        rows = {l.split(",")[0]: l.split(",") for l in out.splitlines()[2:]}
        assert rows["0.25"][7] == "0.140625"
        assert rows["0.25"][8] == "0.015625"
        assert rows["0.3"][7] == ""
        assert rows["0.3"][8] == ""

    def test_byte_deterministic(self, capsys):
        rc1, out1 = run_cli(
            capsys, "curve", "--rho", "0.3", "--grid", "0.125,0.2,0.5"
        )
        rc2, out2 = run_cli(
            capsys, "curve", "--rho", "0.3", "--grid", "0.125,0.2,0.5"
        )
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_rows_parse_and_nest(self, capsys):
        _, out = run_cli(capsys, "curve", "--rho", "0.5", "--grid", "0.1,0.5")
        for line in out.splitlines()[2:]:
            cells = line.split(",")
            a = float(cells[0])
            mc_lb, mc_ub, hc_lb, hc_ub = map(float, cells[1:5])
            assert mc_lb - 1e-9 <= hc_lb <= hc_ub <= mc_ub + 1e-9
            assert 0.0 <= a <= 0.5

    def test_rho_out_of_open_interval_exits_2(self, capsys):
        assert run_cli(capsys, "curve", "--rho", "0._")[0] == 2
        assert run_cli(capsys, "curve", "--rho", "0")[0] == 2
        assert run_cli(capsys, "curve", "--rho", "1.0")[0] == 2

    def test_bad_grid_exits_2(self, capsys):
        rc, _ = run_cli(capsys, "curve", "--rho", "0.5", "--grid", "0.2,zebra")
        assert rc == 2


class TestOracleCommand:
    def test_exhaustive_run_writes_json(self, tmp_path, capsys):
        target = tmp_path / "res.json"
        rc, out = run_cli(
            capsys,
            "oracle",
            "--n", "3", "--m", "2", "--n2", "2", "--rho", "0.5",
            "--output", str(target),
        )
        assert rc == 0
        assert "max_q=0.140625" in out
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == 1
        assert doc["max_q"] == 0.140625
        assert "wall_time_s" not in doc

    def test_summary_deterministic(self, capsys):
        args = ("oracle", "--n", "3", "--m", "3", "--n2", "3", "--rho", "0.7")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_distance_objective(self, capsys):
        rc, out = run_cli(
            capsys,
            "oracle",
            "--n", "3", "--m", "4", "--n2", "4",
            "--objective", "distance",
        )
        assert rc == 0
        assert "min_d=1.0" in out

    def test_local_mode(self, capsys):
        rc, out = run_cli(
            capsys,
            "oracle",
            "--n", "6", "--m", "16", "--n2", "16", "--rho", "0.5",
            "--mode", "local", "--direction", "max",
            "--seed", "1", "--iters", "3",
        )
        assert rc == 0
        assert "exhaustive=False" in out

    def test_too_large_exhaustive_exits_3(self, capsys):
        rc, _ = run_cli(
            capsys, "oracle", "--n", "8", "--m", "4", "--n2", "4",
            "--rho", "0.5",
        )
        assert rc == 3

    def test_missing_rho_for_collision_exits_2(self, capsys):
        rc, _ = run_cli(capsys, "oracle", "--n", "3", "--m", "2", "--n2", "2")
        assert rc == 2


class TestVerifyCommand:
    def test_passing_run(self, capsys):
        rc, out = run_cli(capsys, "verify", "--trials", "2")
        assert rc == 0
        machine = json.loads(out.splitlines()[-1])
        assert machine["schema_version"] == 1
        assert machine["passed"] is True
        assert machine["failed_families"] == []

    def test_fault_injection_fails_with_named_family(self, capsys):
        rc, out = run_cli(
            capsys, "verify", "--trials", "2", "--inject-fault", "dual-bridge"
        )
        assert rc == 1
        machine = json.loads(out.splitlines()[-1])
        assert machine["passed"] is False
        assert machine["failed_families"] == ["dual-bridge"]

    def test_unknown_fault_family_exits_2(self, capsys):
        rc, _ = run_cli(
            capsys, "verify", "--trials", "2", "--inject-fault", "bogus"
        )
        assert rc == 2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--trials", "100"),
            "55b3e1469a76a9493f237622c1c6d5b3ec40be24120045e0df56488c665dadbd",
        ),
        (
            ("curve", "--rho", "0.5"),
            "4fb8734e000239642b79098a33af394da1529a47d730e49ef5eb6d0ad299352d",
        ),
        (
            ("bounds", "--a", "0.3", "--b", "0.2", "--rho", "0.4"),
            "d2b414328674e78230f8d4caa9936f0b586e0efdd55481625a718be8266ef128",
        ),
        (
            ("bounds", "--a", "0.7", "--b", "0.25", "--rho", "-0.4", "--format", "text"),
            "534f82c7b28661ec7844403fd32f2f7603b02167ba355ec68d0be41c324dc15c",
        ),
        (
            # degenerate marginal, with its warning
            ("bounds", "--a", "0", "--b", "0.3", "--rho", "0.5"),
            "21e49cdcb64b13c8a97bfc4e829049430c90a391e2263e4b62583f6a988e4202",
        ),
        (
            ("oracle", "--n", "3", "--m", "3", "--n2", "4", "--rho", "0.3", "--output", "-"),
            "a66787300d9c75a1d518a0d93ed98afc17431e0c0a5bc22b4fe5b7eb12d146ff",
        ),
        (
            ("oracle", "--n", "3", "--m", "3", "--n2", "4", "--objective", "distance", "--output", "-"),
            "ac4d962c5ebd2d13b18f598bc0c95096cfff49847fd7e4f3e863a0f17527d683",
        ),
        (
            # the same warning as a text line
            ("bounds", "--a", "0", "--b", "0.3", "--rho", "0.5", "--format", "text"),
            "0a35bf36aceaaf04d19de49545405ded902e4ba84eee89985606f16897d390c6",
        ),
    ],
)
def test_stdout_keeps_its_bytes(capsys, argv, digest):
    """The full stdout of the reference runs, pinned by its sha256.  Local
    search is left out: its values may move with the numpy/BLAS build."""
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTopLevel:
    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_no_arguments_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_one_process_reuses_the_parser(self, capsys):
        # main keeps one parser per process: failed parses, --help and
        # non-default options must not change what later calls print.
        assert run_cli(capsys, "frobnicate")[0] == 2
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "oracle", "--n", "4")[0] == 2
        assert run_cli(capsys, "oracle", "--n", "3", "--m", "2", "--n2", "2", "--rho", "0.5",
                       "--mode", "local", "--seed", "3", "--iters", "2")[0] == 0
        for argv in (
            ["bounds", "--a", "0.3", "--b", "0.2", "--rho", "0.4", "--format", "text"],
            ["curve", "--rho", "0.5", "--grid", "0.25,0.1"],
            ["oracle", "--n", "3", "--m", "3", "--n2", "5", "--rho", "0.5"],
        ):
            rc, out = run_cli(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "nisim.cli", *argv], capture_output=True, text=True
            )
            assert rc == fresh.returncode == 0, fresh.stderr
            assert out == fresh.stdout

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize("argv", [
        ["bounds", "--a", "0.25", "--b", "0.25", "--rho", "0.5"],
        ["curve", "--rho", "0.5"],
    ], ids=["bounds", "curve"])
    def test_optimizer_takes_no_config_flag(self, argv):
        parser = build_parser()
        assert parser.parse_args(argv).command == argv[0]
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--config", "opt.cfg"])

    def test_readme_commands_parse(self):
        blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
        lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("nisim ")]
        assert len(lines) >= 5
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_import_leaves_scipy_out(self):
        # scipy may be installed, but the package depends on numpy alone.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, nisim, nisim.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nisim.cli", "bounds",
             "--a", "0.5", "--b", "0.5", "--rho", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["combined_ub"] == 0.375
