import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from pfold.cli import main

CLI = [sys.executable, "-m", "pfold.cli"]


@pytest.fixture
def run_cli(capsys):
    """Run ``pfold`` in process; returns ``returncode``, ``stdout``, ``stderr``."""

    def run(*args, check=False):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse exits on malformed arguments
            code = exc.code
        out, err = capsys.readouterr()
        if check:
            assert code == 0, err
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


class TestEntryPoint:
    """``python -m pfold.cli`` in a fresh interpreter: output and exit status."""

    def test_module_runs(self):
        proc = subprocess.run(CLI + ["analyze", "--class", "gelfand", "-p", "2", "-n", "3"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["closed_forms"]["lambda_inf"] == 2

    def test_exit_status(self):
        proc = subprocess.run(CLI + ["analyze", "--class", "gelfand", "-p", "0.5", "-n", "3"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert "p must satisfy" in proc.stderr


class TestAnalyze:
    def test_gelfand_spiral_regime(self, run_cli):
        proc = run_cli("analyze", "--class", "gelfand", "-p", "2", "-a", "0", "-n", "3",
                       check=True)
        doc = json.loads(proc.stdout)
        assert doc["predicted_infinite_turns"] is True
        window = doc["conditions"]["dimension_window"]
        assert window["window"] == "2<n<10"
        assert doc["closed_forms"]["lambda_inf"] == 2

    def test_jl_outside_window(self, run_cli):
        proc = run_cli("analyze", "--class", "jl", "-p", "2", "-q", "5", "-a", "0",
                       "-n", "12", check=True)
        doc = json.loads(proc.stdout)
        assert doc["predicted_infinite_turns"] is False
        assert doc["conditions"]["classical_window"]["holds"] is False

    def test_mems_conditions_hold(self, run_cli):
        proc = run_cli("analyze", "--class", "mems", "-p", "2", "-q", "2", "-a", "0",
                       "-n", "3", check=True)
        doc = json.loads(proc.stdout)
        for name in ("leading_coefficient", "beta_threshold", "decay_exponent"):
            assert doc["conditions"][name]["holds"] is True

    def test_sorted_keys(self, run_cli):
        proc = run_cli("analyze", "--class", "gelfand", "-p", "2", "-n", "3", check=True)
        doc = json.loads(proc.stdout)
        keys = list(doc.keys())
        assert keys == sorted(keys)

    def test_invalid_params_exit_2(self, run_cli):
        proc = run_cli("analyze", "--class", "gelfand", "-p", "0.5", "-n", "3")
        assert proc.returncode == 2
        assert "p must satisfy" in proc.stderr

    def test_missing_class_exit_2(self, run_cli):
        proc = run_cli("analyze", "-p", "2", "-n", "3")
        assert proc.returncode == 2

    def test_malformed_flag_exit_2(self, run_cli):
        proc = run_cli("analyze", "--class", "nosuch", "-p", "2", "-n", "3")
        assert proc.returncode == 2


class TestSolve:
    def test_trajectory_csv(self, run_cli, tmp_path):
        out = tmp_path / "traj.csv"
        proc = run_cli("solve", "--class", "gelfand", "-p", "2", "-a", "0", "-n", "3",
                       "-o", str(out), check=True)
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,w,wprime"
        assert len(lines) > 20
        t, w, wp = map(float, lines[-1].split(","))
        assert t == 1e4 and w < 0 and wp < 0
        summary = json.loads(proc.stdout)
        assert summary["termination"] == "t_max"

    def test_max_steps_exit_3(self, run_cli, tmp_path):
        proc = run_cli("solve", "--class", "gelfand", "-p", "2", "-n", "3",
                       "--max-steps", "10", "-o", str(tmp_path / "x.csv"))
        assert proc.returncode == 3
        assert "max_steps" in proc.stderr


class TestCurve:
    def test_row_count_and_limit(self, run_cli, tmp_path):
        out = tmp_path / "curve.csv"
        proc = run_cli("curve", "--class", "gelfand", "-p", "2", "-a", "0", "-n", "3",
                       "-o", str(out), check=True)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,lambda,u0,monitor"
        assert len(lines) == 1 + 501  # 50 per decade over 10 decades, plus endpoint
        last = lines[-1].split(",")
        assert abs(float(last[1]) - 2.0) < 0.05
        summary = json.loads(proc.stdout)
        assert summary["rows"] == 501

    def test_samples_per_decade_flag(self, run_cli, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli("curve", "--class", "gelfand", "-p", "2", "-n", "3",
                "--samples-per-decade", "20", "-o", str(out), check=True)
        assert len(out.read_text().splitlines()) == 1 + 201

    def test_jl_zero_event_truncates_with_warning(self, run_cli, tmp_path):
        out = tmp_path / "curve.csv"
        proc = run_cli("curve", "--class", "jl", "-p", "2", "-q", "2", "-a", "0",
                       "-n", "5", "-o", str(out), check=True)
        summary = json.loads(proc.stdout)
        assert summary["termination"] == "zero"
        assert "truncated" in summary["warning"]

    def test_json_format_embeds_summary(self, run_cli):
        proc = run_cli("curve", "--class", "jl", "-p", "2", "-q", "2", "-a", "0",
                       "-n", "5", "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        assert doc["header"] == ["t", "lambda", "u0", "monitor"]
        assert "warning" in doc["summary"]

    def test_determinism(self, run_cli, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("curve", "--class", "mems", "-p", "2", "-q", "2", "-a", "0", "-n", "3")
        pa = run_cli(*args, "-o", str(a), check=True)
        pb = run_cli(*args, "-o", str(b), check=True)
        assert a.read_bytes() == b.read_bytes()
        assert pa.stdout == pb.stdout


class TestTurns:
    def test_gelfand_spiral(self, run_cli, tmp_path):
        out = tmp_path / "turns.csv"
        proc = run_cli("turns", "--class", "gelfand", "-p", "2", "-a", "0", "-n", "3",
                       "-o", str(out), check=True)
        lines = out.read_text().splitlines()
        assert lines[0] == "t_star,lambda_star,u0_star,direction"
        assert len(lines) - 1 >= 4
        assert lines[1].endswith("right-to-left")
        summary = json.loads(proc.stdout)
        assert summary["count"] >= 4
        assert summary["alternating_directions"] is True
        assert summary["predicted_infinite_turns"] is True

    def test_gelfand_monotone_boundary(self, run_cli, tmp_path):
        out = tmp_path / "turns.csv"
        proc = run_cli("turns", "--class", "gelfand", "-p", "2", "-a", "0", "-n", "10",
                       "-o", str(out), check=True)
        assert len(out.read_text().splitlines()) == 1
        summary = json.loads(proc.stdout)
        assert summary["count"] == 0
        assert summary["alternating_directions"] is None


class TestProfile:
    def test_boundary_row(self, run_cli, tmp_path):
        out = tmp_path / "prof.csv"
        run_cli("profile", "--class", "mems", "-p", "2", "-q", "2", "-a", "0", "-n", "3",
                "--t", "1000", "-o", str(out), check=True)
        lines = out.read_text().splitlines()
        assert lines[0] == "r,u"
        assert lines[-1] == "1,0"
        assert len(lines) == 1 + 64

    def test_range_check_exit_2(self, run_cli):
        proc = run_cli("profile", "--class", "mems", "-p", "2", "-q", "2", "-n", "3",
                       "--t", "1e9")
        assert proc.returncode == 2

    def test_past_a_zero_of_w_exit_2(self, run_cli):
        # --t 1e3 is clamped to the zero of w at t = 9.922
        proc = run_cli("profile", "--class", "jl", "-p", "2", "-n", "5", "-q", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "reaches zero at t = 9.92219843" in proc.stderr


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("class=gelfand\np=2\nalpha=0\nn=10\n")
        proc = run_cli("analyze", "--config", str(cfg), check=True)
        doc = json.loads(proc.stdout)
        assert doc["params"]["n"] == 10
        assert doc["predicted_infinite_turns"] is False
        proc2 = run_cli("analyze", "--config", str(cfg), "-n", "3", check=True)
        doc2 = json.loads(proc2.stdout)
        assert doc2["params"]["n"] == 3
        assert doc2["predicted_infinite_turns"] is True

    def test_unknown_key_exit_2(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        proc = run_cli("analyze", "--config", str(cfg), "--class", "gelfand",
                       "-p", "2", "-n", "3")
        assert proc.returncode == 2


class TestVerify:
    def test_only_filter_passes(self, run_cli):
        proc = run_cli("verify", "--only", "8-condition")
        assert proc.returncode == 0
        assert "[PASS] 8-condition-exactness/gelfand-window-endpoints" in proc.stdout

    def test_tight_tolerance_fails(self, run_cli):
        proc = run_cli("verify", "--only", "3-mems", "--tol-scale", "1e-6")
        assert proc.returncode == 1
        assert "[FAIL]" in proc.stdout

    def test_unknown_filter_exit_2(self, run_cli):
        proc = run_cli("verify", "--only", "no-such-row")
        assert proc.returncode == 2
