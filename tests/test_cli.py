import json
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import pfold
from pfold import (IntegratorConfig, Params, ProblemClass, characteristic_quadratic, curve,
                   ivp, model)
from pfold.cli import _COMMANDS, main

from conftest import fresh

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

    def test_jl_inside_window(self, run_cli):
        proc = run_cli("analyze", "--class", "jl", "-p", "2", "-q", "5", "-n", "4", check=True)
        doc = json.loads(proc.stdout)
        assert doc["predicted_infinite_turns"] is True
        assert doc["conditions"]["classical_window"]["holds"] is True
        assert doc["closed_forms"]["lambda_inf"] == 0.75

    def test_mems_conditions_hold(self, run_cli):
        proc = run_cli("analyze", "--class", "mems", "-p", "2", "-q", "2", "-a", "0",
                       "-n", "3", check=True)
        doc = json.loads(proc.stdout)
        for name in ("leading_coefficient", "beta_threshold", "decay_exponent"):
            assert doc["conditions"][name]["holds"] is True

    # admissible sets without a guiding solution, with the condition each misses
    NO_GUIDING = [(("gelfand", "-p", "2", "-n", "1.5"), "n > p"),
                  (("mems", "-p", "2", "-n", "1", "-q", "3"), "(p-1)(beta-1) + n - 1 > 0"),
                  (("jl", "-p", "2", "-n", "6", "-q", "1.01"), "(n-p) beta^(p-1)"),
                  (("jl", "-p", "3", "-n", "5", "-q", "1.5"), "q - p + 1 > 0")]

    @pytest.mark.parametrize("sub,key", [("analyze", "closed_forms"), ("turns", "lambda_inf"),
                                         ("curve", "lambda_inf")])
    def test_no_guiding_solution(self, run_cli, sub, key):
        # no guiding solution, so no closed forms and no lambda_inf; the
        # curve is still finite (the jl runs end at their zero)
        for argv, condition in self.NO_GUIDING:
            proc = run_cli(sub, "--class", *argv, "--format", "json", check=True)
            doc = json.loads(proc.stdout)
            assert doc.get("summary", doc)[key] is None
            if sub == "analyze":
                assert condition in doc["validity_error"]
            if sub == "curve":
                assert len(doc["rows"]) == doc["summary"]["rows"] > 2
                assert np.all(np.isfinite(doc["rows"]))
                assert ("warning" in doc["summary"]) == (argv[0] == "jl")

    def test_infinite_threshold_is_quoted(self, run_cli):
        # mems with 4q = (p-2)^2: the beta threshold is infinite
        proc = run_cli("analyze", "--class", "mems", "-p", "4", "-n", "5", "-q", "1", check=True)
        cond = json.loads(proc.stdout)["conditions"]["beta_threshold"]
        assert (cond["threshold"], cond["margin"], cond["holds"]) == ("inf", "-inf", False)

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
        # with the class but without p or n
        for argv, message in ((("-n", "3"), "error: -p is required\n"),
                              (("-p", "2"), "error: -n is required\n")):
            proc = run_cli("analyze", "--class", "gelfand", *argv)
            assert proc.returncode == 2 and proc.stdout == "" and proc.stderr == message

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

    def test_trajectory_json_file(self, run_cli, tmp_path):
        out = tmp_path / "traj.json"
        proc = run_cli("solve", "--class", "mems", "-p", "2", "-q", "2", "-n", "3",
                       "--format", "json", "-o", str(out), check=True)
        assert json.loads(out.read_text())["header"] == ["t", "w", "wprime"]
        assert json.loads(proc.stdout)["termination"] == "t_max"

    def test_jl_zero_ends_with_a_warning(self, run_cli):
        proc = run_cli("solve", "--class", "jl", "-p", "2", "-n", "5", "-q", "2", "--format",
                       "json", check=True)
        summary = json.loads(proc.stdout)["summary"]
        assert summary["termination"] == "zero"
        assert summary["warning"].startswith("generating solution reached zero at t = 9.92")

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

    def test_time_span_past_the_float_range(self, run_cli):
        # t_end / t_start = 1e312 overflows; the decades are 312 all the same
        proc = run_cli("curve", "--class", "gelfand", "-p", "2", "-n", "3", "--t-start", "1e-12",
                       "--t-max", "1e300", "--samples-per-decade", "1", check=True)
        assert len(proc.stdout.splitlines()) == 1 + 313
        assert json.loads(proc.stderr)["rows"] == 313

    def test_samples_per_decade_past_the_floats_exit_2(self, run_cli):
        # an int past the floats once raised a bare OverflowError
        proc = run_cli("curve", "--class", "gelfand", "-p", "2", "-n", "3",
                       "--samples-per-decade", "1" + "0" * 400)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: samples_per_decade must be positive and finite")
        assert proc.stderr.count("\n") == 1

    def test_series_rows_read_at_their_own_time(self, run_cli):
        # t^2 below the normal floats: u0 = -w = t^2/6 at each row's t, not at
        # t = 1.5e-154, and 0 where t^2/6 underflows
        proc = run_cli("curve", "--class", "gelfand", "-p", "2", "-n", "3", "--t-start", "1e-300",
                       "--t-max", "1", "--samples-per-decade", "1", check=True)
        rows = [list(map(float, line.split(","))) for line in proc.stdout.splitlines()[1:]]
        for t, _, u0, _ in rows[:155]:
            assert u0 == pytest.approx(t * t / 6.0, rel=1e-9, abs=1e-320)

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

    @pytest.mark.parametrize("argv", [("jl", "-p", "2", "-n", "5", "-q", "2"),
                                      ("gelfand", "-p", "2", "-n", "3")])
    def test_summary_matches_the_last_row(self, run_cli, argv):
        # the truncated jl curve ends before the trajectory does
        proc = run_cli("curve", "--class", *argv, "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        summary, rows = doc["summary"], doc["rows"]
        assert summary["rows"] == len(rows)
        assert [summary["t_end"], summary["lambda_end"]] == rows[-1][:2]

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

    def test_summary_counts_guard_discards(self, run_cli):
        # a late fold of this set lies below the guard (near t = 4844)
        params = Params(p=2.9163914331524685, n=8.342952000081926, alpha=0)
        proc = run_cli("turns", "--class", "gelfand", "-p", repr(params.p), "-n",
                       repr(params.n), "--format", "json", check=True)
        discarded = json.loads(proc.stdout)["summary"]["guard_discarded"]
        traj = ivp.integrate(params, ProblemClass.GELFAND)
        assert discarded == curve.fold_answer(traj).guard_discarded >= 1

    @pytest.mark.parametrize("argv,params,problem", [
        (("gelfand", "-p", "2", "-n", "10"), Params(p=2, n=10, alpha=0), ProblemClass.GELFAND),
        # no guiding solution: lambda_inf is None
        (("gelfand", "-p", "2", "-n", "1.5"), Params(p=2, n=1.5, alpha=0), ProblemClass.GELFAND),
        (("jl", "-p", "2", "-n", "5", "-q", "2"), Params(p=2, n=5, alpha=0, q=2),
         ProblemClass.JOSEPH_LUNDGREN),
        (("gelfand", "-p", "2.9163914331524685", "-n", "8.342952000081926"),
         Params(p=2.9163914331524685, n=8.342952000081926, alpha=0), ProblemClass.GELFAND),
    ], ids=["no-fold", "no-guiding-solution", "ends-at-zero", "guard-discards"])
    def test_summary_is_the_fold_answer(self, run_cli, argv, params, problem):
        proc = run_cli("turns", "--class", *argv, "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        answer = curve.fold_answer(ivp.integrate(params, problem))
        assert answer.to_dict() == doc["summary"]
        assert [list(tp) for tp in answer.folds] == doc["rows"]

    def test_real_root_case_to_1e300(self, run_cli):
        # steps to 1e300 at the stability radius, with no fold
        proc = run_cli("turns", "--class", "gelfand", "-p", "2.5", "-n", "13.75",
                       "--t-max", "1e300", check=True)
        assert proc.stdout == "t_star,lambda_star,u0_star,direction\n"
        summary = json.loads(proc.stderr)
        assert (summary["count"], summary["t_end"]) == (0, 1e300)

    def test_late_folds_to_1e8(self, run_cli):
        # late folds located on many dense rows, past row boundaries
        proc = run_cli("turns", "--class", "mems", "-p", "2", "-q", "2", "-n", "3",
                       "--t-max", "1e8", check=True)
        summary = json.loads(proc.stderr)
        assert summary["count"] == proc.stdout.count("\n") - 1 > 0
        assert summary["alternating_directions"] is True

    def test_jl_without_scaling_ends_at_its_zero(self, run_cli):
        # q <= p - 1: the log phase runs without scaling (g = 0) and ends at a zero of w
        proc = run_cli("turns", "--class", "jl", "-p", "3", "-n", "5", "-a", "0.5", "-q", "1.5",
                       "--t-max", "100", "--format", "json", check=True)
        summary = json.loads(proc.stdout)["summary"]
        assert (summary["count"], summary["termination"]) == (0, "zero")


class TestProfile:
    def test_boundary_row(self, run_cli, tmp_path):
        out = tmp_path / "prof.csv"
        run_cli("profile", "--class", "mems", "-p", "2", "-q", "2", "-a", "0", "-n", "3",
                "--t", "1000", "-o", str(out), check=True)
        lines = out.read_text().splitlines()
        assert lines[0] == "r,u"
        assert lines[-1] == "1,0"
        assert len(lines) == 1 + 64

    @pytest.mark.parametrize("argv", [("gelfand", "-p", "3", "-n", "5", "-a", "1"),
                                      ("jl", "-p", "2", "-q", "5", "-n", "4")],
                             ids=["gelfand-3-5-1", "jl-2-4-5"])
    def test_boundary_row_at_the_default_t(self, run_cli, argv):
        # u(1) = 0 exactly: w(t r) and w(t) come from one dense read
        proc = run_cli("profile", "--class", *argv, check=True)
        lines = proc.stdout.splitlines()
        assert (lines[0], len(lines), lines[-1]) == ("r,u", 1 + 64, "1,0")
        assert proc.stderr == ""

    def test_range_check_exit_2(self, run_cli):
        proc = run_cli("profile", "--class", "mems", "-p", "2", "-q", "2", "-n", "3",
                       "--t", "1e9")
        assert proc.returncode == 2
        # NaN fails the range check too
        proc = run_cli("profile", "--class", "gelfand", "-p", "2", "-n", "3", "--t", "nan")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: profile needs") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("flag,value,message", [
        ("--r-min", "1", "error: --r-min must lie in (0, 1), got 1.0\n"),
        ("--r-points", "1", "error: --r-points must be at least 2\n"),
        # an int past the floats once raised a bare OverflowError in np.geomspace
        ("--r-points", "1" + "0" * 400,
         "error: --r-points must be at most 1.7976931348623157e+308\n"),
    ], ids=["r-min", "r-points", "r-points-past-the-floats"])
    def test_radius_grid_exit_2(self, run_cli, flag, value, message):
        proc = run_cli("profile", "--class", "gelfand", "-p", "2", "-n", "3", flag, value)
        assert proc.returncode == 2 and proc.stdout == "" and proc.stderr == message
        # the grid is checked before the problem is read
        proc = run_cli("profile", flag, value)
        assert proc.returncode == 2 and proc.stderr == message

    def test_series_segment_of_a_steep_scaling(self, run_cli):
        # g = -200: the radii t r lie on the series segment, where t^-g underflows
        proc = run_cli("profile", "--class", "jl", "-p", "2", "-n", "6", "-q", "1.01",
                       "--t", "0.01", check=True)
        assert proc.stderr == ""
        rows = [list(map(float, line.split(","))) for line in proc.stdout.splitlines()[1:]]
        assert len(rows) == 64 and np.isfinite(rows).all() and rows[-1] == [1.0, 0.0]

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

    def test_integrator_keys_reach_the_config(self, run_cli, tmp_path, monkeypatch):
        seen = []
        integrate = ivp.integrate

        def spy(params, problem, config):
            seen.append(config)
            return integrate(params, problem, config)

        monkeypatch.setattr(ivp, "integrate", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("class=gelfand\np=2\nn=3\nt_max=1e5\nrel-tol=1e-9\nmax_steps=5000\n")
        out = str(tmp_path / "traj.csv")
        ends = [json.loads(run_cli("solve", *argv, "-o", out, check=True).stdout)["t_end"]
                for argv in (("--config", str(cfg)), ("--config", str(cfg), "--t-max", "1e3"),
                             ("--class", "gelfand", "-p", "2", "-n", "3"))]
        assert ends == [1e5, 1e3, 1e4]
        assert seen == [IntegratorConfig(t_max=1e5, rel_tol=1e-9, max_steps=5000),
                        IntegratorConfig(t_max=1e3, rel_tol=1e-9, max_steps=5000),
                        IntegratorConfig()]
        assert type(seen[0].max_steps) is int

    @pytest.mark.parametrize("text,message", [
        # comments and blank lines are skipped, but still counted
        ("# a comment\nclass=gelfand\n\np=2\nn\n", "run.cfg:5: expected key=value, got 'n'"),
        ("class=gelfand\np=two\nn=3\n", "bad config value for p: 'two'"),
    ], ids=["bare-key", "not-a-number"])
    def test_malformed_config_exit_2(self, run_cli, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        proc = run_cli("analyze", "--config", str(cfg))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.endswith(message + "\n")

    def test_unknown_key_exit_2(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        proc = run_cli("analyze", "--config", str(cfg), "--class", "gelfand",
                       "-p", "2", "-n", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize("line,allowed", [("format=xml", "csv, json"),
                                              ("class=foo", "gelfand, mems, jl")])
    def test_value_outside_the_choices_exit_2(self, run_cli, tmp_path, line, allowed):
        # as a flag outside its choices: the config key and the allowed values
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"class=gelfand\np=2\nn=3\n{line}\n")
        proc = run_cli("solve", "--config", str(cfg))
        key, _, value = line.partition("=")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: bad config value for {key}: {value!r} (choose from {allowed})\n"


class TestVerify:
    def test_only_filter_passes(self, run_cli):
        proc = run_cli("verify", "--only", "8-condition")
        assert proc.returncode == 0
        assert "[PASS] 8-condition-exactness/gelfand-window-endpoints" in proc.stdout

    def test_tight_tolerance_fails(self, run_cli):
        # exit 1; a line per criterion, then the count of those that passed
        proc = run_cli("verify", "--only", "3-mems", "--tol-scale", "1e-6")
        *rows, summary = proc.stdout.splitlines()
        assert proc.returncode == 1
        assert all(re.fullmatch(r"\[(PASS|FAIL)\] 3-mems-spiral/[a-z0-9-]+ :: .+", row)
                   for row in rows)
        failed = [row.split()[1] for row in rows if row.startswith("[FAIL]")]
        assert failed == ["3-mems-spiral/lambda-gap-1e3", "3-mems-spiral/profile-gap"]
        assert summary == f"{len(rows) - len(failed)}/{len(rows)} criteria passed"

    def test_unknown_filter_exit_2(self, run_cli):
        proc = run_cli("verify", "--only", "no-such-row")
        assert proc.returncode == 2

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_tol_scale_must_be_positive_and_finite(self, run_cli, scale):
        # inf once passed every criterion, the strict xfail included
        proc = run_cli("verify", "--only", "8", "--tol-scale", scale)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: tol_scale must be positive and finite")
        assert proc.stderr.count("\n") == 1


def _assert_finite_csv(proc):
    """Every number of a CSV output and of its one-line JSON summary on stderr
    is finite: ``nan`` and ``inf`` parse as floats, and the summary writes
    them as quoted strings."""
    for line in proc.stdout.splitlines()[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:  # a direction
                continue
            assert math.isfinite(value), line
    if proc.stderr:
        assert proc.stderr.count("\n") == 1
        summary = json.loads(proc.stderr)
        assert not {"nan", "inf", "-inf"} & {v for v in summary.values() if isinstance(v, str)}


class TestOutOfFloatRange:
    """Parameters whose exponents leave the float range: one error line, no traceback."""

    @pytest.mark.parametrize("flag", ["--t-max", "--rel-tol", "--abs-tol"])
    def test_infinite_setting_exit_2(self, run_cli, flag):
        # a non-finite setting is rejected before any stepping
        proc = run_cli("turns", "--class", "gelfand", "-p", "2", "-n", "3", flag, "inf")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv,code,prefix", [
        # t1^c overflows: c = -1997 at t1 = 0.61, and -496 at t1 = 0.22
        (("turns", "--class", "mems", "-p", "5", "-n", "2000", "-q", "5"), 3,
         "numerical failure:"),
        (("solve", "--class", "mems", "-p", "10", "-n", "500", "-q", "5"), 3,
         "numerical failure:"),
        # t1^-g overflows, g = -20000
        (("turns", "--class", "jl", "-p", "2", "-n", "3", "-q", "1.0001"), 3,
         "numerical failure:"),
        # t w' ~ Z^10000 leaves the floats at a node
        pytest.param(
            ("turns", "--class", "mems", "-p", "1.0001", "-n", "1", "-a", "100", "-q", "0.1"), 3,
            "numerical failure: the node at t = 1.9629207315103925 leaves the float range in t w'",
            id="mems-near-p-one-node"),
    ])
    def test_exit_code_and_one_line(self, run_cli, argv, code, prefix):
        proc = run_cli(*argv)
        assert proc.returncode == code
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("argv,params,problem", [
        (("--class", "gelfand", "-p", "1.0001", "-n", "3"), Params(p=1.0001, n=3, alpha=0),
         ProblemClass.GELFAND),
        (("--class", "mems", "-p", "1.0001", "-n", "3", "-q", "0.5"),
         Params(p=1.0001, n=3, alpha=0, q=0.5), ProblemClass.MEMS),
    ], ids=["gelfand", "mems"])
    def test_near_p_one_reaches_t_max(self, run_cli, argv, params, problem):
        # phiinv(Z) = Z^10000 overflows in trial stages, which are rejected steps
        proc = run_cli("turns", *argv, "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        assert doc["summary"]["t_end"] == 1e4 and doc["summary"]["termination"] == "t_max"
        ts = [row[0] for row in doc["rows"]]
        assert len(ts) > 200
        spin = abs(characteristic_quadratic(params, problem).roots[0].imag)
        for a, b in zip(ts[-6:-1], ts[-5:]):
            assert b / a == pytest.approx(math.exp(math.pi / spin), rel=1e-3)

    # lambda_inf = beta^(p-1) D and coeff = lambda_inf^(1/E) in floats: beta^(p-1)
    # overflows where D < 0 (gelfand, jl), lambda_inf overflows or underflows to 0
    # (mems); then the squares of the conditions leave the floats past 3e154
    @pytest.mark.parametrize("argv,validity_error", [
        (("gelfand", "-p", "147", "-n", "2.19"),
         "gelfand guiding solution requires n > p, got n = 2.19, p = 147.0"),
        (("gelfand", "-p", "143.86", "-n", "3"),
         "gelfand guiding solution requires n > p, got n = 3.0, p = 143.86"),
        (("mems", "-p", "1070", "-n", "121", "-a", "1350", "-q", "0.259"),
         "mems guiding solution leaves the float range: lambda_inf = inf, coeff = 0.0"),
        (("mems", "-p", "480", "-n", "866", "-q", "2460"),
         "mems guiding solution leaves the float range: lambda_inf = 0.0, coeff = inf"),
        (("jl", "-p", "634", "-n", "17.2", "-a", "0.00275", "-q", "799"),
         "jl guiding solution requires (n-p) beta^(p-1) - (p-1) beta^p > 0, got -inf"),
        (("mems", "-p", "4e154", "-n", "3", "-q", "2"),
         "mems guiding solution requires (p-1)(beta-1) + n - 1 > 0, got 0.0"),
        (("jl", "-p", "4e154", "-n", "3", "-q", "4e154"),
         "jl guiding solution requires (n-p) beta^(p-1) - (p-1) beta^p > 0, got -inf"),
    ], ids=["gelfand-147", "gelfand-143.86", "mems-lambda-inf", "mems-lambda-zero",
            "jl-634", "mems-squares", "jl-squares"])
    def test_analyze_past_the_float_range(self, run_cli, argv, validity_error):
        proc = run_cli("analyze", "--class", *argv)
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["closed_forms"] is None and doc["validity_error"] == validity_error
        assert doc["predicted_infinite_turns"] is False

    def test_lambda_inf_is_null_past_the_float_range(self):
        traj = SimpleNamespace(params=Params(p=480, n=866, alpha=0, q=2460),
                               problem=ProblemClass.MEMS)
        assert curve._lambda_inf(traj) is None

    @pytest.mark.parametrize("argv", [
        ("gelfand", "-p", "2", "-n", "1000"), ("mems", "-p", "2", "-n", "1000", "-q", "2"),
        ("jl", "-p", "2", "-n", "2000", "-q", "3"),
    ], ids=["gelfand", "mems", "jl"])
    def test_large_n_exit_0(self, run_cli, argv):
        # the series' flux t1^m at its reach overflows; the log phase starts without it
        proc = run_cli("turns", "--class", *argv)
        assert proc.returncode == 0 and proc.stdout == "t_star,lambda_star,u0_star,direction\n"
        assert proc.stderr.count("\n") == 1
        summary = json.loads(proc.stderr)
        assert (summary["count"], summary["t_end"]) == (0, 1e4)

    def test_scale_past_the_float_range_exit_0(self, run_cli):
        # t^-g = t^2 leaves the floats past t = 1.34e154, where the samples read it as inf
        jl = ("--class", "jl", "-p", "2", "-n", "6", "-q", "2", "--t-max", "1e300")
        for command in ("turns", "curve"):
            proc = run_cli(command, *jl, check=True)
            assert proc.stderr.count("\n") == 1
            assert json.loads(proc.stderr)["termination"] == "t_max"
        # a subnormal w gives u0 = inf on the curve's last rows and u = inf here
        proc = run_cli("profile", *jl, "--t", "1.318e154", "--r-min", "1e-155", check=True)
        assert proc.stderr == "" and proc.stdout.splitlines()[1].endswith(",inf")

    def test_empty_log_phase_interval_exit_0(self, run_cli):
        # the series' reach is one ulp below t_max, with the same logarithm
        proc = run_cli("turns", "--class", "gelfand", "-p", "1.6213969982196472",
                       "-n", "11.973479921497532", "--t-max", "3.3306321526638416", check=True)
        summary = json.loads(proc.stderr)
        assert summary["termination"] == "t_max" and summary["t_end"] == 3.3306321526638416

    @pytest.mark.parametrize("argv", [
        ("curve", "--class", "gelfand", "-p", "2", "-n", "3"),
        ("turns", "--class", "gelfand", "-p", "2", "-n", "3"),
        ("solve", "--class", "gelfand", "-p", "2", "-n", "3"),
        ("profile", "--class", "gelfand", "-p", "2", "-n", "3"),
        ("solve", "--class", "mems", "-p", "3", "-n", "8", "-q", "2"),
    ], ids=["curve-gelfand", "turns-gelfand", "solve-gelfand", "profile-gelfand", "solve-mems"])
    def test_tiny_t_start_gives_finite_output(self, run_cli, argv):
        # t_start^(n-1) underflows to 0, which nothing divides by
        proc = run_cli(*argv, "--t-start", "1e-300", check=True)
        assert proc.stdout.count("\n") > 1
        _assert_finite_csv(proc)

    # gelfand at two horizons, then a fixed slice of the parameter box at 1e300:
    # w or t w' of mems with q = 0.1 really leaves the floats, every other set
    # answers
    @pytest.mark.parametrize("argv,t_max,failure", [
        (("--class", "gelfand", "-p", "2", "-n", "3"), 1e200, None),
        (("--class", "gelfand", "-p", "2", "-n", "3"), 1e300, None),
        # w and t w' fit up to 1e300; the flux v ~ t^1.995 would not past 1e154
        (("--class", "mems", "-p", "1.01", "-n", "3", "-q", "2"), 1e300, None),
        # t w' ~ 2.5 w ~ t^2.5 leaves them, and w soon after, before the node
        (("--class", "mems", "-p", "1.5", "-n", "2", "-q", "0.1"), 1e300,
         r"the node at t = 5\.7\d*e\+123 leaves the float range in w, t w'"),
        (("--class", "gelfand", "-p", "2", "-n", "6"), 1e300, None),
        (("--class", "gelfand", "-p", "1.01", "-n", "3"), 1e300, None),
        (("--class", "gelfand", "-p", "3", "-n", "6"), 1e300, None),
        (("--class", "mems", "-p", "2", "-n", "3", "-q", "2"), 1e300, None),
        (("--class", "mems", "-p", "2", "-n", "3", "-q", "0.1"), 1e300,
         r"the node at t = 9\.3\d*e\+169 leaves the float range in w, t w'"),
        (("--class", "jl", "-p", "1.5", "-n", "3", "-q", "5"), 1e300, None),
        (("--class", "jl", "-p", "2", "-n", "6", "-q", "5"), 1e300, None),
        # the monitor passes about 1e154, where a product of two samples overflows
        (("--class", "gelfand", "-p", "2", "-n", "1"), 1e300, None),
        (("--class", "mems", "-p", "1.5937332984652182", "-n", "1", "-q", "32.8988743489788"),
         2.793289255295866e+243, None),
    ], ids=["gelfand-1e200", "gelfand-1e300", "mems-1e300", "mems-small-q-1e300",
            "gelfand-2-6", "gelfand-1.01-3", "gelfand-3-6", "mems-2-3-2", "mems-2-3-0.1",
            "jl-1.5-3-5", "jl-2-6-5", "gelfand-2-1", "mems-1.59-1"])
    def test_horizon_near_the_top_of_the_floats(self, run_cli, argv, t_max, failure):
        for command in ("turns", "curve"):
            proc = run_cli(command, *argv, "--t-max", repr(t_max))
            if failure:
                assert proc.returncode == 3 and proc.stdout == ""
                assert re.fullmatch(f"numerical failure: {failure}\n", proc.stderr)
                continue
            assert proc.returncode == 0, proc.stderr
            _assert_finite_csv(proc)
            summary = json.loads(proc.stderr)
            assert summary["termination"] == "t_max" and summary["t_end"] == t_max

    @pytest.mark.parametrize("argv", [
        # series coefficients that underflow to 0 as p nears 1
        ("--class", "mems", "-p", "1.01", "-n", "3", "-q", "2"),
        ("--class", "gelfand", "-p", "1.001", "-n", "3"),
    ], ids=["mems", "gelfand"])
    def test_underflowing_series_gives_finite_folds(self, run_cli, argv):
        proc = run_cli("turns", *argv, "--t-max", "100", "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        assert proc.stderr == "" and doc["summary"]["t_end"] == 100
        assert doc["summary"]["count"] == len(doc["rows"]) > 0
        assert doc["summary"]["predicted_infinite_turns"] is True
        # a non-finite value would be written as a quoted string
        assert all(isinstance(x, float) for row in doc["rows"] for x in row[:3])


# a module set to None in sys.modules is one that cannot be imported
_LOADED = ("import sys\nprint(sorted({name.split('.')[0] for name, module in sys.modules.items()\n"
           "                   if module is not None} & {'numpy', 'scipy'}))")
_SETS = {"gelfand": dict(p=2, n=3), "mems": dict(p=2, n=3, q=2), "jl": dict(p=2, n=4, q=5)}


def _cli(*argv: str) -> str:
    """Code that runs ``pfold`` with ``argv`` in process; ``--help`` exits."""
    return (f"from pfold.cli import main\ntry:\n    main({list(argv)!r})\n"
            "except SystemExit:\n    pass")


def _analyze(problem: str) -> str:
    return _cli("analyze", "--class", problem,
                *(arg for key, value in _SETS[problem].items() for arg in (f"-{key}", str(value))))


def _model_api(problem: str) -> str:
    return ("from pfold import Params, ProblemClass, characteristic_quadratic, check_conditions, "
            f"closed_forms\nargs = Params(**{_SETS[problem]!r}), ProblemClass({problem!r})\n"
            "for f in (characteristic_quadratic, check_conditions, closed_forms):\n"
            "    f(*args).to_dict()")


# case id: (code, the top-level packages of numpy and scipy that it loads)
_COLD = {
    "import-pfold": ("import pfold", []),
    **{f"model-{problem}": (_model_api(problem), []) for problem in _SETS},
    **{f"analyze-{problem}": (_analyze(problem), []) for problem in _SETS},
    "integrator-config": ("from pfold import IntegratorConfig, IntegrationError", []),
    "help": (_cli("--help"), []),
    **{f"{sub}-help": (_cli(sub, "--help"), []) for sub in _COMMANDS},
    "integrate": ("import pfold\n"
                  "pfold.integrate(pfold.Params(p=2, n=3), pfold.ProblemClass('gelfand'))",
                  ["numpy"]),
}


class TestColdStart:
    """What a fresh interpreter loads: numpy only where a trajectory is stepped."""

    @pytest.mark.parametrize("code,loaded", list(_COLD.values()), ids=list(_COLD))
    def test_modules_loaded(self, code, loaded):
        assert fresh(f"{code}\n{_LOADED}") == repr(loaded)


class TestPublicNames:
    """``pfold.<name>`` resolves the public names of ``model``, ``ivp`` and ``curve``."""

    def test_names_resolve_to_the_modules_objects(self):
        # in a fresh interpreter, where ivp and curve load on first access
        code = ("import importlib, pfold\n"
                "lazy = {s: getattr(pfold, s) for s in ('ivp', 'curve')}\n"
                "mods = {s: importlib.import_module('pfold.' + s)\n"
                "        for s in ('model', 'ivp', 'curve', 'output', 'verify', 'cli')}\n"
                "bad = [s for s in lazy if lazy[s] is not mods[s]]\n"
                "bad += [n for s in ('model', 'ivp', 'curve') for n in mods[s].__all__\n"
                "        if getattr(pfold, n) is not getattr(mods[s], n)]\n"
                "bad += [s for s in mods if getattr(pfold, s) is not mods[s]]\n"
                "print(bad)")
        assert fresh(code) == "[]"

    def test_star_import_binds_the_modules_names(self):
        # dir() lists them before they load
        code = ("import pfold\nlisted = set(dir(pfold))\n"
                "ns = {}\nexec('from pfold import *', ns)\nns.pop('__builtins__')\n"
                "print(sorted(ns), listed >= set(ns), all(ns[n] is getattr(pfold, n) for n in ns))")
        names = sorted({*model.__all__, *ivp.__all__, *curve.__all__, "model", "ivp", "curve"})
        assert fresh(code) == f"{names!r} True True"

    def test_names_are_filed_under_their_defining_module(self):
        # model's by its star import, the others lazily; pfold.ivp imports model's two
        owners = {"model": model.__all__, **pfold._LAZY}
        misfiled = [n for owner, names in owners.items() for n in names
                    if getattr(pfold, n).__module__ != "pfold." + owner]
        assert misfiled == []
        assert ivp.IntegratorConfig is pfold.IntegratorConfig

    def test_unknown_name_is_an_attribute_error(self):
        # without importing ivp: the fallback of ``from pfold import verify`` needs the error
        code = ("import sys, pfold\nmissing = []\n"
                "for name in ('nosuch', '_private', '__wrapped__', 'verify'):\n"
                "    try:\n        getattr(pfold, name)\n"
                "    except AttributeError:\n        missing.append(name)\n"
                "before = 'pfold.ivp' in sys.modules\n"
                "from pfold import verify\n"
                "print(missing, before, verify is sys.modules['pfold.verify'])")
        assert fresh(code) == "['nosuch', '_private', '__wrapped__', 'verify'] False True"
