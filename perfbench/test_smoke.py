"""Smoke test of the benchmark: every workload at minimal size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
# cli is not in BENCHMARK.json, but it stays runnable and is checked here too
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["cli"]
PRINTED = {"setup_s": "s", "queries_per_s": "1/s", "query_ms_p50": "ms", "query_ms_tail": "ms",
           "peak_rss_mb": "MB", "error_rate": "ratio", "lambda_err_digits": "digits",
           "fold_count_mismatches": "count", "fold_t_err_digits": "digits",
           "criteria_failed": "count"}


def run(workload, trace, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, stdin=subprocess.DEVNULL)
    return proc, proc.stdout.splitlines()


def printed_metrics(lines):
    """name -> (value, unit) from the report table."""
    table = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] in PRINTED:
            table[parts[0]] = (parts[1], parts[2])
    return table


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    proc, lines = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(isinstance(v["value"], (int, float)) for v in final["metrics"].values())
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)
        assert (REPO / "perfbench" / "out" / f"spans-{workload}-seed0.jsonl").exists()
    else:
        table = printed_metrics(lines)
        assert {k: unit for k, (_, unit) in table.items()} == PRINTED
        assert table["error_rate"][0] == "0"
        measured = {k for k, (value, _) in table.items() if value != "n/a"}
        assert {"sweep": {"lambda_err_digits", "fold_count_mismatches", "fold_t_err_digits"},
                "spiral": {"lambda_err_digits", "fold_count_mismatches", "fold_t_err_digits"},
                "verify": {"criteria_failed"}}.get(workload, set()) <= measured
        if workload == "verify":
            assert table["criteria_failed"][0] == "1"


def copy_benchmark(tmp_path):
    """BENCHMARK.json and the benchmark's files, without their outputs."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".cache", "__pycache__"))


def test_corrupted_reference_is_an_error(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(REPO / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "refs" / "sweep-seed0.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    for case in refs["cases"]:
        case["lambda"] *= 1.001
    path.write_text(json.dumps(refs), encoding="utf-8")
    proc, lines = run("sweep", 0, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(lines[-1])
    assert final["failed"] > 0 and final["correct"] is False
    assert float(printed_metrics(lines)["error_rate"][0]) > 0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is nothing to
    measure: a nonzero exit and no result line."""
    copy_benchmark(tmp_path)
    proc, lines = run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
