"""The pfold benchmark: one command, four workloads, answers checked against references.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Workloads (the reasons are in ``BENCHMARK.json``): ``sweep``, ``spiral``, ``verify``, and
``cli``, which ``BENCHMARK.json`` leaves out (see ``workloads.CLI_WHY``).
Each is a closed loop with one client in one process, no worker threads.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of seven
fresh interpreters that import pfold, build the inputs and load the
references), queries per second, median and tail latency, peak RSS, the
error rate and the workload's accuracy figures.  The query times of the
in-process workloads are host-normalised (see ``hostspeed.py``); their
wall-clock values are printed beside them.  ``--trace 1`` asks each query
untraced and traced in turn, writes the spans to ``perfbench/out/``, and
prints the per-layer metrics and the tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metric names and
units come from ``BENCHMARK.json``.  Everything else (versions, ``nproc``,
seed, sample counts, reasons) goes to the lines above it and to
``perfbench/out/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads as W
import hostspeed
from tracing import layer_of

BENCHMARK = W.REPO / "BENCHMARK.json"
WORKER = W.HERE / "worker.py"
OUT_DIR = W.HERE / "out"
SETUP_RUNS = 7
#: Wall-clock limit of one benchmark run, below the 180 s the caller allows.
DEADLINE_S = 170

ACCURACY_UNITS = {"lambda_err_digits": "digits", "fold_count_mismatches": "count",
                  "fold_t_err_digits": "digits", "criteria_failed": "count"}


class BenchmarkError(RuntimeError):
    pass


def _versions():
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    out["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return out


def _worker_cmd(phase, args):
    cmd = [sys.executable, str(WORKER), "--phase", phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd


def _start(cmd, procs):
    proc = subprocess.Popen(cmd, cwd=W.REPO, env=W.child_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    procs.append(proc)
    return proc


def _finish(proc, what):
    rest = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise BenchmarkError(f"{what} exited with code {proc.returncode}")
    return rest


def _timed_setup(cmd, procs):
    """Seconds from spawning a fresh interpreter to its READY line, and the process."""
    t0 = time.perf_counter()
    proc = _start(cmd, procs)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, "set-up")
        raise BenchmarkError(f"worker printed {line!r} instead of READY")
    return elapsed, proc


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _per(name, from_suite):
    """What a per-layer value is an amount of: a workload query, the layer
    suite, or the whole run."""
    layer = layer_of(name)
    if layer is None:
        return "query" if name == "trace.overhead_ms" else "run"
    return "suite" if layer in from_suite else "query"


def measure(args, spec, procs):
    """Run the phases in fresh interpreters and return the run record."""
    refs = subprocess.run(_worker_cmd("refs", args), cwd=W.REPO, env=W.child_env(),
                          capture_output=True, text=True, timeout=DEADLINE_S,
                          stdin=subprocess.DEVNULL)
    if refs.returncode != 0:
        sys.stderr.write(refs.stderr)
        raise BenchmarkError("computing or finding the references failed")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": _versions(),
              "why": {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload, W.CLI_WHY),
              "references": refs.stdout.strip().splitlines()}
    def setup_only():
        for _ in range(0 if args.trace else SETUP_RUNS // 2):
            elapsed, proc = _timed_setup(_worker_cmd("setup", args), procs)
            _finish(proc, "set-up")
            setups.append(elapsed)

    # The host's speed changes over seconds: half of the set-ups run before
    # the measured one, half after it, so that they span the whole run.
    setups = []
    setup_only()
    elapsed, proc = _timed_setup(_worker_cmd("run", args), procs)
    setups.append(elapsed)
    lines = _finish(proc, "benchmark worker").strip().splitlines()
    setup_only()
    if not lines:
        raise BenchmarkError("benchmark worker printed no result")
    record["result"] = json.loads(lines[-1])
    record["setup_runs_s"] = setups
    return record


def end_to_end(record):
    """name -> (value, unit, samples, note); times are host-normalised."""
    res = record["result"]
    acc = res["accuracy"]
    n = res["attempted"]
    setups = record["setup_runs_s"]
    wall = res["wall"]
    metrics = {
        "setup_s": (statistics.median(setups) * res["run_factor"], "s", len(setups),
                    f"median of fresh interpreters: import pfold, inputs, references; "
                    f"wall {statistics.median(setups):.4g} s"),
        "queries_per_s": (res["queries_per_s"], "1/s", n,
                          f"1/mean latency; wall {wall['queries_per_s']:.4g}/s over "
                          f"{res['passes']} passes in {res['wall_s']:.2f} s"),
        "query_ms_p50": (res["query_ms_p50"], "ms", n, f"wall {wall['query_ms_p50']:.4g} ms"),
        "query_ms_tail": (res["query_ms_tail"], "ms", n,
                          f"p90, {res['tail_beyond']} samples beyond; "
                          f"wall {wall['query_ms_tail']:.4g} ms" + (
                              "; p{:.4g} (10 samples beyond) {:.4g} ms".format(*res["deep_tail"])
                              if res["deep_tail"] else "")),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1,
                        "largest pfold child" if record["workload"] == "cli" else "worker process"),
        "error_rate": (res["failed"] / n, "ratio", n, f"{res['failed']} of {n} queries"),
    }
    for key, unit in ACCURACY_UNITS.items():
        if key in acc and acc[key] is not None:
            metrics[key] = (acc[key], unit, acc.get("cases", 1), "over distinct cases")
    return metrics


def report(record, spec):
    """Human-readable lines, then the metrics the caller reads (names from BENCHMARK.json)."""
    res = record["result"]
    env = record["env"]
    lines = [
        f"pfold benchmark: workload={record['workload']} seed={record['seed']} "
        f"trace={record['trace']} seconds={record['seconds']:g}",
        f"why: {record['why']}",
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}",
        *record["references"],
    ]
    if record["trace"]:
        layer = res["per_layer"]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        lines.append(f"{'per-layer metric':46} {'value':>12}  {'unit':10}  per")
        lines += [f"{name:46} {_fmt(layer.get(name)):>12}  {unit:10}  "
                  f"{_per(name, res['from_suite'])}" for name, unit in names]
        lines.append(f"per query: mean over the workload's {res['pairs']} traced queries; "
                     f"per suite: this workload does not call the layer, so it is measured on "
                     f"one traced layer suite (each acceptance row and each cli command); "
                     f"per run: median of three untraced suites, or of three imports")
        lines.append(f"tracing overhead: {layer['trace.overhead_ms']:.4g} ms per query, median of "
                     f"{res['pairs']} paired differences (traced p50 {res['query_ms_p50_traced']:.4g} "
                     f"ms, untraced p50 {res['query_ms_p50_untraced']:.4g} ms, wall); "
                     f"{res['spans']} + {res['suite_spans']} spans in {res['spans_files']}")
        values = {name: (layer.get(name), unit) for name, unit in names}
    else:
        metrics = end_to_end(record)
        record["end_to_end"] = {k: {"value": v, "unit": u, "samples": s, "note": note}
                                for k, (v, u, s, note) in metrics.items()}
        queries = ("the cli queries are wall times" if record["workload"] == "cli" else
                   f"each query time is its wall time x {hostspeed.REFERENCE_S:g} s over the "
                   f"mean time of the kernel runs within 1 s of it (median factor "
                   f"{res['host_factor']:.4g})")
        lines.append(f"host speed: {queries}; setup_s is its wall time x {res['run_factor']:.4g}, "
                     f"{hostspeed.REFERENCE_S:g} s over the mean time of all "
                     f"{res['kernel_samples']} kernel runs (perfbench/hostspeed.py) between "
                     f"the queries")
        lines.append(f"{'metric':22} {'value':>12}  {'unit':7} {'samples':>7}  note")
        for key in ("setup_s", "queries_per_s", "query_ms_p50", "query_ms_tail", "peak_rss_mb",
                    "error_rate", *ACCURACY_UNITS):
            value, unit, samples, note = metrics.get(key, (None, ACCURACY_UNITS.get(key), "", ""))
            if value is None:
                note = f"not measured on {record['workload']}"
            lines.append(f"{key:22} {_fmt(value):>12}  {unit:7} {samples!s:>7}  {note}")
        for item in res["accuracy"].get("unresolved", []):
            lines.append(f"unresolved: {item}")
        values = {m["name"]: (metrics[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    lines += [f"failure: {f}" for f in res["failures"]]
    missing = [name for name, (value, _) in values.items() if value is None]
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    final = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
             "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}}
    return lines, final


def _stop(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _on_alarm(signum, frame):
    raise BenchmarkError(f"run exceeded {DEADLINE_S} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    args.seconds = args.seconds or spec["run_seconds"]
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    procs: list[subprocess.Popen] = []
    try:
        record = measure(args, spec, procs)
        lines, final = report(record, spec)
    except (BenchmarkError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        signal.alarm(0)
        _stop(procs)
    record["final"] = final
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    W.write_json(out, record)
    print("\n".join(lines))
    print(f"record: {out.relative_to(W.REPO)}")
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
