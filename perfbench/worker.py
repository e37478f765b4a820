"""One fresh interpreter of the pfold benchmark; started by ``run.py``.

Phases:

* ``refs``  - make sure the references for (workload, seed) exist; a
  non-default seed computes them here, untimed.
* ``setup`` - import pfold, build the inputs, load the references, print
  ``READY`` and exit (the parent times this as ``setup_s``).
* ``run``   - the same set-up, ``READY``, then the timed closed loop; the
  last stdout line is a JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from hostspeed import HostSpeed


def tail(latencies):
    """The 90th percentile (interpolated) and the number of samples beyond it."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return value, sum(x > value for x in latencies)


def deep_tail(latencies):
    """The highest percentile with at least 10 samples beyond it, as
    (percentile, value); None with 10 samples or fewer.  Printed, not
    bounded: which case it falls on changes with the number of passes."""
    ordered = sorted(latencies)
    n = len(ordered)
    return (100.0 * (n - 10) / n, ordered[n - 11]) if n > 10 else None


class Client:
    """Asks one case at a time and checks the answer.

    Keeps the start and the wall-clock latency of every query, the
    failures, and the first answer of each case.  A ``HostSpeed``, when given, is sampled right
    before each query, in proportion to the previous query's latency.
    """

    def __init__(self, workload, cases, refs, query, speed=None):
        self.workload, self.cases, self.refs, self.query = workload, cases, refs, query
        self.speed = speed
        self.starts, self.latencies, self.failures, self.answers = [], [], [], {}
        self.raised = 0

    def ask(self, i):
        """Latency of case ``i`` in wall seconds, or None when the query raised."""
        case = self.cases[i]
        ref = W.ref_for(self.workload, self.refs, i, case)
        if self.speed is not None:
            self.speed.sample(self.latencies[-1] if self.latencies else 0.0)
        t0 = time.perf_counter()
        self.starts.append(t0)
        try:
            ans = self.query(case, ref)
        except Exception as exc:  # a failed query is counted, and the loop goes on
            elapsed = None
            self.raised += 1
            self.failures.append(f"{case['name']}: raised {exc!r}"[:300])
        else:
            elapsed = time.perf_counter() - t0
            bad = W.check(self.workload, ans, ref, case)
            if bad:
                self.failures.append(f"{case['name']}: {'; '.join(bad)}"[:300])
            self.answers.setdefault(i, ans)
        self.latencies.append(time.perf_counter() - t0 if elapsed is None else elapsed)
        return elapsed


def closed_loop(n_cases, seconds, seed, step):
    """One client: ``step(i)`` for every case once per pass, in a seeded order.

    The loop stops at the end of the pass closest to ``seconds``, so each
    case carries the same weight in the latency figures.  Returns the wall
    seconds and the number of passes.
    """
    order = list(range(n_cases))
    random.Random(f"order-{seed}").shuffle(order)
    start = time.perf_counter()
    passes = 0
    while True:
        for i in order:
            step(i)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return elapsed, passes


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_times(reps=3):
    """``import.pfold_s`` and ``import.scipy_integrate_s``: cumulative times from
    ``-X importtime``, median of ``reps`` fresh interpreters.  Each imports
    pfold and then scipy.integrate, so the second stays measured when pfold
    does not import it itself."""
    found = {"pfold": [], "scipy.integrate": []}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import pfold, scipy.integrate"],
                              env=W.child_env(), capture_output=True, text=True, timeout=120,
                              stdin=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise RuntimeError(f"import pfold failed: {proc.stderr[-300:]}")
        seen = {}
        for match in pattern.finditer(proc.stderr):
            if match.group(2) in found:
                seen[match.group(2)] = int(match.group(1)) / 1e6
        for key in found:
            found[key].append(seen.get(key, 0.0))
    return {"import.pfold_s": statistics.median(found["pfold"]),
            "import.scipy_integrate_s": statistics.median(found["scipy.integrate"])}


def run_measured(workload, cases, refs, seconds, seed):
    speed = HostSpeed()
    client = Client(workload, cases, refs, W.QUERIES[workload], speed)
    wall, passes = closed_loop(len(cases), seconds, seed, client.ask)
    done = len(client.latencies) - client.raised
    wall_ms = [1e3 * x for x in client.latencies]
    # a fresh pfold process (cli) is timed as it is: it does not follow the
    # kernel (see hostspeed.py)
    norm_ms = wall_ms if workload == "cli" else [
        1e3 * x * speed.factor(t, t + x) for t, x in zip(client.starts, client.latencies)]
    tail_ms, beyond = tail(norm_ms)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "attempted": len(client.latencies),
        "failed": len(client.failures),
        "failures": client.failures[:20],
        "accuracy": W.accuracy(workload, client.answers, refs),
        "queries_per_s": done / (1e-3 * sum(norm_ms)),
        "query_ms_p50": statistics.median(norm_ms),
        "query_ms_tail": tail_ms,
        "tail_beyond": beyond,
        "deep_tail": deep_tail(norm_ms),
        "wall": {"queries_per_s": done / (wall - sum(s for _, s in speed.samples)),
                 "query_ms_p50": statistics.median(wall_ms),
                 "query_ms_tail": tail(wall_ms)[0]},
        "host_factor": statistics.median(n / w for n, w in zip(norm_ms, wall_ms)),
        "run_factor": speed.factor(),
        "kernel_samples": len(speed.samples),
        "starts_s": client.starts,
        "latencies_s": client.latencies,
        "normalised_s": [1e-3 * x for x in norm_ms],
        "kernel_s": speed.samples,
        "passes": passes,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(who),
    }


def layer_suite(seed):
    """Each acceptance row once and each cli command once, in this process.

    Returns (seconds per row, seconds per subcommand, failures); the rows
    together must give the reference verdicts.
    """
    from pfold import verify

    rows, subs, results = {}, {}, []
    for row in verify.ROW_NAMES:
        t0 = time.perf_counter()
        results += verify.run_acceptance(only=row)
        rows[row] = time.perf_counter() - t0
    failures = [f"rows: {msg}" for msg in W.check_verify(results, W.load_refs("verify", seed))]
    cli_refs = W.load_refs("cli", seed)
    for i, case in enumerate(W.cli_cases(seed)):
        t0 = time.perf_counter()
        ans = W.query_cli_in_process(case, None)
        subs[case["argv"][0]] = time.perf_counter() - t0
        failures += [f"{case['name']}: {msg}"
                     for msg in W.check_cli(ans, W.ref_for("cli", cli_refs, i, case), case)]
    return rows, subs, failures


def run_traced(workload, cases, refs, seconds, seed, spans_dir):
    """Per-layer metrics of the workload's own queries, and the tracing overhead.

    Each case is asked twice in a row, untraced and traced, the order
    alternating from one pair to the next; the overhead is the median of
    the paired differences.  Span metrics come from the traced queries only,
    per query.  A layer those queries never call is measured instead on one
    traced layer suite (each acceptance row and each cli command), as an
    amount per suite, and the report says which.  Three untraced suites give
    the row and subcommand timings.
    """
    from pfold import verify
    from tracing import Tracer, layer_of

    # cli: both loops run pfold.cli.main warm in this process
    query = W.query_cli_in_process if workload == "cli" else W.QUERIES[workload]
    plain = Client(workload, cases, refs, query)
    traced = Client(workload, cases, refs, query)
    tracer = Tracer()
    diffs = []

    def pair(i):
        took = {}
        for use_tracer in ((False, True) if len(plain.latencies) % 2 == 0 else (True, False)):
            if use_tracer:
                tracer.query = len(traced.latencies)
                tracer.install()
            try:
                took[use_tracer] = (traced if use_tracer else plain).ask(i)
            finally:
                tracer.uninstall()  # a no-op after an untraced query
        if None not in took.values():
            diffs.append(took[True] - took[False])

    closed_loop(len(cases), seconds / 2, seed, pair)
    suites = [layer_suite(seed) for _ in range(3)]
    suite_tracer = Tracer()
    suite_tracer.query = "suite"
    suite_tracer.install()
    try:
        suites.append(layer_suite(seed))
    finally:
        suite_tracer.uninstall()
    tracer.write(spans_dir / f"spans-{workload}-seed{seed}.jsonl")
    suite_tracer.write(spans_dir / f"spans-{workload}-seed{seed}-suite.jsonl")

    metrics = tracer.layer_metrics(len(traced.latencies))
    loop_calls, _ = tracer.self_times()
    from_suite = sorted({layer_of(key) for key in metrics if not loop_calls[layer_of(key)]})
    for key, value in suite_tracer.layer_metrics(1).items():
        if layer_of(key) in from_suite:
            metrics[key] = value
    metrics["trace.overhead_ms"] = 1e3 * statistics.median(diffs) if diffs else 0.0
    for row in verify.ROW_NAMES:
        metrics[f"verify.row.{row}.s"] = statistics.median(s[0][row] for s in suites[:3])
    for sub, _ in W.CLI_MIX:
        metrics[f"cli.main.{sub}.s"] = statistics.median(s[1][sub] for s in suites[:3])
    metrics.update(import_times())
    failures = plain.failures + traced.failures + [f for s in suites for f in s[2]]
    return {
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "per_layer": metrics,
        "from_suite": from_suite,
        "pairs": len(diffs),
        "query_ms_p50_untraced": 1e3 * statistics.median(plain.latencies),
        "query_ms_p50_traced": 1e3 * statistics.median(traced.latencies),
        "spans": len(tracer.spans),
        "suite_spans": len(suite_tracer.spans),
        "spans_files": f"{spans_dir.relative_to(W.REPO)}/spans-{workload}-seed{seed}[-suite].jsonl",
    }


def ensure_refs(workload, seed, path):
    """References exist after this; a non-default seed computes them (untimed)."""
    if path.exists():
        print(f"references: {path.relative_to(W.REPO)}", flush=True)
        return
    if workload in ("verify", "cli") or seed == W.DEFAULT_SEED:
        raise FileNotFoundError(f"committed references missing: {path}")
    t0 = time.perf_counter()
    W.write_json(path, W.compute_refs(workload, seed))
    print(f"references: seed {seed} is not the default seed {W.DEFAULT_SEED}; computed "
          f"{path.relative_to(W.REPO)} at rel_tol {W.REF_REL_TOL:g} in an untimed phase "
          f"({time.perf_counter() - t0:.1f} s)", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phase", choices=["refs", "setup", "run"], required=True)
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    path = W.refs_path(args.workload, args.seed)
    import pfold  # the package import is part of the set-up cost

    source = (W.REPO / "src").resolve()
    if source not in Path(pfold.__file__).resolve().parents:
        raise ImportError(f"pfold imported from {pfold.__file__}, not from {source}")
    if args.phase == "refs":
        ensure_refs(args.workload, args.seed, path)
        return 0
    cases = W.build_cases(args.workload, args.seed)
    refs = W.load_refs(args.workload, args.seed)
    print("READY", flush=True)
    if args.phase == "setup":
        return 0
    if args.trace:
        result = run_traced(args.workload, cases, refs, args.seconds, args.seed, W.HERE / "out")
    else:
        result = run_measured(args.workload, cases, refs, args.seconds, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
