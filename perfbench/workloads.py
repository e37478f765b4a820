"""Workload definitions of the pfold benchmark: inputs, queries, checks and references.

Every workload is a list of cases built from the seed.  A case is what the
program receives (``Params``, a config, or an argv); its reference holds
the answer computed at tight tolerances.  ``QUERIES[workload]`` runs one
case and returns what the user would read; ``check`` compares that against
the reference and returns a list of failure messages (empty when correct).

This module imports pfold only inside functions, so ``run.py`` can load it
without the package.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
REFS_DIR = HERE / "refs"
CACHE_DIR = HERE / ".cache"
WORK_DIR = HERE / "out" / "work"

DEFAULT_SEED = 0

#: Tolerances of the references: tight, and a second one for the resolution check.
REF_REL_TOL = 1e-13
REF_REL_TOL_CHECK = 2e-13
REF_ABS_TOL = 1e-15

#: Output checks: relative error allowed against the tight references.  The
#: default integrator tolerance is 1e-10; the global error of lambda reaches
#: about 5e-7 on the sweep ranges, so 1e-5 flags only answers that are wrong.
LAMBDA_RTOL = 1e-5
CLOSED_FORM_RTOL = 1e-12

SPIRAL_T_MAX = 1e8
SPIRAL_T_EVAL = 1e3
SWEEP_PER_CLASS = 24

WORKLOADS = ("sweep", "spiral", "verify", "cli")

#: BENCHMARK.json gives the reason for each workload it lists; it leaves
#: ``cli`` out, which is run by hand.
CLI_WHY = ("cold pfold processes one at a time over a fixed command mix, as for a single-query "
           "user; not in BENCHMARK.json: on a shared host its fresh-process times drift by more "
           "than the bounds allow")

# ---------------------------------------------------------------------------
# Cases

CANONICAL = {
    "gelfand-2-3-0": ("gelfand", 2.0, 3.0, 0.0, None),
    "gelfand-2-10-0": ("gelfand", 2.0, 10.0, 0.0, None),
    "mems-2-3-0-2": ("mems", 2.0, 3.0, 0.0, 2.0),
    "jl-2-4-0-5": ("jl", 2.0, 4.0, 0.0, 5.0),
}

# name -> (class, p, n, alpha, q, perturbed).  The double-root boundary case
# sits on a point of its regime, and the real-root case keeps the spurious
# folds of ROADMAP item 3 visible, so the seed leaves both exactly as listed.
SPIRAL_BASE = {
    "gelfand-2-3-0": ("gelfand", 2.0, 3.0, 0.0, None, True),
    "gelfand-2-10-0": ("gelfand", 2.0, 10.0, 0.0, None, False),
    "mems-2-3-0-2": ("mems", 2.0, 3.0, 0.0, 2.0, True),
    "jl-2-4-0-5": ("jl", 2.0, 4.0, 0.0, 5.0, True),
    "gelfand-3-5-1": ("gelfand", 3.0, 5.0, 1.0, None, True),
    "gelfand-2-9-0-damped": ("gelfand", 2.0, 9.0, 0.0, None, True),
    "gelfand-2.5-13.75-realroot": ("gelfand", 2.5, 13.75, 0.0, None, False),
}

# The cli mix: (subcommand, extra argv).  Each command runs on one canonical
# case; the seed rotates which.
CLI_MIX = (
    ("analyze", ()),
    ("turns", ()),
    ("curve", ("--format", "json")),
    ("solve", ("-o", "traj.csv")),
    ("profile", ()),
    ("verify", ("--only", "8")),
)


def _case(name, cls, p, n, alpha, q):
    return {"name": name, "problem": cls, "p": p, "n": n, "alpha": alpha, "q": q}


def _regime(case):
    """Oscillation class and fold prediction: what a perturbation must keep."""
    from pfold import check_conditions, characteristic_quadratic

    params, problem = to_params(case)
    return (characteristic_quadratic(params, problem).oscillatory,
            check_conditions(params, problem).predicted_infinite_turns)


def sweep_cases(seed: int) -> list[dict]:
    """Stratified draws per class: ``p`` in [1.5, 4], ``n - p`` in [0.05, 12],
    ``alpha`` 0 for half the cases and in [0, 2] otherwise, ``q`` in [0.5, 8]
    for mems and in ``[max(1, p-1) + 0.25, +8]`` for jl (``q > 1`` and
    ``q > p - 1`` keep the jl scaling valid).

    Each range is cut into ``SWEEP_PER_CLASS`` strata and every stratum is
    used once (a Latin hypercube).  The pairing of strata is fixed and the
    seed draws the point inside each stratum, so every seed covers the same
    ranges with the same mix of cheap and expensive cases, and the latency
    figures of different seeds can be compared.
    """
    design = random.Random("sweep-design")
    rng = random.Random(f"sweep-{seed}")
    k = SWEEP_PER_CLASS
    cases = []
    for cls in ("gelfand", "mems", "jl"):
        strata = [design.sample(range(k), k) for _ in range(4)]
        for i in range(k):
            u_p, u_n, u_q, u_a = ((s[i] + rng.random()) / k for s in strata)
            p = 1.5 + 2.5 * u_p
            n = p + 0.05 + 11.95 * u_n
            alpha = 0.0 if u_a < 0.5 else 4.0 * (u_a - 0.5)
            q = None
            if cls == "mems":
                q = 0.5 + 7.5 * u_q
            elif cls == "jl":
                q = max(1.0, p - 1.0) + 0.25 + 8.0 * u_q
            cases.append(_case(f"{cls}-{i}", cls, p, n, alpha, q))
    return cases


def spiral_cases(seed: int) -> list[dict]:
    """The spiral list; each perturbable case moves by up to 2% per parameter
    and is redrawn until it keeps its regime."""
    rng = random.Random(f"spiral-{seed}")
    cases = []
    for name, (cls, p, n, alpha, q, perturbed) in SPIRAL_BASE.items():
        base = _case(name, cls, p, n, alpha, q)
        case = base
        if perturbed and seed != DEFAULT_SEED:
            want = _regime(base)
            while True:
                def jitter(x):
                    return x * (1.0 + 0.02 * (2.0 * rng.random() - 1.0))
                case = _case(name, cls, jitter(p), jitter(n),
                             jitter(alpha) if alpha else 0.0, jitter(q) if q else None)
                if _regime(case) == want:
                    break
        cases.append(case)
    return cases


def cli_cases(seed: int) -> list[dict]:
    names = list(CANONICAL)
    cases = []
    for i, (sub, extra) in enumerate(CLI_MIX):
        if sub == "verify":
            cases.append({"name": "verify:8", "argv": [sub, *extra]})
            continue
        name = names[(i + seed) % len(names)]
        case = _case(f"{sub}:{name}", *CANONICAL[name])
        case["argv"] = [sub, *_param_argv(case), *extra]
        cases.append(case)
    return cases


def build_cases(workload: str, seed: int) -> list[dict]:
    if workload == "sweep":
        return sweep_cases(seed)
    if workload == "spiral":
        return spiral_cases(seed)
    if workload == "cli":
        return cli_cases(seed)
    return [{"name": "run_acceptance"}]


def _param_argv(case):
    argv = ["--class", case["problem"], "-p", repr(case["p"]), "-n", repr(case["n"]),
            "-a", repr(case["alpha"])]
    if case["q"] is not None:
        argv += ["-q", repr(case["q"])]
    return argv


def to_params(case):
    from pfold import Params, ProblemClass

    return (Params(p=case["p"], n=case["n"], alpha=case["alpha"], q=case["q"]),
            ProblemClass(case["problem"]))


# ---------------------------------------------------------------------------
# References

def refs_path(workload: str, seed: int) -> Path:
    """Committed file for the default seed and for seed-free workloads, cache otherwise."""
    if workload in ("verify", "cli"):
        return REFS_DIR / f"{workload}.json"
    if seed == DEFAULT_SEED:
        return REFS_DIR / f"{workload}-seed{seed}.json"
    return CACHE_DIR / f"{workload}-seed{seed}.json"


def _tight_answer(case, t_max, rel_tol):
    from pfold import IntegratorConfig, curve, integrate

    params, problem = to_params(case)
    cfg = IntegratorConfig(t_max=t_max, rel_tol=rel_tol, abs_tol=REF_ABS_TOL)
    traj = integrate(params, problem, cfg)
    return traj, curve.turning_points(traj)


def _lambda_at(traj, t):
    from pfold import curve_values

    w, _ = traj.eval(t)
    return curve_values(traj.problem, traj.params, t, w)[0]


def _fold_ref(case, t_max, t_eval=None):
    """Reference answer of one case: lambda at ``t_eval`` and the fold list.

    A jl run that stops at a zero of ``w`` has ``lambda = 0`` there, so its
    ``lambda`` is compared halfway to the zero instead.
    """
    traj, turns = _tight_answer(case, t_max, REF_REL_TOL)
    _, turns_check = _tight_answer(case, t_max, REF_REL_TOL_CHECK)
    if t_eval is None:
        t_eval = 1e3 if traj.termination == "t_max" else min(1e3, 0.5 * traj.t_end)
    return {
        "case": case,
        "termination": traj.termination,
        "t_end": traj.t_end,
        "t_eval": t_eval,
        "lambda": _lambda_at(traj, t_eval),
        "fold_t": [tp.t_star for tp in turns],
        "fold_lambda": [tp.lambda_star for tp in turns],
        "fold_count_check": len(turns_check),
        "unresolved": len(turns) != len(turns_check),
    }


def _cli_ref(name):
    """What each cli command must print for one canonical case (default t_max)."""
    import numpy as np

    from pfold import check_conditions, closed_forms, curve

    case = _case(name, *CANONICAL[name])
    params, problem = to_params(case)
    traj, turns = _tight_answer(case, 1e4, REF_REL_TOL)
    cf = closed_forms(params, problem)
    r = np.geomspace(0.1, 1.0, 64)
    _, u = curve.profile(traj, 1e3, r)
    return {
        "case": case,
        "termination": traj.termination,
        "t_end": traj.t_end,
        "w_end": float(traj.ws[-1]),
        "lambda_end": _lambda_at(traj, traj.t_end),
        "lambda_inf": cf.lambda_inf,
        "predicted_infinite_turns": check_conditions(params, problem).predicted_infinite_turns,
        "fold_t": [tp.t_star for tp in turns],
        "fold_lambda": [tp.lambda_star for tp in turns],
        "profile_u": [float(x) for x in u],
    }


def compute_refs(workload: str, seed: int, processes: int = 2) -> dict:
    """Reference document of a workload; fold references use ``processes`` interpreters."""
    doc = {"workload": workload, "rel_tol": REF_REL_TOL, "rel_tol_check": REF_REL_TOL_CHECK,
           "abs_tol": REF_ABS_TOL}
    if workload == "verify":
        from pfold import verify

        results = verify.run_acceptance()
        doc["criteria"] = [r.check_id for r in results]
        doc["failing"] = [r.check_id for r in results if not r.passed]
        return doc
    if workload == "cli":
        doc["cases"] = {name: _cli_ref(name) for name in CANONICAL}
        return doc
    doc["seed"] = seed
    if workload == "sweep":
        jobs = [(c, 1e4) for c in sweep_cases(seed)]
    else:
        jobs = [(c, SPIRAL_T_MAX, SPIRAL_T_EVAL) for c in spiral_cases(seed)]
    with multiprocessing.get_context("spawn").Pool(processes) as pool:
        doc["cases"] = pool.starmap(_fold_ref, jobs, chunksize=1)
        pool.close()
        pool.join()
    return doc


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def load_refs(workload: str, seed: int, path: Path | None = None) -> dict:
    """Load the references and confirm they belong to the cases built from ``seed``."""
    path = path or refs_path(workload, seed)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if workload in ("sweep", "spiral"):
        built = build_cases(workload, seed)
        if [r["case"] for r in doc["cases"]] != built:
            raise ValueError(f"{path} does not hold the {workload} cases of seed {seed}")
    return doc


# ---------------------------------------------------------------------------
# Queries

def query_sweep(case, ref):
    """integrate (default config) -> turning_points -> lambda(t_eval)."""
    from pfold import curve, ivp

    params, problem = to_params(case)
    traj = ivp.integrate(params, problem)
    turns = curve.turning_points(traj)
    w, _ = traj.eval(ref["t_eval"])
    lam = curve.curve_values(problem, params, ref["t_eval"], w)[0]
    return {"termination": traj.termination, "t_end": traj.t_end, "lambda": lam, "turns": turns}


def query_spiral(case, ref):
    """integrate to 1e8 -> turning_points, intersections, build_curve, convergence(1e3)."""
    from pfold import curve, ivp, model

    params, problem = to_params(case)
    traj = ivp.integrate(params, problem, ivp.IntegratorConfig(t_max=SPIRAL_T_MAX))
    turns = curve.turning_points(traj)
    cf = model.closed_forms(params, problem)
    crossings = curve.intersections(traj, cf)
    crv = curve.build_curve(traj, cf)
    report = curve.convergence(crv, t_eval=SPIRAL_T_EVAL)
    return {"termination": traj.termination, "t_end": traj.t_end, "lambda": report.lambda_at,
            "turns": turns, "crossings": crossings, "points": len(crv.points)}


def query_verify(case, ref):
    from pfold import verify

    return verify.run_acceptance()


def cli_command(case) -> list[str]:
    """The argv of a cold ``pfold`` process (what the console script runs)."""
    return [sys.executable, "-c", "import sys; from pfold.cli import main; sys.exit(main())",
            *case["argv"]]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait(proc, timeout):
    """``proc.wait()`` with a deadline.  ``Popen.wait(timeout=...)`` polls in
    sleeps of up to 50 ms, which quantises the latency; this blocks in
    ``waitpid`` and lets SIGALRM end the wait."""
    def expired(signum, frame):
        raise subprocess.TimeoutExpired(proc.args, timeout)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return proc.wait()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def query_cli(case, ref, timeout=60.0):
    """One cold ``pfold`` process; stdout and stderr go through files, not pipes."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out_file, err_file = WORK_DIR / "stdout.txt", WORK_DIR / "stderr.txt"
    with open(out_file, "wb") as out, open(err_file, "wb") as err:
        proc = subprocess.Popen(cli_command(case), cwd=WORK_DIR, env=child_env(),
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        try:
            code = _wait(proc, timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    return {"code": code, "stdout": out_file.read_text(encoding="utf-8"),
            "stderr": err_file.read_text(encoding="utf-8")}


def query_cli_in_process(case, ref):
    """The same command through ``pfold.cli.main`` in this process, stdout captured."""
    import contextlib
    import io

    from pfold import cli

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(WORK_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case["argv"]))
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


QUERIES = {"sweep": query_sweep, "spiral": query_spiral, "verify": query_verify,
           "cli": query_cli}


def ref_for(workload, refs, index, case):
    if workload in ("sweep", "spiral"):
        return refs["cases"][index]
    if workload == "cli":
        return refs["cases"].get(case["name"].split(":")[1])
    return refs


# ---------------------------------------------------------------------------
# Output checks

def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


def _directions_alternate(turns):
    dirs = [tp.direction for tp in turns]
    return all(a != b for a, b in zip(dirs[:-1], dirs[1:]))


def check_folds(ans, ref) -> list[str]:
    """Checks shared by ``sweep`` and ``spiral``.

    A fold count that differs from the reference is not a failure here: it
    is reported as ``fold_count_mismatches``.
    """
    bad = []
    if ans["termination"] != ref["termination"]:
        bad.append(f"termination {ans['termination']} != {ref['termination']}")
    elif ans["termination"] == "zero" and _rel(ans["t_end"], ref["t_end"]) > LAMBDA_RTOL:
        bad.append(f"zero of w at t = {ans['t_end']!r}, reference {ref['t_end']!r}")
    if not _rel(ans["lambda"], ref["lambda"]) <= LAMBDA_RTOL:
        bad.append(f"lambda({ref['t_eval']:g}) = {ans['lambda']!r}, reference {ref['lambda']!r}")
    if not _directions_alternate(ans["turns"]):
        bad.append("fold directions do not alternate")
    if len(ans["turns"]) == len(ref["fold_t"]) and not ref["unresolved"]:
        # lambda is stationary at a fold, so lambda* is well conditioned even
        # where t* is not (fold_t_err_digits reports t*)
        worst = max((_rel(tp.lambda_star, lam) for tp, lam in zip(ans["turns"], ref["fold_lambda"])),
                    default=0.0)
        if not worst <= LAMBDA_RTOL:
            bad.append(f"fold lambda* off by {worst:.3g} (relative)")
    return bad


def check_spiral(ans, ref) -> list[str]:
    bad = check_folds(ans, ref)
    decades = math.log10(ans["t_end"] / 1e-6)
    if ans["points"] != int(round(50 * decades)) + 1:
        bad.append(f"build_curve gave {ans['points']} points")
    crossings = ans["crossings"].times
    if list(crossings) != sorted(crossings):
        bad.append("guiding-solution crossings out of order")
    return bad


def check_verify(results, ref) -> list[str]:
    ids = [r.check_id for r in results]
    failing = [r.check_id for r in results if not r.passed]
    bad = []
    if ids != ref["criteria"]:
        bad.append(f"criteria changed: {sorted(set(ids) ^ set(ref['criteria']))}")
    if failing != ref["failing"]:
        bad.append(f"failing criteria {failing} != {ref['failing']}")
    return bad


def _csv(text):
    lines = text.splitlines()
    return (lines[0].split(",") if lines else []), [ln.split(",") for ln in lines[1:]]


def check_cli(ans, ref, case) -> list[str]:
    """Parse the printed output: exit code, header, row count, folds and lambda."""
    sub = case["argv"][0]
    if ans["code"] != 0:
        return [f"{sub} exited {ans['code']}: {ans['stderr'].strip()[-200:]}"]
    bad = []
    out = ans["stdout"]
    try:
        if sub == "analyze":
            doc = json.loads(out)
            if doc["problem"] != ref["case"]["problem"]:
                bad.append(f"problem {doc['problem']}")
            if doc["predicted_infinite_turns"] != ref["predicted_infinite_turns"]:
                bad.append("predicted_infinite_turns differs")
            if _rel(float(doc["closed_forms"]["lambda_inf"]), ref["lambda_inf"]) > CLOSED_FORM_RTOL:
                bad.append(f"lambda_inf {doc['closed_forms']['lambda_inf']}")
        elif sub == "turns":
            header, rows = _csv(out)
            summary = json.loads(ans["stderr"].strip().splitlines()[-1])
            if header != ["t_star", "lambda_star", "u0_star", "direction"]:
                bad.append(f"header {header}")
            if len(rows) != len(ref["fold_t"]) or summary["count"] != len(rows):
                bad.append(f"{len(rows)} folds (summary {summary['count']}), "
                           f"reference {len(ref['fold_t'])}")
            else:
                for row, t, lam in zip(rows, ref["fold_t"], ref["fold_lambda"]):
                    if _rel(float(row[1]), lam) > LAMBDA_RTOL:
                        bad.append(f"fold {row[:2]} vs reference ({t!r}, {lam!r})")
        elif sub == "curve":
            doc = json.loads(out)
            if doc["header"] != ["t", "lambda", "u0", "monitor"]:
                bad.append(f"header {doc['header']}")
            if len(doc["rows"]) != 501 or doc["summary"]["rows"] != 501:
                bad.append(f"{len(doc['rows'])} rows, want 501")
            if _rel(float(doc["summary"]["lambda_end"]), ref["lambda_end"]) > LAMBDA_RTOL:
                bad.append(f"lambda_end {doc['summary']['lambda_end']} vs {ref['lambda_end']!r}")
        elif sub == "solve":
            summary = json.loads(out.strip().splitlines()[-1])
            header, rows = _csv((WORK_DIR / "traj.csv").read_text(encoding="utf-8"))
            if header != ["t", "w", "wprime"]:
                bad.append(f"header {header}")
            if len(rows) != summary["steps"] + 1 or summary["termination"] != ref["termination"]:
                bad.append(f"{len(rows)} rows for {summary['steps']} steps, "
                           f"termination {summary['termination']}")
            elif float(rows[-1][0]) != ref["t_end"] or _rel(float(rows[-1][1]), ref["w_end"]) > LAMBDA_RTOL:
                bad.append(f"last row {rows[-1][:2]} vs reference ({ref['t_end']!r}, {ref['w_end']!r})")
        elif sub == "profile":
            header, rows = _csv(out)
            if header != ["r", "u"] or len(rows) != len(ref["profile_u"]):
                bad.append(f"header {header}, {len(rows)} rows")
            else:
                worst = max(abs(float(row[1]) - u) / (1.0 + abs(u))
                            for row, u in zip(rows, ref["profile_u"]))
                if worst > LAMBDA_RTOL:
                    bad.append(f"profile off by {worst:.3g}")
        else:  # verify --only 8
            lines = out.strip().splitlines()
            if lines[-1] != "3/3 criteria passed" or len(lines) != 4:
                bad.append(f"verify printed {lines[-1:]}")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        bad.append(f"unparsable {sub} output: {exc!r}")
    return bad


def check(workload, ans, ref, case) -> list[str]:
    if workload == "sweep":
        return check_folds(ans, ref)
    if workload == "spiral":
        return check_spiral(ans, ref)
    if workload == "verify":
        return check_verify(ans, ref)
    return check_cli(ans, ref, case)


# ---------------------------------------------------------------------------
# Accuracy over the distinct cases of a run

def _digits(err):
    return -math.log10(max(err, 1e-17))


def accuracy(workload, answers, refs) -> dict:
    """Accuracy metrics over the distinct cases answered in a run.

    ``answers`` maps a case index to its (deterministic) answer.
    """
    if workload == "verify":
        results = next(iter(answers.values()), None)
        return {"criteria_failed": None if results is None else sum(not r.passed for r in results)}
    if workload not in ("sweep", "spiral"):
        return {}
    lam_digits, t_digits, mismatches, unresolved = [], [], 0, []
    for i, ans in answers.items():
        ref = refs["cases"][i]
        lam_digits.append(_digits(_rel(ans["lambda"], ref["lambda"])))
        if ref["unresolved"]:
            unresolved.append(f"{ref['case']['name']}: {len(ref['fold_t'])} folds at "
                              f"rel_tol {REF_REL_TOL:g}, {ref['fold_count_check']} at "
                              f"{REF_REL_TOL_CHECK:g}; pfold gives {len(ans['turns'])}")
            continue
        if len(ans["turns"]) != len(ref["fold_t"]):
            mismatches += 1
            continue
        t_digits.extend(_digits(_rel(tp.t_star, t)) for tp, t in zip(ans["turns"], ref["fold_t"]))
    return {
        "lambda_err_digits": min(lam_digits) if lam_digits else None,
        "fold_count_mismatches": mismatches,
        "fold_t_err_digits": min(t_digits) if t_digits else None,
        "unresolved": unresolved,
        "cases": len(answers),
    }
