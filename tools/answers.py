"""Print, repr-exact, what pfold answers on a fixed set of inputs, so that the
answers of two checkouts can be compared byte for byte.

    python tools/answers.py > answers.txt

prints the stdout, stderr and exit code of each command of ``COMMANDS``, run
through :func:`pfold.cli.main` in this process under the default warnings
filter (so stderr holds what a user sees); then, for each ``sweep`` and
``spiral`` case of ``perfbench/workloads.py`` at the seeds ``SEEDS``, run
as that workload runs it: the fold answer, the nodes, the crossings and
extrema, the curve columns, ``eval`` and ``eval_many`` at 97 times, and
``convergence`` at ``t = 1e3``.  pfold is imported from the ``src`` of the
checkout the script sits in, and that checkout's path in stderr reads
``<checkout>``.  An answer that raises prints the exception instead.
"""

import contextlib
import io
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from pfold import IntegratorConfig, cli, curve, integrate  # noqa: E402
from workloads import SPIRAL_T_EVAL, SPIRAL_T_MAX, build_cases, to_params  # noqa: E402

SEEDS = (0, 7)
GELFAND = ("--class", "gelfand", "-p", "2", "-n", "3")
MEMS = ("--class", "mems", "-p", "2", "-n", "3", "-q", "2")
JL = ("--class", "jl", "-p", "2", "-n", "4", "-q", "5")
JL_ZERO = ("--class", "jl", "-p", "2", "-n", "5", "-q", "2")
SPIRAL = ("--t-max", "1e8")
COMMANDS = (
    # answers of every subcommand, exit code 0
    ("analyze", *GELFAND), ("analyze", *MEMS), ("analyze", *JL),
    ("analyze", "--class", "jl", "-p", "3.7", "-n", "9", "-q", "2.7000000000000006"),
    ("turns", *GELFAND, *SPIRAL), ("turns", *MEMS, *SPIRAL), ("turns", *JL, *SPIRAL),
    ("turns", "--class", "gelfand", "-p", "2", "-n", "10", *SPIRAL),
    ("turns", "--class", "gelfand", "-p", "3", "-n", "5", "-a", "1", "--format", "json"),
    ("turns", "--class", "gelfand", "-p", "2.5", "-n", "13.75", *SPIRAL),
    ("turns", *JL_ZERO), ("curve", *GELFAND, "--format", "json"),
    ("curve", *MEMS, "--samples-per-decade", "10"), ("curve", *JL_ZERO),
    ("curve", "--class", "jl", "-p", "2", "-n", "6", "-q", "2", "--t-max", "1e300"),
    ("solve", *GELFAND), ("solve", *JL_ZERO, "--format", "json"),
    ("profile", *GELFAND), ("profile", *MEMS, "--t", "100", "--r-points", "8"),
    ("verify", "--only", "8"),
    # a failing acceptance row: 1
    ("verify", "--only", "1"),
    # invalid input: 2
    ("profile", *GELFAND, "--r-min", "2"), ("turns", "--class", "gelfand", "-p", "0.5", "-n", "3"),
    ("turns", "-p", "2", "-n", "3"), ("fold",), ("verify", "--only", "none"),
    # numerical failure: 3
    ("solve", *GELFAND, "--max-steps", "30"),
    ("turns", "--class", "mems", "-p", "1.0001", "-n", "1", "-a", "100", "-q", "0.1"),
    ("curve", *MEMS, "--max-steps", "5"),
    # series segments wholly below t^sigma's float range
    ("turns", "--class", "gelfand", "-p", "1.0001", "-n", "3", "--t-max", "0.5"),
    ("turns", "--class", "gelfand", "-p", "2", "-n", "3", "--alpha", "100", "--t-max", "1e-4"),
    ("turns", "--class", "mems", "-p", "1.001", "-n", "3", "-q", "2", "--t-max", "0.3"),
    ("turns", "--class", "jl", "-p", "1.01", "-n", "4", "-q", "5", "--t-max", "5e-4"),
    # series times below t^sigma's float range, and spans and counts past the floats
    ("curve", *GELFAND, "--t-start", "1e-300", "--t-max", "1", "--samples-per-decade", "1"),
    ("curve", *GELFAND, "--t-start", "1e-12", "--t-max", "1e300", "--samples-per-decade", "1"),
    ("curve", *GELFAND, "--samples-per-decade", "1" + "0" * 400),
    ("profile", *GELFAND, "--r-points", "1" + "0" * 400),
)


def run(argv):
    """``(stdout, stderr, exit code)`` of ``pfold argv``, with the exception
    that escapes :func:`pfold.cli.main`, if any, in place of the code."""
    out, err = io.StringIO(), io.StringIO()
    # catch_warnings lets each command show its warnings once, as its own process would
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's errors and --help
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is an answer too
            code = exc
    return out.getvalue(), err.getvalue().replace(str(ROOT), "<checkout>"), code


def attempt(answer):
    """``answer()``, or the exception it raises."""
    try:
        return answer()
    except Exception as exc:  # noqa: BLE001 - an exception is an answer too
        return exc


def case_answers(workload, case):
    """What a query of ``workload`` reads off ``case``, as ``(name, value)`` pairs."""
    params, problem = to_params(case)
    config = IntegratorConfig(t_max=SPIRAL_T_MAX) if workload == "spiral" else None
    traj = attempt(lambda: integrate(params, problem, config))
    if isinstance(traj, Exception):
        yield "integrate", traj
        return
    yield "fold_answer", curve.fold_answer(traj)
    yield "nodes", (traj.termination, traj.ts.tolist(), traj.ws.tolist(), traj.wprimes.tolist())
    yield "intersections", attempt(lambda: curve.intersections(traj))
    crv = curve.build_curve(traj)
    yield "curve", (crv.t.tolist(), crv.lam.tolist(), crv.u0.tolist(), crv.monitor.tolist())
    times = np.geomspace(traj.t_start, traj.t_end, 97)
    yield "eval", [traj.eval(t) for t in times.tolist()]
    yield "eval_many", [values.tolist() for values in traj.eval_many(times)]
    yield "convergence", attempt(lambda: curve.convergence(crv, t_eval=SPIRAL_T_EVAL))


def main():
    for argv in COMMANDS:
        print(f"$ pfold {' '.join(argv)}\n{run(argv)!r}")
    for workload in ("sweep", "spiral"):
        for seed in SEEDS:
            for case in build_cases(workload, seed):
                for name, value in case_answers(workload, case):
                    print(f"{workload} {seed} {case['name']} {name}: {value!r}")


if __name__ == "__main__":
    main()
