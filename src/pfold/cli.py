"""Command-line front end.

Subcommands: ``analyze`` (regime report as JSON), ``solve`` (trajectory),
``curve`` (solution curve), ``turns`` (turning points plus summary),
``profile`` (radial solution at a curve parameter), ``verify`` (acceptance
matrix).  Data is written as CSV (default) or JSON to ``-o`` or stdout;
outputs are byte-deterministic for identical inputs.

Exit codes: 0 success, 2 invalid parameters or flags, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from . import curve as _curve
from . import ivp as _ivp
from . import output as _out
from . import verify as _verify
from .model import (
    InvalidParamsError,
    Params,
    ProblemClass,
    ValidityError,
    check_conditions,
    closed_forms,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# Every setting a flag or a config file can give: key -> (type, default),
# where a default of None means "not set".
_SETTINGS = {
    "problem": (str, None), "p": (float, None), "q": (float, None),
    "alpha": (float, 0.0), "n": (float, None), "t_start": (float, 1e-6),
    "t_max": (float, 1e4), "rel_tol": (float, 1e-10), "abs_tol": (float, 1e-12),
    "max_steps": (int, 100_000), "out": (str, None), "format": (str, "csv"),
    "samples_per_decade": (int, 50), "t": (float, 1e3), "r_min": (float, 0.1),
    "r_points": (int, 64),
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--class", dest="problem",
                        choices=[c.value for c in ProblemClass])
    shared.add_argument("-p", type=float, dest="p")
    shared.add_argument("-q", type=float, dest="q")
    shared.add_argument("-a", "--alpha", type=float, dest="alpha")
    shared.add_argument("-n", type=float, dest="n")
    shared.add_argument("--t-start", type=float, dest="t_start")
    shared.add_argument("--t-max", type=float, dest="t_max")
    shared.add_argument("--rel-tol", type=float, dest="rel_tol")
    shared.add_argument("--abs-tol", type=float, dest="abs_tol")
    shared.add_argument("--max-steps", type=int, dest="max_steps")
    shared.add_argument("-o", "--out", dest="out")
    shared.add_argument("--format", choices=["csv", "json"], dest="format")
    shared.add_argument("--config", dest="config")

    parser = argparse.ArgumentParser(
        prog="pfold",
        description="Solution curves and fold detection for self-similar "
                    "radial p-Laplace problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[shared],
                   help="closed forms, named conditions, and the fold prediction")
    sub.add_parser("solve", parents=[shared],
                   help="integrate the generating IVP and emit the trajectory")
    sp_curve = sub.add_parser("curve", parents=[shared],
                              help="emit the sampled (t, lambda, u0, monitor) curve")
    sp_curve.add_argument("--samples-per-decade", type=int, dest="samples_per_decade")
    sp_turns = sub.add_parser("turns", parents=[shared],
                              help="locate turning points; emit them plus a summary")
    sp_prof = sub.add_parser("profile", parents=[shared],
                             help="radial profile u(r) at a curve parameter t")
    sp_prof.add_argument("--t", type=float, dest="t")
    sp_prof.add_argument("--r-min", type=float, dest="r_min")
    sp_prof.add_argument("--r-points", type=int, dest="r_points")
    sp_verify = sub.add_parser("verify", help="run the acceptance matrix")
    sp_verify.add_argument("--only", dest="only")
    sp_verify.add_argument("--tol-scale", type=float, dest="tol_scale", default=1.0)
    return parser


def _read_config(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParamsError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _effective(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flags (flags win)."""
    settings = {key: default for key, (_, default) in _SETTINGS.items()}
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config).items():
            key = "problem" if key == "class" else key
            if key not in _SETTINGS:
                raise InvalidParamsError(f"unknown config key {key!r}")
            try:
                settings[key] = _SETTINGS[key][0](raw)
            except ValueError as exc:
                raise InvalidParamsError(f"bad config value for {key}: {raw!r}") from exc
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _require_problem(settings: dict) -> tuple[Params, ProblemClass]:
    if settings.get("problem") is None:
        raise InvalidParamsError("--class is required (gelfand, mems, or jl)")
    for key in ("p", "n"):
        if settings.get(key) is None:
            raise InvalidParamsError(f"-{key} is required")
    problem = ProblemClass(settings["problem"])
    params = Params(p=settings["p"], n=settings["n"], alpha=settings["alpha"], q=settings.get("q"))
    return params, problem


def _integrator_config(settings: dict) -> _ivp.IntegratorConfig:
    return _ivp.IntegratorConfig(
        t_start=settings["t_start"],
        t_max=settings["t_max"],
        rel_tol=settings["rel_tol"],
        abs_tol=settings["abs_tol"],
        max_steps=settings["max_steps"],
    )


def _emit_table(settings: dict, header, rows, summary: dict | None = None) -> None:
    """Write tabular data honoring the output settings.

    With ``-o`` the data goes to the file and the summary (if any) to
    stdout.  Without ``-o``, JSON format embeds the summary in the
    document; CSV format streams to stdout with the summary on stderr.
    """
    fmt = settings["format"]
    out = settings.get("out")
    if fmt == "json":
        doc: dict = {"header": list(header), "rows": [list(r) for r in rows]}
        if summary is not None and out is None:
            doc["summary"] = summary
        text = _out.json_dumps(doc) + "\n"
        if out:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        if out:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                _out.write_csv(fh, header, rows)
        else:
            buf = io.StringIO()
            _out.write_csv(buf, header, rows)
            sys.stdout.write(buf.getvalue())
    if summary is not None and (out or fmt == "csv"):
        stream = sys.stdout if out else sys.stderr
        stream.write(_out.json_dumps(summary) + "\n")


def _cmd_analyze(settings: dict) -> int:
    params, problem = _require_problem(settings)
    report = check_conditions(params, problem)
    doc = report.to_dict()
    try:
        doc["closed_forms"] = closed_forms(params, problem).to_dict()
    except ValidityError as exc:
        doc["closed_forms"] = None
        doc["validity_error"] = str(exc)
    text = _out.json_dumps(doc) + "\n"
    if settings.get("out"):
        with open(settings["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_solve(settings: dict) -> int:
    params, problem = _require_problem(settings)
    traj = _ivp.integrate(params, problem, _integrator_config(settings))
    summary = {
        "termination": traj.termination,
        "t_start": traj.t_start,
        "t_end": traj.t_end,
        "steps": len(traj.ts) - 1,
    }
    if traj.termination == "zero":
        summary["warning"] = (
            f"generating solution reached zero at t = {_out.format_float(traj.t_end)}; "
            "trajectory truncated"
        )
    _emit_table(settings, _out.TRAJECTORY_HEADER, _out.trajectory_rows(traj), summary)
    return EXIT_OK


def _cmd_curve(settings: dict) -> int:
    params, problem = _require_problem(settings)
    traj = _ivp.integrate(params, problem, _integrator_config(settings))
    cf = closed_forms(params, problem)
    curve = _curve.build_curve(traj, cf, samples_per_decade=settings["samples_per_decade"])
    summary = {
        "termination": traj.termination,
        "rows": len(curve.points),
        "t_end": curve.t_end,
        "lambda_end": curve.points[-1].lam,
        "lambda_inf": cf.lambda_inf,
    }
    if curve.truncated:
        summary["warning"] = (
            f"generating solution reached zero at t = {_out.format_float(traj.t_end)}; "
            "curve truncated"
        )
    _emit_table(settings, _out.CURVE_HEADER, _out.curve_rows(curve), summary)
    return EXIT_OK


def _cmd_turns(settings: dict) -> int:
    params, problem = _require_problem(settings)
    traj = _ivp.integrate(params, problem, _integrator_config(settings))
    turns = _curve.turning_points(traj)
    report = check_conditions(params, problem)
    directions = [tp.direction for tp in turns]
    alternating = all(a != b for a, b in zip(directions[:-1], directions[1:]))
    summary = {
        "count": len(turns),
        "alternating_directions": alternating if len(turns) >= 2 else None,
        "predicted_infinite_turns": report.predicted_infinite_turns,
        "oscillatory": report.oscillatory,
        "t_end": traj.t_end,
        "termination": traj.termination,
    }
    try:
        summary["lambda_inf"] = closed_forms(params, problem).lambda_inf
    except ValidityError:
        summary["lambda_inf"] = None
    _emit_table(settings, _out.TURNING_HEADER, _out.turning_rows(turns), summary)
    return EXIT_OK


def _cmd_profile(settings: dict) -> int:
    params, problem = _require_problem(settings)
    if not 0.0 < settings["r_min"] < 1.0:
        raise InvalidParamsError(f"--r-min must lie in (0, 1), got {settings['r_min']!r}")
    if settings["r_points"] < 2:
        raise InvalidParamsError("--r-points must be at least 2")
    t_eval = settings["t"]
    cfg = _integrator_config(settings)
    if t_eval > cfg.t_max or t_eval * settings["r_min"] < cfg.t_start:
        raise InvalidParamsError(
            f"profile needs t_start <= t*r <= t_max for r in [{settings['r_min']!r}, 1], "
            f"got t = {t_eval!r}"
        )
    traj = _ivp.integrate(params, problem, cfg)
    r = np.geomspace(settings["r_min"], 1.0, settings["r_points"])
    r, u = _curve.profile(traj, min(t_eval, traj.t_end), r)
    _emit_table(settings, _out.PROFILE_HEADER, _out.profile_rows(r, u))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = _verify.run_acceptance(only=args.only, tol_scale=args.tol_scale)
    if not results:
        sys.stderr.write(f"no acceptance rows match --only {args.only!r}\n")
        return EXIT_INVALID
    for res in results:
        sys.stdout.write(res.line() + "\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(
        f"{len(results) - len(failed)}/{len(results)} criteria passed\n"
    )
    return EXIT_OK if not failed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        settings = _effective(args)
        handler = {
            "analyze": _cmd_analyze,
            "solve": _cmd_solve,
            "curve": _cmd_curve,
            "turns": _cmd_turns,
            "profile": _cmd_profile,
        }[args.command]
        return handler(settings)
    except (InvalidParamsError, ValidityError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except _ivp.IntegrationError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
