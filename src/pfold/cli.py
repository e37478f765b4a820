"""Command-line front end: the subcommands of ``_COMMANDS``, with the flags
and config-file keys of ``_SETTINGS``.  Data is written as CSV (default) or
JSON to ``-o`` or stdout; outputs are byte-deterministic for identical inputs.
Exit codes: 0 success, 1 a failed ``verify`` criterion, 2 invalid parameters
or flags, 3 numerical failure.

Only the subcommands that step, read or verify a trajectory import
:mod:`pfold.ivp`, :mod:`pfold.curve` and :mod:`pfold.verify`, and with them
numpy, inside their handlers: ``analyze`` and every ``--help`` run without.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import fields
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import output as _out
from .model import (
    IntegrationError,
    IntegratorConfig,
    InvalidParamsError,
    Params,
    ProblemClass,
    ValidityError,
    check_conditions,
    closed_forms,
)

if TYPE_CHECKING:
    from .ivp import Trajectory

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


class _Setting(NamedTuple):
    """A setting's flags, type, default (None: not set) and choices, and the
    subcommand that takes it (None: every subcommand that reads a problem)."""

    flags: tuple[str, ...]
    type: type
    default: object = None
    command: str | None = None
    choices: tuple[str, ...] | None = None


# Every setting, in the order of --help: key -> _Setting.  The integrator's
# controls are the fields of IntegratorConfig, with their defaults.
_SETTINGS = {
    "problem": _Setting(("--class",), str, choices=tuple(c.value for c in ProblemClass)),
    "p": _Setting(("-p",), float),
    "q": _Setting(("-q",), float),
    "alpha": _Setting(("-a", "--alpha"), float, 0.0),
    "n": _Setting(("-n",), float),
    **{f.name: _Setting(("--" + f.name.replace("_", "-"),), type(f.default), f.default)
       for f in fields(IntegratorConfig)},
    "out": _Setting(("-o", "--out"), str),
    "format": _Setting(("--format",), str, "csv", choices=("csv", "json")),
    "samples_per_decade": _Setting(("--samples-per-decade",), int, 50, "curve"),
    "t": _Setting(("--t",), float, 1e3, "profile"),
    "r_min": _Setting(("--r-min",), float, 0.1, "profile"),
    "r_points": _Setting(("--r-points",), int, 64, "profile"),
    "only": _Setting(("--only",), str, command="verify"),
    "tol_scale": _Setting(("--tol-scale",), float, 1.0, "verify"),
}


def _build_parser() -> argparse.ArgumentParser:
    def add_settings(parser: argparse.ArgumentParser, command: str | None) -> None:
        for key, setting in _SETTINGS.items():
            if setting.command == command:
                parser.add_argument(*setting.flags, dest=key, type=setting.type,
                                    choices=setting.choices)

    shared = argparse.ArgumentParser(add_help=False)
    add_settings(shared, None)
    shared.add_argument("--config", dest="config")

    parser = argparse.ArgumentParser(
        prog="pfold",
        description="Solution curves and fold detection for self-similar "
                    "radial p-Laplace problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        add_settings(sub.add_parser(name, parents=[shared] if command.problem else [],
                                    help=command.help), name)
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
    """Merge defaults, config-file values, and flags (flags win); a config
    value must have the setting's type and be one of its choices."""
    settings = {key: setting.default for key, setting in _SETTINGS.items()}
    if getattr(args, "config", None):
        for name, raw in _read_config(args.config).items():
            key = "problem" if name == "class" else name
            if key not in _CONFIG_KEYS:
                raise InvalidParamsError(f"unknown config key {key!r}")
            setting = _SETTINGS[key]
            try:
                value = setting.type(raw)
            except ValueError as exc:
                raise InvalidParamsError(f"bad config value for {name}: {raw!r}") from exc
            if setting.choices is not None and value not in setting.choices:
                raise InvalidParamsError(f"bad config value for {name}: {raw!r} "
                                         f"(choose from {', '.join(setting.choices)})")
            settings[key] = value
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _require_problem(settings: dict) -> tuple[Params, ProblemClass]:
    if settings["problem"] is None:
        raise InvalidParamsError("--class is required (gelfand, mems, or jl)")
    for key in ("p", "n"):
        if settings[key] is None:
            raise InvalidParamsError(f"-{key} is required")
    params = Params(p=settings["p"], n=settings["n"], alpha=settings["alpha"], q=settings["q"])
    return params, ProblemClass(settings["problem"])


def _integrate(settings: dict) -> Trajectory:
    """The prologue of the subcommands that integrate: read the problem,
    build its integrator config, and integrate."""
    from .ivp import integrate

    params, problem = _require_problem(settings)
    cfg = IntegratorConfig(**{f.name: settings[f.name] for f in fields(IntegratorConfig)})
    return integrate(params, problem, cfg)


def _write(settings: dict, text: str) -> None:
    """Write ``text`` to the ``-o`` file, or to stdout without ``-o``."""
    if settings["out"]:
        with open(settings["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(settings: dict, header, rows, summary: dict | None = None) -> None:
    """Write tabular data honoring the output settings.

    With ``-o`` the data goes to the file and the summary (if any) to
    stdout.  Without ``-o``, JSON format embeds the summary in the
    document; CSV format streams to stdout with the summary on stderr.
    """
    fmt = settings["format"]
    out = settings["out"]
    if fmt == "json":
        doc: dict = {"header": list(header), "rows": [list(r) for r in rows]}
        if summary is not None and out is None:
            doc["summary"] = summary
        _write(settings, _out.json_dumps(doc) + "\n")
    else:
        buf = io.StringIO()
        _out.write_csv(buf, header, rows)
        _write(settings, buf.getvalue())
    if summary is not None and (out or fmt == "csv"):
        stream = sys.stdout if out else sys.stderr
        stream.write(_out.json_dumps(summary) + "\n")


def _zero_warning(traj: Trajectory, what: str) -> str:
    return (f"generating solution reached zero at t = {_out.format_float(traj.t_end)}; "
            f"{what} truncated")


def _cmd_analyze(settings: dict) -> int:
    params, problem = _require_problem(settings)
    doc = check_conditions(params, problem).to_dict()
    try:
        doc["closed_forms"] = closed_forms(params, problem).to_dict()
    except ValidityError as exc:
        doc["closed_forms"] = None
        doc["validity_error"] = str(exc)
    _write(settings, _out.json_dumps(doc) + "\n")
    return EXIT_OK


def _cmd_solve(settings: dict) -> int:
    traj = _integrate(settings)
    summary = {
        "termination": traj.termination,
        "t_start": traj.t_start,
        "t_end": traj.t_end,
        "steps": len(traj.ts) - 1,
    }
    if traj.termination == "zero":
        summary["warning"] = _zero_warning(traj, "trajectory")
    rows = zip(traj.ts.tolist(), traj.ws.tolist(), traj.wprimes.tolist())
    _emit_table(settings, _out.TRAJECTORY_HEADER, rows, summary)
    return EXIT_OK


def _cmd_curve(settings: dict) -> int:
    from . import curve as _curve

    traj = _integrate(settings)
    curve = _curve.build_curve(traj, samples_per_decade=settings["samples_per_decade"])
    summary = {
        "termination": traj.termination,
        "rows": len(curve.t),
        "t_end": curve.t_end,
        "lambda_end": float(curve.lam[-1]),
        "lambda_inf": _curve._lambda_inf(traj),
    }
    if curve.truncated:
        summary["warning"] = _zero_warning(traj, "curve")
    rows = zip(curve.t.tolist(), curve.lam.tolist(), curve.u0.tolist(), curve.monitor.tolist())
    _emit_table(settings, _out.CURVE_HEADER, rows, summary)
    return EXIT_OK


def _cmd_turns(settings: dict) -> int:
    from . import curve as _curve

    answer = _curve.fold_answer(_integrate(settings))
    _emit_table(settings, _out.TURNING_HEADER, answer.folds, answer.to_dict())
    return EXIT_OK


def _cmd_profile(settings: dict) -> int:
    import numpy as np

    from . import curve as _curve

    t_eval, r_min = settings["t"], settings["r_min"]
    if not 0.0 < r_min < 1.0:
        raise InvalidParamsError(f"--r-min must lie in (0, 1), got {r_min!r}")
    if settings["r_points"] < 2:
        raise InvalidParamsError("--r-points must be at least 2")
    if settings["r_points"] > sys.float_info.max:  # np.geomspace takes it as a float
        raise InvalidParamsError(f"--r-points must be at most {sys.float_info.max!r}")
    if not (settings["t_start"] <= t_eval * r_min and t_eval <= settings["t_max"]):
        raise InvalidParamsError(
            f"profile needs t_start <= t*r <= t_max for r in [{r_min!r}, 1], "
            f"got t = {t_eval!r}"
        )
    traj = _integrate(settings)
    r = np.geomspace(r_min, 1.0, settings["r_points"])
    r, u = _curve.profile(traj, min(t_eval, traj.t_end), r)
    _emit_table(settings, _out.PROFILE_HEADER, zip(r.tolist(), u.tolist()))
    return EXIT_OK


def _cmd_verify(settings: dict) -> int:
    from . import verify as _verify

    only = settings["only"]
    results = _verify.run_acceptance(only=only, tol_scale=settings["tol_scale"])
    if not results:
        sys.stderr.write(f"no acceptance rows match --only {only!r}\n")
        return EXIT_INVALID
    for res in results:
        sys.stdout.write(res.line() + "\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return EXIT_OK if not failed else 1


class _Command(NamedTuple):
    help: str
    run: Callable[[dict], int]
    problem: bool = True  # takes the shared settings and --config


_COMMANDS = {
    "analyze": _Command("closed forms, named conditions, and the fold prediction", _cmd_analyze),
    "solve": _Command("integrate the generating IVP and emit the trajectory", _cmd_solve),
    "curve": _Command("emit the sampled (t, lambda, u0, monitor) curve", _cmd_curve),
    "turns": _Command("locate turning points; emit them plus a summary", _cmd_turns),
    "profile": _Command("radial profile u(r) at a curve parameter t", _cmd_profile),
    "verify": _Command("run the acceptance matrix", _cmd_verify, problem=False),
}

# A config file may set every setting of a subcommand that reads a problem.
_CONFIG_KEYS = {key for key, setting in _SETTINGS.items()
                if setting.command is None or _COMMANDS[setting.command].problem}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command].run(_effective(args))
    except (ValueError, OSError) as exc:  # InvalidParamsError, ValidityError, file errors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except IntegrationError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
