"""Span tracing of pfold's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function, in every ``pfold``
module that holds it, with a wrapper that records a span (name, start,
end, parent span, query id); ``Tracer.uninstall()`` puts the originals
back.  Nothing under ``src/`` changes.  A layer's self time is its spans'
duration minus the duration of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute): module-level functions.
FUNCTIONS = (
    ("model.check_conditions", "pfold.model", "check_conditions"),
    ("model.closed_forms", "pfold.model", "closed_forms"),
    ("ivp.integrate", "pfold.ivp", "integrate"),
    ("ivp.pohozaev", "pfold.ivp", "pohozaev"),
    ("curve.turning_points", "pfold.curve", "turning_points"),
    ("curve.intersections", "pfold.curve", "intersections"),
    ("curve.build_curve", "pfold.curve", "build_curve"),
    ("curve.convergence", "pfold.curve", "convergence"),
    ("curve.profile", "pfold.curve", "profile"),
    ("curve.shooting_check", "pfold.curve", "shooting_check"),
    ("output.write_csv", "pfold.output", "write_csv"),
    ("output.json_dumps", "pfold.output", "json_dumps"),
)

# (span name, method name) on pfold.ivp.Trajectory.
METHODS = (
    ("ivp.Trajectory.eval", "eval"),
    ("ivp.Trajectory.eval_many", "eval_many"),
)


SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS + METHODS)


def layer_of(metric: str) -> str | None:
    """The span name a per-layer metric belongs to; None if it is not a span metric."""
    return next((name for name in SPAN_NAMES if metric.startswith(name + ".")), None)


# Counters taken at the traced boundaries (see ``Tracer._hooks``).
COUNTERS = (
    "ivp.integrate.steps",
    "ivp.Trajectory.eval_many.points",
    "curve.turning_points.folds",
    "curve.build_curve.points",
    "output.write_csv.bytes",
    "output.json_dumps.bytes",
)


class _CountingStream:
    """Forwards ``write`` and counts the bytes written."""

    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.stream.write(text)


class Tracer:
    """Spans of one traced phase, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.counts: Counter = Counter()
        self.query = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def count(self, key, amount=1):
        self.counts[key] += amount

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.query]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{name}.errors")
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _hooks(self, output):
        """Counters taken from arguments and results at the traced boundaries."""
        write_csv = output.write_csv

        def write_csv_counted(stream, header, rows):
            counted = _CountingStream(stream)
            write_csv(counted, header, rows)
            self.count("output.write_csv.bytes", counted.bytes)

        return {
            "ivp.integrate": (None, lambda a, r: self.count("ivp.integrate.steps", len(r.ts) - 1)),
            "ivp.Trajectory.eval_many": (
                None, lambda a, r: self.count("ivp.Trajectory.eval_many.points", len(r[0]))),
            "curve.turning_points": (None, lambda a, r: self.count("curve.turning_points.folds", len(r))),
            "curve.build_curve": (None, lambda a, r: self.count("curve.build_curve.points", len(r.points))),
            "output.json_dumps": (
                None, lambda a, r: self.count("output.json_dumps.bytes", len(r.encode("utf-8")))),
            "output.write_csv": (write_csv_counted, None),
        }

    def install(self) -> None:
        from pfold import ivp, output

        hooks = self._hooks(output)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pfold" or name.startswith("pfold."))]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            replacement, on_result = hooks.get(name, (None, None))
            wrapped = self._wrap(name, replacement or original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))
        for name, attr in METHODS:
            original = ivp.Trajectory.__dict__.get(attr)
            if original is None:
                continue
            _, on_result = hooks.get(name, (None, None))
            setattr(ivp.Trajectory, attr, self._wrap(name, original, on_result))
            self._restore.append((ivp.Trajectory, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return calls, self_s

    def bisection_evals(self) -> int:
        """Scalar ``eval`` calls made directly by ``turning_points``."""
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == "ivp.Trajectory.eval" and parent >= 0
                   and self.spans[parent][0] == "curve.turning_points")

    def layer_metrics(self, queries: int) -> dict:
        """Per-layer metrics per query: totals divided by ``queries``."""
        calls, self_s = self.self_times()
        per = 1.0 / max(queries, 1)
        out = {}
        for name, _, _ in FUNCTIONS:
            out[f"{name}.calls"] = calls[name] * per
            out[f"{name}.self_s"] = self_s[name] * per
        for name, _ in METHODS:
            out[f"{name}.calls"] = calls[name] * per
            out[f"{name}.self_s"] = self_s[name] * per
        for key in COUNTERS:
            out[key] = self.counts[key] * per
        for name, _, _ in FUNCTIONS:
            out[f"{name}.errors"] = self.counts[f"{name}.errors"]
        steps = self.counts["ivp.integrate.steps"]
        out["ivp.integrate.us_per_step"] = 1e6 * self_s["ivp.integrate"] / steps if steps else 0.0
        shots = calls["curve.shooting_check"]
        out["curve.shooting_check.us_per_call"] = (
            1e6 * self_s["curve.shooting_check"] / shots if shots else 0.0)
        folds = self.counts["curve.turning_points.folds"]
        out["curve.turning_points.evals_per_fold"] = self.bisection_evals() / folds if folds else 0.0
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent span index, query id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "query"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
