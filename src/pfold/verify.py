"""Acceptance matrix: the canonical verification runs with pinned tolerances.

Each row exercises one canonical parameter set or one cross-cutting
property and yields ``(criterion, passed, detail)`` once per criterion,
which ``run_acceptance`` turns into a :class:`CheckResult` under the row's
name.  The rows are independent and deterministic; ``run_acceptance``
evaluates them in the fixed order of ``_ROWS`` and shares trajectories
through one memoized :func:`~pfold.ivp.integrate` per call.

Known limitation: in row 1 the curve value at t = 1e3 is
lambda = 2.0533104876..., so the pinned gap bound 0.05 is exceeded by
~0.0033.  The value is confirmed by independent integrators (see the test
suite); the criterion is evaluated as pinned and reported honestly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import curve as _curve
from . import ivp as _ivp
from .model import (
    InvalidParamsError,
    Params,
    ProblemClass,
    characteristic_quadratic,
    check_conditions,
    class_spec,
    closed_forms,
    guiding_curvature,
    guiding_eval,
)

__all__ = ["CheckResult", "ROW_NAMES", "run_acceptance"]

GELFAND3 = Params(p=2, n=3, alpha=0)
GELFAND10 = Params(p=2, n=10, alpha=0)
MEMS233 = Params(p=2, n=3, alpha=0, q=2)
JL454 = Params(p=2, n=4, alpha=0, q=5)

CLASS_DEFAULTS = {
    ProblemClass.GELFAND: GELFAND3,
    ProblemClass.MEMS: MEMS233,
    ProblemClass.JOSEPH_LUNDGREN: JL454,
}

RESIDUAL_SETS = {
    ProblemClass.GELFAND: (
        Params(p=2, n=3, alpha=0),
        Params(p=3, n=5, alpha=1),
        Params(p=1.5, n=2, alpha=0.5),
    ),
    ProblemClass.MEMS: (
        Params(p=2, n=3, alpha=0, q=2),
        Params(p=2, n=4, alpha=1, q=5),
        Params(p=3, n=4, alpha=0.5, q=2),
    ),
    ProblemClass.JOSEPH_LUNDGREN: (
        Params(p=2, n=4, alpha=0, q=5),
        Params(p=2, n=5, alpha=1, q=3),
        Params(p=2.5, n=5, alpha=0, q=4),
    ),
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance criterion."""

    row: str
    criterion: str
    passed: bool
    detail: str

    @property
    def check_id(self) -> str:
        return f"{self.row}/{self.criterion}"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.check_id} :: {self.detail}"


def _lambda_at(trajectory, params, problem, t):
    traj = trajectory(params, problem)
    w, _ = traj.eval(t)
    lam, _ = _curve.curve_values(problem, params, t, w)
    return lam


def _row_gelfand_spiral(trajectory, ts):
    lam = _lambda_at(trajectory, GELFAND3, ProblemClass.GELFAND, 1e3)
    tol = 0.05 * ts
    yield ("lambda-gap-1e3", abs(lam - 2.0) <= tol,
           f"|lambda(1e3) - 2| = {abs(lam - 2.0):.6g} (tol {tol:g}, lambda = {lam!r})")
    turns = _curve.turning_points(trajectory(GELFAND3, ProblemClass.GELFAND))
    yield ("turn-count", len(turns) >= 4,
           f"{len(turns)} turning points on (0, 1e4] (need >= 4)")
    signs = [math.copysign(1.0, tp.lambda_star - 2.0) for tp in turns]
    alternating = all(a * b < 0 for a, b in zip(signs[:-1], signs[1:]))
    yield ("lambda-alternation", alternating,
           f"lambda* - 2 signs: {['+' if s > 0 else '-' for s in signs]}")
    gaps = [abs(tp.lambda_star - 2.0) for tp in turns]
    decreasing = all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
    yield ("lambda-gaps-decreasing", decreasing,
           f"|lambda* - 2| = {[f'{g:.5g}' for g in gaps]}")


def _row_gelfand_boundary(trajectory, ts):
    quad = characteristic_quadratic(GELFAND10, ProblemClass.GELFAND)
    double_root = (
        quad.discriminant == 0.0
        and abs(quad.roots[0].real + 4.0) <= 1e-12 * ts
        and quad.roots[0].imag == 0.0
        and quad.roots[0] == quad.roots[1]
    )
    yield ("double-root", double_root,
           f"discriminant = {quad.discriminant!r}, roots = {quad.roots}")
    turns = _curve.turning_points(trajectory(GELFAND10, ProblemClass.GELFAND))
    yield ("no-turns", len(turns) == 0,
           f"{len(turns)} turning points on (0, 1e4] (need 0)")
    cond = check_conditions(GELFAND10, ProblemClass.GELFAND).conditions["dimension_window"]
    yield ("window-boundary", cond.boundary and not cond.holds and cond.margin == 0.0,
           f"margin = {cond.margin!r}, boundary = {cond.boundary}, window = "
           f"{cond.lower:g}<n<{cond.upper:g}")


def _row_mems(trajectory, ts):
    rep = check_conditions(MEMS233, ProblemClass.MEMS)
    names = ("leading_coefficient", "beta_threshold", "decay_exponent")
    ok = all(rep.conditions[k].holds for k in names)
    yield ("conditions-hold", ok,
           ", ".join(f"{k}: margin {rep.conditions[k].margin:.6g}" for k in names))
    lam = _lambda_at(trajectory, MEMS233, ProblemClass.MEMS, 1e3)
    tol = 0.02 * ts
    yield ("lambda-gap-1e3", abs(lam - 10.0 / 9.0) <= tol,
           f"|lambda(1e3) - 10/9| = {abs(lam - 10.0/9.0):.6g} (tol {tol:g})")
    turns = _curve.turning_points(trajectory(MEMS233, ProblemClass.MEMS))
    yield ("turn-count", len(turns) >= 3,
           f"{len(turns)} turning points (need >= 3)")
    traj = trajectory(MEMS233, ProblemClass.MEMS)
    cf = closed_forms(MEMS233, ProblemClass.MEMS)
    rec = _curve.intersections(traj, cf)
    interlaced = _curve.check_interlacing(rec.times, [tp.t_star for tp in turns])
    yield ("interlacing", interlaced,
           f"{len(rec.times)} crossings vs {len(turns)} turns interlace: {interlaced}")
    tail = rec.extrema_abs[-3:]
    dec = len(tail) == 3 and tail[0] > tail[1] > tail[2]
    yield ("extrema-decreasing", dec,
           f"last |P| extrema: {[f'{x:.6g}' for x in tail]}")
    curve = _curve.build_curve(traj, cf)
    rep_c = _curve.convergence(curve, t_eval=1e3)
    tolp = 0.02 * ts
    yield ("profile-gap", rep_c.profile_sup_gap <= tolp,
           f"sup gap to 1 - r^(2/3) at t = 1e3: {rep_c.profile_sup_gap:.6g} (tol {tolp:g})")


def _row_jl(trajectory, ts):
    rep = check_conditions(JL454, ProblemClass.JOSEPH_LUNDGREN)
    sc = rep.conditions["supercritical"]
    cw = rep.conditions["classical_window"]
    yield ("conditions-hold", sc.holds and cw.holds,
           f"supercritical: q = 5 vs threshold {sc.threshold:g}; window "
           f"{cw.lower:g}<n<{cw.upper:g} at n = 4")
    traj = trajectory(JL454, ProblemClass.JOSEPH_LUNDGREN)
    w_end = traj.eval(traj.t_end)[0]
    yield ("no-zero-event", traj.termination == "t_max" and w_end > 0.0,
           f"termination = {traj.termination}, w(t_end) = {w_end:.6g}")
    grid = np.geomspace(0.1, 100.0, 200)
    pvals = _ivp.pohozaev(traj, grid)
    slack = 1e-9 * (1.0 + np.abs(pvals))
    nonpos = bool(np.all(pvals <= 1e-12 * (1.0 + np.abs(pvals))))
    noninc = bool(np.all(np.diff(pvals) <= slack[:-1]))
    yield ("pohozaev", nonpos and noninc,
           f"max P = {pvals.max():.6g}, max increment = {np.diff(pvals).max():.3g} "
           "on [0.1, 100]")
    lam = _lambda_at(trajectory, JL454, ProblemClass.JOSEPH_LUNDGREN, 1e3)
    tol = 0.02 * ts
    yield ("lambda-gap-1e3", abs(lam - 0.75) <= tol,
           f"|lambda(1e3) - 0.75| = {abs(lam - 0.75):.6g} (tol {tol:g})")
    turns = _curve.turning_points(trajectory(JL454, ProblemClass.JOSEPH_LUNDGREN))
    yield ("turn-count", len(turns) >= 3,
           f"{len(turns)} turning points (need >= 3)")


def _row_residuals(trajectory, ts):
    grid = np.geomspace(0.1, 100.0, 200)
    tol = 1e-8 * ts
    for problem, param_sets in RESIDUAL_SETS.items():
        for params in param_sets:
            cf = closed_forms(params, problem)
            w0, w0p = guiding_eval(cf, grid)
            res = _ivp.residual(params, problem, w0, w0p, guiding_curvature(cf, grid), grid)
            worst = float(np.max(np.abs(res)))
            label = f"{problem.value}-p{params.p:g}-n{params.n:g}-a{params.alpha:g}" + (
                f"-q{params.q:g}" if params.q is not None else "")
            yield (label, worst <= tol,
                   f"max |residual| on [0.1, 100] = {worst:.3g} (tol {tol:g})")


def _row_startup(trajectory, ts):
    # the startup series at its node t1 against tight stepping of the flux system
    # from the two-term start (t = 1e-6 here), which shares only the leading terms
    tol = 1e-6 * ts
    for problem, params in CLASS_DEFAULTS.items():
        traj = trajectory(params, problem)
        t1 = float(traj.ts[1])
        wa, _, big_v = traj._series.state(t1)
        va = t1**traj._series.m * big_v  # the series' flux, which this row steps
        spec = class_spec(params, problem)
        wb, vb = _ivp._shoot(params, spec, spec.sgn, 0.0, -1.0, spec.w_center, t1, 1e-13, 1e-300,
                             10**5)
        dw = abs(wa - wb) / max(abs(wa), abs(wb), 1e-300)
        dv = abs(va - vb) / max(abs(va), abs(vb), 1e-300)
        yield (problem.value, dw <= tol and dv <= tol,
               f"series vs stepping from the two-term start, rel agreement at "
               f"t1 = {t1:.6g}: dw = {dw:.3g}, dv = {dv:.3g} (tol {tol:g})")


def _row_shooting(trajectory, ts):
    tol = 1e-6 * ts
    cases = (
        (GELFAND3, ProblemClass.GELFAND),
        (GELFAND10, ProblemClass.GELFAND),
        (MEMS233, ProblemClass.MEMS),
        (JL454, ProblemClass.JOSEPH_LUNDGREN),
    )
    for params, problem in cases:
        traj = trajectory(params, problem)
        worst = 0.0
        for t in np.geomspace(0.1, 100.0, 5):
            w, _ = traj.eval(float(t))
            lam, u0 = _curve.curve_values(problem, params, float(t), w)
            point = _curve.CurvePoint(t=float(t), lam=lam, u0=u0, monitor=0.0)
            worst = max(worst, _curve.shooting_check(params, problem, point))
        label = f"{problem.value}-n{params.n:g}"
        yield (label, worst <= tol,
               f"max shooting residual |u(1)| over 5 points = {worst:.3g} (tol {tol:g})")


def _row_conditions(trajectory, ts):
    tol = 1e-12 * ts
    cond = check_conditions(GELFAND3, ProblemClass.GELFAND).conditions["dimension_window"]
    ok = abs(cond.lower - 2.0) <= tol and abs(cond.upper - 10.0) <= tol
    yield ("gelfand-window-endpoints", ok,
           f"window endpoints ({cond.lower!r}, {cond.upper!r}) vs (2, 10)")

    expected = {n: 4 <= n <= 11 for n in range(3, 13)}
    got = {}
    for n in range(3, 13):
        rep = check_conditions(Params(p=2, n=n, alpha=0, q=5), ProblemClass.JOSEPH_LUNDGREN)
        got[n] = rep.conditions["classical_window"].holds
    yield ("jl-integer-window", got == expected,
           f"classical window holds for n in {sorted(k for k, v in got.items() if v)} "
           "(expected 4..11)")

    thr = check_conditions(MEMS233, ProblemClass.MEMS).conditions["beta_threshold"].threshold
    ref = (-4.0 + 2.0 * math.sqrt(6.0)) / 8.0
    yield ("mems-threshold-value", abs(thr - ref) <= tol,
           f"threshold = {thr!r} vs (-4 + 2 sqrt 6)/8 = {ref!r}")


def _row_self_convergence(trajectory, ts):
    tol = 1e-6 * ts
    fine = _ivp.IntegratorConfig(rel_tol=0.5e-10, abs_tol=0.5e-12)
    cases = (
        (GELFAND3, ProblemClass.GELFAND),
        (MEMS233, ProblemClass.MEMS),
        (JL454, ProblemClass.JOSEPH_LUNDGREN),
    )
    for params, problem in cases:
        coarse_turns = _curve.turning_points(trajectory(params, problem))
        fine_turns = _curve.turning_points(trajectory(params, problem, fine))
        if len(coarse_turns) != len(fine_turns):
            yield (problem.value, False,
                   f"turn count changed: {len(coarse_turns)} vs {len(fine_turns)}")
            continue
        worst = max(
            abs(a.lambda_star - b.lambda_star) / abs(b.lambda_star)
            for a, b in zip(coarse_turns, fine_turns)
        )
        yield (problem.value, worst <= tol,
               f"max rel change of lambda* under halved tolerances = {worst:.3g} (tol {tol:g})")


_ROWS = (
    ("1-gelfand-spiral", _row_gelfand_spiral),
    ("2-gelfand-boundary", _row_gelfand_boundary),
    ("3-mems-spiral", _row_mems),
    ("4-jl-window", _row_jl),
    ("5-guiding-residuals", _row_residuals),
    ("6-startup-consistency", _row_startup),
    ("7-oracle-equivalence", _row_shooting),
    ("8-condition-exactness", _row_conditions),
    ("9-self-convergence", _row_self_convergence),
)

ROW_NAMES = tuple(name for name, _ in _ROWS)

#: Criteria known to fail with an honestly computed value (see module docstring).
KNOWN_FAILING = ("1-gelfand-spiral/lambda-gap-1e3",)


def run_acceptance(only: str | None = None, tol_scale: float = 1.0) -> list[CheckResult]:
    """Run the acceptance matrix and return one result per criterion.

    ``only`` filters rows by substring; ``tol_scale`` multiplies every
    numeric tolerance (counts and boolean criteria are unaffected) and must
    be positive and finite.
    """
    if not 0.0 < tol_scale < math.inf:
        raise InvalidParamsError(f"tol_scale must be positive and finite, got {tol_scale!r}")
    # each call integrates afresh; the rows share its trajectories, which
    # keep their turning points
    trajectory = functools.cache(_ivp.integrate)
    results: list[CheckResult] = []
    for name, fn in _ROWS:
        if only and only not in name:
            continue
        results.extend(CheckResult(row=name, criterion=criterion, passed=bool(passed),
                                   detail=detail)
                       for criterion, passed, detail in fn(trajectory, tol_scale))
    return results
