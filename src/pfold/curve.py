"""Global solution curves, turning points, and convergence diagnostics.

Given the dense trajectory ``w(t)`` of a generating IVP, the full
``(lambda, u(0))`` solution curve of the corresponding boundary value
problem is recovered algebraically:

* ``gelfand``:  ``lambda = t^(alpha+p) e^w``,        ``u(0) = -w``;
* ``mems``:     ``lambda = t^(alpha+p) / w^(p+q-1)``, ``u(0) = 1 - 1/w``;
* ``jl``:       ``lambda = t^(p+alpha) w^(q-p+1)``,   ``u(0) = 1/w - 1``.

``lambda'(t)`` has the sign of a class-specific monitor function ``M(t)``
(a bracket linear in ``w`` and ``t w'``), so folds of the curve are exactly
the roots of ``M``.  The guiding solution ``w0`` is the zero set of ``M``;
crossings of ``w`` with ``w0`` and roots of ``M`` interlace, and both
accumulate geometrically in ``t`` when the linearized Euler equation is
oscillatory.

Roots are located on the stepper's own dense output (event location,
Hairer, Norsett & Wanner, *Solving ODEs I*, Section II.6).  In the log-phase
variables of :mod:`pfold.ivp`, ``W = w t^-g`` and ``Y = t w' t^-g =
phiinv(Z)``, the monitor is ``M = t^g (k W + E Y)`` (``k + Y`` for ``exp``)
and the gap to the guiding solution is ``w - w0 = t^g (W - W0)``, with
``W0 = coeff`` (``ln coeff - k ln t`` for ``exp``), so their signs need no
rescaling.  Each interpolation row is sampled at a fixed number of
fractions of its step, and the startup series at points equally spaced in
``tau``.  A sign change between consecutive samples is accepted only where
the values clear a guard proportional to the dense-output error, which
suppresses spurious near-tangential crossings, and its root is refined on
the polynomial of the row that holds it by Illinois regula falsi.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import ivp as _ivp
from .model import (
    ClassSpec,
    ClosedForms,
    Params,
    ProblemClass,
    characteristic_quadratic,
    class_spec,
    closed_forms,
    guiding_eval,
)

__all__ = [
    "CurvePoint",
    "SolutionCurve",
    "TurningPoint",
    "IntersectionRecord",
    "ConvergenceReport",
    "curve_values",
    "monitor",
    "build_curve",
    "turning_points",
    "intersections",
    "check_interlacing",
    "convergence",
    "profile",
    "singular_profile",
    "shooting_check",
]

#: Relative t-tolerance to which monitor roots and crossings are refined.
ROOT_RTOL = 1e-10


def _u(spec: ClassSpec, w_r, w_t):
    """Value ``u = -sgn (x - w_c)`` of the radial solution where the
    generating solution is ``w_r``, on the curve point where it is ``w_t``:
    ``x = w_r / w_t`` for a power source, ``w_r - w_t`` for ``exp``.
    Adding 0.0 turns the ``-0.0`` at ``x = w_c`` into 0.0."""
    x = w_r - w_t if spec.E is None else w_r / w_t
    return -spec.sgn * (x - spec.w_center) + 0.0


def _curve_values(spec: ClassSpec, t, w):
    k, E = spec.k, spec.E
    if E is None:
        lam = t**k * np.exp(w)
    elif spec.q_power < 0.0:
        # mems keeps the quotient t^k / w^(p+q-1): t^k w^E rounds differently
        lam = t**k / w**-E
    else:
        lam = t**k * w**E
    return lam, _u(spec, spec.w_center, w)


def curve_values(problem: ProblemClass, params: Params, t, w):
    """Map ``(t, w)`` to ``(lambda, u0)`` for the given class (vectorized)."""
    lam, u0 = _curve_values(class_spec(params, problem), np.asarray(t, dtype=float),
                            np.asarray(w, dtype=float))
    if lam.ndim == 0:
        return float(lam), float(u0)
    return lam, u0


def _monitor(spec: ClassSpec, t, w, wprime):
    if spec.E is None:
        return spec.k + t * wprime
    return spec.k * w + spec.E * t * wprime


def monitor(problem: ProblemClass, params: Params, t, w, wprime):
    """Monitor function ``M(t)`` whose sign equals the sign of ``lambda'(t)``:
    ``(alpha + p) w + E t w'`` for a power source, ``(alpha + p) + t w'`` for
    ``exp`` (see :class:`~pfold.model.ClassSpec`), that is

    * ``gelfand``: ``(alpha + p) + t w'``,
    * ``mems``:    ``(alpha + p) w - t (p + q - 1) w'``,
    * ``jl``:      ``(p + alpha) w + (q - p + 1) t w'``.
    """
    return _monitor(class_spec(params, problem), t, w, wprime)


#: Headroom factor of the sign-change guard over the estimated dense-output error.
GUARD_FACTOR = 50.0


def _error_guard(traj: _ivp.Trajectory, w, t_wprime, coeff_sum: float, scale=1.0):
    """Noise floor for sign changes of a functional linear in ``w`` and ``t w'``.

    The dense output carries a global error of order
    ``rel_tol * (|w| + |t w'|) + abs_tol`` (with headroom for accumulation);
    sign changes whose values stay below ``GUARD_FACTOR`` times this level
    are unresolved and must not be reported.  In the log-phase units, pass
    ``W = w t^-g``, ``Y = t w' t^-g`` and ``scale = t^-g``: the floor is
    then divided by ``t^g`` too.
    """
    cfg = traj.config
    state_err = cfg.rel_tol * (np.abs(w) + np.abs(t_wprime) + scale) + cfg.abs_tol * scale
    return GUARD_FACTOR * coeff_sum * state_err


@dataclass(frozen=True)
class CurvePoint:
    """One sample of the solution curve (``lam`` is the parameter value)."""

    t: float
    lam: float
    u0: float
    monitor: float


@dataclass(frozen=True)
class SolutionCurve:
    """Log-uniformly sampled solution curve with its source trajectory."""

    problem: ProblemClass
    params: Params
    closed_forms: ClosedForms
    points: tuple[CurvePoint, ...]
    trajectory: _ivp.Trajectory
    truncated: bool = False

    @property
    def t_end(self) -> float:
        return self.points[-1].t


@dataclass(frozen=True)
class TurningPoint:
    """Fold of the solution curve: a sign change of the monitor.

    ``direction`` records the passage of the curve through the fold:
    ``"right-to-left"`` for a monitor going + to - (local maximum of
    ``lambda``), ``"left-to-right"`` for - to +.
    """

    t_star: float
    lambda_star: float
    u0_star: float
    direction: str


@dataclass(frozen=True)
class IntersectionRecord:
    """Sign changes of ``P(t) = w(t) - w0(t)`` and the extrema between them."""

    times: tuple[float, ...]
    extrema_times: tuple[float, ...]
    extrema_abs: tuple[float, ...]


def _illinois(traj: _ivp.Trajectory, fn, row: int, ta: float, tb: float, xa: float,
              xb: float, fa: float, fb: float):
    """Root of ``fn`` on dense row ``row`` between the parameters ``ta < tb``
    (at ``x = ln t`` of ``xa``, ``xb``), where its values ``fa``, ``fb``
    differ in sign: Illinois regula falsi until the bracket spans at most
    ``ROOT_RTOL`` in ``ln t``.  Returns the last point evaluated, as
    :meth:`~pfold.ivp.Trajectory._row_point` gives it."""
    point = None
    side = 0
    while xb - xa > ROOT_RTOL:
        tc = (ta * fb - tb * fa) / (fb - fa)
        if not ta < tc < tb:
            tc = 0.5 * (ta + tb)
        point = traj._row_point(row, tc)
        fc = fn(*point[:3])
        if fc == 0.0:
            break
        if (fc > 0.0) == (fb > 0.0):
            tb, xb, fb = tc, point[0], fc
            if side < 0:
                fa *= 0.5
            side = -1
        else:
            ta, xa, fa = tc, point[0], fc
            if side > 0:
                fb *= 0.5
            side = 1
    if point is None:
        point = traj._row_point(row, 0.5 * (ta + tb))
    return point


def _roots(traj: _ivp.Trajectory, fn, coeff_sum: float | None = None,
           x_min: float = -math.inf):
    """Roots of ``fn(x, W, Y)`` past ``x_min``, in time order.

    ``fn`` is a functional of ``x = ln t`` and of the log-phase variables
    ``W = w t^-g``, ``Y = t w' t^-g``, evaluated on the trajectory's dense
    samples.  With ``coeff_sum``, only samples whose value clears
    :func:`_error_guard` count.  Each sign change between consecutive
    counted samples is refined on the dense row that holds it: a bracket
    that spans several rows goes to the first row whose end values differ
    in sign.  Returns ``(x, W, Y, t^-g, positive_before)`` per root.
    """
    smp = traj._samples
    vals = fn(smp.x, smp.big_w, smp.y)
    if coeff_sum is None:
        idx = np.arange(len(vals))
    else:
        idx = np.flatnonzero(np.abs(vals) > _error_guard(traj, smp.big_w, smp.y, coeff_sum,
                                                         smp.scale))
    a, b = idx[:-1], idx[1:]
    pick = (vals[a] * vals[b] < 0.0) & (smp.x[b] > x_min)
    rows, theta, xs = smp.row, smp.theta, smp.x
    out = []
    for i, j in zip(a[pick].tolist(), b[pick].tolist()):
        lo, hi = i, j
        for k in range(i + 1, j + 1):
            if rows[k] != rows[k - 1]:  # sample k starts a row, where the row of lo ends
                if vals[lo] * vals[k] <= 0.0:
                    hi = k
                    break
                lo = k
        row = int(rows[lo])
        t_hi = float(theta[hi]) if rows[hi] == row else traj._row_end(row)
        point = _illinois(traj, fn, row, float(theta[lo]), t_hi, float(xs[lo]), float(xs[hi]),
                          float(vals[lo]), float(vals[hi]))
        if point[0] > x_min:
            out.append((*point, bool(vals[i] > 0.0)))
    return out


def build_curve(traj: _ivp.Trajectory, cf: ClosedForms | None = None,
                samples_per_decade: int = 50) -> SolutionCurve:
    """Sample the solution curve log-uniformly over the trajectory range.

    The number of rows is ``round(samples_per_decade * decades) + 1`` where
    ``decades = log10(t_end / t_start)``.  For ``jl`` runs truncated at a
    zero of ``w``, samples with ``w`` at or below the integration floor are
    dropped and the curve is marked ``truncated``.
    """
    if cf is None:
        cf = closed_forms(traj.params, traj.problem)
    t_lo, t_hi = traj.t_start, traj.t_end
    if not t_hi > t_lo:
        raise ValueError("trajectory covers an empty range")
    decades = math.log10(t_hi / t_lo)
    count = int(round(samples_per_decade * decades)) + 1
    if count < 2:
        raise ValueError("requested sampling produces fewer than two points")
    grid = np.geomspace(t_lo, t_hi, count)
    w, wp = traj.eval_many(grid)
    keep = np.ones(len(grid), dtype=bool)
    truncated = traj.termination == "zero"
    spec = cf.spec
    if spec.E is not None:
        # lambda = t^k w^E needs w > 0
        keep = w > 10.0 * traj.config.abs_tol
    lam, u0 = _curve_values(spec, grid[keep], w[keep])
    mon = _monitor(spec, grid[keep], w[keep], wp[keep])
    points = tuple(
        CurvePoint(t=float(t), lam=float(lv), u0=float(u), monitor=float(m))
        for t, lv, u, m in zip(grid[keep], lam, u0, mon)
    )
    if not points:
        raise ValueError("no curve points with positive w in range")
    return SolutionCurve(
        problem=traj.problem,
        params=traj.params,
        closed_forms=cf,
        points=points,
        trajectory=traj,
        truncated=truncated,
    )


def turning_points(traj: _ivp.Trajectory) -> list[TurningPoint]:
    """All guarded sign changes of the monitor on the trajectory range,
    refined on the dense output.

    Directions alternate along the returned (time-ordered) sequence.
    """
    spec = class_spec(traj.params, traj.problem)
    # the magnitudes of the monitor's coefficients on w and t w'
    coeff_sum = 1.0 if spec.E is None else spec.k + abs(spec.E)
    out: list[TurningPoint] = []
    # M t^-g = k W + E Y (gelfand: k + Y)
    for x, big_w, _, scale, positive in _roots(
            traj, lambda x, big_w, y: _monitor(spec, 1.0, big_w, y), coeff_sum):
        t_star = math.exp(x)
        lam, u0 = curve_values(traj.problem, traj.params, t_star, big_w / scale)
        direction = "right-to-left" if positive else "left-to-right"
        out.append(TurningPoint(t_star=t_star, lambda_star=lam, u0_star=u0,
                                direction=direction))
    return out


def intersections(traj: _ivp.Trajectory, cf: ClosedForms | None = None,
                  t_min: float | None = None) -> IntersectionRecord:
    """Crossings of the generating solution with the guiding solution.

    Locates the sign changes of ``P(t) = w(t) - w0(t)`` on
    ``[t_min, t_end]`` (default ``t_min = 10 t_start``, which excludes the
    region where the guiding solution is singular or trivially far), and
    the extremum of ``|P|`` between each pair of consecutive crossings.
    """
    if cf is None:
        cf = closed_forms(traj.params, traj.problem)
    if t_min is None:
        t_min = 10.0 * traj.t_start
    if not t_min > traj.t_start:
        raise ValueError(f"t_min must exceed t_start = {traj.t_start!r}")
    # the guiding solution in the log-phase units: W0 = coeff, Y0 = g coeff
    # (gelfand: W0 = ln coeff - beta x, Y0 = -beta)
    big_w0, y0 = guiding_eval(cf, 1.0)
    slope = -cf.beta if cf.spec.E is None else 0.0

    def gap(x, big_w, y):  # P t^-g
        return big_w - (big_w0 + slope * x)

    crossings = [x for x, *_ in _roots(traj, gap, 1.0, math.log(t_min))]
    # the extrema: roots of P' t^(1-g) = Y - Y0, unguarded, between the crossings
    extrema = (_roots(traj, lambda x, big_w, y: y - y0, None, crossings[0])
               if len(crossings) > 1 else [])
    ext_x = [x for x, *_ in extrema]
    extrema_times: list[float] = []
    extrema_abs: list[float] = []
    for xa, xb in zip(crossings[:-1], crossings[1:]):
        lo, hi = bisect_right(ext_x, xa), bisect_left(ext_x, xb)
        cand = [(abs(gap(x, big_w, y)) / scale, x) for x, big_w, y, scale, _ in extrema[lo:hi]]
        if cand:
            dev, x = max(cand)
            extrema_times.append(math.exp(x))
            extrema_abs.append(dev)
    return IntersectionRecord(
        times=tuple(math.exp(x) for x in crossings),
        extrema_times=tuple(extrema_times),
        extrema_abs=tuple(extrema_abs),
    )


def check_interlacing(crossing_times, turning_times) -> bool:
    """True when crossings and folds strictly alternate.

    Merged in time order, consecutive events must be of different type;
    this implies the counts differ by at most one and that every interval
    between consecutive crossings contains exactly one fold.
    """
    events = sorted(
        [(t, "x") for t in crossing_times] + [(t, "m") for t in turning_times]
    )
    return all(a[1] != b[1] for a, b in zip(events[:-1], events[1:]))


def singular_profile(cf: ClosedForms, r):
    """Explicit singular limit profile: the map of :func:`profile` applied to
    the guiding solution, ``-(p+alpha) ln r``, ``1 - r^beta`` or
    ``r^-beta - 1`` depending on the class."""
    w0_r, _ = guiding_eval(cf, r)
    w0_1, _ = guiding_eval(cf, 1.0)
    u = _u(cf.spec, w0_r, w0_1)
    return float(u) if np.ndim(u) == 0 else u


def profile(traj: _ivp.Trajectory, t: float, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Radial solution ``u(r)`` of the boundary value problem at curve
    parameter ``t``, reconstructed by scaling: ``u(r) = -sgn (x - w(0))``
    with ``x = w(t r)/w(t)`` for a power source and ``w(t r) - w(t)`` for
    ``exp``, that is

    * ``gelfand``: ``u(r) = w(t r) - w(t)``,
    * ``mems``:    ``u(r) = 1 - w(t r)/w(t)``,
    * ``jl``:      ``u(r) = w(t r)/w(t) - 1``.

    ``u(1) = 0`` exactly and ``u`` decreases in ``r``.  A power source needs
    ``w(t)`` above the floor of :func:`build_curve`, ``10 abs_tol``.
    """
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0.0) or np.any(r > 1.0):
        raise ValueError("r_grid must lie in (0, 1]")
    if t * r.max() > traj.t_end * (1.0 + 1e-12) or t * r.min() < traj.t_start * (1.0 - 1e-12):
        raise ValueError("t * r_grid leaves the trajectory range")
    # w(t r) and w(t) in one read, so that r = 1 gives u = 0 exactly
    w, _ = traj.eval_many(np.minimum(t * np.append(r, 1.0), traj.t_end))
    spec = class_spec(traj.params, traj.problem)
    if spec.E is not None and not w[-1] > 10.0 * traj.config.abs_tol:
        zero = f"; w reaches zero at t = {traj.zero_time!r}" if traj.zero_time else ""
        raise ValueError(f"profile needs w(t) > {10.0 * traj.config.abs_tol:g}, got "
                         f"w = {w[-1]:.3g} at t = {t!r}{zero}")
    return r, _u(spec, w[:-1], w[-1])


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance of the computed curve from its explicit singular limit.

    ``char_root_real`` is ``Re r`` of the characteristic roots.  Both gaps
    decay like ``t^(Re r - g)``, with ``g = 0`` for ``gelfand``, ``beta``
    for ``mems`` and ``-beta`` for ``jl``: the shift of the log-phase
    variables ``W = w t^-g`` (see :mod:`pfold.ivp`), whose fixed point has
    the eigenvalues ``r - g``.
    """

    lambda_inf: float
    t_eval: float
    lambda_at: float
    lambda_gap: float
    turning_lambda_gaps: tuple[float, ...]
    profile_sup_gap: float
    char_root_real: float

    def to_dict(self) -> dict:
        return {
            "lambda_inf": self.lambda_inf,
            "t_eval": self.t_eval,
            "lambda_at": self.lambda_at,
            "lambda_gap": self.lambda_gap,
            "turning_lambda_gaps": list(self.turning_lambda_gaps),
            "profile_sup_gap": self.profile_sup_gap,
            "char_root_real": self.char_root_real,
        }


def convergence(curve: SolutionCurve, t_eval: float | None = None,
                r_points: int = 64) -> ConvergenceReport:
    """Convergence report at ``t_eval`` (default: end of the curve).

    ``lambda_gap`` is ``|lambda(t_eval) - lambda_inf|``;
    ``turning_lambda_gaps`` lists ``|lambda* - lambda_inf|`` over all folds
    (eventually decreasing when the regime is oscillatory);
    ``profile_sup_gap`` is the sup-distance of the radial profile at
    ``t_eval`` from the explicit singular profile over 64 log-spaced radii
    in [0.1, 1].  The real part of the characteristic roots is included
    since it sets the expected decay rate ``t^(Re r - g)`` of both gaps
    (``g`` as in :class:`ConvergenceReport`).
    """
    traj = curve.trajectory
    if traj.t_end < 1e3:
        raise ValueError("convergence report needs a trajectory reaching t >= 1e3")
    if t_eval is None:
        t_eval = traj.t_end
    cf = curve.closed_forms
    w_t, _ = traj.eval(t_eval)
    lam, _ = curve_values(curve.problem, curve.params, t_eval, w_t)
    turns = turning_points(traj)
    gaps = tuple(abs(tp.lambda_star - cf.lambda_inf) for tp in turns)
    r = np.geomspace(0.1, 1.0, r_points)
    _, u = profile(traj, t_eval, r)
    sup_gap = float(np.max(np.abs(u - singular_profile(cf, r))))
    quad = characteristic_quadratic(curve.params, curve.problem)
    return ConvergenceReport(
        lambda_inf=cf.lambda_inf,
        t_eval=float(t_eval),
        lambda_at=float(lam),
        lambda_gap=float(abs(lam - cf.lambda_inf)),
        turning_lambda_gaps=gaps,
        profile_sup_gap=sup_gap,
        char_root_real=quad.roots[0].real,
    )


def shooting_check(params: Params, problem: ProblemClass, point: CurvePoint,
                   rel_tol: float = 1e-12, abs_tol: float = 1e-14) -> float:
    """Independent validation of a curve point by shooting the radial BVP.

    Integrates the radial equation in ``r`` from a series startup near 0
    with center value ``u(0) = point.u0`` at ``lambda = point.lam``, with
    the source ``f(w_c - sgn u)``: ``exp(u)``, ``(1-u)^-q`` or ``(1+u)^q``,
    and returns ``|u(1)|``, which vanishes exactly when the point lies on the
    solution curve.  Tolerances are decoupled from the generating
    integration so the check is a genuine cross-validation.
    """
    p, n, alpha = params.p, params.n, params.alpha
    lam, u0 = point.lam, point.u0
    if problem is ProblemClass.MEMS and not u0 < 1.0:
        raise ValueError("mems center value must satisfy u0 < 1")
    spec = class_spec(params, problem)
    f, w_c, sgn = spec.f, spec.w_center, spec.sgn
    g0 = lam * f(w_c - sgn * u0)
    sigma = (alpha + p) / (p - 1.0)
    kappa = (p - 1.0) / (alpha + p) * (g0 / (n + alpha)) ** (1.0 / (p - 1.0))
    # startup radius: keep the series correction below ~1e-10 of the scale
    if kappa > 0.0:
        r_start = min(1e-6, (1e-10 * max(1.0, abs(u0)) / kappa) ** (1.0 / sigma))
        r_start = max(r_start, 1e-30)
    else:
        r_start = 1e-6
    u_start = u0 - kappa * r_start**sigma
    v_start = -g0 * r_start ** (n + alpha) / (n + alpha)

    def rhs(r, u, v):
        return (
            _ivp._phi_inv(v / r ** (n - 1.0), p),
            -lam * r ** (n + alpha - 1.0) * f(w_c - sgn * u),
        )

    run = _ivp._dop853(rhs, r_start, u_start, v_start, 1.0, rel_tol, (abs_tol, abs_tol),
                       200_000, dense=False)
    if run.status != "done":
        raise _ivp.IntegrationError("shooting integration exhausted max_steps",
                                    (run.xs[-1], *run.states[-1]))
    return abs(run.states[-1][0])
