"""Global solution curves, turning points, and convergence diagnostics.

Given the dense trajectory ``w(t)`` of a generating IVP, the full
``(lambda, u(0))`` solution curve of the corresponding boundary value
problem is recovered algebraically:

* ``gelfand``:  ``lambda = t^(alpha+p) e^w``,        ``u(0) = -w``;
* ``mems``:     ``lambda = t^(alpha+p) / w^(p+q-1)``, ``u(0) = 1 - 1/w``;
* ``jl``:       ``lambda = t^(p+alpha) w^(q-p+1)``,   ``u(0) = 1/w - 1``.

With ``k = alpha + p`` and the exponent ``E`` of
:class:`~pfold.model.ClassSpec`, ``lambda`` is computed as ``exp(k ln t +
L)``, ``L = w`` for ``exp`` and ``L = E ln w`` for a power: one formula,
finite wherever ``lambda`` is, also where ``t^k`` alone overflows.

``lambda'(t)`` has the sign of a class-specific monitor function ``M(t)``
(a bracket linear in ``w`` and ``t w'``), so folds of the curve are exactly
the roots of ``M``.  The guiding solution ``w0`` is the zero set of ``M``;
crossings of ``w`` with ``w0`` and roots of ``M`` interlace, and both
accumulate geometrically in ``t`` when the linearized Euler equation is
oscillatory.

Folds and crossings are events located on the stepper's own dense output
(Hairer, Norsett & Wanner, *Solving ODEs I*, Section II.6) by
:meth:`pfold.ivp.Trajectory._roots`.  The trajectory scans the monitor of
its :class:`~pfold.model.ClassSpec` once, as ``_folds``; this module maps
those roots to folds and states the gap to the guiding solution.  In the
log-phase variables ``W = w t^-g``, ``Y = t w' t^-g`` of :mod:`pfold.ivp`,
the monitor is ``M = t^g (k W + E Y)`` (``k + Y`` for ``exp``) and the gap
``t^g (W - W0)``, ``W0 = coeff`` (``ln coeff - k ln t``), so their signs
need no rescaling.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import _LAZY, ivp as _ivp
from .model import (
    ClassSpec,
    ClosedForms,
    Params,
    ProblemClass,
    ValidityError,
    characteristic_quadratic,
    check_conditions,
    class_spec,
    closed_forms,
    guiding_eval,
)

__all__ = list(_LAZY["curve"])


def _u(spec: ClassSpec, w_r, w_t):
    """Value ``u = -sgn (x - w_c)`` of the radial solution where the
    generating solution is ``w_r``, on the curve point where it is ``w_t``:
    ``x = w_r / w_t`` for a power source, ``w_r - w_t`` for ``exp``.
    Adding 0.0 turns the ``-0.0`` at ``x = w_c`` into 0.0."""
    x = w_r - w_t if spec.E is None else w_r / w_t
    return -spec.sgn * (x - spec.w_center) + 0.0


def _curve_values(spec: ClassSpec, t, w):
    """``(lambda, u0)``, with ``lambda = exp(k ln t + L)``."""
    log_f = w if spec.E is None else spec.E * np.log(w)
    return np.exp(spec.k * np.log(t) + log_f), _u(spec, spec.w_center, w)


def curve_values(problem: ProblemClass, params: Params, t, w):
    """Map ``(t, w)`` to ``(lambda, u0)`` for the given class (vectorized)."""
    lam, u0 = _curve_values(class_spec(params, problem), np.asarray(t, dtype=float),
                            np.asarray(w, dtype=float))
    if lam.ndim == 0:
        return float(lam), float(u0)
    return lam, u0


def monitor(problem: ProblemClass, params: Params, t, w, wprime):
    """Monitor function ``M(t)`` whose sign equals the sign of ``lambda'(t)``:
    ``(alpha + p) w + E t w'`` for a power source, ``(alpha + p) + t w'`` for
    ``exp`` (see :class:`~pfold.model.ClassSpec`), that is

    * ``gelfand``: ``(alpha + p) + t w'``,
    * ``mems``:    ``(alpha + p) w - t (p + q - 1) w'``,
    * ``jl``:      ``(p + alpha) w + (q - p + 1) t w'``.
    """
    return class_spec(params, problem).monitor(t, w, wprime)


class CurvePoint(NamedTuple):
    """One sample of the solution curve (``lam`` is the parameter value), a
    row of :data:`pfold.output.CURVE_HEADER`."""

    t: float
    lam: float
    u0: float
    monitor: float


class _CurveRows(Sequence):
    """The rows of a :class:`SolutionCurve`, built from its columns on read:
    an index gives a :class:`CurvePoint`, a slice a tuple of them."""

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple[np.ndarray, ...]):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(CurvePoint, *(col[index].tolist() for col in self._columns)))
        return CurvePoint(*(col[index].item() for col in self._columns))

    def __iter__(self):
        return map(CurvePoint, *(col.tolist() for col in self._columns))


@dataclass(frozen=True, eq=False)
class SolutionCurve:
    """Log-uniformly sampled solution curve with its source trajectory.

    The samples are held once, as the read-only columns ``t``, ``lam``,
    ``u0`` and ``monitor``; :attr:`points` reads them as rows.
    ``closed_forms`` are those :func:`build_curve` was given, or None."""

    problem: ProblemClass
    params: Params
    closed_forms: ClosedForms | None
    t: np.ndarray
    lam: np.ndarray
    u0: np.ndarray
    monitor: np.ndarray
    trajectory: _ivp.Trajectory
    truncated: bool = False

    @property
    def points(self) -> Sequence[CurvePoint]:
        """The samples as :class:`CurvePoint` rows, built on read."""
        return _CurveRows((self.t, self.lam, self.u0, self.monitor))

    @property
    def t_end(self) -> float:
        return float(self.t[-1])


class TurningPoint(NamedTuple):
    """Fold of the solution curve: a sign change of the monitor.

    ``direction`` records the passage of the curve through the fold:
    ``"right-to-left"`` for a monitor going + to - (local maximum of
    ``lambda``), ``"left-to-right"`` for - to +.  The fields are the
    columns of :data:`pfold.output.TURNING_HEADER`.
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


def _w_floor(traj: _ivp.Trajectory) -> float:
    """Smallest ``w`` of a curve point of a power source: ``lambda = t^k
    w^E`` needs ``w > 0``, and a run that ends at a zero of ``w`` keeps
    ``w > 10 abs_tol``, clear of the zero it was stopped at."""
    return 10.0 * traj.config.abs_tol if traj.termination == "zero" else 0.0


def build_curve(traj: _ivp.Trajectory, cf: ClosedForms | None = None,
                samples_per_decade: int = 50) -> SolutionCurve:
    """Sample the solution curve log-uniformly over the trajectory range.

    The number of rows is ``round(samples_per_decade * decades) + 1`` where
    ``decades = log10(t_end) - log10(t_start)``.  For ``jl`` runs truncated
    at a zero of ``w``, samples with ``w`` at or below the integration floor
    are dropped and the curve is marked ``truncated``.  The curve needs no
    guiding solution: ``cf``, if given, is kept on it for :func:`convergence`.
    """
    t_lo, t_hi = traj.t_start, traj.t_end
    if not t_hi > t_lo:
        raise ValueError("trajectory covers an empty range")
    decades = math.log10(t_hi) - math.log10(t_lo)  # t_hi / t_lo may overflow
    try:  # a rate or a row count past the floats gives none
        count = (int(round(float(samples_per_decade) * decades)) + 1
                 if 0.0 < samples_per_decade < math.inf else 0)
    except OverflowError:
        count = 0
    if count < 2:
        raise ValueError(f"samples_per_decade must be positive and finite and give two points or "
                         f"more, got {samples_per_decade!r}")
    grid = np.geomspace(t_lo, t_hi, count)
    w, wp = traj.eval_many(grid)
    spec = class_spec(traj.params, traj.problem)
    keep = slice(None) if spec.E is None else w > _w_floor(traj)
    t, w, wp = grid[keep], w[keep], wp[keep]
    if not len(t):
        raise ValueError("no curve points with positive w in range")
    with np.errstate(over="ignore"):  # a subnormal w gives u0 = inf
        lam, u0 = _curve_values(spec, t, w)
    mon = spec.monitor(t, w, wp)
    for col in (t, lam, u0, mon):
        col.flags.writeable = False
    return SolutionCurve(
        problem=traj.problem,
        params=traj.params,
        closed_forms=cf,
        t=t,
        lam=lam,
        u0=u0,
        monitor=mon,
        trajectory=traj,
        truncated=traj.termination == "zero",
    )


def turning_points(traj: _ivp.Trajectory) -> list[TurningPoint]:
    """All guarded sign changes of the monitor on the trajectory range,
    refined on the dense output.

    Directions alternate along the returned (time-ordered) sequence.  The
    trajectory locates the folds once (``Trajectory._folds``); each call
    returns a new list of them.
    """
    x, big_w, _, scale, positive = np.array(traj._folds[0]).reshape(-1, 5).T
    t_star = [math.exp(v) for v in x.tolist()]
    lam, u0 = _curve_values(class_spec(traj.params, traj.problem), np.array(t_star), big_w / scale)
    return [TurningPoint(*values, "right-to-left" if pos else "left-to-right")
            for *values, pos in zip(t_star, lam.tolist(), u0.tolist(), positive.tolist())]


@dataclass(frozen=True)
class FoldAnswer:
    """The fold answer of one run: its folds, as :func:`turning_points` gives
    them, and what else tells how far to trust their count.

    ``guard_discarded`` counts the sign changes of the monitor that the
    guard threw away: those between consecutive dense samples, minus the
    folds.  Each fold brackets an odd number of them, so the count is ``>=
    0``; it counts both rounding noise and real folds too close to the
    guiding solution to resolve.  ``predicted_infinite_turns`` and
    ``oscillatory`` are those of :func:`~pfold.model.check_conditions`, and
    ``lambda_inf`` is the guiding solution's, or None where there is none.
    """

    folds: tuple[TurningPoint, ...]
    guard_discarded: int
    predicted_infinite_turns: bool
    oscillatory: bool
    t_end: float
    termination: str
    lambda_inf: float | None

    def to_dict(self) -> dict:
        """The summary of ``pfold turns``: the fields, with the folds as their
        count and whether their directions alternate (None below two folds)."""
        directions = [tp.direction for tp in self.folds]
        alternating = all(a != b for a, b in zip(directions[:-1], directions[1:]))
        return {"count": len(directions),
                "alternating_directions": alternating if len(directions) >= 2 else None,
                **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}


def _lambda_inf(traj: _ivp.Trajectory) -> float | None:
    """The guiding solution's ``lambda_inf``, or None where there is none."""
    try:
        return closed_forms(traj.params, traj.problem).lambda_inf
    except ValidityError:
        return None


def fold_answer(traj: _ivp.Trajectory) -> FoldAnswer:
    """The :class:`FoldAnswer` of ``traj``, with the folds kept on it."""
    folds = tuple(turning_points(traj))
    report = check_conditions(traj.params, traj.problem)
    return FoldAnswer(folds, traj._folds[1],
                      report.predicted_infinite_turns, report.oscillatory, traj.t_end,
                      traj.termination, _lambda_inf(traj))


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

    x_min = math.log(t_min)
    crossings = [x for x, *_ in traj._roots(gap, 1.0)[0] if x > x_min]
    # the extrema: roots of P' t^(1-g) = Y - Y0, unguarded, between the crossings
    extrema = traj._roots(lambda x, big_w, y: y - y0)[0] if len(crossings) > 1 else []
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
    ``w(t)`` above the floor of :func:`build_curve`: 0, or ``10 abs_tol`` on
    a run that ends at a zero of ``w``.
    """
    r = np.asarray(r_grid, dtype=float)
    r_lo, r_hi = (r.min(), r.max()) if r.size else (math.nan, math.nan)
    if not 0.0 < r_lo <= r_hi <= 1.0:
        raise ValueError("r_grid must be nonempty and lie in (0, 1]")
    if not traj.t_start * (1.0 - 1e-12) <= t * r_lo <= t * r_hi <= traj.t_end * (1.0 + 1e-12):
        raise ValueError("t * r_grid leaves the trajectory range")
    # w(t r) and w(t) in one read, so that r = 1 gives u = 0 exactly
    w, _ = traj.eval_many(np.minimum(t * np.append(r, 1.0), traj.t_end))
    spec = class_spec(traj.params, traj.problem)
    floor = _w_floor(traj)
    if spec.E is not None and not w[-1] > floor:
        zero = f"; w reaches zero at t = {traj.zero_time!r}" if traj.zero_time else ""
        raise ValueError(f"profile needs w(t) > {floor:g}, got "
                         f"w = {w[-1]:.3g} at t = {t!r}{zero}")
    with np.errstate(over="ignore"):  # a subnormal w(t) gives u = inf
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
        return {**asdict(self), "turning_lambda_gaps": list(self.turning_lambda_gaps)}


# the radii at which convergence compares the profile with the singular one
_CONVERGENCE_RADII = np.geomspace(0.1, 1.0, 64)
_CONVERGENCE_RADII.flags.writeable = False


def convergence(curve: SolutionCurve, t_eval: float | None = None) -> ConvergenceReport:
    """Convergence report at ``t_eval`` (default: end of the curve).

    ``lambda_gap`` is ``|lambda(t_eval) - lambda_inf|``;
    ``turning_lambda_gaps`` lists ``|lambda* - lambda_inf|`` over all folds
    (eventually decreasing when the regime is oscillatory);
    ``profile_sup_gap`` is the sup-distance of the radial profile at
    ``t_eval`` from the explicit singular profile over the 64 log-spaced
    radii in [0.1, 1] of ``_CONVERGENCE_RADII``.  The real part of the
    characteristic roots is included since it sets the expected decay rate
    ``t^(Re r - g)`` of both gaps (``g`` as in :class:`ConvergenceReport`).
    A curve built without closed forms gets them here; without a guiding
    solution this raises :class:`~pfold.model.ValidityError`.
    """
    traj = curve.trajectory
    if traj.t_end < 1e3:
        raise ValueError("convergence report needs a trajectory reaching t >= 1e3")
    if t_eval is None:
        t_eval = traj.t_end
    cf = curve.closed_forms
    if cf is None:
        cf = closed_forms(curve.params, curve.problem)
    w_t, _ = traj.eval(t_eval)
    lam, _ = curve_values(curve.problem, curve.params, t_eval, w_t)
    turns = turning_points(traj)
    gaps = tuple(abs(tp.lambda_star - cf.lambda_inf) for tp in turns)
    _, u = profile(traj, t_eval, _CONVERGENCE_RADII)
    sup_gap = float(np.max(np.abs(u - singular_profile(cf, _CONVERGENCE_RADII))))
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


def shooting_check(params: Params, problem: ProblemClass, point: CurvePoint) -> float:
    """Independent validation of a curve point by shooting the radial BVP.

    Steps the radial equation in ``r`` from its two-term start near 0
    (:func:`pfold.ivp._shoot`) with ``u(0) = point.u0`` at ``lambda =
    point.lam``, with the source ``f(w_c - sgn u)``: ``exp(u)``, ``(1-u)^-q``
    or ``(1+u)^q``, and returns ``|u(1)|``, which vanishes exactly when the
    point lies on the solution curve.  Its tolerances, ``rel_tol = 1e-12``
    and ``abs_tol = 1e-14``, are decoupled from the generating integration,
    so the check cross-validates it.  Raises :class:`~pfold.ivp.IntegrationError`
    where the radial solution leaves the float range, and ``ValueError``
    unless ``0 <= lambda < inf`` and ``u0`` is finite.
    """
    lam, u0 = point.lam, point.u0
    if not (0.0 <= lam < math.inf and math.isfinite(u0)):
        raise ValueError(f"shooting needs 0 <= lam < inf and a finite u0, got {point!r}")
    if problem is ProblemClass.MEMS and not u0 < 1.0:
        raise ValueError("mems center value must satisfy u0 < 1")
    spec = class_spec(params, problem)
    # (u, v)' = (phiinv(v / r^(n-1)), -lam r^(n+alpha-1) f(w_c - sgn u)), u(0) = u0
    return abs(_ivp._shoot(params, spec, -lam, spec.w_center, spec.sgn, u0, 1.0, 1e-12, 1e-14,
                           200_000)[0])
