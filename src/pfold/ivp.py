"""Numerical integration of the three generating initial value problems.

Each problem class is generated by one IVP that is singular at ``t = 0``:

* ``gelfand``:  ``phi(w')' + ((n-1)/t) phi(w') + t^alpha e^w = 0``,
  ``w(0) = 0``, ``w'(0) = 0``;
* ``mems``:     ``phi(w')' + ((n-1)/t) phi(w') = t^alpha / w^q``,
  ``w(0) = 1``, ``w'(0) = 0``;
* ``jl``:       ``phi(w')' + ((n-1)/t) phi(w') + t^alpha w^q = 0``,
  ``w(0) = 1``, ``w'(0) = 0``,

with ``phi(s) = s |s|^(p-2)``.  The equations are written in the flux
variables ``(w, v)`` with ``v = t^(n-1) phi(w')``, so that the singular
``(n-1)/t`` term is absorbed into an exact derivative and ``phi`` is never
differentiated:

    ``w' = phiinv(v / t^(n-1))``,  ``v' = -+ t^(n+alpha-1) f(w)``.

The pair ``(w, v)`` itself is stepped in ``t`` only by :func:`_shoot`, for
acceptance row 6 of :mod:`pfold.verify` and for :func:`pfold.curve.shooting_check`,
which shoots the radial problem in the same form.  A :class:`Trajectory`'s
nodes are ``(t, w, w')`` only: ``v``, which grows like a power of ``t``, need
not fit a double.  Nor is it formed anywhere else: the startup series hands
out ``(w, w', V)``, and row 6 is the one place that forms its flux ``t^m V``.

``t = 0`` is a regular singular point, where the regular solution is a
convergent power series (Joseph & Lundgren 1973).  With
``sigma = (alpha+p)/(p-1)``, ``tau = t^sigma`` and ``m = n + alpha``,

    ``w = w(0) + tau U(tau)``,  ``v = t^m V(tau)``,

and the coefficients of ``U`` and ``V`` follow one by one from recurrences
(:func:`_series`).  The series covers ``[t_start, t1]``: ``t1`` is the
largest ``t <= t_max`` at which its last three nonzero terms stay below
``1e-16`` of the leading ones and the powers of ``tau`` in use below
``1e300`` (coefficients underflow to 0 as ``p`` nears 1), and for ``jl``
also lies before ``w`` falls to 1/2; a ``t1`` with the logarithm of
``t_max`` is ``t_max``, as the log phase would have no interval.
The trajectory keeps one node at ``t1`` for this segment, and its dense
output evaluates the series there, in the series' own variables:
:meth:`Trajectory.eval` and :meth:`Trajectory.eval_many` read ``(w, w')``
off it without the scale ``t^-g``.  For 90% of parameter sets
drawn over ``p`` in [1.5, 4], ``n - p`` in [0.05, 12] and ``alpha`` in
[0, 2] the series reaches ``t = 0.34`` to 2.1, and past 1 for about half.

From ``t1`` on, one phase runs in ``s = ln t``, where folds accumulate
uniformly, in the Emden-Fowler variables of Joseph & Lundgren (1973)

    ``W = w t^-g``,  ``Z = v t^c = phi(t w') t^(-g(p-1))``,  ``c = p - n - g(p-1) = -D``,

with ``g = 0`` for ``gelfand``, ``g = beta`` for ``mems`` and ``g = -beta``
for ``jl`` (:func:`~pfold.model.beta_exponent`) and the bracket ``D`` of
:func:`~pfold.model.guiding_bracket`:

    ``W' = -g W + phiinv(Z)``,  ``Z' = c Z -+ f(W)``   (``mems``, ``jl``),
    ``W' = phiinv(Z)``,  ``Z' = (p-n) Z - exp((alpha+p) s + W)``   (``gelfand``).

Self-similarity makes the ``mems`` and ``jl`` systems autonomous, and the
guiding solution is their fixed point, so the stepper follows a state that
settles instead of one that grows or decays like a power of ``t``.  For
``gelfand``, ``Z`` is fixed on the guide but ``W`` falls at the constant
rate ``k = alpha + p``; where the guide exists (``n > p``), ``gelfand``
steps ``lambda = t^k e^W`` in place of ``W`` (:func:`_log_phase`):

    ``lambda' = lambda (k + phiinv(Z))``,  ``Z' = (p-n) Z - lambda``,

autonomous, free of ``exp`` and at rest at ``(lambda_inf, -k^(p-1))``.
The fixed point's linearization has the eigenvalues
``mu = r - g``, with ``r`` the characteristic roots, and the step is capped
at ``min(5 / max |mu|, 3 / min |mu|, 2 / max |Im r|)``, inside DOP853's
stability region and where its dense output follows the linear modes (see
:func:`_log_phase`).  A ``jl`` problem with
``q <= p - 1`` has no such scaling and keeps ``g = 0``, with the source
``t^(alpha+p) f(W)``.  ``W`` has the sign of ``w``.  The phase starts
from the series at ``t1``, as ``W1 = w1 t1^-g`` and ``Z1 = t1^(k - g(p-1))
V1`` with ``k = alpha + p = m + c``, so that the flux ``t1^m V1``, which
overflows for large ``n``, is never formed.  ``(W, Z)`` differs from
``(w, v)`` by powers of ``t1`` (for ``t1 < 1`` it can be tiny), so the
absolute tolerance is applied in the units of ``(w, v)`` at ``t1``:
``abs_tol (t1^-g, t1^c)``; ``lambda``'s error is held relative (absolute
tolerance 0), which holds ``w``'s to ``rel_tol``.  ``gelfand`` keeps ``W``
where ``w1`` has not moved from 0 by more than ``rel_tol`` (near ``p =
1`` every series coefficient underflows and ``w1 = 0``), as ``ln lambda -
k s`` resolves ``w`` only to the rounding of ``k s``, and steps ``W`` from
``t1`` again where ``lambda`` leaves the floats (an ``alpha`` in the
thousands).  The dense rows hold ``(W, Z)``, or ``(lambda, Z)``.  For the
``jl`` class, ``w`` may reach zero in finite time: the stepper stops
after the step on which it does, and the trajectory is truncated at the
zero of that step's dense row.

The stepper is DOP853, the explicit Runge-Kutta pair of order 8 with
embedded error estimators of orders 5 and 3 and a 7th-order dense output
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
2nd ed., Springer 1993, Sections II.5-II.6), with Hairer's coefficients.
It steps the two-component state in plain floats.  The step-size
controller uses the initial step rule of Section II.4, a safety factor of
0.9, step factors clamped to [0.2, 10], the error exponent -1/8, DOP853's
combined err5/err3 error norm and a minimum step of 10 ulp.  Any stage of
a step attempt that leaves the floats (``OverflowError``), trial, end slope
or dense output, rejects the step with the factor 0.2, as an infinite error
would; a step too short to shrink fails with the step-size error.  The dense
output of all steps is kept as one table of interpolation rows.  Each row
starts at its step's node, so the table and the run's last node are the
run's whole record, and the log-phase nodes are read off them.  Every
reader of :class:`Trajectory` reads the rows with the row polynomial
:func:`_dense`, in the units ``(W, Y = t w' t^-g)`` and with ``scale =
t^-g``: one time, an array of times, or the fixed fractions of every row
that event location samples.  A row of ``lambda`` is read as ``W = ln
lambda - k s``, with numpy's ``log`` for one point too, whose last bit
can differ from libm's.  ``(w, t w') = (W, Y) / scale`` is the one way
back, for the nodes too.  The series enters these units only where their
functionals are written in them: in the event samples and the root
refinement.  Events are located on these rows (Section II.6) by
:meth:`Trajectory._roots`, which guards the sign changes of a functional
and refines each root on its row, gathered from the table once, by regula
falsi with Anderson & Bjorck's scaling (:func:`_regula_falsi`, the one root
finder, which also places the zero of ``w`` and the ``jl`` series floor);
:mod:`pfold.curve` states the functionals.

The whole stepping loop is generated from the coefficient tables, once
per *form* of the right-hand side, when the form is first used
(:func:`_straight_line`).  A form is the source of the pair ``(w', v')``
as an expression in the point and the state, with named constants; the
loop writes it into every stage in place of a call, and writes each sum
over the tables out as straight-line code.  A sub-expression that a form
uses more than once, such as the argument of ``phiinv``, is bound once
with ``:=``, as a call would evaluate it once.  The parameters pick the
form, and the classical case ``p = 2``, ``alpha = 0`` (Gelfand; Joseph &
Lundgren's and the MEMS power laws) has forms of its own: ``phiinv`` is
the identity there, written ``s + 0.0`` (which makes a zero ``+0.0``), and
the radial source has the flux's power ``t^(n-1)``, computed once.  For
other ``p``, ``phiinv(s)`` is ``s^r`` for ``s > 0`` and ``-(-s)^r`` for
``s < 0``, without a call of ``abs`` or ``copysign``; the error control
calls no builtin either.  Each sum keeps the order of its table and starts
from its first term, which is what a loop over the table gives from
``0.0`` except that a sum of negative zeros stays ``-0.0``.  Each form does
the operations of the function it replaces in the same order, so the
rounding, and with it every step and every result, stays that of a loop
over the tables that calls the right-hand side.

The controls :class:`~pfold.model.IntegratorConfig` and the error
:class:`~pfold.model.IntegrationError` are defined in :mod:`pfold.model`,
which loads no numpy, and imported here; :mod:`pfold` resolves them from
:mod:`pfold.model`.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _LAZY
from .model import (
    ClassSpec,
    IntegrationError,
    IntegratorConfig,
    InvalidParamsError,
    Params,
    ProblemClass,
    characteristic_quadratic,
    class_spec,
    guiding_bracket,
    validate_params,
)

__all__ = list(_LAZY["ivp"])


class TruncatedTrajectoryError(IntegrationError):
    """``max_steps`` was exhausted; ``trajectory`` carries the partial result."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class State:
    """Point state of the flux system: ``v = t^(n-1) phi(w')``."""

    t: float
    w: float
    v: float


@dataclass(frozen=True)
class PhaseStats:
    """Work of one integration phase: ``phase`` is ``"series"`` (the
    startup series, one accepted node at its reach and no right-hand-side
    evaluation) or ``"log"`` (stepping in ``ln t``); ``nfev`` counts
    right-hand-side evaluations, dense-output stages included.  A log phase
    with steps gives its smallest and largest accepted step in ``ln t``
    (the last, clipped to ``t_max``, included), read off its dense rows;
    they are ``None`` otherwise.  ``capped`` counts the accepted steps
    that the step cap of :func:`_log_phase` shortened: the rows that end
    where ``x0 + cap`` does."""

    phase: str
    accepted: int
    rejected: int
    nfev: int
    min_step: float | None = None
    max_step: float | None = None
    capped: int = 0


def _phi_inv(s: float, r: float) -> float:
    """``phiinv(s) = sign(s) |s|^r``, with ``r = 1/(p-1)`` computed by the caller;
    ``phiinv(-0.0) = 0.0``."""
    return s ** r if s > 0.0 else -(-s) ** r if s < 0.0 else s + 0.0


def _phi_inv_many(s: np.ndarray, r: float) -> np.ndarray:
    return np.sign(s) * np.abs(s) ** r


class _Form(NamedTuple):
    """A form of the right-hand side ``(w, v)' = rhs(x, w, v)``: the names of
    its constants and ``slope``, the source of the pair ``(w', v')`` as an
    expression in the constants and ``X, W, Z`` (the point ``x`` and the
    state ``(w, v)``).  :func:`_straight_line` writes it into every stage."""

    consts: tuple[str, ...]
    slope: str


class _Rhs(NamedTuple):
    """A right-hand side of one form with the values of its constants;
    ``rhs(x, w, v)`` evaluates it at one point."""

    form: _Form
    values: tuple

    def __call__(self, x: float, w: float, v: float) -> tuple[float, float]:
        return _program(self.form).rhs(*self.values, x, w, v)


def _bind(slope: str, **consts) -> _Rhs:
    """The right-hand side ``slope`` with the constants ``consts``."""
    return _Rhs(_Form(tuple(consts), slope), tuple(consts.values()))


def _once(expr: str, name: str) -> tuple[str, str]:
    """The source of ``expr`` where it is first evaluated, which binds it to
    ``name`` (unless it is a name), and where it is used again."""
    return (expr, expr) if expr.isidentifier() else (f"({name} := {expr})", name)


def _phi_inv_source(s: str, phi_exp: float) -> str:
    """Source of :func:`_phi_inv` of the arithmetic expression ``s``, with
    ``r = phi_exp``.  At ``p = 2`` (``phi_exp == 1``) it is ``s`` itself, made
    ``+0.0`` at a zero, as ``|s|^1 = |s|`` exactly."""
    if phi_exp == 1.0:
        return f"({s} + 0.0)"
    first, then = _once(s, "S")
    return (f"({then} ** phi_exp if {first} > 0.0 else -(-{then}) ** phi_exp if {then} < 0.0 "
            f"else {then} + 0.0)")


def _f_source(spec: ClassSpec, w: str) -> str:
    """Source of the nonlinearity :attr:`~pfold.model.ClassSpec.f` of ``w``:
    ``exp``, or the power ``w^e`` that is 0 for ``w <= 0``."""
    if spec.q_power is None:
        return f"exp({w})"
    first, then = _once(w, "A")
    return f"({then} ** e if {first} > 0.0 else 0.0)"


# The radii of the log-phase step cap in |h mu| (see _log_phase).
_STABLE_RADIUS = 5.0
_DENSE_RADIUS = 3.0
_SPIN_STEP = 2.0


def _log_phase(params: Params, problem: ProblemClass):
    """Right-hand side ``(W, Z)' = rhs(s, W, Z)`` of the log phase, the
    exponents ``(g, c)`` of ``W = w t^-g``, ``Z = v t^c``, its step cap, and
    ``gelfand``'s right-hand side ``(lambda, Z)' = rhs(s, lambda, Z)`` in
    ``lambda = t^k e^W`` where it has a fixed point (``n > p``), else None.

    ``lambda``'s rest point ``(lambda_inf, Z0)`` is the guiding solution,
    along which ``W`` falls at the rate ``k``.  Its Jacobian ``((0,
    lambda_inf phiinv'(Z0)), (sgn, c))`` has the roots ``r - g`` of the ``(W,
    Z)`` form along the guide, so the step cap holds for both forms.  For
    ``n <= p``, ``lambda`` has no rest point and falls towards 0: on ``(2,
    1.5, 0)`` it took 1085 steps to ``t = 1e4``, against 24 in ``(W, Z)``,
    and it underflows before ``1e8``.

    The linearization at the fixed point has the eigenvalues ``mu = r - g``,
    with ``r`` the characteristic roots.  Once the state has settled there,
    the error estimate is rounding noise: the controller would grow the
    step until the fastest mode turns unstable and let rounding errors grow
    tenfold per step.  The cap is

        ``min(5 / max |mu|, 3 / min |mu|, 2 / max |Im r|)``,

    rounded down to 8 significant bits, so that the last bits of the roots
    move no step.  The faster mode stays within DOP853's stability radius:
    its stability function ``R`` keeps ``|R(h mu)| < 1`` for ``|h mu| <= 5``
    in the closed left half-plane (Hairer & Wanner, *Solving ODEs* II,
    Section IV.2), with ``|R(-5)| = 0.057`` and ``|R(5i)| = 0.83``.  The
    slower mode stays where the dense output follows ``exp(theta h mu)``
    (to 0.014 for ``|h mu| <= 3``, but 2.3 at ``5i``): a double root or a
    complex pair couples its two modes, and past that radius the dense rows
    of gelfand ``(2, 10, 0)`` stray 20 times further from the solution than
    its nodes.  A spiral, whose sign changes are the folds, turns by at
    most 2 radians per step, where the dense output follows the rotation
    to 4e-4 (0.014 at 3 radians).
    """
    p, n = params.p, params.n
    phi_exp = 1.0 / (p - 1.0)
    spec = class_spec(params, problem)
    sgn, k, g, e = spec.sgn, spec.k, spec.g, spec.q_power
    w_dot = _phi_inv_source("Z", phi_exp)
    if g is None:
        # no self-similar scaling, so no fixed point: step (w, t^(p-n) v)
        c = p - n
        rhs = _bind(f"{w_dot}, c * Z + sgn * exp(k * X) * {_f_source(spec, 'W')}",
                    phi_exp=phi_exp, c=c, sgn=sgn, k=k, e=e)
        return rhs, 0.0, c, math.inf, None
    c = -guiding_bracket(params, g)  # p - n - g(p-1): the fixed point has D Z = sgn f(W)
    lam_rhs = None
    if spec.E is None:
        rhs = _bind(f"{w_dot}, c * Z + sgn * exp(k * X + W)", phi_exp=phi_exp, c=c, sgn=sgn, k=k)
        if n > p:
            lam_rhs = _bind(f"W * (k + {w_dot}), c * Z + sgn * W", phi_exp=phi_exp, k=k, c=c,
                            sgn=sgn)
    else:
        rhs = _bind(f"{w_dot} - g * W, c * Z + sgn * {_f_source(spec, 'W')}",
                    phi_exp=phi_exp, g=g, c=c, sgn=sgn, e=e)

    roots = characteristic_quadratic(params, problem).roots
    slow, fast = sorted(abs(r - g) for r in roots)
    spin = max(abs(r.imag) for r in roots)
    cap = min((radius / rate for radius, rate in
               ((_STABLE_RADIUS, fast), (_DENSE_RADIUS, slow), (_SPIN_STEP, spin)) if rate > 0.0),
              default=math.inf)
    if cap < math.inf:
        mantissa, exponent = math.frexp(cap)
        cap = math.ldexp(math.floor(mantissa * 256.0) / 256.0, exponent)
    return rhs, g, c, cap, lam_rhs


def _two_term(params: Params, source: float) -> tuple[float, float, float]:
    """``(kappa, sigma, m)`` of the two-term start ``w = w(0) + kappa t^sigma``, ``v =
    source t^m / m``, with the source frozen at its center value: ``sigma = (alpha+p)/(p-1)``,
    ``m = n + alpha``, ``kappa = ((p-1)/(alpha+p)) (|source|/m)^(1/(p-1))`` signed like it."""
    p, n, alpha = params.p, params.n, params.alpha
    sigma, m = (alpha + p) / (p - 1.0), n + alpha
    kappa = (p - 1.0) / (alpha + p) * (abs(source) / m) ** (1.0 / (p - 1.0))
    return math.copysign(kappa, source), sigma, m


def startup_state(params: Params, problem: ProblemClass, t_start: float) -> State:
    """Two-term series state at ``t_start``, the leading terms of the startup
    series that :func:`integrate` starts from: :func:`_two_term`'s start
    with the source frozen at its center value ``sgn f(w(0)) = sgn``."""
    validate_params(params, problem)
    if not 0.0 < t_start < math.inf:
        raise ValueError(f"t_start must be positive and finite, got {t_start!r}")
    spec = class_spec(params, problem)
    kappa, sigma, m = _two_term(params, spec.sgn)
    return State(t_start, spec.w_center + kappa * t_start**sigma, spec.sgn * t_start**m / m)


# Terms kept of the startup series, and the size, relative to the leading
# term, below which its last three terms must stay on the series segment.
_SERIES_TERMS = 24
_SERIES_TOL = 1e-16
# tau's range on the series segment: below the normal floats tau no longer
# tells t apart, and its powers in use must stay finite.
_TAU_MIN = sys.float_info.min
_TAU_MAX = 1e300
# jl: the series segment ends before w falls below this value, well above
# the zero the stepper has to watch for.
_JL_SERIES_FLOOR = 0.5


def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _power_coeff(a: list, b: list, e: float, k: int) -> float:
    """Coefficient ``k`` of ``B = A^e`` from ``A_0..A_k`` and ``B_0..B_(k-1)``
    (J. C. P. Miller's recurrence, from ``A B' = e A' B``), summed in the
    order of ``j`` on every Python (3.12's ``sum()`` is compensated)."""
    acc = 0.0
    for j in range(1, k + 1):
        acc += ((e + 1.0) * j - k) * a[j] * b[k - j]
    return acc / (k * a[0])


@dataclass(frozen=True)
class _Series:
    """Regular solution near the singular point ``t = 0``.

    With ``tau = t^sigma``, ``sigma = (alpha+p)/(p-1)`` and ``m = n+alpha``,
    ``w = w_c + tau U(tau)`` and ``v = t^m V(tau)``, where ``U`` and ``V``
    are power series in ``tau`` with the coefficients ``u`` and ``v``;
    ``phi_exp = 1/(p-1)``.  :meth:`read` and :meth:`reader` decode it as a
    segment of a :class:`Trajectory`, with the ``g`` of its log phase.
    """

    sigma: float
    m: float
    phi_exp: float
    w_center: float
    u: tuple
    v: tuple

    def read(self, tau: np.ndarray, g: float):
        """``(x = ln t, W = w t^-g, Y = t w' t^-g, t^-g)`` at the array ``tau``."""
        x = np.log(tau) / self.sigma
        with np.errstate(over="ignore"):  # t^-g past the floats is inf, as on the nodes
            scale = np.exp(-g * x)
        w, t_wprime, _ = self.slope_form(tau)
        return x, w * scale, t_wprime * scale, scale

    def reader(self, g: float):
        """:meth:`read` at one ``tau``, in floats: a point reads as the samples do."""
        return lambda tau: tuple(float(a[0]) for a in self.read(np.array([tau]), g))

    def state(self, t):
        """``(w, w', V)`` at ``t`` within :meth:`reach`, a float or an array:
        the series in its own variables, whose flux ``t^m V`` need not fit a
        double."""
        w, t_wprime, big_v = self.slope_form(t**self.sigma)
        return w, t_wprime / t, big_v

    def slope_form(self, tau):
        """``(w, t w', V)`` at ``tau``, a float or an array (each point summed
        apart, so that none depends on the rest): ``t w' = tau phiinv(V)``,
        since ``t^(alpha+p) = tau^(p-1)``."""
        if isinstance(tau, np.ndarray):  # one table of powers serves both series
            powers = np.power.outer(tau, np.arange(len(self.u)))
            u, big_v, phi_inv = (powers * self.u).sum(1), (powers * self.v).sum(1), _phi_inv_many
        else:
            u, big_v, phi_inv = _horner(self.u, tau), _horner(self.v, tau), _phi_inv
        return self.w_center + tau * u, tau * phi_inv(big_v, self.phi_exp), big_v

    def reach(self) -> float:
        """Largest ``t`` at which the last three nonzero terms of ``U`` and of
        ``V`` stay below ``_SERIES_TOL`` of the leading ones, and ``tau`` and
        its powers in use, up to ``tau^(L-1)`` for ``L`` coefficients, below
        ``_TAU_MAX``."""
        tau = _TAU_MAX ** (1.0 / max(len(self.u) - 1, 1))
        for coeffs in (self.u, self.v):
            for k in [k for k in range(1, len(coeffs)) if coeffs[k] != 0.0][-3:]:
                tau = min(tau, (_SERIES_TOL * abs(coeffs[0] / coeffs[k])) ** (1.0 / k))
        return tau ** (1.0 / self.sigma)


def _series(params: Params, problem: ProblemClass) -> _Series:
    """The first ``_SERIES_TERMS`` coefficients of the startup series.

    Substituting the series into ``w' = phiinv(v / t^(n-1))`` and
    ``v' = -+ t^(m-1) f(w)`` gives ``sigma tau U' = -sigma U + phiinv(V)``
    and ``sigma tau V' = -m V -+ f(w_c + tau U)``, so term by term
    ``V_k = -+ F_k / (sigma k + m)`` and ``U_k = P_k / (sigma (k+1))``.
    ``F = f(w_c + tau U)`` (``F_0 = 1``) needs only ``U_0..U_(k-1)``, and
    ``P = phiinv(V)`` only ``V_0..V_k``; both follow from power-series
    recurrences for ``exp``, ``w^-q``, ``w^q`` and ``|V|^(1/(p-1))``.
    ``U_0`` and ``V_0`` are the two terms of :func:`startup_state`.
    """
    p, n, alpha = params.p, params.n, params.alpha
    sigma, phi_exp = (alpha + p) / (p - 1.0), 1.0 / (p - 1.0)
    m = n + alpha
    spec = class_spec(params, problem)
    sgn, w_center, expo = spec.sgn, spec.w_center, spec.q_power
    # a: coefficients of w = w_c + tau U; vs = -+V > 0 and ps = vs^(1/(p-1))
    a, f, vs, ps, u = [w_center], [], [], [], []
    for k in range(_SERIES_TERMS):
        if k == 0:
            f.append(1.0)
        elif expo is None:  # F' = A' F
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * a[j] * f[k - j]
            f.append(acc / k)
        else:
            f.append(_power_coeff(a, f, expo, k))
        vs.append(f[k] / (sigma * k + m))
        ps.append(vs[0] ** phi_exp if k == 0 else _power_coeff(vs, ps, phi_exp, k))
        u.append(sgn * ps[k] / (sigma * (k + 1.0)))
        a.append(u[k])
    # coefficients that underflow to 0 (as p nears 1) end both series
    size = 1 + max((k for k in range(_SERIES_TERMS) if u[k] != 0.0 or vs[k] != 0.0), default=0)
    return _Series(sigma, m, phi_exp, w_center, tuple(u[:size]), tuple(sgn * x for x in vs[:size]))


def _regula_falsi(fn, a: float, fa: float, xa: float, b: float, fb: float, xb: float,
                  tol: float):
    """Root of a function between ``a < b``, where its values ``fa``, ``fb``
    differ in sign, by regula falsi with Anderson & Bjorck's scaling (BIT 13,
    1973): where an end is kept twice in a row, its value is scaled by ``m =
    1 - f(c)/f(e)``, with ``e`` the end that the new point ``c`` replaces
    (0.5, Illinois' factor of Dowell & Jarratt, BIT 11, 1971, where ``m <=
    0``).  ``fn(c)`` returns ``(value, x, point)``: the function's value at
    ``c``, the measure ``x`` of ``c`` (``xa``, ``xb`` at ``a``, ``b``) and
    what the caller wants of ``c``.  Stops once the bracket spans at most
    ``tol`` in ``x``, or at a zero, and returns the ``point`` last evaluated
    (that of the midpoint if none was); or once the bracket can no longer be
    split (with ``tol = 0``, full precision), and returns that of the end
    where ``|value|`` is smaller."""
    point = None
    side = 0
    while xb - xa > tol:
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:  # a and b are adjacent floats: the end nearer the root
                return min(fn(a), fn(b), key=lambda end: abs(end[0]))[2]
        fc, xc, point = fn(c)
        if fc == 0.0:
            break
        if (fc > 0.0) == (fb > 0.0):
            if side < 0:
                m = 1.0 - fc / fb
                fa *= m if m > 0.0 else 0.5
            b, xb, fb = c, xc, fc
            side = -1
        else:
            if side > 0:
                m = 1.0 - fc / fa
                fb *= m if m > 0.0 else 0.5
            a, xa, fa = c, xc, fc
            side = 1
    return fn(0.5 * (a + b))[2] if point is None else point


# DOP853 tableau: nodes c, and for each stage the nonzero coefficients
# (j, a_sj) on the earlier stages.
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
      0.1, 0.2, 0.777777777777777777777777777778)
_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    # row 12: the 8th-order weights b
    ((0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
     (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
     (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
     (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2)),
    # rows 13-15: the extra stages of the dense output
    ((0, 5.61675022830479523392909219681e-2), (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1), (8, -1.24191423263816360469010140626e-1),
     (9, 1.5329179827876569731206322685e-1), (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3), (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2), (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2), (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4), (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4), (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1), (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878), (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1), (12, -1.39902416515901462129418009734e-3),
     (13, 2.9475147891527723389556272149), (14, -9.15095847217987001081870187138)),
)
# dense-output rows F3..F6: F_i = h * sum_j d_ij k_j over all 16 stages
_D = (
    ((0, -0.84289382761090128651353491142e+1), (5, 0.56671495351937776962531783590),
     (6, -0.30689499459498916912797304727e+1), (7, 0.23846676565120698287728149680e+1),
     (8, 0.21170345824450282767155149946e+1), (9, -0.87139158377797299206789907490),
     (10, 0.22404374302607882758541771650e+1), (11, 0.63157877876946881815570249290),
     (12, -0.88990336451333310820698117400e-1), (13, 0.18148505520854727256656404962e+2),
     (14, -0.91946323924783554000451984436e+1), (15, -0.44360363875948939664310572000e+1)),
    ((0, 0.10427508642579134603413151009e+2), (5, 0.24228349177525818288430175319e+3),
     (6, 0.16520045171727028198505394887e+3), (7, -0.37454675472269020279518312152e+3),
     (8, -0.22113666853125306036270938578e+2), (9, 0.77334326684722638389603898808e+1),
     (10, -0.30674084731089398182061213626e+2), (11, -0.93321305264302278729567221706e+1),
     (12, 0.15697238121770843886131091075e+2), (13, -0.31139403219565177677282850411e+2),
     (14, -0.93529243588444783865713862664e+1), (15, 0.35816841486394083752465898540e+2)),
    ((0, 0.19985053242002433820987653617e+2), (5, -0.38703730874935176555105901742e+3),
     (6, -0.18917813819516756882830838328e+3), (7, 0.52780815920542364900561016686e+3),
     (8, -0.11573902539959630126141871134e+2), (9, 0.68812326946963000169666922661e+1),
     (10, -0.10006050966910838403183860980e+1), (11, 0.77771377980534432092869265740),
     (12, -0.27782057523535084065932004339e+1), (13, -0.60196695231264120758267380846e+2),
     (14, 0.84320405506677161018159903784e+2), (15, 0.11992291136182789328035130030e+2)),
    ((0, -0.25693933462703749003312586129e+2), (5, -0.15418974869023643374053993627e+3),
     (6, -0.23152937917604549567536039109e+3), (7, 0.35763911791061412378285349910e+3),
     (8, 0.93405324183624310003907691704e+2), (9, -0.37458323136451633156875139351e+2),
     (10, 0.10409964950896230045147246184e+3), (11, 0.29840293426660503123344363579e+2),
     (12, -0.43533456590011143754432175058e+2), (13, 0.96324553959188282948394950600e+2),
     (14, -0.39177261675615439165231486172e+2), (15, -0.14972683625798562581422125276e+3)),
)
# Error estimators of orders 5 and 3, on the stages that carry a weight b.
_E5 = (0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
       -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
       -0.3503288487499736816886487290, 0.3341791187130174790297318841,
       0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_E3_SHIFT = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
             11: 0.220588235294117647058823529412e-1}
# (j, b_j, e5_j, e3_j), where e3 = b - shift
_WEIGHTS = tuple((j, b, e5, b - _E3_SHIFT.get(j, 0.0)) for (j, b), e5 in zip(_A[12], _E5))
_STEP_STAGES = tuple((s, _C[s], _A[s]) for s in range(1, 12))
_DENSE_STAGES = tuple((s, _C[s], _A[s]) for s in range(13, 16))


def _term_sum(terms, k: str) -> str:
    """Source of ``a_j k_j + ...`` over the ``(j, a_j)`` of ``terms``: the sum a
    loop over them accumulates from ``0.0``, in the same order, rounding for
    rounding; only a sum of negative zeros stays ``-0.0``."""
    return " + ".join(f"{a!r} * {k}{j}" for j, a in terms)


@dataclass
class _Run:
    """Result of one :func:`_dop853` run.

    ``steps`` holds one dense row per accepted step (none without dense
    output), ``(x0, h, w0, v0, F0w, F0v, ..., F6w, F6v)``, which starts at
    its step's node: the rows are the run's only record of its nodes but
    the last, ``end = (x, w, v)``.  ``status`` is ``"done"`` (``end`` at
    ``x_end``), ``"zero"`` (stopped after the last row, on which ``w`` fell
    from positive to zero or below; ``end`` is that row's end) or
    ``"budget"`` (out of steps; ``end`` is the last accepted state, the
    start if none was).
    """

    steps: list
    end: tuple
    accepted: int
    rejected: int
    nfev: int
    status: str


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _dense(step, s: float) -> tuple[float, float]:
    """Dense ``(w, v)`` of one step at the fraction ``s = (x - x0)/h`` of it:
    ``y0 + s (F0 + (1-s) (F1 + s (F2 + (1-s) (F3 + ...))))``."""
    _, _, w0, v0, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6 = step
    u = 1.0 - s
    return (w0 + s * (a0 + u * (a1 + s * (a2 + u * (a3 + s * (a4 + u * (a5 + s * a6)))))),
            v0 + s * (b0 + u * (b1 + s * (b2 + u * (b3 + s * (b4 + u * (b5 + s * b6)))))))


# The body of the DOP853 loop that _straight_line generates, with the
# right-hand side as a call, which it replaces by the form.  {attempt} stands
# for the stages 1-11 of a step attempt from the slope (kw0, kv0) at (x, w, v)
# and the sums bw, bv, e5w, e5v, e3w, e3v of the weights b and the error
# estimators; {dense} for the dense-output stages 13-15 and the rows
# f3w, f3v, ..., f6v.  The slope at the end of the step is stage 12.
_LOOP = """\
steps = []
atol_w, atol_v = atol
kw0, kv0 = rhs(x, w, v)
# the initial step of Hairer-Norsett-Wanner II.4, for an error estimator of order 7
interval = x_end - x
sw = atol_w + abs(w) * rtol
sv = atol_v + abs(v) * rtol
d0 = _rms(w / sw, v / sv)
d1 = _rms(kw0 / sw, kv0 / sv)
h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
h0 = min(h0, interval)
gw, gv = rhs(x + h0, w + h0 * kw0, v + h0 * kv0)
d2 = _rms((gw - kw0) / sw, (gv - kv0) / sv) / h0
if d1 <= 1e-15 and d2 <= 1e-15:
    h1 = max(1e-6, h0 * 1e-3)
else:
    h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
h_abs = min(100.0 * h0, h1, interval, max_step)
nfev = 2
accepted = rejected = 0
status = "done"
while x != x_end:
    if accepted >= budget:
        status = "budget"
        break
    min_step = 10.0 * (nextafter(x, inf) - x)
    if h_abs > max_step:
        h_abs = max_step
    elif h_abs < min_step:
        h_abs = min_step
    step_rejected = False
    while True:
        if h_abs < min_step:
            raise IntegrationError(
                f"integration failed at t-coordinate {x!r}: "
                "required step size is less than spacing between numbers"
            )
        # no builtin calls per attempt: min(a, b) is b if b < a else a, max(a, b)
        # is b if b > a else a, and abs(a) is a if a > 0.0 else 0.0 - a
        x_new = x + h_abs
        if x_end < x_new:
            x_new = x_end
        h = h_abs = x_new - x
        nfev += 11
        try:  # every stage of the attempt: one that leaves the floats rejects the step
            {attempt}
            w_new = w + h * bw
            v_new = v + h * bv
            sw = w if w > 0.0 else 0.0 - w
            size = w_new if w_new > 0.0 else 0.0 - w_new
            sw = atol_w + (size if size > sw else sw) * rtol
            sv = v if v > 0.0 else 0.0 - v
            size = v_new if v_new > 0.0 else 0.0 - v_new
            sv = atol_v + (size if size > sv else sv) * rtol
            e5w /= sw
            e5v /= sv
            e3w /= sw
            e3v /= sv
            n5 = e5w * e5w + e5v * e5v
            n3 = e3w * e3w + e3v * e3v
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / sqrt((n5 + 0.01 * n3) * 2.0)
            if err < 1.0:
                if not (isfinite(w_new) and isfinite(v_new)):
                    raise IntegrationError(f"non-finite state at t-coordinate {x_new!r}")
                nfev += 1
                kw12, kv12 = rhs(x_new, w_new, v_new)
                if dense:
                    nfev += 3
                    {dense}
                # min(10.0, factor), or min(1.0, factor) after a rejection
                factor = 10.0 if err == 0.0 else 0.9 * err ** -0.125
                cap = 1.0 if step_rejected else 10.0
                h_abs *= factor if factor < cap else cap
                break
        except OverflowError:  # an infinite error: the step shrinks by the factor 0.2
            err = inf
        factor = 0.9 * err ** -0.125
        h_abs *= factor if factor > 0.2 else 0.2
        step_rejected = True
        rejected += 1
    if dense:
        delta_w = w_new - w
        delta_v = v_new - v
        step = [x, h, w, v, delta_w, delta_v, h * kw0 - delta_w, h * kv0 - delta_v,
                2.0 * delta_w - h * (kw12 + kw0), 2.0 * delta_v - h * (kv12 + kv0),
                f3w, f3v, f4w, f4v, f5w, f5v, f6w, f6v]
        steps.append(step)
        if w > 0.0 and w_new <= 0.0:  # w fell to zero on this row: stop after it
            x_end = x_new
            status = "zero"
    x, w, v, kw0, kv0 = x_new, w_new, v_new, kw12, kv12
    accepted += 1
return _Run(steps, (x, w, v), accepted, rejected, nfev, status)
"""
# what the generated code uses besides the builtins
_LOOP_GLOBALS = dict(exp=math.exp, sqrt=math.sqrt,
                     isfinite=math.isfinite, nextafter=math.nextafter, inf=math.inf,
                     _rms=_rms, _Run=_Run,
                     IntegrationError=IntegrationError)
# a line of _LOOP that evaluates the right-hand side
_RHS_LINE = re.compile(r"(\w+), (\w+) = rhs\((.*)\)")


class _Program(NamedTuple):
    """The generated code of one form: its ``source``, ``rhs(*consts, x, w, v)``
    and ``loop(*consts, x, w, v, x_end, rtol, atol, budget, dense, max_step)``,
    which does a :func:`_dop853` run."""

    source: str
    rhs: object
    loop: object


def _straight_line(form: _Form) -> _Program:
    """The DOP853 loop ``_LOOP`` of the tableau for the right-hand side
    ``form``, compiled without a loop over the tables or a call of the
    right-hand side (as :func:`collections.namedtuple` compiles its class).

    The blocks ``{attempt}`` and ``{dense}`` are the stages ``_STEP_STAGES``,
    the sums of ``_WEIGHTS`` (``(j, b_j, e5_j, e3_j)``), the stages
    ``_DENSE_STAGES`` and the rows ``h sum_j d_ij k_j`` of ``_D``.  Each line
    ``kw, kv = rhs(x, w, v)`` binds ``X, W, Z`` to the arguments the form
    uses and evaluates its ``slope``.  Every sum keeps the order of its
    table and starts from its first term, so the results are those of a
    loop over the table that adds up from ``0.0``, bit for bit, but for a
    sum of negative zeros, which stays ``-0.0``.  Per step attempt the code
    calls no builtin: the error control writes ``min``, ``max`` and ``abs``
    as conditionals, and the forms of :func:`_phi_inv_source` call none.
    """
    def stages(rows):
        for s, c, row in rows:
            yield (f"kw{s}, kv{s} = rhs(x + {c!r} * h, w + ({_term_sum(row, 'kw')}) * h, "
                   f"v + ({_term_sum(row, 'kv')}) * h)")

    blocks = {
        "{attempt}": [*stages(_STEP_STAGES), *(
            f"{name}{y} = {_term_sum([(row[0], row[i]) for row in _WEIGHTS], 'k' + y)}"
            for i, name in enumerate(("b", "e5", "e3"), 1) for y in "wv")],
        "{dense}": [*stages(_DENSE_STAGES), *(f"f{i}{y} = h * ({_term_sum(row, 'k' + y)})"
                                              for i, row in enumerate(_D, 3) for y in "wv")],
    }
    used = [name for name in "XWZ" if re.search(rf"\b{name}\b", form.slope)]
    consts = "".join(f"{name}, " for name in form.consts)
    lines = [f"def rhs({consts}X, W, Z):", f"    return {form.slope}",
             f"def loop({consts}x, w, v, x_end, rtol, atol, budget, dense, max_step):"]
    for template in _LOOP.splitlines():
        indent = " " * (4 + len(template) - len(template.lstrip()))
        for line in blocks.get(template.strip(), [template.strip()]):
            call = _RHS_LINE.fullmatch(line)
            if call:
                kw, kv, args = call.groups()
                values = dict(zip("XWZ", args.split(", "), strict=True))
                lines += [f"{indent}{name} = {values[name]}" for name in used]
                line = f"{kw}, {kv} = {form.slope}"
            lines.append(indent + line)
    source = "\n".join(lines)
    namespace = dict(_LOOP_GLOBALS)
    exec(compile(source, f"<DOP853 loop: {form.slope}>", "exec"), namespace)
    return _Program(source, namespace["rhs"], namespace["loop"])


# each form is compiled on its first use; the forms are few, since their
# constants are arguments of the generated code
_program = functools.cache(_straight_line)


def _dop853(rhs: _Rhs, x: float, w: float, v: float, x_end: float, rtol: float,
            atol: tuple[float, float], budget: int, dense: bool = True,
            max_step: float = math.inf) -> _Run:
    """Integrate ``(w, v)' = rhs(x, w, v)`` from ``x`` towards ``x_end > x``.

    The loop compiled for the form of ``rhs`` does the run, with the form
    written into its stages.  ``atol`` holds the absolute tolerances of
    ``w`` and ``v``.  Accepts at most ``budget`` steps of at most
    ``max_step``.  A ``dense`` run stops after the step on which ``w``
    falls from positive to zero or below, which :func:`integrate` refines
    on that step's row; only ``jl``'s ``W`` can, as ``W = w t^-g`` has the
    sign of ``w``, ``mems``' ``w`` stays above 1 (``v' > 0``), ``gelfand``'s
    ``w`` below 0 (``v' < 0``), and its ``lambda = t^k e^W`` is positive (a
    run of ``lambda`` that reaches 0 all the same has left the floats, and
    :func:`integrate` steps ``W`` instead).  Without ``dense`` the
    run skips the three dense-output stages and keeps no rows (``steps``):
    it records its last node (``end``) and its counts only.  A stage of a
    step attempt that leaves the floats rejects the step; a slope at ``x``
    or of the initial-step probe that does raises :class:`IntegrationError`
    naming ``x``, so no ``OverflowError`` leaves the run, as does a start
    that is not finite, from which the step size would be NaN."""
    if not (math.isfinite(x) and math.isfinite(w) and math.isfinite(v)):
        raise IntegrationError(f"non-finite start at t-coordinate {x!r}: w = {w!r}, v = {v!r}")
    try:
        return _program(rhs.form).loop(*rhs.values, x, w, v, x_end, rtol, atol, budget, dense,
                                       max_step)
    except OverflowError:  # the first slope, or the initial-step probe
        raise IntegrationError(
            f"the right-hand side leaves the float range at the start, t-coordinate {x!r}"
        ) from None


def _radial_rhs(params: Params, spec: ClassSpec, coeff: float, w_c: float, s: float) -> _Rhs:
    """Right-hand side ``(w, v)' = (phiinv(v / t^(n-1)), coeff t^(n+alpha-1) f(w_c - s w))``
    of a radial equation, stepped in ``t`` by :func:`_shoot`: the flux system
    (``coeff = sgn``, ``w_c = 0``, ``s = -1``, so that ``f`` sees ``w``) and
    the radial BVP of :func:`pfold.curve.shooting_check` share one loop."""
    p, n, alpha = params.p, params.n, params.alpha
    phi_exp, e1, e2 = 1.0 / (p - 1.0), n - 1.0, n + alpha - 1.0
    # alpha = 0: the source has the flux's power of t, computed once
    power, source_power = ("(P := X ** e1)", "P") if e2 == e1 else ("X ** e1", "X ** e2")
    return _bind(f"{_phi_inv_source(f'Z / {power}', phi_exp)}, "
                 f"coeff * {source_power} * {_f_source(spec, 'w_c - s * W')}",
                 phi_exp=phi_exp, e1=e1, e2=e2, coeff=coeff, w_c=w_c, s=s, e=spec.q_power)


def _shoot(params: Params, spec: ClassSpec, coeff: float, w_c: float, s: float, center: float,
           r_end: float, rtol: float, atol: float, budget: int) -> tuple[float, float]:
    """``(y, v)`` at ``r_end`` of the regular solution with ``y(0) = center`` of
    :func:`_radial_rhs`, stepped from its two-term start at the ``r`` in
    ``[1e-30, 1e-6]`` where ``|kappa| r^sigma = 1e-10 max(1, |center|)``.
    Raises :class:`IntegrationError` where the start leaves the float range
    (as ``p`` nears 1) or the run exhausts ``budget`` steps."""
    try:
        source = coeff * spec.f(w_c - s * center)
        kappa, sigma, m = _two_term(params, source)
        scale = 1e-10 * max(1.0, abs(center))  # of the series correction |kappa| r^sigma
        r = max(min(1e-6, (scale / abs(kappa)) ** (1.0 / sigma)), 1e-30) if kappa else 1e-6
        y, v = center + kappa * r**sigma, source * r**m / m
    except OverflowError:
        raise IntegrationError(f"the radial run with coeff = {coeff!r} from y(0) = {center!r} "
                               "leaves the float range") from None
    run = _dop853(_radial_rhs(params, spec, coeff, w_c, s), r, y, v, r_end, rtol, (atol, atol),
                  budget, dense=False)
    if run.status != "done":
        raise IntegrationError(f"the radial run exhausted {budget} steps at r = {run.end[0]!r}")
    return run.end[1], run.end[2]


def integrate(params: Params, problem: ProblemClass,
              config: IntegratorConfig | None = None) -> "Trajectory":
    """Integrate the generating IVP from the startup series to ``t_max``.

    For the ``jl`` class integration stops early if ``w`` reaches zero; the
    returned trajectory then has ``termination == "zero"``.

    Raises
    ------
    InvalidParamsError
        On invalid parameters or configuration, including a ``t_start`` at
        or beyond the reach of the startup series.
    IntegrationError
        On stepper failure (step-size underflow, non-finite state).
    TruncatedTrajectoryError
        When ``max_steps`` is exhausted; carries the partial trajectory.
    """
    cfg = (config or IntegratorConfig()).validated()
    validate_params(params, problem)
    spec = class_spec(params, problem)
    rhs, g, c, log_step, lam_rhs = _log_phase(params, problem)

    # the series segment [t_start, t1]: one node at the series' reach
    series = _series(params, problem)
    reach = series.reach()
    if cfg.t_start >= reach:
        raise InvalidParamsError(
            f"t_start = {cfg.t_start!r} lies beyond the reach {reach:.6g} of the startup series"
        )
    t1 = min(reach, cfg.t_max)
    # jl: w falls towards the zero of a power source, where the curve ends
    if spec.q_power is not None and spec.sgn < 0.0 and series.state(t1)[0] < _JL_SERIES_FLOOR:
        def above(t):  # w - 1/2, in ln t to 1e-12
            return series.state(t)[0] - _JL_SERIES_FLOOR, math.log(t), t

        t1 = _regula_falsi(above, cfg.t_start, *above(cfg.t_start)[:2], t1, *above(t1)[:2],
                           1e-12)
    if math.log(t1) == math.log(cfg.t_max):  # no log-phase interval left
        t1 = cfg.t_max
    t_nodes: list[float] = [cfg.t_start, t1]
    states = [series.state(t) for t in t_nodes]
    nodes = np.array(states)[:, :2].T  # rows w, w'

    # then one stepped phase in s = ln t, in (W, Z) = (w t^-g, v t^c)
    rows = _Rows(np.empty((0, 18)), g, series.phi_exp, None)
    stats: list[PhaseStats] = [PhaseStats("series", 1, 0, 0)]
    termination = "t_max"
    if t1 < cfg.t_max:
        w, _, big_v = states[1]
        # abs_tol holds in the units of (w, v) at t1, where (W, Z) may be tiny;
        # Z = v t^c = t^(k - g(p-1)) V, as m + c = k - g(p-1)
        try:
            scale_w, scale_v = t1**-g, t1**c
            big_z = t1 ** (spec.k - g * (params.p - 1.0)) * big_v
        except OverflowError:  # jl: g = -(p+alpha)/(q-p+1) is large as q nears p - 1
            raise IntegrationError(
                f"the log-phase scales t1^-g, t1^(c+m) or t1^c overflow at t1 = {t1!r} "
                f"(g = {g:.6g}, c = {c:.6g})") from None
        x1, x_end, atol_z = math.log(t1), math.log(cfg.t_max), cfg.abs_tol * scale_v
        run = None
        # gelfand steps lambda = t^k e^W once w has moved from 0 by t1: ln lambda -
        # k x resolves w only to the rounding of k x, and w1 = 0 where every
        # series coefficient underflows.  lambda's error is held relative, which
        # holds w's to rel_tol: lambda may fall by decades (from 3e3 to 6e-11 on
        # gelfand (2, 3, 100)), where an absolute tolerance would let it reach 0.
        # Where it leaves the floats all the same (alpha = 5000), step (W, Z)
        if lam_rhs is not None and abs(w) > cfg.rel_tol:
            try:
                run = _dop853(lam_rhs, x1, math.exp(spec.k * x1 + w), big_z, x_end, cfg.rel_tol,
                              (0.0, atol_z), cfg.max_steps - 1, max_step=log_step)
                if run.status == "zero":  # lambda fell to 0 or below
                    run = None
            except (OverflowError, ZeroDivisionError, IntegrationError):
                run = None  # its start overflowed, or it left the floats (0 divides its norm)
        lam_k = None if run is None else spec.k
        if run is None:  # step (W, Z)
            run = _dop853(rhs, x1, w * scale_w, big_z, x_end, cfg.rel_tol,
                          (cfg.abs_tol * scale_w, atol_z), cfg.max_steps - 1, max_step=log_step)
        table = np.array(run.steps, dtype=float).reshape(run.accepted, 18)
        rows = _Rows(table, g, series.phi_exp, lam_k)
        end = run.end
        if run.status == "zero":  # the zero of W on the last row, to full precision
            row = run.steps[-1]

            def on_row(s):  # at the fraction s of the row
                big_w, z = _dense(row, s)
                return big_w, s, (row[0] + s * row[1], big_w, z)

            end = _regula_falsi(on_row, 0.0, row[2], 0.0, 1.0, end[1], 1.0, 0.0)
        x0, h = table[:, 0], table[:, 1]
        step_range = (float(h.min()), float(h.max())) if run.accepted else (None, None)
        stats.append(PhaseStats("log", run.accepted, run.rejected, run.nfev, *step_range,
                                int(np.count_nonzero(x0 + h == x0 + log_step))))
        # the log nodes: the start of every row but the first (which starts at
        # t1), then the end of the run, unless it took no step
        x, first, z = np.vstack((table[1:, [0, 2, 3]], end))[:run.accepted].T
        ts_new = [math.exp(x_k) for x_k in x.tolist()]
        termination = {"done": "t_max", "zero": "zero", "budget": "truncated"}[run.status]
        if termination == "t_max":
            ts_new[-1] = cfg.t_max
        # (w, t w') = (W, Y) / scale, as eval_many reads the rows
        with np.errstate(all="ignore"):  # checked below
            _, big_w, y, scale = rows.decode(x, first, z)
            nodes = np.concatenate((nodes, (big_w / scale, y / scale / ts_new)), axis=1)
        t_nodes.extend(ts_new)
        finite = np.isfinite(nodes)
        if not finite.all():
            k = int(np.argmin(finite.all(axis=0)))
            names = ", ".join(np.array(["w", "t w'"])[~finite[:, k]])
            raise IntegrationError(
                f"the node at t = {t_nodes[k]!r} leaves the float range in {names}")

    ws, wprimes = nodes
    traj = Trajectory(problem, params, cfg, np.array(t_nodes), ws, wprimes, termination,
                      tuple(stats), _series=series, _rows=rows)
    if termination == "truncated":
        raise TruncatedTrajectoryError(
            f"max_steps = {cfg.max_steps} exhausted at t = {traj.t_end!r}", traj
        )
    return traj


class _Rows(NamedTuple):
    """The stepper's dense rows, from node 1 on: row ``k`` of the ``(m, 18)``
    ``table`` holds step ``k``'s ``(x0, h, y0, F0, ..., F6)``, two floats
    each, of ``(W, Z) = (w t^-g, v t^c)``, or of ``(lambda, Z)`` with
    ``lambda = t^k e^W`` where ``lam_k`` is ``k`` (see :func:`integrate`).
    :meth:`read` (arrays) and :meth:`reader` (one row) read them with
    :func:`_dense` at the fraction ``s`` of a step, alike in ``x`` and ``W``;
    :meth:`decode` is the array decode, also of :func:`integrate`'s log nodes."""

    table: np.ndarray
    g: float
    phi_exp: float
    lam_k: float | None

    def decode(self, x: np.ndarray, first: np.ndarray, z: np.ndarray):
        """``(x, W, Y, t^-g)`` from a row's ``(first, Z)`` at the array ``x``:
        ``W`` is ``first`` or ``ln lambda - k x``, and ``Y = phiinv(Z)``."""
        with np.errstate(over="ignore"):  # t^-g past the floats is inf, as on the nodes
            scale = np.exp(-self.g * x)
        big_w = first if self.lam_k is None else np.log(first) - self.lam_k * x
        return x, big_w, _phi_inv_many(z, self.phi_exp), scale

    def read(self, row: np.ndarray, s: np.ndarray):
        """The ``(x, W, Y, t^-g)`` of :meth:`reader` at the arrays ``row``, ``s``."""
        step = self.table[row].T
        return self.decode(step[0] + s * step[1], *_dense(step, s))

    def reader(self, row: int):
        """Row ``row``'s reader ``point(s) -> (x, W, Y, t^-g)``, gathered once."""
        step = self.table[row].tolist()
        x0, h, g, k, phi_exp = step[0], step[1], self.g, self.lam_k, self.phi_exp

        def point(s):  # W off lambda rows by numpy's log, as on arrays
            first, z = _dense(step, s)
            x = x0 + s * h
            big_w = first if k is None else float(np.log(first)) - k * x
            try:
                scale = math.exp(-g * x)
            except OverflowError:  # t^-g past the floats: inf, as in read
                scale = math.inf
            return x, big_w, _phi_inv(z, phi_exp), scale
        return point


#: Samples per dense row in :attr:`Trajectory._samples`, at equal fractions
#: of its step, and samples of the series segment, equally spaced in ``tau``.
ROW_SAMPLES = 8
SERIES_SAMPLES = 16
#: Headroom factor of the sign-change guard over the estimated dense-output error.
GUARD_FACTOR = 50.0
#: Relative t-tolerance to which roots are refined.
ROOT_RTOL = 1e-10


class _Samples(NamedTuple):
    """Dense output in the log-phase variables: point ``i`` lies on dense row
    ``row[i]`` at its parameter ``theta[i]`` (see :class:`Trajectory`), at
    ``x = ln t``, where ``big_w = w t^-g``, ``y = t w' t^-g = phiinv(Z)``
    and ``scale = t^-g``."""

    row: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    big_w: np.ndarray
    y: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense numerical solution of a generating IVP on ``[t_start, t_end]``.

    Frozen: what it computes on first use, the event samples ``_samples``
    and the fold scan ``_folds``, is cached on it as a function of its
    fields.  ``termination`` is ``"t_max"`` when the requested horizon was
    reached, ``"zero"`` when a ``jl`` run stopped at a zero of ``w`` (then
    ``t_end`` is the crossing time), and ``"truncated"`` for partial data
    carried by :class:`TruncatedTrajectoryError`.  ``stats`` holds the work
    of each integration phase, in order.

    Dense output is read on a row at a parameter ``theta``, by its segment's
    decoder: row -1 is the series ``_series`` at ``theta = tau``, from node
    0 to node 1, and row ``k >= 0`` row ``k`` of the stepper's ``_rows``, at
    the fraction ``theta`` of its step; the stepper's run is kept there
    only, as each row starts at its node.  Both decoders give ``(x, W, Y =
    t w' t^-g, scale = t^-g)``, by ``read`` (arrays) and ``reader`` (one
    point), and ``(w, t w') = (W, Y) / scale`` is the one rescale back from
    the rows, also of the log nodes.  The series segment and its nodes are
    read in the series' own variables, ``(w, w')`` of :meth:`_Series.state`
    at the time asked, by :meth:`eval` and :meth:`eval_many`; only event
    location reads it in ``(W, Y)``.  The flux ``v`` is not kept, as only
    acceptance row 6 and ``shooting_check`` step ``(w, v)``."""

    problem: ProblemClass
    params: Params
    config: IntegratorConfig
    ts: np.ndarray
    ws: np.ndarray
    wprimes: np.ndarray
    termination: str
    stats: tuple[PhaseStats, ...]
    _series: _Series = field(repr=False)
    _rows: _Rows = field(repr=False)

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def zero_time(self) -> float | None:
        return self.t_end if self.termination == "zero" else None

    @functools.cached_property
    def _samples(self) -> _Samples:
        """Each dense row at ``ROW_SAMPLES`` equal fractions of its step, the
        series segment at ``SERIES_SAMPLES`` points equally spaced in ``tau``
        from ``_TAU_MIN`` at least (none where the segment lies wholly below),
        and the end of the trajectory; computed on first use."""
        ser, rows = self._series, self._rows
        m = len(rows.table)
        tau_lo, tau_hi = max(self.t_start**ser.sigma, _TAU_MIN), float(self.ts[1])**ser.sigma
        tau = np.linspace(tau_lo, tau_hi, (SERIES_SAMPLES + 1) * (tau_lo <= tau_hi))
        tau = tau[:-1] if m else tau  # the first row starts there
        # a row's end is the next row's start, except for the last row
        index = np.arange(m * ROW_SAMPLES + (m > 0))
        steps = np.minimum(index // ROW_SAMPLES, m - 1)
        fractions = (index - steps * ROW_SAMPLES) / ROW_SAMPLES
        if m:  # the last row may reach past the end (a zero of w)
            fractions[-ROW_SAMPLES - 1:] *= min(
                1.0, (math.log(self.t_end) - rows.table[-1, 0]) / rows.table[-1, 1])
        reads = zip(ser.read(tau, rows.g), rows.read(steps, fractions))
        return _Samples(np.concatenate((np.full(len(tau), -1), steps)),
                        np.concatenate((tau, fractions)), *map(np.concatenate, reads))

    def _guard(self, w, t_wprime, coeff_sum: float, scale):
        """Noise floor of a functional linear in ``w`` and ``t w'``, whose
        coefficients' magnitudes sum to ``coeff_sum``: ``GUARD_FACTOR`` times the
        dense output's error, ``rel_tol (|w| + |t w'| + 1) + abs_tol``, divided
        by ``t^g``: at ``(W, Y) = (w, t w') t^-g`` and ``scale = t^-g``."""
        cfg = self.config
        state_err = cfg.rel_tol * (np.abs(w) + np.abs(t_wprime) + scale) + cfg.abs_tol * scale
        return GUARD_FACTOR * coeff_sum * state_err

    def _roots(self, fn, coeff_sum: float | None = None):
        """Roots of ``fn(x, W, Y)`` in time order, and the sign changes that
        its guard discarded.

        ``fn`` is a functional of ``x = ln t`` and of the log-phase variables
        ``W = w t^-g``, ``Y = t w' t^-g``, evaluated once on :attr:`_samples`.
        A sample counts where its value is nonzero and, with ``coeff_sum``,
        clears :meth:`_guard`.  Each sign change between consecutive counted
        samples is refined by :func:`_regula_falsi` on the dense row that
        holds it, read by one reader of its segment: a bracket that spans
        several rows goes to the first row whose end values differ in sign.
        Returns the ``(x, W, Y, t^-g, positive_before)`` of each root, and the
        number of sign changes between consecutive nonzero samples that are
        not roots.
        """
        smp = self._samples
        vals = fn(smp.x, smp.big_w, smp.y)
        sign = np.sign(vals)  # a product of two values could overflow or round to 0
        floor = 0.0 if coeff_sum is None else self._guard(smp.big_w, smp.y, coeff_sum, smp.scale)
        idx = np.flatnonzero(np.abs(vals) > floor)
        a, b = idx[:-1], idx[1:]
        pick = sign[a] * sign[b] < 0.0
        rows, theta, xs = smp.row, smp.theta, smp.x
        out = []
        for i, j in zip(a[pick].tolist(), b[pick].tolist()):
            lo, hi = i, j
            for k in range(i + 1, j + 1):
                if rows[k] != rows[k - 1]:  # sample k starts a row, where the row of lo ends
                    if sign[lo] * sign[k] <= 0.0:
                        hi = k
                        break
                    lo = k
            row = int(rows[lo])  # its reader, and its parameter at its end
            read, end = ((self._series.reader(self._rows.g),
                          float(self.ts[1]) ** self._series.sigma) if row < 0
                         else (self._rows.reader(row), 1.0))
            t_hi = float(theta[hi]) if rows[hi] == row else end

            def at(theta_c, read=read):  # fn at theta_c of the row, in ln t
                point = x, big_w, y, _ = read(theta_c)
                return fn(x, big_w, y), x, point

            point = _regula_falsi(at, float(theta[lo]), float(vals[lo]), float(xs[lo]),
                                  t_hi, float(vals[hi]), float(xs[hi]), ROOT_RTOL)
            out.append((*point, bool(vals[i] > 0.0)))
        nonzero = sign[sign != 0.0]
        return out, int(np.count_nonzero(nonzero[:-1] * nonzero[1:] < 0.0)) - len(out)

    @functools.cached_property
    def _folds(self) -> tuple[tuple, int]:
        """The roots of the class's monitor by :meth:`_roots`, with its guard,
        and the sign changes the guard discarded; computed on first use."""
        spec = class_spec(self.params, self.problem)  # M t^-g = k W + E Y (k + Y for exp)
        roots, discarded = self._roots(lambda x, big_w, y: spec.monitor(1.0, big_w, y),
                                       spec.monitor_weight)
        return tuple(roots), discarded

    def eval(self, t: float) -> tuple[float, float]:
        """Dense ``(w, w')`` at a scalar ``t``; exact at stored nodes.

        Elsewhere it reads the same row polynomial as :meth:`eval_many` in
        scalar arithmetic, so the two may differ in the last bits: on gelfand
        (2, 3, 0), (2, 10, 0) and (3, 5, 1), mems (2, 3, 0, 2) and jl (2, 4, 0,
        5) run to ``t = 1e8``, 31 to 56 of 400 log-uniform random times
        differed, by at most 4e-16 relative."""
        t = float(t)
        lo, hi = self.t_start, self.t_end
        if not lo - 1e-12 * lo <= t <= hi + 1e-12 * hi:
            raise ValueError(f"t outside trajectory range [{lo!r}, {hi!r}]")
        k = bisect_left(self.ts, t)
        if k < len(self.ts) and self.ts[k] == t:
            return float(self.ws[k]), float(self.wprimes[k])
        m = len(self._rows.table)
        if k < 2 or not m:  # t < ts[1]: the series in its own variables, as in eval_many
            return self._series.state(t)[:2]
        row = min(k - 2, m - 1)
        x0, h = self._rows.table[row, :2].tolist()
        _, big_w, y, scale = self._rows.reader(row)((math.log(t) - x0) / h)
        return big_w / scale, y / scale / t

    def eval_many(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized dense ``(w, w')``, in the shape of ``np.atleast_1d(ts)``;
        exact at stored nodes.  The series is read only where some ``t`` lies
        on its segment.  Away from the nodes it may differ from :meth:`eval` in
        the last bits (see there)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        shape, ts = ts.shape, ts.ravel()
        lo, hi = self.t_start, self.t_end
        t_lo, t_hi = (ts.min(), ts.max()) if len(ts) else (lo, hi)
        if not lo - 1e-12 * lo <= t_lo <= t_hi <= hi + 1e-12 * hi:
            raise ValueError(f"t outside trajectory range [{lo!r}, {hi!r}]")
        idx = np.searchsorted(self.ts, ts)
        table = self._rows.table
        on_rows = (ts >= self.ts[1]) & (len(table) > 0)  # the series ends at node 1
        w, wp = np.empty((2, len(ts)))
        if not on_rows.all():  # some t on the series segment, in its own variables
            w[~on_rows], wp[~on_rows], _ = self._series.state(ts[~on_rows])
        t = ts[on_rows]
        row = np.clip(idx[on_rows] - 2, 0, len(table) - 1)
        _, big_w, y, scale = self._rows.read(row, (np.log(t) - table[row, 0]) / table[row, 1])
        w[on_rows], wp[on_rows] = big_w / scale, y / scale / t
        # stored nodes win bitwise over the interpolant
        node = np.minimum(idx, len(self.ts) - 1)
        exact = self.ts[node] == ts
        w[exact] = self.ws[node[exact]]
        wp[exact] = self.wprimes[node[exact]]
        return w.reshape(shape), wp.reshape(shape)


def residual(params: Params, problem: ProblemClass, w, wprime, wsecond, t):
    """Pointwise defect of the generating ODE:
    ``phi'(w') w'' + ((n-1)/t) phi(w') -+ t^alpha f(w)``; zero on exact solutions.

    Accepts scalars or arrays that broadcast together; returns a float for
    scalar input.  For ``p < 2`` the derivative ``phi'`` is singular at
    ``w' = 0``, so ``wprime`` must be nonzero there.
    """
    validate_params(params, problem)
    scalar = all(np.ndim(x) == 0 for x in (w, wprime, wsecond, t))
    # scalars as 1-element arrays: numpy's power on a scalar can differ in the
    # last bit from its array loops
    w, wprime, wsecond, t = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                                  for x in (w, wprime, wsecond, t)))
    if not np.all(t > 0.0):
        raise ValueError(f"t must be positive, got {t!r}")
    p, n, alpha = params.p, params.n, params.alpha
    if p < 2.0 and np.any(wprime == 0.0):
        raise ValueError("residual needs wprime != 0 when p < 2")
    slope = np.abs(wprime)
    lead = ((p - 1.0) * slope ** (p - 2.0) * wsecond
            + (n - 1.0) / t * np.copysign(slope ** (p - 1.0), wprime))
    spec = class_spec(params, problem)
    source = np.fromiter(map(spec.f, w.ravel().tolist()), float, w.size).reshape(w.shape)
    res = lead - spec.sgn * t**alpha * source
    return float(res[0]) if scalar else res


def pohozaev(traj: Trajectory, t):
    """Pohozaev combination for ``jl`` trajectories:

    ``P(t) = t^n [(p-1) |w'|^p + p t^alpha w^(q+1)/(q+1)] + (n-p) v w``,

    with ``v = t^(n-1) phi(w')``, at a float ``t`` (a float) or an array.
    ``P(0) = 0`` and, in the supercritical regime, ``P`` is nonincreasing
    and nonpositive, which rules out zeros of ``w``.
    """
    if traj.problem is not ProblemClass.JOSEPH_LUNDGREN:
        raise ValueError(f"pohozaev applies to jl trajectories only, got {traj.problem.value}")
    p, n, alpha, q = traj.params.p, traj.params.n, traj.params.alpha, traj.params.q
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    w, wp = traj.eval_many(ts)
    phi = np.copysign(np.abs(wp) ** (p - 1.0), wp)
    big_f = ts**alpha * w ** (q + 1.0) / (q + 1.0)
    res = ts**n * ((p - 1.0) * wp * phi + p * big_f) + (n - p) * ts ** (n - 1.0) * phi * w
    return float(res[0]) if np.ndim(t) == 0 else res
