"""Closed-form quantities and regime classification.

Three self-similar radial quasilinear problems are supported, all posed on
the unit ball with the p-Laplace operator ``div(|grad u|^{p-2} grad u)`` and
a positive parameter ``lambda`` multiplying the nonlinearity:

* ``gelfand``:  nonlinearity ``r^alpha * exp(u)``,
* ``mems``:     nonlinearity ``r^alpha / (1 - u)^q`` (0 < u < 1),
* ``jl``:       nonlinearity ``r^alpha * (1 + u)^q`` (Joseph-Lundgren type).

Each problem is generated by a single scaled initial value problem whose
solution ``w(t)`` parameterizes the full ``(lambda, u(0))`` solution curve.
This module holds everything that can be computed without integrating that
IVP: the explicit guiding solution ``w0`` that ``w`` approaches as
``t -> infinity``, the limit value ``lambda_inf`` of the curve and the Euler
(equidimensional) equation obtained by linearizing about ``w0``, all three
from one bracket ``D`` (:func:`guiding_bracket`), and the named inequality
conditions that decide whether the characteristic roots are complex, i.e.
whether the curve spirals through infinitely many folds.

It also holds the integrator's controls, :class:`IntegratorConfig`, and its
error, :class:`IntegrationError`, which :mod:`pfold` resolves from here and
:mod:`pfold.ivp` imports: the command line reads both without loading
:mod:`pfold.ivp`.  This module needs no numpy except in :func:`guiding_eval`
and :func:`guiding_curvature`, which take arrays and import it where they run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

__all__ = [
    "ProblemClass",
    "Params",
    "ClassSpec",
    "class_spec",
    "IntegratorConfig",
    "IntegrationError",
    "ClosedForms",
    "ConditionResult",
    "RegimeReport",
    "CharacteristicQuadratic",
    "InvalidParamsError",
    "ValidityError",
    "validate_params",
    "beta_exponent",
    "guiding_bracket",
    "closed_forms",
    "guiding_eval",
    "guiding_curvature",
    "characteristic_quadratic",
    "check_conditions",
]

#: Absolute half-width inside which a condition margin counts as "boundary".
BOUNDARY_TOL = 1e-14


class InvalidParamsError(ValueError):
    """Raised when parameters violate the basic invariants of a problem class."""


class ValidityError(ValueError):
    """Raised when a closed-form validity inequality fails.

    The message names the inequality that failed.
    """


class IntegrationError(RuntimeError):
    """Integration could not be completed (e.g. step-size underflow)."""


class ProblemClass(str, Enum):
    """The three supported problem families."""

    GELFAND = "gelfand"
    MEMS = "mems"
    JOSEPH_LUNDGREN = "jl"


@dataclass(frozen=True)
class Params:
    """Problem parameters.

    Attributes
    ----------
    p : float
        p-Laplace exponent, p > 1.
    n : float
        Space dimension (treated as a real number), n >= 1.
    alpha : float
        Radial weight exponent in ``r^alpha``, alpha >= 0.
    q : float or None
        Nonlinearity exponent. Required with q > 0 for ``mems`` and q > 1
        for ``jl``; ignored by ``gelfand``.
    """

    p: float
    n: float
    alpha: float = 0.0
    q: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "n", float(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.q is not None:
            object.__setattr__(self, "q", float(self.q))


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration controls.

    The state at ``t_start`` comes from the startup series, so ``t_start``
    may lie anywhere below the series' reach (mostly between 0.3 and 2;
    :func:`~pfold.ivp.integrate` rejects a ``t_start`` at or beyond it), and
    the trajectory past the series segment does not depend on it.  Beyond the
    series segment the stepper runs in ``s = ln t``, in the Emden-Fowler
    variables described in the docstring of :mod:`pfold.ivp`.
    """

    t_start: float = 1e-6
    t_max: float = 1e4
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 100_000

    def validated(self) -> "IntegratorConfig":
        """This configuration with float times and tolerances, once checked."""
        if not (0.0 < self.t_start < self.t_max < math.inf):
            raise InvalidParamsError(f"need 0 < t_start < t_max < inf, got t_start = "
                                     f"{self.t_start!r}, t_max = {self.t_max!r}")
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise InvalidParamsError("tolerances must be positive and finite")
        try:  # 2.5, inf and NaN have no index; numpy integers have one
            max_steps = operator.index(self.max_steps)
        except TypeError:
            max_steps = 0
        if max_steps < 1:
            raise InvalidParamsError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        try:  # an int can lie past the largest float
            return replace(self, **{name: float(getattr(self, name))
                                    for name in ("t_start", "t_max", "rel_tol", "abs_tol")})
        except OverflowError:
            raise InvalidParamsError("t_start, t_max, rel_tol and abs_tol must lie below "
                                     "the largest float") from None


# What tells the classes apart: the sign sgn of the source in the generating
# IVP, v' = sgn t^(n+alpha-1) f(w); the center value w_c = w(0); and the
# nonlinearity, f = exp (None) or f = w^(s q) with the sign s and q > q_min.
_FACTS = {  # problem: (sgn, w_c, s, q_min)
    ProblemClass.GELFAND: (-1.0, 0.0, None, None),
    ProblemClass.MEMS: (1.0, 1.0, -1.0, 0.0),
    ProblemClass.JOSEPH_LUNDGREN: (-1.0, 1.0, 1.0, 1.0),
}


class ClassSpec(NamedTuple):
    """The facts of a problem class with the exponents of one parameter set.

    ``sgn`` is the sign of the source in ``v' = sgn t^(n+alpha-1) f(w)``,
    ``w_center`` is ``w(0)``, ``q_power`` the exponent of a power source
    ``f(w) = w^q_power`` (None for ``f = exp``) and ``k = alpha + p``.
    Balancing ``phi(w')'`` against ``t^alpha f(w)`` for ``w ~ t^g`` gives
    the signed exponent ``E = q_power - (p - 1)`` and the shift
    ``g = -k/E``; the curve is ``lambda = t^k w^E`` and its monitor
    ``k w + E t w'``.  ``E`` is None for ``f = exp``, the exponential case:
    ``lambda = t^k e^w``, monitor ``k + t w'`` and ``g = 0``.
    """

    sgn: float
    w_center: float
    q_power: float | None
    k: float
    E: float | None

    @property
    def f(self):
        """The nonlinearity.  A power is 0 for ``w <= 0``: past a zero of
        ``w`` (``jl``) the trajectory is discarded anyway, and the clamp
        keeps the source finite for fractional exponents."""
        if self.q_power is None:
            return math.exp
        e = self.q_power
        return lambda w: w**e if w > 0.0 else 0.0

    @property
    def g(self) -> float | None:
        """Exponent of the self-similar scaling ``w ~ t^g``: ``-k/E``, 0 for
        ``f = exp`` (``w0 = a0 - k ln t``), and None when ``-k/E`` does not
        have the sign of the source, so that no power scaling exists."""
        if self.E is None:
            return 0.0
        return -self.k / self.E if self.sgn * self.E < 0.0 else None

    def monitor(self, t, w, wprime):
        """The monitor at floats or arrays, with the sign of ``lambda'(t)``."""
        if self.E is None:
            return self.k + t * wprime
        return self.k * w + self.E * t * wprime

    @property
    def monitor_weight(self) -> float:
        """The magnitudes of the monitor's coefficients on ``w`` and ``t w'``,
        summed: the weight of its guard."""
        return 1.0 if self.E is None else self.k + abs(self.E)


def class_spec(params: Params, problem: ProblemClass) -> ClassSpec:
    """The :class:`ClassSpec` of *problem* at valid *params*."""
    sgn, w_center, s, _ = _FACTS[problem]
    k = params.alpha + params.p
    if s is None:
        return ClassSpec(sgn, w_center, None, k, None)
    q_power = s * params.q
    return ClassSpec(sgn, w_center, q_power, k, q_power - params.p + 1.0)


def validate_params(params: Params, problem: ProblemClass) -> None:
    """Check the class invariants of *params*, raising :class:`InvalidParamsError`."""
    p, n, alpha, q = params.p, params.n, params.alpha, params.q
    for name, value in (("p", p), ("n", n), ("alpha", alpha)):
        if not math.isfinite(value):
            raise InvalidParamsError(f"{name} must be finite, got {value!r}")
    if not p > 1.0:
        raise InvalidParamsError(f"p must satisfy p > 1, got p = {p!r}")
    if not alpha >= 0.0:
        raise InvalidParamsError(f"alpha must satisfy alpha >= 0, got alpha = {alpha!r}")
    if not n >= 1.0:
        raise InvalidParamsError(f"n must satisfy n >= 1, got n = {n!r}")
    q_min = _FACTS[problem][3]
    if q_min is not None and (q is None or not math.isfinite(q) or not q > q_min):
        raise InvalidParamsError(f"{problem.value} requires q > {q_min:g}, got q = {q!r}")


def beta_exponent(params: Params, problem: ProblemClass) -> float:
    """Exponent ``beta = (alpha + p)/|E|`` of the guiding solution.

    For ``mems`` the guiding solution grows like ``t**beta`` with
    ``beta = (alpha + p)/(p + q - 1)``; for ``jl`` it decays like
    ``t**-beta`` with ``beta = (p + alpha)/(q - p + 1)``; for ``gelfand``
    the guiding solution is logarithmic and the returned value is the
    slope ``alpha + p`` of ``-w0`` against ``ln t``.
    """
    spec = class_spec(params, problem)
    if spec.g is None:
        # only jl can lack the scaling: mems has E = -(p+q-1) < 0
        raise ValidityError(
            f"jl scaling requires q - p + 1 > 0, got q - p + 1 = {spec.E!r}"
        )
    return spec.k if spec.E is None else spec.k / abs(spec.E)


def guiding_bracket(params: Params, g: float) -> float:
    """The bracket ``D = (n - p) + (p - 1) g`` of the guiding solution
    ``w0 = coeff t^g`` (``ln coeff - k ln t``, ``g = 0``, for ``gelfand``):
    ``phi(w0')' + ((n-1)/t) phi(w0') = D phi(w0')/t``, so ``w0`` solves the
    equation when ``D phi(w0') = sgn t^(alpha+1) f(w0)``."""
    return (params.n - params.p) + (params.p - 1.0) * g


@dataclass(frozen=True)
class ClosedForms:
    """Explicit constants attached to a (params, problem) pair.

    Attributes
    ----------
    beta : float
        Guiding exponent (see :func:`beta_exponent`).
    coeff : float
        Guiding coefficient: ``c0`` for ``mems`` (``w0 = c0 t**beta``),
        ``a0`` for ``jl`` (``w0 = a0 t**-beta``), and ``exp(a0)`` for
        ``gelfand`` (``w0 = ln(coeff) - (alpha+p) ln t``).
    lambda_inf : float
        Limit of ``lambda(t)`` along the solution curve as ``t -> infinity``,
        obtained by substituting the guiding solution into the curve formula.
    guiding_kind : str
        One of ``"power-growth"``, ``"power-decay"``, ``"logarithmic"``.
    notes : tuple of str
        Diagnostics, e.g. alternative limit expressions that coincide with
        ``lambda_inf`` only in special cases.
    """

    problem: ProblemClass
    params: Params
    beta: float
    coeff: float
    lambda_inf: float
    guiding_kind: str
    notes: tuple[str, ...] = ()

    @cached_property
    def spec(self) -> ClassSpec:
        return class_spec(self.params, self.problem)

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["problem"], d["params"]
        return {**d, "notes": list(self.notes)}


# The paper's form of D > 0 in each class, which a ValidityError names, and
# the note on lambda_inf.
_TEXTS = {
    ProblemClass.GELFAND: ("n > p, got n = {n!r}, p = {p!r}", None),
    ProblemClass.MEMS: ("(p-1)(beta-1) + n - 1 > 0, got {D!r}",
                        "lambda_inf = coeff**-(p+q-1) = {lam!r}; the exponent-(q-1) variant "
                        "coeff**-(q-1) = {variant!r} coincides only when coeff = 1"),
    ProblemClass.JOSEPH_LUNDGREN: ("(n-p) beta^(p-1) - (p-1) beta^p > 0, got {lam!r}",
                                   "lambda_inf = coeff**(q-p+1) = {lam!r}; the exponent-(q-1) "
                                   "variant coeff**(q-1) = {variant!r} coincides only at p = 2"),
}


def _power(x: float, y: float) -> float:
    """``x ** y``, or inf where it leaves the floats (and for ``0.0 ** y``, ``y < 0``)."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def closed_forms(params: Params, problem: ProblemClass) -> ClosedForms:
    """Compute guiding-solution constants and the curve limit ``lambda_inf``.

    The guiding solution exists when the bracket ``D`` of
    :func:`guiding_bracket` is positive.  The curve at ``w0`` is
    ``lambda = coeff^E`` (``coeff`` for ``gelfand``), which the guiding
    equation makes ``lambda_inf = beta^(p-1) D``.  With ``g = 0``, ``beta``
    and ``-beta``, ``D > 0`` reads ``n > p`` for ``gelfand``,
    ``(p-1)(beta-1) + n - 1 > 0`` for ``mems`` and, times ``beta^(p-1)``,
    ``(n-p) beta^(p-1) - (p-1) beta^p > 0`` for ``jl``: the inequality that
    a :class:`ValidityError` names when it fails.  It also raises one, naming
    the float range, where ``lambda_inf`` rounds to 0 or inf, or ``coeff`` to
    inf; a ``coeff`` that underflows is reported as 0.
    """
    validate_params(params, problem)
    spec = class_spec(params, problem)
    beta = beta_exponent(params, problem)
    D = guiding_bracket(params, spec.g)
    lam = _power(beta, params.p - 1.0) * D
    validity, note = _TEXTS[problem]
    if not D > 0.0:
        raise ValidityError(f"{problem.value} guiding solution requires "
                            + validity.format(n=params.n, p=params.p, D=D, lam=lam))
    coeff = lam if spec.E is None else _power(lam, 1.0 / spec.E)
    if not (0.0 < lam < math.inf and coeff < math.inf):
        raise ValidityError(f"{problem.value} guiding solution leaves the float range: "
                            f"lambda_inf = {lam!r}, coeff = {coeff!r}")
    if spec.E is None:
        notes = ()
    else:  # the note's variant has the exponent q - 1 with the sign s of f's power
        variant = _power(coeff, _FACTS[problem][2] * (params.q - 1.0))
        notes = (note.format(lam=lam, variant=variant),)
    # the guiding solution w0 = coeff t^g (gelfand: ln coeff - (alpha+p) ln t)
    kind = "logarithmic" if spec.E is None else "power-growth" if spec.g > 0.0 else "power-decay"
    return ClosedForms(problem=problem, params=params, beta=beta, coeff=coeff, lambda_inf=lam,
                       guiding_kind=kind, notes=notes)


def guiding_eval(cf: ClosedForms, t):
    """Evaluate the guiding solution and its exact derivative at ``t > 0``.

    Accepts a scalar or an array; returns ``(w0, w0prime)`` of matching shape.
    """
    import numpy as np

    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("guiding solution is defined for t > 0 only")
    g = cf.spec.g
    if cf.spec.E is None:
        w0 = math.log(cf.coeff) - cf.beta * np.log(t)
        w0p = -cf.beta / t
    else:
        w0 = cf.coeff * t**g
        w0p = g * cf.coeff * t ** (g - 1.0)
    if w0.ndim == 0:
        return float(w0), float(w0p)
    return w0, w0p


def guiding_curvature(cf: ClosedForms, t):
    """Exact second derivative of the guiding solution at ``t > 0``."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("guiding solution is defined for t > 0 only")
    g = cf.spec.g
    if cf.spec.E is None:
        w0pp = cf.beta / t**2
    else:
        w0pp = g * (g - 1.0) * cf.coeff * t ** (g - 2.0)
    return float(w0pp) if w0pp.ndim == 0 else w0pp


@dataclass(frozen=True)
class CharacteristicQuadratic:
    """Monic characteristic quadratic ``r**2 + b r + c`` of the linearized
    Euler equation about the guiding solution, with its roots.

    ``oscillatory`` is true exactly when the discriminant is negative, in
    which case solutions of the linearization oscillate in ``ln t`` and the
    solution curve is expected to fold infinitely often.
    """

    coefficients: tuple[float, float, float]
    roots: tuple[complex, complex]
    discriminant: float
    oscillatory: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "coefficients": list(self.coefficients),
                "roots": [{"real": r.real, "imag": r.imag} for r in self.roots]}


def _solve_monic(b: float, c: float) -> tuple[tuple[complex, complex], float]:
    """Roots of ``r**2 + b r + c``, complex pair ordered +Im first, real pair ascending."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        re = -b / 2.0
        im = math.sqrt(-disc) / 2.0
        return (complex(re, im), complex(re, -im)), disc
    s = math.sqrt(disc)
    # avoid cancellation: compute the large-magnitude root first
    if b >= 0.0:
        r1 = (-b - s) / 2.0
    else:
        r1 = (-b + s) / 2.0
    r2 = c / r1 if r1 != 0.0 else (-b - r1)
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return (complex(lo, 0.0), complex(hi, 0.0)), disc


def characteristic_quadratic(params: Params, problem: ProblemClass) -> CharacteristicQuadratic:
    """Characteristic quadratic of the Euler equation linearized at ``w0``.

    ``h = t^r`` solves the linearization about ``w0 = coeff t^g`` when
    ``r**2 + b r + c = 0``, with ``k = alpha + p`` and the bracket ``D`` of
    :func:`guiding_bracket`: ``b = (n - p) + (p - 2) g`` from the powers of
    ``t`` in ``(p-1)|w0'|^(p-2) h'``, and ``c = (k - (p - 1) g) D/(p - 1)``
    from ``f'(w0)`` by the guiding equation.  Worked out per class:

    * ``gelfand``: ``b = n - p``, ``c = (n-p)(p+alpha)/(p-1)``,
    * ``mems``:    ``b = (p-2)(beta-1) + n - 2``,
      ``c = q beta [(p-1)(beta-1) + n - 1]/(p-1)``,
    * ``jl``:      ``b = -beta(p-2) + n - p``,
      ``c = q(n-p) beta/(p-1) - q beta**2``.
    """
    validate_params(params, problem)
    beta_exponent(params, problem)  # ValidityError without the scaling w ~ t^g
    spec = class_spec(params, problem)
    p, n, g = params.p, params.n, spec.g
    b = (n - p) + (p - 2.0) * g
    c = (spec.k - (p - 1.0) * g) * guiding_bracket(params, g) / (p - 1.0)
    roots, disc = _solve_monic(b, c)
    return CharacteristicQuadratic(
        coefficients=(1.0, b, c),
        roots=roots,
        discriminant=disc,
        oscillatory=disc < 0.0,
    )


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one inequality, named by its key in ``RegimeReport.conditions``.

    ``margin`` is signed so that positive means the condition holds
    strictly; ``boundary`` is set when ``|margin| <= 1e-14``, in which case
    ``holds`` is false (the conditions are strict inequalities).  Window
    conditions carry ``lower``/``upper`` bounds on ``n``; one-sided
    conditions carry the comparison ``threshold``.
    """

    holds: bool
    margin: float
    boundary: bool = False
    threshold: float | None = None
    lower: float | None = None
    upper: float | None = None
    expression: str = ""

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if self.lower is not None and self.upper is not None:
            d["window"] = f"{self.lower:g}<n<{self.upper:g}"
        return d


def _condition(margin: float, *, threshold=None, lower=None, upper=None,
               expression: str = "") -> ConditionResult:
    boundary = abs(margin) <= BOUNDARY_TOL
    return ConditionResult(
        holds=(margin > 0.0) and not boundary,
        margin=margin,
        boundary=boundary,
        threshold=threshold,
        lower=lower,
        upper=upper,
        expression=expression,
    )


def _window(value: float, lower: float, upper: float, expression: str) -> ConditionResult:
    return _condition(
        min(value - lower, upper - value),
        lower=lower,
        upper=upper,
        expression=expression,
    )


@dataclass(frozen=True)
class RegimeReport:
    """Named inequality conditions plus the oscillation classification.

    ``predicted_infinite_turns`` is the conjunction of the sufficient
    conditions under which the solution curve is known to fold infinitely
    often for the given class.
    """

    problem: ProblemClass
    params: Params
    conditions: dict[str, ConditionResult]
    quadratic: CharacteristicQuadratic | None
    predicted_infinite_turns: bool
    notes: tuple[str, ...] = ()

    @property
    def oscillatory(self) -> bool:
        return self.quadratic.oscillatory if self.quadratic is not None else False

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.value,
            "params": asdict(self.params),
            "conditions": {k: v.to_dict() for k, v in sorted(self.conditions.items())},
            "characteristic": self.quadratic.to_dict() if self.quadratic is not None else None,
            "predicted_infinite_turns": self.predicted_infinite_turns,
            "notes": list(self.notes),
        }


def _gelfand_conditions(params: Params) -> dict[str, ConditionResult]:
    p, n, alpha = params.p, params.n, params.alpha
    upper = (p * p + 3.0 * p + 4.0 * alpha) / (p - 1.0)
    return {
        "dimension_window": _window(n, p, upper, "p < n < (p^2 + 3p + 4 alpha)/(p - 1)")
    }


def _mems_conditions(params: Params) -> dict[str, ConditionResult]:
    p, n, alpha, q = params.p, params.n, params.alpha, params.q
    beta = (alpha + p) / (p + q - 1.0)
    conds: dict[str, ConditionResult] = {}

    conds["guiding_positive"] = _condition(
        (p - 1.0) * (beta - 1.0) + n - 1.0,
        expression="(p-1)(beta-1) + n - 1 > 0",
    )

    lead = 4.0 * q - _power(p - 2.0, 2)
    conds["leading_coefficient"] = _condition(lead, expression="4q - (p-2)^2 > 0")

    big_a = (p - 1.0) * lead
    big_b = (4.0 * q - 2.0 * (p - 1.0) * (p - 2.0)) * (n - p)
    big_c = (p - 1.0) * _power(n - p, 2)
    conds["oscillation"] = _condition(
        big_a * _power(beta, 2) + big_b * beta - big_c,
        expression="A beta^2 + B beta - C > 0 with A = 4(p-1)q - (p-1)(p-2)^2, "
        "B = 4q(n-p) - 2(p-1)(p-2)(n-p), C = (p-1)(n-p)^2",
    )

    denom = (p - 1.0) * lead
    if denom != 0.0:
        rhs = ((p - n) * (2.0 * q - p * p + 3.0 * p - 2.0)
               + 2.0 * abs(n - p) * math.sqrt(q * (p + q - 1.0))) / denom
    else:
        rhs = math.inf
    conds["beta_threshold"] = _condition(
        beta - rhs,
        threshold=rhs,
        expression="beta > [(p-n)(2q - p^2 + 3p - 2) + 2|n-p| sqrt(q(p+q-1))]"
        " / [(p-1)(4q - (p-2)^2)]",
    )

    conds["decay_exponent"] = _condition(
        (p - 1.0) * (beta - 1.0) + n - 1.0 - beta,
        expression="(p-1)(beta-1) + n - 1 > beta",
    )

    m1 = 2.0 * math.sqrt(q * (p + q - 1.0)) + p * p - 3.0 * p + 2.0 - 2.0 * q
    denom_w = (p + q - 1.0) * m1
    if denom_w != 0.0:
        upper = p + (alpha + p) * (p - 1.0) * lead / denom_w
    else:
        upper = math.inf
    conds["sufficient_window"] = _condition(
        min(m1, lead, n - p, upper - n),
        lower=p,
        upper=upper,
        expression="2 sqrt(q(p+q-1)) + p^2 - 3p + 2 - 2q > 0 and 4q > (p-2)^2 "
        "and p <= n < p + (alpha+p)(p-1)[4q-(p-2)^2] / "
        "[(p+q-1)(2 sqrt(q(p+q-1)) + p^2 - 3p + 2 - 2q)]",
    )
    return conds


def _jl_conditions(params: Params) -> dict[str, ConditionResult]:
    p, n, alpha, q = params.p, params.n, params.alpha, params.q
    conds: dict[str, ConditionResult] = {}

    if n > p:
        threshold = (n * p - n + p + p * alpha) / (n - p)
        conds["supercritical"] = _condition(
            q - threshold,
            threshold=threshold,
            expression="q > (np - n + p + p alpha)/(n - p), n > p",
        )
    else:
        conds["supercritical"] = _condition(
            n * (q - p + 1.0) - p * (q + 1.0 + alpha),
            expression="q > (np - n + p + p alpha)/(n - p), n > p",
        )

    scaling_ok = q - p + 1.0 > 0.0
    if scaling_ok:
        beta = (p + alpha) / (q - p + 1.0)
        theta = 2.0 * beta * (p - 2.0) + 4.0 * q * beta / (p - 1.0)
        beta2 = _power(beta, 2)
        gamma = _power(p - 2.0, 2) * beta2 + 4.0 * q * beta2
        # theta^2 - 4 gamma as the product it equals, > 0 with q - p + 1 > 0: the
        # difference cancels, and rounds below 0 where q is a few ulps above p - 1
        disc = 16.0 * q * beta2 * (q - p + 1.0) / _power(p - 1.0, 2)
        conds["oscillation"] = _condition(
            theta * (n - p) - _power(n - p, 2) - gamma,
            expression="(n-p)^2 - theta (n-p) + gamma < 0 with "
            "theta = 2 beta (p-2) + 4 q beta/(p-1), gamma = (p-2)^2 beta^2 + 4 q beta^2",
        )
        half = (theta + math.sqrt(disc)) / 2.0
        conds["dimension_upper"] = _condition(
            half - (n - p),
            threshold=p + half,
            expression="n - p < (theta + sqrt(theta^2 - 4 gamma))/2",
        )
        conds["dimension_window"] = _window(
            n,
            p * (q + 1.0 + alpha) / (q - p + 1.0),
            p + half,
            "p(q + 1 + alpha)/(q - p + 1) < n < p + (theta + sqrt(theta^2 - 4 gamma))/2",
        )
    else:
        for name in ("oscillation", "dimension_upper", "dimension_window"):
            conds[name] = _condition(
                q - p + 1.0, expression="q - p + 1 > 0 required",
            )

    if p == 2.0 and alpha == 0.0:
        upper = 4.0 * q / (q - 1.0) + 4.0 * math.sqrt(q / (q - 1.0))
        if n > 2.0:
            conds["classical_supercritical"] = _condition(
                q - (n + 2.0) / (n - 2.0),
                threshold=(n + 2.0) / (n - 2.0),
                expression="q > (n+2)/(n-2), n > 2",
            )
        else:
            conds["classical_supercritical"] = _condition(
                q * (n - 2.0) - (n + 2.0),
                expression="q > (n+2)/(n-2), n > 2",
            )
        conds["classical_dimension_upper"] = _condition(
            upper - (n - 2.0),
            threshold=2.0 + upper,
            expression="n - 2 < 4q/(q-1) + 4 sqrt(q/(q-1))",
        )
        conds["classical_window"] = _window(
            n,
            (2.0 + 2.0 * q) / (q - 1.0),
            2.0 + upper,
            "(2+2q)/(q-1) < n < 2 + 4q/(q-1) + 4 sqrt(q/(q-1))",
        )
    return conds


# each class's conditions, and the names of those whose conjunction predicts
# infinitely many turns
_CONDITIONS = {
    ProblemClass.GELFAND: (_gelfand_conditions, ("dimension_window",)),
    ProblemClass.MEMS: (_mems_conditions,
                        ("leading_coefficient", "beta_threshold", "decay_exponent")),
    ProblemClass.JOSEPH_LUNDGREN: (_jl_conditions, ("supercritical", "dimension_upper")),
}


def check_conditions(params: Params, problem: ProblemClass) -> RegimeReport:
    """Evaluate every named condition of the class, with signed margins.

    Always returns a report; no exceptions beyond parameter validation.  A
    square that leaves the floats is inf, so that a margin past the float
    range reads inf or nan.
    Margins are oriented so that positive means the inequality holds
    strictly; a margin within ``1e-14`` of zero is reported as boundary
    and does not count as holding.
    """
    validate_params(params, problem)
    try:
        quad = characteristic_quadratic(params, problem)
    except ValidityError as exc:
        quad = None
        notes_degenerate = (str(exc),)
    else:
        notes_degenerate = ()
    notes: list[str] = list(notes_degenerate)

    build, sufficient = _CONDITIONS[problem]
    conds = build(params)
    predicted = all(conds[name].holds for name in sufficient)
    if predicted and problem is ProblemClass.MEMS and params.n < 3.0:
        notes.append(
            "infinite-turn prediction for mems with n < 3 relies on an "
            "n >= 3 step in its derivation; treat as unverified"
        )

    return RegimeReport(
        problem=problem,
        params=params,
        conditions=conds,
        quadratic=quad,
        predicted_infinite_turns=predicted,
        notes=tuple(notes),
    )
