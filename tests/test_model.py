import math
import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from pfold import (
    InvalidParamsError,
    Params,
    ProblemClass,
    ValidityError,
    beta_exponent,
    characteristic_quadratic,
    check_conditions,
    class_spec,
    closed_forms,
    guiding_bracket,
    guiding_curvature,
    guiding_eval,
    validate_params,
)

G, M, J = ProblemClass.GELFAND, ProblemClass.MEMS, ProblemClass.JOSEPH_LUNDGREN


class TestClosedForms:
    def test_mems_printed_values(self):
        cf = closed_forms(Params(p=2, n=3, alpha=0, q=2), M)
        assert cf.beta == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert cf.coeff == pytest.approx((9.0 / 10.0) ** (1.0 / 3.0), rel=1e-13)
        assert cf.lambda_inf == pytest.approx(10.0 / 9.0, rel=1e-13)
        assert cf.guiding_kind == "power-growth"

    def test_jl_printed_values(self):
        cf = closed_forms(Params(p=2, n=4, alpha=0, q=5), J)
        assert cf.beta == pytest.approx(0.5, rel=1e-15)
        assert cf.coeff == pytest.approx(0.75**0.25, rel=1e-13)
        assert cf.lambda_inf == pytest.approx(0.75, rel=1e-13)
        assert cf.guiding_kind == "power-decay"

    def test_gelfand_printed_values(self):
        cf = closed_forms(Params(p=2, n=3, alpha=0), G)
        assert cf.beta == 2.0  # slope of -w0 against ln t
        assert cf.coeff == pytest.approx(2.0, rel=1e-15)
        assert cf.lambda_inf == pytest.approx(2.0, rel=1e-15)
        assert cf.guiding_kind == "logarithmic"

    def test_to_dict(self):
        # the fields but the problem and its parameters, the notes as a list
        cf = closed_forms(Params(p=2, n=4, alpha=0, q=5), J)
        assert cf.to_dict() == {
            "beta": 0.5, "coeff": cf.coeff, "lambda_inf": 0.75, "guiding_kind": "power-decay",
            "notes": ["lambda_inf = coeff**(q-p+1) = 0.75; the exponent-(q-1) variant "
                      "coeff**(q-1) = 0.7499999999999999 coincides only at p = 2"]}

    def test_gelfand_ignores_q(self):
        a = closed_forms(Params(p=2, n=3, alpha=0), G)
        b = closed_forms(Params(p=2, n=3, alpha=0, q=7), G)
        assert (a.beta, a.coeff, a.lambda_inf) == (b.beta, b.coeff, b.lambda_inf)

    def test_validity_errors_name_the_inequality(self):
        with pytest.raises(ValidityError, match="n > p"):
            closed_forms(Params(p=3, n=2, alpha=0), G)
        with pytest.raises(ValidityError, match=r"\(p-1\)\(beta-1\)"):
            closed_forms(Params(p=2, n=1.5, alpha=0, q=9), M)
        with pytest.raises(ValidityError, match="beta"):
            closed_forms(Params(p=2, n=2, alpha=0, q=5), J)
        with pytest.raises(ValidityError, match="q - p \\+ 1"):
            closed_forms(Params(p=3, n=5, alpha=0, q=1.5), J)

    @pytest.mark.parametrize("params,problem,values", [
        # lambda_inf = beta^(p-1) D overflows, and underflows to 0
        (Params(p=200, n=300, alpha=0), G, "lambda_inf = inf, coeff = inf"),
        (Params(p=1070, n=121, alpha=1350, q=0.259), M, "lambda_inf = inf, coeff = 0.0"),
        (Params(p=480, n=866, alpha=0, q=2460), M, "lambda_inf = 0.0, coeff = inf"),
        # coeff = lambda_inf^(1/E) overflows, E = q - p + 1 = 1e-4
        (Params(p=2, n=30000, alpha=0, q=1.0001), J,
         "lambda_inf = 199959999.99997798, coeff = inf"),
    ], ids=["gelfand-lambda-inf", "mems-lambda-inf", "mems-lambda-zero", "jl-coeff-inf"])
    def test_guiding_solution_past_the_float_range(self, params, problem, values):
        message = f"{problem.value} guiding solution leaves the float range: {values}"
        with pytest.raises(ValidityError, match=f"^{re.escape(message)}$"):
            closed_forms(params, problem)

    def test_underflowing_coefficient_is_zero(self):
        # coeff = lambda_inf^(1/E) with E = -(p+q-1) = -0.002 is about 1e-490
        cf = closed_forms(Params(p=1.001, n=10, alpha=0, q=0.001), M)
        assert cf.coeff == 0.0 and cf.lambda_inf == pytest.approx(9.5587290459517, rel=1e-12)

    @pytest.mark.parametrize("params", [Params(p=math.nan, n=3), Params(p=2, n=math.inf)],
                             ids=["p-nan", "n-inf"])
    def test_non_finite_params(self, params):
        with pytest.raises(InvalidParamsError, match="must be finite"):
            validate_params(params, G)

    def test_param_validation(self):
        with pytest.raises(InvalidParamsError):
            validate_params(Params(p=1.0, n=3), G)
        with pytest.raises(InvalidParamsError):
            validate_params(Params(p=2, n=3, alpha=-0.1), G)
        with pytest.raises(InvalidParamsError):
            validate_params(Params(p=2, n=0.5), G)
        with pytest.raises(InvalidParamsError):
            validate_params(Params(p=2, n=3), M)  # q missing
        with pytest.raises(InvalidParamsError):
            validate_params(Params(p=2, n=3, q=1.0), J)  # q must exceed 1
        validate_params(Params(p=2, n=3, q=0.5), M)  # mems allows 0 < q <= 1


class TestGuidingSolution:
    def test_eval_at_one(self):
        cf = closed_forms(Params(p=2, n=3, alpha=0, q=2), M)
        w0, w0p = guiding_eval(cf, 1.0)
        assert w0 == pytest.approx(0.9654893846056298, rel=1e-12)
        assert w0p == pytest.approx(0.6436595897370865, rel=1e-12)

        cfg = closed_forms(Params(p=2, n=3, alpha=0), G)
        w0, w0p = guiding_eval(cfg, 1.0)
        assert w0 == pytest.approx(math.log(2.0), rel=1e-14)
        assert w0p == pytest.approx(-2.0, rel=1e-14)

        cfj = closed_forms(Params(p=2, n=4, alpha=0, q=5), J)
        w0, w0p = guiding_eval(cfj, 1.0)
        assert w0 == pytest.approx(0.9306048591020996, rel=1e-12)
        assert w0p == pytest.approx(-0.4653024295510498, rel=1e-12)

    def test_domain_error(self):
        cf = closed_forms(Params(p=2, n=3, alpha=0), G)
        with pytest.raises(ValueError):
            guiding_eval(cf, 0.0)
        with pytest.raises(ValueError):
            guiding_eval(cf, -1.0)
        with pytest.raises(ValueError):
            guiding_curvature(cf, 0.0)
        # NaN fails a test of t <= 0 as well as one of t > 0
        for t in (math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError):
                guiding_eval(cf, t)
            with pytest.raises(ValueError):
                guiding_curvature(cf, t)

    def test_vectorized(self):
        cf = closed_forms(Params(p=2, n=3, alpha=0, q=2), M)
        t = np.array([0.5, 1.0, 2.0])
        w0, w0p = guiding_eval(cf, t)
        assert w0.shape == (3,)
        assert w0[1] == pytest.approx(cf.coeff)

    def test_curvature_is_derivative_of_slope(self):
        for params, problem in (
            (Params(p=2, n=3, alpha=0, q=2), M),
            (Params(p=2, n=4, alpha=0, q=5), J),
            (Params(p=2.5, n=5, alpha=1), G),
        ):
            cf = closed_forms(params, problem)
            t, h = 1.7, 1e-6
            _, up = guiding_eval(cf, t + h)
            _, um = guiding_eval(cf, t - h)
            fd = (up - um) / (2 * h)
            assert guiding_curvature(cf, t) == pytest.approx(fd, rel=1e-8)


class TestCharacteristicQuadratic:
    def test_gelfand_n3(self):
        quad = characteristic_quadratic(Params(p=2, n=3, alpha=0), G)
        assert quad.coefficients == pytest.approx((1.0, 1.0, 2.0))
        assert quad.oscillatory
        r = quad.roots[0]
        assert r.real == pytest.approx(-0.5, abs=1e-14)
        assert r.imag == pytest.approx(1.3228756555322954, rel=1e-14)
        assert quad.roots[1] == r.conjugate()

    def test_gelfand_n10_double_root(self):
        quad = characteristic_quadratic(Params(p=2, n=10, alpha=0), G)
        assert quad.coefficients == pytest.approx((1.0, 8.0, 16.0))
        assert quad.discriminant == 0.0
        assert not quad.oscillatory
        assert quad.roots == (complex(-4.0, 0.0), complex(-4.0, 0.0))

    def test_jl_example(self):
        quad = characteristic_quadratic(Params(p=2, n=4, alpha=0, q=5), J)
        assert quad.coefficients == pytest.approx((1.0, 2.0, 3.75))
        assert quad.discriminant == pytest.approx(-11.0, rel=1e-14)
        assert quad.oscillatory

    def test_to_dict(self):
        # the fields, the coefficients as a list and each root as real and imaginary parts
        assert characteristic_quadratic(Params(p=2, n=3), G).to_dict() == {
            "coefficients": [1.0, 1.0, 2.0], "discriminant": -7.0, "oscillatory": True,
            "roots": [{"real": -0.5, "imag": math.sqrt(7.0) / 2.0},
                      {"real": -0.5, "imag": -math.sqrt(7.0) / 2.0}]}

    def test_real_roots_ascending(self):
        quad = characteristic_quadratic(Params(p=2, n=20, alpha=0), G)
        r0, r1 = quad.roots
        assert r0.imag == r1.imag == 0.0
        assert r0.real < r1.real

    def test_complex_pair_ordering(self):
        quad = characteristic_quadratic(Params(p=2, n=3, alpha=0), G)
        assert quad.roots[0].imag > 0 > quad.roots[1].imag


# Rational parameter sets (p, n, alpha, q): the canonical and acceptance
# cases, others across the sweep ranges, and last one with D near 1e-6.
SYMBOLIC_SETS = {
    G: [(2, 3, 0, None), (2, 10, 0, None), (3, 5, 1, None), ("5/2", "55/4", 0, None),
        ("3/2", 5, "1/2", None), (4, 7, 2, None), ("5/4", 3, 0, None), (2, 20, 0, None),
        (3, 4, "3/2", None), ("7/4", "11/2", "1/4", None), (2, "2097153/1048576", 0, None)],
    M: [(2, 3, 0, 2), (2, "5/2", 0, "3/10"), ("5/2", 7, 1, "7/10"), (3, 4, 0, 1),
        ("3/2", 5, "1/2", 4), (4, 6, 2, "1/2"), (2, 10, 1, 6), ("7/4", "9/2", 0, "5/2"),
        (3, 3, "3/2", 2), ("5/4", "3/2", "1/4", "1/20"), (2, "1800001/1000000", 0, 9)],
    J: [(2, 4, 0, 5), (2, 5, 0, 2), ("5/2", 5, 0, 4), (3, 6, 1, 5), ("5/2", 6, "1/2", 3),
        ("3/2", 6, 0, 3), (4, 12, 1, 6), (2, 10, 1, 3), (3, 9, 0, 4), ("7/4", 8, "3/4", "9/2"),
        (2, "2621441/1048576", 0, 5)],
}


def _sympy_guiding(problem, p, n, alpha, q):
    """``D``, ``lambda_inf`` and the Euler coefficients ``(b, c)`` from sympy.

    ``w0 = A t^g`` (``ln A - k ln t`` for gelfand) in the residual
    ``phi(w')' + ((n-1)/t) phi(w') - sgn t^alpha f(w)`` gives the guiding
    equation for ``A``, and ``D = t phi(w0')'/phi(w0') + n - 1``.  The
    residual linearized about ``w0`` and applied to ``t^r`` is, at ``t = 1``,
    a quadratic in ``r`` whose monic form is ``r^2 + b r + c``.  Also
    returns ``g`` and ``k = alpha + p``.
    """
    t, a, r, eps = sp.symbols("t A r epsilon", positive=True)
    p, n, alpha = sp.Rational(p), sp.Rational(n), sp.Rational(alpha)
    k = alpha + p
    if problem is G:
        sgn, f, g = -1, sp.exp, sp.Integer(0)
        w0 = sp.log(a) - k * sp.log(t)
        curve = t**k * sp.exp(w0)
    else:
        power = -sp.Rational(q) if problem is M else sp.Rational(q)
        sgn = 1 if problem is M else -1
        big_e = power - (p - 1)
        g = -k / big_e

        def f(w):
            return w**power

        w0 = a * t**g
        curve = t**k * w0**big_e

    def phi(s):
        return s * (s**2) ** ((p - 2) / 2)

    def residual(w):
        wp = sp.diff(w, t)
        return sp.diff(phi(wp), t) + (n - 1) / t * phi(wp) - sgn * t**alpha * f(w)

    flux = phi(sp.diff(w0, t))
    bracket = sp.simplify(t * sp.diff(flux, t) / flux + n - 1)
    # the guiding equation c1 A^e1 + c2 A^e2 = 0, at t = 1
    (c1, e1), (c2, e2) = (term.as_coeff_exponent(a) for term in
                          sp.Add.make_args(sp.expand(residual(w0).subs(t, 1))))
    a0 = (-c1 / c2) ** (1 / (e2 - e1))
    assert a0.is_positive
    assert residual(w0).subs({a: a0, t: 3}).evalf(30) == pytest.approx(0.0, abs=1e-20)
    lam = curve.subs({a: a0, t: 1})
    assert curve.subs({a: a0, t: 3}).evalf(30) == pytest.approx(float(lam), rel=1e-20)
    lin = sp.diff(residual(w0 + eps * t**r), eps).subs(eps, 0).subs({a: a0, t: 1})
    a2, a1, a_0 = sp.Poly(sp.expand(lin), r).all_coeffs()
    return {"D": bracket, "lambda_inf": lam, "b": a1 / a2, "c": a_0 / a2, "g": g, "k": k}


class TestSymbolicGuiding:
    """The closed forms against sympy's linearization about ``w0``."""

    @pytest.mark.parametrize("problem,p,n,alpha,q", [
        (problem, *case) for problem, cases in SYMBOLIC_SETS.items() for case in cases])
    def test_closed_forms_equal_the_linearization(self, problem, p, n, alpha, q):
        ref = _sympy_guiding(problem, p, n, alpha, q)
        params = Params(p=float(sp.Rational(p)), n=float(sp.Rational(n)),
                        alpha=float(sp.Rational(alpha)),
                        q=None if q is None else float(sp.Rational(q)))
        cf = closed_forms(params, problem)
        _, b, c = characteristic_quadratic(params, problem).coefficients
        got = {"D": guiding_bracket(params, class_spec(params, problem).g),
               "lambda_inf": cf.lambda_inf, "b": b, "c": c}
        # each value to 1e-13 of the size of its terms
        pp, nn, g, k = sp.Rational(p), sp.Rational(n), ref["g"], ref["k"]
        d_terms = abs(nn - pp) + abs((pp - 1) * g)
        terms = {"D": d_terms, "lambda_inf": abs(ref["lambda_inf"] / ref["D"]) * d_terms,
                 "b": abs(nn - pp) + abs((pp - 2) * g),
                 "c": (k + abs((pp - 1) * g)) * d_terms / (pp - 1)}
        for name, value in got.items():
            assert abs(value - ref[name].evalf(30)) <= 1e-13 * terms[name].evalf(30), name


class TestConditions:
    def test_gelfand_window(self):
        rep3 = check_conditions(Params(p=2, n=3, alpha=0), G)
        cond = rep3.conditions["dimension_window"]
        assert cond.holds and cond.lower == 2.0 and cond.upper == 10.0
        assert cond.margin == pytest.approx(1.0)
        assert rep3.predicted_infinite_turns

        rep10 = check_conditions(Params(p=2, n=10, alpha=0), G)
        cond10 = rep10.conditions["dimension_window"]
        assert not cond10.holds
        assert cond10.boundary
        assert cond10.margin == 0.0
        assert not rep10.predicted_infinite_turns

    def test_jl_example_margins(self):
        rep = check_conditions(Params(p=2, n=4, alpha=0, q=5), J)
        sc = rep.conditions["supercritical"]
        assert sc.threshold == pytest.approx(3.0, rel=1e-14)
        assert sc.margin == pytest.approx(2.0, rel=1e-14)
        cw = rep.conditions["classical_window"]
        assert cw.lower == pytest.approx(3.0, rel=1e-14)
        assert cw.upper == pytest.approx(11.47213595499958, rel=1e-12)
        assert cw.holds
        assert rep.predicted_infinite_turns

    def test_jl_outside_window(self):
        rep = check_conditions(Params(p=2, n=12, alpha=0, q=5), J)
        assert not rep.conditions["classical_window"].holds
        assert not rep.conditions["dimension_upper"].holds
        assert not rep.predicted_infinite_turns

    @pytest.mark.parametrize("p,n,q", [
        # q a few ulps above p - 1, where theta^2 - 4 gamma as a difference rounds below 0
        (3.7, 9.0, 2.7000000000000006), (4.2, 12.0, 3.2000000000000015),
        (2.0, 12.0, 5.0), (3.0, 7.0, 2.5),
    ])
    def test_jl_dimension_bound_against_exact_arithmetic(self, p, n, q):
        # theta^2 - 4 gamma = 16 q beta^2 (q - p + 1)/(p - 1)^2 > 0 with q - p + 1 > 0
        P, N, Q = (sp.Rational(x) for x in (p, n, q))
        beta = P / (Q - P + 1)
        theta = 2 * beta * (P - 2) + 4 * Q * beta / (P - 1)
        gamma = (P - 2) ** 2 * beta**2 + 4 * Q * beta**2
        upper = P + (theta + sp.sqrt(theta**2 - 4 * gamma)) / 2
        conds = check_conditions(Params(p=p, n=n, alpha=0, q=q), J).conditions
        bound, window = conds["dimension_upper"], conds["dimension_window"]
        assert bound.threshold == pytest.approx(float(upper), rel=1e-14)
        assert window.upper == bound.threshold
        assert bound.holds == (N < upper)
        assert window.holds == (P * (Q + 1) / (Q - P + 1) < N < upper)

    def test_mems_example_margins(self):
        rep = check_conditions(Params(p=2, n=3, alpha=0, q=2), M)
        bt = rep.conditions["beta_threshold"]
        assert bt.threshold == pytest.approx((-4.0 + 2.0 * math.sqrt(6.0)) / 8.0, rel=1e-13)
        assert bt.holds
        assert rep.conditions["leading_coefficient"].margin == pytest.approx(8.0)
        assert rep.conditions["decay_exponent"].margin == pytest.approx(1.0)
        assert rep.predicted_infinite_turns

    def test_to_dict(self):
        # the fields but the name and those that are None; a window adds its range
        rep = check_conditions(Params(p=2, n=4, alpha=0, q=5), J)
        window = rep.conditions["classical_window"]
        assert window.to_dict() == {
            "holds": True, "margin": 1.0, "boundary": False, "expression": window.expression,
            "lower": 3.0, "upper": window.upper, "window": "3<n<11.4721"}
        assert rep.conditions["supercritical"].to_dict() == {
            "holds": True, "margin": 2.0, "boundary": False,
            "expression": "q > (np - n + p + p alpha)/(n - p), n > p", "threshold": 3.0}
        doc = rep.to_dict()
        assert doc["params"] == {"p": 2.0, "n": 4.0, "alpha": 0.0, "q": 5.0}
        assert doc["problem"] == "jl" and doc["notes"] == []
        assert doc["characteristic"] == rep.quadratic.to_dict()
        assert list(doc["conditions"]) == sorted(rep.conditions)

    @pytest.mark.parametrize("problem,params,name,expected", [
        # 4q = (p-2)^2: the threshold's denominator vanishes
        (M, Params(p=4, n=5, alpha=0, q=1), "beta_threshold",
         {"threshold": math.inf, "margin": -math.inf, "holds": False}),
        (J, Params(p=2, n=2, alpha=0, q=5), "classical_supercritical",
         {"margin": -4.0, "holds": False}),
    ], ids=["mems-infinite-threshold", "jl-classical-supercritical"])
    def test_edge_margins(self, problem, params, name, expected):
        cond = check_conditions(params, problem).conditions[name].to_dict()
        assert {key: cond.get(key) for key in expected} == expected

    def test_report_always_produced(self):
        # q - p + 1 <= 0 breaks the jl scaling, but the report must not raise
        rep = check_conditions(Params(p=2.5, n=5, alpha=0, q=1.2), J)
        assert not rep.predicted_infinite_turns
        assert not rep.conditions["oscillation"].holds

    @pytest.mark.parametrize("params,problem", [
        (Params(p=4e154, n=3, alpha=0, q=2), M), (Params(p=2, n=4e154, alpha=0, q=2), M),
        (Params(p=2, n=4e154, alpha=0, q=5), J), (Params(p=4e154, n=3, alpha=0, q=4e154), J),
        (Params(p=2, n=3, alpha=1e200, q=5), J),
    ], ids=["mems-p", "mems-n", "jl-n", "jl-p-q", "jl-alpha"])
    def test_report_past_the_float_range(self, params, problem):
        # (p-2)^2, (n-p)^2 or beta^2 leaves the floats: the margins read inf or nan
        rep = check_conditions(params, problem)
        assert not rep.predicted_infinite_turns
        assert any(not math.isfinite(c.margin) for c in rep.conditions.values())

    def test_classical_trio_only_at_p2_alpha0(self):
        rep = check_conditions(Params(p=2.5, n=5, alpha=0, q=4), J)
        assert "classical_window" not in rep.conditions
        rep2 = check_conditions(Params(p=2, n=5, alpha=0.5, q=4), J)
        assert "classical_window" not in rep2.conditions

    def test_mems_low_dimension_note(self):
        rep = check_conditions(Params(p=2, n=2.5, alpha=0, q=0.3), M)
        assert rep.predicted_infinite_turns
        assert any("n < 3" in note for note in rep.notes)
        rep3 = check_conditions(Params(p=2, n=3, alpha=0, q=2), M)
        assert rep3.notes == ()


def _draw_params(rng, problem):
    p = rng.uniform(1.2, 4.0)
    alpha = rng.uniform(0.0, 3.0)
    n = rng.uniform(1.0, 14.0)
    if problem is G:
        return Params(p=p, n=n, alpha=alpha)
    if problem is M:
        return Params(p=p, n=n, alpha=alpha, q=rng.uniform(0.05, 6.0))
    return Params(p=p, n=n, alpha=alpha, q=max(1.0, p - 1.0) + rng.uniform(0.05, 6.0))


class TestInvariants:
    @pytest.mark.parametrize("problem", [G, M, J])
    def test_lambda_inf_substitution_is_t_independent(self, problem):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            params = _draw_params(rng, problem)
            try:
                cf = closed_forms(params, problem)
            except ValidityError:
                continue
            checked += 1
            p, alpha, q = params.p, params.alpha, params.q
            for t in (0.3, 1.0, 2.7, 10.0):
                w0, _ = guiding_eval(cf, t)
                if problem is G:
                    lam = t ** (alpha + p) * math.exp(w0)
                elif problem is M:
                    lam = t ** (alpha + p) / w0 ** (p + q - 1.0)
                else:
                    lam = t ** (p + alpha) * w0 ** (q - p + 1.0)
                assert lam == pytest.approx(cf.lambda_inf, rel=1e-12)

    @pytest.mark.parametrize("problem,cond_name", [
        (G, "dimension_window"),
        (M, "oscillation"),
        (J, "oscillation"),
    ])
    def test_oscillatory_iff_complex_root_condition(self, problem, cond_name):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            params = _draw_params(rng, problem)
            try:
                quad = characteristic_quadratic(params, problem)
            except ValidityError:
                continue
            rep = check_conditions(params, problem)
            cond = rep.conditions[cond_name]
            if abs(cond.margin) < 1e-9 * (1.0 + abs(params.n)):
                continue
            checked += 1
            assert quad.oscillatory == cond.holds, (params, cond)

    def test_prediction_matches_closed_form_bound_p2_alpha0(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 500:
            q = rng.uniform(0.05, 12.0)
            n = rng.uniform(2.001, 40.0)
            bound = 2.0 + 8.0 * q / ((q + 1.0) * (2.0 * math.sqrt(q * (q + 1.0)) - 2.0 * q))
            if abs(n - bound) < 1e-9 * bound:
                continue
            checked += 1
            rep = check_conditions(Params(p=2, n=n, alpha=0, q=q), M)
            assert rep.predicted_infinite_turns == (n < bound), (q, n, bound)

    @pytest.mark.parametrize("problem,cond_name,bracket,expected", [
        (G, "dimension_window", (9.0, 11.0), 10.0),
        (G, "dimension_window", (1.5, 2.5), 2.0),
        (J, "classical_dimension_upper", (10.0, 13.0), 11.47213595499958),
        (M, "beta_threshold", (3.0, 20.0), None),
    ])
    def test_margin_sign_flips_at_printed_boundary(self, problem, cond_name, bracket, expected):
        def margin(n):
            if problem is G:
                params = Params(p=2, n=n, alpha=0)
            elif problem is J:
                params = Params(p=2, n=n, alpha=0, q=5)
            else:
                params = Params(p=2, n=n, alpha=0, q=2)
            return check_conditions(params, problem).conditions[cond_name].margin

        if expected is None:
            # boundary of the fold condition at p=2, alpha=0 in closed form
            q = 2.0
            expected = 2.0 + 8.0 * q / ((q + 1.0) * (2.0 * math.sqrt(q * (q + 1.0)) - 2.0 * q))
        a, b = bracket
        fa = margin(a)
        assert fa * margin(b) < 0
        for _ in range(100):
            mid = 0.5 * (a + b)
            if margin(mid) * fa > 0:
                a = mid
            else:
                b = mid
            if b - a < 1e-12:
                break
        assert 0.5 * (a + b) == pytest.approx(expected, abs=1e-9)


class TestHypothesisProperties:
    @pytest.mark.parametrize("problem", [G, M, J])
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(1.2, 4.0),
        alpha=st.floats(0.0, 3.0),
        n=st.floats(1.0, 16.0),
        q=st.floats(0.05, 8.0),
        q_jl=st.floats(1.01, 10.0),
    )
    def test_named_conditions_agree_with_the_roots(self, problem, p, alpha, n, q, q_jl):
        # the roots r of the linearization about the guiding solution ~ t^g:
        # w oscillates about it where disc < 0 and approaches it where max Re r < g
        params = Params(p=p, n=n, alpha=alpha, q=q_jl if problem is J else q)
        rep = check_conditions(params, problem)
        if rep.quadratic is None:  # jl without the scaling w ~ t^g
            assert problem is J and params.q <= p - 1.0
            assert not rep.predicted_infinite_turns
            return
        quad = rep.quadratic
        _, b, c = quad.coefficients
        gap = max(r.real for r in quad.roots) - class_spec(params, problem).g
        oscillation, decay = quad.discriminant < 0.0, gap < 0.0
        expected = {
            G: {"dimension_window": oscillation},
            M: {"oscillation": oscillation, "guiding_positive": decay},
            J: {"oscillation": oscillation, "supercritical": decay,
                "dimension_window": oscillation and decay},
        }[problem]
        assume(abs(quad.discriminant) > 1e-9 * (b * b + 4.0 * abs(c)) and abs(gap) > 1e-9)
        assume(all(abs(rep.conditions[name].margin) > 1e-9 for name in expected))
        for name, holds in expected.items():
            assert rep.conditions[name].holds == holds, (name, params)
        if problem is M:  # sufficient only: some sets have both and no prediction
            assert not rep.predicted_infinite_turns or (oscillation and decay)
        else:
            assert rep.predicted_infinite_turns == (oscillation and decay)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(1.1, 4.0),
        alpha=st.floats(0.0, 3.0),
        n=st.floats(1.0, 14.0),
        q=st.floats(0.05, 8.0),
    )
    def test_closed_forms_positive_when_valid(self, p, alpha, n, q):
        for problem in (G, M, J):
            params = Params(p=p, n=n, alpha=alpha, q=q)
            try:
                validate_params(params, problem)
                cf = closed_forms(params, problem)
            except (InvalidParamsError, ValidityError):
                continue
            assert cf.coeff > 0
            assert cf.lambda_inf > 0

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(1.1, 4.0),
        alpha=st.floats(0.0, 3.0),
        n=st.floats(1.0, 14.0),
        q=st.floats(0.05, 8.0),
        t=st.floats(0.01, 100.0),
    )
    def test_beta_exponent_matches_guiding_slope(self, p, alpha, n, q, t):
        for problem in (G, M, J):
            params = Params(p=p, n=n, alpha=alpha, q=q)
            try:
                validate_params(params, problem)
                cf = closed_forms(params, problem)
            except (InvalidParamsError, ValidityError):
                continue
            assert cf.beta == beta_exponent(params, problem)
            w0, w0p = guiding_eval(cf, t)
            # logarithmic derivative recovers the exponent (slope for gelfand)
            if problem is G:
                assert t * w0p == pytest.approx(-cf.beta, rel=1e-12)
            elif problem is M:
                assert t * w0p / w0 == pytest.approx(cf.beta, rel=1e-12)
            else:
                assert t * w0p / w0 == pytest.approx(-cf.beta, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(1.1, 4.0), alpha=st.floats(0.0, 3.0), q=st.floats(1.05, 8.0),
           w=st.floats(0.01, 5.0))
    def test_class_spec_gives_the_paper_forms(self, p, alpha, q, w):
        params = Params(p=p, n=3.0, alpha=alpha, q=q)
        for problem, sgn, w_c, f, e in (
            (G, -1.0, 0.0, math.exp(w), None),
            (M, 1.0, 1.0, w**-q, -(p + q - 1.0)),
            (J, -1.0, 1.0, w**q, q - p + 1.0),
        ):
            spec = class_spec(params, problem)
            assert (spec.sgn, spec.w_center, spec.k, spec.E) == (sgn, w_c, alpha + p, e)
            assert spec.f(w) == f
            if problem is J and not q - p + 1.0 > 0.0:
                assert spec.g is None
                with pytest.raises(ValidityError):
                    beta_exponent(params, problem)
            elif problem is G:
                assert spec.g == 0.0
            else:
                # w0 grows like t^beta for mems and decays like t^-beta for jl
                beta = beta_exponent(params, problem)
                assert spec.g == (beta if problem is M else -beta)
