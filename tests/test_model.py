import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_real_roots_ascending(self):
        quad = characteristic_quadratic(Params(p=2, n=20, alpha=0), G)
        r0, r1 = quad.roots
        assert r0.imag == r1.imag == 0.0
        assert r0.real < r1.real

    def test_complex_pair_ordering(self):
        quad = characteristic_quadratic(Params(p=2, n=3, alpha=0), G)
        assert quad.roots[0].imag > 0 > quad.roots[1].imag


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

    def test_mems_example_margins(self):
        rep = check_conditions(Params(p=2, n=3, alpha=0, q=2), M)
        bt = rep.conditions["beta_threshold"]
        assert bt.threshold == pytest.approx((-4.0 + 2.0 * math.sqrt(6.0)) / 8.0, rel=1e-13)
        assert bt.holds
        assert rep.conditions["leading_coefficient"].margin == pytest.approx(8.0)
        assert rep.conditions["decay_exponent"].margin == pytest.approx(1.0)
        assert rep.predicted_infinite_turns

    def test_report_always_produced(self):
        # q - p + 1 <= 0 breaks the jl scaling, but the report must not raise
        rep = check_conditions(Params(p=2.5, n=5, alpha=0, q=1.2), J)
        assert not rep.predicted_infinite_turns
        assert not rep.conditions["oscillation"].holds

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
