import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, OdeSolution, quad, solve_ivp

import pfold
from pfold import ivp
from pfold.ivp import _dop853, _log_phase, _series
from pfold.model import class_spec
from pfold.verify import RESIDUAL_SETS, run_acceptance
from pfold import (
    IntegratorConfig,
    InvalidParamsError,
    Params,
    PhaseStats,
    ProblemClass,
    TruncatedTrajectoryError,
    characteristic_quadratic,
    closed_forms,
    guiding_curvature,
    guiding_eval,
    integrate,
    pohozaev,
    residual,
    startup_state,
)

from conftest import GELFAND3, GELFAND10, JL454, JL_ZERO, MEMS233, fresh

G, M, J = ProblemClass.GELFAND, ProblemClass.MEMS, ProblemClass.JOSEPH_LUNDGREN


class TestStartup:
    def test_gelfand_matches_exact_frozen_solution(self):
        # frozen source: w'' + (2/t) w' + 1 = 0 near 0 solves to w = -t^2/6
        st = startup_state(GELFAND3, G, 1e-3)
        assert st.w == pytest.approx(-(1e-3) ** 2 / 6.0, rel=1e-12)
        assert st.v == pytest.approx(-(1e-3) ** 3 / 3.0, rel=1e-12)

    def test_mems_sign_flipped(self):
        st = startup_state(MEMS233, M, 1e-3)
        assert st.w == pytest.approx(1.0 + (1e-3) ** 2 / 6.0, rel=1e-12)
        assert st.v > 0

    def test_initial_value_limit(self):
        for params, problem, w0 in ((GELFAND3, G, 0.0), (MEMS233, M, 1.0), (JL454, J, 1.0)):
            st = startup_state(params, problem, 1e-12)
            assert abs(st.w - w0) < 1e-20
            assert abs(st.v) < 1e-12 ** params.n

    @pytest.mark.parametrize("p,alpha,n", [(2.0, 0.0, 3.0), (3.0, 1.0, 5.0), (1.5, 0.5, 2.0)])
    def test_kappa_against_quadrature_oracle(self, p, alpha, n):
        # integrate the frozen-source slope |w'|(s) = (s^(alpha+1)/(n+alpha))^(1/(p-1))
        t = 1e-2
        drop, err = quad(
            lambda s: (s ** (alpha + 1.0) / (n + alpha)) ** (1.0 / (p - 1.0)), 0.0, t
        )
        assert err < 1e-14
        st = startup_state(Params(p=p, n=n, alpha=alpha), G, t)
        assert st.w == pytest.approx(-drop, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            startup_state(GELFAND3, G, 0.0)
        with pytest.raises(ValueError):
            startup_state(GELFAND3, G, -1e-3)
        # once State(t=inf, w=-inf, v=-inf)
        with pytest.raises(ValueError, match="positive and finite"):
            startup_state(GELFAND3, G, math.inf)


def _source(params, problem):
    return {G: math.exp, M: lambda w: w**-params.q, J: lambda w: w**params.q}[problem]


def _series_derivatives(series, t):
    """``(w, w', w'')`` of the startup series at ``t``: ``w' = t^e P(tau)``
    with ``e = sigma - 1`` and ``P_k = sigma (k+1) U_k``."""
    sigma, e = series.sigma, series.sigma - 1.0
    tau = t**sigma
    big_p = np.polynomial.Polynomial([sigma * (k + 1.0) * u for k, u in enumerate(series.u)])
    w = series.w_center + tau * np.polynomial.Polynomial(series.u)(tau)
    wp = t**e * big_p(tau)
    wpp = e * t ** (e - 1.0) * big_p(tau) + sigma * t ** (e + sigma - 1.0) * big_p.deriv()(tau)
    return w, wp, wpp


def _check_startup_series(params, problem):
    """The startup series against three oracles: the two-term startup, the
    ODE residual on the series segment, and tight stepping to its end."""
    p, n, alpha = params.p, params.n, params.alpha
    series = _series(params, problem)
    two_term = startup_state(params, problem, 1.0)  # where tau = 1
    assert series.u[0] == pytest.approx(two_term.w - series.w_center, rel=1e-14)
    assert series.v[0] == pytest.approx(two_term.v, rel=1e-14)

    traj = integrate(params, problem, IntegratorConfig(t_max=2.0))
    assert traj.stats[0] == PhaseStats("series", 1, 0, 0)
    # the node holds the series' (w, w') at t1; v = t^m V is read off the same series
    t1 = traj.ts[1]
    w1, wp1, big_v1 = traj._series.state(t1)
    v1 = t1**series.m * big_v1
    assert t1 <= series.reach() and traj._series == series
    assert (traj.ws[1], traj.wprimes[1]) == (w1, wp1)
    source = _source(params, problem)
    for t in np.geomspace(traj.t_start, t1, 12):
        w, wp, wpp = _series_derivatives(series, t)
        assert w == pytest.approx(traj.eval(t)[0], rel=1e-14)
        scale = ((p - 1.0) * abs(wp) ** (p - 2.0) * abs(wpp)
                 + (n - 1.0) / t * abs(wp) ** (p - 1.0) + t**alpha * source(w))
        # measured <= 5.3e-15 over 300 random sweep-range cases
        assert abs(residual(params, problem, w, wp, wpp, t)) <= 1e-12 * scale

    # the two-term start at 1e-8 stepped at a tight tolerance; measured
    # <= 3.6e-12, and the difference shrinks as the reference is tightened
    sgn = 1.0 if problem is M else -1.0

    def rhs(t, w, v):
        arg = v / t ** (n - 1.0)
        return (math.copysign(abs(arg) ** (1.0 / (p - 1.0)), arg),
                sgn * t ** (n + alpha - 1.0) * source(w))

    start = startup_state(params, problem, 1e-8)
    ref = _loop_dop853(rhs, 1e-8, start.w, start.v, t1, 3e-14, (1e-300, 1e-300), 10**6,
                       dense=False)
    _, w_ref, v_ref = ref.end
    assert abs(w1 - w_ref) <= 1e-10 * abs(w_ref - series.w_center)
    assert abs(v1 - v_ref) <= 1e-10 * abs(v_ref)


class TestStartupSeries:
    """The high-order startup series that covers ``[t_start, t1]``."""

    CASES = [(GELFAND3, G), (GELFAND10, G), (MEMS233, M), (JL454, J), (JL_ZERO, J)] + [
        (params, problem) for problem, sets in RESIDUAL_SETS.items() for params in sets]

    @pytest.mark.parametrize("params,problem", CASES)
    def test_against_oracles(self, params, problem):
        _check_startup_series(params, problem)

    @settings(max_examples=25, deadline=None)
    @given(problem=st.sampled_from([G, M, J]), p=st.floats(1.5, 4.0),
           n_minus_p=st.floats(0.05, 12.0),
           alpha=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), uq=st.floats(0.0, 1.0))
    def test_against_oracles_over_the_sweep_ranges(self, problem, p, n_minus_p, alpha, uq):
        q = {G: None, M: 0.5 + 7.5 * uq, J: max(1.0, p - 1.0) + 0.25 + 8.0 * uq}[problem]
        _check_startup_series(Params(p=p, n=p + n_minus_p, alpha=alpha, q=q), problem)

    # JL_ZERO and the zero-terminated cases of the benchmark's sweep (seed 0),
    # with the zero time of a rel_tol = 1e-13 run from the two-term start
    JL_ZEROS = [
        (JL_ZERO, 9.922198432699327),
        (Params(p=3.0255595455378574, n=4.8634037724436565, alpha=0.0, q=2.3357885001600427),
         3.9064862732845076),
        (Params(p=3.1393594840467434, n=12.231464743705589, alpha=0.624282093976559,
                q=2.758741076581467), 7.606995813047185),
        (Params(p=3.71213208603684, n=4.057841164708654, alpha=0.0, q=3.679337406544268),
         3.4517677432505507),
        (Params(p=1.9255672759729152, n=6.064783599703323, alpha=1.49484468122415,
                q=2.3481829689147284), 6.355660355998098),
        (Params(p=3.8210187927632977, n=5.178766268828344, alpha=0.0, q=4.529369989179859),
         4.924802747610039),
        (Params(p=3.5808549211048404, n=4.248973410863678, alpha=1.8316354792077951,
                q=8.301021750367871), 6.018327557018307),
        (Params(p=2.5515778467518326, n=4.778116834508401, alpha=0.0, q=4.202605025122394),
         34.85932987184531),
    ]

    @pytest.mark.parametrize("floor", [ivp._JL_SERIES_FLOOR, 0.95])
    @pytest.mark.parametrize("params,t_zero", JL_ZEROS)
    def test_jl_zero_times(self, params, t_zero, floor, monkeypatch):
        # at 0.95 the floor, not the series' reach, ends the series segment
        monkeypatch.setattr(ivp, "_JL_SERIES_FLOOR", floor)
        traj = integrate(params, J)
        assert traj.termination == "zero"
        assert traj.zero_time == pytest.approx(t_zero, rel=1e-9)
        assert traj.ws[1] > floor or traj.ws[1] == pytest.approx(floor, rel=1e-9)


def _rk4_log_time(params, problem, t_start, t_end, nsteps):
    """Independent fixed-step classical RK4 in s = ln t on the flux system."""
    p, n, alpha, q = params.p, params.n, params.alpha, params.q
    sgn = 1.0 if problem is M else -1.0

    def source(w):
        if problem is G:
            return math.exp(w)
        if problem is M:
            return w**-q
        return max(w, 0.0) ** q

    def f(s, y):
        t = math.exp(s)
        w, v = y
        arg = v / t ** (n - 1.0)
        wp = math.copysign(abs(arg) ** (1.0 / (p - 1.0)), arg) if arg else 0.0
        return np.array([t * wp, sgn * t ** (n + alpha) * source(w)])

    sigma = (alpha + p) / (p - 1.0)
    kappa = (p - 1.0) / (alpha + p) * (1.0 / (n + alpha)) ** (1.0 / (p - 1.0))
    wc = 0.0 if problem is G else 1.0
    y = np.array([wc + sgn * kappa * t_start**sigma,
                  sgn * t_start ** (n + alpha) / (n + alpha)])
    s, s_end = math.log(t_start), math.log(t_end)
    h = (s_end - s) / nsteps
    out = [(math.exp(s), y.copy())]
    for _ in range(nsteps):
        k1 = f(s, y)
        k2 = f(s + h / 2.0, y + h / 2.0 * k1)
        k3 = f(s + h / 2.0, y + h / 2.0 * k2)
        k4 = f(s + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
        out.append((math.exp(s), y.copy()))
    return out


class TestIntegrate:
    def test_gelfand_approaches_guiding_solution(self, gelfand3_traj):
        cf = closed_forms(GELFAND3, G)
        w, _ = gelfand3_traj.eval(1e3)
        w0, _ = guiding_eval(cf, 1e3)
        assert abs(w - w0) < 0.05

    def test_gelfand_against_rk4_oracle(self, gelfand3_traj):
        oracle = _rk4_log_time(GELFAND3, G, 1e-6, 1e3, 5000)
        w_oracle = oracle[-1][1][0]
        w, _ = gelfand3_traj.eval(1e3)
        assert w == pytest.approx(w_oracle, rel=1e-8)

    def test_jl_supercritical_stays_positive(self, jl_traj):
        assert jl_traj.termination == "t_max"
        assert jl_traj.t_end == pytest.approx(1e4)
        assert np.all(jl_traj.ws > 0.0)
        assert np.all(jl_traj.wprimes[1:] < 0.0)

    def test_jl_zero_event_against_fixed_step_oracle(self, jl_zero_traj):
        assert jl_zero_traj.termination == "zero"
        t0 = jl_zero_traj.zero_time
        w_at, _ = jl_zero_traj.eval(t0)
        assert abs(w_at) <= 1e-10
        oracle = _rk4_log_time(JL_ZERO, J, 1e-6, 20.0, 50000)
        bracket = [
            (a[0], b[0]) for a, b in zip(oracle[:-1], oracle[1:])
            if a[1][0] > 0.0 >= b[1][0]
        ]
        assert len(bracket) == 1
        lo, hi = bracket[0]
        assert lo <= t0 <= hi
        assert hi - lo < 1e-3 * t0

    def test_monotonicity_at_nodes_and_dense_points(self, gelfand3_traj, mems_traj, jl_traj):
        rng = np.random.default_rng(11)
        for traj, sign in ((gelfand3_traj, -1.0), (mems_traj, 1.0), (jl_traj, -1.0)):
            assert np.all(sign * traj.wprimes[1:] > 0.0)
            ts = np.exp(rng.uniform(np.log(traj.t_start * 1.01),
                                    np.log(traj.t_end * 0.99), 100))
            _, wp = traj.eval_many(ts)
            assert np.all(sign * wp > 0.0)

    def test_startup_consistency_across_cutoffs(self):
        for params, problem in ((GELFAND3, G), (MEMS233, M), (JL454, J)):
            a = integrate(params, problem, IntegratorConfig(t_start=1e-6, t_max=2e-6))
            b = integrate(params, problem, IntegratorConfig(t_start=2.5e-7, t_max=2e-6))
            # both end at their node t_max = 2e-6
            wa, wpa = a.ws[-1], a.wprimes[-1]
            wb, wpb = b.ws[-1], b.wprimes[-1]
            assert abs(wa - wb) <= 1e-6 * max(abs(wa), abs(wb))
            assert abs(wpa - wpb) <= 1e-6 * max(abs(wpa), abs(wpb))

    def test_self_convergence_under_halved_tolerances(self, gelfand3_traj):
        fine = integrate(GELFAND3, G, IntegratorConfig(rel_tol=0.5e-10, abs_tol=0.5e-12))
        wa, _ = gelfand3_traj.eval(1e4)
        wb, _ = fine.eval(1e4)
        assert abs(wa - wb) < 10.0 * (0.5e-10 * abs(wb) + 0.5e-12)

    def test_max_steps_truncation_carries_partial_data(self):
        with pytest.raises(TruncatedTrajectoryError) as info:
            integrate(GELFAND3, G, IntegratorConfig(max_steps=12))
        traj = info.value.trajectory
        assert traj.termination == "truncated"
        assert traj.t_end < 1e4
        assert len(traj.ts) > 1
        assert sum(s.accepted for s in traj.stats) == 12

    def test_invalid_config(self):
        with pytest.raises(InvalidParamsError):
            integrate(GELFAND3, G, IntegratorConfig(t_start=1.0, t_max=0.5))
        with pytest.raises(InvalidParamsError):
            integrate(GELFAND3, G, IntegratorConfig(rel_tol=-1e-10))
        # the horizon and the tolerances must be finite
        for bad in (dict(t_max=math.inf), dict(rel_tol=math.inf), dict(abs_tol=math.inf),
                    dict(t_max=math.nan), dict(abs_tol=math.nan)):
            with pytest.raises(InvalidParamsError):
                integrate(GELFAND3, G, IntegratorConfig(**bad))
        # the startup series reaches t = 1.36 here
        with pytest.raises(InvalidParamsError, match="reach"):
            integrate(GELFAND3, G, IntegratorConfig(t_start=3.0))

    @pytest.mark.parametrize("bad,match", [
        (dict(max_steps=0), "max_steps"),
        # NaN passed a test of max_steps < 1 and switched the step budget off
        (dict(max_steps=math.nan), "max_steps"),
        # inf passed a test of max_steps >= 1 and switched the budget off too;
        # 2.5 ran out as "max_steps = 2.5 exhausted"
        (dict(max_steps=math.inf), "max_steps must be an integer"),
        (dict(max_steps=2.5), "max_steps must be an integer"),
        # an int horizon past the largest float
        (dict(t_max=10**400), "largest float"),
    ], ids=["max_steps-0", "max_steps-nan", "max_steps-inf", "max_steps-2.5",
            "t_max-past-the-floats"])
    def test_invalid_config_value(self, bad, match):
        with pytest.raises(InvalidParamsError, match=match):
            integrate(GELFAND3, G, IntegratorConfig(**bad))

    def test_integer_horizon_runs_as_its_float(self):
        # an int too large for int64 once made the node times an object array
        traj = integrate(GELFAND3, G, IntegratorConfig(t_max=10**300))
        ref = integrate(GELFAND3, G, IntegratorConfig(t_max=1e300))
        assert type(traj.config.t_max) is float and traj.t_end == 1e300
        for a, b in ((traj.ts, ref.ts), (traj.ws, ref.ws), (traj.wprimes, ref.wprimes)):
            np.testing.assert_array_equal(a, b)
        assert pfold.turning_points(traj) == pfold.turning_points(ref)

    def test_t_start_at_the_series_reach(self):
        # the series segment always holds one node past t_start
        reach = _series(GELFAND3, G).reach()
        with pytest.raises(InvalidParamsError, match="reach"):
            integrate(GELFAND3, G, IntegratorConfig(t_start=reach))
        below = math.nextafter(reach, 0.0)
        assert integrate(GELFAND3, G, IntegratorConfig(t_start=below, t_max=10.0)).ts[1] == reach

    def test_matches_flux_stepping_in_t(self):
        a = integrate(GELFAND3, G, IntegratorConfig(t_max=100.0))
        wa, wpa = a.eval(100.0)
        wb, wpb = _flux_state(a, _scipy_flux_reference(a, 100.0), 100.0)
        assert wa == pytest.approx(wb, rel=1e-8)
        assert wpa == pytest.approx(wpb, rel=1e-8)
        assert [s.phase for s in a.stats] == ["series", "log"]

    def test_stats_count_the_work(self, gelfand3_traj, mems_traj, jl_zero_traj):
        for traj in (gelfand3_traj, mems_traj, jl_zero_traj):
            assert sum(s.accepted for s in traj.stats) == len(traj.ts) - 1
            # the series segment is one node, and evaluates no right-hand side
            assert traj.stats[0] == PhaseStats("series", 1, 0, 0)
            for s in traj.stats[1:]:
                # 2 evaluations to start; 11 per attempt, plus 4 per accepted
                # step for its end point and the 3 extra dense-output stages
                assert s.nfev == 2 + 15 * s.accepted + 11 * s.rejected
        assert sum(s.rejected for s in jl_zero_traj.stats) > 0

    def test_stats_step_range_is_the_node_spacing(self, gelfand3_traj, mems_traj, jl_traj):
        for traj in (gelfand3_traj, mems_traj, jl_traj):
            series, log = traj.stats
            assert series.min_step is None and series.max_step is None
            # nodes past the series one are exp(x) of the steps' ends (the last is t_max)
            spacing = np.diff(np.log(traj.ts[1:]))
            assert log.min_step == pytest.approx(spacing.min(), rel=1e-9)
            assert log.max_step == pytest.approx(spacing.max(), rel=1e-9)
            assert log.min_step < log.max_step
        with pytest.raises(TruncatedTrajectoryError) as info:  # a log phase without a step
            integrate(GELFAND3, G, IntegratorConfig(max_steps=1))
        log = info.value.trajectory.stats[1]
        assert log.accepted == 0 and log.min_step is None and log.max_step is None

    @pytest.mark.parametrize("params,problem,config,error,match", [
        # c = p - n - g(p-1) = -1997 and -496 with t1 = 0.61 and 0.22: t1^c overflows
        (Params(p=5, n=2000, alpha=0, q=5), M, None, ivp.IntegrationError, r"t1\^c overflow"),
        (Params(p=10, n=500, alpha=0, q=5), M, None, ivp.IntegrationError, r"t1\^c overflow"),
        # g = -20000: t1^-g overflows
        (Params(p=2, n=3, alpha=0, q=1.0001), J, None, ivp.IntegrationError, r"t1\^-g"),
        # mems with a small q: w or t w' leaves the floats at a node, from t = 7e33 on
        (Params(p=1.01, n=3, alpha=0, q=0.1), M, IntegratorConfig(t_max=1e300),
         ivp.IntegrationError, r"node at t = \S+e\+33 leaves the float range in t w'$"),
        (Params(p=2, n=3, alpha=0, q=0.1), M, IntegratorConfig(t_max=1e300),
         ivp.IntegrationError, r"node at t = \S+e\+169 leaves the float range in w, t w'$"),
        # t w' ~ 2.5 w ~ t^2.5 leaves them near t = 1e123, and w a factor 1.44
        # later; the first node past both is at 5.7e123
        (Params(p=1.5, n=2, alpha=0, q=0.1), M, IntegratorConfig(t_max=1e300),
         ivp.IntegrationError, r"node at t = \S+e\+123 leaves the float range in w, t w'$"),
        # 1/(p-1) = 10000: the steps whose stages overflow (Z^10000) are
        # rejected, until t w' ~ Z^10000 itself leaves the floats at a node
        (Params(p=1.0001, n=1, alpha=100, q=0.1), M, None, ivp.IntegrationError,
         r"node at t = 1\.9629207315103925 leaves the float range in t w'$"),
    ])
    def test_out_of_float_range_is_named(self, params, problem, config, error, match):
        with pytest.raises(error, match=match):
            integrate(params, problem, config)

    @pytest.mark.parametrize("params,problem", [
        (Params(p=1.0001, n=3, alpha=0), G), (Params(p=1.0001, n=3, alpha=0, q=0.5), M),
    ], ids=["gelfand", "mems"])
    def test_near_p_one_reaches_t_max(self, params, problem):
        # 1/(p-1) = 10000: phiinv(Z) = Z^10000 overflows in trial stages of the
        # log phase, which are rejected steps; the folds follow the spiral's law
        traj = integrate(params, problem)
        assert traj.termination == "t_max" and traj.t_end == 1e4
        assert traj.stats[1].rejected > 0
        turns = pfold.turning_points(traj)
        assert len(turns) > 200
        r = characteristic_quadratic(params, problem).roots[0]
        ts = [tp.t_star for tp in turns[-6:]]
        for a, b in zip(ts[:-1], ts[1:]):
            assert b / a == pytest.approx(math.exp(math.pi / abs(r.imag)), rel=1e-3)

    def test_overflowing_trial_stage_is_a_rejected_step(self, monkeypatch):
        # gelfand (1.001, 3, 0) with the step cap scaled by 0.99: Z^1000 of a
        # trial stage overflows, which once ended the run
        log_phase = ivp._log_phase

        def scaled(params, problem):
            rhs, g, c, cap, lam_rhs = log_phase(params, problem)
            return rhs, g, c, 0.99 * cap, lam_rhs

        monkeypatch.setattr(ivp, "_log_phase", scaled)
        traj = integrate(Params(p=1.001, n=3, alpha=0), G)
        assert traj.termination == "t_max" and traj.t_end == 1e4
        assert traj.stats[1].rejected > 0

    def test_overflowing_dense_stage_is_a_rejected_step(self, monkeypatch):
        # mems (1.0001, 1, 100, 0.1): Z^10000 overflows in the end slope or a
        # dense-output stage of steps whose trial stages fit the floats, which
        # once ended the run at t1; the run returns, and the nodes are checked
        runs = []
        original = ivp._dop853

        def spy(*args, **kwargs):
            runs.append((args, original(*args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(ivp, "_dop853", spy)
        with pytest.raises(ivp.IntegrationError, match="node at t = "):
            integrate(Params(p=1.0001, n=1, alpha=100, q=0.1), M)
        (args, run), = runs
        assert run.rejected > 0 and run.end[0] > args[1]  # past ln t1
        # an overflow after the 11 trial stages of an attempt
        assert run.nfev > 2 + 15 * run.accepted + 11 * run.rejected

    def test_overflowing_first_slope_is_an_integration_error(self):
        # phiinv(10) = 10^10000 at the start: no step to shrink
        rhs = _log_phase(Params(p=1.0001, n=3, alpha=0), G)[0]
        with pytest.raises(ivp.IntegrationError, match=r"t-coordinate 0\.0$"):
            _dop853(rhs, 0.0, 0.0, 10.0, 1.0, 1e-10, (1e-12, 1e-12), 10)

    def test_empty_log_phase_interval_ends_at_the_series(self):
        # the series' reach is one ulp below t_max, with the same logarithm
        params = Params(p=1.6213969982196472, n=11.973479921497532, alpha=0)
        t_max = 3.3306321526638416
        reach = _series(params, G).reach()
        assert reach < t_max and math.log(reach) == math.log(t_max)
        traj = integrate(params, G, IntegratorConfig(t_max=t_max))
        assert traj.termination == "t_max" and traj.t_end == t_max
        assert [s.phase for s in traj.stats] == ["series"] and len(traj.ts) == 2

    @pytest.mark.parametrize("params,problem", [(GELFAND3, G), (Params(p=3, n=8, alpha=0, q=2), M)])
    def test_tiny_t_start_gives_finite_nodes(self, params, problem):
        # t_start^(n-1) underflows to 0, which nothing divides by; the series
        # node at t_start is w(0) to double precision
        traj = integrate(params, problem, IntegratorConfig(t_start=1e-300))
        assert traj.t_start == 1e-300 and traj.t_end == 1e4
        assert traj.ws[0] == (1.0 if problem is M else 0.0) and traj.wprimes[0] == 0.0
        assert np.all(np.isfinite(traj.ws)) and np.all(np.isfinite(traj.wprimes))
        # and past the series node the trajectory is the one from the default start
        ref = integrate(params, problem)
        assert np.array_equal(traj.ts[1:], ref.ts[1:]) and np.array_equal(traj.ws[1:], ref.ws[1:])

    @pytest.mark.parametrize("params,problem,reach", [
        # sigma = 101: u_6 ... underflow to 0; the last nonzero term bounds the reach
        (Params(p=1.01, n=3, alpha=0, q=2), M, 2.7182948112858947),
        # sigma = 1001: every u_k is -0.0; tau = t^sigma stays below 1e300
        (Params(p=1.001, n=3, alpha=0), G, 1e300 ** (1.0 / 1001.0000000001102)),
    ], ids=["mems", "gelfand"])
    def test_series_with_underflowing_coefficients(self, params, problem, reach):
        assert _series(params, problem).reach() == pytest.approx(reach, rel=1e-12)
        traj = integrate(params, problem)
        assert traj.ts[1] == pytest.approx(reach, rel=1e-12) and traj.t_end == 1e4
        assert np.all(np.isfinite(traj.ws)) and np.all(np.isfinite(traj.wprimes))
        assert np.all(traj.ws >= 1.0) if problem is M else np.all(traj.ws <= 0.0)
        # the series segment and the log phase, dense, and a curve point shot
        grid = np.geomspace(traj.t_start, traj.t_end, 401)
        w, wp = traj.eval_many(grid)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(wp))
        # where t^sigma underflows, w is w(0) to double precision
        w_c = 1.0 if problem is M else 0.0
        assert traj.eval(1e-5) == pytest.approx((w_c, 0.0), abs=1e-12)
        assert pfold.curve.turning_points(traj)
        w3, _ = traj.eval(3.0)
        lam, u0 = pfold.curve.curve_values(problem, params, 3.0, w3)
        assert pfold.curve.shooting_check(params, problem,
                                          pfold.curve.CurvePoint(3.0, lam, u0, 0.0)) < 1e-6


def _scipy_dop853_reference(params, problem, cfg, t1, w1, v1):
    """The generating IVP stepped by scipy's DOP853 as :func:`integrate`
    steps it: the Emden-Fowler system in ``ln t`` from the state
    ``(w1, v1)`` at the end ``t1`` of the series segment, with the same step
    cap and the absolute tolerance in the units of ``(w, v)`` at ``t1``.
    Gelfand steps ``(lambda, Z)``, ``lambda = t^k e^W``, where ``n > p``
    and ``|w1| > rel_tol``.

    Returns the accepted steps per stepped phase and a vectorized ``(w, w')``
    on ``[t1, t_max]``.
    """
    p, n, alpha, q = params.p, params.n, params.alpha, params.q
    k = alpha + p
    sgn = 1.0 if problem is M else -1.0
    source = {G: math.exp, M: lambda w: w**-q, J: lambda w: max(w, 0.0) ** q}[problem]
    g = 0.0 if problem is G else sgn * closed_forms(params, problem).beta
    c = p - n - g * (p - 1.0)
    lam = problem is G and n > p and abs(w1) > cfg.rel_tol

    def phiinv(s):
        return math.copysign(abs(s) ** (1.0 / (p - 1.0)), s) if s else 0.0

    def rhs(s, y):
        # W = w t^-g (or lambda = t^k e^W), Z = v t^c
        if lam:
            return (y[0] * (k + phiinv(y[1])), c * y[1] - y[0])
        if problem is G:
            return (phiinv(y[1]), c * y[1] - math.exp(k * s + y[0]))
        return (-g * y[0] + phiinv(y[1]), c * y[1] + sgn * source(y[0]))

    log_step = _log_phase(params, problem)[3]  # the step cap, as integrate takes it
    # abs_tol in the units of (w, v) at t1; lambda's error is held relative
    x0 = math.log(t1)
    start = np.array([math.exp(k * x0 + w1) if lam else w1 * t1**-g, v1 * t1**c])
    atol = cfg.abs_tol * np.array([0.0 if lam else t1**-g, t1**c])
    solver = DOP853(rhs, x0, start, math.log(cfg.t_max),
                    rtol=cfg.rel_tol, atol=atol, max_step=log_step)
    xs, interps = [x0], []
    while solver.status == "running":
        solver.step()
        xs.append(solver.t)
        interps.append(solver.dense_output())
    assert solver.status == "finished"
    sol = OdeSolution(np.array(xs), interps)

    def dense(ts):
        big_w, z = sol(np.log(ts))
        if lam:
            big_w = np.log(big_w) - k * np.log(ts)
        w, v = big_w * ts**g, z * ts**-c
        arg = v / ts ** (n - 1.0)
        return w, np.sign(arg) * np.abs(arg) ** (1.0 / (p - 1.0))

    return [len(interps)], dense


def _series_node(traj):
    """``(w, v)`` of the series node of ``traj``, with the flux ``v = t^m V``."""
    t1 = traj.ts[1]
    w1, _, big_v1 = traj._series.state(t1)
    return w1, t1**traj._series.m * big_v1


def _flux_rhs(params, problem):
    """The flux system ``(w, v)' = (phiinv(v / t^(n-1)), sgn t^(n+alpha-1) f(w))``,
    the radial form with ``f``'s argument ``0 - (-1) w``, as acceptance row 6
    steps it."""
    spec = class_spec(params, problem)
    return ivp._radial_rhs(params, spec, spec.sgn, 0.0, -1.0)


def _scipy_flux_reference(traj, t_end):
    """The flux system ``(w, v)`` stepped in ``t`` by scipy's DOP853 at
    ``rtol = 1e-13`` from the series node of ``traj`` to ``t_end``, stopping
    at a zero of ``w``."""
    rhs = _flux_rhs(traj.params, traj.problem)
    w1, v1 = _series_node(traj)

    def zero(t, y):
        return y[0]

    zero.terminal, zero.direction = True, -1.0
    sol = solve_ivp(lambda t, y: rhs(t, *y), (traj.ts[1], t_end), [w1, v1],
                    method="DOP853", rtol=1e-13, atol=1e-300, dense_output=True, events=zero)
    assert sol.status in (0, 1), sol.message
    return sol


def _flux_state(traj, sol, t):
    """``(w, w')`` of the flux reference ``sol`` at ``t``: ``w' = phiinv(v / t^(n-1))``."""
    w, v = sol.sol(t)
    p, n = traj.params.p, traj.params.n
    arg = v / t ** (n - 1.0)
    return w, np.sign(arg) * np.abs(arg) ** (1.0 / (p - 1.0))


class TestOneRootFinder:
    """``ivp._regula_falsi`` refines every root: events on the dense rows, the
    zero of ``w`` that ends a ``jl`` run, and the ``jl`` series floor."""

    @staticmethod
    def _power(root, k):
        """``(c - root)^k`` rounded once from its exact value, its measure
        ``c`` and ``c``."""
        return lambda c: (float((Fraction(c) - root) ** k), c, c)

    @pytest.mark.parametrize("k", [1, 3])
    def test_full_precision_is_the_float_nearest_the_root(self, k):
        # 1/3 lies between two floats; float(1/3) is the nearer
        fn = self._power(Fraction(1, 3), k)
        assert ivp._regula_falsi(fn, 0.0, fn(0.0)[0], 0.0, 1.0, fn(1.0)[0], 1.0, 0.0) == 1.0 / 3.0
        # a bracket that is already two adjacent floats
        a = 1.0 / 3.0
        b = math.nextafter(a, 1.0)
        assert ivp._regula_falsi(fn, a, fn(a)[0], a, b, fn(b)[0], b, 0.0) == a

    @pytest.mark.parametrize("k", [1, 3])
    def test_stops_at_the_tolerance(self, k):
        fn = self._power(Fraction(3, 10), k)
        root = ivp._regula_falsi(fn, 0.0, fn(0.0)[0], 0.0, 1.0, fn(1.0)[0], 1.0, 1e-6)
        assert abs(root - 0.3) <= 1e-6

    @pytest.mark.parametrize("params", [params for params, _ in TestStartupSeries.JL_ZEROS])
    def test_zero_of_w_to_full_precision(self, params):
        # the zero that ends JL_ZERO and the sweep's jl runs, against a bisection of the
        # last dense row in x = ln t to two adjacent floats
        traj = integrate(params, J)
        assert traj.termination == "zero"
        row = traj._rows.table[-1].tolist()

        def big_w(x):
            return ivp._dense(row, (x - row[0]) / row[1])[0]

        a, b = row[0], row[0] + row[1]
        assert big_w(a) > 0.0 >= big_w(b)
        while a < 0.5 * (a + b) < b:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if big_w(mid) > 0.0 else (a, mid)
        x_zero = min((a, b), key=lambda x: abs(big_w(x)))
        assert abs(math.log(traj.t_end) - x_zero) <= 4.0 * math.ulp(x_zero)
        largest = max(abs(big_w(x)) for x in np.linspace(row[0], row[0] + row[1], 33).tolist())
        assert abs(traj.ws[-1] * traj.t_end**-traj._rows.g) <= 1e-15 * largest

    def test_series_floor(self):
        # sweep case jl-6: w falls below 1/2 within the series' reach
        params = TestStartupSeries.JL_ZEROS[1][0]
        traj = integrate(params, J)
        t1 = traj.ts[1]
        assert t1 < _series(params, J).reach()
        assert abs(traj.ws[1] - ivp._JL_SERIES_FLOOR) <= 1e-12

    def test_loop_calls_no_helper_while_stepping(self):
        rhs = _log_phase(JL_ZERO, J)[0]
        loop = ivp._program(rhs.form).source.split("while x != x_end:", 1)[1]
        called = set(re.findall(r"\b(\w+)\(", re.sub(r"#.*", "", loop)))
        assert called == {"nextafter", "IntegrationError", "sqrt", "isfinite", "append", "_Run"}


class TestAgainstScipyDop853:
    """The in-repo stepper takes scipy's steps: same tableau, controller and
    schedule, so only rounding in the error sums separates the two."""

    @pytest.mark.parametrize("t_max", [1e4, 1e8])
    @pytest.mark.parametrize("params,problem", [
        (GELFAND3, G), (GELFAND10, G), (MEMS233, M), (JL454, J),
        (Params(p=3, n=5, alpha=1), G),
        (Params(p=2, n=1.5, alpha=0), G),  # no fixed point: (W, Z)
    ])
    def test_same_steps_and_dense_values(self, params, problem, t_max):
        cfg = IntegratorConfig(t_max=t_max)
        traj = integrate(params, problem, cfg)
        w1, v1 = _series_node(traj)
        counts, dense = _scipy_dop853_reference(params, problem, cfg, traj.ts[1], w1, v1)
        assert [s.accepted for s in traj.stats if s.phase != "series"] == counts
        grid = np.geomspace(traj.ts[1], t_max, 500)
        w, wp = traj.eval_many(grid)
        w_ref, wp_ref = dense(grid)
        np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(wp, wp_ref, rtol=1e-11, atol=0.0)


class TestShoot:
    @pytest.mark.parametrize("params,problem", [(GELFAND3, G), (MEMS233, M), (JL454, J)],
                             ids=["gelfand", "mems", "jl"])
    def test_flux_run_starts_at_startup_state(self, params, problem):
        # acceptance row 6's run: the radius rule gives t = 1e-6 for these
        # sets, and the start there is startup_state's, bit for bit
        spec = class_spec(params, problem)
        st = startup_state(params, problem, 1e-6)
        ref = _dop853(_flux_rhs(params, problem), st.t, st.w, st.v, 0.5, 1e-13, (1e-300, 1e-300),
                      10**5, dense=False)
        shot = ivp._shoot(params, spec, spec.sgn, 0.0, -1.0, spec.w_center, 0.5, 1e-13, 1e-300,
                          10**5)
        assert repr(shot) == repr(ref.end[1:])

    def test_exhausted_budget_raises(self):
        spec = class_spec(GELFAND3, G)
        with pytest.raises(ivp.IntegrationError, match="exhausted 3 steps"):
            ivp._shoot(GELFAND3, spec, -1.0, 0.0, -1.0, 0.0, 1.0, 1e-12, 1e-14, 3)


class TestNonFiniteStart:
    """A start that is not finite raises, before the loop, whose step size
    would be NaN there and pass every test of it.  Each run is made in a child
    interpreter, so that one that never returns fails instead of hanging."""

    @pytest.mark.parametrize("start,x", [
        ("1e-6, math.nan, 0.0", "1e-06"), ("1e-6, 0.0, math.inf", "1e-06"),
        ("math.nan, 0.0, 0.0", "nan"),
    ], ids=["w-nan", "v-inf", "x-nan"])
    def test_raises_naming_x(self, start, x):
        code = ("import math\nfrom pfold import Params, ProblemClass, IntegrationError\n"
                "from pfold.ivp import _dop853, _radial_rhs\n"
                "from pfold.model import class_spec\n"
                "params = Params(p=2, n=3, alpha=0)\n"
                "spec = class_spec(params, ProblemClass.GELFAND)\n"
                "rhs = _radial_rhs(params, spec, spec.sgn, 0.0, -1.0)\n"
                "try:\n"
                f"    _dop853(rhs, {start}, 1.0, 1e-10, (1e-12, 1e-12), 1000, dense=False)\n"
                "except IntegrationError as exc:\n"
                "    print(exc)\n")
        assert fresh(code, timeout=60).startswith(f"non-finite start at t-coordinate {x}:")


def _linear_step(z):
    """The dense row ``(x0, h, y0, F0, ..., F6)`` of one DOP853 step of
    ``y' = z y`` (``z`` a number or an array) from ``y = 1`` with ``h = 1``,
    with 0 in the second component, as the generated loop forms it from the
    stages ``k_0 .. k_15``; row 12 of ``_A`` is the weights ``b``, so
    ``k_12`` is the slope at the step's end."""
    k = []
    for row in ivp._A:
        k.append(z * (1.0 + sum(a * k[j] for j, a in row)))
    delta = k[12] / z - 1.0
    f = [delta, k[0] - delta, 2.0 * delta - (k[12] + k[0])]
    f += [sum(d * k[j] for j, d in row) for row in ivp._D]
    return [0.0, 1.0, 1.0, 0.0, *(x for fi in f for x in (fi, 0.0))]


def _left_half_disc(radius, inner=0.0):
    """Points ``z`` with ``inner <= |z| <= radius`` and ``Re z <= 0``."""
    r = np.linspace(inner, radius, 101)[:, None]
    return (r * np.exp(1j * np.linspace(np.pi / 2, 1.5 * np.pi, 121))[None, :]).ravel()


class TestStepCap:
    """The radii of the log-phase step cap against DOP853's tableau, and the
    steps the cap costs."""

    def test_stability_radius_from_the_tableau(self):
        # R(z) = 1 + sum_k gamma_k z^k with gamma_k = b^T A^(k-1) 1 over the 12 stages
        a = np.zeros((12, 12))
        for s, row in enumerate(ivp._A[:12]):
            for j, coeff in row:
                a[s, j] = coeff
        b = np.zeros(12)
        for j, coeff in ivp._A[12]:
            b[j] = coeff
        gammas = [b @ np.linalg.matrix_power(a, k - 1) @ np.ones(12) for k in range(1, 13)]
        for k, gamma in enumerate(gammas[:8], 1):
            assert gamma == pytest.approx(1.0 / math.factorial(k), rel=1e-12)
        assert gammas[8] != pytest.approx(1.0 / math.factorial(9), rel=1e-3)  # order 8 exactly

        def stability(z):
            return 1.0 + sum(gamma * z**k for k, gamma in enumerate(gammas, 1))

        # |R| < 1 on the closed left half-disc; near 0, R = e^z + O(z^9) holds it
        # only to rounding
        assert np.abs(stability(_left_half_disc(ivp._STABLE_RADIUS, 0.2))).max() < 1.0
        assert np.abs(stability(_left_half_disc(0.2))).max() <= 1.0 + 4 * np.finfo(float).eps
        assert abs(stability(-5.0)) == pytest.approx(0.057, abs=5e-4)
        assert abs(stability(5.0j)) == pytest.approx(0.83, abs=5e-3)
        # and the region ends before 6 on the imaginary axis and 6.5 on the real one
        assert abs(stability(6.0j)) > 1.0 and abs(stability(-6.5)) > 1.0

    def test_dense_output_radius_from_the_tableau(self):
        def worst(zs):
            z = np.asarray(zs)[np.asarray(zs) != 0, None]
            thetas = np.linspace(0.0, 1.0, 41)
            return np.abs(ivp._dense(_linear_step(z), thetas)[0] - np.exp(thetas * z)).max()

        # the rows follow exp(theta z) on the half-disc of the slower mode, and
        # a spiral's rotation up to the spin bound; not at the stability radius
        assert worst(_left_half_disc(ivp._DENSE_RADIUS)) < 0.02
        assert worst(1j * np.linspace(0.0, ivp._SPIN_STEP, 21)) < 5e-4
        assert worst([1j * ivp._STABLE_RADIUS]) > 1.0

    @pytest.mark.parametrize("params,problem", [
        (Params(p=2.4283181876816653, n=14.195086345388392, alpha=1.7384374541361232,
                q=6.8418385362698855), M),
        (Params(p=2.816833809865096, n=10.629122105121105, alpha=0.0, q=5.480361535293318), J),
        (Params(p=2.244400300483457, n=8.178583820804674, alpha=1.2465334954912453,
                q=9.016045346294081), J),
        (Params(p=3.2054414640128357, n=11.963847754132011, alpha=0.0, q=9.642221379215627), J),
    ], ids=["mems-7", "jl-11", "jl-12", "jl-16"])
    def test_an_ulp_of_the_roots_moves_no_node(self, params, problem, monkeypatch):
        # sweep seed-0 cases whose nodes hung on the last bit of an unrounded cap
        ref = integrate(params, problem)
        cap = _log_phase(params, problem)[3]
        assert math.frexp(cap)[0] * 256.0 == int(math.frexp(cap)[0] * 256.0)  # 8 bits
        quadratic = ivp.characteristic_quadratic
        for toward in (math.inf, -math.inf):
            def nudged(params, problem, toward=toward):
                quad = quadratic(params, problem)
                roots = tuple(complex(math.nextafter(r.real, toward),
                                      math.nextafter(r.imag, toward) if r.imag else 0.0)
                              for r in quad.roots)
                return dataclasses.replace(quad, roots=roots)

            monkeypatch.setattr(ivp, "characteristic_quadratic", nudged)
            assert _log_phase(params, problem)[3] == cap
            traj = integrate(params, problem)
            for name in ("ts", "ws", "wprimes"):
                assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
            assert np.array_equal(traj._rows.table, ref._rows.table)

    # the damped fold stepped in (W, Z): at rel_tol = 1e-13 and abs_tol = 1e-15,
    # and at the default tolerances
    TIGHT_FOLD, W_ROWS_FOLD = 54.619705477447596, 54.61970177737423

    @pytest.mark.parametrize("n,p,accepted,capped,folds", [
        (10.0, 2.0, 52, 14, []),  # double root: the dense radius binds
        (9.0, 2.0, 49, 12, [54.61970697516527]),  # damped spiral
        (13.75, 2.5, 74, 19, []),  # real roots: the stability radius binds
    ], ids=["double-root", "damped", "real-root"])
    def test_step_budget(self, n, p, accepted, capped, folds):
        # gelfand steps (lambda, Z) here; stepping (W, Z) took 61/13, 57/12 and
        # 105/19 steps; at 2 / max |r - g|, 59, 56 and 110 (69, 64 and 141 in
        # (W, Z)), with the same folds
        traj = integrate(Params(p=p, n=n, alpha=0), G, IntegratorConfig(t_max=1e8))
        assert traj._rows.lam_k == p
        log = traj.stats[1]
        assert (log.accepted, log.capped) == (accepted, capped)
        rows = traj._rows.table[:, :2]
        cap = _log_phase(traj.params, G)[3]
        assert log.capped == np.count_nonzero(rows.sum(1) == rows[:, 0] + cap)
        t_stars = [fold.t_star for fold in pfold.curve.turning_points(traj)]
        assert t_stars == pytest.approx(folds, rel=1e-9)
        # lambda rows put the fold 2.7e-8 from the tight run, (W, Z) rows 6.8e-8
        for t_star in t_stars:
            err = abs(t_star / self.TIGHT_FOLD - 1.0)
            assert err < 3e-8 and err < abs(self.W_ROWS_FOLD / self.TIGHT_FOLD - 1.0)


def _guiding_log_state(params, problem, t):
    """The guiding solution in the log-phase variables at ``t``:
    ``W = w0 t^-g``, ``Z = phi(t w0') t^(-g(p-1))``, with the shift ``g``
    read off the closed forms (0, +beta or -beta by the kind of guide)."""
    cf = closed_forms(params, problem)
    g = {"logarithmic": 0.0, "power-growth": cf.beta, "power-decay": -cf.beta}[cf.guiding_kind]
    p = params.p
    w0, w0p = guiding_eval(cf, t)
    slope = t * w0p
    return g, w0 * t**-g, math.copysign(abs(slope) ** (p - 1.0), slope) * t ** (-g * (p - 1.0))


class TestLogPhase:
    """The Emden-Fowler system of the log phase, against the closed forms."""

    CASES = [(params, problem) for problem, sets in RESIDUAL_SETS.items() for params in sets]

    @pytest.mark.parametrize("params,problem", CASES)
    def test_guiding_solution_is_a_fixed_point(self, params, problem):
        # every gelfand set here has n > p, and with it the (lambda, Z) form
        rhs, *_, lam_rhs = _log_phase(params, problem)
        assert (lam_rhs is None) == (problem is not G)
        p, n, alpha = params.p, params.n, params.alpha
        source = _source(params, problem)
        for t in (0.5, 1.0, 7.0, 1e3, 1e6):
            g, big_w, z = _guiding_log_state(params, problem, t)
            c = p - n - g * (p - 1.0)
            dw, dz = rhs(math.log(t), big_w, z)
            # scales: the terms of each component, evaluated on the guide
            dw_scale = abs(g * big_w) + abs(z) ** (1.0 / (p - 1.0))
            dz_scale = abs(c * z) + t ** (alpha + p - g * (p - 1.0)) * source(big_w * t**g)
            # gelfand: W = w0 falls at the rate alpha + p; the others are at rest
            dw_expected = -(alpha + p) if problem is G else 0.0
            assert abs(dw - dw_expected) <= 1e-12 * dw_scale
            assert abs(dz) <= 1e-12 * dz_scale
            if lam_rhs is not None:  # lambda = t^k e^W0 rests at lambda_inf with Z = Z0
                lam = t ** (alpha + p) * math.exp(big_w)
                assert lam == pytest.approx(closed_forms(params, G).lambda_inf, rel=1e-12)
                assert z == pytest.approx(-((alpha + p) ** (p - 1.0)), rel=1e-14)
                dlam, dz = lam_rhs(math.log(t), lam, z)
                assert abs(dlam) <= 1e-12 * (alpha + p) * lam
                assert abs(dz) <= 1e-12 * (abs(c * z) + lam)

    @pytest.mark.parametrize("params,problem", CASES)
    def test_linearization_has_the_shifted_characteristic_roots(self, params, problem):
        rhs, g, *_, lam_rhs = _log_phase(params, problem)
        s = 0.7
        _, big_w, z = _guiding_log_state(params, problem, math.exp(s))
        # (W, Z) on the guide, and gelfand's (lambda, Z) at its fixed point
        forms = [(rhs, big_w)]
        if problem is G:
            lam = math.exp((params.alpha + params.p) * s + big_w)
            forms.append((lam_rhs, lam))
        roots = sorted((r - g for r in characteristic_quadratic(params, problem).roots),
                       key=lambda r: (r.real, r.imag))
        scale = max(abs(r) for r in roots)
        for rhs, first in forms:
            jac = np.empty((2, 2))
            for i, h in enumerate((1e-6 * abs(first), 1e-6 * abs(z))):
                up = rhs(s, first + h * (i == 0), z + h * (i == 1))
                down = rhs(s, first - h * (i == 0), z - h * (i == 1))
                jac[:, i] = (np.array(up) - np.array(down)) / (2.0 * h)
            eig = sorted(np.linalg.eigvals(jac), key=lambda r: (r.real, r.imag))
            for a, b in zip(eig, roots):
                assert abs(a - b) <= 1e-6 * scale

    def test_jl_without_scaling_matches_flux_stepping_in_t(self):
        # q <= p - 1 has no fixed point: the log phase keeps g = 0 and t^(alpha+p) f(W)
        params = Params(p=3, n=5, alpha=0.5, q=1.5)
        a = integrate(params, J, IntegratorConfig(t_max=100.0))
        b = _scipy_flux_reference(a, 100.0)
        assert a.termination == "zero" and b.status == 1
        assert [s.phase for s in a.stats] == ["series", "log"]
        assert a.zero_time == pytest.approx(b.t_events[0][0], rel=1e-9)
        # from the series node, where the reference starts
        ts = np.geomspace(a.ts[1], 0.9 * a.zero_time, 20)
        w, wp = a.eval_many(ts)
        w_ref, wp_ref = _flux_state(a, b, ts)
        np.testing.assert_allclose(w, w_ref, rtol=1e-8)
        np.testing.assert_allclose(wp, wp_ref, rtol=1e-8)


@pytest.mark.parametrize("params,lam,folds", [
    (GELFAND3, True, 4), (Params(p=3, n=5, alpha=1), True, 5),
    (Params(p=2.5, n=13.75, alpha=0), True, 0),
    (Params(p=2, n=1.5, alpha=0), False, 1),  # n < p: no fixed point
    (Params(p=1.001, n=3, alpha=0), False, 92),  # w(t1) = 0: every coefficient underflows
], ids=["2-3-0", "3-5-1", "real-root", "no-fixed-point", "near-p-one"])
def test_gelfand_steps_lambda_where_it_has_a_fixed_point(monkeypatch, params, lam, folds):
    # the fold counts and terminations are those of stepping (W, Z) throughout
    trajs = []
    (args, _), = _dop853_calls(monkeypatch, lambda: trajs.append(integrate(params, G)))
    traj, = trajs
    rhs, *_, lam_rhs = _log_phase(params, G)
    assert (lam_rhs is None) == (params.n <= params.p)
    assert args[0] == (lam_rhs if lam else rhs)
    assert traj._rows.lam_k == (params.alpha + params.p if lam else None)
    # w has moved from 0 by t1, but near p = 1, where the series is w(0) = 0
    assert traj.ws[1] == 0.0 if params.p == 1.001 else abs(traj.ws[1]) > traj.config.rel_tol
    assert traj.termination == "t_max" and traj.t_end == 1e4
    assert len(pfold.turning_points(traj)) == folds


@pytest.mark.parametrize("params,falls_to_zero,folds", [
    # k = 5002: lambda = t^k e^W falls below the floats on its first swing (its
    # relative error norm divides by 0)
    (Params(p=2, n=3, alpha=5000), False, 57),
    # the lambda run stops as though lambda fell to 0 or below
    (GELFAND3, True, 4),
], ids=["leaves-the-floats", "falls-to-zero"])
def test_gelfand_steps_w_where_lambda_leaves_the_floats(monkeypatch, params, falls_to_zero,
                                                        folds):
    # the log phase drops the lambda run and steps (W, Z) from t1
    rhs, *_, lam_rhs = _log_phase(params, G)
    if falls_to_zero:
        original = ivp._dop853

        def stopped(form, *args, **kwargs):
            run = original(form, *args, **kwargs)
            return dataclasses.replace(run, status="zero") if form == lam_rhs else run

        monkeypatch.setattr(ivp, "_dop853", stopped)
    trajs = []
    calls = _dop853_calls(monkeypatch, lambda: trajs.append(integrate(params, G)))
    assert [args[0] for args, _ in calls] == [lam_rhs, rhs]
    traj, = trajs
    assert traj._rows.lam_k is None and traj.termination == "t_max"
    assert len(pfold.turning_points(traj)) == folds
    # the run of (W, Z) alone
    log_phase = ivp._log_phase
    monkeypatch.setattr(ivp, "_log_phase",
                        lambda params, problem: (*log_phase(params, problem)[:4], None))
    ref = integrate(params, G)
    for name in ("ts", "ws", "wprimes"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
    assert np.array_equal(traj._rows.table, ref._rows.table)


def test_stepper_without_dense_output_takes_the_same_steps():
    rhs = _log_phase(GELFAND3, G)[4]  # (lambda, Z)
    args = (rhs, 0.0, 0.7, -0.2, math.log(1e4), 1e-10, (1e-12, 1e-12), 10_000)
    full = _dop853(*args)
    bare = _dop853(*args, dense=False)
    assert bare.end == full.end and bare.status == full.status == "done"
    assert bare.accepted == full.accepted and bare.rejected == full.rejected > 0
    assert bare.steps == [] and len(full.steps) == full.accepted
    # per accepted step the end point is still evaluated; the 3 dense stages are not
    assert full.nfev == 2 + 15 * full.accepted + 11 * full.rejected
    assert bare.nfev == 2 + 12 * bare.accepted + 11 * bare.rejected


# The DOP853 loop as it was written before it was generated from the tableau:
# loops over the tables that call the right-hand side.  The generated loop
# must give the same runs bit for bit.

def _loop_stages(rhs, x, h, w, v, kw, kv, stages):
    for s, c, row in stages:
        dw = dv = 0.0
        for j, a in row:
            dw += a * kw[j]
            dv += a * kv[j]
        kw[s], kv[s] = rhs(x + c * h, w + dw * h, v + dv * h)


def _loop_attempt(rhs, x, h, w, v, kw0, kv0):
    """The stages of one step attempt and the sums of the weights b and of
    the error estimators, as loops over the tableau."""
    kw, kv = [kw0] + [0.0] * 11, [kv0] + [0.0] * 11
    _loop_stages(rhs, x, h, w, v, kw, kv, ivp._STEP_STAGES)
    bw = bv = e5w = e5v = e3w = e3v = 0.0
    for j, b, e5, e3 in ivp._WEIGHTS:
        bw += b * kw[j]
        bv += b * kv[j]
        e5w += e5 * kw[j]
        e5v += e5 * kv[j]
        e3w += e3 * kw[j]
        e3v += e3 * kv[j]
    return bw, bv, e5w, e5v, e3w, e3v, tuple(k for pair in zip(kw, kv) for k in pair)


def _loop_dense_rows(rhs, x, h, w, v, ks, kw12, kv12):
    """The dense-output stages and the rows F3..F6, as loops over the tableau."""
    kw, kv = [*ks[0::2], kw12, 0.0, 0.0, 0.0], [*ks[1::2], kv12, 0.0, 0.0, 0.0]
    _loop_stages(rhs, x, h, w, v, kw, kv, ivp._DENSE_STAGES)
    rows = []
    for row in ivp._D:
        dw = dv = 0.0
        for j, a in row:
            dw += a * kw[j]
            dv += a * kv[j]
        rows += (h * dw, h * dv)
    return tuple(rows)


def _loop_initial_step(rhs, x, w, v, fw, fv, x_end, max_step, rtol, atol):
    interval = x_end - x
    sw = atol[0] + abs(w) * rtol
    sv = atol[1] + abs(v) * rtol
    d0 = ivp._rms(w / sw, v / sv)
    d1 = ivp._rms(fw / sw, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    gw, gv = rhs(x + h0, w + h0 * fw, v + h0 * fv)
    d2 = ivp._rms((gw - fw) / sw, (gv - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval, max_step)


def _loop_dop853(rhs, x, w, v, x_end, rtol, atol, budget, dense=True, max_step=math.inf):
    """``ivp._dop853`` with loops over the tableau and calls of ``rhs``."""
    steps = []
    atol_w, atol_v = atol
    fw, fv = rhs(x, w, v)
    h_abs = _loop_initial_step(rhs, x, w, v, fw, fv, x_end, max_step, rtol, atol)
    nfev = 2
    accepted = rejected = 0
    status = "done"
    while x != x_end:
        if accepted >= budget:
            status = "budget"
            break
        min_step = 10.0 * (math.nextafter(x, math.inf) - x)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise ivp.IntegrationError("step size underflow", (x, w, v))
            x_new = min(x + h_abs, x_end)
            h = h_abs = x_new - x
            nfev += 11
            try:  # a stage of the attempt that overflows is an infinite error
                bw, bv, e5w, e5v, e3w, e3v, ks = _loop_attempt(rhs, x, h, w, v, fw, fv)
                w_new = w + h * bw
                v_new = v + h * bv
                sw = atol_w + max(abs(w), abs(w_new)) * rtol
                sv = atol_v + max(abs(v), abs(v_new)) * rtol
                e5w /= sw
                e5v /= sv
                e3w /= sw
                e3v /= sv
                n5 = e5w * e5w + e5v * e5v
                n3 = e3w * e3w + e3v * e3v
                err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 2.0)
                if err < 1.0:
                    if not (math.isfinite(w_new) and math.isfinite(v_new)):
                        raise ivp.IntegrationError("non-finite state", (x, w, v))
                    nfev += 1
                    fw_new, fv_new = rhs(x_new, w_new, v_new)
                    if dense:
                        nfev += 3
                        rows = _loop_dense_rows(rhs, x, h, w, v, ks, fw_new, fv_new)
                    factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                    if step_rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
            except OverflowError:
                err = math.inf
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            step_rejected = True
            rejected += 1
        if dense:
            delta_w = w_new - w
            delta_v = v_new - v
            steps.append([x, h, w, v, delta_w, delta_v, h * fw - delta_w, h * fv - delta_v,
                          2.0 * delta_w - h * (fw_new + fw), 2.0 * delta_v - h * (fv_new + fv),
                          *rows])
            if w > 0.0 and w_new <= 0.0:  # stop after this row
                x_end = x_new
                status = "zero"
        x, w, v, fw, fv = x_new, w_new, v_new, fw_new, fv_new
        accepted += 1
    return ivp._Run(steps, (x, w, v), accepted, rejected, nfev, status)


def _phi_inv(s, r):
    return math.copysign(abs(s) ** r, s) if s != 0.0 else 0.0


def _closures(params, problem, lam):
    """The right-hand sides as they were written before they became forms:
    closures that call ``_phi_inv`` and ``f``.  ``log`` is that of the log
    phase (and ``lambda`` gelfand's in ``(lambda, Z)``), ``flux`` that of the
    flux system in ``t`` and ``shooting`` that of the radial BVP at ``lam``."""
    p, n, alpha = params.p, params.n, params.alpha
    phi_exp = 1.0 / (p - 1.0)
    spec = class_spec(params, problem)
    f, sgn, k, g, w_c = spec.f, spec.sgn, spec.k, spec.g, spec.w_center
    if g is None:
        c = p - n

        def log(s, big_w, z):
            return _phi_inv(z, phi_exp), c * z + sgn * math.exp(k * s) * f(big_w)
    elif spec.E is None:
        c = p - n - g * (p - 1.0)

        def log(s, big_w, z):
            return _phi_inv(z, phi_exp), c * z + sgn * math.exp(k * s + big_w)

        def lam_log(s, lam, z):
            return lam * (k + _phi_inv(z, phi_exp)), c * z + sgn * lam
    else:
        c = p - n - g * (p - 1.0)

        def log(s, big_w, z):
            return _phi_inv(z, phi_exp) - g * big_w, c * z + sgn * f(big_w)

    def flux(t, w, v):
        return _phi_inv(v / t ** (n - 1.0), phi_exp), sgn * t ** (n + alpha - 1.0) * f(w)

    def shooting(r, u, v):
        return (_phi_inv(v / r ** (n - 1.0), phi_exp),
                -lam * r ** (n + alpha - 1.0) * f(w_c - sgn * u))

    closures = {"log": log, "flux": flux, "shooting": shooting}
    if spec.E is None:
        closures["lambda"] = lam_log
    return closures


def _dop853_calls(monkeypatch, call):
    """The arguments of every ``_dop853`` run that ``call()`` makes."""
    calls = []
    original = ivp._dop853

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ivp, "_dop853", spy)
        call()
    return calls


def _integration(params, problem, t_max=1e4):
    return lambda: integrate(params, problem, IntegratorConfig(t_max=t_max))


def _curve_point(params, problem, t=1e-3):
    w, _ = integrate(params, problem).eval(t)
    lam, u0 = pfold.curve.curve_values(problem, params, t, w)
    return pfold.curve.CurvePoint(t=t, lam=lam, u0=u0, monitor=0.0)


def _shooting(params, problem):
    point = _curve_point(params, problem)
    return lambda: pfold.curve.shooting_check(params, problem, point)


# jl with q <= p - 1: the log phase without scaling
JL_UNSCALED = Params(p=3, n=5, alpha=0.5, q=1.5)


class TestStraightLineStages:
    """The DOP853 loop generated from the tableau for each form of the
    right-hand side, against loops over the tableau that call it."""

    # each log-phase form (gelfand; mems and jl with a fixed point, the jl
    # run ending at a zero of w; jl without scaling), the flux system of
    # acceptance row 6 (whose trajectories take the log-phase forms at p = 2),
    # and shooting: the forms of p = 2 and alpha = 0, and the general ones
    CASES = {
        "gelfand": lambda: _integration(Params(p=3, n=5, alpha=1), G, 1e8),
        "mems": lambda: _integration(MEMS233, M, 1e8),
        "jl": lambda: _integration(Params(p=2.5, n=5, alpha=0, q=4), J),
        "jl-zero": lambda: _integration(JL_ZERO, J),
        "jl-unscaled": lambda: _integration(JL_UNSCALED, J, 100.0),
        # trial stages that overflow (Z^10000): rejected steps
        "gelfand-near-p-one": lambda: _integration(Params(p=1.0001, n=3, alpha=0), G),
        "flux": lambda: lambda: run_acceptance(only="6-startup"),
        "shooting-gelfand": lambda: _shooting(GELFAND3, G),
        "shooting-mems": lambda: _shooting(MEMS233, M),
        "shooting-gelfand-3-5-1": lambda: _shooting(Params(p=3, n=5, alpha=1), G),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_equal_to_the_loops(self, monkeypatch, case):
        calls = _dop853_calls(monkeypatch, self.CASES[case]())
        assert calls and all(isinstance(args[0], ivp._Rhs) for args, _ in calls)
        for args, kwargs in calls:
            for dense in (True, False):
                new = _dop853(*args, **dict(kwargs, dense=dense))
                # repr tells every float apart, 0.0 from -0.0 included; a
                # dense run watches for a zero of w
                assert repr(new) == repr(_loop_dop853(*args, **dict(kwargs, dense=dense)))
                assert len(new.steps) == (new.accepted if dense else 0)
        if case == "jl-zero":  # the zero watch stopped the run
            (args, kwargs), = calls
            assert _dop853(*args, **kwargs).status == "zero"

    @pytest.mark.parametrize("params,problem", [
        *TestLogPhase.CASES, (JL_ZERO, J), (JL_UNSCALED, J)])
    def test_scalar_forms_equal_the_closures(self, monkeypatch, params, problem):
        point = _curve_point(params, problem)
        calls = _dop853_calls(monkeypatch,
                              lambda: pfold.curve.shooting_check(params, problem, point))
        rhs, *_, lam_rhs = _log_phase(params, problem)
        forms = {"log": rhs, "flux": _flux_rhs(params, problem), "shooting": calls[0][0][0]}
        if problem is G:  # every gelfand set here has n > p
            forms["lambda"] = lam_rhs
        closures = _closures(params, problem, point.lam)
        assert closures.keys() == forms.keys()
        rng = np.random.default_rng(4)
        w_c = class_spec(params, problem).w_center
        # W <= 0 (the power clamp), u = w_c (a zero argument of f), -0.0 and Z = 0;
        # Python floats, as the loop passes them
        ws = [*rng.uniform(-2.0, 3.0, 40).tolist(), 0.0, -0.0, -1.5, w_c, -w_c, 1.0]
        zs = [*rng.uniform(-3.0, 3.0, 40).tolist(), 0.0, -0.0, 0.0, -0.0, 1e-300, -2.5]
        xs = rng.uniform(0.05, 4.0, len(ws))
        for kind, rhs in forms.items():
            for x, w, z in zip(xs.tolist(), ws, zs):
                assert repr(rhs(x, w, z)) == repr(closures[kind](x, w, z)), (kind, x, w, z)

    def test_compiled_from_the_tables(self, monkeypatch):
        # a coefficient changed in the tables changes the step: the scipy
        # comparisons guard the coefficients of the compiled code
        def raised(row):
            (j, a), *rest = row
            return ((j, a + 1e-3), *rest)

        rhs, *_ = _log_phase(GELFAND3, G)
        args = (*rhs.values, 0.0, -0.3, -0.2, math.log(1e4), 1e-10, (1e-12, 1e-12), 1, True,
                math.inf)
        base = ivp._straight_line(rhs.form).loop(*args)
        assert repr(base) == repr(_dop853(rhs, *args[len(rhs.values):]))
        s, c, row = ivp._STEP_STAGES[6]
        stages = (*ivp._STEP_STAGES[:6], (s, c, raised(row)), *ivp._STEP_STAGES[7:])
        d = (*ivp._D[:2], raised(ivp._D[2]), ivp._D[3])
        for table, value in (("_STEP_STAGES", stages), ("_D", d)):
            with monkeypatch.context() as m:
                m.setattr(ivp, table, value)
                run = ivp._straight_line(rhs.form).loop(*args)
            (step,), (base_step,) = run.steps, base.steps
            if table == "_STEP_STAGES":  # a_70: the step moves
                assert run.end != base.end
            else:  # d_50: the same step, another F5
                assert run.end == base.end and step[:14] == base_step[:14]
                assert step[14:16] != base_step[14:16] and step[16:] == base_step[16:]

    def test_acceptance_matrix_takes_the_classical_forms(self, monkeypatch):
        # every run of the matrix is at p = 2 and alpha = 0: the log phase of
        # gelfand and of the power classes, and the radial form of each
        forms = {args[0].form for args, _ in _dop853_calls(monkeypatch, run_acceptance)}
        assert len(forms) == 4
        assert not any(re.search(r"\bphi_exp\b|\be2\b", form.slope) for form in forms)

    def test_compiled_once_per_form(self):
        # the constants are arguments: parameter sets of one form share its code
        forms = {_log_phase(params, problem)[0].form for params, problem in TestLogPhase.CASES}
        # gelfand, and the power classes with a fixed point: at p = 2 and in general
        assert len(forms) == 4
        assert len({_log_phase(JL_UNSCALED, J)[0].form, *forms}) == 5
        rhs = _log_phase(MEMS233, M)[0]
        assert ivp._program(rhs.form) is ivp._program(_log_phase(JL454, J)[0].form)
        # the form is written into the stages: the loop calls no right-hand side
        loop = ivp._program(rhs.form).source.split("def loop", 1)[1]
        assert "rhs(" not in loop and loop.count(rhs.form.slope) == 2 + 11 + 1 + 3


class TestPhiInvSource:
    """The call-free sources of phiinv, against ``copysign(|s|^r, s)``."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf,
               math.nan]

    @staticmethod
    def _outcome(fn, *args):
        # |s|^r overflows at p < 2: both forms raise
        try:
            return repr(fn(*args))
        except OverflowError:
            return "OverflowError"

    @pytest.mark.parametrize("p", [2.0, 1.5, 3.0, 4.0])
    def test_equal_to_phi_inv_by_repr(self, p):
        phi_exp = 1.0 / (p - 1.0)
        bits = np.random.default_rng(11).integers(0, 2**64, 20_000, dtype=np.uint64)
        values = self.SPECIAL + bits.view(np.float64).tolist()
        # a name, and an expression that is bound once (dividing by 1 changes nothing)
        forms = [eval(f"lambda Z, X: {ivp._phi_inv_source(s, phi_exp)}", {"phi_exp": phi_exp})
                 for s in ("Z", "Z / X")]
        assert ("phi_exp" in ivp._phi_inv_source("Z", phi_exp)) == (p != 2.0)
        for s in values:
            want = self._outcome(_phi_inv, s, phi_exp)
            assert self._outcome(ivp._phi_inv, s, phi_exp) == want, s
            for form in forms:
                assert self._outcome(form, s, 1.0) == want, s


class TestEval:
    def test_midpoints_against_reintegration(self, gelfand3_traj, gelfand3_fine_traj):
        rng = np.random.default_rng(7)
        ks = rng.integers(1, len(gelfand3_traj.ts) - 1, size=50)
        for k in ks:
            t = float(np.sqrt(gelfand3_traj.ts[k] * gelfand3_traj.ts[k + 1]))
            wa, _ = gelfand3_traj.eval(t)
            wb, _ = gelfand3_fine_traj.eval(t)
            assert wa == pytest.approx(wb, rel=1e-7, abs=1e-12)

    def test_scale_past_the_float_range(self):
        # t^-g = t^2 leaves the floats past t = 1.34e154: both readers give the
        # inf that the nodes take, so (w, w') reads (0, -0) there
        traj = integrate(Params(p=2, n=6, alpha=0, q=2), J, IntegratorConfig(t_max=1e300))
        w, wp = traj.eval_many([1e200])
        assert traj.eval(1e200) == (w[0], wp[0]) == (0.0, 0.0)

    def test_out_of_range(self, gelfand3_traj):
        with pytest.raises(ValueError):
            gelfand3_traj.eval(1e-7)
        with pytest.raises(ValueError):
            gelfand3_traj.eval(2e4)
        with pytest.raises(ValueError):
            gelfand3_traj.eval_many([2e4])

    def test_nan_time_rejected(self, gelfand3_traj):
        with pytest.raises(ValueError):
            gelfand3_traj.eval(math.nan)
        with pytest.raises(ValueError):
            gelfand3_traj.eval_many([1.0, math.nan])

    def test_series_read_at_the_time_asked(self):
        # tau = t^2 = 1e-310 lies below the normal floats; both readers once
        # gave the values at t = 1.49e-154 for every earlier time
        traj = integrate(GELFAND3, G, IntegratorConfig(t_start=1e-300))
        t = 1e-155
        w, wp = traj.eval_many([t])
        for value, wprime in ((w[0], wp[0]), traj.eval(t)):
            assert wprime == pytest.approx(-t / 3.0, rel=1e-9, abs=0.0)
            assert value == pytest.approx(-t * t / 6.0, rel=1e-9, abs=0.0)

    def test_fields_are_frozen(self, gelfand3_traj):
        for f in dataclasses.fields(gelfand3_traj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gelfand3_traj, f.name, getattr(gelfand3_traj, f.name))

    def test_eval_many_keeps_the_shape_of_the_times(self, gelfand3_traj):
        traj = gelfand3_traj
        ts = np.geomspace(traj.t_start, traj.t_end, 6).reshape(2, 3)  # series and rows
        for values, flat in zip(traj.eval_many(ts), traj.eval_many(ts.ravel())):
            assert values.shape == (2, 3) and np.array_equal(values.ravel(), flat)
        assert [values.shape for values in traj.eval_many(1.0)] == [(1,), (1,)]


def _truncated_traj(max_steps=30):
    with pytest.raises(TruncatedTrajectoryError) as info:
        integrate(GELFAND3, G, IntegratorConfig(t_max=1e8, max_steps=max_steps))
    return info.value.trajectory


# a trajectory that ends inside the series segment (t_max <= t1)
SERIES_ONLY = (JL_ZERO, J, IntegratorConfig(t_max=1.65))


class TestSamples:
    """The dense samples on which pfold.curve locates folds and crossings."""

    @pytest.fixture(params=["gelfand3", "mems", "jl", "jl_zero", "truncated", "no_steps",
                            "series_only", "general"])
    def traj(self, request):
        if request.param == "truncated":
            return _truncated_traj()
        if request.param == "no_steps":  # truncated before its first step: t_end = t1 < t_max
            return _truncated_traj(max_steps=1)
        if request.param == "series_only":
            return integrate(*SERIES_ONLY)
        if request.param == "general":  # p != 2, alpha != 0
            return integrate(Params(p=1.7, n=6, alpha=0.3, q=4), J)
        return request.getfixturevalue(f"{request.param}_traj")

    def test_cover_the_range_in_time_order(self, traj):
        smp = traj._samples
        rows = len(traj._rows.table)
        series = ivp.SERIES_SAMPLES + (rows == 0)
        assert len(smp.x) == series + ivp.ROW_SAMPLES * rows + (rows > 0)
        assert np.all(np.diff(smp.x) > 0.0)
        assert np.all(np.diff(smp.row) >= 0) and np.all(smp.row[:series] == -1)
        assert smp.x[0] == pytest.approx(math.log(traj.t_start), abs=1e-14)
        # no sample past the end, also where the last step reaches past a zero of w
        assert smp.x[-1] == pytest.approx(math.log(traj.t_end), abs=1e-14)

    def test_values_are_the_dense_output(self, traj):
        smp = traj._samples
        t = np.exp(smp.x)
        w, wp = traj.eval_many(np.clip(t, traj.t_start, traj.t_end))
        # abs: near the zero of w (jl), w and its rounding error are both tiny
        assert smp.big_w / smp.scale == pytest.approx(w, rel=1e-12, abs=1e-14)
        assert smp.y / smp.scale == pytest.approx(t * wp, rel=1e-12, abs=1e-14)
        assert smp.scale == pytest.approx(t ** -traj._rows.g, rel=1e-13)

    def test_row_point_reproduces_the_samples(self, traj):
        # the scan and the refinement read the same values: on the rows x and
        # W bit for bit, and Y = phiinv(Z) too at p = 2, where numpy's |Z|^1.0
        # is exact (else to 1 ulp); the scales differ as numpy's exp and libm's
        smp = traj._samples
        series = traj._series.reader(traj._rows.g)
        points = [series(s) if k < 0 else traj._rows.reader(k)(s)
                  for k, s in zip(smp.row.tolist(), smp.theta.tolist())]
        x, big_w, y, scale = map(np.array, zip(*points))
        rows = smp.row >= 0
        assert np.array_equal(x[rows], smp.x[rows])
        assert np.array_equal(big_w[rows], smp.big_w[rows])
        ulps = np.abs(y[rows] - smp.y[rows]) / np.spacing(np.abs(y[rows]))
        assert np.all(ulps == 0.0) if traj.params.p == 2.0 else np.all(ulps <= 1.0)
        assert scale == pytest.approx(smp.scale, rel=np.finfo(float).eps, abs=0.0)
        # the series: a point is read as the samples are, bit for bit
        for point, sample in ((x, smp.x), (big_w, smp.big_w), (y, smp.y), (scale, smp.scale)):
            assert np.array_equal(point[~rows], sample[~rows])

    def test_eval_matches_eval_many(self, traj):
        # the scalar and the vector reader of the same rows: random times, the
        # nodes (the row boundaries), their neighbouring floats, and times just
        # outside the range, within its tolerance
        rng = np.random.default_rng(5)
        lo, hi = traj.t_start, traj.t_end
        ts = np.concatenate((np.exp(rng.uniform(math.log(lo), math.log(hi), 200)),
                             np.nextafter(traj.ts[1:], 0.0), np.nextafter(traj.ts[:-1], np.inf),
                             [lo * (1 - 5e-13), hi * (1 + 5e-13)]))
        w, wp = traj.eval_many(ts)
        scalar = np.array([traj.eval(t) for t in ts.tolist()])
        # both rescale (W, Y) by their own t^-g; with the series' two
        # summations and numpy's exp and pow against libm's the readers
        # differ by at most 2.35 eps of |w| + |t w'| (measured over the
        # sweep cases of seeds 0 and 1 and the spiral cases at t_max = 1e8)
        bound = 4 * np.finfo(float).eps * (np.abs(w) + np.abs(ts * wp))
        assert np.all(np.abs(scalar[:, 0] - w) <= bound)
        assert np.all(np.abs(ts * (scalar[:, 1] - wp)) <= bound)
        w_nodes, wp_nodes = traj.eval_many(traj.ts)
        assert np.array_equal(w_nodes, traj.ws) and np.array_equal(wp_nodes, traj.wprimes)
        assert [traj.eval(t) for t in traj.ts.tolist()] == list(zip(traj.ws, traj.wprimes))

    def test_series_only_trajectory(self):
        traj = integrate(*SERIES_ONLY)
        assert [s.phase for s in traj.stats] == ["series"]
        assert np.all(traj._samples.row == -1)


class TestOneReader:
    """``eval_many`` reads the rows with the polynomial of ``eval`` and of the
    root refinement, and each point on its own."""

    CASES = [(GELFAND3, G), (Params(p=3, n=5, alpha=1), G), (MEMS233, M), (JL454, J),
             (JL_ZERO, J)]

    @pytest.mark.parametrize("params,problem", CASES)
    def test_read_is_the_row_point(self, params, problem):
        traj = integrate(params, problem)
        rng = np.random.default_rng(7)
        row, theta = rng.integers(0, len(traj._rows.table), 400), rng.random(400)
        x_a, big_w_a, y_a, _ = traj._rows.read(row, theta)
        x, big_w, y, _ = map(np.array, zip(*(traj._rows.reader(k)(s)
                                              for k, s in zip(row.tolist(), theta.tolist()))))
        assert np.array_equal(x_a, x) and np.array_equal(big_w_a, big_w)
        # phiinv of an array can round Z's power differently by an ulp
        assert y_a == pytest.approx(y, rel=1e-15, abs=0.0)

    @staticmethod
    def _stepper_run(monkeypatch, params, problem, config=None):
        """The trajectory of ``integrate`` and its log phase's stepper run."""
        runs = []
        monkeypatch.setattr(ivp, "_dop853",
                            lambda *args, **kw: runs.append(_dop853(*args, **kw)) or runs[0])
        try:
            traj = integrate(params, problem, config)
        except TruncatedTrajectoryError as exc:
            traj = exc.trajectory
        (run,) = runs
        return traj, run

    @staticmethod
    def _assert_nodes_are_the_run(traj, run):
        """Every log node is the start of a dense row but the first, then the
        run's end, rescaled: ``(w, t w') = (W, phiinv(Z)) / t^-g`` with numpy's
        arithmetic and ``t = exp(x)`` with libm's, bit for bit, where ``W =
        ln lambda - k x`` for rows of ``lambda``.  A run that stopped past a
        zero of ``w`` ends at that zero instead (:class:`TestOneRootFinder`),
        which is left out here."""
        assert np.array_equal(traj._rows.table, np.array(run.steps).reshape(-1, 18))
        nodes = [(row[0], row[2], row[3]) for row in run.steps[1:]] + [run.end]
        count = run.accepted - (run.status == "zero")
        x, big_w, z = np.array(nodes[:count]).reshape(-1, 3).T
        if traj._rows.lam_k is not None:
            big_w = np.log(big_w) - traj._rows.lam_k * x
        t = [math.exp(x_k) for x_k in x.tolist()]
        if run.status == "done":
            t[-1] = traj.config.t_max
        assert traj.ts[2:2 + count].tolist() == t
        scale = np.exp(-traj._rows.g * x)
        y = np.sign(z) * np.abs(z) ** (1.0 / (traj.params.p - 1.0))
        assert np.array_equal(traj.ws[2:2 + count], big_w / scale)
        assert np.array_equal(traj.wprimes[2:2 + count], y / scale / t)
        assert len(traj.ts) == 2 + run.accepted

    @pytest.mark.parametrize("params,problem", CASES)
    def test_nodes_are_the_rescaled_stepper_state(self, params, problem, monkeypatch):
        traj, run = self._stepper_run(monkeypatch, params, problem)
        self._assert_nodes_are_the_run(traj, run)
        if problem is J and params == JL_ZERO:  # the last node is the zero of w, in the last row
            assert run.status == "zero" and traj.termination == "zero"
            assert run.steps[-1][0] < math.log(traj.t_end) < run.end[0]
            assert run.end[1] <= 0.0 < run.steps[-1][2] and abs(traj.ws[-1]) <= 1e-12
        # which is the array reader's rescale where a row starts on a node
        rows = np.arange(1, len(traj._rows.table))
        _, big_w, y, scale = traj._rows.read(rows, np.zeros(len(rows)))
        assert np.array_equal(big_w / scale, traj.ws[2:-1])
        assert np.array_equal(y / scale / traj.ts[2:-1], traj.wprimes[2:-1])

    @pytest.mark.parametrize("max_steps", [1, 2, 12])
    def test_truncated_nodes_end_at_the_last_accepted_state(self, max_steps, monkeypatch):
        # max_steps = 1 leaves the log phase no step: no log node, no row
        traj, run = self._stepper_run(monkeypatch, GELFAND3, G,
                                      IntegratorConfig(max_steps=max_steps))
        assert traj.termination == "truncated" and run.status == "budget"
        assert run.accepted == len(traj._rows.table) == len(traj.ts) - 2 == max_steps - 1
        self._assert_nodes_are_the_run(traj, run)
        if max_steps == 1:  # the run ends where it starts, at the series node
            assert run.end[0] == math.log(traj.ts[1]) and len(traj.ts) == 2

    @pytest.mark.parametrize("params,problem", [
        (GELFAND3, G), (MEMS233, M),
        # g = -200: t^-g = t^200 underflows to 0 on the series segment
        (Params(p=2, n=6, alpha=0, q=1.01), J),
    ], ids=["gelfand", "mems", "jl-g-minus-200"])
    def test_series_segment_is_read_in_its_own_variables(self, params, problem, recwarn):
        traj = integrate(params, problem)
        ts = [2e-6, 1e-3, 0.1]
        for t in ts:
            assert traj.eval(t) == traj._series.state(t)[:2]
        w, wp = traj.eval_many(ts)
        np.testing.assert_allclose(w, [traj.eval(t)[0] for t in ts], rtol=1e-15)
        np.testing.assert_allclose(wp, [traj.eval(t)[1] for t in ts], rtol=1e-14)
        if problem is J:  # w = 1 - t^2/12 + q t^4/384 + ... at p = 2, n = 6
            t, q = 1e-3, params.q
            assert traj.eval(t) == pytest.approx(
                (1.0 - t**2 / 12.0 + q * t**4 / 384.0, -t / 6.0 + q * t**3 / 96.0), rel=1e-12)
        assert not recwarn.list

    @pytest.mark.parametrize("params,problem", [
        (Params(p=2, n=1000, alpha=0), G), (Params(p=2, n=1000, alpha=0, q=2), M),
        (Params(p=2, n=2000, alpha=0, q=3), J),
    ], ids=["gelfand", "mems", "jl"])
    def test_large_n_starts_the_log_phase_without_the_flux(self, params, problem):
        # the flux t1^m V at the series' reach (t1 = 18.7 for gelfand) overflows
        # for m = 1000; Z = t1^(k - g(p-1)) V does not
        traj = integrate(params, problem)
        assert traj.termination == "t_max" and traj.t_end == 1e4
        with pytest.raises(OverflowError):
            float(traj.ts[1]) ** (params.n + params.alpha)
        assert np.isfinite(traj.ws).all() and np.isfinite(traj.wprimes).all()
        assert pfold.turning_points(traj) == []

    @pytest.mark.parametrize("params,problem", CASES)
    def test_eval_many_does_not_depend_on_the_batch(self, params, problem):
        traj = integrate(params, problem)
        rng = np.random.default_rng(11)
        ts = np.exp(rng.uniform(math.log(traj.t_start), math.log(traj.t_end), 300))
        w, wp = traj.eval_many(ts)
        single = np.array([[a[0] for a in traj.eval_many(ts[i:i + 1])] for i in range(len(ts))])
        assert np.array_equal(single[:, 0], w) and np.array_equal(single[:, 1], wp)


class TestResidual:
    GUIDING_CASES = [
        (Params(p=2, n=3, alpha=0, q=2), M),
        (Params(p=2, n=3, alpha=0), G),
        (Params(p=2, n=4, alpha=0, q=5), J),
    ]

    @pytest.mark.parametrize("params,problem", GUIDING_CASES)
    def test_guiding_solution_is_exact(self, params, problem):
        cf = closed_forms(params, problem)
        for t in (0.5, 1.0, 7.0):
            w0, w0p = guiding_eval(cf, t)
            w0pp = guiding_curvature(cf, t)
            assert abs(residual(params, problem, w0, w0p, w0pp, t)) < 1e-10

    def test_non_solution_value(self):
        # phi'(0) = 1 at p = 2, so the defect of (w, w', w'') = (1, 0, 1) is 1 + e
        value = residual(GELFAND3, G, 1.0, 0.0, 1.0, 1.0)
        assert value == pytest.approx(1.0 + math.e, rel=1e-14)

    def test_p_below_two_needs_nonzero_slope(self):
        params = Params(p=1.5, n=3, alpha=0)
        with pytest.raises(ValueError):
            residual(params, G, 0.0, 0.0, 1.0, 1.0)
        assert math.isfinite(residual(params, G, 0.0, -0.5, 1.0, 1.0))

    @pytest.mark.parametrize("params,problem", TestLogPhase.CASES)
    def test_array_matches_scalar_elementwise(self, params, problem):
        rng = np.random.default_rng(3)
        t = np.geomspace(0.1, 100.0, 40)
        cf = closed_forms(params, problem)
        w0, w0p = guiding_eval(cf, t)
        # off the guide, so that the defect is not rounding noise
        w, wp, wpp = (x * rng.uniform(0.5, 1.5, t.size)
                      for x in (w0, w0p, guiding_curvature(cf, t)))
        res = residual(params, problem, w, wp, wpp, t)
        scalar = [residual(params, problem, *map(float, x)) for x in zip(w, wp, wpp, t)]
        assert all(type(r) is float for r in scalar)
        np.testing.assert_array_equal(res, scalar)
        # the defect in plain floats, whose power may differ from numpy's in the last bit
        p, n, alpha = params.p, params.n, params.alpha
        sgn = 1.0 if problem is M else -1.0
        source = _source(params, problem)
        for r, (wi, wpi, wppi, ti) in zip(res, zip(w.tolist(), wp.tolist(), wpp.tolist(),
                                                   t.tolist())):
            terms = ((p - 1.0) * abs(wpi) ** (p - 2.0) * wppi,
                     (n - 1.0) / ti * math.copysign(abs(wpi) ** (p - 1.0), wpi),
                     -sgn * ti**alpha * source(wi))
            assert r == pytest.approx(sum(terms), rel=0.0, abs=1e-14 * sum(map(abs, terms)))
        grid = residual(params, problem, w[:, None], wp[:, None], wpp[:, None], t[None, :5])
        np.testing.assert_array_equal(grid[:, 0], residual(params, problem, w, wp, wpp, t[0]))

    def test_array_checks_every_element(self):
        params = Params(p=1.5, n=3, alpha=0)
        with pytest.raises(ValueError):
            residual(params, G, [0.0, 0.0], [-0.5, 0.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            residual(GELFAND3, G, 0.0, -0.5, 1.0, [1.0, 0.0])

    def test_from_dense_second_differences(self, gelfand3_traj, mems_traj, jl_traj):
        for traj in (gelfand3_traj, mems_traj, jl_traj):
            params, problem = traj.params, traj.problem
            ts = np.geomspace(traj.t_start * 50, traj.t_end / 50, 30)
            for t in ts:
                h = 1e-4 * t
                w, wp = traj.eval(float(t))
                _, wp_plus = traj.eval(float(t + h))
                _, wp_minus = traj.eval(float(t - h))
                wpp = (wp_plus - wp_minus) / (2.0 * h)
                res = residual(params, problem, w, wp, wpp, float(t))
                scale = (
                    abs(wpp) + abs((params.n - 1.0) / t * wp) + t**params.alpha + 1.0
                )
                assert abs(res) <= 1e-6 * scale


class TestPohozaev:
    def test_vanishes_at_startup(self, jl_traj):
        t = jl_traj.t_start * 2.0
        assert abs(pohozaev(jl_traj, t)) < 1e-20

    def test_negative_and_nonincreasing(self, jl_traj):
        grid = np.geomspace(0.1, 100.0, 200)
        vals = np.array([pohozaev(jl_traj, float(t)) for t in grid])
        assert np.all(vals < 0.0)
        assert np.all(np.diff(vals) <= 1e-9 * (1.0 + np.abs(vals[:-1])))

    def test_array_equals_the_floats(self, jl_traj, jl_zero_traj):
        for traj in (jl_traj, jl_zero_traj):
            grid = np.geomspace(traj.t_start, traj.t_end, 57)
            vals = pohozaev(traj, grid)
            assert vals.shape == grid.shape
            # equal up to rounding: the series' matrix product may round one
            # point differently from many (seen: 2.3e-15 relative on jl_zero)
            assert vals == pytest.approx([pohozaev(traj, t) for t in grid.tolist()],
                                         rel=1e-14, abs=0.0)
            assert type(pohozaev(traj, 1.0)) is float

    def test_derivative_matches_closed_form(self, jl_traj):
        p, n, alpha, q = 2.0, 4.0, 0.0, 5.0
        t, h = 1.0, 3e-4
        fd = (pohozaev(jl_traj, t + h) - pohozaev(jl_traj, t - h)) / (2.0 * h)
        w, _ = jl_traj.eval(t)
        expected = (
            t ** (n - 1.0 + alpha)
            * (n * p / (q + 1.0) - (n - p) + p * alpha / (q + 1.0))
            * w ** (q + 1.0)
        )
        assert fd == pytest.approx(expected, rel=1e-6)

    def test_wrong_class_rejected(self, gelfand3_traj):
        with pytest.raises(ValueError):
            pohozaev(gelfand3_traj, 1.0)

    def test_nan_time_rejected(self, jl_traj):
        with pytest.raises(ValueError):
            pohozaev(jl_traj, math.nan)

    def test_keeps_the_shape_of_the_times(self, jl_traj):
        grid = np.geomspace(jl_traj.t_start, jl_traj.t_end, 12)
        vals = pohozaev(jl_traj, grid.reshape(2, -1))
        assert vals.shape == (2, 6) and np.array_equal(vals.ravel(), pohozaev(jl_traj, grid))


class TestFluxIdentity:
    def test_quadrature_cross_check(self, gelfand3_traj, mems_traj, jl_traj):
        rng = np.random.default_rng(3)
        for traj in (gelfand3_traj, mems_traj, jl_traj):
            p, n, alpha, q = traj.params.p, traj.params.n, traj.params.alpha, traj.params.q
            sgn = 1.0 if traj.problem is M else -1.0

            def flux(wp):  # phi(w') = w' |w'|^(p-2)
                return math.copysign(abs(wp) ** (p - 1.0), wp)

            def source(w):
                if traj.problem is G:
                    return math.exp(w)
                if traj.problem is M:
                    return w**-q
                return w**q

            for _ in range(5):
                lo = math.exp(rng.uniform(math.log(0.01), math.log(traj.t_end / 100)))
                hi = lo * math.exp(rng.uniform(0.5, 3.0))
                integral, err = quad(
                    lambda s: s ** (n + alpha - 1.0) * source(traj.eval(s)[0]),
                    lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200,
                )
                va, vb = (s ** (n - 1.0) * flux(traj.eval(s)[1]) for s in (lo, hi))
                lhs = vb - va
                rhs = sgn * integral
                scale = abs(va) + abs(vb) + abs(integral) + 1e-12
                assert abs(lhs - rhs) <= 1e-7 * scale
