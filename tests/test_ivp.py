import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, OdeSolution, quad, solve_ivp

import pfold
from pfold import ivp
from pfold.ivp import _dop853, _log_phase, _series
from pfold.verify import RESIDUAL_SETS
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

from conftest import GELFAND3, GELFAND10, JL454, JL_ZERO, MEMS233

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
    t1, w1, v1 = traj.ts[1], traj.ws[1], traj.vs[1]
    assert t1 <= series.reach() and (w1, v1) == series.state(t1)
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
    ref = _dop853(rhs, 1e-8, start.w, start.v, t1, 3e-14, (1e-300, 1e-300), 10**6,
                  dense=False)
    w_ref, v_ref = ref.states[-1]
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
            wa, va = a.ws[-1], a.vs[-1]
            wb, vb = b.ws[-1], b.vs[-1]
            assert abs(wa - wb) <= 1e-6 * max(abs(wa), abs(wb))
            assert abs(va - vb) <= 1e-6 * max(abs(va), abs(vb))

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
        # the startup series reaches t = 1.36 here
        with pytest.raises(InvalidParamsError, match="reach"):
            integrate(GELFAND3, G, IntegratorConfig(t_start=3.0))

    def test_matches_flux_stepping_in_t(self):
        a = integrate(GELFAND3, G, IntegratorConfig(t_max=100.0))
        wa, _ = a.eval(100.0)
        wb = _scipy_flux_reference(a, 100.0).sol(100.0)[0]
        assert wa == pytest.approx(wb, rel=1e-8)
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


def _scipy_dop853_reference(params, problem, cfg, t1, w1, v1):
    """The generating IVP stepped by scipy's DOP853 as :func:`integrate`
    steps it: the Emden-Fowler system in ``ln t`` from the state
    ``(w1, v1)`` at the end ``t1`` of the series segment, with the same step
    cap and the absolute tolerance in the units of ``(w, v)`` at ``t1``.

    Returns the accepted steps per stepped phase and a vectorized ``(w, w')``
    on ``[t1, t_max]``.
    """
    p, n, alpha, q = params.p, params.n, params.alpha, params.q
    sgn = 1.0 if problem is M else -1.0
    source = {G: math.exp, M: lambda w: w**-q, J: lambda w: max(w, 0.0) ** q}[problem]
    g = 0.0 if problem is G else sgn * closed_forms(params, problem).beta
    c = p - n - g * (p - 1.0)

    def phiinv(s):
        return math.copysign(abs(s) ** (1.0 / (p - 1.0)), s) if s else 0.0

    def rhs(s, y):
        # W = w t^-g, Z = v t^c
        if problem is G:
            return (phiinv(y[1]), c * y[1] - math.exp((alpha + p) * s + y[0]))
        return (-g * y[0] + phiinv(y[1]), c * y[1] + sgn * source(y[0]))

    # the fixed point's fastest mode has the eigenvalue r - g
    log_step = 2.0 / max(abs(r - g) for r in characteristic_quadratic(params, problem).roots)
    scale = np.array([t1**-g, t1**c])
    x0 = math.log(t1)
    solver = DOP853(rhs, x0, np.array([w1, v1]) * scale, math.log(cfg.t_max),
                    rtol=cfg.rel_tol, atol=cfg.abs_tol * scale, max_step=log_step)
    xs, interps = [x0], []
    while solver.status == "running":
        solver.step()
        xs.append(solver.t)
        interps.append(solver.dense_output())
    assert solver.status == "finished"
    sol = OdeSolution(np.array(xs), interps)

    def dense(ts):
        big_w, z = sol(np.log(ts))
        w, v = big_w * ts**g, z * ts**-c
        arg = v / ts ** (n - 1.0)
        return w, np.sign(arg) * np.abs(arg) ** (1.0 / (p - 1.0))

    return [len(interps)], dense


def _scipy_flux_reference(traj, t_end):
    """The flux system ``(w, v)`` stepped in ``t`` by scipy's DOP853 at
    ``rtol = 1e-13`` from the series node of ``traj`` to ``t_end``, stopping
    at a zero of ``w``."""
    rhs = ivp._flux_rhs(traj.params, traj.problem)

    def zero(t, y):
        return y[0]

    zero.terminal, zero.direction = True, -1.0
    sol = solve_ivp(lambda t, y: rhs(t, *y), (traj.ts[1], t_end), [traj.ws[1], traj.vs[1]],
                    method="DOP853", rtol=1e-13, atol=1e-300, dense_output=True, events=zero)
    assert sol.status in (0, 1), sol.message
    return sol


class TestAgainstScipyDop853:
    """The in-repo stepper takes scipy's steps: same tableau, controller and
    schedule, so only rounding in the error sums separates the two."""

    @pytest.mark.parametrize("t_max", [1e4, 1e8])
    @pytest.mark.parametrize("params,problem", [
        (GELFAND3, G), (GELFAND10, G), (MEMS233, M), (JL454, J),
        (Params(p=3, n=5, alpha=1), G),
    ])
    def test_same_steps_and_dense_values(self, params, problem, t_max):
        cfg = IntegratorConfig(t_max=t_max)
        traj = integrate(params, problem, cfg)
        counts, dense = _scipy_dop853_reference(params, problem, cfg,
                                                traj.ts[1], traj.ws[1], traj.vs[1])
        assert [s.accepted for s in traj.stats if s.phase != "series"] == counts
        grid = np.geomspace(traj.ts[1], t_max, 500)
        w, wp = traj.eval_many(grid)
        w_ref, wp_ref = dense(grid)
        np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(wp, wp_ref, rtol=1e-11, atol=0.0)


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
        rhs, *_ = _log_phase(params, problem)
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

    @pytest.mark.parametrize("params,problem", CASES)
    def test_linearization_has_the_shifted_characteristic_roots(self, params, problem):
        rhs, g, *_ = _log_phase(params, problem)
        s = 0.7
        _, big_w, z = _guiding_log_state(params, problem, math.exp(s))
        jac = np.empty((2, 2))
        for i, h in enumerate((1e-6 * abs(big_w), 1e-6 * abs(z))):
            up = rhs(s, big_w + h * (i == 0), z + h * (i == 1))
            down = rhs(s, big_w - h * (i == 0), z - h * (i == 1))
            jac[:, i] = (np.array(up) - np.array(down)) / (2.0 * h)
        eig = sorted(np.linalg.eigvals(jac), key=lambda r: (r.real, r.imag))
        roots = sorted((r - g for r in characteristic_quadratic(params, problem).roots),
                       key=lambda r: (r.real, r.imag))
        scale = max(abs(r) for r in roots)
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
        np.testing.assert_allclose(a.eval_many(ts)[0], b.sol(ts)[0], rtol=1e-8)


def test_stepper_without_dense_output_takes_the_same_steps():
    rhs, *_ = _log_phase(GELFAND3, G)
    args = (rhs, 0.0, -0.3, -0.2, math.log(1e4), 1e-10, (1e-12, 1e-12), 10_000)
    full = _dop853(*args)
    bare = _dop853(*args, dense=False)
    assert bare.xs == full.xs and bare.states == full.states
    assert bare.rejected == full.rejected > 0
    assert bare.steps == [] and len(full.steps) == len(full.xs) - 1
    accepted = len(bare.xs) - 1
    # per accepted step the end point is still evaluated; the 3 dense stages are not
    assert full.nfev == 2 + 15 * accepted + 11 * full.rejected
    assert bare.nfev == 2 + 12 * accepted + 11 * bare.rejected


def test_import_leaves_scipy_unloaded():
    src = str(Path(pfold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, pfold; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestEval:
    def test_nodes_bitwise(self, gelfand3_traj):
        traj = gelfand3_traj
        for k in (0, 1, len(traj.ts) // 2, len(traj.ts) - 1):
            w, wp = traj.eval(float(traj.ts[k]))
            assert w == traj.ws[k]
            assert wp == traj.wprimes[k]
        w_arr, wp_arr = traj.eval_many(traj.ts)
        assert np.array_equal(w_arr, traj.ws)
        assert np.array_equal(wp_arr, traj.wprimes)

    def test_endpoint(self, gelfand3_traj):
        w, wp = gelfand3_traj.eval(gelfand3_traj.t_end)
        assert w == gelfand3_traj.ws[-1]
        assert wp == gelfand3_traj.wprimes[-1]

    def test_midpoints_against_reintegration(self, gelfand3_traj, gelfand3_fine_traj):
        rng = np.random.default_rng(7)
        ks = rng.integers(1, len(gelfand3_traj.ts) - 1, size=50)
        for k in ks:
            t = float(np.sqrt(gelfand3_traj.ts[k] * gelfand3_traj.ts[k + 1]))
            wa, _ = gelfand3_traj.eval(t)
            wb, _ = gelfand3_fine_traj.eval(t)
            assert wa == pytest.approx(wb, rel=1e-7, abs=1e-12)

    def test_out_of_range(self, gelfand3_traj):
        with pytest.raises(ValueError):
            gelfand3_traj.eval(1e-7)
        with pytest.raises(ValueError):
            gelfand3_traj.eval(2e4)


def _truncated_traj():
    with pytest.raises(TruncatedTrajectoryError) as info:
        integrate(GELFAND3, G, IntegratorConfig(t_max=1e8, max_steps=30))
    return info.value.trajectory


# a trajectory that ends inside the series segment (t_max <= t1)
SERIES_ONLY = (JL_ZERO, J, IntegratorConfig(t_max=1.65))


class TestSamples:
    """The dense samples on which pfold.curve locates folds and crossings."""

    @pytest.fixture(params=["gelfand3", "mems", "jl", "jl_zero", "truncated", "series_only"])
    def traj(self, request):
        if request.param == "truncated":
            return _truncated_traj()
        if request.param == "series_only":
            return integrate(*SERIES_ONLY)
        return request.getfixturevalue(f"{request.param}_traj")

    def test_cover_the_range_in_time_order(self, traj):
        smp = traj._samples
        rows = len(traj._table)
        series = ivp.SERIES_SAMPLES + (rows == 0) if traj._n_series or not rows else 0
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
        assert smp.scale == pytest.approx(t ** -traj._g, rel=1e-13)

    def test_row_point_reproduces_the_samples(self, traj):
        smp = traj._samples
        for i in range(0, len(smp.x), 5):
            point = traj._row_point(int(smp.row[i]), float(smp.theta[i]))
            expected = (smp.x[i], smp.big_w[i], smp.y[i], smp.scale[i])
            assert point == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_eval_matches_eval_many(self, traj):
        # the scalar and the vector reader of the same rows: random times, the
        # nodes (the row boundaries) and their neighbouring floats
        rng = np.random.default_rng(5)
        lo, hi = traj.t_start, traj.t_end
        ts = np.concatenate((np.exp(rng.uniform(math.log(lo), math.log(hi), 200)),
                             np.nextafter(traj.ts[1:], 0.0), np.nextafter(traj.ts[:-1], np.inf)))
        w, wp = traj.eval_many(ts)
        scalar = np.array([traj.eval(t) for t in ts.tolist()])
        scale = np.abs(w) + np.abs(ts * wp)
        assert np.all(np.abs(scalar[:, 0] - w) <= 1e-13 * scale)
        assert np.all(np.abs(ts * (scalar[:, 1] - wp)) <= 1e-13 * scale)
        w_nodes, wp_nodes = traj.eval_many(traj.ts)
        assert np.array_equal(w_nodes, traj.ws) and np.array_equal(wp_nodes, traj.wprimes)
        assert [traj.eval(t) for t in traj.ts.tolist()] == list(zip(traj.ws, traj.wprimes))

    def test_series_only_trajectory(self):
        traj = integrate(*SERIES_ONLY)
        assert [s.phase for s in traj.stats] == ["series"]
        assert np.all(traj._samples.row == -1)


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
