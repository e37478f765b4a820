import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from pfold import (
    CurvePoint,
    IntegratorConfig,
    Params,
    ProblemClass,
    TruncatedTrajectoryError,
    build_curve,
    check_conditions,
    check_interlacing,
    closed_forms,
    convergence,
    curve_values,
    guiding_eval,
    integrate,
    intersections,
    monitor,
    profile,
    shooting_check,
    singular_profile,
    turning_points,
)
from pfold.curve import GUARD_FACTOR, ROOT_RTOL, _error_guard, _roots
from pfold.ivp import _bisect
from pfold.verify import RESIDUAL_SETS

from conftest import GELFAND3, GELFAND10, JL454, JL_ZERO, MEMS233

G, M, J = ProblemClass.GELFAND, ProblemClass.MEMS, ProblemClass.JOSEPH_LUNDGREN


class TestBuildCurve:
    def test_gelfand_algebraic_identity(self, gelfand3_traj):
        curve = build_curve(gelfand3_traj)
        for pt in curve.points[:: len(curve.points) // 20]:
            assert pt.lam * math.exp(pt.u0) == pytest.approx(pt.t**2, rel=1e-14)

    def test_mems_algebraic_identity(self, mems_traj):
        curve = build_curve(mems_traj)
        for pt in curve.points[:: len(curve.points) // 20]:
            assert pt.lam == pytest.approx(pt.t**2 * (1.0 - pt.u0) ** 3, rel=1e-13)

    def test_jl_algebraic_identity(self, jl_traj):
        curve = build_curve(jl_traj)
        for pt in curve.points[:: len(curve.points) // 20]:
            assert pt.lam == pytest.approx(pt.t**2 * (1.0 + pt.u0) ** -4.0, rel=1e-13)

    def test_row_count_contract(self, gelfand3_traj):
        assert len(build_curve(gelfand3_traj, samples_per_decade=50).points) == 501
        assert len(build_curve(gelfand3_traj, samples_per_decade=7).points) == 71

    def test_jl_limit_value(self, jl_traj):
        curve = build_curve(jl_traj)
        assert curve.points[-1].lam == pytest.approx(0.75, abs=0.01)

    def test_empty_sampling_rejected(self, gelfand3_traj):
        with pytest.raises(ValueError):
            build_curve(gelfand3_traj, samples_per_decade=0)

    def test_truncated_jl_curve(self, jl_zero_traj):
        curve = build_curve(jl_zero_traj)
        assert curve.truncated
        assert all(pt.lam > 0.0 for pt in curve.points)
        assert curve.t_end < jl_zero_traj.t_end

    def test_u0_strictly_increasing(self, gelfand3_traj, mems_traj, jl_traj):
        for traj in (gelfand3_traj, mems_traj, jl_traj):
            u0 = np.array([pt.u0 for pt in build_curve(traj).points])
            assert np.all(np.diff(u0) > 0.0)

    def test_mems_u0_range(self, mems_traj):
        u0 = np.array([pt.u0 for pt in build_curve(mems_traj).points])
        assert np.all((u0 >= 0.0) & (u0 < 1.0))


class TestMonitor:
    @pytest.mark.parametrize("params,problem", [
        (MEMS233, M), (GELFAND3, G), (JL454, J),
    ])
    def test_guiding_solution_is_a_root(self, params, problem):
        cf = closed_forms(params, problem)
        for t in (0.5, 1.0, 7.0):
            w0, w0p = guiding_eval(cf, t)
            m = monitor(problem, params, t, w0, w0p)
            assert abs(m) <= 1e-12 * (1.0 + abs(w0) + abs(t * w0p))

    def test_startup_limits(self, mems_traj, jl_traj):
        # M -> alpha + p at t -> 0 for mems and jl (w -> 1, t w' -> 0)
        for traj in (mems_traj, jl_traj):
            t = traj.t_start
            w, wp = traj.eval(t)
            assert monitor(traj.problem, traj.params, t, w, wp) == pytest.approx(2.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(problem=st.sampled_from([G, M, J]), p=st.floats(1.5, 4.0),
           n_minus_p=st.floats(0.05, 12.0),
           alpha=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), uq=st.floats(0.0, 1.0))
    def test_sign_is_the_sign_of_the_lambda_slope(self, problem, p, n_minus_p, alpha, uq):
        # the sweep ranges of test_ivp.TestStartupSeries; wherever |M| clears
        # the fold guard, sign(M) is that of a centered difference of lambda
        # (no mismatch in 3,000 examples of 2,000 points, down to |M| = guard)
        q = {G: None, M: 0.5 + 7.5 * uq, J: max(1.0, p - 1.0) + 0.25 + 8.0 * uq}[problem]
        params = Params(p=p, n=p + n_minus_p, alpha=alpha, q=q)
        traj = integrate(params, problem)
        t = np.geomspace(2.0 * traj.t_start, 0.99 * traj.t_end, 400)
        w, wp = traj.eval_many(t)
        m = monitor(problem, params, t, w, wp)
        lam_hi, _ = curve_values(problem, params, t * (1 + 1e-5), traj.eval_many(t * (1 + 1e-5))[0])
        lam_lo, _ = curve_values(problem, params, t * (1 - 1e-5), traj.eval_many(t * (1 - 1e-5))[0])
        # magnitudes of the coefficients on w and t w' in the monitor forms
        e = None if q is None else (q - p + 1.0 if problem is J else p + q - 1.0)
        coeff = 1.0 if e is None else alpha + p + abs(e)
        clear = np.abs(m) > _error_guard(traj, w, t * wp, coeff)
        assert clear.sum() > 200  # at least 1461 of 2000 in those examples
        assert np.array_equal(np.sign(m[clear]), np.sign(lam_hi - lam_lo)[clear])


def _shoot_u1(lam, u0, source=math.exp, n=3.0, rtol=1e-9, atol=1e-12):
    """Radial shot of ``-Laplace u = lam source(u)`` at p = 2, alpha = 0 via scipy RK45."""
    g0 = lam * source(u0)
    r0 = min(1e-6, math.sqrt(2.0 * n * 1e-10 / g0))

    def rhs(r, y):
        return [y[1] / r ** (n - 1.0), -lam * r ** (n - 1.0) * source(y[0])]

    y0 = [u0 - g0 * r0**2 / (2.0 * n), -g0 * r0**n / n]
    sol = solve_ivp(rhs, (r0, 1.0), y0, method="RK45", rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[0, -1]


class TestTurningPoints:
    def test_gelfand10_no_turns_with_grid_scan_oracle(self, gelfand10_traj):
        assert turning_points(gelfand10_traj) == []
        grid = np.geomspace(gelfand10_traj.t_start, gelfand10_traj.t_end, 1_000_000)
        w, wp = gelfand10_traj.eval_many(grid)
        m = monitor(G, GELFAND10, grid, w, wp)
        resolved = np.abs(m) > 1e-7
        signs = np.sign(m[resolved])
        assert np.all(signs[:-1] * signs[1:] > 0)

    def test_real_root_regime_is_monotone(self):
        traj = integrate(Params(p=2, n=12, alpha=0), G)
        assert turning_points(traj) == []

    def test_gelfand3_spiral(self, gelfand3_traj):
        turns = turning_points(gelfand3_traj)
        assert len(turns) >= 4
        directions = [tp.direction for tp in turns]
        assert all(a != b for a, b in zip(directions[:-1], directions[1:]))
        assert directions[0] == "right-to-left"
        signs = [tp.lambda_star - 2.0 for tp in turns]
        assert all(a * b < 0 for a, b in zip(signs[:-1], signs[1:]))
        gaps = [abs(s) for s in signs]
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))

    def test_gelfand3_against_shooting_fold_oracle(self, gelfand3_traj):
        turns = turning_points(gelfand3_traj)
        u0_grid = np.linspace(0.5, 17.5, 40)
        lam_of_u0 = np.array([
            brentq(lambda lam: _shoot_u1(lam, u0), 1e-9, 4.4, xtol=1e-6)
            for u0 in u0_grid
        ])
        d = np.diff(lam_of_u0)
        fold_idx = np.flatnonzero(d[:-1] * d[1:] < 0.0)
        fold_u0 = u0_grid[fold_idx + 1]
        in_window = [tp for tp in turns if 0.5 <= tp.u0_star <= 17.5]
        assert len(fold_u0) == len(in_window) == 4
        spacing = u0_grid[1] - u0_grid[0]
        for tp, u0_est in zip(in_window, fold_u0):
            assert abs(tp.u0_star - u0_est) <= 2.0 * spacing

    def test_first_gelfand_fold_value(self, gelfand3_traj):
        # classical fold of the exponential problem on the 3-ball
        tp = turning_points(gelfand3_traj)[0]
        assert tp.lambda_star == pytest.approx(3.321992, rel=1e-5)
        assert tp.u0_star == pytest.approx(1.60745, rel=1e-4)

    def test_lambda_monotone_between_folds(self, gelfand3_traj):
        turns = turning_points(gelfand3_traj)
        curve = build_curve(gelfand3_traj, samples_per_decade=80)
        t_stars = [tp.t_star for tp in turns]
        lam = np.array([pt.lam for pt in curve.points])
        ts = np.array([pt.t for pt in curve.points])
        for a, b in zip(t_stars[:-1], t_stars[1:]):
            inside = (ts > a) & (ts < b)
            d = np.diff(lam[inside])
            d = d[np.abs(d) > 1e-12 * np.abs(lam[inside][:-1])]
            assert len(d) > 0
            assert np.all(d > 0) or np.all(d < 0)


# The fold and crossing scan that event location on the dense rows replaced,
# kept as an oracle: a log grid of 64 points per decade plus the trajectory
# nodes, the guard in the units of (w, t w'), and bisection through eval.

def _oracle_pairs(traj, t_lo, values_at, coeff_sum):
    decades = math.log10(traj.t_end / t_lo)
    grid = np.geomspace(t_lo, traj.t_end, max(int(round(64 * decades)), 8) + 1)
    grid = np.unique(np.concatenate([grid, traj.ts[traj.ts >= t_lo]]))
    w, wp = traj.eval_many(grid)
    vals = values_at(grid, w, wp)
    idx = np.flatnonzero(np.abs(vals) > _error_guard(traj, w, grid * wp, coeff_sum))
    return [(float(grid[i]), float(grid[j]), float(vals[i]))
            for i, j in zip(idx[:-1], idx[1:]) if vals[i] * vals[j] < 0.0]


def _oracle_turning_points(traj):
    problem, params = traj.problem, traj.params
    # the magnitudes of the coefficients on w and t w': 1, or alpha + p + |E|
    coeff = 1.0
    if problem is not G:
        e = params.q - (params.p - 1.0) if problem is J else params.q + params.p - 1.0
        coeff = params.alpha + params.p + abs(e)

    def m_at(t, w, wp):
        return monitor(problem, params, t, w, wp)

    out = []
    for a, b, m_a in _oracle_pairs(traj, traj.t_start, m_at, coeff):
        t_star = _bisect(lambda t: m_at(t, *traj.eval(t)), a, b, m_a, ROOT_RTOL)
        lam, u0 = curve_values(problem, params, t_star, traj.eval(t_star)[0])
        out.append((t_star, lam, u0, "right-to-left" if m_a > 0.0 else "left-to-right"))
    return out


def _oracle_crossings(traj, t_min=None):
    cf = closed_forms(traj.params, traj.problem)

    def p_at(t, w, wp):
        return w - guiding_eval(cf, t)[0]

    return [_bisect(lambda t: p_at(t, *traj.eval(t)), a, b, p_a, ROOT_RTOL)
            for a, b, p_a in _oracle_pairs(traj, t_min or 10.0 * traj.t_start, p_at, 1.0)]


def _assert_folds_match_oracle(traj):
    turns = turning_points(traj)
    oracle = _oracle_turning_points(traj)
    assert [tp.direction for tp in turns] == [d for *_, d in oracle]
    for tp, (t_star, lam, u0, _) in zip(turns, oracle):
        assert tp.t_star == pytest.approx(t_star, rel=1e-7)
        assert tp.lambda_star == pytest.approx(lam, rel=1e-12)
    return turns


def _assert_crossings_match_oracle(traj, t_min=None):
    times = intersections(traj, t_min=t_min).times
    oracle = _oracle_crossings(traj, t_min)
    assert len(times) == len(oracle)
    assert times == pytest.approx(oracle, rel=1e-7)
    return times


class TestEventLocation:
    """Folds and crossings located on the dense rows agree with the grid scan."""

    @settings(max_examples=25, deadline=None)
    @given(problem=st.sampled_from([G, M, J]), p=st.floats(1.5, 4.0),
           n_minus_p=st.floats(0.05, 12.0),
           alpha=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), uq=st.floats(0.0, 1.0),
           t_max=st.sampled_from([1e4, 1e8]))
    def test_folds_match_grid_scan_oracle(self, problem, p, n_minus_p, alpha, uq, t_max):
        # the sweep ranges; identical counts and directions on 600 random
        # cases, t* within 8.1e-9 and lambda* within 1.7e-14 (relative)
        q = {G: None, M: 0.5 + 7.5 * uq, J: max(1.0, p - 1.0) + 0.25 + 8.0 * uq}[problem]
        params = Params(p=p, n=p + n_minus_p, alpha=alpha, q=q)
        _assert_folds_match_oracle(integrate(params, problem, IntegratorConfig(t_max=t_max)))

    def test_crossings_match_grid_scan_oracle(self, gelfand3_traj, mems_traj, jl_traj):
        for traj in (gelfand3_traj, mems_traj, jl_traj):
            assert len(_assert_crossings_match_oracle(traj)) >= 4

    def test_extrema_are_the_largest_deviations(self, gelfand3_traj, mems_traj, jl_traj):
        for traj in (gelfand3_traj, mems_traj, jl_traj):
            cf = closed_forms(traj.params, traj.problem)
            rec = intersections(traj, cf)
            for a, b, t_ext, dev in zip(rec.times[:-1], rec.times[1:], rec.extrema_times,
                                        rec.extrema_abs):
                assert a < t_ext < b
                grid = np.geomspace(a, b, 2001)
                sampled = np.max(np.abs(traj.eval_many(grid)[0] - guiding_eval(cf, grid)[0]))
                assert dev == pytest.approx(sampled, rel=1e-6)
                assert dev >= sampled * (1.0 - 1e-12)

    def test_jl_zero_trajectory(self, jl_zero_traj):
        # the last step reaches past the zero of w, where the trajectory ends
        assert jl_zero_traj.termination == "zero"
        assert len(_assert_folds_match_oracle(jl_zero_traj)) >= 1
        assert len(_assert_crossings_match_oracle(jl_zero_traj)) >= 2

    def test_truncated_trajectory(self):
        with pytest.raises(TruncatedTrajectoryError) as info:
            integrate(GELFAND3, G, IntegratorConfig(t_max=1e8, max_steps=30))
        traj = info.value.trajectory
        assert len(_assert_folds_match_oracle(traj)) >= 3
        assert len(_assert_crossings_match_oracle(traj)) >= 3

    def test_series_only_trajectory(self):
        # the series reaches t = 1.68, past the first crossing at 1.596
        traj = integrate(JL_ZERO, J, IntegratorConfig(t_max=1.65))
        assert [s.phase for s in traj.stats] == ["series"]
        assert _assert_folds_match_oracle(traj) == []
        assert len(_assert_crossings_match_oracle(traj)) == 1

    def test_t_min_inside_a_step_and_the_series(self, mems_traj, jl_traj):
        for traj in (mems_traj, jl_traj):
            full = intersections(traj).times
            k = int(np.searchsorted(traj.ts, full[1]))
            # inside the step past the second crossing, and inside the series segment
            for t_min in (math.sqrt(traj.ts[k - 1] * traj.ts[k]), 0.5 * traj.ts[1]):
                times = _assert_crossings_match_oracle(traj, t_min)
                assert list(times) == [t for t in full if t > t_min]

    @pytest.mark.parametrize("row", [0, 15])
    @pytest.mark.parametrize("offset", [-0.25, 0.25])
    def test_root_next_to_a_row_boundary(self, gelfand3_traj, row, offset):
        # a root between the last sample of a row (row 0: of the series) and
        # the first of the next (offset < 0), or just past that first sample
        # (offset > 0), as a fraction of the sample spacing
        traj = gelfand3_traj
        smp = traj._samples
        b = int(np.flatnonzero(smp.row == row)[0])
        x_b = smp.x[b]
        x_root = x_b + offset * (smp.x[b + 1] - x_b if offset > 0 else x_b - smp.x[b - 1])
        roots = _roots(traj, lambda x, big_w, y: x - x_root)
        assert len(roots) == 1
        x, big_w, _, _, positive = roots[0]
        assert x == pytest.approx(x_root, abs=ROOT_RTOL) and not positive
        assert big_w == pytest.approx(traj.eval(math.exp(x))[0], rel=1e-12)

    def test_bracket_spanning_rows(self, gelfand3_traj):
        # the guard hides every sample within 1.5 steps of the root, so its
        # bracket spans several rows; the root is refined on the row that holds it
        traj = gelfand3_traj
        k = len(traj.ts) // 2
        step = traj._steps[k - traj._n_series]
        x_root = step[0] + 0.3 * step[1]
        cfg = traj.config
        width = 1.5 * step[1]

        def fn(x, big_w, y):
            return (x - x_root) * (np.abs(big_w) + np.abs(y) + 1.0 + cfg.abs_tol / cfg.rel_tol)

        hidden = np.abs(traj._samples.x - x_root) < width
        assert len(set(traj._samples.row[hidden].tolist())) >= 3
        roots = _roots(traj, fn, width / (GUARD_FACTOR * cfg.rel_tol))
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(x_root, abs=ROOT_RTOL)


class TestRealRootFolds:
    """Outside the oscillation window the characteristic roots are real and
    the curve is monotone, so no fold may be reported, out to t = 1e8."""

    CONFIG = IntegratorConfig(t_max=1e8)

    @pytest.mark.parametrize("p,n", [(2.5, 13.75), (3.0, 13.0), (3.0, 12.5)])
    def test_pinned_cases(self, p, n):
        traj = integrate(Params(p=p, n=n, alpha=0), G, self.CONFIG)
        assert turning_points(traj) == []

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.5, 4.0), alpha=st.floats(0.0, 2.0), u=st.floats(0.0, 1.0))
    def test_no_folds(self, p, alpha, u):
        # n from the window's upper end (p^2 + 3p + 4 alpha)/(p - 1) up to p + 14
        upper = (p * p + 3.0 * p + 4.0 * alpha) / (p - 1.0)
        assume(upper < p + 14.0)
        params = Params(p=p, n=upper + u * (p + 14.0 - upper), alpha=alpha)
        assert not check_conditions(params, G).conditions["dimension_window"].holds
        assert turning_points(integrate(params, G, self.CONFIG)) == []


class TestIntersections:
    def test_mems_crossings_with_grid_scan_oracle(self, mems_traj):
        cf = closed_forms(MEMS233, M)
        rec = intersections(mems_traj, cf)
        assert len(rec.times) >= 3
        assert rec.times[0] < 10.0  # the first crossing exists early on
        grid = np.geomspace(10.0 * mems_traj.t_start, mems_traj.t_end, 100_000)
        w, _ = mems_traj.eval_many(grid)
        w0, _ = guiding_eval(cf, grid)
        pv = w - w0
        resolved = np.abs(pv) > 1e-7
        signs = np.sign(pv[resolved])
        assert int(np.sum(signs[:-1] * signs[1:] < 0)) == len(rec.times)

    def test_extrema_decreasing(self, mems_traj):
        rec = intersections(mems_traj)
        assert len(rec.extrema_abs) == len(rec.times) - 1
        tail = rec.extrema_abs[-3:]
        assert tail[0] > tail[1] > tail[2]

    def test_interlacing_with_turns(self, mems_traj, gelfand3_traj, jl_traj):
        for traj in (mems_traj, gelfand3_traj, jl_traj):
            rec = intersections(traj)
            turns = [tp.t_star for tp in turning_points(traj)]
            assert check_interlacing(rec.times, turns)
            assert abs(len(rec.times) - len(turns)) <= 1

    def test_between_crossings_exactly_one_turn(self, mems_traj):
        rec = intersections(mems_traj)
        turns = [tp.t_star for tp in turning_points(mems_traj)]
        for a, b in zip(rec.times[:-1], rec.times[1:]):
            assert sum(1 for t in turns if a < t < b) == 1

    def test_t_min_must_exceed_t_start(self, mems_traj):
        with pytest.raises(ValueError):
            intersections(mems_traj, t_min=mems_traj.t_start)

    def test_check_interlacing_rejects_double_events(self):
        assert check_interlacing([1.0, 3.0], [2.0])
        assert not check_interlacing([1.0, 2.0], [3.0])


class TestConvergence:
    def test_gelfand_report(self, gelfand3_traj):
        rep = convergence(build_curve(gelfand3_traj), t_eval=1e3)
        assert rep.lambda_inf == pytest.approx(2.0)
        assert rep.lambda_gap == pytest.approx(0.05331048764, abs=1e-6)
        assert rep.char_root_real == pytest.approx(-0.5)
        gaps = rep.turning_lambda_gaps
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
        # the radial profile approaches -(p + alpha) ln r
        assert rep.profile_sup_gap == pytest.approx(0.105173, rel=1e-2)

    def test_mems_profile_limit(self, mems_traj):
        rep = convergence(build_curve(mems_traj), t_eval=1e3)
        assert rep.lambda_gap <= 0.02
        assert rep.profile_sup_gap == pytest.approx(1.3877e-4, rel=1e-2)
        assert rep.profile_sup_gap <= 0.02

    def test_jl_limit(self, jl_traj):
        rep = convergence(build_curve(jl_traj), t_eval=1e3)
        assert rep.lambda_inf == pytest.approx(0.75)
        assert rep.lambda_gap == pytest.approx(0.0143987, rel=1e-3)
        assert rep.lambda_gap <= 0.02

    def test_requires_long_trajectory(self):
        short = integrate(GELFAND3, G, IntegratorConfig(t_max=100.0))
        with pytest.raises(ValueError):
            convergence(build_curve(short))


class TestProfile:
    def test_boundary_value_exact_zero(self, gelfand3_traj, mems_traj, jl_traj):
        r = np.geomspace(0.1, 1.0, 16)
        long_runs = [integrate(params, problem, IntegratorConfig(t_max=1e8))
                     for params, problem in ((GELFAND3, G), (MEMS233, M), (JL454, J))]
        # gelfand (3,5,1): reading w(t) apart from w(t r) gave u(1) = -3.6e-15
        gelfand351 = integrate(Params(p=3, n=5, alpha=1), G)
        for traj in (gelfand3_traj, mems_traj, jl_traj, gelfand351, *long_runs):
            for t in (1e3, math.sqrt(traj.t_end), 0.5 * traj.t_end, traj.t_end):
                _, u = profile(traj, t, r)
                assert u[-1] == 0.0
                assert np.all(np.diff(u) < 0.0)

    def test_rejects_a_zero_of_w(self, jl_zero_traj):
        r = np.geomspace(0.1, 1.0, 16)
        t_zero = jl_zero_traj.zero_time
        with pytest.raises(ValueError, match=f"reaches zero at t = {t_zero!r}"):
            profile(jl_zero_traj, t_zero, r)
        _, u = profile(jl_zero_traj, 0.9 * t_zero, r)
        assert u[-1] == 0.0 and np.all(np.diff(u) < 0.0)

    def test_mems_profile_in_unit_interval(self, mems_traj):
        r = np.geomspace(0.01, 1.0, 64)
        _, u = profile(mems_traj, 1e3, r)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_range_violations(self, gelfand3_traj):
        with pytest.raises(ValueError):
            profile(gelfand3_traj, 1e3, np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError):
            profile(gelfand3_traj, 1e3, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            profile(gelfand3_traj, 2e4, np.array([0.5, 1.0]))

    def test_singular_profile_matches_guiding_scaling(self):
        r = np.geomspace(0.1, 1.0, 8)
        for problem, param_sets in RESIDUAL_SETS.items():
            for params in param_sets:
                cf = closed_forms(params, problem)
                # the explicit profiles: -(p+alpha) ln r, 1 - r^beta, r^-beta - 1
                explicit = {G: -cf.beta * np.log(r), M: 1.0 - r**cf.beta,
                            J: r**-cf.beta - 1.0}[problem]
                assert singular_profile(cf, r) == pytest.approx(explicit, rel=1e-12)
                assert singular_profile(cf, 1.0) == 0.0
                for t in (0.3, 37.0, 1e5):
                    w0_r, _ = guiding_eval(cf, t * r)
                    w0_t, _ = guiding_eval(cf, t)
                    expected = {G: w0_r - w0_t, M: 1.0 - w0_r / w0_t,
                                J: w0_r / w0_t - 1.0}[problem]
                    assert singular_profile(cf, r) == pytest.approx(expected, rel=1e-12)


class TestGeneralExponent:
    """End-to-end spirals away from p = 2."""

    def test_gelfand_p3_spiral(self):
        params = Params(p=3, n=5, alpha=1)
        cf = closed_forms(params, G)
        assert cf.lambda_inf == pytest.approx(32.0, rel=1e-13)
        traj = integrate(params, G)
        turns = turning_points(traj)
        assert len(turns) >= 4
        gaps = [abs(tp.lambda_star - 32.0) for tp in turns]
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
        w, _ = traj.eval(1e3)
        w0, _ = guiding_eval(cf, 1e3)
        assert abs(w - w0) < 1e-3

    def test_jl_p25_spiral_with_shooting(self):
        params = Params(p=2.5, n=5, alpha=0, q=5)
        cf = closed_forms(params, J)
        traj = integrate(params, J)
        turns = turning_points(traj)
        assert len(turns) >= 3
        assert turns[-1].lambda_star == pytest.approx(cf.lambda_inf, abs=0.06)
        for t in (1.0, 30.0):
            w, _ = traj.eval(t)
            lam, u0 = curve_values(J, params, t, w)
            assert shooting_check(params, J, CurvePoint(t, lam, u0, 0.0)) < 1e-6

    def test_mems_p3_approaches_guiding(self):
        params = Params(p=3, n=4, alpha=0.5, q=2)
        traj = integrate(params, M, IntegratorConfig(t_max=1e3))
        cf = closed_forms(params, M)
        w, _ = traj.eval(1e3)
        w0, _ = guiding_eval(cf, 1e3)
        assert abs(w / w0 - 1.0) < 1e-5
        for t in (1.0, 30.0):
            w, _ = traj.eval(t)
            lam, u0 = curve_values(M, params, t, w)
            assert shooting_check(params, M, CurvePoint(t, lam, u0, 0.0)) < 1e-6


class TestShootingCheck:
    @pytest.mark.parametrize("params,problem", [
        (GELFAND3, G), (MEMS233, M), (JL454, J),
    ])
    def test_curve_points_validate(self, params, problem, request):
        fixture = {G: "gelfand3_traj", M: "mems_traj", J: "jl_traj"}[problem]
        traj = request.getfixturevalue(fixture)
        for t in np.geomspace(0.1, 100.0, 5):
            w, _ = traj.eval(float(t))
            lam, u0 = curve_values(problem, params, float(t), w)
            point = CurvePoint(t=float(t), lam=lam, u0=u0, monitor=0.0)
            assert shooting_check(params, problem, point) < 1e-6

    def test_perturbed_point_rejected(self, request):
        # each |u(1)| against a shot with the paper's source exp(u),
        # (1-u)^-q or (1+u)^q
        for params, problem, fixture, source in (
            (GELFAND3, G, "gelfand3_traj", math.exp),
            (MEMS233, M, "mems_traj", lambda u: (1.0 - u) ** -2.0),
            (JL454, J, "jl_traj", lambda u: (1.0 + u) ** 5.0),
        ):
            w, _ = request.getfixturevalue(fixture).eval(10.0)
            lam, u0 = curve_values(problem, params, 10.0, w)
            good = CurvePoint(t=10.0, lam=lam, u0=u0, monitor=0.0)
            bad = CurvePoint(t=10.0, lam=1.1 * lam, u0=u0, monitor=0.0)
            assert shooting_check(params, problem, good) < 1e-6
            residual = shooting_check(params, problem, bad)
            assert residual > 1e-3
            shot = _shoot_u1(bad.lam, u0, source, n=params.n, rtol=1e-11, atol=1e-14)
            assert residual == pytest.approx(abs(shot), rel=1e-8)  # measured <= 4.7e-10

    def test_trivial_limit_point(self, gelfand3_traj):
        w, _ = gelfand3_traj.eval(1e-4)
        lam, u0 = curve_values(G, GELFAND3, 1e-4, w)
        assert lam < 1e-7 and 0 <= u0 < 1e-8
        assert shooting_check(GELFAND3, G, CurvePoint(1e-4, lam, u0, 0.0)) < 1e-7

    def test_mems_center_value_validation(self):
        with pytest.raises(ValueError):
            shooting_check(MEMS233, M, CurvePoint(1.0, 1.0, 1.5, 0.0))
