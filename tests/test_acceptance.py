"""Acceptance matrix, one test per criterion at its pinned tolerance.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion, or ``pfold verify`` for the same matrix as a table.

One criterion is expected to fail: the curve value at t = 1e3 for the
exponential problem at (p, alpha, n) = (2, 0, 3) is
lambda = 2.0533104876..., confirmed independently by fixed-step RK4 and by
re-integration at tighter tolerances from different startup points, so the
pinned bound |lambda(1e3) - 2| <= 0.05 is exceeded by ~0.0033.  The
criterion is asserted as pinned and marked strict-xfail rather than
loosened.
"""

import dataclasses

import pytest

from pfold import Params, ProblemClass, curve, ivp
from pfold.verify import KNOWN_FAILING, run_acceptance

EXPECTED_CHECKS = [
    "1-gelfand-spiral/lambda-gap-1e3",
    "1-gelfand-spiral/turn-count",
    "1-gelfand-spiral/lambda-alternation",
    "1-gelfand-spiral/lambda-gaps-decreasing",
    "2-gelfand-boundary/double-root",
    "2-gelfand-boundary/no-turns",
    "2-gelfand-boundary/window-boundary",
    "3-mems-spiral/conditions-hold",
    "3-mems-spiral/lambda-gap-1e3",
    "3-mems-spiral/turn-count",
    "3-mems-spiral/interlacing",
    "3-mems-spiral/extrema-decreasing",
    "3-mems-spiral/profile-gap",
    "4-jl-window/conditions-hold",
    "4-jl-window/no-zero-event",
    "4-jl-window/pohozaev",
    "4-jl-window/lambda-gap-1e3",
    "4-jl-window/turn-count",
    "5-guiding-residuals/gelfand-p2-n3-a0",
    "5-guiding-residuals/gelfand-p3-n5-a1",
    "5-guiding-residuals/gelfand-p1.5-n2-a0.5",
    "5-guiding-residuals/mems-p2-n3-a0-q2",
    "5-guiding-residuals/mems-p2-n4-a1-q5",
    "5-guiding-residuals/mems-p3-n4-a0.5-q2",
    "5-guiding-residuals/jl-p2-n4-a0-q5",
    "5-guiding-residuals/jl-p2-n5-a1-q3",
    "5-guiding-residuals/jl-p2.5-n5-a0-q4",
    "6-startup-consistency/gelfand",
    "6-startup-consistency/mems",
    "6-startup-consistency/jl",
    "7-oracle-equivalence/gelfand-n3",
    "7-oracle-equivalence/gelfand-n10",
    "7-oracle-equivalence/mems-n3",
    "7-oracle-equivalence/jl-n4",
    "8-condition-exactness/gelfand-window-endpoints",
    "8-condition-exactness/jl-integer-window",
    "8-condition-exactness/mems-threshold-value",
    "9-self-convergence/gelfand",
    "9-self-convergence/mems",
    "9-self-convergence/jl",
]

_cache = {}


def _matrix():
    if "results" not in _cache:
        _cache["results"] = {r.check_id: r for r in run_acceptance()}
    return _cache["results"]


def test_matrix_covers_exactly_the_pinned_criteria():
    assert sorted(_matrix()) == sorted(EXPECTED_CHECKS)


@pytest.mark.parametrize(
    "check_id",
    [
        pytest.param(
            cid,
            marks=pytest.mark.xfail(
                strict=True,
                reason="lambda(1e3) = 2.0533104876 exceeds the pinned 0.05 gap; "
                "value confirmed by independent integrators",
            ),
        )
        if cid in KNOWN_FAILING
        else cid
        for cid in EXPECTED_CHECKS
    ],
)
def test_criterion(check_id):
    result = _matrix()[check_id]
    print(result.line())
    assert result.passed, result.detail


def test_shooting_on_the_general_radial_form():
    # row 7 shoots at p = 2, alpha = 0 only; gelfand (3, 5, 1) runs the general
    # radial form: its curve point at t = 1 shoots to u(1) = 0
    params, problem = Params(p=3, n=5, alpha=1), ProblemClass.GELFAND
    w, _ = ivp.integrate(params, problem).eval(1.0)
    lam, u0 = curve.curve_values(problem, params, 1.0, w)
    point = curve.CurvePoint(t=1.0, lam=lam, u0=u0, monitor=0.0)
    assert curve.shooting_check(params, problem, point) < 1e-6


def test_startup_row_catches_a_wrong_series_coefficient(monkeypatch):
    # 1e-3 on the first series coefficient beyond the two-term start moves
    # w(t1) by 5e-6 to 5e-5 relative against the 1e-6 bound
    series = ivp._series

    def perturbed(params, problem):
        s = series(params, problem)
        return dataclasses.replace(s, u=(s.u[0], s.u[1] * 1.001) + s.u[2:])

    monkeypatch.setattr(ivp, "_series", perturbed)
    results = run_acceptance(only="6-startup")
    assert [r.criterion for r in results] == ["gelfand", "mems", "jl"]
    assert not any(r.passed for r in results), [r.line() for r in results]
