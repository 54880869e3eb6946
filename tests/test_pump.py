import math

import numpy as np
import pytest
from test_numerics import BAD_TRACES

from liebau.errors import LiebauError, NonpositiveLevel
from liebau.funcspec import PeriodicFunction
from liebau.problem import LiebauProblem, regularize
from liebau.pump import pump_report, singular_residual, x_to_u
from liebau.solve import SolveOptions, solve_periodic

# the tank problem's grid arange(n) * (T/n), T = 2 pi
TANK_NODES = np.arange(1024) * (2 * math.pi / 1024)


def closed_form_trace(v0: float) -> np.ndarray:
    return (v0 - 2.0) + np.cos(TANK_NODES)


class TestSingularResidual:
    def test_closed_form_with_fd_derivatives(self, tank_lp):
        res = singular_residual(tank_lp(4.0), closed_form_trace(4.0))
        assert res < 1e-4

    def test_closed_form_with_analytic_derivatives(self, tank_lp):
        u = closed_form_trace(4.0)
        res = singular_residual(
            tank_lp(4.0), u, uprime=-np.sin(TANK_NODES), usecond=-np.cos(TANK_NODES)
        )
        assert res < 1e-12

    def test_constant_equilibrium(self):
        lp = LiebauProblem(0.5, 0.25, 0.2, 1.0, PeriodicFunction.constant(1.0, 1.0))
        assert singular_residual(lp, np.full(256, 1.0 / 0.2)) < 1e-12

    def test_rejects_nonpositive_level(self, tank_lp):
        bad = closed_form_trace(4.0) - 1.0
        with pytest.raises(NonpositiveLevel):
            singular_residual(tank_lp(4.0), bad)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        *(({"u": t}, "^u ") for t in BAD_TRACES),
        *(({"uprime": t}, "^uprime ") for t in BAD_TRACES),
        *(({"usecond": t}, "^usecond ") for t in BAD_TRACES),
        ({"uprime": np.zeros(1023)}, "shape"),
        ({"usecond": np.zeros((1, 1024))}, "^usecond "),
        ({"uprime": None}, "^uprime "),
    ],
)
def test_singular_residual_refuses_bad_trace(kwargs, message, tank_lp):
    args = {"u": closed_form_trace(4.0), "uprime": -np.sin(TANK_NODES), "usecond": -np.cos(TANK_NODES)}
    with pytest.raises(LiebauError, match=message):
        singular_residual(tank_lp(4.0), **{**args, **kwargs})


@pytest.mark.parametrize("trace", BAD_TRACES)
def test_pump_report_refuses_bad_trace(trace, tank_lp):
    with pytest.raises(LiebauError, match="^u "):
        pump_report(tank_lp(4.0), trace)


@pytest.mark.parametrize("trace", [*BAD_TRACES, [1.0, -1.0]])
def test_x_to_u_refuses_bad_trace(trace):
    with pytest.raises(LiebauError, match="^x "):
        x_to_u(trace, 0.5)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, "x", None, True])
def test_pump_report_refuses_bad_tol(bad, tank_lp):
    with pytest.raises(LiebauError, match="^tol must be a finite real number"):
        pump_report(tank_lp(4.0), closed_form_trace(4.0), tol=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, "a", None, True])
def test_x_to_u_refuses_bad_mu(bad):
    with pytest.raises(LiebauError, match="^mu must be a finite real number"):
        x_to_u(np.full(8, 2.0), bad)


@pytest.mark.parametrize("tol", [-1.0, -1e-300])
def test_pump_report_refuses_negative_tol(tol):
    # a constant trace has delta 0 - 0.965 here, which a negative tol once read as pumping
    lp = LiebauProblem(0.5, 0.25, 0.2, 1.0, PeriodicFunction.constant(1.0, 0.007))
    with pytest.raises(LiebauError, match="^tol must be at least 0"):
        pump_report(lp, np.full(128, 1.0), tol=tol)


def test_pump_report_accepts_zero_tol(tank_lp):
    assert pump_report(tank_lp(4.0), closed_form_trace(4.0), tol=0.0).pumping_detected


@pytest.mark.parametrize("mu", [0.0, -0.2, 0.5, 5.0])
def test_x_to_u_refuses_mu_outside_the_open_half_interval(mu):
    with pytest.raises(LiebauError, match=r"^need 0 < mu < 1/2"):
        x_to_u(np.full(8, 2.0), mu)


class TestTransform:
    def test_constant_power(self):
        u = x_to_u(np.full(64, (1.54 / 1.49) ** 100), 0.01)
        np.testing.assert_allclose(u, 1.54 / 1.49, rtol=1e-12)

    def test_cube_root_recovers_pipe_level(self):
        n = 128
        nodes = np.arange(n) * 2 * math.pi / n
        u = x_to_u((2 + np.cos(nodes)) ** 3, 1.0 / 3.0)
        np.testing.assert_allclose(u, 2 + np.cos(nodes), rtol=1e-12)

    def test_round_trip(self):
        n = 64
        rng = np.random.default_rng(0)
        vals = 1.0 + rng.uniform(0, 1, n)
        back = x_to_u(vals**5.0, 0.2)
        np.testing.assert_allclose(back, vals, rtol=1e-12)


class TestPumpReport:
    def test_closed_form_balance(self, tank_lp):
        # u = 2 + cos t: u_mean = 2, e_mean/c = 7, int (u')^2 = pi, and the
        # depression is (b-1) pi / (c T) = 5, independent of everything else
        report = pump_report(tank_lp(4.0), closed_form_trace(4.0))
        assert report.u_mean == pytest.approx(2.0, abs=1e-13)
        assert report.e_mean_over_c == pytest.approx(7.0, rel=1e-13)
        assert report.uprime_l2sq == pytest.approx(math.pi, rel=1e-12)
        assert report.delta == pytest.approx(5.0, abs=1e-12)
        assert report.identity_residual < 1e-10
        assert report.pumping_detected

    @pytest.mark.parametrize("v0", [3.5, 4.0, 10.0])
    def test_depression_is_volume_independent(self, tank_lp, v0):
        report = pump_report(tank_lp(v0), closed_form_trace(v0))
        assert report.delta == pytest.approx(5.0, abs=1e-12)
        assert report.identity_residual < 1e-10

    def test_constant_regime_has_no_pumping(self):
        lp = LiebauProblem(0.5, 0.25, 0.2, 1.0, PeriodicFunction.constant(1.0, 1.0))
        report = pump_report(lp, np.full(128, 5.0))
        assert report.delta == pytest.approx(0.0, abs=1e-12)
        assert report.uprime_l2sq == pytest.approx(0.0, abs=1e-15)
        assert not report.pumping_detected

    def test_solver_output_pumps(self, cosine_lp):
        sol = solve_periodic(regularize(cosine_lp))
        u = x_to_u(sol.values, cosine_lp.mu)
        report = pump_report(cosine_lp, u)
        assert report.delta > 0.0
        assert report.identity_residual < 1e-6
        assert report.pumping_detected

    def test_identity_tracks_residual_for_family(self, tank_lp):
        # the balance is an exact consequence of the equation, so a trace
        # with tiny model residual must have tiny balance residual
        for v0 in (3.5, 4.0, 10.0):
            lp = tank_lp(v0)
            u = closed_form_trace(v0)
            model_res = singular_residual(
                lp, u, uprime=-np.sin(TANK_NODES), usecond=-np.cos(TANK_NODES)
            )
            report = pump_report(lp, u)
            norm = float(np.max(np.abs(u)))
            assert report.identity_residual <= max(model_res, 1e-13) * 100 * lp.T * norm
