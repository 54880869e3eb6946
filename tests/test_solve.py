import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_numerics import two_sweep_solve

from liebau import greens, presets, solve
from liebau.errors import BadRadii, LeftPositiveCone, LiebauError
from liebau.funcspec import PeriodicFunction
from liebau.problem import GeneralProblem, regularize, shifted_rhs, truncated_rhs
from liebau.solve import (
    GridSolution,
    SolveOptions,
    cone_and_localization,
    fd_residual,
    picard_iterate,
    solve_periodic,
    solve_shifted_linear,
)


@pytest.fixture(scope="module")
def constant_solution(cosine_lp):
    # e = 1.54 constant: the exact solution is the constant (1.54/1.49)^100
    from liebau.problem import LiebauProblem

    lp = LiebauProblem(1.6, 0.01, 1.49, 1.0, PeriodicFunction.constant(1.0, 1.54))
    gp = regularize(lp)
    return gp, solve_periodic(gp)


@pytest.fixture(scope="module")
def tank_solution(tank_lp):
    gp = regularize(tank_lp(4.0))
    return gp, solve_periodic(gp, SolveOptions(bracket=(4.0, 40.0)))


class TestSolvePeriodic:
    def test_constant_anchor_from_default_guess(self, constant_solution):
        _, sol = constant_solution
        assert sol.converged
        anchor = (1.54 / 1.49) ** 100
        assert anchor == pytest.approx(27.1297, abs=1e-3)
        np.testing.assert_allclose(sol.values, anchor, rtol=1e-6)

    def test_tank_problem_recovers_closed_form(self, tank_solution):
        gp, sol = tank_solution
        exact = (2.0 + np.cos(sol.nodes)) ** 3
        assert float(np.max(np.abs(sol.values - exact))) < 1e-6

    def test_tank_residual_small(self, tank_solution):
        _, sol = tank_solution
        assert sol.sup_residual < 1e-8
        assert sol.sup_residual_exact_data < 1e-8

    def test_scheme_is_second_order_without_polish(self, tank_lp):
        gp = regularize(tank_lp(4.0))
        errs = {}
        for n in (256, 512):
            sol = solve_periodic(gp, SolveOptions(n=n, polish=False, bracket=(4.0, 40.0)))
            exact = (2.0 + np.cos(sol.nodes)) ** 3
            errs[n] = float(np.max(np.abs(sol.values - exact)))
        assert 3.5 <= errs[256] / errs[512] <= 4.5

    def test_figure_problem_cosine(self, cosine_lp):
        sol = solve_periodic(regularize(cosine_lp))
        assert sol.converged
        assert sol.min_value > 0.0
        assert sol.max_value < 38.0844
        assert sol.sup_residual < 1e-8

    def test_left_cone_from_tiny_guess(self, tank_lp):
        gp = regularize(tank_lp(4.0))
        with pytest.raises(LeftPositiveCone):
            solve_periodic(gp, SolveOptions(initial=0.05, max_iter=60))

    def test_budget_exhaustion_raises(self, tank_lp):
        from liebau.errors import NoConvergence

        gp = regularize(tank_lp(4.0))
        with pytest.raises(NoConvergence):
            solve_periodic(gp, SolveOptions(bracket=(4.0, 40.0), max_iter=2))

    def test_collapsed_iterate_is_not_converged(self, tank_lp):
        # from x = 0.05 the iterate collapses toward 0, where a Newton step of
        # ~1e-12 is tiny in absolute terms but not relative to the iterate
        from liebau.errors import NoConvergence

        gp = regularize(tank_lp(4.0))
        with pytest.raises(NoConvergence):
            solve_periodic(gp, SolveOptions(n=64, initial=0.05))

    def test_initial_guess_required_for_general(self):
        gp = GeneralProblem(
            a=0.0, T=1.0,
            r=PeriodicFunction.constant(1.0, 1.0),
            s=PeriodicFunction.constant(1.0, 0.5),
            alpha=0.2, beta=0.7,
        )
        with pytest.raises(LiebauError):
            solve_periodic(gp)
        sol = solve_periodic(gp, SolveOptions(bracket=(0.5, 50.0)))
        assert sol.converged and sol.min_value > 0.0


class TestFusedSweepChangesNothing:
    @pytest.mark.parametrize("case", ["cosine", "cubic", "tank"])
    def test_solution_bitwise_equal_to_two_sweep_solve(self, monkeypatch, case):
        if case == "tank":
            v0 = 5.0
            lp = presets.preset("benchmark", v0=v0).problem
            opts = SolveOptions(n=512, bracket=((v0 - 3.0) ** 3, (v0 - 1.0) ** 3))
        else:
            lp = presets.preset(case).problem
            opts = SolveOptions(n=512)
        gp = regularize(lp)
        fused = solve_periodic(gp, opts)
        monkeypatch.setattr(solve, "solve_cyclic_tridiagonal", two_sweep_solve)
        reference = solve_periodic(gp, opts)
        assert np.array_equal(fused.values, reference.values)
        assert fused.iterations == reference.iterations


def _tank_opts(v0, n):
    return presets.preset("benchmark", v0=v0).problem, SolveOptions(
        n=n, bracket=((v0 - 3.0) ** 3, (v0 - 1.0) ** 3)
    )


class TestNewtonKrylovPolish:
    @pytest.mark.parametrize("case", ["cosine", "cubic", "tank"])
    def test_polish_makes_no_cyclic_solves(self, monkeypatch, case):
        if case == "tank":
            lp, opts = _tank_opts(5.0, 512)
        else:
            lp, opts = presets.preset(case).problem, SolveOptions(n=512)
        gp = regularize(lp)
        calls = []
        real = solve.solve_cyclic_tridiagonal

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solve, "solve_cyclic_tridiagonal", counting)
        bare = solve_periodic(gp, dataclasses.replace(opts, polish=False))
        newton_calls = len(calls)
        polished = solve_periodic(gp, opts)
        # one cyclic solve per Newton step, the same with and without the polish
        assert newton_calls == bare.iterations
        assert len(calls) - newton_calls == newton_calls
        assert polished.iterations - polished.polish_iterations == bare.iterations
        assert polished.polish_iterations >= 1
        assert bare.polish_iterations == 0

    def test_tank_preset_to_rounding(self, tank_lp):
        gp = regularize(tank_lp(4.0))
        sol = solve_periodic(gp, SolveOptions(n=512, bracket=(4.0, 40.0)))
        exact = (2.0 + np.cos(sol.nodes)) ** 3
        assert float(np.max(np.abs(sol.values - exact))) < 1e-13

    def test_tank_near_branch_crossing(self):
        # close to the branch crossing: the FD Jacobian's smallest eigenvalue is about 3e-3
        v0 = 9.911091741522899
        lp, opts = _tank_opts(v0, 4096)
        sol = solve_periodic(regularize(lp), opts)
        exact = ((v0 - 2.0) + np.cos(sol.nodes)) ** 3
        assert float(np.max(np.abs(sol.values - exact))) < 1e-6

    @settings(max_examples=12)
    @given(
        a=st.floats(1.0, 2.0),
        amp=st.floats(0.0, 0.0021),
        k=st.integers(1, 3),
        n=st.sampled_from([63, 64, 128, 256]),
    )
    def test_residual_at_rounding_floor(self, a, amp, k, n):
        from liebau.problem import LiebauProblem

        e = PeriodicFunction.trig(1.0, 1.54215, [(amp, k, 0.0)])
        sol = solve_periodic(regularize(LiebauProblem(a, 0.01, 1.49, 1.0, e)), SolveOptions(n=n))
        floor = 64.0 * np.finfo(float).eps * (n / sol.T) ** 2 * max(1.0, sol.max_value)
        assert sol.sup_residual <= floor

    def test_singular_preconditioner_returns_newton_iterate(self):
        # r = s = +-1 (a square wave the nodes never sample on its ramps) makes
        # x = 1 an exact solution with f'(1) = alpha r - beta s = -+1/4, whose
        # node mean is exactly 0: the preconditioner's mode 0 is singular
        square = PeriodicFunction.piecewise_linear(
            [(0.0, 1.0), (0.47, 1.0), (0.49, -1.0), (0.97, -1.0), (0.99, 1.0), (1.0, 1.0)]
        )
        gp = GeneralProblem(a=0.5, T=1.0, r=square, s=square, alpha=0.25, beta=0.5)
        nodes = np.arange(16) / 16
        fprime = 0.25 * square(nodes) - 0.5 * square(nodes)
        assert np.any(fprime != 0.0) and fprime.mean() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_periodic(gp, SolveOptions(n=16, initial=1.0))
        assert sol.polish_iterations == 0
        assert np.array_equal(sol.values, np.ones(16))


class TestLinearConsistency:
    @pytest.mark.parametrize("n", [256, 512])
    def test_fd_matches_kernel_quadrature(self, n):
        a, m, T = 1.6, 0.7, 1.0
        forcing = PeriodicFunction.trig(T, 0.8, [(0.5, 1, 0.3), (0.2, 2, 0.0)])
        nodes, x_fd = solve_shifted_linear(a, m, T, forcing, n=n)
        kernel = greens.build(a, m, T)
        x_quad = greens.apply_kernel(kernel, forcing, nodes)
        tol = max(1e-8, 20.0 * (T / n) ** 2)
        assert float(np.max(np.abs(x_fd - x_quad))) < tol


class TestFdResidual:
    def test_exact_constant_solution(self, constant_solution):
        gp, sol = constant_solution
        res = fd_residual(gp, sol)
        assert isinstance(res, float)
        assert res < 1e-8

    def test_sampled_closed_form_has_scheme_order_residual(self, tank_lp):
        # truncation is h^2/12 * max|x''''| with max|x''''| = 81 for this
        # solution, so the level at n=512 is ~1.0e-3 and scales as n^-2
        gp = regularize(tank_lp(4.0))
        res = {}
        for n in (512, 1024):
            nodes = np.arange(n) * 2 * math.pi / n
            sol = GridSolution(
                T=2 * math.pi, nodes=nodes, values=(2 + np.cos(nodes)) ** 3,
                sup_residual=0.0, sup_residual_exact_data=0.0,
                iterations=0, converged=True,
            )
            res[n] = fd_residual(gp, sol)
        assert res[512] == pytest.approx((2 * math.pi / 512) ** 2 / 12 * 81, rel=0.05)
        assert 3.5 <= res[512] / res[1024] <= 4.5

    def test_node_perturbation_sensitivity(self, tank_solution):
        gp, sol = tank_solution
        res0 = fd_residual(gp, sol)
        bumped = sol.values.copy()
        bumped[17] += 1e-3
        sol_b = GridSolution(
            T=sol.T, nodes=sol.nodes, values=bumped,
            sup_residual=0.0, sup_residual_exact_data=0.0,
            iterations=0, converged=True,
        )
        res1 = fd_residual(gp, sol_b)
        n = len(sol.values)
        assert res1 - res0 >= 1e-3 * (n / sol.T) ** 2 * 0.1


def inline_picard(gp, m, r1, r2, start, n_steps):
    """Picard iterates with the periodic trapezoid convolution written out in place."""
    kernel = greens.build(gp.a, m, gp.T)
    cm = kernel.cone_constant
    npts = len(start)
    h = gp.T / npts
    nodes = np.arange(npts) * h
    k_spec = np.fft.rfft(np.asarray(kernel.at(nodes), dtype=float))
    iterates = [start.copy()]
    x = start.copy()
    for _ in range(n_steps):
        f = np.asarray(truncated_rhs(gp, m, cm, r1, r2, nodes, x), dtype=float)
        conv = np.fft.irfft(k_spec * np.fft.rfft(f), n=npts)
        x = h * conv + (h * h / 12.0) * f
        iterates.append(x.copy())
    return iterates


class TestPicard:
    @pytest.mark.parametrize(
        "problem, r1, r2, start, n_steps",
        [
            ("cosine_lp", 1.0, 40.0, np.zeros(256), 1),
            ("cosine_lp", 0.1, 40.0, np.full(256, 30.0), 5),
            ("cosine_lp", 0.1, 37.954, np.full(256, 36.5), 1),
            ("trapezoid_lp", 25.0, 1e4, np.full(256, 5000.0), 6),
        ],
    )
    def test_iterates_bitwise_equal_to_inline_convolution(
        self, request, problem, r1, r2, start, n_steps
    ):
        gp = regularize(request.getfixturevalue(problem))
        trace = picard_iterate(gp, 0.7, r1, r2, start, n_steps)
        reference = inline_picard(gp, 0.7, r1, r2, start, n_steps)
        assert len(trace.iterates) == len(reference)
        for got, want in zip(trace.iterates, reference):
            assert np.array_equal(got, want)

    def test_fixed_point_reproduced_in_one_step(self):
        from liebau.problem import LiebauProblem

        lp = LiebauProblem(1.6, 0.01, 1.49, 1.0, PeriodicFunction.constant(1.0, 1.54))
        gp = regularize(lp)
        x_star = (1.54 / 1.49) ** 100
        trace = picard_iterate(gp, 0.7, 1.0, 35.0, np.full(512, x_star), 1)
        assert trace.sup_deltas[0] < 1e-9

    def test_zero_start_first_iterate_nonnegative(self, cosine_lp):
        gp = regularize(cosine_lp)
        trace = picard_iterate(gp, 0.7, 1.0, 40.0, np.zeros(256), 1)
        assert np.all(trace.final >= 0.0)

    def test_iterates_stay_in_cone(self, cosine_lp):
        gp = regularize(cosine_lp)
        trace = picard_iterate(gp, 0.7, 0.1, 40.0, np.full(256, 30.0), 5)
        for it in trace.iterates[1:]:
            assert float(it.min()) >= trace.cone_const * float(it.max()) * (1 - 1e-6)

    def test_iterates_bounded_by_band_ceiling(self, trapezoid_lp, cosine_lp):
        # on the certified trapezoid radii the truncated rhs never exceeds
        # m^2 R2, so unit kernel mass bounds every iterate by R2
        gp = regularize(trapezoid_lp)
        r1, r2 = 25.0, 1e4
        trace = picard_iterate(gp, 0.7, r1, r2, np.full(256, 5000.0), 6)
        for it in trace.iterates:
            assert float(it.max()) <= r2 * (1 + 1e-9)
        # for the cosine instance the envelope argument covers one step
        # started inside the outer band [c_m R2, R2]
        gp2 = regularize(cosine_lp)
        cert_r2 = 37.954
        trace2 = picard_iterate(gp2, 0.7, 0.1, cert_r2, np.full(256, 36.5), 1)
        assert float(trace2.final.max()) <= cert_r2 * (1 + 1e-9)

    def test_accepts_grid_solution_start(self, cosine_lp):
        gp = regularize(cosine_lp)
        sol = solve_periodic(gp)
        trace = picard_iterate(gp, 0.7, 0.1, 40.0, sol, 2)
        # the solver output is near the operator's fixed point
        assert trace.sup_deltas[0] < 1e-3

    def test_bad_radii(self, cosine_lp):
        gp = regularize(cosine_lp)
        with pytest.raises(BadRadii):
            picard_iterate(gp, 0.7, 40.0, 1.0, np.full(64, 1.0), 1)


class TestConeAndLocalization:
    def test_constant_positive_in_cone(self):
        report = cone_and_localization(np.full(32, 5.0), 0.9, 1.0, 10.0)
        assert report.in_cone and report.above_lower and report.below_upper

    def test_figure_solution_in_cone(self, cosine_lp):
        sol = solve_periodic(regularize(cosine_lp))
        report = cone_and_localization(sol, 0.94144, 0.07, 38.0)
        assert report.all_ok

    def test_touching_zero_not_in_cone(self):
        vals = np.linspace(0.0, 1.0, 16)
        report = cone_and_localization(vals, 0.5, 0.1, 2.0)
        assert not report.in_cone
