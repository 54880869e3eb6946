import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_numerics import BAD_TRACES, two_sweep_solve

from liebau import greens, presets, solve
from liebau.errors import BadRadii, ConfigError, LeftPositiveCone, LiebauError, NoConvergence, OutOfFloatRange
from liebau.funcspec import PeriodicFunction
from liebau.numerics import resample_spectrum, spectral_derivatives, trig_interpolate
from liebau.problem import GeneralProblem, LiebauProblem, regularize, shifted_rhs
from liebau.solve import (
    SolveOptions,
    cone_and_localization,
    fd_residual,
    solve_periodic,
)


def fd_stage(gp, opts):
    """The FD Newton stage alone on opts.n points from opts' start: nodes, values and steps."""
    n = opts.n
    nodes, _, _, f_of, fprime_of = solve._sampled(gp, n)
    x, steps = solve._fd_newton(solve._initial_values(gp, opts, n), gp.T / n, gp.a, f_of, fprime_of)
    return nodes, x, steps


@pytest.fixture(scope="module")
def constant_solution(cosine_lp):
    # e = 1.54 constant: the exact solution is the constant (1.54/1.49)^100
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
            nodes, x, _ = fd_stage(gp, SolveOptions(n=n, bracket=(4.0, 40.0)))
            errs[n] = float(np.max(np.abs(x - (2.0 + np.cos(nodes)) ** 3)))
        assert 3.5 <= errs[256] / errs[512] <= 4.5

    def test_figure_problem_cosine(self, cosine_lp):
        sol = solve_periodic(regularize(cosine_lp))
        assert sol.converged
        assert sol.min_value > 0.0
        assert sol.max_value < 38.0844
        assert sol.sup_residual < 1e-8

    def test_left_cone_from_tiny_guess(self, monkeypatch, tank_lp):
        monkeypatch.setattr(solve, "NEWTON_MAX_STEPS", 60)
        gp = regularize(tank_lp(4.0))
        with pytest.raises(LeftPositiveCone):
            solve_periodic(gp, SolveOptions(initial=0.05))

    def test_budget_exhaustion_raises(self, monkeypatch, tank_lp):
        monkeypatch.setattr(solve, "NEWTON_MAX_STEPS", 2)
        gp = regularize(tank_lp(4.0))
        with pytest.raises(NoConvergence):
            solve_periodic(gp, SolveOptions(bracket=(4.0, 40.0)))

    def test_collapsed_iterate_is_not_converged(self, tank_lp):
        # from x = 0.05 the iterate collapses toward 0, where a Newton step of
        # ~1e-12 is tiny in absolute terms but not relative to the iterate
        from liebau.errors import NoConvergence

        gp = regularize(tank_lp(4.0))
        with pytest.raises(NoConvergence):
            solve_periodic(gp, SolveOptions(n=64, initial=0.05))

    @pytest.mark.parametrize("polish", [True, False])
    def test_solution_beyond_float_range_is_not_converged(self, tank_lp, polish):
        # x = ((v0 - 2) + cos t)^3 is about 1e900: f'(x) overflows at most
        # nodes, which once made a zero Newton step read as convergence; the
        # FD stage refuses it on the coarse grid and alone at n = 512
        gp = regularize(tank_lp(1e300))
        opts = SolveOptions(bracket=(4.0, 40.0))
        with pytest.raises(NoConvergence, match="beyond float range"):
            solve_periodic(gp, opts) if polish else fd_stage(gp, opts)

    @pytest.mark.parametrize("initial", [1.0, 1e-300])
    def test_collapsed_start_is_not_a_solution(self, cosine_lp, initial):
        # the iterate collapses toward 0 (or starts there), where |f| is below
        # an absolute rounding floor: a solve once returned mean x = 4.6e-12
        # with sup_residual 3.4e-10, and the start 1e-300 after 0 steps
        with pytest.raises(NoConvergence):
            solve_periodic(regularize(cosine_lp), SolveOptions(initial=initial))

    @pytest.mark.parametrize("mu, c", [(1e-6, 1.49), (0.01, 1e-50), (0.01, 1e50)])
    def test_default_guess_beyond_float_range(self, mu, c):
        # (mean e / c)^(1/mu) overflows (it raised OverflowError) or underflows to 0
        lp = LiebauProblem(1.6, mu, c, 1.0, PeriodicFunction.constant(1.0, 1.54))
        with pytest.raises(OutOfFloatRange, match="constant guess"):
            solve_periodic(regularize(lp), SolveOptions(n=64))

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


class TestSolveOptionsCheckThemselves:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n": 0}, "n"),
            ({"n": 7}, "n"),
            ({"n": 2**21}, "n"),
            ({"n": 64.0}, "n"),
            ({"initial": math.nan}, "initial"),
            ({"initial": 0.0}, "initial"),
            ({"initial": math.inf}, "initial"),
            ({"bracket": (40.0, 4.0)}, "bracket"),
            ({"bracket": (0.0, 4.0)}, "bracket"),
            ({"bracket": (1.0, math.inf)}, "bracket"),
            ({"bracket": (math.nan, 4.0)}, "bracket"),
            ({"initial": "3"}, "initial"),
            ({"initial": True}, "initial"),
            ({"initial": 10**400}, "initial"),
            ({"bracket": 5.0}, "bracket"),
            ({"bracket": (4.0, 40.0, 99.0)}, "bracket"),
            ({"bracket": ("4", 40.0)}, "bracket"),
            ({"polish": "no"}, "polish"),
            ({"polish": 1}, "polish"),
        ],
    )
    def test_bad_field_raises_config_error(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            SolveOptions(**kwargs)
        assert exc.value.location == field

    @pytest.mark.parametrize("bracket", [(4.0, 40.0), (4, 40), (np.float64(4.0), np.float64(40.0))])
    def test_numeric_bracket_is_accepted(self, bracket):
        assert SolveOptions(n=4096, bracket=bracket).bracket == bracket

    def test_polish_is_not_an_option(self):
        # every solve polishes: the fields are the grid and the start alone
        assert [f.name for f in dataclasses.fields(SolveOptions)] == ["n", "initial", "bracket"]
        for polish in (False, True):
            with pytest.raises(ConfigError, match="removed") as exc:
                SolveOptions(n=4096, polish=polish)
            assert exc.value.location == "polish"

    def test_largest_grid_is_accepted(self):
        assert SolveOptions(n=2**20).n * solve.REFINE_FACTOR == solve.MAX_GRID


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


def _case(case, n, v0=5.0):
    if case == "tank":
        return _tank_opts(v0, n)
    return presets.preset(case).problem, SolveOptions(n=n)


def _fine_path(monkeypatch, gp, opts):
    """Fine FD Newton and polish at opts.n, with no coarse stage."""
    with monkeypatch.context() as m:
        m.setattr(solve, "COARSE_N", opts.n)
        return solve_periodic(gp, opts)


class TestCoarseToFine:
    @pytest.mark.parametrize("case", ["cosine", "cubic", "tank"])
    def test_cyclic_solves_only_on_the_newton_grid(self, monkeypatch, case):
        lp, opts = _case(case, 4096)
        gp = regularize(lp)
        sizes = []
        real = solve.solve_cyclic_tridiagonal

        def counting(sub, diag, *rest):
            sizes.append(len(diag))
            return real(sub, diag, *rest)

        monkeypatch.setattr(solve, "solve_cyclic_tridiagonal", counting)
        polished = solve_periodic(gp, opts)
        coarse_sizes = sizes[:]
        sizes.clear()
        _, _, bare_steps = fd_stage(gp, opts)
        # one cyclic solve per Newton step: on 128 nodes in a solve, and on n
        # when the FD stage runs alone there
        assert coarse_sizes and set(coarse_sizes) == {solve.COARSE_N} == {128}
        assert len(coarse_sizes) == polished.iterations - polished.polish_iterations
        assert polished.fd_n == 128 and polished.polish_iterations >= 1
        assert sizes and set(sizes) == {4096}
        assert len(sizes) == bare_steps

    @pytest.mark.parametrize(
        "case, v0", [("cosine", None), ("cubic", None), ("tank", 5.0), ("tank", 6.0)]
    )
    def test_agrees_with_fine_newton_and_polish(self, monkeypatch, case, v0):
        lp, opts = _case(case, 4096, v0)
        gp = regularize(lp)
        sol = solve_periodic(gp, opts)
        reference = _fine_path(monkeypatch, gp, opts)
        assert sol.fd_n == 128 and reference.fd_n == 4096
        rel = float(np.max(np.abs(sol.values - reference.values))) / reference.max_value
        assert rel <= 1e-12

    def test_stalled_polish_returns_the_lifted_iterate(self, monkeypatch):
        lp, opts = _case("tank", 4096)
        gp = regularize(lp)
        _, x_c, steps = fd_stage(gp, dataclasses.replace(opts, n=128))

        def no_steps(x, symbol, f_of, fprime_of):
            return x, 0, *solve._node_residual(x, symbol, f_of)

        monkeypatch.setattr(solve, "_polish", no_steps)
        sol = solve_periodic(gp, opts)
        assert sol.fd_n == 128
        assert sol.polish_iterations == 0 and sol.iterations == steps
        assert np.array_equal(sol.values, trig_interpolate(x_c, 4096))
        # the lifted FD solution carries the coarse scheme's error: the
        # polish ends above the rounding floor, and sup_residual reports it
        assert sol.sup_residual > solve._rounding_floor(sol.values, gp.T / 4096, gp.a)

    def test_nonpositive_lift_raises(self, monkeypatch):
        lp, opts = _case("cosine", 1024)
        gp = regularize(lp)
        real = solve.trig_interpolate
        monkeypatch.setattr(solve, "trig_interpolate", lambda values, n_out: -real(values, n_out))
        with pytest.raises(LeftPositiveCone, match="lifted"):
            solve_periodic(gp, opts)

    @pytest.mark.parametrize("v0, error", [(12.0, NoConvergence), (3.2, LeftPositiveCone)])
    def test_coarse_newton_failure_raises(self, monkeypatch, v0, error):
        # near v0 = 12 two solution branches of the tank problem meet, and
        # Newton on 128 nodes ends in NoConvergence; at v0 = 3.2 the bracket's
        # midpoint leaves the positive cone.  Neither retries on the n-grid.
        lp, opts = _tank_opts(v0, 4096)
        sizes = []
        real = solve.solve_cyclic_tridiagonal

        def counting(sub, diag, *rest):
            sizes.append(len(diag))
            return real(sub, diag, *rest)

        monkeypatch.setattr(solve, "solve_cyclic_tridiagonal", counting)
        with pytest.raises(error):
            solve_periodic(regularize(lp), opts)
        assert sizes and max(sizes) == 128


class TestNewtonKrylovPolish:
    def test_tank_preset_to_rounding(self, tank_lp):
        gp = regularize(tank_lp(4.0))
        sol = solve_periodic(gp, SolveOptions(n=512, bracket=(4.0, 40.0)))
        exact = (2.0 + np.cos(sol.nodes)) ** 3
        assert float(np.max(np.abs(sol.values - exact))) < 1e-13

    @pytest.mark.parametrize("case", ["cosine", "narrowband"])
    def test_final_noise_level_step_is_kept(self, case):
        # the last Newton correction at n = 512 is smaller than the rounding
        # noise of the residual; keeping it makes n = 512 agree with n = 4096
        # to rounding (4.5e-16 and 6.1e-16), where dropping it left 3e-13 and
        # 8e-14
        gp = regularize(presets.preset(case).problem)
        sol = solve_periodic(gp, SolveOptions(n=512))
        fine = solve_periodic(gp, SolveOptions(n=4096))
        assert sol.polish_iterations == 2
        rel = float(np.max(np.abs(sol.values - fine.values[::8]))) / fine.max_value
        assert rel <= 1e-15

    def test_converged_start_takes_no_noise_step(self, constant_solution):
        # the constant guess already solves the constant-forcing problem: a
        # polish step from there would be rounding noise alone
        _, sol = constant_solution
        exact = 27.129715683055239694  # (1.54 / 1.49)^100 to 20 digits
        assert sol.polish_iterations == 0
        assert float(np.max(np.abs(sol.values - exact))) / exact <= 1e-15

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
        e = PeriodicFunction.trig(1.0, 1.54215, [(amp, k, 0.0)])
        sol = solve_periodic(regularize(LiebauProblem(a, 0.01, 1.49, 1.0, e)), SolveOptions(n=n))
        floor = 64.0 * np.finfo(float).eps * (n / sol.T) ** 2 * max(1.0, sol.max_value)
        assert sol.sup_residual <= floor

    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("v0", [4.75, 5.0, 6.0, 7.0])
    def test_tank_closed_form_to_rounding(self, n, v0):
        # 1.82e-15 relative at worst (v0 = 6) when the polish residual went
        # through spectral_derivatives; it has not moved since
        lp, opts = _tank_opts(v0, n)
        sol = solve_periodic(regularize(lp), opts)
        exact = ((v0 - 2.0) + np.cos(sol.nodes)) ** 3
        assert float(np.max(np.abs(sol.values - exact))) <= 5e-15 * float(np.max(exact))

    @pytest.mark.parametrize("case", ["cosine", "cubic", "trapezoid", "benchmark", "trig_s"])
    @pytest.mark.parametrize("n", [63, 512, 4096])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_residual_is_the_spectral_derivative_form(self, monkeypatch, case, n, noise):
        # with a zero GMRES solution the polish keeps no step and returns the
        # node residual of its start, with the spectrum it came from
        gp, opts = _oracle_problem(case)
        x = solve_periodic(gp, dataclasses.replace(opts, n=n)).values
        x = x * (1.0 + noise * np.random.default_rng(n).uniform(-1.0, 1.0, n))
        f_of, fprime_of = solve._sampled(gp, n)[3:]
        monkeypatch.setattr(solve, "gmres", lambda matvec, b, *rest: np.zeros_like(b))
        symbol = solve._operator_symbol(n, gp.T, gp.a)
        got, steps, res, spec = solve._polish(x, symbol, f_of, fprime_of)
        assert steps == 0 and got is x
        assert np.array_equal(spec, np.fft.rfft(x - x.mean()))
        d1, d2 = spectral_derivatives(x, gp.T)
        want = d2 + gp.a * d1 - f_of(x)
        # the two forms round differently: 2.25 ulp of the largest term at most,
        # node by node, over these cases
        terms = float(np.max(np.abs(d2) + np.abs(gp.a * d1) + np.abs(f_of(x))))
        assert float(np.max(np.abs(res - want))) <= 4.0 * np.finfo(float).eps * terms

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


def dense_refined_residuals(gp, values):
    """Both refined residuals on the dense grid of REFINE_FACTOR * n points.

    x and x'' + a x' are resampled there from one zero-padded spectrum, the
    node samples of r and s by ``trig_interpolate`` for the collocated
    residual, and r and s are evaluated exactly at the fine nodes for the
    other.
    """
    T, n = gp.T, len(values)
    n_f = solve.REFINE_FACTOR * n
    w = (2.0 * np.pi / T) * np.arange(n // 2 + 1)
    symbol = -(w**2) + 1j * gp.a * w
    if n % 2 == 0:
        symbol[-1] = -(w[-1] ** 2)
    mean = values.mean()
    spec = np.fft.rfft(values - mean)
    x_f = resample_spectrum(spec, n, n_f) + mean
    lin = resample_spectrum(spec * symbol, n, n_f)
    nodes = np.arange(n) * (T / n)
    fine_nodes = np.arange(n_f) * (T / n_f)
    positive = np.clip(x_f, 1e-300, None)
    x_alpha, x_beta = positive**gp.alpha, positive**gp.beta
    r_interp = trig_interpolate(np.asarray(gp.r(nodes), dtype=float), n_f)
    s_interp = trig_interpolate(np.asarray(gp.s(nodes), dtype=float), n_f)
    r_exact = np.asarray(gp.r(fine_nodes), dtype=float)
    s_exact = np.asarray(gp.s(fine_nodes), dtype=float)
    colloc = lin - (r_interp * x_alpha - s_interp * x_beta)
    exact = lin - (r_exact * x_alpha - s_exact * x_beta)
    return float(np.max(np.abs(colloc))), float(np.max(np.abs(exact)))


def _oracle_problem(case):
    if case == "trig_s":
        # no preset has a non-constant s
        return GeneralProblem(
            a=0.8, T=2.0,
            r=PeriodicFunction.trig(2.0, 2.0, [(0.5, 1, 0.0)]),
            s=PeriodicFunction.trig(2.0, 1.0, [(0.3, 2, 1.0)]),
            alpha=0.2, beta=0.7,
        ), SolveOptions(initial=4.0)
    # the tank's s = 0.30000000000000004 has the node mean 0.29999999999999993
    preset = presets.preset(case)
    return regularize(preset.problem), SolveOptions(**preset.solve)


class TestRefinedResiduals:
    @settings(max_examples=100)
    @given(
        case=st.sampled_from(["cosine", "cubic", "trapezoid", "benchmark", "trig_s"]),
        n=st.integers(8, 1100),
        noise=st.sampled_from([0.0, 1e-9, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_grid(self, case, n, noise, seed):
        gp, opts = _oracle_problem(case)
        sol = solve_periodic(gp, dataclasses.replace(opts, n=n))
        # relative noise reaches every mode, the Nyquist mode of an even n included
        x = sol.values * (1.0 + noise * np.random.default_rng(seed).uniform(-1.0, 1.0, n))
        nodes = np.arange(n) * (gp.T / n)
        r, s = np.asarray(gp.r(nodes), dtype=float), np.asarray(gp.s(nodes), dtype=float)
        symbol = solve._operator_symbol(n, gp.T, gp.a)
        res, spec = solve._node_residual(x, symbol, solve._sampled(gp, n)[3])
        got = solve._refined_residuals(gp, x, res, spec, symbol, r, s)
        want = dense_refined_residuals(gp, x)
        # without noise, the solve's own report (from the polish's final
        # residual) is checked too
        reports = [got] if noise else [got, (sol.sup_residual, sol.sup_residual_exact_data)]
        # A converged residual is what is left of r x^alpha - s x^beta after
        # cancellation (1.6e-11 of terms near 4.5e3 for cosine at n = 37), so
        # the two roundings may differ there by an ulp of those terms.
        ulp_of_terms = np.finfo(float).eps * float(
            np.max(np.abs(r) * x**gp.alpha + np.abs(s) * x**gp.beta)
        )
        for report in reports:
            for g, o in zip(report, want):
                assert abs(g - o) <= 1e-6 * o + 4.0 * ulp_of_terms

    @pytest.mark.parametrize("T", [1.0, 2.0 * math.pi, 0.3, 7.77])
    @pytest.mark.parametrize("n", [8, 37, 512, 1100, 4096])
    def test_phase_zero_is_the_grid(self, T, n):
        # scaling by a power of two (REFINE_FACTOR) is exact, so the diagnostic's
        # phase-0 fine nodes are the grid's nodes and its residual there is the
        # node residual
        k = solve.REFINE_FACTOR
        assert np.array_equal((k * np.arange(n)) * (T / (k * n)), np.arange(n) * (T / n))

    def test_large_solve_peaks_below_one_mib(self):
        # one float array of REFINE_FACTOR * 4096 points is 128 KiB; the dense
        # diagnostic's fine-grid temporaries took the peak to 1.95 MiB
        gp = regularize(presets.preset("cosine").problem)
        opts = SolveOptions(n=4096)
        solve_periodic(gp, opts)
        tracemalloc.start()
        try:
            solve_periodic(gp, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestTransformsOncePerSolve:
    # transform calls of one solve at n = 4096, lift and diagnostic included;
    # the diagnostic's own transform of the final iterate made these 42, 40,
    # 40, 78, 76 and 14
    @pytest.mark.parametrize(
        "case, polish, calls",
        [
            ("cosine", True, 38),
            ("cubic", True, 36),
            ("narrowband", True, 36),
            ("trapezoid", True, 74),
            ("benchmark", True, 72),
        ],
    )
    def test_fft_calls_per_solve(self, monkeypatch, case, polish, calls):
        preset = presets.preset(case)
        gp = regularize(preset.problem)
        forward_inputs, inverse_calls = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def counting_rfft(a, *args, **kwargs):
            forward_inputs.append(np.array(a, copy=True))
            return rfft(a, *args, **kwargs)

        def counting_irfft(a, *args, **kwargs):
            inverse_calls.append(None)
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        sol = solve_periodic(gp, SolveOptions(n=4096, **preset.solve))
        assert (sol.polish_iterations >= 1) == polish
        assert len(forward_inputs) + len(inverse_calls) == calls
        final = sol.values - sol.values.mean()
        assert sum(np.array_equal(v, final) for v in forward_inputs) == 1


# sha256 of values.tobytes(), iterations, polish_iterations and fd_n of the
# preset solves, recorded with numpy 2.4 on x86-64 before the residual
# diagnostic took its data from the polish; the values must not move by a bit.
# (Another FFT or libm build may round differently.)  With polish False the
# pin is the FD Newton stage run alone at n.
_PINNED_SOLVES = {
    ("trapezoid", 512, True): ("3e64a01fbec23a5b347028b5978355e04751851616fc31b74ce42cb54e7d1939", 10, 6, 128),
    ("trapezoid", 4096, True): ("81eeceba3fdee40be349fbd3265422239f8ae1fbdc6e752996803d5b036ccc64", 10, 6, 128),
    ("cosine", 512, True): ("99afe2728cdf5d088135ed3340b50ee92fbd14ee10a1bde7993658cd03b7f900", 4, 2, 128),
    ("cosine", 4096, True): ("cc1bcd1a3c1b22dd7ed24e3d51d92c66cd3c2f3b9640087df4ec8e40c6823be0", 4, 2, 128),
    ("cubic", 512, True): ("43747c7e129ec5441e8aa06c71be621eb2c64e74ef522a14a6fa786921e59eaf", 4, 2, 128),
    ("cubic", 4096, True): ("287c38ed59b15d8cc4a0c934b9a8738f640e4a3290783d890e3239f7d1b69597", 4, 2, 128),
    ("narrowband", 512, True): ("e8956aa573d154fd0d65d470e1fa84ee62d0a33eece806aa566f07d08461fb41", 4, 2, 128),
    ("narrowband", 4096, True): ("df84f4f89b98cdc18745c8e5a16ee98fff9caf837213e439600eb09d5ab6ffdc", 4, 2, 128),
    ("benchmark", 512, True): ("a427df95299a006e06d77d887021201b700e4e94c16280a50764e4bffb463210", 9, 3, 128),
    ("benchmark", 4096, True): ("1b21f019276fbebe9b07db04106a9bb8ea6823751bca6fb8026a5f0d16f0376b", 9, 3, 128),
    ("cosine", 512, False): ("d975cfb89b3981490378a13901e83ebee4cd3a9806fdb8730478bd3dd6651475", 2, 0, 512),
}


@pytest.mark.parametrize("case, n, polish", sorted(_PINNED_SOLVES))
def test_solution_bits_are_pinned(case, n, polish):
    preset = presets.preset(case)
    gp, opts = regularize(preset.problem), SolveOptions(n=n, **preset.solve)
    if polish:
        sol = solve_periodic(gp, opts)
        values, counts = sol.values, (sol.iterations, sol.polish_iterations, sol.fd_n)
    else:
        _, values, steps = fd_stage(gp, opts)
        counts = (steps, 0, n)
    got = (hashlib.sha256(values.tobytes()).hexdigest(), *counts)
    assert got == _PINNED_SOLVES[case, n, polish]


class TestFdResidual:
    def test_exact_constant_solution(self, constant_solution):
        gp, sol = constant_solution
        res = fd_residual(gp, sol.values)
        assert isinstance(res, float)
        assert res < 1e-8

    def test_sampled_closed_form_has_scheme_order_residual(self, tank_lp):
        # truncation is h^2/12 * max|x''''| with max|x''''| = 81 for this
        # solution, so the level at n=512 is ~1.0e-3 and scales as n^-2
        gp = regularize(tank_lp(4.0))
        res = {}
        for n in (512, 1024):
            nodes = np.arange(n) * 2 * math.pi / n
            res[n] = fd_residual(gp, (2 + np.cos(nodes)) ** 3)
        assert res[512] == pytest.approx((2 * math.pi / 512) ** 2 / 12 * 81, rel=0.05)
        assert 3.5 <= res[512] / res[1024] <= 4.5

    def test_node_perturbation_sensitivity(self, tank_solution):
        gp, sol = tank_solution
        res0 = fd_residual(gp, sol.values)
        bumped = sol.values.copy()
        bumped[17] += 1e-3
        res1 = fd_residual(gp, bumped)
        n = len(sol.values)
        assert res1 - res0 >= 1e-3 * (n / sol.T) ** 2 * 0.1


@pytest.mark.parametrize("trace", BAD_TRACES)
def test_fd_residual_refuses_bad_trace(trace, tank_lp):
    with pytest.raises(LiebauError, match="^x "):
        fd_residual(regularize(tank_lp(4.0)), trace)


@pytest.mark.parametrize("trace", BAD_TRACES)
def test_cone_and_localization_refuses_bad_trace(trace):
    with pytest.raises(LiebauError, match="^values "):
        cone_and_localization(trace, 0.5, 1.0, 10.0)


@pytest.mark.parametrize("name", ["cone_const", "r1", "r2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, "x", None, True])
def test_cone_and_localization_refuses_bad_bound(name, bad):
    bounds = {"cone_const": 0.5, "r1": 1.0, "r2": 10.0, name: bad}
    with pytest.raises(LiebauError, match=f"^{name} must be a finite real number"):
        cone_and_localization(np.full(8, 5.0), **bounds)


@pytest.mark.parametrize("cone_const", [-3.0, 0.0, 1.0, 1.5])
def test_cone_and_localization_refuses_cone_const_outside_unit_interval(cone_const):
    # cone_const = -3 once read in_cone=True for any positive trace
    with pytest.raises(LiebauError, match=r"^cone_const must lie in \(0, 1\)"):
        cone_and_localization(np.full(8, 5.0), cone_const, 1.0, 10.0)


@pytest.mark.parametrize("r1, r2", [(10.0, 1.0), (5.0, 5.0), (0.0, 10.0), (-1.0, 10.0)])
def test_cone_and_localization_refuses_radii_outside_order(r1, r2):
    with pytest.raises(BadRadii, match=r"^need 0 < r1 < r2"):
        cone_and_localization(np.full(8, 5.0), 0.5, r1, r2)


def inline_response(kernel, g):
    """The periodic trapezoid convolution plus its h^2/12 endpoint term, written out in place."""
    n = len(g)
    h = kernel.T / n
    k_spec = np.fft.rfft(np.asarray(kernel.at(np.arange(n) * h), dtype=float))
    return h * np.fft.irfft(k_spec * np.fft.rfft(g), n=n) + (h * h / 12.0) * g


def fixed_point_defect(gp, m, x):
    """sup |T_m x - x| for samples x on arange(n) * (T/n), T_m x = circular_response(K_m, f_m(., x))."""
    nodes = np.arange(len(x)) * (gp.T / len(x))
    f = shifted_rhs(gp, m, nodes, x)
    return float(np.max(np.abs(greens.circular_response(greens.build(gp.a, m, gp.T), f) - x)))


class TestFixedPointOperator:
    @pytest.mark.parametrize(
        "problem, level",
        [("cosine_lp", 0.0), ("cosine_lp", 30.0), ("cosine_lp", 36.5), ("trapezoid_lp", 5000.0)],
    )
    def test_equals_inline_convolution(self, request, problem, level):
        gp = regularize(request.getfixturevalue(problem))
        nodes = np.arange(256) * (gp.T / 256)
        x = level * (1.0 + 0.2 * np.cos(2.0 * np.pi * nodes / gp.T))
        f = shifted_rhs(gp, 0.7, nodes, x)
        kernel = greens.build(gp.a, 0.7, gp.T)
        assert np.array_equal(greens.circular_response(kernel, f), inline_response(kernel, f))

    def test_constant_solution_reproduced_by_one_response(self):
        lp = LiebauProblem(1.6, 0.01, 1.49, 1.0, PeriodicFunction.constant(1.0, 1.54))
        x_star = (1.54 / 1.49) ** 100
        assert fixed_point_defect(regularize(lp), 0.7, np.full(512, x_star)) < 1e-9

    def test_solver_output_is_near_fixed_point(self, cosine_lp):
        gp = regularize(cosine_lp)
        assert fixed_point_defect(gp, 0.7, solve_periodic(gp).values) < 1e-3


class TestConeAndLocalization:
    def test_constant_positive_in_cone(self):
        report = cone_and_localization(np.full(32, 5.0), 0.9, 1.0, 10.0)
        assert report.in_cone and report.above_lower and report.below_upper

    def test_figure_solution_in_cone(self, cosine_lp):
        sol = solve_periodic(regularize(cosine_lp))
        report = cone_and_localization(sol.values, 0.94144, 0.07, 38.0)
        assert report.all_ok

    def test_touching_zero_not_in_cone(self):
        vals = np.linspace(0.0, 1.0, 16)
        report = cone_and_localization(vals, 0.5, 0.1, 2.0)
        assert not report.in_cone
