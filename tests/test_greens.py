import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from liebau import greens
from liebau.acceptance import _MASS_CASES
from liebau.errors import BadPeriod, LiebauError, MOutOfRange
from liebau.funcspec import PeriodicFunction
from liebau.numerics import simpson_segmented


@pytest.fixture(scope="module")
def kernel_example():
    # the instance quoted with four-digit constants: a=1.6, m=0.7, T=1
    return greens.build(1.6, 0.7, 1.0)


@pytest.fixture(scope="module")
def kernel_a0():
    return greens.build(0.0, 0.25, 2 * math.pi)


class TestBuild:
    def test_real_distinct_roots(self, kernel_example):
        assert kernel_example.case == greens.CASE_REAL_DISTINCT
        r1, r2 = kernel_example.roots
        assert r1.real == pytest.approx(-0.412702, abs=1e-6)
        assert r2.real == pytest.approx(-1.187298, abs=1e-6)
        assert r1.imag == r2.imag == 0.0

    def test_complex_pair(self, kernel_a0):
        assert kernel_a0.case == greens.CASE_COMPLEX_PAIR
        r1, r2 = kernel_a0.roots
        assert r1.real == 0.0 and r2.real == 0.0
        assert r1.imag == pytest.approx(0.25, abs=1e-15)
        assert r2.imag == pytest.approx(-0.25, abs=1e-15)

    def test_double_root_case(self):
        k = greens.build(2.0, 1.0, 1.0)
        assert k.case == greens.CASE_DOUBLE_ROOT
        assert k.roots[0] == k.roots[1] == complex(-1.0, 0.0)

    def test_window_violation(self):
        # m_max^2 = pi^2 + 0.64 = 10.5096..., so m = 3.3 is out
        with pytest.raises(MOutOfRange):
            greens.build(1.6, 3.3, 1.0)
        assert greens.m_window(1.6, 1.0) == pytest.approx(math.sqrt(10.5096044), abs=1e-6)

    def test_bad_inputs(self):
        with pytest.raises(BadPeriod):
            greens.build(1.0, 0.5, 0.0)
        with pytest.raises(MOutOfRange):
            greens.build(1.0, 0.0, 1.0)


class TestKernelValues:
    def test_diagonal_value(self, kernel_example):
        assert kernel_example.at(0.0) == pytest.approx(1.96026, abs=1e-4)
        assert kernel_example.k0 == pytest.approx(1.96026, abs=1e-4)

    def test_a0_closed_form(self, kernel_a0):
        # for a = 0 the kernel is cos(m (tau - T/2)) / (2 m sin(m T / 2))
        m, T = 0.25, 2 * math.pi
        assert kernel_a0.at(T / 2) == pytest.approx(1.0 / (2 * m * math.sin(m * T / 2)), rel=1e-12)
        taus = np.linspace(0, T, 97)
        oracle = np.cos(m * (taus - T / 2)) / (2 * m * math.sin(m * T / 2))
        np.testing.assert_allclose(kernel_a0.at(taus), oracle, rtol=1e-12)

    def test_endpoint_continuity(self, kernel_example, kernel_a0):
        for k in (kernel_example, kernel_a0):
            assert k.at(0.0) == k.at(k.T)

    def test_case_boundary_continuity(self):
        # distinct-roots and complex formulas must agree with the confluent
        # formula as the discriminant crosses zero
        T = 1.0
        m = 1.0
        for sign in (+1.0, -1.0):
            a = math.sqrt(4 * m * m + sign * 1e-8)
            case = greens._select_case(a, m)
            taus = np.linspace(0, T, 41)
            got = greens._kernel_values(case, greens._roots(a, m, case), T, taus)
            double = greens._roots(a, m, greens.CASE_DOUBLE_ROOT)
            confluent = greens._kernel_values(greens.CASE_DOUBLE_ROOT, double, T, taus)
            np.testing.assert_allclose(got, confluent, atol=1e-6)


def mp_kernel(a, m, T, taus):
    """K(tau) at 40 digits from the exact roots of lam^2 + a lam + m^2 for binary a, m."""
    with mpmath.workdps(40):
        a, m, T = mpmath.mpf(a), mpmath.mpf(m), mpmath.mpf(T)
        sq = mpmath.sqrt(a * a - 4 * m * m)  # imaginary for a complex pair
        l1, l2 = (-a + sq) / 2, (-a - sq) / 2
        return np.array([
            float(mpmath.re(
                (mpmath.exp(l1 * t) / (1 - mpmath.exp(l1 * T))
                 - mpmath.exp(l2 * t) / (1 - mpmath.exp(l2 * T))) / (l1 - l2)
            ))
            for t in (mpmath.mpf(float(tau)) for tau in taus)
        ])


class TestBranchSwitch:
    """The confluent formula inside |a^2 - 4 m^2| < _BRANCH_EPS * 4 m^2, the
    distinct-roots or complex-pair formula outside, each near the 40-digit kernel."""

    @pytest.mark.parametrize("m, T", [(0.3, 1.0), (1.0, 1.0), (1.0, 5.0), (3.0, 0.5)])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("rel, inside", [(0.99, True), (1.01, False), (27.0, False)])
    def test_formula_error_on_both_sides(self, m, T, side, rel, inside):
        # at rel = 27 (about 1e-9) the confluent formula is off by about 1e-9
        # of kmax, so the distinct-roots or complex-pair formula must serve
        a = 2.0 * m * math.sqrt(1.0 + side * rel * greens._BRANCH_EPS)
        k = greens.build(a, m, T)
        outside = greens.CASE_REAL_DISTINCT if side > 0 else greens.CASE_COMPLEX_PAIR
        assert k.case == (greens.CASE_DOUBLE_ROOT if inside else outside)
        taus = np.linspace(0.0, T, 41)[:-1]
        err = np.max(np.abs(k.at(taus) - mp_kernel(a, m, T, taus)))
        assert err < 1e-10 * k.kmax


class TestGreenAt:
    def test_diagonal_constant(self, kernel_example):
        for s in np.linspace(0, 1, 21):
            assert kernel_example.green(s, s) == kernel_example.k0

    def test_translation_invariance(self, kernel_example):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t, s, d = rng.uniform(0, 1, 3)
            lhs = kernel_example.green((t + d) % 1.0, (s + d) % 1.0)
            rhs = kernel_example.green(t, s)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_grid_min_max(self, kernel_example):
        ts = np.linspace(0, 1, 256, endpoint=False)
        G = kernel_example.green(ts[:, None], ts[None, :])
        assert G.min() == pytest.approx(1.96026, abs=1e-4)
        assert G.max() == pytest.approx(1.96026 / 0.94144, abs=1e-3)
        # consistent with unit mass: mean of K over the period is 1/(m^2 T)
        assert G.mean() == pytest.approx(1.0 / 0.49, rel=1e-3)


class TestConeConstant:
    def test_example_value(self, kernel_example):
        assert kernel_example.cone_constant == pytest.approx(0.94144, abs=1e-4)

    def test_a0_value(self, kernel_a0):
        assert kernel_a0.cone_constant == pytest.approx(math.cos(math.pi / 4), rel=1e-10)

    def test_in_unit_interval_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            T = rng.uniform(0.3, 8.0)
            a = rng.uniform(0.0, 3.0)
            m = rng.uniform(0.05, 0.999) * greens.m_window(a, T)
            k = greens.build(a, m, T)
            assert 0.0 < k.cone_constant < 1.0
            assert k.k0 > 0.0


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _scan_golden_kmax(k, points=4096, tol=1e-13):
    """Maximum of K by a grid scan refined by golden-section search."""
    taus = np.linspace(0.0, k.T, points + 1)
    vals = k.at(taus)
    i = int(np.argmax(vals))
    a, b = taus[max(i - 1, 0)], taus[min(i + 1, points)]
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = k.at(c), k.at(d)
    while b - a > tol * max(1.0, k.T):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = k.at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = k.at(d)
    return max(k.at(0.5 * (a + b)), float(vals.max()))


CASE_EXAMPLES = [
    ((1.6, 0.7, 1.0), greens.CASE_REAL_DISTINCT),
    ((0.5, 2.0, 1.0), greens.CASE_COMPLEX_PAIR),
    ((0.0, 0.25, 2 * math.pi), greens.CASE_COMPLEX_PAIR),
    ((2.0, 1.0, 1.0), greens.CASE_DOUBLE_ROOT),
]


class TestClosedFormExtrema:
    @given(
        a=st.floats(0.0, 3.0),
        frac=st.floats(0.01, 0.999),
        T=st.floats(0.3, 8.0),
    )
    def test_bounds_and_scan_oracle(self, a, frac, T):
        k = greens.build(a, frac * greens.m_window(a, T), T)
        vals = k.at(np.linspace(0.0, T, 8193))
        assert np.all(k.k0 <= vals)
        assert np.all(vals <= k.kmax * (1.0 + 1e-13))
        assert k.kmax == pytest.approx(_scan_golden_kmax(k), rel=1e-13)
        assert k.cone_constant == k.k0 / k.kmax

    @pytest.mark.parametrize("params, case", CASE_EXAMPLES)
    def test_critical_point_is_the_maximum(self, params, case):
        k = greens.build(*params)
        assert k.case == case
        t_max = greens._critical_point(k.case, k.roots, k.T)
        assert 0.0 < t_max < k.T
        assert k.kmax == k.at(t_max)
        for h in (1e-3, 1e-5):
            left, right = k.at(t_max - h), k.at(t_max + h)
            assert max(left, right) <= k.kmax
            # symmetric difference: K'(t_max) = 0 up to O(h^2)
            assert abs(right - left) / (2 * h) <= 10 * h * k.kmax
        assert k.kmax >= float(np.max(k.at(np.linspace(0.0, k.T, 4097))))

    def test_a0_maximum_at_half_period(self, kernel_a0):
        k = kernel_a0
        assert greens._critical_point(k.case, k.roots, k.T) == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("m, T", [(1.0, 1.0), (0.3, 5.0), (1.5, 0.5)])
    def test_cone_constant_continuous_across_discriminant(self, m, T):
        confluent = greens.build(2.0 * m, m, T)
        assert confluent.case == greens.CASE_DOUBLE_ROOT
        for sign, case in ((+1.0, greens.CASE_REAL_DISTINCT), (-1.0, greens.CASE_COMPLEX_PAIR)):
            k = greens.build(math.sqrt(4 * m * m + sign * 1e-8), m, T)
            assert k.case == case
            assert abs(k.cone_constant - confluent.cone_constant) <= 1e-7


class TestVerifyProperties:
    def test_unit_mass(self, kernel_example):
        report = greens.verify_properties(kernel_example)
        assert report.mass_deviation < 1e-8
        val = greens.apply_kernel(kernel_example, PeriodicFunction.constant(1.0, 1.0), np.array([0.37]))
        assert val[0] == pytest.approx(1.0 / 0.49, abs=1e-8)

    def test_constant_forcing_reproduces_equilibrium(self, kernel_example):
        h = PeriodicFunction.constant(1.0, 1.0)
        ts = np.linspace(0, 1, 33)
        x = greens.apply_kernel(kernel_example, h, ts)
        np.testing.assert_allclose(x, 1.0 / 0.49, rtol=1e-10)

    def test_cosine_forcing_matches_undetermined_coefficients(self, kernel_example):
        # particular periodic solution of x'' + a x' + m^2 x = cos(w t) is
        # Re[exp(i w t) / (m^2 - w^2 + i a w)]
        a, m, T = 1.6, 0.7, 1.0
        w = 2 * math.pi / T
        H = 1.0 / complex(m * m - w * w, a * w)
        h = PeriodicFunction.trig(T, 0.0, [(1.0, 1, 0.0)])
        ts = np.linspace(0, T, 65, endpoint=False)
        x = greens.apply_kernel(kernel_example, h, ts)
        oracle = np.array([(H * cmath.exp(1j * w * t)).real for t in ts])
        assert np.max(np.abs(x - oracle)) < 1e-9

    def test_full_report_passes(self, kernel_a0):
        report = greens.verify_properties(kernel_a0)
        assert report.passed
        assert report.positivity_min > 0
        assert report.chain_violation <= 1e-12
        assert report.reproduction_residual < 1e-6

    @pytest.mark.parametrize("params", [(1.6, 0.7, 1.0), (0.0, 0.25, 2 * math.pi), (2.0, 1.0, 1.0)])
    def test_chain_property_grid(self, params):
        k = greens.build(*params)
        ts = np.linspace(0, k.T, 256, endpoint=False)
        G = k.green(ts[:, None], ts[None, :])
        assert np.all(G >= k.k0 * (1 - 1e-12))
        assert np.all(k.k0 >= k.cone_constant * G * (1 - 1e-12))

    @pytest.mark.parametrize("params", _MASS_CASES)
    def test_reproduction_residual_of_acceptance_kernels(self, params):
        report = greens.verify_properties(greens.build(*params))
        assert report.reproduction_residual < 1e-6


def trig_response(a, m, T, offset, terms, t):
    """Exact periodic solution of x'' + a x' + m^2 x = offset + sum amp cos(w_k t + phase)."""
    out = offset / (m * m) + np.zeros_like(t)
    for amp, k, phase in terms:
        w = 2.0 * math.pi * k / T
        out = out + np.real(amp * np.exp(1j * (w * t + phase)) / complex(m * m - w * w, a * w))
    return out


_trig_forcings = dict(
    a=st.floats(0.0, 3.0),
    frac=st.floats(0.05, 0.95),
    T=st.floats(0.5, 7.0),
    offset=st.floats(-1.0, 1.0),
    terms=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.integers(1, 4), st.floats(0.0, 2.0 * math.pi)),
        max_size=4,
    ),
)


class TestApplyKernel:
    @given(
        **_trig_forcings,
        M=st.integers(8, 300),
        t_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    def test_trig_forcing_matches_exact_response(self, a, frac, T, offset, terms, M, t_fracs):
        m = frac * greens.m_window(a, T)
        kernel = greens.build(a, m, T)
        g = PeriodicFunction.trig(T, offset, terms)
        scale = abs(offset) + sum(abs(amp) for amp, _, _ in terms)
        # the error is the h^4/720 Euler-Maclaurin term from the kernel's jumps
        # in K'' and K'''; at T = 7, a = 3 and harmonic 4 it is 8.6e-12 * scale
        for ts in (np.arange(M) * (T / M), np.asarray(t_fracs) * T):
            x = greens.apply_kernel(kernel, g, ts)
            assert np.max(np.abs(x - trig_response(a, m, T, offset, terms, ts))) <= 1e-11 * scale

    @given(**_trig_forcings, M=st.sampled_from([8, 64, 512, 2048]))
    def test_grid_and_interpolant_paths_agree(self, a, frac, T, offset, terms, M):
        # M divides the 2048-node fine grid, so both paths read the same
        # samples; the nudged nodes are off the grid and use the interpolant
        m = frac * greens.m_window(a, T)
        kernel = greens.build(a, m, T)
        g = PeriodicFunction.trig(T, offset, terms)
        scale = abs(offset) + sum(abs(amp) for amp, _, _ in terms)
        on_grid = np.arange(M) * (T / M)
        nudged = on_grid + 1e-9 * T
        moved = greens.apply_kernel(kernel, g, nudged) - greens.apply_kernel(kernel, g, on_grid)
        exact = trig_response(a, m, T, offset, terms, nudged) - trig_response(
            a, m, T, offset, terms, on_grid
        )
        assert np.max(np.abs(moved - exact)) <= 1e-12 * scale


class TestModes:
    """The exponential modes that the kinked-response sweep integrates."""

    @staticmethod
    def assert_modes_rebuild_kernel(k):
        tau = np.linspace(0.0, k.T, 257)[:-1]
        terms = [c * tau**p * np.exp(lam * tau) for c, p, lam in greens._modes(k)]
        rebuilt = sum(term.real for term in terms)
        # distinct real modes cancel as the roots merge, and kernel.at then
        # loses the same digits, so the bound is relative to the modes' size,
        # which is |K| wherever they do not cancel
        size = sum(np.abs(term) for term in terms)
        assert np.all(np.abs(rebuilt - k.at(tau)) <= 1e-13 * size)

    @given(a=st.floats(0.0, 3.0), frac=st.floats(0.01, 0.999), T=st.floats(0.3, 8.0))
    def test_modes_rebuild_kernel(self, a, frac, T):
        self.assert_modes_rebuild_kernel(greens.build(a, frac * greens.m_window(a, T), T))

    @given(
        m=st.floats(0.05, 1.5),
        T=st.floats(0.3, 8.0),
        side=st.sampled_from([-1.0, 1.0]),
        log_rel=st.floats(-12.0, -5.0),
    )
    def test_modes_next_to_branch_switch(self, m, T, side, log_rel):
        # a^2 - 4 m^2 = side * 10^log_rel * 4 m^2 straddles _BRANCH_EPS = eps^(2/3)
        k = greens.build(2.0 * m * math.sqrt(1.0 + side * 10.0**log_rel), m, T)
        self.assert_modes_rebuild_kernel(k)

    @pytest.mark.parametrize("params, case", CASE_EXAMPLES)
    def test_modes_of_each_case(self, params, case):
        k = greens.build(*params)
        assert k.case == case
        self.assert_modes_rebuild_kernel(k)


# the kernels of the three cases used with kinked forcings
KINKED_KERNELS = [(1.6, 0.7, 1.0), (0.0, 0.25, 2 * math.pi), (1.4, 0.7, 1.0)]


def trapezoid_forcing(lp, T):
    """2200 e_+ of the trapezoid preset, stretched to period T."""
    table = [(t * T, v) for t, v in lp.e.body.points]
    return PeriodicFunction.piecewise_linear(table).positive_part().scale(2200.0)


def kinked_forcings(lp, T):
    return [
        trapezoid_forcing(lp, T),
        PeriodicFunction.trig(T, 0.2, [(1.0, 1, 0.3), (0.4, 3, 1.1)]).positive_part(),
        PeriodicFunction.sum_of([
            PeriodicFunction.trig(T, 0.5, [(0.8, 2, 0.4)]),
            PeriodicFunction.piecewise_linear(
                [(0.0, 0.0), (0.2 * T, 1.5), (0.45 * T, -0.5), (0.8 * T, 0.7), (T, 0.0)]
            ),
        ]),
    ]


def kinked_t_values(g, T):
    """A uniform grid, points next to the ends, and the breakpoints of g."""
    extra = [0.0005 * T, 0.7 * T, 0.9995 * T] + g.breakpoints()
    return np.concatenate([np.linspace(0.0, T, 16, endpoint=False), extra])


def simpson_response(k, g, ts, base_panels=1024):
    """One segmented Simpson rule per t, split at s = t and the breakpoints of g."""
    return np.array([
        simpson_segmented(
            lambda s: k.green(float(t), s) * np.asarray(g(s), dtype=float),
            0.0, k.T, splits=[float(t)] + g.breakpoints(), base_panels=base_panels,
        )
        for t in ts
    ])


def mp_response(k, table, t):
    """integral_0^T K((t - s) mod T) g(s) ds at 40 digits for a piecewise-linear
    table g, with K built from the kernel's own (binary) roots."""
    with mpmath.workdps(40):
        T = mpmath.mpf(k.T)
        if k.case == greens.CASE_DOUBLE_ROOT:
            lam = mpmath.mpf(k.roots[0].real)
            E = mpmath.exp(lam * T)
            K = lambda tau: mpmath.exp(lam * tau) * (tau * (1 - E) + T * E) / (1 - E) ** 2
        elif k.case == greens.CASE_REAL_DISTINCT:
            l1, l2 = (mpmath.mpf(r.real) for r in k.roots)
            K = lambda tau: (
                mpmath.exp(l1 * tau) / (1 - mpmath.exp(l1 * T))
                - mpmath.exp(l2 * tau) / (1 - mpmath.exp(l2 * T))
            ) / (l1 - l2)
        else:
            lam = mpmath.mpc(k.roots[0].real, k.roots[0].imag)
            K = lambda tau: mpmath.im(mpmath.exp(lam * tau) / (1 - mpmath.exp(lam * T))) / lam.imag
        t = mpmath.mpf(float(np.mod(t, k.T)))
        total = mpmath.mpf(0)
        for (t0, v0), (t1, v1) in zip(table[:-1], table[1:]):
            t0, v0, t1, v1 = (mpmath.mpf(x) for x in (t0, v0, t1, v1))
            g = lambda s: v0 + (v1 - v0) * (s - t0) / (t1 - t0)
            for lo, hi in ((t0, min(t, t1)), (max(t, t0), t1)):
                if lo < hi:
                    shift = 0 if hi <= t else T  # s > t wraps to tau = t - s + T
                    total += mpmath.quad(lambda s: K(t - s + shift) * g(s), [lo, hi])
        return float(total)


class TestKinkedResponse:
    """apply_kernel for g with breakpoints: the exponential-mode sweep."""

    def test_gauss_rule_is_numpy_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(greens._GAUSS_X, x) and np.array_equal(greens._GAUSS_W, w)

    def test_kinked_forcing_matches_segmented_simpson(self, trapezoid_lp):
        for params in KINKED_KERNELS:
            k = greens.build(*params)
            for g in kinked_forcings(trapezoid_lp, k.T):
                ts = kinked_t_values(g, k.T)
                x = greens.apply_kernel(k, g, ts)
                oracle = simpson_response(k, g, ts)
                assert np.max(np.abs(x - oracle)) <= 1e-11 * np.max(np.abs(oracle)), (params, g)

    @pytest.mark.parametrize("params", KINKED_KERNELS)
    def test_piecewise_linear_matches_mpmath(self, params, trapezoid_lp):
        k = greens.build(*params)
        T = k.T
        signed = PeriodicFunction.piecewise_linear(
            [(0.0, 1.0), (0.3 * T, 2.0), (0.5 * T, 0.0), (0.7 * T, -1.0), (T, 1.0)]
        )
        for g in (trapezoid_forcing(trapezoid_lp, T), signed):
            ts = np.concatenate([[0.0, 0.37 * T, 0.9995 * T], g.breakpoints()[:2]])
            ref = np.array([mp_response(k, g.body.points, t) for t in ts])
            x = greens.apply_kernel(k, g, ts)
            assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("params", KINKED_KERNELS)
    def test_t_order_repeats_and_shifts(self, params, trapezoid_lp):
        k = greens.build(*params)
        T = k.T
        g = kinked_forcings(trapezoid_lp, T)[2]
        ts = kinked_t_values(g, T)
        x = greens.apply_kernel(k, g, ts)
        perm = np.random.default_rng(5).permutation(len(ts))
        assert np.array_equal(greens.apply_kernel(k, g, ts[perm]), x[perm])
        twice = np.concatenate([ts, ts[::-1]])
        assert np.array_equal(greens.apply_kernel(k, g, twice), np.concatenate([x, x[::-1]]))
        for shift in (T, -T):
            # t +- T rounds, so the shifted points may move by an ulp
            moved = greens.apply_kernel(k, g, ts + shift)
            assert np.max(np.abs(moved - x)) <= 1e-14 * np.max(np.abs(x))

    @pytest.mark.parametrize("params", [(800.0, 0.7, 1.0), (100.0, 50.0, 1.0)])
    def test_large_damping_stays_finite_and_exact(self, params, trapezoid_lp):
        # e^{a T} overflows at a T = 800, so the sweep re-anchors in blocks;
        # (100, 50, 1) is a double root whose tau-mode moment is carried too
        k = greens.build(*params)
        g = trapezoid_forcing(trapezoid_lp, 1.0)
        ts = np.array([0.0, 0.00025, 0.0005, 0.37, 0.9995])
        ref = np.array([mp_response(k, g.body.points, t) for t in ts])
        # sub-gaps are also at most 2/|lam| wide, so even one base panel is exact
        for base_panels in (1024, 1):
            x = greens.apply_kernel(k, g, ts, base_panels)
            assert np.all(np.isfinite(x))
            assert np.max(np.abs(x - ref) / np.abs(ref)) <= 1e-12


class TestApplyKernelBoundary:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_raises(self, kernel_example, trapezoid_lp, bad):
        ts = np.array([0.1, bad, 0.5])
        for g in (PeriodicFunction.trig(1.0, 1.0, [(0.5, 1, 0.0)]), trapezoid_forcing(trapezoid_lp, 1.0)):
            with pytest.raises(LiebauError, match="finite"):
                greens.apply_kernel(kernel_example, g, ts)

    @pytest.mark.parametrize("base_panels", [0, -3])
    def test_base_panels_below_one_raises(self, kernel_example, trapezoid_lp, base_panels):
        ts = np.linspace(0.0, 1.0, 8, endpoint=False)
        for g in (PeriodicFunction.constant(1.0, 2.0), trapezoid_forcing(trapezoid_lp, 1.0)):
            with pytest.raises(LiebauError, match="base_panels"):
                greens.apply_kernel(kernel_example, g, ts, base_panels=base_panels)
