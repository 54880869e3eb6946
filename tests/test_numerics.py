import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liebau.numerics import (
    ZOOM_MAX_POINTS,
    ZOOM_POINTS,
    cyclic_differences,
    cyclic_fd_operator,
    gmres,
    solve_cyclic_tridiagonal,
    sorted_unique,
    trig_interpolate,
    zoom_minima,
)

# traces that ``trace_array``, and so every function that takes a trace,
# refuses with LiebauError: empty, not 1-D, not finite or not numbers
BAD_TRACES = [[], np.ones((4, 4)), [1.0, math.nan, 2.0, 3.0], [1.0, math.inf], ["a", "b"]]


def test_cyclic_differences_match_inline_roll_formula():
    rng = np.random.default_rng(11)
    for n in (3, 8, 257):
        x = rng.uniform(-2.0, 5.0, n)
        h, a = 1.0 / n, 1.6
        xp, xm = np.roll(x, -1), np.roll(x, 1)
        d1, d2 = cyclic_differences(x)
        assert np.array_equal(d1, xp - xm)
        assert np.array_equal(d2, xp - 2.0 * x + xm)
        assert np.array_equal(
            cyclic_fd_operator(x, h, a),
            (xp - 2.0 * x + xm) / h**2 + a * (xp - xm) / (2.0 * h),
        )


def two_sweep_solve(sub, diag, sup, corner_top, corner_bot, rhs):
    """The earlier cyclic solve: one Thomas sweep per right-hand side, on numpy scalars."""
    n = len(diag)
    gamma = -diag[0]
    bdiag = diag.copy()
    bdiag[0] -= gamma
    bdiag[-1] -= corner_top * corner_bot / gamma

    def thomas(d):
        cp = np.empty(n)
        dp = np.empty(n)
        cp[0] = sup[0] / bdiag[0]
        dp[0] = d[0] / bdiag[0]
        for i in range(1, n):
            den = bdiag[i] - sub[i] * cp[i - 1]
            cp[i] = sup[i] / den if i < n - 1 else 0.0
            dp[i] = (d[i] - sub[i] * dp[i - 1]) / den
        x = np.empty(n)
        x[-1] = dp[-1]
        for i in range(n - 2, -1, -1):
            x[i] = dp[i] - cp[i] * x[i + 1]
        return x

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner_bot
    y = thomas(rhs)
    z = thomas(u)
    factor = (y[0] + corner_top * y[-1] / gamma) / (1.0 + z[0] + corner_top * z[-1] / gamma)
    return y - factor * z


def random_system(rng, n, arbitrary_corners):
    """Random cyclic system with a sign-indefinite diagonal."""
    sub = rng.uniform(-1.0, 1.0, n)
    sup = rng.uniform(-1.0, 1.0, n)
    diag = rng.uniform(-3.0, 3.0, n)
    rhs = rng.normal(size=n)
    corners = tuple(rng.uniform(-2.0, 2.0, 2)) if arbitrary_corners else (sub[0], sup[-1])
    return sub, diag, sup, *corners, rhs


def dense_cyclic(sub, diag, sup, corner_top, corner_bot):
    a = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    a[0, -1] += corner_top
    a[-1, 0] += corner_bot
    return a


class TestCyclicTridiagonal:
    @pytest.mark.parametrize("n", [3, 8, 512, 4096])
    @pytest.mark.parametrize("arbitrary_corners", [False, True])
    def test_bitwise_equal_to_two_sweeps(self, n, arbitrary_corners):
        rng = np.random.default_rng(n)
        system = random_system(rng, n, arbitrary_corners)
        assert np.array_equal(solve_cyclic_tridiagonal(*system), two_sweep_solve(*system))

    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        arbitrary_corners=st.booleans(),
    )
    def test_bitwise_equal_property(self, n, seed, arbitrary_corners):
        system = random_system(np.random.default_rng(seed), n, arbitrary_corners)
        assert np.array_equal(solve_cyclic_tridiagonal(*system), two_sweep_solve(*system))

    @pytest.mark.parametrize("n", [3, 8, 17, 64])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(100 + n)
        sub, _, sup, corner_top, corner_bot, rhs = random_system(rng, n, True)
        # sign-indefinite but diagonally dominant, so the dense solve is well conditioned
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(5.0, 6.0, n)
        x = solve_cyclic_tridiagonal(sub, diag, sup, corner_top, corner_bot, rhs)
        a = dense_cyclic(sub, diag, sup, corner_top, corner_bot)
        np.testing.assert_allclose(x, np.linalg.solve(a, rhs), rtol=1e-12, atol=1e-14)
        assert float(np.max(np.abs(a @ x - rhs))) < 1e-13

    def test_zero_first_pivot_returns_nan(self):
        sub, diag, sup, _, _, rhs = random_system(np.random.default_rng(8), 8, False)
        diag[0] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            x = solve_cyclic_tridiagonal(sub, diag, sup, sub[0], sup[-1], rhs)
            assert np.all(np.isnan(two_sweep_solve(sub, diag, sup, sub[0], sup[-1], rhs)))
        assert x.shape == (8,)
        assert np.all(np.isnan(x))

    def test_zero_interior_pivot_returns_nan(self):
        sub, diag, sup, _, _, rhs = random_system(np.random.default_rng(9), 8, False)
        # choose diag[3] so the fourth pivot bdiag[3] - sub[3] * cp[2] is exactly zero
        cp = sup[0] / (2.0 * diag[0])
        for i in (1, 2):
            cp = sup[i] / (diag[i] - sub[i] * cp)
        diag[3] = sub[3] * cp
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.all(np.isnan(two_sweep_solve(sub, diag, sup, sub[0], sup[-1], rhs)))
        x = solve_cyclic_tridiagonal(sub, diag, sup, sub[0], sup[-1], rhs)
        assert np.all(np.isnan(x))


def gmres_with_final_residual(matvec, b, rtol, restart, max_cycles):
    """The earlier ``gmres``, which formed b - A u after every cycle, the last too."""
    u = np.zeros_like(b)
    r = b
    target = rtol * math.sqrt(float(np.dot(b, b)))
    for _ in range(max_cycles):
        beta = math.sqrt(float(np.dot(r, r)))
        if beta <= target:
            break
        basis = [r / beta]
        cols = []
        rot = []
        g = [beta]
        for j in range(restart):
            w = matvec(basis[j])
            col = []
            for v in basis:
                hij = float(np.dot(v, w))
                w -= hij * v
                col.append(hij)
            below = math.sqrt(float(np.dot(w, w)))
            for i, (c, s) in enumerate(rot):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], below)
            if rho == 0.0:
                break
            c, s = col[j] / rho, below / rho
            col[j] = rho
            rot.append((c, s))
            cols.append(col)
            g.append(-s * g[j])
            g[j] *= c
            if abs(g[j + 1]) <= target or below == 0.0:
                break
            basis.append(w / below)
        if not cols:
            break
        y = [0.0] * len(cols)
        for i in range(len(cols) - 1, -1, -1):
            acc = g[i]
            for k in range(i + 1, len(cols)):
                acc -= cols[k][i] * y[k]
            y[i] = acc / cols[i][i]
        for yi, v in zip(y, basis):
            u += yi * v
        r = b - matvec(u)
    return u


def counted(A):
    """x -> A x, and the list that gets a copy of each x it is called with."""
    calls = []

    def matvec(v):
        calls.append(v.copy())
        return A @ v

    return matvec, calls


class TestGmres:
    @staticmethod
    def system(n, seed, spread):
        rng = np.random.default_rng(seed)
        A = np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
        return A, rng.standard_normal(n)

    @pytest.mark.parametrize(
        "n, seed, spread, rtol, restart, cycles",
        [
            (40, 5, 0.5, 1e-12, 40, 1),  # one cycle reaches the target
            (40, 5, 0.5, 1e-12, 6, 30),  # restarts, then stops on the estimate
            (60, 9, 0.9, 1e-14, 3, 2),  # the budget runs out
            (30, 2, 0.1, 1e-10, 12, 4),  # near the identity, as in the polish
            (8, 0, 0.0, 1e-12, 12, 4),  # the identity: one Arnoldi step
        ],
    )
    def test_bitwise_equal_with_one_matvec_less(self, n, seed, spread, rtol, restart, cycles):
        A, b = self.system(n, seed, spread)
        matvec, calls = counted(A)
        old_matvec, old_calls = counted(A)
        u = gmres(matvec, b, rtol, restart, cycles)
        assert u.tobytes() == gmres_with_final_residual(old_matvec, b, rtol, restart, cycles).tobytes()
        # the earlier form's last matvec was the residual of the returned u
        assert len(calls) == len(old_calls) - 1
        assert all(np.array_equal(x, y) for x, y in zip(calls, old_calls))

    def test_restart_starts_from_the_true_residual(self):
        A, b = self.system(40, 5, 0.5)
        matvec, calls = counted(A)
        restart = 6
        u = gmres(matvec, b, 1e-12, restart, 30)
        assert np.linalg.norm(A @ u - b) <= 1e-11 * np.linalg.norm(b)
        # cycle 1: restart Arnoldi vectors, then A u1; cycle 2 starts from
        # the normalized b - A u1
        assert len(calls) > restart + 1
        u1 = calls[restart]
        r1 = b - A @ u1
        assert np.linalg.norm(r1) > 1e-12 * np.linalg.norm(b)
        np.testing.assert_array_equal(calls[restart + 1], r1 / math.sqrt(float(np.dot(r1, r1))))

    @pytest.mark.parametrize("restart, cycles", [(40, 1), (6, 30)])
    def test_matches_dense_solve(self, restart, cycles):
        # with restarts the short basis needs more cycles to reach the target
        A, b = self.system(40, 5, 0.5)
        u = gmres(lambda v: A @ v, b, 1e-12, restart, cycles)
        assert np.linalg.norm(A @ u - b) <= 1e-11 * np.linalg.norm(b)
        np.testing.assert_allclose(u, np.linalg.solve(A, b), rtol=0, atol=1e-10)

    def test_identity_needs_one_arnoldi_step(self):
        calls = []

        def identity(v):
            calls.append(1)
            return v.copy()

        b = np.arange(1.0, 9.0)
        u = gmres(identity, b, 1e-12, 12, 4)
        np.testing.assert_allclose(u, b, rtol=1e-15)
        assert len(calls) == 1  # one Arnoldi step; the cycle stops on its estimate

    def test_zero_right_hand_side(self):
        u = gmres(lambda v: 2.0 * v, np.zeros(5), 1e-12, 12, 4)
        assert np.array_equal(u, np.zeros(5))

    def test_exhausted_budget_still_lowers_residual(self):
        A, b = self.system(60, 9, 0.9)
        u = gmres(lambda v: A @ v, b, 1e-14, 3, 2)
        res = np.linalg.norm(A @ u - b)
        assert 0.0 < res < np.linalg.norm(b)


def factor_interpolate(values, factor):
    """The earlier resampling helper, which took an integer refinement factor."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    mean = x.mean()
    spec = np.fft.rfft(x - mean)
    out = np.zeros(factor * n // 2 + 1, dtype=complex)
    out[: n // 2] = spec[: n // 2]
    if n % 2 == 0:
        out[n // 2] = 0.5 * spec[n // 2]
    else:
        out[(n + 1) // 2 - 1] = spec[-1]
    return np.fft.irfft(out, n=factor * n) * factor + mean


class TestTrigInterpolate:
    @pytest.mark.parametrize("n, factor", [(64, 4), (63, 4), (128, 32), (63, 2), (10, 3)])
    def test_bitwise_equal_to_factor_form(self, n, factor):
        x = np.random.default_rng(n + factor).uniform(0.5, 2.0, n)
        assert np.array_equal(trig_interpolate(x, factor * n), factor_interpolate(x, factor))

    @pytest.mark.parametrize("n", [63, 512])
    def test_same_grid_keeps_the_nyquist_mode(self, n):
        # the factor form halved the Nyquist bin at factor 1 for even n
        x = np.random.default_rng(n).uniform(0.5, 2.0, n)
        np.testing.assert_allclose(trig_interpolate(x, n), x, rtol=1e-15)

    @pytest.mark.parametrize(
        "n, n_out", [(128, 4096), (128, 256), (63, 126), (63, 4095), (64, 192)]
    )
    def test_lift_returns_samples_at_coarse_nodes(self, n, n_out):
        x = np.random.default_rng(n_out).uniform(0.5, 2.0, n)
        lifted = trig_interpolate(x, n_out)
        assert len(lifted) == n_out
        back = lifted[:: n_out // n]
        assert float(np.max(np.abs(back - x))) <= 1e-15 * float(np.max(np.abs(x)))

    @pytest.mark.parametrize("n_out", [200, 1001, 4096])
    def test_lift_is_exact_for_band_limited_data(self, n_out):
        # modes 5, 40 and 63 are all below the Nyquist mode 64 of the 128-point grid
        def p(t):
            return (2.0 + np.cos(2 * np.pi * 5 * t) + 0.3 * np.sin(2 * np.pi * 63 * t)
                    + 0.1 * np.cos(2 * np.pi * 40 * t + 0.3))

        lifted = trig_interpolate(p(np.arange(128) / 128), n_out)
        np.testing.assert_allclose(lifted, p(np.arange(n_out) / n_out), rtol=0, atol=1e-13)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio


def three_call_parabolic_min(f, left, mid, right, tol):
    """Successive parabolic interpolation with golden-section fallback, the
    scalar search the extrema scan used before the zoom: an independent
    reference for ``zoom_minima``.

    Returns (x, iterations, golden-section steps).
    """
    a, b = left, right
    x = mid
    fx = f(x)
    iterations = golden = 0
    for _ in range(200):
        if (b - a) <= tol:
            break
        iterations += 1
        fa, fb = f(a), f(b)
        denom = (x - a) * (fx - fb) - (x - b) * (fx - fa)
        if denom != 0.0:
            v = x - 0.5 * ((x - a) ** 2 * (fx - fb) - (x - b) ** 2 * (fx - fa)) / denom
        else:
            v = math.nan
        if not (a < v < b) or not math.isfinite(v) or abs(v - x) < 0.1 * tol:
            golden += 1
            v = a + _INVPHI * (b - a) if x < 0.5 * (a + b) else b - _INVPHI * (b - a)
        fv = f(v)
        if fv < fx:
            if v < x:
                b = x
            else:
                a = x
            x, fx = v, fv
        else:
            if v < x:
                a = v
            else:
                b = v
    return x, iterations, golden


H_SCAN = 1.0 / 8192  # the extrema scan's grid step on a unit period
T_TRIG = (math.pi - 0.3) / (2.0 * math.pi)  # minimum of cos(2 pi t + 0.3)
T_KINK = 0.3141592653589793

# (f, left, mid, right): a grid winner and its two neighbours, as the extrema scan passes them
BRACKETS = {
    "smooth-trig": (
        lambda t: 1.54215 + 0.002097 * math.cos(2.0 * math.pi * t + 0.3),
        *(round(T_TRIG / H_SCAN) * H_SCAN + k * H_SCAN for k in (-1, 0, 1)),
    ),
    "kinked": (
        lambda t: abs(t - T_KINK),
        *(round(T_KINK / H_SCAN) * H_SCAN + k * H_SCAN for k in (-1, 0, 1)),
    ),
    "flat": (lambda t: 2.0, 0.5 - H_SCAN, 0.5, 0.5 + H_SCAN),
    # the parabola through the three points has its vertex on the left end,
    # outside the open bracket, so the first step is a golden-section step
    "vertex-outside": (lambda t: t * t, 0.0, 0.9, 1.0),
}


def zoom_one(f, left, mid, right, tol=1e-12):
    """zoom_minima on one bracket of a scalar f; returns (t, v, sizes of the f calls)."""
    sizes = []

    def vectorized(ts):
        sizes.append(len(ts))
        return np.array([f(float(x)) for x in ts])

    t, v = zoom_minima(vectorized, np.array([left]), np.array([right]), [mid], [f(mid)], tol, [1.0])
    return float(t[0]), float(v[0]), sizes


def rounds_bound(width, tol):
    """Rounds a bracket of this width needs when each round shrinks it K-fold."""
    return math.ceil(math.log(width / tol) / math.log(ZOOM_POINTS))


class TestZoomMinima:
    @pytest.mark.parametrize("case", sorted(BRACKETS))
    def test_no_worse_than_parabolic_reference(self, case):
        f, left, mid, right = BRACKETS[case]
        t, v, sizes = zoom_one(f, left, mid, right)
        ref = f(three_call_parabolic_min(f, left, mid, right, 1e-12)[0])
        assert v == f(t)
        assert left <= t <= right
        assert v <= ref + 2.0 * math.ulp(ref)
        assert 0 < len(sizes) <= rounds_bound(right - left, 1e-12)
        assert set(sizes) == {2 * ZOOM_POINTS + 1}

    @pytest.mark.parametrize("case", ["kinked", "vertex-outside"])
    def test_argmin_within_tol_of_reference_where_f_resolves_t(self, case):
        f, left, mid, right = BRACKETS[case]
        t, _, _ = zoom_one(f, left, mid, right)
        x = three_call_parabolic_min(f, left, mid, right, 1e-12)[0]
        assert abs(t - x) <= 2e-12

    def test_smooth_argmin_inside_the_rounding_flat_band(self):
        # near a smooth minimum f is flat to rounding over |t - t*| <= w, where
        # (f''/2) w^2 = 2 ulp(f); any point there is as good as any other
        f, left, mid, right = BRACKETS["smooth-trig"]
        curvature = 0.002097 * (2.0 * math.pi) ** 2
        w = math.sqrt(4.0 * math.ulp(1.54215) / curvature)
        t, _, _ = zoom_one(f, left, mid, right)
        x = three_call_parabolic_min(f, left, mid, right, 1e-12)[0]
        assert abs(t - T_TRIG) <= w
        assert abs(x - T_TRIG) <= w

    def test_calls_per_batch_are_bounded_by_the_rounds(self):
        # 300 grid-cell brackets of one cosine share each round's call of f
        sizes = []

        def f(ts):
            sizes.append(len(ts))
            return np.cos(2.0 * np.pi * ts + 0.3)

        centres = np.arange(300) * 27 * H_SCAN
        t, v = zoom_minima(f, centres - H_SCAN, centres + H_SCAN, centres, f(centres), 1e-12, np.ones(300))
        sizes = sizes[1:]  # the first call above gave the starting values
        assert len(sizes) <= rounds_bound(2.0 * H_SCAN, 1e-12) == 5
        assert set(sizes) == {300 * (2 * ZOOM_POINTS + 1)}
        assert np.all(v <= np.cos(2.0 * np.pi * centres + 0.3))
        assert np.array_equal(v, np.cos(2.0 * np.pi * t + 0.3))

    @pytest.mark.parametrize(
        "n_low, n_high, low_width, high_width",
        [
            (3, 3, 2e-9, 2.0 * H_SCAN),  # minima done after 2 rounds, maxima after 5
            (3, 3, 2.0 * H_SCAN, 2e-9),
            (600, 40, 2.0 * H_SCAN, 2e-9),  # two groups of minima, then one of maxima
            (1, 1100, 2.0 * H_SCAN, 2.0 * H_SCAN),
        ],
    )
    def test_signs_refine_as_their_own_calls(self, n_low, n_high, low_width, high_width):
        # minima of f and of -f in one call: each sign's brackets get the
        # rounds that a call with that sign alone gives them, bit for bit
        def f(ts):
            return np.cos(2.0 * np.pi * 3.0 * ts + 0.3)

        rng = np.random.default_rng(n_low + n_high)
        centres = rng.uniform(0.0, 1.0, n_low + n_high)
        width = np.repeat([low_width, high_width], [n_low, n_high])
        sign = np.repeat([1.0, -1.0], [n_low, n_high])
        left, right = centres - width / 2.0, centres + width / 2.0
        sizes, low_sizes, high_sizes = [], [], []
        t, v = zoom_minima(
            lambda ts: sizes.append(len(ts)) or f(ts), left, right, centres, sign * f(centres), 1e-12, sign
        )
        lo = slice(0, n_low)
        hi = slice(n_low, None)
        lows = zoom_minima(
            lambda ts: low_sizes.append(len(ts)) or f(ts),
            left[lo], right[lo], centres[lo], f(centres[lo]), 1e-12, np.ones(n_low),
        )
        highs = zoom_minima(
            lambda ts: high_sizes.append(len(ts)) or -f(ts),
            left[hi], right[hi], centres[hi], -f(centres[hi]), 1e-12, np.ones(n_high),
        )
        assert t.tobytes() == np.concatenate([lows[0], highs[0]]).tobytes()
        assert v.tobytes() == np.concatenate([lows[1], highs[1]]).tobytes()
        assert max(sizes) <= ZOOM_MAX_POINTS
        if n_low + n_high <= ZOOM_MAX_POINTS // (2 * ZOOM_POINTS + 1):
            # one call of f per round while both signs need rounds, then the slower sign's alone
            fast, slow = sorted([low_sizes, high_sizes], key=len)
            assert len(fast) < len(slow)
            assert sizes == [x + y for x, y in zip(slow, fast)] + slow[len(fast) :]

    @given(
        st.lists(
            st.tuples(
                st.floats(-1.0, 1.0), st.integers(1, 6), st.floats(0.0, 2.0 * math.pi)
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 8191),
    )
    def test_no_worse_on_random_trig_brackets(self, terms, i):
        def f(t):
            return sum(a * math.cos(2.0 * math.pi * k * t + p) for a, k, p in terms)

        left, mid, right = (i - 1) * H_SCAN, i * H_SCAN, (i + 1) * H_SCAN
        t, v, _ = zoom_one(f, left, mid, right)
        ref = f(three_call_parabolic_min(f, left, mid, right, 1e-12)[0])
        # f rounds on the scale of its largest term, not of its value
        scale = max(abs(ref), sum(abs(a) for a, _, _ in terms))
        assert v == f(t)
        assert v <= ref + 2.0 * math.ulp(scale)


class TestSortedUnique:
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-300, -3.0, 7.5]), min_size=1))
    def test_equal_to_np_unique(self, values):
        arr = np.asarray(values, dtype=float)
        out = sorted_unique(arr)
        expected = np.unique(arr)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
