import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liebau.numerics import (
    cyclic_differences,
    cyclic_fd_operator,
    gmres,
    solve_cyclic_tridiagonal,
    sorted_unique,
    trig_interpolate,
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


class TestSortedUnique:
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-300, -3.0, 7.5]), min_size=1))
    def test_equal_to_np_unique(self, values):
        arr = np.asarray(values, dtype=float)
        out = sorted_unique(arr)
        expected = np.unique(arr)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
