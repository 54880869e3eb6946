import numpy as np
import pytest
from hypothesis import given, strategies as st

from liebau.numerics import cyclic_differences, gmres, solve_cyclic_tridiagonal


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
            d2 / h**2 + a * d1 / (2.0 * h),
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


class TestGmres:
    @staticmethod
    def system(n, seed, spread):
        rng = np.random.default_rng(seed)
        A = np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
        return A, rng.standard_normal(n)

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
        assert len(calls) == 2  # one Arnoldi step and the residual that ends the cycle

    def test_zero_right_hand_side(self):
        u = gmres(lambda v: 2.0 * v, np.zeros(5), 1e-12, 12, 4)
        assert np.array_equal(u, np.zeros(5))

    def test_exhausted_budget_still_lowers_residual(self):
        A, b = self.system(60, 9, 0.9)
        u = gmres(lambda v: A @ v, b, 1e-14, 3, 2)
        res = np.linalg.norm(A @ u - b)
        assert 0.0 < res < np.linalg.norm(b)
