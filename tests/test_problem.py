import math

import numpy as np
import pytest

from liebau import greens
from liebau.errors import BadPeriod, LiebauError, NegativeState
from liebau.funcspec import PeriodicFunction
from liebau.problem import (
    GeneralProblem,
    LiebauProblem,
    PhysicalConfig,
    deregularize,
    from_physical,
    regularize,
    shifted_rhs,
)


def constant_forcing_problem(e_value=1.54, c=1.49, mu=0.01, a=1.6, T=1.0):
    return LiebauProblem(a, mu, c, T, PeriodicFunction.constant(T, e_value))


class TestFromPhysical:
    def test_junction_coefficient_to_exponent(self):
        cfg = PhysicalConfig(
            r0=0.5, rho=1.0, zeta=1.0, g=9.8, a_tau=0.98, a_pi=0.01, v0=2.0,
            p=PeriodicFunction.constant(1.0, 0.0),
        )
        lp = from_physical(cfg)
        assert lp.b == pytest.approx(1.5, rel=1e-15)
        assert lp.mu == pytest.approx(0.4, rel=1e-15)
        assert lp.c == pytest.approx(0.1, rel=1e-12)

    def test_zero_friction(self):
        cfg = PhysicalConfig(
            r0=0.0, rho=2.0, zeta=2.0, g=9.8, a_tau=1.0, a_pi=0.1, v0=1.0,
            p=PeriodicFunction.trig(2.0, 0.0, [(1.0, 1, 0.0)]),
        )
        lp = from_physical(cfg)
        assert lp.a == 0.0
        # e = g v0 / A_tau - p / rho
        assert lp.e(0.0) == pytest.approx(9.8 - 0.5, rel=1e-12)
        assert lp.e.mean() == pytest.approx(9.8, rel=1e-12)

    def test_invalid_zeta(self):
        with pytest.raises(LiebauError):
            PhysicalConfig(
                r0=0.0, rho=1.0, zeta=0.5, g=9.8, a_tau=1.0, a_pi=0.1, v0=1.0,
                p=PeriodicFunction.constant(1.0, 0.0),
            )


class TestRegularize:
    def test_exponents(self):
        gp = regularize(constant_forcing_problem(mu=0.01))
        assert gp.alpha == pytest.approx(0.98, rel=1e-15)
        assert gp.beta == pytest.approx(0.99, rel=1e-15)

    def test_s_is_c_over_mu(self):
        gp = regularize(constant_forcing_problem(c=1.49, mu=0.01))
        assert gp.s(0.3) == pytest.approx(149.0, rel=1e-13)

    def test_b_two_gives_thirds(self):
        lp = LiebauProblem.from_b(0.0, 2.0, 0.1, 2 * math.pi,
                                  PeriodicFunction.constant(2 * math.pi, 1.0))
        assert lp.mu == pytest.approx(1.0 / 3.0, rel=1e-15)
        gp = regularize(lp)
        assert gp.alpha == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert gp.beta == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_roundtrip_identity(self):
        lp = constant_forcing_problem(e_value=1.54, c=1.49, mu=0.01)
        back = deregularize(regularize(lp))
        assert back.a == lp.a
        assert back.T == lp.T
        assert back.mu == pytest.approx(lp.mu, rel=1e-15)
        assert back.c == pytest.approx(lp.c, rel=1e-15)
        assert back.e(0.123) == pytest.approx(lp.e(0.123), rel=1e-15)

    def test_deregularize_rejects_non_liebau(self):
        gp = GeneralProblem(
            a=0.0, T=1.0,
            r=PeriodicFunction.constant(1.0, 1.0),
            s=PeriodicFunction.constant(1.0, 1.0),
            alpha=0.2, beta=0.9,
        )
        with pytest.raises(LiebauError):
            deregularize(gp)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_at_construction(self, bad):
        e = PeriodicFunction.constant(1.0, 1.54)
        with pytest.raises(LiebauError, match="finite"):
            LiebauProblem(1.6, 0.01, bad, 1.0, e)
        with pytest.raises(LiebauError, match="finite"):
            LiebauProblem(bad, 0.01, 1.49, 1.0, e)
        with pytest.raises(LiebauError, match="finite"):
            GeneralProblem(a=bad, T=1.0, r=e, s=e, alpha=0.2, beta=0.9)
        with pytest.raises(LiebauError, match="finite"):
            GeneralProblem(a=0.0, T=1.0, r=e, s=e, alpha=0.2, beta=bad)
        with pytest.raises(LiebauError, match="finite"):
            PhysicalConfig(
                r0=0.0, rho=1.0, zeta=1.0, g=9.8, a_tau=1.0, a_pi=0.1, v0=bad,
                p=PeriodicFunction.constant(1.0, 0.0),
            )


class TestCoefficientBound:
    def test_rate_bound_holds_at_its_ends(self):
        T = 1.0 / greens.MAX_RATE
        e = PeriodicFunction.constant(T, 1.54)
        LiebauProblem(greens.MAX_RATE, 0.01, 1.49, T, e)
        GeneralProblem(a=greens.MAX_RATE, T=T, r=e, s=e, alpha=0.2, beta=0.9)
        below = math.nextafter(T, 0.0)
        e_below = PeriodicFunction.constant(below, 1.54)
        with pytest.raises(BadPeriod, match="period T"):
            LiebauProblem(1.6, 0.01, 1.49, below, e_below)
        with pytest.raises(BadPeriod, match="period T"):
            GeneralProblem(a=1.6, T=below, r=e_below, s=e_below, alpha=0.2, beta=0.9)
        with pytest.raises(LiebauError, match="friction coefficient a"):
            LiebauProblem(math.nextafter(greens.MAX_RATE, math.inf), 0.01, 1.49, T, e)


class TestShiftedRhs:
    def test_zero_state(self):
        gp = regularize(constant_forcing_problem())
        assert shifted_rhs(gp, 0.7, 0.1, 0.0) == 0.0
        assert shifted_rhs(gp, 2.0, 0.9, 0.0) == 0.0

    def test_constant_forcing_fixed_point(self):
        # at x = (e/c)^(1/mu) the non-shift terms cancel, leaving m^2 x
        gp = regularize(constant_forcing_problem(e_value=1.54, c=1.49, mu=0.01))
        x_star = (1.54 / 1.49) ** 100
        assert x_star == pytest.approx(27.1297, abs=1e-3)
        val = shifted_rhs(gp, 0.7, 0.0, x_star)
        assert val == pytest.approx(0.49 * x_star, rel=1e-10)
        assert val == pytest.approx(13.2936, abs=2e-3)

    def test_plain_arithmetic(self):
        gp = GeneralProblem(
            a=0.0, T=1.0,
            r=PeriodicFunction.constant(1.0, 0.0),
            s=PeriodicFunction.constant(1.0, 1.0),
            alpha=0.25, beta=0.5,
        )
        # -1 * 4^0.5 + 1 * 4 = 2
        assert shifted_rhs(gp, 1.0, 0.0, 4.0) == pytest.approx(2.0, rel=1e-15)

    def test_shift_structure(self):
        gp = regularize(constant_forcing_problem())
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(0, 1)
            x = rng.uniform(0, 50)
            base = shifted_rhs(gp, 0.3, t, x) - 0.09 * x
            other = shifted_rhs(gp, 1.7, t, x) - 1.7**2 * x
            assert base == pytest.approx(other, rel=1e-10, abs=1e-12)

    def test_negative_state_rejected(self):
        gp = regularize(constant_forcing_problem())
        with pytest.raises(NegativeState):
            shifted_rhs(gp, 0.7, 0.0, -1e-9)
