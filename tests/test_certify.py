import math

import numpy as np
import pytest

from liebau import certify, greens
from liebau.certify import (
    CheckOptions,
    check_general,
    check_legacy_criterion,
    check_necessary,
    check_positive_forcing,
    check_sign_changing,
    search_certificate,
)
from liebau.errors import BadRadii, InapplicableCriterion, KappaNonpositive, MOutOfRange
from liebau.funcspec import PeriodicFunction
from liebau.numerics import dump_json
from liebau.problem import LiebauProblem, regularize

# quadrature tolerance for response margins that are exactly zero analytically
QUAD_EPS = -1e-9


class TestSignChanging:
    def test_certified_tuple_passes(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, m=0.7, kappa=2200.0, r1=25.0, r2=1e4)
        assert cert.passed
        assert cert.cone_const == pytest.approx(0.94144, abs=1e-4)
        assert cert.kernel_diag == pytest.approx(1.96026, abs=1e-4)

    def test_root_clearance_arithmetic(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        c1 = cert.condition("root_clearance")
        mu, c, m, e_min = 0.01, 0.005, 0.7, -0.00005
        rhs = (c + math.sqrt(c * c - 4 * mu * m * m * e_min)) / (2 * mu * m * m)
        assert c1.rhs == pytest.approx(rhs, rel=1e-12)
        assert c1.lhs == pytest.approx((cert.cone_const * 25.0) ** mu, rel=1e-12)
        assert c1.satisfied

    def test_kappa_power_value(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        c2 = cert.condition("kappa_upper")
        assert c2.lhs == pytest.approx(22.095, abs=2e-3)
        assert c2.rhs == pytest.approx(22.0, rel=1e-12)
        assert c2.satisfied

    def test_ceiling_clearance_is_tight(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        c4 = cert.condition("ceiling_clearance")
        # oracle: c * R2^mu in full precision
        assert c4.rhs == pytest.approx(0.005 * 1e4**0.01, rel=1e-15)
        assert c4.margin > 0.0
        assert c4.relative_margin < 1e-5

    def test_kappa_interval_contains_choice(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        lo = cert.extras["kappa_interval_lower"]
        hi = cert.extras["kappa_interval_upper"]
        assert lo <= 2200.0 <= hi
        assert lo == pytest.approx(2191.1, abs=0.5)
        assert hi == pytest.approx(2209.5, abs=0.5)

    def test_fails_outside_kappa_interval(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, 0.7, 2500.0, 25.0, 1e4)
        assert not cert.passed
        assert not cert.condition("kappa_upper").satisfied

    def test_parameter_validation(self, trapezoid_lp):
        with pytest.raises(KappaNonpositive):
            check_sign_changing(trapezoid_lp, 0.7, 0.0, 25.0, 1e4)
        with pytest.raises(BadRadii):
            check_sign_changing(trapezoid_lp, 0.7, 2200.0, 1e4, 25.0)
        with pytest.raises(MOutOfRange):
            check_sign_changing(trapezoid_lp, 3.3, 2200.0, 25.0, 1e4)

    def test_root_clearance_inapplicable_for_positive_forcing(self, narrowband_lp):
        cert = check_sign_changing(narrowband_lp, 0.7, 100.0, 1.0, 50.0)
        c1 = cert.condition("root_clearance")
        assert not c1.applicable
        assert c1.satisfied


class TestPositiveForcing:
    def test_narrowband_instance(self, narrowband_lp):
        cert = check_positive_forcing(narrowband_lp, m=0.7)
        assert cert.passed
        c6 = cert.condition("shift_lower")
        assert c6.lhs == pytest.approx(0.2884, abs=1e-3)
        assert c6.rhs == pytest.approx(0.49, rel=1e-12)
        assert cert.extras["e_max_threshold"] == pytest.approx(1.5443, abs=1e-3)
        assert cert.extras["bound_at_threshold"] == pytest.approx(38.0844, abs=1e-2)

    def test_cosine_instance_passes(self, cosine_lp):
        cert = check_positive_forcing(cosine_lp, m=0.7)
        assert cert.passed
        # ceiling (1/c_m)(e_max/c)^(1/mu); e_max = 1.544247 stays below the
        # threshold 1.5443... so the criterion still certifies it
        assert cert.extras["forcing_max"] == pytest.approx(1.544247, abs=1e-9)
        assert cert.r2 == pytest.approx((1.544247 / 1.49) ** 100 / cert.cone_const, rel=1e-6)
        assert cert.r2 < 38.0844

    def test_threshold_solves_equality(self, narrowband_lp):
        # plugging the threshold back as e_max makes shift_lower an equality
        cert = check_positive_forcing(narrowband_lp, 0.7)
        thr = cert.extras["e_max_threshold"]
        mu, c = 0.01, 1.49
        e_min = cert.extras["forcing_min"]
        lhs = (c * c / (mu * e_min**2)) * (thr / cert.cone_const**mu - e_min)
        assert lhs == pytest.approx(0.49, rel=1e-12)

    def test_inapplicable_for_sign_changing(self, trapezoid_lp):
        cert = check_positive_forcing(trapezoid_lp, m=0.7)
        assert cert.verdict == certify.VERDICT_INAPPLICABLE

    def test_inner_radius_supports_envelope(self, cosine_lp):
        cert = check_positive_forcing(cosine_lp, 0.7)
        assert cert.r1 is not None and 0 < cert.r1 < cert.r2
        # the defining inequality holds with near-equality at r1
        cm, mu, c = cert.cone_const, 0.01, 1.49
        m, e_min = 0.7, cert.extras["forcing_min"]
        lhs = (1 - cm) * m * m * mu * cert.r1 ** (2 * mu) + c * cert.r1**mu
        assert lhs == pytest.approx(e_min * cm ** (1 - 2 * mu), rel=1e-9)


class TestLegacyCriterion:
    def test_fails_where_certificates_pass(self, narrowband_lp):
        lhs, rhs, ok = check_legacy_criterion(narrowband_lp)
        assert lhs == pytest.approx(36.0406, abs=1e-3)
        assert rhs == pytest.approx(10.5096, abs=1e-3)
        assert not ok

    def test_small_c_satisfies(self):
        lp = LiebauProblem(0.0, 1 / 3, 0.1, 2 * math.pi,
                           PeriodicFunction.constant(2 * math.pi, 0.3))
        lhs, rhs, ok = check_legacy_criterion(lp)
        assert lhs == pytest.approx(0.01 / (4 * (1 / 3) * 0.3), rel=1e-12)
        assert rhs == pytest.approx(0.25, rel=1e-12)
        assert ok

    def test_inapplicable_for_sign_changing(self, trapezoid_lp):
        with pytest.raises(InapplicableCriterion):
            check_legacy_criterion(trapezoid_lp)


class TestNecessary:
    def test_tank_forcing(self, tank_lp):
        ebar, ok = check_necessary(tank_lp(4.0))
        assert ebar == pytest.approx(0.7, abs=1e-14)
        assert ok

    def test_negative_constant(self):
        lp = LiebauProblem(0.0, 0.25, 1.0, 1.0, PeriodicFunction.constant(1.0, -1.0))
        ebar, ok = check_necessary(lp)
        assert ebar == -1.0 and not ok

    def test_trapezoid_mean(self, trapezoid_lp):
        ebar, ok = check_necessary(trapezoid_lp)
        assert ebar == pytest.approx(0.0054796, abs=1e-6)
        assert ok


class TestGeneralChecker:
    def test_constant_envelopes_have_flat_responses(self, trapezoid_lp):
        # g1 = m^2 R2 makes the upper response identically R2 (unit kernel
        # mass), so the max-form margin is zero up to quadrature noise;
        # g0 = m^2 R1 likewise pins the lower responses at R1.
        gp = regularize(trapezoid_lp)
        m, r1, r2 = 0.7, 25.0, 1e4
        g1 = PeriodicFunction.constant(1.0, m * m * r2)
        g0 = PeriodicFunction.constant(1.0, m * m * r1)
        cert = check_general(gp, m, r1, r2, g0, g1, CheckOptions(eps=QUAD_EPS))
        up_max = cert.condition("upper_response_max")
        assert abs(up_max.margin) < 1e-9
        assert up_max.satisfied
        lo_min = cert.condition("lower_response_min")
        assert lo_min.margin == pytest.approx(r1 * (1 - cert.cone_const), rel=1e-6)
        lo_max = cert.condition("lower_response_max")
        assert abs(lo_max.margin) < 1e-9

    def test_soundness_link_from_sign_changing(self, trapezoid_lp):
        # a passing kappa certificate implies the general system with
        # g1 = m^2 R2 and g0 = kappa * e_+
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        assert cert.passed
        gp = regularize(trapezoid_lp)
        g1 = PeriodicFunction.constant(1.0, 0.49 * 1e4)
        g0 = trapezoid_lp.e.positive_part().scale(2200.0)
        gen = check_general(gp, 0.7, 25.0, 1e4, g0, g1, CheckOptions(eps=QUAD_EPS))
        assert gen.passed
        for name in ("nonneg_on_band", "upper_envelope", "upper_response_max",
                     "lower_envelope", "lower_response_min"):
            assert gen.condition(name).satisfied, name

    def test_failing_envelope_detected(self, trapezoid_lp):
        gp = regularize(trapezoid_lp)
        g1 = PeriodicFunction.constant(1.0, 1e-6)  # absurdly small upper envelope
        g0 = PeriodicFunction.constant(1.0, 0.0)
        cert = check_general(gp, 0.7, 25.0, 1e4, g0, g1)
        assert not cert.passed
        assert not cert.condition("upper_envelope").satisfied

    def test_bad_radii(self, trapezoid_lp):
        gp = regularize(trapezoid_lp)
        g = PeriodicFunction.constant(1.0, 1.0)
        with pytest.raises(BadRadii):
            check_general(gp, 0.7, 10.0, 1.0, g, g)


class TestMonotonicity:
    def test_raising_forcing_peak_shrinks_margins(self, narrowband_lp):
        base_pf = check_positive_forcing(narrowband_lp, 0.7)
        base_sc = check_sign_changing(narrowband_lp, 0.7, 100.0, 1.0, 50.0)
        # raise the peak only: offset and amplitude both up by delta/2 keeps
        # the minimum fixed at 1.54 while the maximum gains delta
        bumped = LiebauProblem(
            narrowband_lp.a, narrowband_lp.mu, narrowband_lp.c, narrowband_lp.T,
            PeriodicFunction.trig(1.0, 1.541075 + 2.5e-5, [(0.001075 + 2.5e-5, 1, 0.0)]),
        )
        bump_pf = check_positive_forcing(bumped, 0.7)
        bump_sc = check_sign_changing(bumped, 0.7, 100.0, 1.0, 50.0)
        assert bump_pf.condition("shift_lower").margin < base_pf.condition("shift_lower").margin
        assert (
            bump_sc.condition("ceiling_clearance").margin
            < base_sc.condition("ceiling_clearance").margin
        )


class TestSearch:
    def test_trapezoid_search_finds_certificate(self, trapezoid_lp):
        cert = search_certificate(trapezoid_lp)
        assert cert is not None and cert.passed
        assert cert.theorem == certify.THEOREM_SIGN_CHANGING
        lo = cert.extras["kappa_interval_lower"]
        hi = cert.extras["kappa_interval_upper"]
        assert lo <= cert.kappa <= hi

    def test_cosine_search_finds_certificate(self, cosine_lp):
        cert = search_certificate(cosine_lp)
        assert cert is not None and cert.passed
        assert cert.theorem == certify.THEOREM_POSITIVE_FORCING

    def test_hopeless_problem_returns_none(self):
        lp = LiebauProblem(0.0, 0.25, 1.0, 1.0, PeriodicFunction.constant(1.0, -1.0))
        assert search_certificate(lp) is None

    def test_forcing_scanned_once_per_search(self, cosine_lp, monkeypatch):
        # a fresh forcing equal to the fixture's, so no earlier test has filled its caches
        lp = LiebauProblem(
            cosine_lp.a, cosine_lp.mu, cosine_lp.c, cosine_lp.T,
            PeriodicFunction(cosine_lp.e.period, cosine_lp.e.body),
        )
        scans = []
        scan = PeriodicFunction._scanned_extrema

        def counting(self):
            scans.append(self)
            return scan(self)

        monkeypatch.setattr(PeriodicFunction, "_scanned_extrema", counting)
        cert = search_certificate(lp)
        assert cert is not None and cert.passed
        assert scans == [lp.e]
        assert dump_json(cert.to_dict()) == dump_json(search_certificate(cosine_lp).to_dict())

    def test_deterministic_across_reruns(self, cosine_lp, trapezoid_lp):
        for lp in (cosine_lp, trapezoid_lp):
            first = search_certificate(lp)
            second = search_certificate(lp)
            assert first is not None
            assert dump_json(first.to_dict()) == dump_json(second.to_dict())


class TestSerialization:
    def test_certificate_dict_shape(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        d = cert.to_dict()
        assert d["theorem"] == "sign_changing"
        assert d["verdict"] == "pass"
        assert d["params"]["kappa"] == 2200.0
        assert len(d["conditions"]) == 4
        assert d["localization"]["lower"] == pytest.approx(0.94144 * 25, abs=1e-2)
        names = [c["name"] for c in d["conditions"]]
        assert names == ["root_clearance", "kappa_upper", "kappa_lower", "ceiling_clearance"]
