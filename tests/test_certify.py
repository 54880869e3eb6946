import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liebau import certify, funcspec, greens, presets
from liebau.certify import (
    check_general,
    check_legacy_criterion,
    check_necessary,
    check_positive_forcing,
    check_sign_changing,
    search_certificate,
)
from liebau.errors import (
    BadRadii,
    ConfigError,
    InapplicableCriterion,
    KappaNonpositive,
    LiebauError,
    MOutOfRange,
    OutOfFloatRange,
)
from liebau.funcspec import PeriodicFunction
from liebau.numerics import dump_json
from liebau.problem import LiebauProblem, regularize, shifted_rhs


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

    def test_r1_window_and_r2_floor(self, trapezoid_lp):
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        extras, cm, mu = cert.extras, cert.cone_const, trapezoid_lp.mu
        assert extras["r1_window_lower"] < 25.0 < extras["r1_window_upper"]
        # root_clearance is an equality at the floor of the window
        floor = (cm * extras["r1_window_lower"]) ** mu
        assert floor == pytest.approx(cert.condition("root_clearance").rhs, rel=1e-13)
        # and the kappa interval closes at its ceiling
        top = check_sign_changing(trapezoid_lp, 0.7, 1.0, extras["r1_window_upper"], 1e4).extras
        assert top["kappa_interval_lower"] == pytest.approx(top["kappa_interval_upper"], rel=1e-12)
        assert extras["r2_floor"] == pytest.approx((0.00548239 / 0.005) ** 100, rel=1e-13)
        assert extras["r2_floor"] < 1e4

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

    def test_tiny_forcing_minimum_is_out_of_float_range(self):
        # mu e_min^2 underflows to 0, so shift_lower's left side is inf: the
        # search finds nothing, and the checker names the threshold's ceiling
        lp = LiebauProblem(1.6, 0.01, 1.49, 1.0, PeriodicFunction.constant(1.0, 1e-200))
        kernel = greens.build(lp.a, 0.7, lp.T)
        (_, lhs, _, _), _ = certify._shift_sides(lp, kernel.cone_constant, 0.7, kernel.m_max, 1e-200, 1e-200)
        assert lhs == math.inf
        assert search_certificate(lp) is None
        with pytest.raises(OutOfFloatRange, match="bound_at_threshold"):
            check_positive_forcing(lp, 0.7)

    @pytest.mark.parametrize("c", [1e-200, 1e-160])
    def test_tiny_c_is_out_of_float_range(self, c):
        # c^2 underflows to 0 below about 2e-162, where the threshold's term
        # m^2 mu e_min^2 / c^2 is taken as inf (it raised ZeroDivisionError);
        # at 1e-160 it is finite and the threshold's ceiling overflows
        lp = LiebauProblem(1.6, 0.01, c, 1.0, PeriodicFunction.constant(1.0, 1.54))
        with pytest.raises(OutOfFloatRange, match="bound_at_threshold"):
            check_positive_forcing(lp, 0.7)
        with pytest.raises(OutOfFloatRange, match="bound_at_threshold"):
            search_certificate(lp)

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

    def test_tiny_forcing_minimum_is_out_of_float_range(self):
        # mu e_min^2 underflows to 0, so shift_lower's left side is inf: the
        # search finds nothing, and the checker names the threshold's ceiling
        lp = LiebauProblem(1.6, 0.01, 1.49, 1.0, PeriodicFunction.constant(1.0, 1e-200))
        kernel = greens.build(lp.a, 0.7, lp.T)
        (_, lhs, _, _), _ = certify._shift_sides(lp, kernel.cone_constant, 0.7, kernel.m_max, 1e-200, 1e-200)
        assert lhs == math.inf
        assert search_certificate(lp) is None
        with pytest.raises(OutOfFloatRange, match="bound_at_threshold"):
            check_positive_forcing(lp, 0.7)

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
        cert = check_general(gp, m, r1, r2, g0, g1)
        up_max = cert.condition("upper_response_max")
        assert abs(up_max.margin) < 1e-9
        assert up_max.satisfied
        lo_min = cert.condition("lower_response_min")
        assert lo_min.margin == pytest.approx(r1 * (1 - cert.cone_const), rel=1e-6)
        lo_max = cert.condition("lower_response_max")
        assert abs(lo_max.margin) < 1e-9

    @pytest.mark.parametrize("rows", [certify._BAND_BLOCK_ROWS, 1, 7, 10**6])
    @pytest.mark.parametrize("name", ["trapezoid", "cosine"])
    def test_block_minima_equal_full_band_minima(self, name, rows, monkeypatch):
        # the re-check of liebau verify's search-soundness: a constant g1 = m^2 R2
        # and g0 = kappa e_+ (trapezoid) or the constant m^2 R1 (cosine)
        lp = presets.preset(name).problem
        cert = search_certificate(lp)
        gp, m, r1, r2 = regularize(lp), cert.m, cert.r1, cert.r2
        g1 = PeriodicFunction.constant(lp.T, m * m * r2)
        g0 = (lp.e.positive_part().scale(cert.kappa) if cert.kappa is not None
              else PeriodicFunction.constant(lp.T, m * m * r1))
        monkeypatch.setattr(certify, "_BAND_BLOCK_ROWS", rows)
        general = check_general(gp, m, r1, r2, g0, g1)
        cm = general.cone_const
        uniform = np.arange(certify.GENERAL_T_POINTS) * (lp.T / certify.GENERAL_T_POINTS)
        ts = certify._t_grid(uniform, [gp.r, gp.s, g0, g1])
        g0_t, g1_t = g0(ts), g1(ts)

        def band(lo, hi):
            return shifted_rhs(gp, m, ts[:, None], certify._x_grid(lo, hi)[None, :])

        full_band = {
            "nonneg_on_band": float(np.min(band(cm * r1, r2))),
            "upper_envelope": float(np.min(g1_t[:, None] - band(cm * r2, r2))),
            "lower_envelope": min(float(np.min(band(cm * r1, r1) - g0_t[:, None])), float(np.min(g0_t))),
        }
        assert {k: general.condition(k).lhs.hex() for k in full_band} == {
            k: v.hex() for k, v in full_band.items()
        }

    @pytest.mark.parametrize(
        "name, margin", [("trapezoid", 1.1703632916737853e-15), ("cosine", 2.4594038857941626e-16)]
    )
    def test_constant_response_is_the_circular_rules_constant(self, name, margin):
        # search-soundness's g1 = m^2 R2 has response R2 in exact arithmetic,
        # so upper_response_max is a tie that passes on the circular rule's
        # rounding; the trapezoid's kinked g0 puts breakpoints in the envelope
        # grid, which the responses do not see
        lp = presets.preset(name).problem
        cert = search_certificate(lp)
        gp, m, r1, r2 = regularize(lp), cert.m, cert.r1, cert.r2
        g1 = PeriodicFunction.constant(lp.T, m * m * r2)
        g0 = (lp.e.positive_part().scale(cert.kappa) if cert.kappa is not None
              else PeriodicFunction.constant(lp.T, m * m * r1))
        general = check_general(gp, m, r1, r2, g0, g1)
        kernel = greens.build(gp.a, m, gp.T)
        fine = greens.circular_response(kernel, np.full(2 * greens.BASE_PANELS, g1(0.0)))
        assert np.all(fine == fine[0])
        for cond in ("upper_response_min", "upper_response_max"):
            assert general.condition(cond).lhs.hex() == fine[0].hex()
        assert general.condition("upper_response_max").relative_margin == margin

    def test_soundness_link_from_sign_changing(self, trapezoid_lp):
        # a passing kappa certificate implies the general system with
        # g1 = m^2 R2 and g0 = kappa * e_+
        cert = check_sign_changing(trapezoid_lp, 0.7, 2200.0, 25.0, 1e4)
        assert cert.passed
        gp = regularize(trapezoid_lp)
        g1 = PeriodicFunction.constant(1.0, 0.49 * 1e4)
        g0 = trapezoid_lp.e.positive_part().scale(2200.0)
        gen = check_general(gp, 0.7, 25.0, 1e4, g0, g1)
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

    @pytest.mark.parametrize("name", ["g0", "g1"])
    def test_envelope_period_must_be_the_problem_period(self, trapezoid_lp, name):
        # the circular rule of apply_kernel and its h^2/12 term assume T-periodic g
        gp = regularize(trapezoid_lp)
        envelopes = {"g0": PeriodicFunction.constant(1.0, 0.0), "g1": PeriodicFunction.constant(1.0, 0.49e4)}
        envelopes[name] = PeriodicFunction.constant(7.0, envelopes[name](0.0))
        with pytest.raises(LiebauError, match=f"{name} period 7.0 does not match problem period 1.0"):
            check_general(gp, 0.7, 25.0, 1e4, **envelopes)


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


BAD_EPS = [math.inf, math.nan, -math.inf, "x", None, 10**400]


# values that are not real numbers, refused by ConfigError naming the field
NOT_NUMBERS = ["x", None, True, np.bool_(False), 10**400, [1.0]]


class TestBoundaryChecks:
    # every entry point refuses a non-finite eps with the same ConfigError
    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_search_refuses_eps(self, eps, cosine_lp):
        with pytest.raises(ConfigError) as exc:
            search_certificate(cosine_lp, eps=eps)
        assert exc.value.location == "eps"

    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_positive_forcing_refuses_eps(self, eps, cosine_lp):
        with pytest.raises(ConfigError) as exc:
            check_positive_forcing(cosine_lp, 0.7, eps=eps)
        assert exc.value.location == "eps"

    @pytest.mark.parametrize(
        "m, error", [*((m, ConfigError) for m in NOT_NUMBERS), (math.nan, MOutOfRange), (-1.0, MOutOfRange)]
    )
    def test_positive_forcing_refuses_m(self, m, error, cosine_lp):
        with pytest.raises(error) as exc:
            check_positive_forcing(cosine_lp, m)
        if error is ConfigError:
            assert exc.value.location == "m"

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            *(({"eps": eps}, ConfigError) for eps in BAD_EPS),
            ({"kappa": math.inf}, KappaNonpositive),
            ({"kappa": math.nan}, KappaNonpositive),
            ({"kappa": -math.inf}, KappaNonpositive),
            ({"r2": math.inf}, BadRadii),
            ({"r2": math.nan}, BadRadii),
            ({"r1": math.nan}, BadRadii),
            ({"r1": math.inf, "r2": math.inf}, BadRadii),
            ({"r1": -math.inf}, BadRadii),
            *(({k: v}, ConfigError) for k in ("m", "kappa", "r1", "r2") for v in NOT_NUMBERS),
            ({"m": math.nan}, MOutOfRange),
            ({"kappa": 0}, KappaNonpositive),
        ],
    )
    def test_sign_changing_refuses(self, kwargs, error, trapezoid_lp):
        args = {"m": 0.7, "kappa": 2200.0, "r1": 25.0, "r2": 1e4, **kwargs}
        with pytest.raises(error) as exc:
            check_sign_changing(trapezoid_lp, **args)
        if error is ConfigError:
            assert exc.value.location == next(iter(kwargs))

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            *(({"eps": eps}, ConfigError) for eps in BAD_EPS),
            ({"r2": math.inf}, BadRadii),
            ({"r2": math.nan}, BadRadii),
            ({"r1": math.nan}, BadRadii),
            ({"r1": math.inf, "r2": math.inf}, BadRadii),
            *(({k: v}, ConfigError) for k in ("m", "r1", "r2") for v in NOT_NUMBERS),
            *(({g: v}, ConfigError) for g in ("g0", "g1") for v in ("g", 1.0, None)),
            ({"m": math.inf}, MOutOfRange),
        ],
    )
    def test_general_refuses(self, kwargs, error, trapezoid_lp):
        g = PeriodicFunction.constant(1.0, 1.0)
        args = {"m": 0.7, "r1": 25.0, "r2": 1e4, "g0": g, "g1": g, **kwargs}
        with pytest.raises(error) as exc:
            check_general(regularize(trapezoid_lp), **args)
        if error is ConfigError:
            assert exc.value.location == next(iter(kwargs))

    def test_numpy_numbers_are_accepted(self, trapezoid_lp):
        cert = check_sign_changing(
            trapezoid_lp, np.float64(0.7), np.float32(2200.0), np.int64(25), 1e4, eps=np.float64(0.0)
        )
        assert cert.kappa == 2200.0 and cert.r1 == 25


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

    def test_forcing_bisected_once_per_search(self, cosine_lp, monkeypatch):
        # the fixture's cosine plus a zero second term: the same values, from a
        # fresh body that is bisected, so no earlier test has filled its caches
        (amp, k, phase), = cosine_lp.e.body.terms
        e = PeriodicFunction.trig(cosine_lp.e.period, cosine_lp.e.body.offset, [(amp, k, phase), (0.0, 2, 0.0)])
        lp = LiebauProblem(cosine_lp.a, cosine_lp.mu, cosine_lp.c, cosine_lp.T, e)
        calls = []
        extremum = funcspec._extremum

        def counting(f, sign):
            calls.append((f, sign))
            return extremum(f, sign)

        monkeypatch.setattr(funcspec, "_extremum", counting)
        cert = search_certificate(lp)
        assert cert is not None and cert.passed
        assert calls == [(lp.e, 1.0), (lp.e, -1.0)]
        assert dump_json(cert.to_dict()) == dump_json(search_certificate(cosine_lp).to_dict())

    def test_aliased_forcing_is_not_certified_positive(self):
        # harmonic 8191 aliased onto harmonic 1 on the 8192-point scan, which
        # read e_min 0.2168 for a forcing whose minimum is -0.357
        e = PeriodicFunction.trig(
            1.0, 1.0, [(0.8406588551173528, 8191, 6.102007774807954), (0.5166707960555585, 1, 2.5207092162091653)]
        )
        assert e.extrema()[0] < 0.0
        cert = search_certificate(LiebauProblem(a=1.6, mu=0.01, c=0.05, T=1.0, e=e))
        assert cert is None or not (cert.passed and cert.theorem == certify.THEOREM_POSITIVE_FORCING)

    def test_cancelling_terms_are_not_certified_positive(self):
        # 0.95 + cos(2 pi 65536 t + pi/8) as 1000 times the cosine less 999 times it;
        # bounded term by term, the bisection stopped at its cell cap and read e_min +0.026
        e = PeriodicFunction.trig(1.0, 0.95, [(1000.0, 65536, math.pi / 8), (-999.0, 65536, math.pi / 8)])
        assert e.extrema()[0] < 0.0
        cert = check_positive_forcing(LiebauProblem(a=1.6, mu=0.01, c=0.05, T=1.0, e=e), 0.7)
        assert cert.verdict == certify.VERDICT_INAPPLICABLE

    @pytest.mark.parametrize("name", ["cosine_lp", "trapezoid_lp"])
    def test_search_builds_no_kernel(self, name, request, monkeypatch):
        # one kernel_constants pass over the whole grid, whose constants the
        # winner's certificate reuses
        lp = request.getfixturevalue(name)
        builds, passes = [], []
        build, kernel_constants = greens.build, greens.kernel_constants

        def counted(*args):
            builds.append(args)
            return build(*args)

        def counted_pass(a, ms, T):
            passes.append(len(ms))
            return kernel_constants(a, ms, T)

        monkeypatch.setattr(greens, "build", counted)
        monkeypatch.setattr(greens, "kernel_constants", counted_pass)
        cert = search_certificate(lp)
        assert cert is not None and cert.passed
        assert builds == []
        assert passes == [certify.SEARCH_M_POINTS] == [64]

    def test_deterministic_across_reruns(self, cosine_lp, trapezoid_lp):
        for lp in (cosine_lp, trapezoid_lp):
            first = search_certificate(lp)
            second = search_certificate(lp)
            assert first is not None
            assert dump_json(first.to_dict()) == dump_json(second.to_dict())


def two_hundred_step_inner_radius(cm, m, mu, c, e_min, r2):
    """The earlier inner-radius bisection, which always ran all 200 steps."""
    target = e_min * cm ** (1.0 - 2.0 * mu)

    def excess(r):
        return (1.0 - cm) * m * m * mu * r ** (2.0 * mu) + c * r**mu - target

    lo, hi = math.log(r2) - 2000.0, math.log(r2)
    if excess(math.exp(hi)) <= 0.0:
        return math.exp(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(math.exp(mid)) <= 0.0:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


def search_every_m(lp, eps=0.0):
    """The earlier positive route: a full check_positive_forcing at every m of the grid.

    An m whose kernel cannot be built is skipped, as the search does, and so
    is an m whose inner radius underflows (its check raises; the search
    raises too if such an m wins).
    """
    m_max = greens.m_window(lp.a, lp.T)
    k = certify.SEARCH_M_POINTS
    best = None
    for m in m_max * np.linspace(1.0 / (k + 1), k / (k + 1.0), k):
        try:
            greens.build(lp.a, float(m), lp.T)
        except LiebauError:
            continue
        try:
            cert = check_positive_forcing(lp, float(m), eps=eps)
        except OutOfFloatRange:
            continue
        if cert.passed and (best is None or cert.min_relative_margin() > best.min_relative_margin()):
            best = cert
    return best


def same_certificate(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return dump_json(a.to_dict()) == dump_json(b.to_dict())


DEFAULT_GRID_FRACTIONS = np.linspace(1 / 65, 64 / 65, 64)


def coarsen_relative_margins(monkeypatch):
    """Round every relative margin down to a multiple of 1/4, in the one
    definition the checkers and the array ranking share, so that many grid
    points tie for the best score."""
    exact = certify._relative_margin
    monkeypatch.setattr(certify, "_relative_margin", lambda *args: np.floor(4.0 * exact(*args)) / 4.0)


def tied_best_grid_points(lp):
    """Indices of the default m grid whose full check passes with the best score."""
    ms = DEFAULT_GRID_FRACTIONS * greens.m_window(lp.a, lp.T)
    certs = [check_positive_forcing(lp, float(m)) for m in ms]
    best = max(c.min_relative_margin() for c in certs if c.passed)
    return [i for i, c in enumerate(certs) if c.passed and c.min_relative_margin() == best]


def envelope_excess(cm, m, mu, c, e_min, r):
    """The left side minus the right side of the inner-radius inequality, in floats."""
    return (1.0 - cm) * m * m * mu * r ** (2.0 * mu) + c * r**mu - e_min * cm ** (1.0 - 2.0 * mu)


def mpmath_inner_radius(cm, m, mu, c, e_min):
    """The root z^(1/mu) of the quadratic in z = R1^mu, to 50 digits."""
    with mpmath.workdps(50):
        cm, m, mu, c, e_min = (mpmath.mpf(x) for x in (cm, m, mu, c, e_min))
        target = e_min * cm ** (1 - 2 * mu)
        quad = (1 - cm) * m * m * mu
        z = 2 * target / (c + mpmath.sqrt(c * c + 4 * quad * target))
        return z ** (1 / mu)


class TestInnerRadius:
    @given(
        cm=st.floats(1e-3, 1.0, exclude_max=True),
        m=st.floats(1e-3, 20.0),
        mu=st.floats(1e-3, 0.5),
        c=st.floats(1e-3, 10.0),
        e_min=st.floats(1e-3, 10.0),
        r2=st.floats(-200.0, 200.0).map(math.exp),
    )
    # excess(r2) <= 0: R2 itself is the answer
    @example(cm=0.94, m=0.7, mu=0.01, c=1.49, e_min=1.54, r2=1e-30)
    # close to the cosine preset at m = 0.7
    @example(cm=0.9414400495738342, m=0.7, mu=0.01, c=1.49, e_min=1.540053, r2=34.95)
    # the loop is off by 1.28e-14 relative at a root near 1.6e-28, the closed
    # form by 8.5e-16 of the mpmath root
    @example(cm=0.001, m=4.0, mu=0.1953125, c=4.0, e_min=0.001, r2=1.0)
    def test_close_to_two_hundred_step_loop(self, cm, m, mu, c, e_min, r2):
        r1 = certify._envelope_radius(cm, m, mu, c, e_min, r2)
        assert r1 <= r2
        assert envelope_excess(cm, m, mu, c, e_min, r1) <= 0.0
        # z^(1/mu) magnifies the rounding of z, and the float excess is only
        # that sharp, so the two roots agree to 2e-15/mu relative (1e-13 at
        # mu = 0.02, 2e-12 at mu = 1e-3); subnormal roots keep fewer digits
        old = two_hundred_step_inner_radius(cm, m, mu, c, e_min, r2)
        if old < sys.float_info.min:
            return
        bound = 2e-15 / mu
        if abs(r1 - old) > bound * old:
            # The loop bisects log r, whose rounding alone is |log r| ulp of r
            # (1.4e-14 relative near r = 1e-28): there the mpmath root decides,
            # and the loop has to be the side that misses it.
            exact = float(mpmath_inner_radius(cm, m, mu, c, e_min))
            assert abs(r1 - exact) <= bound * exact < abs(old - exact)

    @pytest.mark.parametrize("name", ["cosine_lp", "cubic_lp", "narrowband_lp"])
    def test_equal_to_mpmath_root(self, name, request):
        lp = request.getfixturevalue(name)
        cert = search_certificate(lp)
        e_min = cert.extras["forcing_min"]
        exact = mpmath_inner_radius(cert.cone_const, cert.m, lp.mu, lp.c, e_min)
        assert exact < cert.r2
        assert abs(cert.r1 - exact) <= 1e-13 * exact
        assert envelope_excess(cert.cone_const, cert.m, lp.mu, lp.c, e_min, cert.r1) <= 0.0


class TestSearchRanksOnConditions:
    @pytest.mark.parametrize("name", ["cosine_lp", "cubic_lp", "narrowband_lp"])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_equal_to_full_check_at_every_m(self, name, eps, request):
        lp = request.getfixturevalue(name)
        cert = search_certificate(lp, eps=eps)
        assert cert is not None and cert.passed
        assert same_certificate(cert, search_every_m(lp, eps))

    @pytest.mark.parametrize("name", ["cosine_lp", "cubic_lp", "narrowband_lp"])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_array_scores_equal_the_checker_at_every_m(self, name, eps, request):
        # bit for bit: c_m^mu goes through libm in both (numpy's SIMD power
        # differs by an ulp on some c_m)
        lp = request.getfixturevalue(name)
        e_min, e_max, _, _ = lp.e.extrema()
        ms = DEFAULT_GRID_FRACTIONS * greens.m_window(lp.a, lp.T)
        kc = greens.kernel_constants(lp.a, ms, lp.T)
        scores = certify._positive_scores(lp, kc, ms, e_min, e_max, eps)
        for m, score in zip(ms.tolist(), scores.tolist()):
            cert = check_positive_forcing(lp, m, eps=eps)
            assert score.hex() == (cert.min_relative_margin() if cert.passed else -math.inf).hex()

    def test_strict_eps_excludes_grid_points(self, cosine_lp):
        # eps = 0.05 really changes the ranking input: some m pass only at eps = 0
        ms = greens.m_window(cosine_lp.a, cosine_lp.T) * np.linspace(1 / 65, 64 / 65, 64)
        verdicts = [
            (check_positive_forcing(cosine_lp, float(m)).passed,
             check_positive_forcing(cosine_lp, float(m), eps=0.05).passed)
            for m in ms
        ]
        assert (True, False) in verdicts and (True, True) in verdicts

    def test_tie_keeps_the_earliest_grid_point(self, cosine_lp, monkeypatch):
        coarsen_relative_margins(monkeypatch)
        cert = search_certificate(cosine_lp)
        assert same_certificate(cert, search_every_m(cosine_lp))
        tied = tied_best_grid_points(cosine_lp)
        assert len(tied) > 1
        assert cert.m == DEFAULT_GRID_FRACTIONS[tied[0]] * greens.m_window(cosine_lp.a, cosine_lp.T)

    @given(
        spec=st.one_of(
            st.tuples(st.just("cosine"), st.floats(1.0, 2.0), st.floats(0.0, 0.0021), st.integers(1, 3)),
            st.tuples(st.just("cubic"), st.floats(1.0, 2.0), st.floats(-0.02, 0.02)),
        )
    )
    @settings(max_examples=25)
    def test_equal_to_full_check_on_benchmark_forcings(self, spec):
        # the cosine and cubic forcings of the search-positive benchmark: the
        # array ranking must pick the m that a full check at every m picks
        if spec[0] == "cosine":
            e = PeriodicFunction.trig(1.0, 1.54215, [(spec[2], spec[3], 0.0)])
        else:
            s = spec[2]
            e = PeriodicFunction.poly(1.0, [1.54215, s, -3.0 * s, 2.0 * s])
        lp = LiebauProblem(a=spec[1], mu=0.01, c=1.49, T=1.0, e=e)
        assert same_certificate(search_certificate(lp), search_every_m(lp))

    def test_nothing_passes(self):
        e = PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)])
        lp = LiebauProblem(a=1.6, mu=0.01, c=10.0, T=1.0, e=e)
        assert search_certificate(lp) is None
        assert search_every_m(lp) is None

    def test_unbuildable_m_is_skipped(self):
        # at a = 300 the kernel build raises PropertyViolation on 22 of the 64 grid points
        e = PeriodicFunction.trig(1.0, 1.54215, [(0.002, 1, 0.0)])
        lp = LiebauProblem(a=300.0, mu=0.01, c=1.49, T=1.0, e=e)
        ms = greens.m_window(lp.a, lp.T) * np.linspace(1 / 65, 64 / 65, 64)
        unbuildable = 0
        for m in ms:
            try:
                greens.build(lp.a, float(m), lp.T)
            except LiebauError:
                unbuildable += 1
        assert unbuildable > 0
        cert = search_certificate(lp)
        assert cert is not None and cert.passed
        assert same_certificate(cert, search_every_m(lp))

    @pytest.mark.parametrize("name", ["cosine_lp", "cubic_lp", "narrowband_lp"])
    def test_localizes_the_winner_only(self, name, request, monkeypatch):
        lp = request.getfixturevalue(name)
        counts = {"inner_radius": 0, "core": 0}
        inner_radius, core = certify._envelope_radius, certify._positive_forcing

        def counted_inner_radius(*args):
            counts["inner_radius"] += 1
            return inner_radius(*args)

        def counted_core(*args, **kwargs):
            counts["core"] += 1
            return core(*args, **kwargs)

        monkeypatch.setattr(certify, "_envelope_radius", counted_inner_radius)
        monkeypatch.setattr(certify, "_positive_forcing", counted_core)
        cert = search_certificate(lp)
        assert counts == {"inner_radius": 1, "core": 1}
        again = certify.check_positive_forcing(lp, cert.m)
        assert same_certificate(cert, again)
        assert counts == {"inner_radius": 2, "core": 2}


def trapezoid(a: float, plateau: float) -> LiebauProblem:
    e = PeriodicFunction.piecewise_linear(
        [(0.0, -0.00005), (0.0005, plateau), (0.9995, plateau), (1.0, -0.00005)]
    )
    return LiebauProblem(a=a, mu=0.01, c=0.005, T=1.0, e=e)


# sign-changing problems with the smallest radius of the grid their oracles
# scan: three trapezoids from the corners and the middle of the benchmark's
# box, and a cosine with minimum -5e-5, whose R1 lies far below the old
# default grid of 48 radii from 1e-6 to 1e8
SIGN_PROBLEMS = {
    "trapezoid_1.4": (trapezoid(1.4, 0.0050), 1e-6),
    "trapezoid_1.6": (trapezoid(1.6, 0.0054), 1e-6),
    "trapezoid_1.8": (trapezoid(1.8, 0.0058), 1e-6),
    "trig": (
        LiebauProblem(1.6, 0.01, 0.005, 1.0, PeriodicFunction.trig(1.0, 0.0027, [(0.00275, 1, 0.0)])),
        1e-60,
    ),
}


def old_grid(radius_lo=1e-6, radius_hi=1e8, points=48):
    """The radius grid the search scanned before it took the radii in closed form."""
    return np.geomspace(radius_lo, radius_hi, points).tolist()


def hand_written_sign_scan(lp, eps, radii):
    """The earlier sign-changing route on the grid ``radii``, with the four
    inequalities written out by hand.

    A tuple counts when each relative margin is at least eps, and every R2
    below the floor (e_max/c)^(1/mu) is skipped.
    """
    e_min, e_max, _, _ = lp.e.extrema()
    m_max = greens.m_window(lp.a, lp.T)
    k = certify.SEARCH_M_POINTS
    ms = m_max * np.linspace(1.0 / (k + 1), k / (k + 1.0), k)
    epos_mass = lp.e.positive_part().mean() * lp.T
    mu, c = lp.mu, lp.c
    r2_floor = (e_max / c) ** (1.0 / mu)
    winner = None
    for m in ms:
        try:
            kernel = greens.build(lp.a, float(m), lp.T)
        except LiebauError:
            continue
        cm, k0 = kernel.cone_constant, kernel.k0
        root_rhs = (c + math.sqrt(c * c - 4.0 * mu * m * m * e_min)) / (2.0 * mu * m * m)
        for r1 in radii:
            y1 = cm * r1
            margin1 = y1**mu - root_rhs
            kappa_lo = y1 / (k0 * epos_mass)
            kappa_hi = y1 ** (1.0 - 2.0 * mu) / mu
            if kappa_lo > kappa_hi:
                continue
            kappa = math.sqrt(kappa_lo * kappa_hi)
            margin2 = y1 ** (1.0 - 2.0 * mu) - kappa * mu
            margin3 = k0 * epos_mass - y1 / kappa
            common = min(
                margin1 / max(y1**mu, root_rhs),
                margin2 / max(y1 ** (1.0 - 2.0 * mu), kappa * mu),
                margin3 / max(k0 * epos_mass, y1 / kappa),
            )
            if common < eps:
                continue
            for r2 in radii:
                if r2 <= r1 or r2 < r2_floor:
                    continue
                score = min(common, (c * r2**mu - e_max) / max(abs(e_max), c * r2**mu))
                if score < eps:
                    continue
                if winner is None or score > winner[0]:
                    winner = (score, float(m), float(r1), kappa, float(r2))
    if winner is None:
        return None
    _, m, r1, kappa, r2 = winner
    cert = check_sign_changing(lp, m, kappa, r1, r2, eps=eps)
    return cert if cert.passed else None


def brute_force_sign(lp, eps, radii):
    """The best check_sign_changing over every (m, R1, geometric-mid kappa, R2)
    with m on the search's grid and R1 < R2 on ``radii``."""
    m_max = greens.m_window(lp.a, lp.T)
    k = certify.SEARCH_M_POINTS
    best = None
    for m in (m_max * np.linspace(1.0 / (k + 1), k / (k + 1.0), k)).tolist():
        for i, r1 in enumerate(radii[:-1]):
            extras = check_sign_changing(lp, m, 1.0, r1, radii[-1]).extras
            # as the search takes it, which keeps tiny products from underflowing
            kappa = math.sqrt(extras["kappa_interval_lower"]) * math.sqrt(extras["kappa_interval_upper"])
            for r2 in radii[i + 1:]:
                cert = check_sign_changing(lp, m, kappa, r1, r2, eps=eps)
                if cert.passed and (
                    best is None or cert.min_relative_margin() > best.min_relative_margin()
                ):
                    best = cert
    return best


def assert_sound_sign_certificate(lp, cert, eps):
    """A passing sign-changing certificate whose every relative margin meets
    eps, and that the public checker reproduces byte for byte."""
    assert cert is not None and cert.passed
    assert cert.theorem == certify.THEOREM_SIGN_CHANGING
    assert all(cc.relative_margin >= eps for cc in cert.conditions)
    again = check_sign_changing(lp, cert.m, cert.kappa, cert.r1, cert.r2, eps=eps)
    assert same_certificate(cert, again)


class TestSignSearchRanksOnConditions:
    # the old grid does not hold the winner's radii, so its best tuple is
    # only a lower bound
    @pytest.mark.parametrize("eps", [1e-6, 1e-4])
    @pytest.mark.parametrize("name", ["preset", *SIGN_PROBLEMS])
    def test_at_least_the_hand_written_scan(self, name, eps, trapezoid_lp):
        lp, radius_lo = (trapezoid_lp, 1e-6) if name == "preset" else SIGN_PROBLEMS[name]
        cert = search_certificate(lp, eps=eps)
        oracle = hand_written_sign_scan(lp, eps, old_grid(radius_lo))
        if oracle is not None or cert is not None:
            assert_sound_sign_certificate(lp, cert, eps)
        if oracle is not None:
            assert cert.min_relative_margin() >= oracle.min_relative_margin() - 1e-12
            assert same_certificate(cert, search_certificate(lp))

    # with the winner's radii added to the old grid, each oracle's best score
    # is the search's: no grid tuple beats the closed form at any m, so the
    # closed form is at least as good as the old grid
    @pytest.mark.parametrize("eps", [0.0, -1e-9])
    @pytest.mark.parametrize("name", ["preset", *SIGN_PROBLEMS])
    def test_equal_to_hand_written_scan(self, name, eps, trapezoid_lp):
        lp, radius_lo = (trapezoid_lp, 1e-6) if name == "preset" else SIGN_PROBLEMS[name]
        cert = search_certificate(lp, eps=eps)
        assert_sound_sign_certificate(lp, cert, eps)
        oracle = hand_written_sign_scan(lp, eps, sorted(old_grid(radius_lo) + [cert.r1, cert.r2]))
        assert oracle.min_relative_margin() == pytest.approx(cert.min_relative_margin(), abs=1e-12)

    @pytest.mark.parametrize("eps", [-1e-9, 0.0, 1e-6, 1e-4])
    def test_equal_to_brute_force(self, trapezoid_lp, eps, monkeypatch):
        monkeypatch.setattr(certify, "SEARCH_M_POINTS", 8)
        cert = search_certificate(trapezoid_lp, eps=eps)
        assert_sound_sign_certificate(trapezoid_lp, cert, eps)
        oracle = brute_force_sign(trapezoid_lp, eps, sorted(old_grid(points=12) + [cert.r1, cert.r2]))
        assert oracle.min_relative_margin() == pytest.approx(cert.min_relative_margin(), abs=1e-12)

    def test_closed_form_margins_on_the_preset(self, trapezoid_lp):
        # every eps up to the winner's minimum relative margin keeps it (the
        # old grid search read 0.0367 at eps = 0)
        margins = {}
        for eps in (0.0, 1e-12, 1e-6, 1e-4, 0.3):
            cert = search_certificate(trapezoid_lp, eps=eps)
            margins[eps] = round(cert.min_relative_margin(), 4)
        assert set(margins.values()) == {0.3386}
        assert search_certificate(trapezoid_lp, eps=0.34) is None

    def test_optimum_at_the_winning_m(self, trapezoid_lp):
        # at eps = 0 root_clearance and the kappa pair have equal relative
        # margins 1 - sqrt(rho B), and ceiling_clearance matches them
        cert = search_certificate(trapezoid_lp)
        lp = trapezoid_lp
        rho = cert.condition("root_clearance").rhs
        b = math.sqrt(lp.mu / (cert.kernel_diag * cert.extras["positive_forcing_mass"]))
        best = 1.0 - math.sqrt(rho * b)
        for cc in cert.conditions:
            assert cc.relative_margin == pytest.approx(best, rel=1e-12)
        lo, hi = cert.extras["r1_window_lower"], cert.extras["r1_window_upper"]
        assert lo < cert.r1 < hi
        assert cert.extras["r2_floor"] < cert.r2

    def test_found_cosine_passes_with_the_default_options(self):
        # its R1 lies far below the old default grid, which found nothing
        lp = SIGN_PROBLEMS["trig"][0]
        assert hand_written_sign_scan(lp, 0.0, old_grid()) is None
        cert = search_certificate(lp)
        assert_sound_sign_certificate(lp, cert, 0.0)
        assert cert.min_relative_margin() > 0.2
        assert cert.r1 < 1e-60

    def test_strict_eps_keeps_the_eps_zero_winner(self, trapezoid_lp):
        # kappa_upper's sides are about 1e-77, so an absolute eps = 1e-6
        # moved the winner to m = 0.748 with minimum relative margin 0.033
        for eps in (1e-12, 1e-6):
            cert = search_certificate(trapezoid_lp, eps=eps)
            assert_sound_sign_certificate(trapezoid_lp, cert, eps)
            assert (cert.m, cert.min_relative_margin()) == (2.244359078117412, 0.33858029372889176)
            assert cert.condition("kappa_upper").lhs < 1e-76

    def test_no_radius_clears_the_ceiling(self, trapezoid_lp, monkeypatch):
        # ceiling_clearance needs R2 >= (e_max/c)^(1/mu), about 1.0e4, so a
        # grid that stops at 5e3 finds nothing, while the tuple below passes
        # the other three conditions; the closed form sets R2 above that floor
        monkeypatch.setattr(certify, "SEARCH_M_POINTS", 8)
        radii = old_grid(radius_hi=5e3, points=12)
        assert hand_written_sign_scan(trapezoid_lp, 0.0, radii) is None
        assert brute_force_sign(trapezoid_lp, 0.0, radii) is None
        inner = check_sign_changing(trapezoid_lp, 0.7481196927058039, 0.0986, 9.5e-4, 5e3)
        assert [c.satisfied for c in inner.conditions] == [True, True, True, False]
        assert inner.extras["r2_floor"] == pytest.approx(1.0e4, rel=0.01)
        cert = search_certificate(trapezoid_lp)
        assert cert.passed and cert.r2 > cert.extras["r2_floor"]

    @pytest.mark.parametrize("name", ["preset", "trig"])
    def test_checks_the_winner_only(self, name, trapezoid_lp, monkeypatch):
        lp = trapezoid_lp if name == "preset" else SIGN_PROBLEMS[name][0]
        calls = []
        core = certify._sign_changing

        def counted(*args, **kwargs):
            calls.append(args)
            return core(*args, **kwargs)

        monkeypatch.setattr(certify, "_sign_changing", counted)
        cert = search_certificate(lp)
        assert cert is not None and cert.passed
        assert len(calls) == 1


eps_problems = st.one_of(
    st.sampled_from(presets.PRESET_NAMES).map(lambda name: presets.preset(name).problem),
    st.builds(trapezoid, st.floats(1.4, 1.8), st.floats(0.005, 0.0058)),
    # the search-positive benchmark's cosines, and cosines that dip below 0
    st.builds(
        lambda a, amp, k: LiebauProblem(a, 0.01, 1.49, 1.0, PeriodicFunction.trig(1.0, 1.54215, [(amp, k, 0.0)])),
        st.floats(1.0, 2.0), st.floats(0.0, 0.0021), st.integers(1, 3),
    ),
    st.builds(
        lambda a, offset: LiebauProblem(a, 0.01, 0.005, 1.0, PeriodicFunction.trig(1.0, offset, [(0.00275, 1, 0.0)])),
        st.floats(1.4, 1.8), st.floats(0.0026, 0.00274),
    ),
)


class TestRelativeEps:
    """eps is a floor on every relative margin; the closed-form tuple is the best
    at its m whatever eps is, so eps only drops the grid points scoring below it."""

    @settings(max_examples=40)
    @given(lp=eps_problems, below=st.floats(0.0, 1.0), above=st.floats(0.0, 1.0))
    def test_eps_only_drops_grid_points_below_it(self, lp, below, above):
        base = search_certificate(lp)
        if base is None:
            assert search_certificate(lp, eps=max(above, 1e-300)) is None
            return
        s0 = base.min_relative_margin()
        eps = -1e-9 + below * (0.99 * s0 + 1e-9)
        assert same_certificate(search_certificate(lp, eps=eps), base)
        assert search_certificate(lp, eps=math.nextafter(s0, math.inf) * (1.0 + above)) is None

    @given(eps=st.floats(allow_nan=False, allow_infinity=False))
    @example(eps=0.0)
    @example(eps=-1.0)
    def test_forcing_positive_needs_a_positive_minimum_at_every_eps(self, eps):
        for e_min in (0.0, -0.0):
            assert not certify._forcing_gate(e_min, eps).satisfied
        # 1 + cos has minimum exactly 0: inapplicable, even at a negative eps
        lp = LiebauProblem(1.6, 0.01, 1.49, 1.0, PeriodicFunction.trig(1.0, 1.0, [(1.0, 1, 0.0)]))
        cert = check_positive_forcing(lp, 0.7, eps=eps)
        assert cert.extras["forcing_min"] == 0.0
        assert cert.verdict == certify.VERDICT_INAPPLICABLE
        assert not cert.condition("forcing_positive").satisfied


class TestSortedUnique:
    def test_grids_equal_to_np_unique(self, trapezoid_lp):
        gp = regularize(trapezoid_lp)
        extra = [trapezoid_lp.e.positive_part(), PeriodicFunction.constant(1.0, 2.0)]
        pts = list(np.linspace(0.0, gp.T, certify.GENERAL_T_POINTS, endpoint=False))
        for f in [gp.r, gp.s] + extra:
            pts.extend(f.breakpoints())
        # the breakpoints 0 and 1 - 0.0005 sit on or near the uniform points
        assert len(pts) > len(set(pts))
        uniform = np.arange(certify.GENERAL_T_POINTS) * (gp.T / certify.GENERAL_T_POINTS)
        ts = certify._t_grid(uniform, [gp.r, gp.s] + extra)
        assert ts.tobytes() == np.unique(np.asarray(pts, dtype=float)).tobytes()
        for lo, hi in [(0.5, 2.0), (1e-3, 1e-3 * (1 + 1e-15)), (3.0, 3.0)]:
            xs = np.concatenate([np.geomspace(lo, hi, certify.GENERAL_X_POINTS), [lo, hi]])
            assert certify._x_grid(lo, hi).tobytes() == np.unique(xs).tobytes()


class TestSmallMu:
    @pytest.mark.parametrize("level", [1.54215, 1.3])
    def test_positive_check_names_the_quantity(self, level):
        lp = LiebauProblem(1.6, 1e-5, 1.49, 1.0, PeriodicFunction.constant(1.0, level))
        with pytest.raises(OutOfFloatRange, match="beyond float range"):
            check_positive_forcing(lp, 0.7)
        with pytest.raises(OutOfFloatRange, match="bound_at_threshold"):
            search_certificate(lp)

    def test_ceiling_underflow_is_named(self):
        # (1/1.49)^10000 is about 1e-1732, which underflows to 0
        with pytest.raises(OutOfFloatRange, match="localization ceiling R2"):
            certify._ceiling("localization ceiling R2", 1.0, 1.49, 1e-4, 0.94)

    def test_inner_radius_underflow_is_named(self):
        # at a = 300 c_m is tiny for large m, and the inner radius R1
        # lies below the smallest float at grid point 20 of the default 64
        lp = LiebauProblem(300.0, 0.01, 1.49, 1.0, PeriodicFunction.trig(1.0, 1.54215, [(0.002, 1, 0.0)]))
        with pytest.raises(OutOfFloatRange, match="inner radius R1"):
            check_positive_forcing(lp, 48.47216610095481)
        # the search's winner keeps a representable R1
        cert = search_certificate(lp)
        assert cert.passed
        assert (cert.m, cert.r1) == (11.540991928798762, 5.304468747840308e-25)

    def test_sign_route_floor_beyond_range_finds_nothing(self, trapezoid_lp):
        # R1 and R2 leave float range at every m, which the search skips
        # (its log-space arithmetic raises no overflow warning); the checker
        # reports the unreachable bounds as inf
        lp = LiebauProblem(trapezoid_lp.a, 1e-5, trapezoid_lp.c, trapezoid_lp.T, trapezoid_lp.e)
        assert search_certificate(lp) is None
        assert search_certificate(lp, eps=1e-6) is None
        extras = check_sign_changing(lp, 0.7, 1.0, 1.0, 2.0).extras
        assert extras["r2_floor"] == extras["r1_window_lower"] == math.inf


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
