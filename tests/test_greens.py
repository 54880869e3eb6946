import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liebau import greens
from liebau.acceptance import _MASS_CASES
from liebau.errors import BadPeriod, LiebauError, MOutOfRange, PropertyViolation
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
        (_, p1, r1), (_, p2, r2) = kernel_example.modes
        assert p1 == p2 == 0
        assert r1.real == pytest.approx(-0.412702, abs=1e-6)
        assert r2.real == pytest.approx(-1.187298, abs=1e-6)
        assert r1.imag == r2.imag == 0.0

    def test_complex_pair(self, kernel_a0):
        # one mode carries the conjugate pair: its root is the one with omega > 0
        assert kernel_a0.case == greens.CASE_COMPLEX_PAIR
        ((_, p, r1),) = kernel_a0.modes
        assert p == 0
        assert r1.real == 0.0
        assert r1.imag == pytest.approx(0.25, abs=1e-15)

    def test_double_root_case(self):
        k = greens.build(2.0, 1.0, 1.0)
        assert k.case == greens.CASE_DOUBLE_ROOT
        (_, p1, r1), (_, p2, r2) = k.modes
        assert (p1, p2) == (0, 1)
        assert r1 == r2 == complex(-1.0, 0.0)

    def test_window_violation(self):
        # m_max^2 = pi^2 + 0.64 = 10.5096..., so m = 3.3 is out
        with pytest.raises(MOutOfRange):
            greens.build(1.6, 3.3, 1.0)
        assert greens.m_window(1.6, 1.0) == pytest.approx(math.sqrt(10.5096044), abs=1e-6)

    def test_root_rounding_to_zero_is_refused_without_a_warning(self):
        # at m = 1e-9 the root -m^2/a rounds e^{lam T} to 1 and K(0) to inf;
        # numpy's divide-by-zero warning must not escape (warnings are errors here)
        with pytest.raises(PropertyViolation, match="K\\(0\\)=inf"):
            greens.build(1.0, 1e-9, 1.0)

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
        # the distinct-roots modes on either side of the double root a = 2 m
        # must agree with the confluent modes at it as the discriminant
        # crosses zero (a moves by about 2.5e-9, K by about as much)
        T = 1.0
        m = 1.0
        taus = np.linspace(0, T, 41)
        confluent = greens.build(2.0 * m, m, T)
        assert confluent.case == greens.CASE_DOUBLE_ROOT
        for sign, case in ((+1.0, greens.CASE_REAL_DISTINCT), (-1.0, greens.CASE_COMPLEX_PAIR)):
            k = greens.build(math.sqrt(4 * m * m + sign * 1e-8), m, T)
            assert k.case == case
            np.testing.assert_allclose(k.at(taus), confluent.at(taus), atol=1e-6)


def mp_kernel_function(a, m, T):
    """tau -> K(tau) in mpmath from the exact roots of lam^2 + a lam + m^2 for
    binary a, m; the confluent formula when a = 2 m exactly.  Call it inside
    mpmath.workdps."""
    a, m, T = mpmath.mpf(a), mpmath.mpf(m), mpmath.mpf(T)
    if a == 2 * m:
        lam = -a / 2
        E = mpmath.exp(lam * T)
        return lambda t: mpmath.exp(lam * t) * (t * (1 - E) + T * E) / (1 - E) ** 2
    sq = mpmath.sqrt(a * a - 4 * m * m)  # imaginary for a complex pair
    l1, l2 = (-a + sq) / 2, (-a - sq) / 2
    return lambda t: mpmath.re(
        (mpmath.exp(l1 * t) / (1 - mpmath.exp(l1 * T)) - mpmath.exp(l2 * t) / (1 - mpmath.exp(l2 * T)))
        / (l1 - l2)
    )


def mp_kernel(a, m, T, taus):
    """K(tau) at 40 digits for binary a, m (see mp_kernel_function)."""
    with mpmath.workdps(40):
        K = mp_kernel_function(a, m, T)
        return np.array([float(K(mpmath.mpf(float(tau)))) for tau in taus])


def mp_constants(a, m, T, t_guess):
    """(t*, K(0), K(t*), c_m) at 40 digits: t* is the zero of K' next to t_guess."""
    with mpmath.workdps(40):
        K = mp_kernel_function(a, m, T)
        t_max = mpmath.findroot(lambda t: mpmath.diff(K, t), mpmath.mpf(t_guess))
        k0, kmax = K(mpmath.mpf(0)), K(t_max)
        return tuple(float(x) for x in (t_max, k0, kmax, k0 / kmax))


# Bounds on kernel_errors, set on the per-root-case formulas that preceded
# the mode list: over the draws of TestKernelAgainstMpmath their largest
# errors were 4.2 (K), 14.7 (t*) and 0.63 (c_m), and over 1000 other draws of
# the same strategy 7.9, 15.2 and 7.9.  The mode list reads 4.1, 1.5 and 0.60,
# and 4.7, 1.1 and 2.6.
KERNEL_ULP_BOUNDS = {"K": 32, "t_max": 64, "cone_constant": 32}


def kernel_errors(a, m, T):
    """Errors of K at 41 tau, K(0) and K(t*) (as "K"), t* and c_m against 40
    digits, in units of eps * cond times kmax, T and 1.

    cond = 1 + max over the roots of |e^{lam T} / (1 - e^{lam T})| is the
    relative change of the kernel's coefficients 1/(1 - e^{lam T}) when
    e^{lam T} moves by one rounding: it grows as lam T nears 0.
    """
    k = greens.build(a, m, T)
    t_max = float(greens.kernel_constants(a, [m], T).t_max[0])
    taus = np.linspace(0.0, T, 41)
    sq = cmath.sqrt(a * a - 4.0 * m * m)
    cond = 1.0 + max(abs(E / (1.0 - E)) for E in (cmath.exp(T * (-a + r) / 2.0) for r in (sq, -sq)))
    unit = np.finfo(float).eps * cond
    mp_t, mp_k0, mp_kmax, mp_cm = mp_constants(a, m, T, t_max)
    k_err = max(
        float(np.max(np.abs(k.at(taus) - mp_kernel(a, m, T, taus)))),
        abs(k.k0 - mp_k0),
        abs(k.kmax - mp_kmax),
    )
    return {
        "K": k_err / (unit * mp_kmax),
        "t_max": abs(t_max - mp_t) / (unit * T),
        "cone_constant": abs(k.cone_constant - mp_cm) / unit,
    }


class TestKernelAgainstMpmath:
    @given(
        a=st.floats(0.0, 4.0),
        frac=st.floats(0.01, 0.999),
        T=st.floats(0.3, 8.0),
        double=st.booleans(),
    )
    def test_constants_and_values(self, a, frac, T, double):
        # double: m = a/2 exactly, the confluent kernel (for an a whose m keeps
        # the cone, m T >= 0.01); otherwise m covers distinct real roots
        # (m < a/2) and complex pairs (m > a/2)
        m = 0.5 * a if double and a >= 0.1 else frac * greens.m_window(a, T)
        errors = kernel_errors(a, m, T)
        assert all(errors[name] <= bound for name, bound in KERNEL_ULP_BOUNDS.items()), errors


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
        t_max = float(greens.kernel_constants(k.a, [k.m], k.T).t_max[0])
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
        t_max = float(greens.kernel_constants(k.a, [k.m], k.T).t_max[0])
        assert t_max == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("m, T", [(1.0, 1.0), (0.3, 5.0), (1.5, 0.5)])
    def test_cone_constant_continuous_across_discriminant(self, m, T):
        confluent = greens.build(2.0 * m, m, T)
        assert confluent.case == greens.CASE_DOUBLE_ROOT
        for sign, case in ((+1.0, greens.CASE_REAL_DISTINCT), (-1.0, greens.CASE_COMPLEX_PAIR)):
            k = greens.build(math.sqrt(4 * m * m + sign * 1e-8), m, T)
            assert k.case == case
            assert abs(k.cone_constant - confluent.cone_constant) <= 1e-7


# greens._BRANCH_EPS, restated
CONFLUENT_EPS = float(np.finfo(float).eps) ** (2.0 / 3.0)


def one_kernel_constants(a, m, T):
    """(modes, K(0), t*, K(t*)) of one kernel by the closed forms of the
    greens module docstring, restated: the reference for the array pass;
    None where the kernel is refused.

    The modes are two (c, p, lam) triples, a complex pair's conjugate modes
    folded into the first (the second then has c = 0).  Python floats,
    complex numbers and libm throughout, but for numpy's exp, cos and sin of
    the tau-dependent factors of K(t*), as the array pass has them.
    """
    if not 0.0 < m < greens.m_window(a, T):
        return None

    def one_minus_exp(z):  # 1 - e^z without cancellation for Re z <= 0
        e, s = math.exp(z.real), math.sin(0.5 * z.imag)
        return complex(2.0 * s * s * e - math.expm1(z.real), -2.0 * e * s * math.cos(0.5 * z.imag))

    def reciprocal(z):  # a root that rounds to 0 gives an infinite coefficient
        return 1.0 / z if z else complex(math.inf)

    disc = a * a - 4.0 * m * m
    if abs(disc) < CONFLUENT_EPS * 4.0 * m * m:
        lam = complex(-0.5 * a)
        b = reciprocal(one_minus_exp(lam * T))
        modes = ((T * cmath.exp(lam * T) * b * b, 0, lam), (b, 1, lam))
    else:
        half = cmath.sqrt(disc) / 2.0
        l1, l2 = -0.5 * a + half, -0.5 * a - half
        c1 = reciprocal(one_minus_exp(l1 * T) * (l1 - l2))
        if half.imag:
            modes = ((2.0 * c1, 0, l1), (0j, 0, l2))
        else:
            modes = ((c1, 0, l1), (-reciprocal(one_minus_exp(l2 * T) * (l1 - l2)), 0, l2))
    (c1, _, l1), (c2, p2, l2) = modes

    def critical_point():
        if l1.imag:  # one complex mode
            z = c1 * l1
            return math.atan2(z.real, z.imag) % math.pi / l1.imag
        if p2:  # the double root
            return -(c1 / c2).real - 1.0 / l1.real
        return math.log((-c2 * l2 / (c1 * l1)).real) / (l1 - l2).real

    def K(tau):
        total = None
        for c, p, lam in modes:
            if not c:
                continue  # a complex pair's second mode adds 0
            term = np.exp(lam.real * tau)
            if lam.imag:
                term = term * (c.real * np.cos(lam.imag * tau) - c.imag * np.sin(lam.imag * tau))
            else:
                term = term * c.real
            term = term * tau if p else term
            total = term if total is None else total + term
        return float(total)

    with np.errstate(all="ignore"):
        k0 = c1.real + (0.0 if p2 else c2.real)
        t_max = critical_point() if 0.0 < k0 < math.inf else math.nan
        kmax = K(t_max) if 0.0 < t_max < T else math.nan
    return (modes, k0, t_max, kmax) if 0.0 < k0 < kmax else None


def nonzero_modes(modes):
    """A mode list as flat hex strings, without c = 0 modes."""
    return [
        h for c, p, lam in modes if c
        for h in (complex(c).real.hex(), complex(c).imag.hex(), int(p), complex(lam).real.hex(), complex(lam).imag.hex())
    ]


def assert_equal_to_build(a, ms, T):
    """kernel_constants(a, ms, T) equals build(a, m, T) and the scalar
    reference at every m, bit for bit, and its mask is False exactly where they refuse."""
    kc = greens.kernel_constants(a, ms, T)
    assert kc.m_max == greens.m_window(a, T)
    for i, m in enumerate(np.asarray(ms, dtype=float).tolist()):
        reference = one_kernel_constants(a, m, T)
        try:
            k = greens.build(a, m, T)
        except LiebauError:
            assert not kc.ok[i]
            assert reference is None
            assert math.isnan(kc.cone_constant[i])
            continue
        assert kc.ok[i]
        modes, k0, t_max, kmax = reference
        got = [kc.k0[i], kc.t_max[i], kc.kmax[i], kc.cone_constant[i]]
        built = [k.k0, greens.kernel_constants(a, [m], T).t_max[0], k.kmax, k.cone_constant]
        want = [k0, t_max, kmax, k0 / kmax]
        hexes = [[float(x).hex() for x in row] for row in (got, built, want)]
        assert hexes[0] == hexes[1] == hexes[2]
        mine = zip(*(x[:, i] for x in kc.modes))
        assert nonzero_modes(mine) == nonzero_modes(k.modes) == nonzero_modes(modes)


DEFAULT_GRID_FRACTIONS = np.linspace(1 / 65, 64 / 65, 64)


class TestKernelConstants:
    @given(
        a=st.floats(0.0, 300.0),
        fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=8),
        T=st.floats(0.1, 10.0),
    )
    def test_equal_to_build_bit_for_bit(self, a, fracs, T):
        assert_equal_to_build(a, np.array(fracs) * greens.m_window(a, T), T)

    @pytest.mark.parametrize("a", [0.5, 1.6, 2.0, 7.0])
    @pytest.mark.parametrize("T", [1.0, 2 * math.pi])
    def test_double_root(self, a, T):
        # m = a/2 and m within the confluent branch of it, among distinct-root neighbours
        above = 0.5 * (0.5 * a + greens.m_window(a, T))  # between a/2 and m_max
        ms = np.array([0.25 * a, 0.5 * a * (1.0 - 1e-12), 0.5 * a, 0.5 * a * (1.0 + 1e-12), above])
        kc = greens.kernel_constants(a, ms, T)
        names = [greens.build(a, m, T).case for m in ms.tolist()]
        assert names == [greens.CASE_REAL_DISTINCT] + [greens.CASE_DOUBLE_ROOT] * 3 + [
            greens.CASE_COMPLEX_PAIR
        ]
        assert kc.ok.all()
        assert_equal_to_build(a, ms, T)

    @pytest.mark.parametrize("T", [0.1, 1.0, 2 * math.pi, 10.0])
    def test_zero_friction_grid(self, T):
        ms = DEFAULT_GRID_FRACTIONS * greens.m_window(0.0, T)
        kc = greens.kernel_constants(0.0, ms, T)
        assert kc.ok.all()
        assert {greens.build(0.0, m, T).case for m in ms.tolist()} == {greens.CASE_COMPLEX_PAIR}
        assert_equal_to_build(0.0, ms, T)

    def test_mask_is_where_build_refuses(self):
        # at a = 300 the build raises PropertyViolation on 22 of the 64 grid points
        ms = DEFAULT_GRID_FRACTIONS * greens.m_window(300.0, 1.0)
        refused = []
        for i, m in enumerate(ms.tolist()):
            try:
                greens.build(300.0, m, 1.0)
            except PropertyViolation:
                refused.append(i)
        assert len(refused) == 22
        kc = greens.kernel_constants(300.0, ms, 1.0)
        assert np.flatnonzero(~kc.ok).tolist() == refused
        assert_equal_to_build(300.0, ms, 1.0)

    def test_m_outside_the_window_is_masked(self):
        m_max = greens.m_window(1.6, 1.0)
        ms = np.array([0.0, -1.0, m_max, 2.0 * m_max, math.inf, math.nan, 0.7])
        kc = greens.kernel_constants(1.6, ms, 1.0)
        assert kc.ok.tolist() == [False] * 6 + [True]
        assert_equal_to_build(1.6, ms, 1.0)

    def test_bad_coefficients_raise_as_build_does(self):
        with pytest.raises(BadPeriod):
            greens.kernel_constants(1.0, [0.5], 0.0)
        with pytest.raises(LiebauError):
            greens.kernel_constants(-1.0, [0.5], 1.0)

    def test_empty_grid(self):
        kc = greens.kernel_constants(1.6, [], 1.0)
        assert kc.ok.shape == kc.cone_constant.shape == (0,)


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


def dense_mass_deviation(kernel) -> float:
    """max over the 64 rows t = jT/64 of |integral_0^T G(t, s) ds - 1/m^2|, each row
    a Simpson integral in s with a panel break at t."""
    T, m = kernel.T, kernel.m
    dev = 0.0
    for t in np.linspace(0.0, T, 65)[:-1].tolist():
        row = simpson_segmented(lambda s: kernel.green(t, s), 0.0, T, splits=[t], base_panels=1024)
        dev = max(dev, abs(row - 1.0 / (m * m)))
    return dev


def dense_grid_facts(kernel) -> tuple[float, float]:
    """(min G, worst relative violation of G >= K(0) >= c_m G) over the full
    PROPERTY_GRID x PROPERTY_GRID matrix G(t_i, t_j), t_i = i T / PROPERTY_GRID."""
    ts = np.linspace(0.0, kernel.T, greens.PROPERTY_GRID, endpoint=False)
    G = kernel.green(ts[:, None], ts[None, :])
    k0, cm = kernel.k0, kernel.cone_constant
    lower = float(np.max((k0 - G) / k0))
    upper = float(np.max((cm * G - k0) / k0))
    return float(G.min()), max(lower, upper, 0.0)


def _report(kernel) -> greens.KernelReport:
    try:
        return greens.verify_properties(kernel)
    except PropertyViolation as exc:
        return exc.report


def assert_matches_dense_oracles(kernel) -> None:
    report = _report(kernel)
    # the deviations are rounding noise of integrals of size 1/m^2
    mass_scale = 1.0 / (kernel.m * kernel.m)
    assert abs(report.mass_deviation - dense_mass_deviation(kernel)) <= 1e-13 * mass_scale
    positivity, chain = dense_grid_facts(kernel)
    assert abs(report.positivity_min - positivity) <= 1e-12 * abs(positivity)
    assert abs(report.chain_violation - chain) <= 1e-12  # relative to K(0) already


class TestVerifyPropertiesAgainstDenseOracles:
    """verify_properties' mass, positivity and cone-chain facts against the
    dense row-by-row and matrix computations they summarize."""

    @pytest.mark.parametrize("params", _MASS_CASES)
    def test_acceptance_kernels(self, params):
        assert_matches_dense_oracles(greens.build(*params))

    @settings(max_examples=20)
    @given(
        case=st.sampled_from([greens.CASE_REAL_DISTINCT, greens.CASE_DOUBLE_ROOT, greens.CASE_COMPLEX_PAIR]),
        a=st.floats(0.2, 4.0),
        frac=st.floats(0.05, 0.95),
        T=st.floats(0.3, 8.0),
    )
    def test_drawn_kernels(self, case, a, frac, T):
        half = 0.5 * a
        if case == greens.CASE_REAL_DISTINCT:
            m = frac * half
        elif case == greens.CASE_DOUBLE_ROOT:
            m = half
        else:
            m = half + frac * (greens.m_window(a, T) - half)
        kernel = greens.build(a, m, T)
        assert kernel.case == case
        assert_matches_dense_oracles(kernel)


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

    @settings(max_examples=300)
    @given(
        **_trig_forcings,
        M=st.integers(1, 64),
        t_fracs=st.lists(st.floats(-2.0, 3.0), max_size=16),
    )
    def test_off_grid_t_take_the_sweep(self, a, frac, T, offset, terms, M, t_fracs):
        # the shifted grid (i + 1/2) T/M is never arange(M) * (T/M), so every
        # t here is answered by the sweep, exact in the kernel
        m = frac * greens.m_window(a, T)
        kernel = greens.build(a, m, T)
        g = PeriodicFunction.trig(T, offset, terms)
        scale = (abs(offset) + sum(abs(amp) for amp, _, _ in terms)) / min(1.0, m * m)
        ts = np.concatenate([(np.arange(M) + 0.5) * (T / M), np.asarray(t_fracs) * T])
        with mock.patch.object(greens, "circular_response", side_effect=AssertionError("circular rule")):
            x = greens.apply_kernel(kernel, g, ts)
        # a subnormal forcing rounds in absolute terms, below the smallest normal float
        bound = max(1e-13 * scale, np.finfo(float).tiny)
        assert np.max(np.abs(x - trig_response(a, m, T, offset, terms, ts))) <= bound


class TestApplyKernelRoute:
    """apply_kernel takes the circular rule only for g without breakpoints
    at t = arange(M) * (T/M), and the sweep for every other call."""

    @staticmethod
    def route(kernel, g, ts, monkeypatch):
        calls = []
        circular = greens.circular_response

        def spy(k, g_values):
            calls.append(len(g_values))
            return circular(k, g_values)

        monkeypatch.setattr(greens, "circular_response", spy)
        return greens.apply_kernel(kernel, g, ts), calls

    @pytest.mark.parametrize("M", [1, 7, 512, 2048, 3000])
    def test_grid_t_of_a_kink_free_g_take_the_circular_rule(self, kernel_example, monkeypatch, M):
        g = PeriodicFunction.trig(1.0, 0.5, [(1.0, 1, 1.3), (0.25, 3, 0.0)])
        ts = np.arange(M) * (1.0 / M)
        x, calls = self.route(kernel_example, g, ts, monkeypatch)
        n_fine = -(-2 * greens.BASE_PANELS // M) * M  # the smallest multiple of M from 2048 on
        assert calls == [n_fine]
        fine = greens.circular_response(kernel_example, g(np.arange(n_fine) * (1.0 / n_fine)))
        assert x.tobytes() == fine[:: n_fine // M].tobytes()

    def test_every_other_call_takes_the_sweep(self, kernel_example, trapezoid_lp, monkeypatch):
        smooth = PeriodicFunction.trig(1.0, 0.5, [(1.0, 1, 1.3)])
        grid = np.arange(64) * (1.0 / 64)
        for g, ts in [
            (smooth, np.linspace(0.0, 1.0, 65)),  # the grid with its end point
            (smooth, grid[::-1]),
            (smooth, grid + 1e-9),
            (smooth, grid[:-1]),
            (smooth, np.array([])),
            (trapezoid_forcing(trapezoid_lp, 1.0), grid),  # a g with breakpoints
        ]:
            x, calls = self.route(kernel_example, g, ts, monkeypatch)
            assert calls == [] and x.shape == ts.shape


class TestModes:
    """The exponential modes, summed in complex arithmetic, against ``at``."""

    @staticmethod
    def assert_modes_rebuild_kernel(k):
        tau = np.linspace(0.0, k.T, 257)[:-1]
        terms = [c * tau**p * np.exp(lam * tau) for c, p, lam in k.modes]
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
    table g, with K built from the kernel's own (binary) roots: the lam of its
    modes, a complex pair's second root the conjugate of its one mode's."""
    with mpmath.workdps(40):
        T = mpmath.mpf(k.T)
        l1 = mpmath.mpc(k.modes[0][2].real, k.modes[0][2].imag)
        if len(k.modes) == 1:
            l2 = mpmath.conj(l1)
        else:
            l2 = mpmath.mpc(k.modes[1][2].real, k.modes[1][2].imag)
        if l1 == l2:  # the double root
            E = mpmath.exp(l1 * T)
            K = lambda tau: mpmath.re(mpmath.exp(l1 * tau) * (tau * (1 - E) + T * E) / (1 - E) ** 2)
        else:
            K = lambda tau: mpmath.re(
                (mpmath.exp(l1 * tau) / (1 - mpmath.exp(l1 * T)) - mpmath.exp(l2 * tau) / (1 - mpmath.exp(l2 * T)))
                / (l1 - l2)
            )
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
    def test_large_damping_stays_finite_and_exact(self, params, trapezoid_lp, monkeypatch):
        # e^{a T} overflows at a T = 800, so the sweep re-anchors in blocks;
        # (100, 50, 1) is a double root whose tau-mode moment is carried too
        k = greens.build(*params)
        g = trapezoid_forcing(trapezoid_lp, 1.0)
        ts = np.array([0.0, 0.00025, 0.0005, 0.37, 0.9995])
        ref = np.array([mp_response(k, g.body.points, t) for t in ts])
        # sub-gaps are also at most 2/|lam| wide, so even one base panel is exact
        for base_panels in (1024, 1):
            monkeypatch.setattr(greens, "BASE_PANELS", base_panels)
            x = greens.apply_kernel(k, g, ts)
            assert np.all(np.isfinite(x))
            assert np.max(np.abs(x - ref) / np.abs(ref)) <= 1e-12


class TestApplyKernelBoundary:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_raises(self, kernel_example, trapezoid_lp, bad):
        ts = np.array([0.1, bad, 0.5])
        for g in (PeriodicFunction.trig(1.0, 1.0, [(0.5, 1, 0.0)]), trapezoid_forcing(trapezoid_lp, 1.0)):
            with pytest.raises(LiebauError, match="finite"):
                greens.apply_kernel(kernel_example, g, ts)

    @pytest.mark.parametrize("bad", [0.5, np.zeros((2, 3)), [[0.1, 0.2]], "abc", "0.5", [0.1, [0.2]]])
    def test_t_values_that_are_not_a_1d_array_raise(self, kernel_example, bad):
        # a scalar raised TypeError, and a 2-D or string one ValueError
        with pytest.raises(LiebauError, match="^kernel response t values must be"):
            greens.apply_kernel(kernel_example, PeriodicFunction.trig(1.0, 1.0, [(0.5, 1, 0.0)]), bad)

    @pytest.mark.parametrize("t_values", [np.arange(4) / 4, [0.1, 0.7]])
    def test_g_of_another_period_raises(self, kernel_example, t_values):
        # a g of period 2 against T = 1 once returned numbers
        g = PeriodicFunction.trig(2.0, 1.0, [(0.5, 1, 0.0)])
        with pytest.raises(LiebauError, match="period 2.0 does not match kernel period 1.0"):
            greens.apply_kernel(kernel_example, g, t_values)

    @pytest.mark.parametrize("empty", [[], np.array([])])
    def test_empty_t_values_give_an_empty_response(self, kernel_example, empty):
        x = greens.apply_kernel(kernel_example, PeriodicFunction.constant(1.0, 1.0), empty)
        assert isinstance(x, np.ndarray) and x.shape == (0,)
