import bisect
import math

import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebau import funcspec, greens, presets
from liebau.errors import LiebauError
from liebau.funcspec import PeriodicFunction
from liebau.numerics import simpson_segmented

# Trapezoidal forcing instance used throughout: ramps of width 5e-4 at both
# ends of [0, 1], plateau at e_max, endpoints at e_min < 0.
E_MIN, E_MAX = -0.00005, 0.00548239
T1, T2 = 0.0005, 0.9995


def trapezoid() -> PeriodicFunction:
    return PeriodicFunction.piecewise_linear(
        [(0.0, E_MIN), (T1, E_MAX), (T2, E_MAX), (1.0, E_MIN)]
    )


def tank_forcing(v0: float) -> PeriodicFunction:
    # 0.1 v0 + 1.8 + (2.1 - v0) cos t - 3 cos^2 t, expanded into harmonics
    return PeriodicFunction.trig(
        2 * math.pi, 0.1 * v0 + 1.8 - 1.5, [(2.1 - v0, 1, 0.0), (-1.5, 2, 0.0)]
    )


class TestEval:
    def test_cosine_at_zero(self):
        f = PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)])
        assert f(0.0) == pytest.approx(1.544247, abs=1e-12)

    def test_trapezoid_plateau(self):
        f = trapezoid()
        for t in (T1, 0.3, 0.7, 0.99):
            assert f(t) == pytest.approx(E_MAX, abs=1e-15)
        assert f(0.0) == E_MIN

    def test_periodicity_exact_on_dyadic_times(self):
        f = trapezoid()
        for t in (0.0, 0.25, 0.375, 0.875):
            assert f(t + 1.0) == f(t)
            assert f(t - 1.0) == f(t)

    def test_periodicity_generic_times(self):
        f = PeriodicFunction.trig(2 * math.pi, 0.3, [(1.2, 1, 0.4), (0.3, 3, 1.0)])
        rng = np.random.default_rng(7)
        for t in rng.uniform(-10, 10, 40):
            assert f(t + f.period) == pytest.approx(f(t), rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        f = tank_forcing(4.0)
        ts = np.linspace(0, 2 * math.pi, 17)
        np.testing.assert_allclose(f(ts), [f(float(t)) for t in ts], rtol=1e-15)


class TestExtrema:
    def test_trapezoid_exact(self):
        fmin, fmax, argmin, argmax = trapezoid().extrema()
        assert fmin == E_MIN
        assert fmax == E_MAX
        assert argmin in (0.0, 1.0)
        assert T1 <= argmax <= T2

    def test_cubic_against_dense_grid_oracle(self):
        # f = 1.54215 - 0.02 (t - 3 t^2 + 2 t^3); stationary points of the
        # cubic are at (6 +- sqrt(12))/12, so the oracle refines around them.
        f = PeriodicFunction.poly(1.0, [1.54215, -0.02, 0.06, -0.04])
        grid = np.linspace(0.0, 1.0, 2**16, endpoint=False)
        vals = f(grid)
        t_lo = (6 - math.sqrt(12)) / 12
        t_hi = (6 + math.sqrt(12)) / 12
        q = lambda t: t - 3 * t**2 + 2 * t**3
        oracle_max = 1.54215 - 0.02 * q(t_hi)
        oracle_min = 1.54215 - 0.02 * q(t_lo)
        assert oracle_max >= vals.max() - 1e-12
        assert oracle_min <= vals.min() + 1e-12
        fmin, fmax, argmin, argmax = f.extrema()
        assert fmin == pytest.approx(oracle_min, abs=1e-12)
        assert fmax == pytest.approx(oracle_max, abs=1e-12)
        assert argmin == pytest.approx(t_lo, abs=1e-15)  # the root of p', not a scan point
        assert argmax == pytest.approx(t_hi, abs=1e-15)

    def test_constant(self):
        fmin, fmax, _, _ = PeriodicFunction.constant(3.0, 2.5).extrema()
        assert (fmin, fmax) == (2.5, 2.5)

    def test_extrema_bracket_samples(self):
        funcs = [
            trapezoid(),
            tank_forcing(4.0),
            PeriodicFunction.poly(1.0, [1.54215, -0.02, 0.06, -0.04]),
            PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)]),
        ]
        for f in funcs:
            fmin, fmax, _, _ = f.extrema()
            vals = f(np.linspace(0.0, f.period, 10**4, endpoint=False))
            slack = 1e-10 * (1.0 + abs(fmax))
            assert vals.min() >= fmin - slack
            assert vals.max() <= fmax + slack


class TestMean:
    def test_tank_forcing_mean(self):
        # integral of cos vanishes, integral of cos^2 over 2 pi is pi, so the
        # mean is 0.1 v0 + 1.8 - 3/2; for v0 = 4 that is 0.7
        assert tank_forcing(4.0).mean() == pytest.approx(0.7, abs=1e-15)

    def test_constant(self):
        assert PeriodicFunction.constant(2.0, -3.25).mean() == -3.25

    def test_trapezoid_exact_piecewise_integration(self):
        # plateau contribution plus two ramp averages
        oracle = E_MAX * (T2 - T1) + 2 * (0.5 * (E_MIN + E_MAX) * T1)
        assert trapezoid().mean() == pytest.approx(oracle, rel=1e-14)
        assert trapezoid().mean() == pytest.approx(0.00547963, abs=1e-8)

    def test_trig_mean_is_offset(self):
        f = PeriodicFunction.trig(5.0, 1.25, [(3.0, 1, 0.7), (0.5, 4, 0.0)])
        assert f.mean() == 1.25

    def test_poly_mean_closed_form(self):
        f = PeriodicFunction.poly(1.0, [1.54215, -0.02, 0.06, -0.04])
        oracle = 1.54215 - 0.02 / 2 + 0.06 / 3 - 0.04 / 4
        assert f.mean() == pytest.approx(oracle, rel=1e-15)

    def test_sum_mean(self):
        f = PeriodicFunction.sum_of(
            [PeriodicFunction.constant(1.0, 2.0), PeriodicFunction.trig(1.0, 0.5, [(1.0, 1, 0.0)])]
        )
        assert f.mean() == pytest.approx(2.5, rel=1e-15)


class TestPositivePart:
    def test_nonnegative_function_unchanged(self):
        f = PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)])
        g = f.positive_part()
        ts = np.linspace(0, 1, 333)
        np.testing.assert_allclose(g(ts), f(ts), rtol=0, atol=0)

    def test_trapezoid_crossing_inserted(self):
        g = trapezoid().positive_part()
        crossing = T1 * abs(E_MIN) / (E_MAX - E_MIN)
        assert crossing == pytest.approx(4.519e-06, rel=1e-3)
        assert crossing in [round(b, 20) for b in g.breakpoints()] or any(
            abs(b - crossing) < 1e-18 for b in g.breakpoints()
        )
        assert g(0.0) == 0.0
        assert g(crossing) == pytest.approx(0.0, abs=1e-18)
        assert g(0.5) == E_MAX

    def test_negative_constant_clips_to_zero(self):
        g = PeriodicFunction.constant(1.0, -1.0).positive_part()
        assert g(0.3) == 0.0
        assert g.mean() == 0.0

    def test_clipped_trig_mean_quadrature(self):
        # exact mean of max(cos t, 0) over a period is 1/pi
        f = PeriodicFunction.trig(2 * math.pi, 0.0, [(1.0, 1, 0.0)])
        assert f.positive_part().mean() == pytest.approx(1.0 / math.pi, rel=1e-9)

    def test_mean_dominates(self):
        funcs = [
            trapezoid(),
            tank_forcing(4.0),
            PeriodicFunction.constant(1.0, -2.0),
            PeriodicFunction.trig(1.0, 0.1, [(0.5, 2, 0.3)]),
        ]
        for f in funcs:
            assert f.positive_part().mean() >= max(f.mean(), 0.0) - 1e-12


class TestValidation:
    def test_polynomial_must_wrap_continuously(self):
        with pytest.raises(LiebauError):
            PeriodicFunction.poly(1.0, [0.0, 1.0])  # p(t)=t jumps at the wrap

    def test_piecewise_endpoints_must_match(self):
        with pytest.raises(LiebauError):
            PeriodicFunction.piecewise_linear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.1)])

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(LiebauError):
            PeriodicFunction.piecewise_linear([(0.0, 0.0), (0.5, 1.0), (0.5, 2.0), (1.0, 0.0)])

    @pytest.mark.parametrize("harmonic", [1.5, math.inf, math.nan, 0, -1, True, 65537, 2**53, "1"])
    def test_harmonic_must_be_a_whole_number(self, harmonic):
        # int() once turned 1.5 into harmonic 1, and inf into an OverflowError;
        # above 65536 the bisection's work would grow without bound
        with pytest.raises(LiebauError, match="harmonic"):
            PeriodicFunction.trig(1.0, 0.0, [(1.0, harmonic, 0.0)])

    def test_top_harmonic_is_accepted(self):
        f = PeriodicFunction.trig(1.0, 0.0, [(1.0, funcspec._MAX_HARMONIC, 0.0)])
        assert f.body.terms[0][1] == 65536

    def test_whole_float_harmonic_is_kept_as_int(self):
        assert PeriodicFunction.trig(1.0, 0.0, [(1.0, 2.0, 0.0)]).body.terms == ((1.0, 2, 0.0),)

    def test_positive_period_required(self):
        with pytest.raises(LiebauError):
            PeriodicFunction.constant(0.0, 1.0)

    def test_scale_preserves_structure(self):
        f = trapezoid().scale(2.0)
        assert f(0.5) == 2 * E_MAX
        g = tank_forcing(4.0).scale(-1.0)
        assert g.mean() == pytest.approx(-0.7, abs=1e-15)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PeriodicFunction.constant(1.0, float("nan")),
            lambda: PeriodicFunction.trig(1.0, float("nan"), [(1.0, 1, 0.0)]),
            lambda: PeriodicFunction.trig(1.0, 0.0, [(float("inf"), 1, 0.0)]),
            lambda: PeriodicFunction.trig(1.0, 0.0, [(1.0, 1, -float("inf"))]),
            lambda: PeriodicFunction.poly(1.0, [1.0, float("nan"), 0.0]),
            lambda: PeriodicFunction.piecewise_linear([(0.0, 0.0), (0.5, float("inf")), (1.0, 0.0)]),
            lambda: PeriodicFunction.piecewise_linear([(0.0, 0.0), (float("nan"), 1.0), (1.0, 0.0)]),
            lambda: PeriodicFunction.sum_of(
                [PeriodicFunction.constant(1.0, 1.0), PeriodicFunction.trig(1.0, float("-inf"))]
            ),
        ],
    )
    def test_non_finite_data_rejected(self, make):
        with pytest.raises(LiebauError, match="finite"):
            make()


def sum_with_breakpoints() -> PeriodicFunction:
    return PeriodicFunction.sum_of(
        [
            PeriodicFunction.piecewise_linear([(0.0, -0.5), (0.3, 0.7), (0.6, -0.2), (1.0, -0.5)]),
            PeriodicFunction.trig(1.0, 0.0, [(0.3, 2, 0.1)]),
        ]
    )


def zeros_at_nodes() -> PeriodicFunction:
    # -0.1875 + t - t^2 vanishes exactly at t = 0.25 and 0.75, ends of the bisection's first cells
    return PeriodicFunction.poly(1.0, [-0.1875, 1.0, -1.0])


def summed_zeros_at_nodes() -> PeriodicFunction:
    # zeros_at_nodes plus a zero constant: the same values, from a sum, which is bisected
    return PeriodicFunction.sum_of([zeros_at_nodes(), PeriodicFunction.constant(1.0, 0.0)])


def all_ties() -> PeriodicFunction:
    # zero amplitudes: 0 everywhere, so every value ties; two terms, so it is bisected
    return PeriodicFunction.trig(1.0, 0.0, [(0.0, 1, 0.0), (0.0, 2, 0.0)])


def earlier_trig_eval(offset, terms, period, t):
    """``TrigPoly.eval`` as the earlier out-of-place formula."""
    out = offset + np.zeros_like(np.asarray(t, dtype=float))
    for amp, k, phase in terms:
        out = out + amp * np.cos(2.0 * np.pi * k * np.asarray(t) / period + phase)
    return out if np.ndim(t) else float(out)


def earlier_poly_eval(coeffs, period, t):
    """``PolyOnPeriod.eval`` as the earlier out-of-place Horner formula."""
    tt = np.mod(t, period)
    out = np.zeros_like(np.asarray(tt, dtype=float))
    for c in reversed(coeffs):
        out = out * np.asarray(tt) + c
    return out if np.ndim(t) else float(out)


periods = st.sampled_from([1.0, 2.0 * math.pi, 0.37, 5.0])
trig_terms = st.lists(
    st.tuples(st.floats(-2.0, 2.0), st.integers(1, 8), st.floats(0.0, 2.0 * math.pi)),
    min_size=1,
    max_size=3,
)


def continuous_cubic(period, c0, c2, c3):
    # c1 is chosen so that p(T) = p(0): c1 T + c2 T^2 + c3 T^3 = 0
    return PeriodicFunction.poly(period, [c0, -(c2 * period + c3 * period**2), c2, c3])


EPS = np.finfo(float).eps


def derivative_bounds(body, period: float) -> tuple[float, float]:
    """(max|f'|, max|f''|) between breakpoints, term by term."""
    if isinstance(body, funcspec.Constant):
        return 0.0, 0.0
    if isinstance(body, funcspec.TrigPoly):
        w = 2.0 * math.pi / period
        return sum(abs(a) * w * k for a, k, _ in body.terms), sum(abs(a) * (w * k) ** 2 for a, k, _ in body.terms)
    if isinstance(body, funcspec.PolyOnPeriod):
        c = body.coeffs
        return (sum(i * abs(x) * period ** (i - 1) for i, x in enumerate(c) if i),
                sum(i * (i - 1) * abs(x) * period ** (i - 2) for i, x in enumerate(c) if i > 1))
    if isinstance(body, funcspec.PiecewiseLinear):
        pts = body.points
        return max(abs((v1 - v0) / (t1 - t0)) for (t0, v0), (t1, v1) in zip(pts[:-1], pts[1:])), 0.0
    if isinstance(body, funcspec.Sum):
        parts = [derivative_bounds(p, period) for p in body.parts]
        return sum(a for a, _ in parts), sum(b for _, b in parts)
    return derivative_bounds(body.inner, period)


def mp_function(body, period):
    """The body as a function of mpmath t in [0, T] at the working precision, with pi exact."""
    mpf = mpmath.mpf
    if isinstance(body, funcspec.Constant):
        return lambda t: mpf(body.value)
    if isinstance(body, funcspec.TrigPoly):
        w, offset = 2 * mpmath.pi / period, mpf(body.offset)
        terms = [(mpf(a), k * w, mpf(phase)) for a, k, phase in body.terms]
        return lambda t: offset + mpmath.fsum(a * mpmath.cos(kw * t + phase) for a, kw, phase in terms)
    if isinstance(body, funcspec.PolyOnPeriod):
        coeffs = [mpf(c) for c in reversed(body.coeffs)]
        return lambda t: mpmath.polyval(coeffs, t)
    if isinstance(body, funcspec.PiecewiseLinear):
        ts, vs = [mpf(t) for t, _ in body.points], [mpf(v) for _, v in body.points]

        def linear(t):
            i = min(bisect.bisect_right(ts, t), len(ts) - 1)
            return vs[i - 1] + (vs[i] - vs[i - 1]) * (t - ts[i - 1]) / (ts[i] - ts[i - 1])

        return linear
    if isinstance(body, funcspec.Sum):
        parts = [mp_function(p, period) for p in body.parts]
        return lambda t: mpmath.fsum(g(t) for g in parts)
    inner = mp_function(body.inner, period)
    return lambda t: max(inner(t), mpf(0))


def mp_golden_min(fn, a, b, width):
    """The lowest value golden-section search finds for fn on [a, b], its ends included,
    narrowing the bracket to ``width``."""
    ratio = (mpmath.sqrt(5) - 1) / 2
    best = min(fn(a), fn(b))
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > width:
        best = min(best, fc, fd)
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return min(best, fc, fd)


def mp_extremum(f: PeriodicFunction, sign: float, width: float = 1e-12, n: int = 2048):
    """The minimum (sign 1) or maximum (sign -1) of f at 20 digits.

    A clip's is its inner body's, clipped at 0.  Otherwise every local
    minimum of sign * f on n even cells, breakpoints added, whose value is
    within max|f''| h^2 / 4 of the lowest (h = T/n) is refined by golden
    section over its two neighbouring cells in mpmath, a run of them as one,
    down to ``width`` T, and the grid point itself is a candidate: on no
    other cell can sign * f go below the lowest grid value less
    max|f''| h^2 / 8.  A kink between grid points needs a smaller width.
    """
    body, T = f.body, f.period
    if isinstance(body, funcspec.PositivePart):
        return max(mp_extremum(PeriodicFunction(T, body.inner), sign, width, n), mpmath.mpf(0))
    grid = np.unique(np.concatenate([np.linspace(0.0, T, n + 1), f.breakpoints()]))[:-1]
    g = sign * np.asarray(f(grid))
    gap = derivative_bounds(body, T)[1] * (T / n) ** 2 / 4 + 1e-12 * (1.0 + np.max(np.abs(g)))
    low = np.flatnonzero((g <= np.roll(g, 1)) & (g <= np.roll(g, -1)) & (g <= g.min() + gap))
    runs = np.split(low, np.flatnonzero(np.diff(low) != 1) + 1)  # a flat stretch is one search
    left, right = np.roll(grid, 1), np.roll(grid, -1)
    left[0] -= T
    right[-1] += T
    with mpmath.workdps(20):
        period, value = mpmath.mpf(T), mp_function(body, T)
        width = period * mpmath.mpf(width)

        def fn(t):
            return sign * value(t % period)

        return sign * min(
            min(fn(mpmath.mpf(grid[r[0]])), mp_golden_min(fn, mpmath.mpf(left[r[0]]), mpmath.mpf(right[r[-1]]), width))
            for r in runs
        )


def enclosure(f: PeriodicFunction, sign: float) -> tuple[float, float]:
    """(value, bound) of the minimum (sign 1) or the maximum (sign -1) by the
    bisection, value being what extrema() reports; a clip's are its inner
    body's, clipped at 0."""
    if isinstance(f.body, funcspec.PositivePart):
        value, bound = enclosure(PeriodicFunction(f.period, f.body.inner), sign)
        value, bound = max(value, 0.0), max(bound, 0.0)
    else:
        value, _, bound = funcspec._extremum(f, sign)
    assert value == f.extrema()[0 if sign > 0 else 1]
    return value, bound


def assert_encloses(f: PeriodicFunction, sign: float, ref, extra: float = 0.0) -> None:
    """ref lies between the bisection's value and bound for f's extremum, each
    side widened by 8 eps max|f| for rounding, plus ``extra``."""
    value, bound = enclosure(f, sign)
    slack = 8.0 * EPS * funcspec._bounds(f.body, f.period)[0] + extra
    lo, hi = (bound, value) if sign > 0 else (value, bound)
    assert mpmath.mpf(lo) - slack <= ref <= mpmath.mpf(hi) + slack


def mp_crossings(f: PeriodicFunction, n: int = 4096) -> list[float]:
    """The sign changes of f > 0 between the nodes of n even cells (breakpoints
    added), each bisected in mpmath to 1e-25 T."""
    T = f.period
    grid = np.unique(np.concatenate([np.linspace(0.0, T, n + 1), f.breakpoints()]))
    positive = np.asarray(f(grid)) > 0.0
    out = []
    with mpmath.workdps(30):
        value = mp_function(f.body, T)
        for i in np.flatnonzero(positive[:-1] != positive[1:]).tolist():
            a, b = mpmath.mpf(grid[i]), mpmath.mpf(grid[i + 1])
            while b - a > T * mpmath.mpf(10) ** -25:
                mid = (a + b) / 2
                if (value(mid) > 0) == positive[i]:
                    a = mid
                else:
                    b = mid
            out.append(float(a))
    return out


@st.composite
def drawn_sums(draw) -> PeriodicFunction:
    """2 to 4 cosine terms, with a continuous cubic and a piecewise-linear table each drawn or not."""
    period = draw(periods)
    terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.integers(1, 8), st.floats(0.0, 2.0 * math.pi)),
                          min_size=2, max_size=4))
    parts = [PeriodicFunction.trig(period, draw(st.floats(-1.0, 1.0)), terms)]
    if draw(st.booleans()):
        parts.append(continuous_cubic(period, *draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0),
                                                              st.floats(-3.0, 3.0)))))
    if draw(st.booleans()):
        levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5))
        table = [(period * i / len(levels), v) for i, v in enumerate(levels)] + [(period, levels[0])]
        parts.append(PeriodicFunction.piecewise_linear(table))
    return parts[0] if len(parts) == 1 else PeriodicFunction.sum_of(parts)


# the forcing on which the 8192-point scan aliased harmonic 8191 onto harmonic 1
ALIASED = PeriodicFunction.trig(
    1.0, 1.0, [(0.8406588551173528, 8191, 6.102007774807954), (0.5166707960555585, 1, 2.5207092162091653)]
)


def one_term_cosines():
    return st.builds(
        lambda period, offset, amp, k, phase: PeriodicFunction.trig(period, offset, [(amp, k, phase)]),
        periods,
        st.floats(-1.0, 1.0),
        st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0])),
        st.integers(1, 8),
        st.floats(-1e3, 1e3),
    )


def continuous_poly(period: float, c0: float, scaled) -> PeriodicFunction:
    """c0 + c1 t + sum a_i (t/T)^i for i >= 2, with c1 chosen so that p(T) = p(0)."""
    highs = [a / period**i for i, a in enumerate(scaled, start=2)]
    c1 = -sum(c * period ** (i - 1) for i, c in enumerate(highs, start=2))
    return PeriodicFunction.poly(period, [c0, c1, *highs])


def double_root_quartic(period: float, c0: float, scale: float, at: float) -> PeriodicFunction:
    """p' = k (t - r)^2 (t - s): a double root of p' at r = at*T, and the simple
    root s at which int_0^T p' vanishes, so that p(T) = p(0)."""
    k, r = scale / period**4, at * period
    s = (((period - r) ** 4 - r**4) / 4 + r * ((period - r) ** 3 + r**3) / 3) / (((period - r) ** 3 + r**3) / 3)
    return PeriodicFunction.poly(period, [c0, -k * r * r * s, k * (r * r + 2 * r * s) / 2, -k * (s + 2 * r) / 3, k / 4])


polys = st.one_of(
    # no interior critical point: p(T) differs from p(0) by at most 1e-11, within _validate's 1e-10
    st.builds(lambda period, c0, s: PeriodicFunction.poly(period, [c0, s * 1e-11 / period]),
              periods, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.builds(continuous_poly, periods, st.floats(-1.0, 1.0),
              st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5)),
    st.builds(double_root_quartic, periods, st.floats(-1.0, 1.0),
              st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3), st.floats(0.05, 0.95)),
)


def horner_bound(f: PeriodicFunction) -> float:
    """2 d (u sum |c_i| T^i + eta): the rounding bound of Horner's rule of degree d at
    |t| <= T, with u = 2^-53 and eta = 2^-1074 for rounding among subnormals."""
    coeffs = f.body.coeffs
    scale = sum(abs(c) * f.period**i for i, c in enumerate(coeffs))
    return 2 * (len(coeffs) - 1) * (2.0**-53 * scale + 2.0**-1074)


def mp_real_roots(c: list, lo, hi) -> list:
    """Roots in [lo, hi] of odd multiplicity of the polynomial with ascending mpmath
    coefficients c, at the working precision: the roots of c' split [lo, hi] into
    monotone pieces, and each sign change is bisected down to the precision."""
    while c and c[-1] == 0:
        c = c[:-1]
    if len(c) < 2:
        return []
    ends = [lo, *mp_real_roots([i * x for i, x in enumerate(c)][1:], lo, hi), hi]
    p = lambda t: mpmath.polyval(c[::-1], t)
    out = []
    for a, b in zip(ends[:-1], ends[1:]):
        fa = p(a)
        if fa * p(b) < 0:
            for _ in range(mpmath.mp.prec + 10):
                mid = (a + b) / 2
                if p(mid) * fa > 0:
                    a = mid
                else:
                    b = mid
            out.append(a)
    return out


def mp_poly_extrema(f: PeriodicFunction):
    """(min, max) of the polynomial on [0, T] at 50 digits, over t = 0, T and the roots of p'."""
    with mpmath.workdps(50):
        c = [mpmath.mpf(x) for x in f.body.coeffs]
        T = mpmath.mpf(f.period)
        ts = [mpmath.mpf(0), T, *mp_real_roots([i * x for i, x in enumerate(c)][1:], mpmath.mpf(0), T)]
        vals = [mpmath.polyval(c[::-1], t) for t in ts]
        return min(vals), max(vals)


def mp_poly_roots(f: PeriodicFunction) -> list[float]:
    """The real roots in [0, T) of the polynomial, by mpmath.polyroots at 50 digits."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f.body.coeffs)], maxsteps=200, extraprec=200)
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30]
        return sorted(float(r) for r in real if 0 <= r < f.period)


def calls_during(run) -> set[tuple[str, str]]:
    """(file, name) of every Python function run() calls, by the profiler hook."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


class TestCandidateExtrema:
    """One-term cosines and polynomials take their extrema from candidate points."""

    @given(one_term_cosines())
    def test_one_term_cosine_is_offset_plus_minus_amplitude(self, f):
        # eval's own operations with the cosine at exactly -1 and 1
        fmin, fmax, argmin, argmax = f.extrema()
        offset, ((amp, k, _),) = f.body.offset, f.body.terms
        low, high = (0.0 + offset) - abs(amp), (0.0 + offset) + abs(amp)
        if amp == 0.0:
            low = high = f(0.0)
        assert [fmin.hex(), fmax.hex()] == [low.hex(), high.hex()]
        assert (f(argmin), f(argmax)) == (fmin, fmax)
        assert 0.0 <= argmin < f.period / k and 0.0 <= argmax < f.period / k

    def test_benchmark_cosines_inside_the_bisection_enclosure(self):
        # with a zero second term the same values go through the bisection
        for amp in np.linspace(-0.0021, 0.0021, 43):
            for k in (1, 2, 3):
                f = PeriodicFunction.trig(1.0, 1.54215, [(float(amp), k, 0.0)])
                g = PeriodicFunction.trig(1.0, 1.54215, [(float(amp), k, 0.0), (0.0, 1, 0.0)])
                for sign, exact in zip((1.0, -1.0), f.extrema()):
                    assert_encloses(g, sign, mpmath.mpf(exact))

    @given(polys)
    def test_poly_agrees_with_mpmath(self, f):
        fmin, fmax, argmin, argmax = f.extrema()
        bound = horner_bound(f)
        ref_min, ref_max = mp_poly_extrema(f)
        assert abs(mpmath.mpf(fmin) - ref_min) <= bound and abs(mpmath.mpf(fmax) - ref_max) <= bound
        assert 0.0 <= argmin < f.period and 0.0 <= argmax < f.period

    def test_benchmark_cubics_agree_with_mpmath(self):
        for s in np.linspace(-0.02, 0.02, 41):
            f = PeriodicFunction.poly(1.0, [1.54215, float(s), -3.0 * float(s), 2.0 * float(s)])
            refs = mp_poly_extrema(f)
            for value, ref in zip(f.extrema()[:2], refs):
                assert abs(mpmath.mpf(value) - ref) <= math.ulp(value)

    def test_ties_keep_the_earliest_candidate(self):
        # 1 - t + t^2 is 1 at both t = 0 and t = T; the first minimum of a harmonic-2 cosine
        assert PeriodicFunction.poly(1.0, [1.0, -1.0, 1.0]).extrema() == (0.75, 1.0, 0.5, 0.0)
        assert PeriodicFunction.trig(1.0, 0.0, [(1.0, 2, 0.0)]).extrema() == (-1.0, 1.0, 0.25, 0.0)

    def test_left_limit_at_the_wrap_is_a_candidate(self):
        # p = 1 + 1e-11 t rises to its raw value at T, the left limit at the wrap
        fmin, fmax, argmin, argmax = PeriodicFunction.poly(1.0, [1.0, 1e-11]).extrema()
        assert (fmin, fmax, argmin, argmax) == (1.0, 1.0 + 1e-11, 0.0, 0.0)

    @pytest.mark.parametrize("amp", [0.0, -0.0])
    def test_zero_amplitude_is_a_constant(self, amp):
        assert PeriodicFunction.trig(2.0, -0.5, [(amp, 3, 1.0)]).extrema() == (-0.5, -0.5, 0.0, 0.0)

    def test_negative_amplitude_swaps_min_and_max(self):
        fmin, fmax, argmin, argmax = PeriodicFunction.trig(1.0, 2.0, [(-1.0, 1, 0.0)]).extrema()
        assert (fmin, fmax, argmin, argmax) == (1.0, 3.0, 0.0, 0.5)

    def test_no_bisection_no_roots_no_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(funcspec, "_bisect", refuse)
        monkeypatch.setattr(np, "roots", refuse)
        funcs = [
            PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)]),
            PeriodicFunction.trig(0.37, -0.2, [(-1.5, 8, 2.5)]),
            PeriodicFunction.trig(5.0, 0.1, [(0.0, 2, 0.3)]),
            PeriodicFunction.poly(1.0, [1.0, 1e-11]),
            *(continuous_poly(2.0, 0.5, [(-1.0) ** i * (1.0 + 0.5 * i) for i in range(d - 1)]) for d in range(2, 7)),
            double_root_quartic(1.0, 0.5, 1.0, 0.3),
        ]
        calls = calls_during(lambda: [f.extrema() for f in funcs])
        assert not [c for c in calls if "linalg" in c[0] or c[1] in ("roots", "_bisect")]
        assert ("funcspec.py", "_monotone_root") in {(os.path.basename(a), b) for a, b in calls}


class TestBisection:
    """Sums and cosines of several terms: the extremum and its enclosure against mpmath."""

    @settings(max_examples=50)
    @given(drawn_sums())
    def test_drawn_sums_and_clips_inside_their_enclosures(self, f):
        for sign in (1.0, -1.0):
            ref = mp_extremum(f, sign)
            assert_encloses(f, sign, ref)
            assert_encloses(f.positive_part(), sign, max(ref, mpmath.mpf(0)))

    def test_a_clip_cannot_be_part_of_a_sum(self):
        # a clip's kink, known only to the refinement tolerance, would blur a
        # sum's enclosure, and its zero stretch would run the halving to the
        # cell cap; every way of building such a sum is refused
        clip = PeriodicFunction.trig(1.0, 0.0, [(1.0, 1, 0.0), (0.5, 3, 1.0)]).positive_part()
        other = PeriodicFunction.trig(1.0, 0.0, [(0.5, 3, 1.0)])
        for build in (
            lambda: PeriodicFunction.sum_of([clip, other]),
            lambda: PeriodicFunction.sum_of([other, clip]),
            lambda: PeriodicFunction.sum_of([clip]),
            lambda: clip.plus_constant(0.0),
            lambda: PeriodicFunction(1.0, funcspec.Sum((other.body, funcspec.Sum((clip.body,))))),
        ):
            with pytest.raises(LiebauError, match="clipped function cannot be part of a sum"):
                build()

    @pytest.mark.parametrize("v0", [3.6, 4.0, 5.0, 10.0])
    def test_tank_forcing_against_the_quadratic_in_cos_t(self, v0):
        # offset + a cos t - 1.5 cos 2t = (offset + 1.5) + a x - 3 x^2 with x = cos t in [-1, 1]
        f = tank_forcing(v0)
        offset, ((a, _, _), _) = f.body.offset, f.body.terms
        with mpmath.workdps(30):
            q = lambda x: (mpmath.mpf(offset) + mpmath.mpf(1.5)) + a * x - 3 * x * x
            xs = [mpmath.mpf(-1), mpmath.mpf(1)] + ([mpmath.mpf(a) / 6] if abs(a) < 6 else [])
            refs = min(q(x) for x in xs), max(q(x) for x in xs)
        slack = 8.0 * EPS * funcspec._bounds(f.body, f.period)[0]
        for sign, ref, value in zip((1.0, -1.0), refs, f.extrema()):
            assert_encloses(f, sign, ref)
            assert abs(mpmath.mpf(value) - ref) <= slack

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_preset_forcings_against_mpmath(self, name):
        e = presets.preset(name).problem.e
        for f in (e, e.positive_part()):
            for sign, value in zip((1.0, -1.0), f.extrema()):
                slack = 8.0 * EPS * funcspec._bounds(f.body, f.period)[0]
                assert abs(mpmath.mpf(value) - mp_extremum(f, sign)) <= slack

    def test_top_ulp_of_a_cosine_inside_the_enclosure(self):
        # the maximum lies on a rounding plateau whose top ulp a sampling search
        # can miss (a zoom once read 1 ulp inside); a zero second term sends
        # the cosine through the bisection
        f = PeriodicFunction.trig(1.0, 0.8611196922831792, [(1.25, 8, 752.25), (0.0, 1, 0.0)])
        value, _, bound = funcspec._extremum(f, -1.0)
        assert 0.8611196922831792 + 1.25 == 2.111119692283179
        assert value <= 2.111119692283179 <= bound

    def test_minimum_just_below_the_wrap(self):
        # minimum 1 at t* just below T, inside the last starting cell
        t_star = 1.0 - 0.3 / 8192
        f = PeriodicFunction.trig(1.0, 2.0, [(1.0, 1, math.pi - 2.0 * math.pi * t_star), (0.0, 2, 0.0)])
        argmin = f.extrema()[2]
        assert_encloses(f, 1.0, mpmath.mpf(1))
        assert 0.0 <= argmin < 1.0
        assert abs(argmin - t_star) <= 1e-7  # the rounding-flat band of a unit cosine

    @pytest.mark.parametrize(
        "f, expected",
        [
            (all_ties(), (0.0, 0.0, 0.0, 0.0)),
            # the first of the equal minima of a harmonic-2 cosine, and its first maximum
            (PeriodicFunction.trig(1.0, 2.0, [(1.0, 2, 0.0), (0.0, 4, 0.0)]), (1.0, 3.0, 0.25, 0.0)),
        ],
    )
    def test_ties_keep_the_earliest_cell_end(self, f, expected):
        assert f.extrema() == expected

    def test_clip_takes_its_inner_extrema(self):
        inner = PeriodicFunction.trig(1.0, -0.5, [(1.0, 1, 0.0), (0.25, 3, 0.5)])
        low, high, t_low, t_high = inner.extrema()
        assert low < 0.0 < high
        assert inner.positive_part().extrema() == (0.0, high, t_low, t_high)
        assert inner.positive_part().positive_part() is inner.positive_part()

    @pytest.mark.parametrize(
        "f",
        [
            PeriodicFunction.trig(1.0, 0.1, [(0.5, 2, 0.3), (0.2, 5, 1.0)]),
            PeriodicFunction.sum_of([trapezoid(), PeriodicFunction.trig(1.0, -0.2, [(0.4, 5, 0.7), (0.2, 2, 1.1)])]),
        ],
    )
    def test_a_small_cell_cap_keeps_the_enclosure_and_the_crossings(self, f, monkeypatch):
        # a cap that stops the halving long before the cells reach the
        # tolerance: each extremum reads the outer end of its enclosure, and
        # the crossings are still narrowed to the tolerance
        monkeypatch.setattr(funcspec, "_MAX_CELLS", 1)
        for sign in (1.0, -1.0):
            value, _, bound = funcspec._extremum(f, sign)
            assert value == bound
            assert sign * (mp_extremum(f, sign) - mpmath.mpf(bound)) >= -8.0 * EPS * funcspec._bounds(f.body, 1.0)[0]
        new, ref = funcspec._find_crossings(f, f.period), mp_crossings(f)
        assert len(new) == len(ref) > 0
        np.testing.assert_allclose(new, ref, rtol=0, atol=funcspec.EXTREMA_REFINE_TOL)

    def test_top_harmonic_stays_under_the_cell_cap(self, monkeypatch):
        sizes = []
        bisect = funcspec._bisect

        def recording(f, keep):
            return bisect(f, lambda l, r, fl, fr: sizes.append(len(l)) or keep(l, r, fl, fr))

        monkeypatch.setattr(funcspec, "_bisect", recording)
        f = PeriodicFunction.trig(1.0, 1.0, [(1.0, funcspec._MAX_HARMONIC, 0.3), (0.5, 1, 0.0)])
        value, _, bound = funcspec._extremum(f, 1.0)
        size, curvature = funcspec._bounds(f.body, 1.0)
        # the cells left are at most EXTREMA_REFINE_TOL wide, so the enclosure is that narrow
        assert 0.0 <= value - bound <= 8.0 * EPS * size + curvature * funcspec.EXTREMA_REFINE_TOL**2 / 8
        assert max(sizes) <= funcspec._MAX_CELLS


    @pytest.mark.parametrize("level", [0.0, -0.0, 1.54215, -3.0])
    def test_all_ties(self, level):
        # every value ties: a cosine of zero amplitudes, and a constant cubic plus zero
        for f in (
            PeriodicFunction.trig(1.0, level, [(0.0, 3, 0.0), (0.0, 1, 0.0)]),
            PeriodicFunction.sum_of([PeriodicFunction.poly(2.0, [level]), PeriodicFunction.constant(2.0, 0.0)]),
        ):
            assert f.extrema() == (level, level, 0.0, 0.0)
            for sign in (1.0, -1.0):
                assert_encloses(f, sign, mpmath.mpf(level))

    @pytest.mark.parametrize(
        "offset, terms",
        [
            (
                -0.5154017342165804,
                [(0.6829014176579647, 4, 2.401381883923562), (0.11377713089996044, 3, 3.9911469718550974)],
            ),
            (
                -0.849526905302308,
                [(0.9194553331567862, 3, 3.258600710290592), (0.6407992674416769, 2, 3.196755742717324)],
            ),
            (-0.5, [(1.0, 1, 0.0), (0.0, 2, 0.0)]),
        ],
    )
    def test_plateau_plus_peak(self, offset, terms):
        # clips with zero plateaus and peaks take their inner body's extrema
        clip = PeriodicFunction.trig(1.0, offset, terms).positive_part()
        for sign in (1.0, -1.0):
            assert_encloses(clip, sign, mp_extremum(clip, sign))
        assert mp_extremum(clip, 1.0) == 0

    def test_thousands_of_minima(self):
        # 3000 minima and 3000 maxima, each within the enclosure of offset -/+ amplitude
        f = PeriodicFunction.trig(1.0, 1.0, [(0.3, 3000, 0.1), (0.0, 1, 0.0)])
        assert_encloses(f, 1.0, mpmath.mpf(1.0) - mpmath.mpf(0.3))
        assert_encloses(f, -1.0, mpmath.mpf(1.0) + mpmath.mpf(0.3))


def sampled_curvature(f: PeriodicFunction, n: int = 4096) -> tuple[float, float]:
    """(max|f|, max|second difference| / h^2) on n even cells, triples that reach a breakpoint left out.

    By the mean value theorem each second difference over h^2 is f'' at some
    point of its triple, so it cannot exceed max|f''| but for rounding."""
    T = f.period
    h = T / n
    t = np.linspace(0.0, T, n, endpoint=False)
    v = np.asarray(f(t))
    second = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / h**2
    kinks = np.asarray(f.breakpoints() + [0.0, T])
    near = np.any(np.abs(np.mod(t[:, None] - kinks[None, :] + T / 2, T) - T / 2) <= 1.01 * h, axis=1)
    return float(np.max(np.abs(v))), float(np.max(np.abs(second[~near]), initial=0.0))


class TestBounds:
    """Each body's bound on |f| and on |f''| between breakpoints holds on dense samples."""

    @pytest.mark.parametrize(
        "f",
        [
            PeriodicFunction.constant(1.0, -0.7),
            tank_forcing(4.0),
            continuous_poly(2.0, 0.05, [-1.0, 0.5, 0.8, -0.3]),
            trapezoid(),
            sum_with_breakpoints(),
            PeriodicFunction.trig(1.0, -0.5, [(1.0, 1, 0.0), (0.25, 3, 0.5)]).positive_part(),
            PeriodicFunction.trig(1.0, 0.3, [(1.0, 3, 0.2), (-0.75, 3, 0.5), (0.5, 1, 0.0)]),
            PeriodicFunction.sum_of([PeriodicFunction.trig(1.0, 0.0, [(1.0, 7, 2.0)]),
                                     PeriodicFunction.trig(1.0, 0.2, [(0.9, 7, 2.5), (0.3, 2, 0.0)])]),
        ],
        ids=["constant", "trig", "poly", "piecewise-linear", "sum", "clip", "one-harmonic-twice", "harmonic-across-sum"],
    )
    def test_samples_inside_the_bounds(self, f):
        size, curvature = funcspec._bounds(f.body, f.period)
        top, second = sampled_curvature(f)
        assert top <= size
        # a second difference carries rounding of about 4 eps max|f| / h^2
        assert second <= curvature + 4.0 * EPS * size * (4096 / f.period) ** 2

    def test_sum_adds_its_parts_bounds(self):
        parts = sum_with_breakpoints().body.parts
        each = [funcspec._bounds(p, 1.0) for p in parts]
        assert funcspec._bounds(funcspec.Sum(parts), 1.0) == (each[0][0] + each[1][0], each[0][1] + each[1][1])

    def test_terms_of_one_harmonic_bound_the_curvature_as_one_phasor(self):
        # 1000 and -999 times one cosine, in one cosine and across a sum's two
        # parts: |f''| is at most (2 pi k)^2, not 1999 (2 pi k)^2; |f| keeps the sum of |a|
        w2 = (2.0 * math.pi * 3) ** 2
        one = PeriodicFunction.trig(1.0, 0.0, [(1000.0, 3, 0.4), (-999.0, 3, 0.4)])
        two = PeriodicFunction.sum_of([PeriodicFunction.trig(1.0, 0.0, [(1000.0, 3, 0.4)]),
                                       PeriodicFunction.trig(1.0, 0.0, [(-999.0, 3, 0.4)])])
        for f in (one, two):
            size, curvature = funcspec._bounds(f.body, 1.0)
            assert size == 1999.0
            assert w2 <= curvature <= w2 * (1.0 + 12 * EPS * 1999.0)  # the phasor sum and its allowance


class TestAliasing:
    """Harmonic 8191 aliased onto harmonic 1 on the 8192-point scan, which read min 0.2168."""

    def test_extrema_inside_the_dense_reference_enclosure(self):
        # a 2**24-point grid reads min -0.357329356766627 and max 2.357329356766626;
        # between its points f moves past them by at most max|f''| h^2 / 8
        gap = derivative_bounds(ALIASED.body, 1.0)[1] * 2.0**-48 / 8
        fmin, fmax, _, _ = ALIASED.extrema()
        assert -0.357329356766627 - gap <= fmin <= -0.357329356766627
        assert 2.357329356766626 <= fmax <= 2.357329356766626 + gap
        for sign, value in ((1.0, fmin), (-1.0, fmax)):
            assert enclosure(ALIASED, sign)[0] == value

    def test_positive_part_holds_every_sign_change(self):
        crossings = np.array(ALIASED.positive_part().breakpoints())
        assert len(crossings) == 6556
        tol = funcspec.EXTREMA_REFINE_TOL
        assert np.all((ALIASED(crossings - tol) > 0.0) != (ALIASED(crossings + tol) > 0.0))


def simpson_one_call_per_segment(f, a, b, splits=(), base_panels=1024):
    """The segmented Simpson rule as it was: one ``np.linspace`` and one call of f per segment."""
    pts = sorted({a, b, *(float(s) for s in splits if a < s < b)})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(2, int(round(base_panels * (hi - lo) / (b - a))))
        w = np.ones(2 * n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (hi - lo) / (6.0 * n) * float(np.dot(w, np.asarray(f(np.linspace(lo, hi, 2 * n + 1)), dtype=float)))
    return total


class TestSimpsonInOneCall:
    """``simpson_segmented`` calls f once on every segment's nodes, bit for bit
    the sum of one call per segment."""

    @pytest.mark.parametrize("a, m, T", [(1.6, 0.7, 1.0), (0.0, 0.25, 2 * math.pi), (2.0, 1.0, 1.0)])
    def test_unit_mass_kernels(self, a, m, T):
        at = greens.build(a, m, T).at
        assert simpson_segmented(at, 0.0, T) == simpson_one_call_per_segment(at, 0.0, T)

    @pytest.mark.parametrize(
        "f", [*(tank_forcing(v0) for v0 in (3.6, 4.0, 5.0, 10.0)), ALIASED], ids=["3.6", "4", "5", "10", "aliased"]
    )
    def test_positive_parts(self, f):
        g = f.positive_part()
        args = (lambda s: np.maximum(f(s), 0.0), 0.0, f.period)
        kwargs = {"splits": g.breakpoints(), "base_panels": 4096}
        assert len(g.breakpoints()) > 1
        assert simpson_segmented(*args, **kwargs) == simpson_one_call_per_segment(*args, **kwargs)
        assert g.mean() == simpson_segmented(*args, **kwargs) / f.period  # what the mean integrates


class TestCancellingTerms:
    """Two terms of one harmonic that nearly cancel: 0.95 + cos(2 pi 65536 t + pi/8), its
    cosine given as 1000 times it less 999 times it.  Bounded term by term, |f''| read
    about 3.4e14, no cell could be dropped, the halving stopped at the cell cap an eighth
    of a period of the top harmonic wide, and the minimum read about +0.026."""

    F = PeriodicFunction.trig(1.0, 0.95, [(1000.0, 65536, math.pi / 8), (-999.0, 65536, math.pi / 8)])

    def test_extrema_inside_their_enclosures(self, monkeypatch):
        sizes = []
        bisect = funcspec._bisect

        def recording(f, keep):
            return bisect(f, lambda l, r, fl, fr: sizes.append(len(l)) or keep(l, r, fl, fr))

        monkeypatch.setattr(funcspec, "_bisect", recording)
        f = PeriodicFunction(self.F.period, self.F.body)  # a fresh instance, so the bisection runs
        fmin, fmax, _, _ = f.extrema()
        assert fmin < 0.0
        assert_encloses(f, 1.0, mpmath.mpf(0.95) - 1)
        assert_encloses(f, -1.0, mpmath.mpf(0.95) + 1)
        assert max(sizes) < funcspec._MAX_CELLS


class TestCrossings:
    def test_zero_nodes_are_crossings(self):
        assert funcspec._find_crossings(zeros_at_nodes(), 1.0) == [0.25, 0.75]

    def test_exact_zeros_of_a_sum_are_crossings(self):
        assert funcspec._find_crossings(summed_zeros_at_nodes(), 1.0) == [0.25, 0.75]

    def test_zero_everywhere_changes_no_sign(self):
        assert funcspec._find_crossings(all_ties(), 1.0) == []

    @pytest.mark.parametrize(
        "f",
        [
            sum_with_breakpoints(),
            tank_forcing(4.0),
            PeriodicFunction.trig(1.0, 0.1, [(0.5, 2, 0.3)]),
            PeriodicFunction.sum_of([trapezoid(), PeriodicFunction.trig(1.0, -0.2, [(0.4, 5, 0.7), (0.2, 2, 1.1)])]),
        ],
    )
    def test_crossings_against_mpmath(self, f):
        new, ref = funcspec._find_crossings(f, f.period), mp_crossings(f)
        assert len(new) == len(ref) > 0
        np.testing.assert_allclose(new, ref, rtol=0, atol=funcspec.EXTREMA_REFINE_TOL * max(1.0, f.period))


class TestPolyCrossings:
    @pytest.mark.parametrize(
        "f",
        [
            zeros_at_nodes(),
            # t (t - 1/2) (t - 1): a zero at t = 0 and one at the grid node 1/2
            PeriodicFunction.poly(1.0, [0.0, 0.5, -1.5, 1.0]),
            # the benchmark cubic lowered to cross zero twice
            PeriodicFunction.poly(1.0, [-1e-3, -0.02, 0.06, -0.04]),
            continuous_poly(2.0, 0.05, [-1.0, 0.5, 0.8, -0.3]),
        ],
    )
    def test_roots_match_mpmath(self, f):
        new, ref = funcspec._find_crossings(f, f.period), mp_poly_roots(f)
        assert len(new) == len(ref) > 0
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-15 * f.period)
        assert set(x for x in ref if f(x) == 0.0) <= set(new)  # exact zeros bit for bit

    @given(polys)
    def test_drawn_roots_are_roots(self, f):
        crossings = funcspec._find_crossings(f, f.period)
        assert crossings == sorted(set(crossings))
        assert all(0.0 <= t < f.period for t in crossings)
        for t in crossings:
            assert abs(f(t)) <= 4 * horner_bound(f)

    def test_positive_part_of_a_crossing_cubic(self):
        f = PeriodicFunction.poly(1.0, [-1e-3, -0.02, 0.06, -0.04])
        g = f.positive_part()
        assert g.breakpoints() == funcspec._find_crossings(f, 1.0)
        assert g.mean() == pytest.approx(
            PeriodicFunction(1.0, funcspec.PositivePart(f.body, tuple(mp_poly_roots(f)))).mean(), rel=1e-14
        )


class TestInPlaceEval:
    @given(
        periods,
        st.floats(-2.0, 2.0),
        trig_terms,
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
    )
    def test_trig_bitwise_equal_to_the_earlier_formula(self, period, offset, terms, ts):
        body = PeriodicFunction.trig(period, offset, terms).body
        for t in (np.asarray(ts), np.linspace(0.0, period, 8192, endpoint=False), ts[0]):
            new, old = body.eval(t, period), earlier_trig_eval(body.offset, body.terms, period, t)
            assert type(new) is type(old)
            assert np.asarray(new).tobytes() == np.asarray(old).tobytes()

    @given(
        periods,
        st.floats(-1.0, 1.0),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
    )
    def test_poly_bitwise_equal_to_the_earlier_formula(self, period, c0, c2, c3, ts):
        body = continuous_cubic(period, c0, c2, c3).body
        for t in (np.asarray(ts), np.linspace(0.0, period, 8192, endpoint=False), ts[0]):
            new, old = body.eval(t, period), earlier_poly_eval(body.coeffs, period, t)
            assert type(new) is type(old)
            assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


def test_extrema_with_breakpoints_load_no_numpy_ma():
    # the breakpoint merge goes through numerics.sorted_unique; np.unique
    # would import numpy.ma on its first call
    code = (
        "import sys\n"
        "from liebau import PeriodicFunction\n"
        "pw = PeriodicFunction.piecewise_linear([(0.0, -0.5), (0.3, 0.7), (0.6, -0.2), (1.0, -0.5)])\n"
        "cos = PeriodicFunction.trig(1.0, -0.5, [(1.0, 1, 0.0)])\n"
        "for f in (PeriodicFunction.sum_of([pw, cos]), cos.positive_part()):\n"
        "    assert f.breakpoints()\n"
        "    f.extrema()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestComputedOnce:
    def test_second_extrema_call_returns_same_tuple(self):
        f = PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)])
        first = f.extrema()
        assert f.extrema() is first

    def test_second_positive_part_call_returns_same_function(self):
        f = sum_with_breakpoints()
        assert f.positive_part() is f.positive_part()

    def test_bisection_runs_once_per_instance(self, monkeypatch):
        calls = []
        extremum = funcspec._extremum

        def counting(f, sign):
            calls.append(sign)
            return extremum(f, sign)

        monkeypatch.setattr(funcspec, "_extremum", counting)
        f = sum_with_breakpoints()
        for _ in range(3):
            f.extrema()
        assert calls == [1.0, -1.0]
        sum_with_breakpoints().extrema()  # an equal but distinct instance bisects on its own
        assert calls == [1.0, -1.0] * 2

    def test_equality_hash_and_repr_unchanged_by_caches(self):
        f, g = sum_with_breakpoints(), sum_with_breakpoints()
        before = (hash(f), repr(f))
        f.extrema()
        f.positive_part()
        assert f == g and g == f
        assert (hash(f), repr(f)) == before
        assert hash(f) == hash(g)
        assert len({f, g}) == 1
