import math

import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liebau import funcspec, presets
from liebau.errors import LiebauError
from liebau.funcspec import PeriodicFunction
from liebau.numerics import ZOOM_MAX_POINTS, ZOOM_POINTS

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

    @pytest.mark.parametrize("harmonic", [1.5, math.inf, math.nan, 0, -1, True, 2**53, "1"])
    def test_harmonic_must_be_a_whole_number(self, harmonic):
        # int() once turned 1.5 into harmonic 1, and inf into an OverflowError
        with pytest.raises(LiebauError, match="harmonic"):
            PeriodicFunction.trig(1.0, 0.0, [(1.0, harmonic, 0.0)])

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
    # -0.1875 + t - t^2 vanishes exactly at the scan nodes t = 0.25 and 0.75
    return PeriodicFunction.poly(1.0, [-0.1875, 1.0, -1.0])


def scanned_zeros_at_nodes() -> PeriodicFunction:
    # zeros_at_nodes plus a zero constant: the same values, from a sum, which is scanned
    return PeriodicFunction.sum_of([zeros_at_nodes(), PeriodicFunction.constant(1.0, 0.0)])


def all_ties() -> PeriodicFunction:
    # zero amplitudes: every grid value equals the offset (0), so every point
    # ties with its neighbours and every node is a zero; two terms, so it is scanned
    return PeriodicFunction.trig(1.0, 0.0, [(0.0, 1, 0.0), (0.0, 2, 0.0)])


def oracle_winners(fv: np.ndarray) -> list[int]:
    """The scalar scan for local minima that the vectorized scan replaced."""
    n = len(fv)
    return [i for i in range(n) if fv[i] <= fv[(i - 1) % n] and fv[i] <= fv[(i + 1) % n]]


def oracle_crossings(f: PeriodicFunction, period: float) -> list[float]:
    """The scalar crossing scan that funcspec._find_crossings replaced."""
    grid = np.linspace(0.0, period, funcspec._SCAN_POINTS + 1)
    vals = np.asarray(f(grid), dtype=float)
    out: list[float] = []
    for i in range(funcspec._SCAN_POINTS):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            out.append(float(grid[i]))
        elif a * b < 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            flo = a
            for _ in range(80):
                midp = 0.5 * (lo + hi)
                fm = float(f(midp))
                if flo * fm <= 0.0:
                    hi = midp
                else:
                    lo, flo = midp, fm
            out.append(0.5 * (lo + hi))
    return out


class TestVectorisedScans:
    @pytest.mark.parametrize("make", [sum_with_breakpoints, scanned_zeros_at_nodes])
    def test_winners_match_scalar_scan_inside_extrema(self, make, monkeypatch):
        seen = []
        local_extrema = funcspec._local_extrema

        def recording(vals):
            out = local_extrema(vals)
            seen.append((vals.copy(), out))
            return out

        monkeypatch.setattr(funcspec, "_local_extrema", recording)
        f = make()
        f.extrema()
        assert len(seen) == 1  # one scan finds the minima and the maxima
        vals, (lows, highs) = seen[0]
        assert lows.tolist() == oracle_winners(vals)
        assert highs.tolist() == oracle_winners(-vals)
        if f.breakpoints():
            assert len(vals) > funcspec._SCAN_POINTS

    def test_winners_match_scalar_scan_when_all_tie(self):
        f = all_ties()
        fv = np.asarray(f(np.linspace(0.0, 1.0, funcspec._SCAN_POINTS, endpoint=False)))
        for sign, winners in zip((1.0, -1.0), funcspec._local_extrema(fv)):
            assert winners.tolist() == oracle_winners(sign * fv)
            assert winners.tolist() == list(range(funcspec._SCAN_POINTS))

    @pytest.mark.parametrize("make", [all_ties, sum_with_breakpoints, zeros_at_nodes])
    def test_crossings_bitwise_equal_scalar_scan(self, make):
        f = make()
        new = funcspec._find_crossings(f, f.period)
        old = oracle_crossings(f, f.period)
        assert np.array_equal(np.asarray(new), np.asarray(old))
        assert [x.hex() for x in new] == [x.hex() for x in old]

    def test_zero_nodes_are_crossings(self):
        assert funcspec._find_crossings(zeros_at_nodes(), 1.0) == [0.25, 0.75]


def recording_calls(monkeypatch) -> list[int]:
    """Sizes of every evaluation of any PeriodicFunction from now on."""
    sizes: list[int] = []
    call = PeriodicFunction.__call__

    def recording(self, t):
        sizes.append(int(np.size(t)))
        return call(self, t)

    monkeypatch.setattr(PeriodicFunction, "__call__", recording)
    return sizes


def counting_zoom(monkeypatch) -> list[tuple[int, int]]:
    """(minimum brackets, maximum brackets) of every zoom_minima call from now on."""
    brackets = []
    zoom = funcspec.zoom_minima

    def counting(f, left, right, t, v, tol, sign):
        brackets.append((int(np.sum(sign > 0)), int(np.sum(sign < 0))))
        return zoom(f, left, right, t, v, tol, sign)

    monkeypatch.setattr(funcspec, "zoom_minima", counting)
    return brackets


class TestExtremaZoom:
    def test_one_call_per_round_for_both_signs(self, monkeypatch):
        sizes = []
        zoom = funcspec.zoom_minima

        def counting(f, *args):
            return zoom(lambda s: sizes.append(len(s)) or f(s), *args)

        monkeypatch.setattr(funcspec, "zoom_minima", counting)
        # a zero second term keeps the harmonic-3 cosine's values in a body that is scanned
        PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 3, 0.3), (0.0, 1, 0.0)]).extrema()
        # a grid-cell bracket shrinks 64-fold per round from 2/8192 to 1e-12 in 5 rounds;
        # the 3 minima and 3 maxima of the harmonic-3 cosine share each round's call
        assert 1 <= len(sizes) <= 5
        assert set(sizes) == {6 * (2 * ZOOM_POINTS + 1)}

    def test_winner_at_grid_index_zero_zooms_across_the_wrap(self):
        # minimum 1 at t* just below T, so the scan's winner is node 0 and the
        # zoom has to search its left neighbour cell, which starts at grid[-1] - T
        t_star = 1.0 - 0.3 / funcspec._SCAN_POINTS
        f = PeriodicFunction.trig(1.0, 2.0, [(1.0, 1, math.pi - 2.0 * math.pi * t_star)])
        grid = np.linspace(0.0, 1.0, funcspec._SCAN_POINTS, endpoint=False)
        assert 0 in funcspec._local_extrema(f(grid))[0].tolist()
        assert float(np.min(f(grid))) > 1.0 + 1e-9
        fmin, _, argmin, _ = f.extrema()
        assert fmin == pytest.approx(1.0, abs=4e-16)
        assert 0.0 <= argmin < 1.0
        assert abs(argmin - t_star) <= 1e-7  # the rounding-flat band of a unit cosine

    @pytest.mark.parametrize(
        "f, expected",
        [
            # (min, max) and the brackets zoomed per sign
            # zero amplitude: all 8192 nodes tie for both the minimum and the maximum
            (all_ties(), ((0.0, 0.0), (1, 1))),
            # cos < 1/2 on two thirds of the period, so about 5461 nodes tie at 0,
            # for the minimum and, flat as they are, for the maximum beside the peak
            (PeriodicFunction.trig(1.0, -0.5, [(1.0, 1, 0.0)]).positive_part(), ((0.0, 0.5), (1, 2))),
        ],
    )
    def test_plateau_of_tied_winners(self, monkeypatch, f, expected):
        grid = np.linspace(0.0, 1.0, funcspec._SCAN_POINTS, endpoint=False)
        assert len(funcspec._local_extrema(f(grid))[0]) > 4096
        brackets = counting_zoom(monkeypatch)
        sizes = recording_calls(monkeypatch)
        fmin, fmax, _, _ = f.extrema()
        assert (fmin, fmax) == expected[0]
        assert max(sizes) <= ZOOM_MAX_POINTS
        # each flat stretch is one bracket per sign (about 5461 or 8192 before)
        assert brackets == [expected[1]]

    def test_equal_values_apart_stay_separate_brackets(self, monkeypatch):
        # the two minima of a harmonic-2 cosine have equal grid values but are
        # not adjacent, so each keeps its own bracket; a zero second term keeps
        # its values in a body that is scanned
        brackets = counting_zoom(monkeypatch)
        fmin, fmax, _, _ = PeriodicFunction.trig(1.0, 2.0, [(1.0, 2, 0.0), (0.0, 4, 0.0)]).extrema()
        assert brackets == [(2, 2)]
        assert (fmin, fmax) == (1.0, 3.0)


def two_pass_zoom(f, left, right, t, v, tol):
    """The earlier ``numerics.zoom_minima``: one sign, its chunks refined one after another."""
    t, v = np.array(t, dtype=float), np.array(v, dtype=float)
    steps = np.linspace(0.0, 1.0, 2 * ZOOM_POINTS + 1)
    chunk = ZOOM_MAX_POINTS // len(steps)
    for lo in range(0, len(t), chunk):
        a, b = left[lo : lo + chunk], right[lo : lo + chunk]
        tc, vc = t[lo : lo + chunk], v[lo : lo + chunk]
        rows = np.arange(len(a))
        for _ in range(16):
            if np.all(b - a <= tol):
                break
            pts = a[:, None] + (b - a)[:, None] * steps
            vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
            j = np.argmin(vals, axis=1)
            lowest = vals[rows, j]
            better = lowest < vc
            tc[better], vc[better] = pts[rows, j][better], lowest[better]
            a, b = pts[rows, np.maximum(j - 1, 0)], pts[rows, np.minimum(j + 1, 2 * ZOOM_POINTS)]
    return t, v


def two_pass_extrema(f: PeriodicFunction) -> tuple[float, float, float, float]:
    """The earlier ``PeriodicFunction._scanned_extrema``: the minimum and the
    maximum each scanned, grouped into brackets and zoomed in its own pass."""
    T = f.period
    grid = np.linspace(0.0, T, funcspec._SCAN_POINTS, endpoint=False)
    extra = f.breakpoints()
    if extra:
        grid = np.unique(np.concatenate([grid, np.asarray(extra, dtype=float)]))
    vals = np.asarray(f(grid), dtype=float)
    tol = funcspec.EXTREMA_REFINE_TOL * max(1.0, T)

    def refine(sign):
        fv = sign * vals
        i = np.flatnonzero((fv <= np.roll(fv, 1)) & (fv <= np.roll(fv, -1)))
        starts = np.ones(len(i), dtype=bool)
        starts[1:] = (np.diff(i) != 1) | (fv[i[1:]] != fv[i[:-1]])
        first, last = i[starts], i[np.append(starts[1:], True)]
        n = len(grid)
        left = grid[first - 1] - np.where(first == 0, T, 0.0)
        right = grid[(last + 1) % n] + np.where(last == n - 1, T, 0.0)
        t, v = two_pass_zoom(lambda s: sign * f(s), left, right, grid[first], fv[first], tol)
        k = int(np.argmin(v))
        return float(np.mod(t[k], T)), sign * float(v[k])

    argmin, fmin = refine(+1.0)
    argmax, fmax = refine(-1.0)
    return fmin, fmax, argmin, argmax


def assert_scan_bit_identical(f: PeriodicFunction) -> None:
    new = PeriodicFunction(f.period, f.body)._scanned_extrema()  # a fresh instance: no kept values
    assert [x.hex() for x in new] == [x.hex() for x in two_pass_extrema(f)]


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


class TestTwoPassOracle:
    """One merged pass gives the extrema of the earlier two passes, bit for bit."""

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_preset_forcings(self, name):
        e = presets.preset(name).problem.e
        assert_scan_bit_identical(e)
        assert_scan_bit_identical(e.positive_part())

    def test_benchmark_classes_on_a_grid(self):
        # the benchmark's cosine (harmonics 1-3) and cubic forcings at offset 1.54215
        for amp in np.linspace(0.0, 0.0021, 7):
            for k in (1, 2, 3):
                assert_scan_bit_identical(PeriodicFunction.trig(1.0, 1.54215, [(float(amp), k, 0.0)]))
        for s in np.linspace(-0.02, 0.02, 9):
            s = float(s)
            assert_scan_bit_identical(PeriodicFunction.poly(1.0, [1.54215, s, -3.0 * s, 2.0 * s]))

    @given(periods, st.floats(-1.0, 1.0), trig_terms)
    def test_drawn_trig(self, period, offset, terms):
        assert_scan_bit_identical(PeriodicFunction.trig(period, offset, terms))

    @given(periods, st.floats(-1.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_drawn_poly(self, period, c0, c2, c3):
        assert_scan_bit_identical(continuous_cubic(period, c0, c2, c3))

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5),
        st.floats(-1.0, 1.0),
        trig_terms,
    )
    def test_drawn_sum_with_breakpoints(self, levels, offset, terms):
        table = [(i / len(levels), v) for i, v in enumerate(levels)] + [(1.0, levels[0])]
        f = PeriodicFunction.sum_of(
            [PeriodicFunction.piecewise_linear(table), PeriodicFunction.trig(1.0, offset, terms)]
        )
        assert f.breakpoints()
        assert_scan_bit_identical(f)

    @given(
        st.floats(-1.5, 0.5),
        st.tuples(st.floats(0.1, 1.0), st.integers(1, 4), st.floats(0.0, 2.0 * math.pi)),
        st.tuples(st.floats(-1.0, 1.0), st.integers(1, 6), st.floats(0.0, 2.0 * math.pi)),
    )
    def test_drawn_two_term_positive_parts(self, offset, first, second):
        assert_scan_bit_identical(PeriodicFunction.trig(1.0, offset, [first, second]).positive_part())

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
            (-0.5, [(1.0, 1, 0.0)]),
        ],
    )
    def test_plateau_plus_peak(self, offset, terms):
        # zero plateaus and peaks: the minima's wide plateau brackets need more
        # rounds than the maxima's grid cells, and the first two forcings' fmax
        # moves by an ulp if the maxima keep zooming until the minima are done
        assert_scan_bit_identical(PeriodicFunction.trig(1.0, offset, terms).positive_part())

    @pytest.mark.parametrize("level", [0.0, -0.0, 1.54215, -3.0])
    def test_all_ties(self, level):
        assert_scan_bit_identical(PeriodicFunction.trig(1.0, level, [(0.0, 3, 0.0)]))
        assert_scan_bit_identical(PeriodicFunction.poly(2.0, [level]))

    def test_more_brackets_than_one_chunk(self):
        # 3000 minima and 3000 maxima: each sign spans 6 groups of 508 brackets
        f = PeriodicFunction.trig(1.0, 1.0, [(0.3, 3000, 0.1)])
        grid = np.linspace(0.0, 1.0, funcspec._SCAN_POINTS, endpoint=False)
        assert len(funcspec._local_extrema(f(grid))[0]) > ZOOM_MAX_POINTS // (2 * ZOOM_POINTS + 1)
        assert_scan_bit_identical(f)


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


def scan_bound(f: PeriodicFunction) -> float:
    """Twice horner_bound, plus the slope bound sum i |c_i| T^(i-1) times the scan's refinement
    tolerance: the scan reaches the left limit at the wrap only to within that tolerance."""
    coeffs, T = f.body.coeffs, f.period
    slope = sum(i * abs(c) * T ** (i - 1) for i, c in enumerate(coeffs))
    return 2 * horner_bound(f) + slope * funcspec.EXTREMA_REFINE_TOL * max(1.0, T)


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
        # eval's own operations with the cosine at exactly -1 and 1; the scan
        # reads the same bits or, when its zoom narrows to the first of a
        # rounding plateau's tied samples and misses the top one, 1 ulp inside
        fmin, fmax, argmin, argmax = f.extrema()
        offset, ((amp, k, _),) = f.body.offset, f.body.terms
        low, high = (0.0 + offset) - abs(amp), (0.0 + offset) + abs(amp)
        if amp == 0.0:
            low = high = f(0.0)
        assert [fmin.hex(), fmax.hex()] == [low.hex(), high.hex()]
        assert (f(argmin), f(argmax)) == (fmin, fmax)
        assert 0.0 <= argmin < f.period / k and 0.0 <= argmax < f.period / k
        scan = PeriodicFunction(f.period, f.body)._scanned_extrema()
        assert 0.0 <= scan[0] - fmin <= math.ulp(fmin) and 0.0 <= fmax - scan[1] <= math.ulp(fmax)

    def test_benchmark_cosines_equal_the_scan_bit_for_bit(self):
        for amp in np.linspace(-0.0021, 0.0021, 43):
            for k in (1, 2, 3):
                f = PeriodicFunction.trig(1.0, 1.54215, [(float(amp), k, 0.0)])
                new, scan = f.extrema(), PeriodicFunction(f.period, f.body)._scanned_extrema()
                assert [x.hex() for x in new[:2]] == [x.hex() for x in scan[:2]]

    def test_scan_can_miss_the_top_ulp_of_a_cosine(self):
        f = PeriodicFunction.trig(1.0, 0.8611196922831792, [(1.25, 8, 752.25)])
        assert f.extrema()[1] == 0.8611196922831792 + 1.25
        assert PeriodicFunction(f.period, f.body)._scanned_extrema()[1] == math.nextafter(f.extrema()[1], 0.0)

    @given(polys)
    def test_poly_agrees_with_scan_and_mpmath(self, f):
        fmin, fmax, argmin, argmax = f.extrema()
        scan = PeriodicFunction(f.period, f.body)._scanned_extrema()
        bound = horner_bound(f)
        ref_min, ref_max = mp_poly_extrema(f)
        assert abs(fmin - scan[0]) <= scan_bound(f) and abs(fmax - scan[1]) <= scan_bound(f)
        assert abs(mpmath.mpf(fmin) - ref_min) <= bound and abs(mpmath.mpf(fmax) - ref_max) <= bound
        assert 0.0 <= argmin < f.period and 0.0 <= argmax < f.period

    def test_benchmark_cubics_within_one_ulp_of_the_scan(self):
        for s in np.linspace(-0.02, 0.02, 41):
            f = PeriodicFunction.poly(1.0, [1.54215, float(s), -3.0 * float(s), 2.0 * float(s)])
            new, scan = f.extrema(), PeriodicFunction(f.period, f.body)._scanned_extrema()
            for a, b in zip(new[:2], scan[:2]):
                assert abs(a - b) <= math.ulp(b)

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

    def test_no_scan_no_roots_no_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(PeriodicFunction, "_scanned_extrema", refuse)
        monkeypatch.setattr(funcspec, "zoom_minima", refuse)
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
        assert not [c for c in calls if "linalg" in c[0] or c[1] in ("roots", "zoom_minima", "_scanned_extrema")]
        assert ("funcspec.py", "_monotone_root") in {(os.path.basename(a), b) for a, b in calls}


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
    def test_roots_match_the_bisection_scan(self, f):
        new, old = funcspec._find_crossings(f, f.period), oracle_crossings(f, f.period)
        assert len(new) == len(old) > 0
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-15 * f.period)
        assert set(x for x in old if f(x) == 0.0) <= set(new)  # exact zeros bit for bit

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
            PeriodicFunction(1.0, funcspec.PositivePart(f.body, tuple(oracle_crossings(f, f.period)))).mean(), rel=1e-14
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

    def test_scan_runs_once_per_instance(self, monkeypatch):
        calls = []
        scan = PeriodicFunction._scanned_extrema

        def counting(self):
            calls.append(self)
            return scan(self)

        monkeypatch.setattr(PeriodicFunction, "_scanned_extrema", counting)
        f = sum_with_breakpoints()
        for _ in range(3):
            f.extrema()
        assert len(calls) == 1
        sum_with_breakpoints().extrema()  # an equal but distinct instance scans on its own
        assert len(calls) == 2

    def test_equality_hash_and_repr_unchanged_by_caches(self):
        f, g = sum_with_breakpoints(), sum_with_breakpoints()
        before = (hash(f), repr(f))
        f.extrema()
        f.positive_part()
        assert f == g and g == f
        assert (hash(f), repr(f)) == before
        assert hash(f) == hash(g)
        assert len({f, g}) == 1
