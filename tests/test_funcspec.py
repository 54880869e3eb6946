import math

import numpy as np
import pytest

from liebau import funcspec
from liebau.errors import LiebauError
from liebau.funcspec import PeriodicFunction

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
        assert argmin == pytest.approx(t_lo, abs=1e-6)
        assert argmax == pytest.approx(t_hi, abs=1e-6)

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


def all_ties() -> PeriodicFunction:
    # zero amplitude: every grid value equals the offset (0), so every
    # point ties with its neighbours and every node is a zero
    return PeriodicFunction.trig(1.0, 0.0, [(0.0, 1, 0.0)])


def oracle_winners(fv: np.ndarray) -> list[int]:
    """The scalar scan for local minima that funcspec._local_minima replaced."""
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
    @pytest.mark.parametrize("make", [sum_with_breakpoints, zeros_at_nodes])
    def test_winners_match_scalar_scan_inside_extrema(self, make, monkeypatch):
        seen = []
        local_minima = funcspec._local_minima

        def recording(fv):
            out = local_minima(fv)
            seen.append((fv.copy(), out))
            return out

        monkeypatch.setattr(funcspec, "_local_minima", recording)
        f = make()
        f.extrema()
        assert len(seen) == 2  # one scan for the minimum, one for the maximum
        for fv, winners in seen:
            assert winners.tolist() == oracle_winners(fv)
        if f.breakpoints():
            assert len(seen[0][0]) > funcspec._SCAN_POINTS

    def test_winners_match_scalar_scan_when_all_tie(self):
        f = all_ties()
        fv = np.asarray(f(np.linspace(0.0, 1.0, funcspec._SCAN_POINTS, endpoint=False)))
        for sign in (1.0, -1.0):
            winners = funcspec._local_minima(sign * fv).tolist()
            assert winners == oracle_winners(sign * fv)
            assert winners == list(range(funcspec._SCAN_POINTS))

    @pytest.mark.parametrize("make", [all_ties, sum_with_breakpoints, zeros_at_nodes])
    def test_crossings_bitwise_equal_scalar_scan(self, make):
        f = make()
        new = funcspec._find_crossings(f, f.period)
        old = oracle_crossings(f, f.period)
        assert np.array_equal(np.asarray(new), np.asarray(old))
        assert [x.hex() for x in new] == [x.hex() for x in old]

    def test_zero_nodes_are_crossings(self):
        assert funcspec._find_crossings(zeros_at_nodes(), 1.0) == [0.25, 0.75]


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
        f = zeros_at_nodes()
        for _ in range(3):
            f.extrema()
        assert len(calls) == 1
        zeros_at_nodes().extrema()  # an equal but distinct instance scans on its own
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
