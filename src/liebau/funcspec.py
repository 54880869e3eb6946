"""Symbolic-lite periodic scalar functions.

All forcing and coefficient data in this package is a continuous T-periodic
function of time, represented by one of a small set of closed-form bodies:
constants, trigonometric polynomials with integer harmonics, polynomials in
t wrapped on one period, piecewise-linear tables, and sums of those.  The
representation is rich enough for every instance we care about while keeping
means and extrema exact (or near-exact) so that downstream inequality
margins are trustworthy.

Instances are immutable after construction and every operation is pure.
A ``PeriodicFunction``'s extrema and positive part are computed lazily, once
per instance, and kept on the instance: repeated ``extrema()`` and
``positive_part()`` calls return the same objects.  The kept values live
outside the dataclass fields, so equality, hashing and ``repr`` are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import BadPeriod, LiebauError
from .numerics import parabolic_min, simpson_segmented

# Refinement tolerance (in t) for grid-based extrema; surfaced in
# certificates because condition margins consume these values.
EXTREMA_REFINE_TOL = 1e-12
_SCAN_POINTS = 8192

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class Constant:
    value: float

    def eval(self, t: ArrayLike, period: float) -> ArrayLike:
        return self.value + np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else self.value

    def mean(self, period: float) -> float:
        return self.value

    def breakpoints(self, period: float) -> list[float]:
        return []

    def scale(self, factor: float) -> "Constant":
        return Constant(self.value * factor)


@dataclass(frozen=True)
class TrigPoly:
    """offset + sum of amplitude * cos(2*pi*harmonic*t/T + phase) terms."""

    offset: float
    terms: tuple[tuple[float, int, float], ...]

    def __post_init__(self):
        for amp, k, _ in self.terms:
            if int(k) != k or k < 1:
                raise LiebauError(f"harmonic must be a positive integer, got {k!r}")

    def eval(self, t: ArrayLike, period: float) -> ArrayLike:
        out = self.offset + np.zeros_like(np.asarray(t, dtype=float))
        for amp, k, phase in self.terms:
            out = out + amp * np.cos(2.0 * np.pi * k * np.asarray(t) / period + phase)
        return out if np.ndim(t) else float(out)

    def mean(self, period: float) -> float:
        # integer harmonics integrate to zero over one period
        return self.offset

    def breakpoints(self, period: float) -> list[float]:
        return []

    def scale(self, factor: float) -> "TrigPoly":
        return TrigPoly(self.offset * factor, tuple((a * factor, k, p) for a, k, p in self.terms))


@dataclass(frozen=True)
class PolyOnPeriod:
    """Polynomial in t (ascending coefficients) evaluated on [0, T) then wrapped.

    The periodic extension must be continuous: p(0) and p(T) have to agree
    (within rounding of the stored coefficients).
    """

    coeffs: tuple[float, ...]

    def _value_raw(self, t: ArrayLike) -> ArrayLike:
        out = np.zeros_like(np.asarray(t, dtype=float))
        for c in reversed(self.coeffs):
            out = out * np.asarray(t) + c
        return out

    def eval(self, t: ArrayLike, period: float) -> ArrayLike:
        tt = np.mod(t, period)
        out = self._value_raw(tt)
        return out if np.ndim(t) else float(out)

    def mean(self, period: float) -> float:
        total = 0.0
        for i, c in enumerate(self.coeffs):
            total += c * period ** (i + 1) / (i + 1)
        return total / period

    def breakpoints(self, period: float) -> list[float]:
        return []

    def scale(self, factor: float) -> "PolyOnPeriod":
        return PolyOnPeriod(tuple(c * factor for c in self.coeffs))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Breakpoint table (t_i, v_i) with t_0 = 0, t_last = T and v_0 = v_last."""

    points: tuple[tuple[float, float], ...]

    def eval(self, t: ArrayLike, period: float) -> ArrayLike:
        ts = np.array([p[0] for p in self.points])
        vs = np.array([p[1] for p in self.points])
        out = np.interp(np.mod(t, period), ts, vs)
        return out if np.ndim(t) else float(out)

    def mean(self, period: float) -> float:
        ts = np.array([p[0] for p in self.points])
        vs = np.array([p[1] for p in self.points])
        return float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))) / period

    def breakpoints(self, period: float) -> list[float]:
        return [p[0] for p in self.points[1:-1]]

    def scale(self, factor: float) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((t, v * factor) for t, v in self.points))


@dataclass(frozen=True)
class Sum:
    parts: tuple[object, ...]

    def eval(self, t: ArrayLike, period: float) -> ArrayLike:
        out = self.parts[0].eval(t, period)
        for p in self.parts[1:]:
            out = out + p.eval(t, period)
        return out

    def mean(self, period: float) -> float:
        return sum(p.mean(period) for p in self.parts)

    def breakpoints(self, period: float) -> list[float]:
        out: list[float] = []
        for p in self.parts:
            out.extend(p.breakpoints(period))
        return sorted(set(out))

    def scale(self, factor: float) -> "Sum":
        return Sum(tuple(p.scale(factor) for p in self.parts))


@dataclass(frozen=True)
class PositivePart:
    """max(inner, 0); sign crossings located once and kept as breakpoints."""

    inner: object
    crossings: tuple[float, ...] = field(default=())

    def eval(self, t: ArrayLike, period: float) -> ArrayLike:
        return np.maximum(self.inner.eval(t, period), 0.0)

    def mean(self, period: float) -> float:
        splits = self.breakpoints(period)
        return (
            simpson_segmented(
                lambda s: np.maximum(self.inner.eval(s, period), 0.0),
                0.0,
                period,
                splits=splits,
                base_panels=4096,
            )
            / period
        )

    def breakpoints(self, period: float) -> list[float]:
        return sorted(set(list(self.crossings) + self.inner.breakpoints(period)))

    def scale(self, factor: float):
        raise LiebauError("scaling a clipped function is not supported")


Body = Union[Constant, TrigPoly, PolyOnPeriod, PiecewiseLinear, Sum, PositivePart]


@dataclass(frozen=True)
class PeriodicFunction:
    """A continuous T-periodic scalar function with a closed-form body."""

    period: float
    body: Body

    def __post_init__(self):
        if not (self.period > 0.0) or not math.isfinite(self.period):
            raise BadPeriod(f"period must be positive, got {self.period!r}")
        _validate(self.body, self.period)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(period: float, value: float) -> "PeriodicFunction":
        return PeriodicFunction(period, Constant(float(value)))

    @staticmethod
    def trig(
        period: float, offset: float, terms: Sequence[tuple[float, int, float]] = ()
    ) -> "PeriodicFunction":
        return PeriodicFunction(
            period, TrigPoly(float(offset), tuple((float(a), int(k), float(p)) for a, k, p in terms))
        )

    @staticmethod
    def poly(period: float, coeffs: Sequence[float]) -> "PeriodicFunction":
        return PeriodicFunction(period, PolyOnPeriod(tuple(float(c) for c in coeffs)))

    @staticmethod
    def piecewise_linear(points: Sequence[tuple[float, float]]) -> "PeriodicFunction":
        pts = tuple((float(t), float(v)) for t, v in points)
        return PeriodicFunction(pts[-1][0], PiecewiseLinear(pts))

    @staticmethod
    def sum_of(parts: Sequence["PeriodicFunction"]) -> "PeriodicFunction":
        period = parts[0].period
        for p in parts:
            if p.period != period:
                raise LiebauError("all summands must share one period")
        return PeriodicFunction(period, Sum(tuple(p.body for p in parts)))

    # -- operations ------------------------------------------------------------

    def __call__(self, t: ArrayLike) -> ArrayLike:
        return self.body.eval(t, self.period)

    def mean(self) -> float:
        return float(self.body.mean(self.period))

    def breakpoints(self) -> list[float]:
        return self.body.breakpoints(self.period)

    def scale(self, factor: float) -> "PeriodicFunction":
        return PeriodicFunction(self.period, self.body.scale(float(factor)))

    def plus_constant(self, value: float) -> "PeriodicFunction":
        return PeriodicFunction(self.period, Sum((Constant(float(value)), self.body)))

    def extrema(self) -> tuple[float, float, float, float]:
        """(min, max, argmin, argmax) over one period.

        Exact for constants and piecewise-linear tables (and clips of them);
        anything else is scanned on a uniform grid and each local winner is
        refined by parabolic interpolation down to EXTREMA_REFINE_TOL in t.
        Computed on the first call; later calls return the same tuple.
        """
        return self._extrema

    @cached_property
    def _extrema(self) -> tuple[float, float, float, float]:
        body = self.body
        if isinstance(body, Constant):
            return body.value, body.value, 0.0, 0.0
        if isinstance(body, PiecewiseLinear):
            ts = np.array([p[0] for p in body.points])
            vs = np.array([p[1] for p in body.points])
            imin, imax = int(np.argmin(vs)), int(np.argmax(vs))
            return float(vs[imin]), float(vs[imax]), float(ts[imin]), float(ts[imax])
        return self._scanned_extrema()

    def _scanned_extrema(self) -> tuple[float, float, float, float]:
        T = self.period
        grid = np.linspace(0.0, T, _SCAN_POINTS, endpoint=False)
        extra = self.breakpoints()
        if extra:
            grid = np.unique(np.concatenate([grid, np.asarray(extra, dtype=float)]))
        vals = np.asarray(self(grid), dtype=float)
        tol = EXTREMA_REFINE_TOL * max(1.0, T)

        def refine(sign: float) -> tuple[float, float]:
            f = lambda t: sign * float(self(t))
            n = len(grid)
            best_t, best_v = 0.0, math.inf
            for i in _local_minima(sign * vals).tolist():
                left = grid[i - 1] if i > 0 else grid[-1] - T
                right = grid[i + 1] if i + 1 < n else grid[0] + T
                t_star = parabolic_min(f, left, grid[i], right, tol)
                v_star = f(t_star)
                if v_star < best_v:
                    best_t, best_v = t_star, v_star
            return float(np.mod(best_t, T)), sign * best_v

        argmin, fmin = refine(+1.0)
        argmax, fmax = refine(-1.0)
        return fmin, fmax, argmin, argmax

    def positive_part(self) -> "PeriodicFunction":
        """Pointwise max(f, 0) as a new function.

        Piecewise-linear input stays piecewise linear: zero crossings are
        inserted as exact breakpoints so downstream integrals stay exact.
        Other bodies are wrapped with their crossings located numerically.
        Computed on the first call; later calls return the same function.
        """
        return self._positive_part

    @cached_property
    def _positive_part(self) -> "PeriodicFunction":
        body = self.body
        if isinstance(body, Constant):
            return PeriodicFunction(self.period, Constant(max(body.value, 0.0)))
        if isinstance(body, PiecewiseLinear):
            return PeriodicFunction(self.period, _clip_piecewise(body))
        crossings = _find_crossings(self, self.period)
        return PeriodicFunction(self.period, PositivePart(body, tuple(crossings)))


def _numbers(body: Body) -> tuple[float, ...]:
    """The real numbers stored in one non-composite body."""
    if isinstance(body, Constant):
        return (body.value,)
    if isinstance(body, TrigPoly):
        return (body.offset,) + tuple(x for amp, _, phase in body.terms for x in (amp, phase))
    if isinstance(body, PolyOnPeriod):
        return body.coeffs
    if isinstance(body, PiecewiseLinear):
        return tuple(x for point in body.points for x in point)
    return ()


def _validate(body: Body, period: float) -> None:
    if not all(math.isfinite(x) for x in _numbers(body)):
        raise LiebauError(f"function data must be finite, got {body!r}")
    if isinstance(body, PiecewiseLinear):
        ts = [p[0] for p in body.points]
        vs = [p[1] for p in body.points]
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != period:
            raise LiebauError("piecewise-linear table must start at t=0 and end at t=T")
        if any(b <= a for a, b in zip(ts[:-1], ts[1:])):
            raise LiebauError("piecewise-linear breakpoints must be strictly increasing")
        if vs[0] != vs[-1]:
            raise LiebauError("piecewise-linear endpoint values must match exactly")
    elif isinstance(body, PolyOnPeriod):
        p0 = body._value_raw(0.0)
        pT = body._value_raw(period)
        scale = max(1.0, abs(p0))
        if abs(pT - p0) > 1e-10 * scale:
            raise LiebauError(
                f"polynomial is discontinuous across the period: p(0)={p0!r}, p(T)={pT!r}"
            )
    elif isinstance(body, Sum):
        for p in body.parts:
            _validate(p, period)


def _clip_piecewise(body: PiecewiseLinear) -> PiecewiseLinear:
    pts: list[tuple[float, float]] = []
    points = body.points
    for (t0, v0), (t1, v1) in zip(points[:-1], points[1:]):
        pts.append((t0, max(v0, 0.0)))
        if (v0 < 0.0 < v1) or (v1 < 0.0 < v0):
            tc = t0 + (t1 - t0) * (0.0 - v0) / (v1 - v0)
            pts.append((tc, 0.0))
    pts.append((points[-1][0], max(points[-1][1], 0.0)))
    return PiecewiseLinear(tuple(pts))


def _local_minima(fv: np.ndarray) -> np.ndarray:
    """Ascending indices i with fv[i] <= both cyclic neighbours (ties included)."""
    return np.flatnonzero((fv <= np.roll(fv, 1)) & (fv <= np.roll(fv, -1)))


def _find_crossings(f: PeriodicFunction, period: float) -> list[float]:
    """Zeros of f on one period, ascending: grid nodes where f is exactly 0,
    and a bisected root inside every grid cell whose ends differ in sign."""
    grid = np.linspace(0.0, period, _SCAN_POINTS + 1)
    vals = np.asarray(f(grid), dtype=float)
    a, b = vals[:-1], vals[1:]
    out: list[float] = []
    for i in np.flatnonzero((a == 0.0) | (a * b < 0.0)).tolist():
        if vals[i] == 0.0:
            out.append(float(grid[i]))
        else:
            lo, hi = float(grid[i]), float(grid[i + 1])
            flo = vals[i]
            for _ in range(80):
                midp = 0.5 * (lo + hi)
                fm = float(f(midp))
                if flo * fm <= 0.0:
                    hi = midp
                else:
                    lo, flo = midp, fm
            out.append(0.5 * (lo + hi))
    return out
