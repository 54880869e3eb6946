"""Symbolic-lite periodic scalar functions.

All forcing and coefficient data in this package is a continuous T-periodic
function of time, represented by one of a small set of closed-form bodies:
constants, trigonometric polynomials with integer harmonics, polynomials in
t wrapped on one period, piecewise-linear tables, and sums of those.  The
representation is rich enough for every instance we care about while keeping
means and extrema exact (or near-exact) so that downstream inequality
margins are trustworthy.

Extrema come from a finite set of candidate points wherever the body has
one: the value of a constant, the vertices of a piecewise-linear table, the
phases 0 and pi of a one-term cosine, and for a polynomial t = 0, the left
limit at t = T and the roots of p' in (0, T), found on Python floats by
isolating them between the roots of p''.  The zeros of a polynomial, which
become the breakpoints of its positive part, come from the same root
isolation.  A clip's extrema are those of its inner body, clipped at 0.

Every other body (sums and cosines of several terms) goes through one
bisection, after Shubert (SIAM J. Numer. Anal. 9, 1972): each body bounds
|f| and |f''| between its breakpoints, so a cell [l, r] holds no value
below min(f(l), f(r)) - max|f''| (r - l)^2 / 8.  Cells that cannot beat
the best value found, or cannot hold a zero, are dropped and the rest
halved.  The extremum comes with an enclosure, and no grid has to resolve
the data, so a high harmonic cannot alias onto a low one.

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
from .numerics import is_finite_real, simpson_segmented, sorted_unique

# Width (in t, times max(1, T)) below which the bisection of sums and
# cosines of several terms stops halving a cell; the candidate-point extrema
# of the other bodies do not use it.  Surfaced in certificates because
# condition margins consume these values.
EXTREMA_REFINE_TOL = 1e-12
_START_CELLS = 64  # even cells the bisection starts from, breakpoints added
_MAX_CELLS = 2**19  # most cells the bisection holds; 4 per period of the top harmonic suffice
_MAX_HARMONIC = 65536  # the bisection's work grows linearly in the top harmonic
_ROOT_STEPS = 100  # most Newton or bisection steps per polynomial root

ArrayLike = Union[float, np.ndarray]


def _harmonic(k) -> int:
    """k as an int; LiebauError unless k is a whole number from 1 to _MAX_HARMONIC."""
    if not (is_finite_real(k) and 1 <= k <= _MAX_HARMONIC and k == int(k)):
        raise LiebauError(f"harmonic must be a whole number from 1 to {_MAX_HARMONIC}, got {k!r}")
    return int(k)


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
        for _, k, _ in self.terms:
            _harmonic(k)

    def eval(self, t: ArrayLike, period: float) -> ArrayLike:
        # in place, with the operations of offset + sum amp * cos(2 pi k t / T + phase)
        tt = np.asarray(t, dtype=float)
        out = np.zeros_like(tt)
        out += self.offset
        term = np.empty_like(tt)
        for amp, k, phase in self.terms:
            np.multiply(2.0 * np.pi * k, tt, out=term)
            term /= period
            term += phase
            np.cos(term, out=term)
            term *= amp
            out += term
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

    def _value_raw(self, t: ArrayLike) -> np.ndarray:
        # Horner's rule in place: out = out * t + c for each coefficient, highest first
        tt = np.asarray(t, dtype=float)
        out = np.zeros_like(tt)
        for c in reversed(self.coeffs):
            out *= tt
            out += c
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
        return sorted({t for p in self.parts for t in p.breakpoints(period)})

    def scale(self, factor: float) -> "Sum":
        return Sum(tuple(p.scale(factor) for p in self.parts))


@dataclass(frozen=True)
class PositivePart:
    """max(inner, 0); sign crossings located once and kept as breakpoints.

    A clip is never scaled and never a part of a sum: ``scale`` and
    ``_validate`` raise LiebauError."""

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
            period, TrigPoly(float(offset), tuple((float(a), _harmonic(k), float(p)) for a, k, p in terms))
        )

    @staticmethod
    def poly(period: float, coeffs: Sequence[float]) -> "PeriodicFunction":
        return PeriodicFunction(period, PolyOnPeriod(tuple(float(c) for c in coeffs)))

    @staticmethod
    def piecewise_linear(points: Sequence[tuple[float, float]]) -> "PeriodicFunction":
        pts = tuple((float(t), float(v)) for t, v in points)
        if len(pts) < 2:
            raise LiebauError(f"piecewise-linear table needs at least 2 points, got {len(pts)}")
        return PeriodicFunction(pts[-1][0], PiecewiseLinear(pts))

    @staticmethod
    def sum_of(parts: Sequence["PeriodicFunction"]) -> "PeriodicFunction":
        if not parts:
            raise LiebauError("a sum needs at least one part")
        period = parts[0].period
        if any(p.period != period for p in parts):
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

        A body with candidate points takes each value with its own ``eval``
        there, the earliest candidate on ties: a constant at t = 0, a table
        at its vertices, a one-term cosine at the first t in [0, T/k) of
        phase pi and of phase 0 (swapped for amp < 0), and a polynomial at
        t = 0, the roots of p' in (0, T) and t = T, whose value is the left
        limit at the wrap (reported at t = 0).  A clip takes its inner
        body's extrema, clipped at 0.  Sums and cosines of several terms go
        through the bisection of ``_extremum``.  Computed on the first call;
        later calls return the same tuple.
        """
        return self._extrema

    @cached_property
    def _extrema(self) -> tuple[float, float, float, float]:
        body, T = self.body, self.period
        if isinstance(body, Constant):
            return body.value, body.value, 0.0, 0.0
        if isinstance(body, PiecewiseLinear):
            ts = np.array([p[0] for p in body.points])
            vs = np.array([p[1] for p in body.points])
            imin, imax = int(np.argmin(vs)), int(np.argmax(vs))
            return float(vs[imin]), float(vs[imax]), float(ts[imin]), float(ts[imax])
        if isinstance(body, TrigPoly) and len(body.terms) == 1:
            amp, k, phase = body.terms[0]
            if amp == 0.0:
                v = body.eval(0.0, T)
                return v, v, 0.0, 0.0
            t_low, t_high = _first_phase(math.pi, phase, k, T), _first_phase(0.0, phase, k, T)
            ts = [t_low, t_high] if amp > 0.0 else [t_high, t_low]
            vs = body.eval(np.array(ts), T)
            return float(vs[0]), float(vs[1]), ts[0], ts[1]
        if isinstance(body, PolyOnPeriod):
            coeffs = list(body.coeffs)
            ts = [0.0, *(t for t in _real_roots(_derivative(coeffs), 0.0, T) if 0.0 < t < T), T]
            # eval is the raw polynomial on [0, T); at T the raw value is the left limit
            vs = body._value_raw(np.array(ts))
            imin, imax = int(np.argmin(vs)), int(np.argmax(vs))  # the first of equal values
            ts[-1] = 0.0  # the wrap point t = T is t = 0 of the period
            return float(vs[imin]), float(vs[imax]), ts[imin], ts[imax]
        if isinstance(body, PositivePart):
            low, high, t_low, t_high = PeriodicFunction(T, body.inner).extrema()
            return max(low, 0.0), max(high, 0.0), t_low, t_high
        (low, t_low, _), (high, t_high, _) = _extremum(self, 1.0), _extremum(self, -1.0)
        return low, high, t_low, t_high

    def positive_part(self) -> "PeriodicFunction":
        """Pointwise max(f, 0) as a new function.

        Piecewise-linear input stays piecewise linear: zero crossings are
        inserted as exact breakpoints so downstream integrals stay exact.
        Other bodies are wrapped with their crossings located numerically;
        a clip is its own positive part.  Computed on the first call; later
        calls return the same function.
        """
        return self._positive_part

    @cached_property
    def _positive_part(self) -> "PeriodicFunction":
        body = self.body
        if isinstance(body, PositivePart):
            return self
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
        p0, pT = float(body._value_raw(0.0)), float(body._value_raw(period))
        if abs(pT - p0) > 1e-10 * max(1.0, abs(p0)):
            raise LiebauError(f"polynomial is discontinuous across the period: p(0)={p0!r}, p(T)={pT!r}")
    elif isinstance(body, Sum):
        for p in body.parts:
            if isinstance(p, PositivePart):  # its kink would blur the bisection's enclosure
                raise LiebauError("a clipped function cannot be part of a sum")
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


def _first_phase(target: float, phase: float, k: int, period: float) -> float:
    """The first t in [0, T/k) where 2*pi*k*t/T + phase = target (mod 2*pi)."""
    tau = 2.0 * math.pi
    t = (target - phase) % tau * period / (tau * k)
    return t if t < period / k else 0.0  # the remainder can round up to 2*pi


def _derivative(coeffs: list[float]) -> list[float]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _horner(coeffs: list[float], t: float) -> float:
    """The polynomial at t, by ``PolyOnPeriod._value_raw``'s Horner steps on Python floats."""
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _real_roots(coeffs: list[float], lo: float, hi: float) -> list[float]:
    """Ascending real roots in [lo, hi] of the polynomial with ascending coefficients.

    The roots of its derivative, found the same way, split [lo, hi] into
    pieces on which it is monotone; a piece holds a root when its ends
    differ in sign or one end is zero.  A polynomial that is constant has
    no roots here, the zero polynomial included.
    """
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 2:
        return []
    slope = _derivative(coeffs)
    ends = [lo, *_real_roots(slope, lo, hi), hi]
    out: list[float] = []
    for a, b in zip(ends[:-1], ends[1:]):
        fa, fb = _horner(coeffs, a), _horner(coeffs, b)
        if fa == 0.0:
            root = a
        elif fb == 0.0:
            root = b
        elif (fa < 0.0) != (fb < 0.0):
            root = _monotone_root(coeffs, slope, a, b, fa)
        else:
            continue
        if not out or root != out[-1]:
            out.append(root)
    return out


def _monotone_root(coeffs: list[float], slope: list[float], lo: float, hi: float, flo: float) -> float:
    """The root in (lo, hi) of a polynomial that is monotone there and whose
    ends differ in sign, flo being its value at lo.

    Newton steps from the midpoint; a step that would leave the bracket,
    which shrinks to each iterate, is replaced by a bisection.  Stops at an
    exact zero, at a Newton fixed point, or when the bracket is two
    neighbouring floats.
    """
    t = 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        ft = _horner(coeffs, t)
        if ft == 0.0:
            return t
        if (ft < 0.0) == (flo < 0.0):
            lo, flo = t, ft
        else:
            hi = t
        d = _horner(slope, t)
        step = t - ft / d if d != 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                return t
        if step == t:
            return t
        t = step
    return t


def _amplitude(terms: list[tuple[float, float]]) -> float:
    """A bound on the amplitude of the sum of a*cos(x + phase) over (a, phase) in
    terms: |sum of a*e^(i phase)|, widened by its rounding, or the sum of |a|."""
    total = sum(abs(a) for a, _ in terms)
    merged = abs(sum(complex(a * math.cos(phase), a * math.sin(phase)) for a, phase in terms))
    return min(total, merged + (len(terms) + 4) * math.ulp(1.0) * total)


def _bounds(body: Body, period: float) -> tuple[float, float]:
    """(a bound on |f|, a bound on |f''| between breakpoints) for one body on [0, T].

    A clip takes its inner body's.  A sum, which holds no clip, adds its
    parts' bounds, but the cosine terms of one harmonic, in a cosine or
    across its parts, bound |f''| as one phasor (``_amplitude``).
    """
    if isinstance(body, Constant):
        return abs(body.value), 0.0
    if isinstance(body, PolyOnPeriod):
        c = body.coeffs
        size = sum(abs(x) * period**i for i, x in enumerate(c))
        return size, sum(i * (i - 1) * abs(x) * period ** (i - 2) for i, x in enumerate(c) if i > 1)
    if isinstance(body, PiecewiseLinear):
        return max(abs(v) for _, v in body.points), 0.0
    if isinstance(body, PositivePart):
        return _bounds(body.inner, period)
    size, curvature, harmonics = 0.0, 0.0, {}
    for part in body.parts if isinstance(body, Sum) else (body,):
        if isinstance(part, TrigPoly):
            size += abs(part.offset) + sum(abs(a) for a, _, _ in part.terms)
            for a, k, phase in part.terms:
                harmonics.setdefault(k, []).append((a, phase))
        else:
            s, c = _bounds(part, period)
            size, curvature = size + s, curvature + c
    w = 2.0 * math.pi / period
    return size, curvature + sum(_amplitude(terms) * (w * k) ** 2 for k, terms in harmonics.items())


def _bisect(f: PeriodicFunction, keep):
    """(l, r, f(l), f(r), refined) of the cells of [0, T] that survive the bisection.

    It starts from _START_CELLS even cells with f's breakpoints added.  Each
    round ``keep(l, r, f(l), f(r))`` selects cells, and every kept cell wider
    than EXTREMA_REFINE_TOL * max(1, T) is halved, f called once on all the
    midpoints.  It stops when no kept cell is that wide (``refined``), or
    when halving would make more than _MAX_CELLS cells (not ``refined``: a
    stretch flat while the |f''| bound is not), and returns the cells of
    the last round.
    """
    T = f.period
    edges = sorted_unique(np.concatenate([np.linspace(0.0, T, _START_CELLS + 1), f.breakpoints()]))
    vals = np.asarray(f(edges), dtype=float)
    l, r, fl, fr = edges[:-1], edges[1:], vals[:-1], vals[1:]
    tol = EXTREMA_REFINE_TOL * max(1.0, T)
    while True:
        kept = keep(l, r, fl, fr)
        l, r, fl, fr = l[kept], r[kept], fl[kept], fr[kept]
        wide = r - l > tol
        halved = int(np.count_nonzero(wide))
        if not halved or len(l) + halved > _MAX_CELLS:
            return l, r, fl, fr, not halved
        narrow = ~wide
        mid = 0.5 * (l[wide] + r[wide])
        fmid = np.asarray(f(mid), dtype=float)
        l = np.concatenate((l[narrow], l[wide], mid))
        r = np.concatenate((r[narrow], mid, r[wide]))
        fl = np.concatenate((fl[narrow], fl[wide], fmid))
        fr = np.concatenate((fr[narrow], fmid, fr[wide]))


def _extremum(f: PeriodicFunction, sign: float) -> tuple[float, float, float]:
    """(value, t, bound) for the minimum of f (sign 1) or its maximum (sign -1).

    ``value`` = f(t) is the best cell end the bisection evaluated, the
    earliest of the first round's ties, with t in [0, T).  A cell stays
    while the lower bound of sign * f on it, min(ends) - L (r - l)^2 / 8 with
    L the bound on |f''|, is below the best value less 8 eps max|f|, an
    allowance for rounding.  ``bound`` is the lowest of those lower bounds
    over the cells left at the end and the best value less the allowance,
    times sign: every value of f lies on its side (f >= bound for the
    minimum) up to the rounding of f's evaluation.  If the cell cap stopped
    the halving, ``value`` is ``bound``, t staying at the best cell end.
    """
    size, curvature = _bounds(f.body, f.period)
    slack = 8.0 * np.finfo(float).eps * size
    best, best_t = math.inf, 0.0  # the best value of sign * f so far, and its t

    def lower(l, r, gl, gr):
        return np.minimum(gl, gr) - curvature * (r - l) ** 2 / 8.0

    def keep(l, r, fl, fr):
        nonlocal best, best_t
        gl, gr = sign * fl, sign * fr
        low = np.minimum(gl, gr)
        i = int(np.argmin(low))
        if low[i] < best:
            best, best_t = float(low[i]), float(l[i] if gl[i] <= gr[i] else r[i])
        return lower(l, r, gl, gr) < best - slack

    l, r, fl, fr, refined = _bisect(f, keep)
    bound = float(np.min(lower(l, r, sign * fl, sign * fr), initial=best - slack))
    return sign * (best if refined else bound), best_t if best_t < f.period else 0.0, sign * bound


def _find_crossings(f: PeriodicFunction, period: float) -> list[float]:
    """Zeros of f on one period, ascending.

    For a polynomial: t = 0 when p(0) = 0, then the roots of p in (0, T)
    by ``_real_roots``.  Otherwise the bisection of ``_bisect`` keeps a cell
    while f > 0 holds at one end only, or while the bound on |f''| lets f
    reach 0 between its ends.  Each final cell with f > 0 at one end only
    gives one zero: an end where f is exactly 0, else its midpoint.  A zero
    at which f does not change sign is no crossing.  If the cell cap stopped
    the halving, the sign changes are halved on to that width alone, and a
    pair of zeros in a cell where |f| < L (r - l)^2 / 8 may be missed.
    """
    if isinstance(f.body, PolyOnPeriod):
        coeffs = list(f.body.coeffs)
        inner = [t for t in _real_roots(coeffs, 0.0, period) if 0.0 < t < period]
        return ([0.0] if coeffs[0] == 0.0 else []) + inner
    curvature = _bounds(f.body, period)[1]

    def keep(l, r, fl, fr):
        return ((fl > 0.0) != (fr > 0.0)) | (np.minimum(abs(fl), abs(fr)) < curvature * (r - l) ** 2 / 8.0)

    l, r, fl, fr, refined = _bisect(f, keep)
    change = (fl > 0.0) != (fr > 0.0)
    l, r, fl, fr = l[change], r[change], fl[change], fr[change]
    tol = EXTREMA_REFINE_TOL * max(1.0, period)
    while not refined and np.any(r - l > tol):  # at the cell cap: halve the sign changes alone
        mid = 0.5 * (l + r)
        fmid = np.asarray(f(mid), dtype=float)
        left = (fl > 0.0) != (fmid > 0.0)  # the sign changes in the left half, else in the right
        l, r = np.where(left, l, mid), np.where(left, mid, r)
        fl, fr = np.where(left, fl, fmid), np.where(left, fmid, fr)
    zeros = np.where(fl == 0.0, l, np.where(fr == 0.0, r, 0.5 * (l + r)))
    return sorted({0.0 if t >= period else t for t in zeros.tolist()})
