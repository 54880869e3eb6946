"""Shared numerical kernels.

Everything here is deterministic and allocation-light: libm functions
applied per element, the check of trace arrays, segmented composite
Simpson quadrature, a sorted unique that needs no ``numpy.ma``, a cyclic
tridiagonal solver (bordered elimination in one fused forward/back sweep on
Python floats for both right-hand sides, bitwise equal to two separate
sweeps, NaN on a zero pivot), restarted GMRES with Givens rotations on
Python floats, cyclic central differences, spectral differentiation and
trigonometric resampling of periodic grid data onto finer grids, and
fixed-width float printing for reproducible output files.  Forcing extrema
and zeros have their own bisection in ``funcspec``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import LiebauError


def is_finite_real(value) -> bool:
    """True for a Python or numpy integer or float that is finite as a float; False for a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def trace_array(
    values, name: str, nonpositive: type[LiebauError] | None = None, allow_empty: bool = False
) -> np.ndarray:
    """``values`` as a float array, or LiebauError if not numbers, not 1-D, empty (unless
    ``allow_empty``) or not finite; with ``nonpositive`` set, that error refuses an entry <= 0."""
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise LiebauError(f"{name} must be an array of numbers: {exc}") from None
    if x.ndim != 1 or not (x.size or allow_empty):
        kind = "1-D array" if allow_empty else "non-empty 1-D array"
        raise LiebauError(f"{name} must be a {kind}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise LiebauError(f"{name} has a non-finite entry")
    if nonpositive is not None and np.any(x <= 0.0):
        raise nonpositive(f"{name} must be strictly positive")
    return x


def pow_or_inf(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0; inf where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def per_element(f, x, *args):
    """f(x, *args) for a number x, or f of each element of a 1-D array x, in Python.

    For the per-kernel and per-m constants of array passes that must match
    their scalar forms bit for bit: numpy's SIMD exp and power differ from
    libm by an ulp on some inputs.
    """
    if isinstance(x, np.ndarray) and x.ndim:
        return np.array([f(v, *args) for v in x.tolist()])
    return f(x, *args)


def simpson_segmented(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    splits: Iterable[float] = (),
    base_panels: int = 1024,
) -> float:
    """Composite Simpson rule on [a, b] with forced panel breaks.

    ``splits`` lists abscissae where the integrand has kinks; each segment
    between consecutive breaks gets its own composite rule with a panel
    count proportional to its length (minimum 2 panels, so short segments
    are still integrated exactly for piecewise-linear data).  f, which must
    act elementwise, is called once on the nodes of every segment, so the
    sum is bit for bit that of one call per segment.
    """
    if b <= a:
        return 0.0
    pts = [a, b]
    for s in splits:
        if a < s < b:
            pts.append(float(s))
    pts = sorted(set(pts))
    length = b - a
    segments = [(lo, hi, max(2, int(round(base_panels * (hi - lo) / length)))) for lo, hi in zip(pts[:-1], pts[1:])]
    # the nodes of np.linspace(lo, hi, 2 n + 1): i (hi - lo) / (2 n) + lo, then hi
    xs = [x for lo, hi, n in segments for x in (np.arange(2 * n) * ((hi - lo) / (2 * n)) + lo, [hi])]
    ys = np.asarray(f(np.concatenate(xs)), dtype=float)
    total, start = 0.0, 0
    for lo, hi, n in segments:
        w = np.ones(2 * n + 1)  # Simpson weights 1, 4, 2, ..., 2, 4, 1
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (hi - lo) / (6.0 * n) * float(np.dot(w, ys[start:start + 2 * n + 1]))
        start += 2 * n + 1
    return total


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a non-empty 1-D array, without its first-call import of ``numpy.ma``."""
    out = np.sort(values)
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def solve_cyclic_tridiagonal(
    sub: np.ndarray,
    diag: np.ndarray,
    sup: np.ndarray,
    corner_top: float,
    corner_bot: float,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve A x = rhs for a cyclic tridiagonal A via bordered elimination.

    A has diagonals (sub, diag, sup), entry ``corner_top`` at [0, n-1] and
    ``corner_bot`` at [n-1, 0].  The wrap entries are removed by a rank-one
    correction: A = B + u v^T with B plain tridiagonal, and a Sherman-Morrison
    combination of B^-1 rhs and B^-1 u recovers x.  Both right-hand sides go
    through one fused Thomas sweep on Python floats (each pivot and ``cp``
    computed once), with the same operations in the same order as two
    separate sweeps, so the result is bitwise equal to the two-sweep form.
    A zero pivot (a singular B) returns all NaN.
    """
    n = len(diag)
    gamma = -diag[0]
    bdiag = diag.copy()
    bdiag[0] -= gamma
    bdiag[-1] -= corner_top * corner_bot / gamma
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner_bot
    # memoryviews hand out Python floats one at a time: plain float arithmetic
    # without numpy scalar overhead, and no boxed copy of the inputs
    bv, lv, cv, dv, uv = (memoryview(v) for v in (bdiag, sub, sup, rhs, u))
    try:
        # forward elimination; cp is the eliminated superdiagonal
        den = bv[0]
        cpi, yi, zi = cv[0] / den, dv[0] / den, uv[0] / den
        cp, y, z = [cpi], [yi], [zi]
        for bi, li, ci, di, ui in zip(bv[1:], lv[1:], cv[1:], dv[1:], uv[1:]):
            den = bi - li * cpi
            cpi = ci / den
            yi = (di - li * yi) / den
            zi = (ui - li * zi) / den
            cp.append(cpi)
            y.append(yi)
            z.append(zi)
    except ZeroDivisionError:
        return np.full(n, np.nan)
    # back substitution in place, last row first; cp[-1] is never used
    for i in range(n - 2, -1, -1):
        ci = cp[i]
        yi = y[i] - ci * yi
        zi = z[i] - ci * zi
        y[i] = yi
        z[i] = zi
    y = np.array(y)
    z = np.array(z)
    factor = (y[0] + corner_top * y[-1] / gamma) / (1.0 + z[0] + corner_top * z[-1] / gamma)
    return y - factor * z


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    rtol: float,
    restart: int,
    max_cycles: int,
) -> np.ndarray:
    """Approximate solution u of A u = b by restarted GMRES, A given by ``matvec``.

    Each cycle builds at most ``restart`` Arnoldi vectors by modified
    Gram-Schmidt and reduces the small Hessenberg least-squares problem with
    Givens rotations on Python floats as the columns arrive, so its residual
    estimate is known after every matvec.  The iteration stops once that
    estimate is at most ``rtol * ||b||_2``, on breakdown, or after
    ``max_cycles`` cycles; the last iterate, whose residual is the smallest
    so far, is returned either way.  Only a cycle that restarts computes the
    true residual b - A u, which starts the next one; a cycle that stops
    returns u on its estimate, so a call that converges in its first cycle
    makes one matvec per Arnoldi vector and no more.
    """
    u = np.zeros_like(b)
    r = b
    target = rtol * math.sqrt(float(np.dot(b, b)))
    for cycle in range(max_cycles):
        beta = math.sqrt(float(np.dot(r, r)))
        if beta <= target:
            break
        basis = [r / beta]
        cols: list[list[float]] = []  # columns of the rotated, upper-triangular Hessenberg matrix
        rot: list[tuple[float, float]] = []
        g = [beta]
        for j in range(restart):
            w = matvec(basis[j])
            col = []
            for v in basis:
                hij = float(np.dot(v, w))
                w -= hij * v
                col.append(hij)
            below = math.sqrt(float(np.dot(w, w)))
            for i, (c, s) in enumerate(rot):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], below)
            if rho == 0.0:  # A maps the new direction to zero: nothing left to gain
                break
            c, s = col[j] / rho, below / rho
            col[j] = rho
            rot.append((c, s))
            cols.append(col)
            g.append(-s * g[j])
            g[j] *= c
            if abs(g[j + 1]) <= target or below == 0.0:
                break
            basis.append(w / below)
        if not cols:
            break
        y = [0.0] * len(cols)
        for i in range(len(cols) - 1, -1, -1):
            acc = g[i]
            for k in range(i + 1, len(cols)):
                acc -= cols[k][i] * y[k]
            y[i] = acc / cols[i][i]
        for yi, v in zip(y, basis):
            u += yi * v
        if abs(g[-1]) <= target or cycle == max_cycles - 1:
            break
        r = b - matvec(u)
    return u


def cyclic_differences(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undivided cyclic central differences of 1-D periodic grid data.

    Returns (x[i+1] - x[i-1], x[i+1] - 2 x[i] + x[i-1]) with wrap-around
    indices; dividing by 2h and h^2 gives the second-order first and second
    derivatives.  The division is left to the caller so each keeps its own
    arithmetic.
    """
    xp = np.concatenate((values[1:], values[:1]))  # np.roll's shifts, at a fraction of its cost
    xm = np.concatenate((values[-1:], values[:-1]))
    return xp - xm, xp - 2.0 * values + xm


def cyclic_fd_operator(values: np.ndarray, h: float, a: float) -> np.ndarray:
    """x'' + a x' by second-order cyclic central differences with step h: the
    one FD stencil of the solver, ``fd_residual`` and the kernel check."""
    d1, d2 = cyclic_differences(values)
    return d2 / h**2 + a * d1 / (2.0 * h)


def spectral_derivatives(values: np.ndarray, period: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative of the trigonometric interpolant at the nodes.

    The mean is removed before transforming (its derivatives vanish), which
    keeps rounding noise proportional to the oscillation amplitude rather
    than the signal level.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    spec = np.fft.rfft(x - x.mean())
    k = np.arange(len(spec))
    w = 2.0 * np.pi * k / period
    fac1 = 1j * w
    if n % 2 == 0:
        fac1 = fac1.copy()
        fac1[-1] = 0.0
    d1 = np.fft.irfft(spec * fac1, n=n)
    d2 = np.fft.irfft(spec * (-(w**2)), n=n)
    return d1, d2


def resample_spectrum(spec: np.ndarray, n: int, n_out: int) -> np.ndarray:
    """Samples on a uniform grid of ``n_out >= n`` points of the trigonometric
    interpolant whose n-point ``rfft`` is ``spec``.

    Zero-padded inverse FFT; for even n the Nyquist bin is split
    symmetrically between +n/2 and -n/2, so the interpolant is real and
    passes through the original samples.  At n_out = n the spectrum is
    inverted as it is.
    """
    if n_out == n:
        return np.fft.irfft(spec, n=n)
    out = np.zeros(n_out // 2 + 1, dtype=complex)
    out[: n // 2] = spec[: n // 2]
    if n % 2 == 0:
        out[n // 2] = 0.5 * spec[n // 2]
    else:
        out[(n + 1) // 2 - 1] = spec[-1]
    return np.fft.irfft(out, n=n_out) * (n_out / n)


def trig_interpolate(values: np.ndarray, n_out: int) -> np.ndarray:
    """Resample periodic grid data onto a uniform grid of ``n_out >= len(values)`` points.

    The mean is taken out before the transform and added back, so a
    constant stays exact; see ``resample_spectrum``.
    """
    x = np.asarray(values, dtype=float)
    mean = x.mean()
    return resample_spectrum(np.fft.rfft(x - mean), len(x), n_out) + mean


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON writer with fixed float formatting.

    Preserves dict insertion order, renders every float with 17 significant
    digits, and uses two-space indentation; identical inputs produce
    byte-identical output.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}{dump_json(str(k))}: {dump_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq: Sequence = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{dump_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")
