"""Shared numerical kernels.

Everything here is deterministic and allocation-light: segmented
composite Simpson quadrature, parabolic refinement of a
bracketed minimum, a cyclic tridiagonal solver (bordered elimination in
one fused forward/back sweep on Python floats for both right-hand sides,
bitwise equal to two separate sweeps, NaN on a zero pivot), restarted
GMRES with Givens rotations on Python floats, cyclic
central differences, spectral differentiation and trigonometric
interpolation of periodic grid data, and fixed-width float printing for
reproducible output files.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    are still integrated exactly for piecewise-linear data).
    """
    if b <= a:
        return 0.0
    pts = [a, b]
    for s in splits:
        if a < s < b:
            pts.append(float(s))
    pts = sorted(set(pts))
    total = 0.0
    length = b - a
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(2, int(round(base_panels * (hi - lo) / length)))
        xs = np.linspace(lo, hi, 2 * n + 1)
        ys = np.asarray(f(xs), dtype=float)
        w = np.ones(2 * n + 1)  # Simpson weights 1, 4, 2, ..., 2, 4, 1
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (hi - lo) / (6.0 * n) * float(np.dot(w, ys))
    return total


def parabolic_min(
    f: Callable[[float], float], left: float, mid: float, right: float, tol: float
) -> float:
    """Refine a bracketed local minimum by successive parabolic interpolation.

    Falls back to a golden-section step whenever the parabolic step
    degenerates or leaves the bracket, so kinked integrands are safe.
    """
    a, b = left, right
    x = mid
    fx = f(x)
    for _ in range(200):
        if (b - a) <= tol:
            break
        fa, fb = f(a), f(b)
        denom = (x - a) * (fx - fb) - (x - b) * (fx - fa)
        if denom != 0.0:
            v = x - 0.5 * ((x - a) ** 2 * (fx - fb) - (x - b) ** 2 * (fx - fa)) / denom
        else:
            v = math.nan
        if not (a < v < b) or not math.isfinite(v) or abs(v - x) < 0.1 * tol:
            v = a + _INVPHI * (b - a) if x < 0.5 * (a + b) else b - _INVPHI * (b - a)
        fv = f(v)
        if fv < fx:
            if v < x:
                b = x
            else:
                a = x
            x, fx = v, fv
        else:
            if v < x:
                a = v
            else:
                b = v
    return x


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
    so far, is returned either way.
    """
    u = np.zeros_like(b)
    r = b
    target = rtol * math.sqrt(float(np.dot(b, b)))
    for _ in range(max_cycles):
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
        r = b - matvec(u)
    return u


def cyclic_differences(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undivided cyclic central differences of periodic grid data.

    Returns (x[i+1] - x[i-1], x[i+1] - 2 x[i] + x[i-1]) with wrap-around
    indices; dividing by 2h and h^2 gives the second-order first and second
    derivatives.  The division is left to the caller so each keeps its own
    arithmetic.
    """
    xp = np.roll(values, -1)
    xm = np.roll(values, 1)
    return xp - xm, xp - 2.0 * values + xm


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


def trig_interpolate(values: np.ndarray, factor: int) -> np.ndarray:
    """Resample periodic grid data onto a ``factor`` times finer grid.

    Zero-padded FFT interpolation; the Nyquist bin is split symmetrically so
    the interpolant is real and matches the samples exactly at the original
    nodes.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    mean = x.mean()
    spec = np.fft.rfft(x - mean)
    out = np.zeros(factor * n // 2 + 1, dtype=complex)
    out[: n // 2] = spec[: n // 2]
    if n % 2 == 0:
        out[n // 2] = 0.5 * spec[n // 2]
    else:
        out[(n + 1) // 2 - 1] = spec[-1]
    return np.fft.irfft(out, n=factor * n) * factor + mean


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
