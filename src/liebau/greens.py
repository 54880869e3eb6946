"""Periodic Green's function of x'' + a x' + m^2 x with periodic boundary data.

The constant-coefficient kernel is translation invariant: G(t, s) = K((t - s)
mod T) for a single-variable kernel K on [0, T].  K solves the homogeneous
equation away from the wrap point, matches its endpoint values, and carries a
unit jump in slope across the wrap; those three facts pin it down uniquely.

With lam1, lam2 the roots of lam^2 + a*lam + m^2 = 0 and distinct,

    K(tau) = [exp(lam1 tau)/(1 - exp(lam1 T)) - exp(lam2 tau)/(1 - exp(lam2 T))]
             / (lam1 - lam2),

the complex-pair and double-root cases being the real-part and limit forms of
the same expression.  Inside the window 0 < m < sqrt((pi/T)^2 + (a/2)^2) the
kernel is strictly positive and integrates to 1/m^2 in each variable.

K(0) = K(T), so K' has a zero t* in (0, T), and only one: K' = 0 is a
monotone equation for real roots, a linear one for the double root, and for
a complex pair lam = -a/2 +- i omega its zeros are pi/omega > T apart.
Solving K'(t*) = 0 gives

    real roots:    t* = log(lam2 (1 - e^{lam1 T}) / (lam1 (1 - e^{lam2 T}))) / (lam1 - lam2)
    complex pair:  t* = ((-arg(lam1 / (1 - e^{lam1 T}))) mod pi) / omega
    double root:   t* = 2/a - T E / (1 - E),   E = exp(-a T / 2)

and since K'' = -m^2 K < 0 at t*, K(t*) is the maximum and K(0) the minimum.
The cone constant is c_m = K(0)/K(t*) in (0, 1).  ``kernel_constants``
computes K(0), t*, K(t*) and c_m for a whole array of m, one pass per root
case, and marks in its mask ``ok`` each m that ``build`` would refuse;
``build`` is that function on one m, so the two agree bit for bit.  The
per-m constants (the exponentials e^{lam T}, the powers and t*) go through
libm one m at a time, and numpy evaluates only the tau-dependent factors.

Kernel responses x(t) = integral_0^T K((t - s) mod T) g(s) ds of smooth g
come from one quadrature, ``circular_response``: the periodic trapezoid rule
on a uniform n-grid is a circular convolution computed by FFT, and the term
h^2/12 * g(t) is the Euler-Maclaurin endpoint correction for the unit slope
jump of K at the wrap, leaving an O(h^4) error.  ``apply_kernel`` runs it on
a fine grid and reads off-grid t from the trigonometric interpolant of the
fine-grid response; ``solve.picard_iterate`` runs it once per step.

A g with breakpoints is integrated by one sweep that is exact in the kernel.
On [0, T) the kernel is a short sum of exponential modes,
K(tau) = Re sum_j c_j tau^p_j e^{lam_j tau} (``_modes``), so the response
only needs the causal sums P(t) = integral_0^t e^{lam (t-s)} g ds and, for
the tau-mode of the double root, M(t) = integral_0^t (t-s) e^{lam (t-s)} g ds:
the part s > t of the integral is P(T) and M(T) carried once round the
period.  Both sums come from an 8-point Gauss-Legendre rule on sub-gaps of
the sorted points {0, T}, t mod T and the breakpoints of g, accumulated by
one anchored cumulative sum per mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadPeriod, LiebauError, MOutOfRange, PropertyViolation
from .funcspec import PeriodicFunction
from .numerics import cyclic_fd_operator, per_element, simpson_segmented

CASE_REAL_DISTINCT = "real_distinct"
CASE_DOUBLE_ROOT = "double_root"
CASE_COMPLEX_PAIR = "complex_pair"
CASES = (CASE_REAL_DISTINCT, CASE_DOUBLE_ROOT, CASE_COMPLEX_PAIR)  # indexed by case code

# Relative tolerance on |a^2 - 4 m^2| / (4 m^2) below which the confluent
# formula is used.  That formula is off by about this ratio times kmax, while
# the distinct-roots expression cancels and is off by about eps / sqrt(ratio);
# the two errors balance near eps^(2/3), about 3.7e-11 (both within 7e-11 of
# kmax on either side of it against a 40-digit kernel, for m T from 0.05 to
# 10).
_BRANCH_EPS = float(np.finfo(float).eps) ** (2.0 / 3.0)

# The kinked-response sweep: the 8-point Gauss-Legendre rule on (-1, 1), as
# numpy.polynomial.legendre.leggauss(8) gives it (written out, so importing
# this module does not load numpy.polynomial); the widest |lam| * width of one
# sub-gap, where the rule is exact to rounding for the exponential factor; and
# the widest |Re lam| * span of one anchored block (about e^34 at most, far
# from overflow, with the exponent's rounding near 34 ulp).
_GAUSS_X = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GAUSS_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
_SUBGAP_EXP = 2.0
_BLOCK_EXP = 32.0

# apply_kernel's resolution: at least 2 * BASE_PANELS fine-grid nodes for
# kink-free g, sub-gaps no wider than T / BASE_PANELS for g with breakpoints
BASE_PANELS = 1024


def m_window(a: float, T: float) -> float:
    """Upper end of the admissible shift window, sqrt((pi/T)^2 + (a/2)^2)."""
    return math.sqrt((math.pi / T) ** 2 + (a / 2.0) ** 2)


@dataclass(frozen=True)
class GreensKernel:
    """Immutable kernel with its derived constants.

    ``k0`` = K(0) is the minimum of K and ``kmax`` = K(t*) its maximum.
    """

    a: float
    m: float
    T: float
    case: str
    roots: tuple[complex, complex]
    k0: float
    kmax: float
    cone_constant: float
    m_max: float

    def at(self, tau) -> float | np.ndarray:
        """K(tau) for tau in [0, T]; tau = T is folded onto tau = 0."""
        return _kernel_values(self.case, self.roots, self.T, tau)

    def green(self, t, s) -> float | np.ndarray:
        """G(t, s) = K((t - s) mod T)."""
        tau = np.mod(np.asarray(t, dtype=float) - np.asarray(s, dtype=float), self.T)
        out = _kernel_values(self.case, self.roots, self.T, tau)
        return out if np.ndim(t) or np.ndim(s) else float(out)


def _select_case(a: float, m):
    """The root case code of each m (an index into CASES; 0-d for a scalar m)."""
    disc = a * a - 4.0 * m * m
    return np.where(np.abs(disc) < _BRANCH_EPS * 4.0 * m * m, 1, np.where(disc > 0.0, 0, 2))


def _roots(a: float, m, case: str) -> tuple[np.ndarray, np.ndarray]:
    """The roots of lam^2 + a lam + m^2 = 0 for each m of one ``case``, in the
    form the formulas of ``case`` use them: real arrays but for a complex pair."""
    m = np.asarray(m, dtype=float)
    if case == CASE_COMPLEX_PAIR:
        lam = np.empty(m.shape, dtype=complex)
        lam.real = -a / 2.0
        lam.imag = np.sqrt(4.0 * m * m - a * a) / 2.0
        return lam, lam.conj()
    if case == CASE_DOUBLE_ROOT:
        lam = np.full(m.shape, -a / 2.0)
        return lam, lam
    sq = np.sqrt(a * a - 4.0 * m * m)
    return (-a + sq) / 2.0, (-a - sq) / 2.0


def _kernel_values(case: str, roots, T: float, tau):
    """K(tau) of the kernels with the given roots, all of one ``case``.

    ``roots`` is a pair of complex numbers, or of 1-D arrays (one kernel per
    element) that broadcast against tau.  Only the tau-dependent factors are
    numpy arithmetic; the per-kernel constants use libm (``per_element``).
    """
    # the kernel is T-periodic and continuous; wrap so K(T) lands on K(0)
    tt = np.mod(tau, T)
    if case == CASE_DOUBLE_ROOT:
        lam = roots[0].real
        E = per_element(math.exp, lam * T)
        vals = np.exp(lam * tt) * (tt * (1.0 - E) + T * E) / per_element(math.pow, 1.0 - E, 2.0)
    elif case == CASE_REAL_DISTINCT:
        l1, l2 = roots[0].real, roots[1].real
        vals = (
            np.exp(l1 * tt) / (1.0 - per_element(math.exp, l1 * T))
            - np.exp(l2 * tt) / (1.0 - per_element(math.exp, l2 * T))
        ) / (l1 - l2)
    else:
        lam = roots[0]
        vals = np.imag(np.exp(lam * tt) / (1.0 - np.exp(lam * T))) / lam.imag
    return float(vals) if np.ndim(vals) == 0 else vals


def _critical_point(case: str, roots, T: float):
    """The zero of K' in (0, T) of each kernel, solved from the kernel formula
    of ``case`` with libm, one kernel at a time (a float for scalar roots)."""
    scalar = np.ndim(roots[0]) == 0
    r1, r2 = ([complex(r)] for r in roots) if scalar else (r.tolist() for r in roots)
    if case == CASE_DOUBLE_ROOT:
        out = [-1.0 / lam + T * math.exp(lam * T) / math.expm1(lam * T) for lam in (r.real for r in r1)]
    elif case == CASE_REAL_DISTINCT:
        out = [
            math.log(l2 * math.expm1(l1 * T) / (l1 * math.expm1(l2 * T))) / (l1 - l2)
            for l1, l2 in ((p.real, q.real) for p, q in zip(r1, r2))
        ]
    else:
        out = [(-cmath.phase(lam / (1.0 - cmath.exp(lam * T)))) % math.pi / lam.imag for lam in r1]
    return out[0] if scalar else np.array(out)


class KernelConstants(NamedTuple):
    """The constants of the kernels for an array of m at one (a, T), one element per m.

    ``ok`` is False exactly where ``build`` raises (m outside (0, m_max), or
    kernel constants out of range); the constants there are NaN, or the
    values that put them out of range.
    """

    m_max: float
    case: np.ndarray  # case code of each m, an index into CASES
    roots: tuple[np.ndarray, np.ndarray]  # complex; NaN where no case formula ran
    k0: np.ndarray  # K(0)
    t_max: np.ndarray  # t*
    kmax: np.ndarray  # K(t*)
    cone_constant: np.ndarray  # c_m = K(0)/K(t*), NaN where not ok
    ok: np.ndarray


def _check_coefficients(a: float, T: float) -> None:
    if not (T > 0.0) or not math.isfinite(T):
        raise BadPeriod(f"period must be positive, got {T!r}")
    if not 0.0 <= a < math.inf:
        raise LiebauError(f"friction coefficient must be finite and nonnegative, got {a!r}")


def kernel_constants(a: float, ms, T: float) -> KernelConstants:
    """K(0), t*, K(t*) and c_m for every m of a 1-D array, in one pass per root case.

    Raises BadPeriod and LiebauError as ``build`` does; an m that ``build``
    would refuse (MOutOfRange or PropertyViolation) is marked in ``ok``
    instead.  Each element equals what ``build`` gives for that m, bit for
    bit: ``build`` is this function on one m.
    """
    _check_coefficients(a, T)
    ms = np.asarray(ms, dtype=float)
    mmax = m_window(a, T)
    k0, t_max, kmax, cone = np.full((4, len(ms)), math.nan)
    r1, r2 = np.full((2, len(ms)), complex(math.nan, math.nan))
    case = _select_case(a, ms)
    inside = (0.0 < ms) & (ms < mmax)
    # a root that rounds to 0 makes K(0) infinite or NaN, which ``ok`` refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for code in sorted(set(case[inside].tolist())):
            name, idx = CASES[code], np.flatnonzero(inside & (case == code))
            r1[idx], r2[idx] = roots = _roots(a, ms[idx], name)
            k0[idx] = k = _kernel_values(name, roots, T, 0.0)
            # the t* formula divides by the roots: only for a finite K(0)
            keep = (0.0 < k) & (k < math.inf)
            idx, roots = idx[keep], (roots[0][keep], roots[1][keep])
            t_max[idx] = t = _critical_point(name, roots, T)
            keep = (0.0 < t) & (t < T)
            kmax[idx[keep]] = _kernel_values(name, (roots[0][keep], roots[1][keep]), T, t[keep])
    ok = inside & (0.0 < k0) & (k0 < kmax)
    cone[ok] = k0[ok] / kmax[ok]
    return KernelConstants(mmax, case, (r1, r2), k0, t_max, kmax, cone, ok)


def build(a: float, m: float, T: float) -> GreensKernel:
    """Construct the kernel and all derived constants: ``kernel_constants`` on one m.

    Raises BadPeriod for T <= 0 or non-finite, LiebauError for a negative or
    non-finite a, and MOutOfRange when m (NaN or infinite included) is outside
    (0, m_max); all before any kernel arithmetic.
    The extremal structure (the critical point t* in (0, T), with
    0 < K(0) < K(t*)) is checked here; a violation marks a near-degenerate
    case we refuse to certify with, so it raises PropertyViolation.
    """
    _check_coefficients(a, T)
    mmax = m_window(a, T)
    if not (0.0 < m < mmax):
        raise MOutOfRange(m, mmax)
    kc = kernel_constants(a, [m], T)
    k0, t_max, kmax = float(kc.k0[0]), float(kc.t_max[0]), float(kc.kmax[0])
    if not kc.ok[0]:
        raise PropertyViolation(
            f"kernel constants out of range: K(0)={k0!r}, t_max={t_max!r}, K(t_max)={kmax!r}; "
            "the cone construction does not apply to this parameter set"
        )
    roots = (complex(kc.roots[0][0]), complex(kc.roots[1][0]))
    return GreensKernel(a, m, T, CASES[kc.case[0]], roots, k0, kmax, float(kc.cone_constant[0]), mmax)


def circular_response(kernel: GreensKernel, g_values) -> np.ndarray:
    """integral_0^T K((t - s) mod T) g(s) ds at the nodes t_j = j h, h = T/n.

    ``g_values`` holds g at the same n nodes.  The periodic trapezoid rule is
    a circular convolution, h * irfft(rfft(K(j h)) * rfft(g)); the term
    h^2/12 * g(t) is its Euler-Maclaurin endpoint correction for the unit
    slope jump of K at the wrap.  For smooth g the error left is the next
    Euler-Maclaurin term, O(h^4), from the jumps of K'' and K''' at the wrap.
    """
    g = np.asarray(g_values, dtype=float)
    n = len(g)
    h = kernel.T / n
    kvals = np.asarray(kernel.at(np.arange(n) * h), dtype=float)
    conv = np.fft.irfft(np.fft.rfft(kvals) * np.fft.rfft(g), n=n)
    return h * conv + (h * h / 12.0) * g


def _interpolant_at(values: np.ndarray, T: float, t_values: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant of uniform periodic samples, summed at t_values.

    The Nyquist bin of an even sample count is split symmetrically, so the
    interpolant is real and passes through every sample.
    """
    n = len(values)
    coef = np.fft.rfft(values) / n
    coef[1 : (n + 1) // 2] *= 2.0  # bins k and n - k fold into one real term
    phase = np.outer(t_values, (2.0 * np.pi / T) * np.arange(len(coef)))
    # Re(e^{i phase} coef) in real arithmetic: one len(t) x len(coef) temporary
    return np.cos(phase) @ coef.real - np.sin(phase, out=phase) @ coef.imag


def _modes(kernel: GreensKernel) -> tuple[tuple[complex, int, complex], ...]:
    """K on [0, T) as Re sum_j c_j tau^p_j e^{lam_j tau}, as (c_j, p_j, lam_j).

    Two real modes for distinct real roots, one complex mode for a complex
    pair, and e^{lam tau} with tau e^{lam tau} for the double root.  The
    constants are the ones ``_kernel_values`` evaluates, rounding included.
    """
    T = kernel.T
    if kernel.case == CASE_DOUBLE_ROOT:
        lam = kernel.roots[0].real
        E = math.exp(lam * T)
        return (
            (complex(T * E / (1.0 - E) ** 2), 0, complex(lam)),
            (complex(1.0 / (1.0 - E)), 1, complex(lam)),
        )
    if kernel.case == CASE_REAL_DISTINCT:
        l1, l2 = kernel.roots[0].real, kernel.roots[1].real
        return (
            (complex(1.0 / ((1.0 - math.exp(l1 * T)) * (l1 - l2))), 0, complex(l1)),
            (complex(-1.0 / ((1.0 - math.exp(l2 * T)) * (l1 - l2))), 0, complex(l2)),
        )
    lam = kernel.roots[0]
    # Im(z) / omega = Re(-i z / omega)
    return ((-1j / ((1.0 - cmath.exp(lam * T)) * lam.imag), 0, lam),)


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a) with its rounding errors added back.

    cumsum adds one term at a time, so the error of each addition is known
    exactly from the sums before and after it (Knuth's TwoSum, componentwise
    for complex a); their running total restores ulp accuracy, where the
    plain cumsum of ~1500 terms drifts by tens of ulp.
    """
    s = np.cumsum(a)
    before = np.concatenate([np.zeros(1, dtype=s.dtype), s[:-1]])
    added = s - before
    return s + np.cumsum((before - (s - added)) + (a - added))


def _causal_sums(lam: complex, p: int, nodes, wg, edges):
    """P(x) = integral_0^x e^{lam (x-s)} g ds at every sub-gap edge x, and for
    p = 1 also M(x) = integral_0^x (x-s) e^{lam (x-s)} g ds (else None).

    ``nodes`` and ``wg`` hold the Gauss nodes and weight * g per sub-gap, one
    row each.  Inside a block the terms e^{lam (a - s)} are taken from the
    block's first edge a, summed by one cumulative sum and scaled back by
    e^{lam (x - a)}; a new block starts wherever |Re lam| * span would pass
    _BLOCK_EXP, so no term overflows.
    """
    S = len(nodes)
    block = np.floor(edges[:-1] * (abs(lam.real) / _BLOCK_EXP))
    bounds = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), S]
    P = np.zeros(S + 1, dtype=complex)
    M = np.zeros(S + 1, dtype=complex) if p else None
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        a = edges[k0]
        d = nodes[k0:k1] - a
        terms = wg[k0:k1] * np.exp(-lam * d)
        c0 = P[k0] + _prefix_sums(terms.sum(axis=1))
        x = edges[k0 + 1 : k1 + 1] - a
        scale = np.exp(lam * x)
        if p:
            c1 = _prefix_sums((terms * d).sum(axis=1))
            M[k0 + 1 : k1 + 1] = scale * (M[k0] + x * c0 - c1)
        P[k0 + 1 : k1 + 1] = scale * c0
    return P, M


def _sweep_response(kernel: GreensKernel, g: PeriodicFunction, t: np.ndarray):
    """integral_0^T K((t - s) mod T) g(s) ds for g with breakpoints, by one sweep."""
    T = kernel.T
    modes = _modes(kernel)
    breaks = [b for b in g.breakpoints() if 0.0 < b < T]
    pts, where = np.unique(np.concatenate([np.mod(t, T), [0.0, T], breaks]), return_inverse=True)
    gaps = np.diff(pts)
    rate = max(BASE_PANELS / T, max(abs(lam) for _, _, lam in modes) / _SUBGAP_EXP)
    n = np.maximum(np.ceil(gaps * rate), 1.0).astype(np.int64)
    first = np.cumsum(n) - n  # index of each gap's first sub-gap
    gap = np.repeat(np.arange(len(gaps)), n)
    half = (gaps / n)[gap] / 2.0
    left = pts[gap] + (np.arange(len(gap)) - first[gap]) * (2.0 * half)
    edges = np.append(left, T)
    nodes = left[:, None] + half[:, None] * (1.0 + _GAUSS_X)
    wg = (half[:, None] * _GAUSS_W) * np.asarray(g(nodes), dtype=float)

    k = np.append(first, len(gap))[where[: len(t)]]  # edge index of each t
    tk = edges[k]
    out = np.zeros(len(t))
    for c, p, lam in modes:
        P, M = _causal_sums(lam, p, nodes, wg, edges)
        E, Et = cmath.exp(lam * T), np.exp(lam * tk)
        # the part s > t is the sum over (t - T, 0): P(T) and M(T) carried round
        if p:
            y = M[k] + Et * (tk * P[-1] + M[-1]) - E * (T * P[k] + M[k])
        else:
            y = P[k] + Et * P[-1] - E * P[k]
        out += (c * y).real
    return out


def apply_kernel(kernel: GreensKernel, g: PeriodicFunction, t_values: np.ndarray) -> np.ndarray:
    """Evaluate t -> integral_0^T G(t, s) g(s) ds on a set of t values.

    For kink-free g the response is ``circular_response`` (the circular
    convolution plus the h^2/12 kink term) on a uniform fine grid of at
    least 2 * BASE_PANELS nodes.  When t_values is itself the uniform grid
    arange(M) * (T/M), the fine grid has N nodes, the smallest multiple of M
    that is at least that many, and every (N/M)-th sample is returned; other
    t values read the trigonometric interpolant of the fine-grid response.

    For g with breakpoints the response comes from one sweep over the sorted
    points {0, T}, t mod T and the breakpoints of g, each gap split into
    equal sub-gaps no wider than T/BASE_PANELS (or 2/|lam| for the fastest
    kernel mode) with an 8-point Gauss-Legendre rule on each, and g
    evaluated once on all the nodes.  The kernel is summed exactly as its
    exponential modes (see the module docstring); t values may come in any
    order, repeat, or lie outside [0, T).

    Raises LiebauError for non-finite t values.
    """
    T = kernel.T
    t_values = np.asarray(t_values, dtype=float)
    if not np.all(np.isfinite(t_values)):
        raise LiebauError("kernel response t values must be finite")
    if not g.breakpoints():
        n_fine = 2 * BASE_PANELS
        M = len(t_values)
        on_grid = M > 0 and np.array_equal(t_values, np.arange(M) * (T / M))
        if on_grid:
            n_fine = -(-n_fine // M) * M
        nodes = np.arange(n_fine) * (T / n_fine)
        fine = circular_response(kernel, g(nodes))
        if on_grid:
            return fine[:: n_fine // M]
        return _interpolant_at(fine, T, t_values)
    return _sweep_response(kernel, g, t_values)


@dataclass(frozen=True)
class KernelReport:
    """Measured kernel properties from verify_properties."""

    positivity_min: float
    mass_deviation: float  # max over t of |int G(t,s) ds - 1/m^2|
    chain_violation: float  # worst relative violation of G >= K0 >= c_m G
    reproduction_residual: float  # worst FD residual over the test forcings
    passed: bool


# verify_properties: mass and cone-chain tolerance, t x s grid, reproduction FD grid and tolerance
PROPERTY_TOL = 1e-8
PROPERTY_GRID = 256
REPRODUCTION_FD_POINTS = 4096
REPRODUCTION_TOL = 1e-6


def verify_properties(kernel: GreensKernel) -> KernelReport:
    """Measure positivity, unit mass, the cone chain, and reproduction.

    Reproduction feeds smooth test forcings through the kernel and checks the
    resulting x against a second-order finite-difference residual for the
    shifted linear equation; the cyclic stencil builds the periodic boundary
    conditions in.
    Raises PropertyViolation (report attached) if any measure exceeds its
    tolerance.
    """
    a, m, T = kernel.a, kernel.m, kernel.T

    ts = np.linspace(0.0, T, PROPERTY_GRID, endpoint=False)
    tau_grid = np.mod(ts[:, None] - ts[None, :], T)
    G = kernel.at(tau_grid)
    positivity_min = float(G.min())

    mass_dev = 0.0
    for t in np.linspace(0.0, T, 65)[:-1]:
        val = simpson_segmented(
            lambda s: kernel.green(float(t), s), 0.0, T, splits=[float(t)], base_panels=1024
        )
        mass_dev = max(mass_dev, abs(val - 1.0 / (m * m)))

    k0 = kernel.k0
    cm = kernel.cone_constant
    lower = float(np.max((k0 - G) / k0))  # > 0 means G(t,s) < K0 somewhere
    upper = float(np.max((cm * G - k0) / k0))  # > 0 means K0 < c_m G somewhere
    chain_violation = max(lower, upper, 0.0)

    h_tests = [
        PeriodicFunction.constant(T, 1.0),
        PeriodicFunction.trig(T, 0.0, [(1.0, 1, 0.0)]),
        PeriodicFunction.trig(T, 0.5, [(1.0, 1, 1.3), (0.25, 3, 0.0)]),
        PeriodicFunction.trig(T, -0.2, [(0.7, 2, 0.4)]),
        PeriodicFunction.trig(T, 1.0, [(0.3, 1, 0.0), (0.1, 2, 0.7), (0.05, 4, 2.0)]),
    ]
    worst_res = 0.0
    nodes = np.linspace(0.0, T, REPRODUCTION_FD_POINTS, endpoint=False)
    h_step = T / REPRODUCTION_FD_POINTS
    for hf in h_tests:
        x = apply_kernel(kernel, hf, nodes)
        res = cyclic_fd_operator(x, h_step, a) + m * m * x
        res -= np.asarray(hf(nodes), dtype=float)
        worst_res = max(worst_res, float(np.max(np.abs(res))))

    passed = (
        positivity_min > 0.0
        and mass_dev <= PROPERTY_TOL
        and chain_violation <= max(PROPERTY_TOL, 1e-12)
        and worst_res <= REPRODUCTION_TOL
    )
    report = KernelReport(positivity_min, mass_dev, chain_violation, worst_res, passed)
    if not passed:
        raise PropertyViolation("kernel property check failed", report)
    return report
