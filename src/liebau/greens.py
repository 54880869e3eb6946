"""Periodic Green's function of x'' + a x' + m^2 x with periodic boundary data.

The constant-coefficient kernel is translation invariant: G(t, s) = K((t - s)
mod T) for a single-variable kernel K on [0, T].  K solves the homogeneous
equation away from the wrap point, matches its endpoint values, and carries a
unit jump in slope across the wrap; those three facts pin it down uniquely.
Inside the window 0 < m < sqrt((pi/T)^2 + (a/2)^2) the kernel is strictly
positive and integrates to 1/m^2 in each variable.

On [0, T) the kernel is a short sum of exponential modes, and this mode list
is its one representation (``GreensKernel.modes``):

    K(tau) = Re sum_j c_j tau^p_j e^{lam_j tau}.

With lam1, lam2 the roots of lam^2 + a lam + m^2 = 0 and distinct, real or
complex, the modes are (c_1, 0, lam1) and (c_2, 0, lam2) with

    c_1 = 1 / ((1 - e^{lam1 T}) (lam1 - lam2)),   c_2 = -1 / ((1 - e^{lam2 T}) (lam1 - lam2)),

and a complex pair, whose two modes are conjugate, keeps the one mode
(2 c_1, 0, lam1).  Where |a^2 - 4 m^2| < _BRANCH_EPS * 4 m^2 that expression
cancels, and the confluent limit serves: lam = -a/2, E = e^{lam T} and the
modes (T E / (1 - E)^2, 0, lam) and (1 / (1 - E), 1, lam).  ``_modes`` decides
the root case once per m, and takes 1 - e^{lam T} without cancellation.

K(0) = K(T), so K' has a zero t* in (0, T), and only one: K' = 0 is a
monotone equation for real roots, a linear one for the double root, and for
a complex pair lam = -a/2 +- i omega its zeros are pi/omega > T apart.
Solving K'(t*) = 0 for each shape of mode list gives

    two real modes:    t* = log(-c_2 lam2 / (c_1 lam1)) / (lam1 - lam2)
    one complex mode:  t* = (atan2(Re(c lam), Im(c lam)) mod pi) / omega
    double root:       t* = -c_1 / c_2 - 1 / lam

and since K'' = -m^2 K < 0 at t*, K(t*) is the maximum and K(0) the minimum.
The cone constant is c_m = K(0)/K(t*) in (0, 1).  ``kernel_constants``
computes K(0), t*, K(t*) and c_m for a whole array of m in one pass, and
marks in its mask ``ok`` each m that ``build`` would refuse; ``build`` is
that function on one m, so the two agree bit for bit.  The modes and t* are
Python arithmetic and libm, one m at a time; numpy sums the modes at tau
(``_mode_sum``), for K(t*) as for ``GreensKernel.at``.

Kernel responses x(t) = integral_0^T K((t - s) mod T) g(s) ds come two ways.
For g without breakpoints and t the uniform grid arange(M) * (T/M), they come
from one quadrature, ``circular_response``: the periodic trapezoid rule on a
uniform n-grid is a circular convolution computed by FFT, and the term
h^2/12 * g(t) is the Euler-Maclaurin endpoint correction for the unit slope
jump of K at the wrap, leaving an O(h^4) error.

Every other call, a g with breakpoints or any other t, takes one sweep that
is exact in the kernel: the response of each mode only needs the causal sums
P(t) = integral_0^t e^{lam (t-s)} g ds and, for the tau-mode of the double
root, M(t) = integral_0^t (t-s) e^{lam (t-s)} g ds; the part s > t of the
integral is P(T) and M(T) carried once round the period.  Both sums come
from an 8-point Gauss-Legendre rule on sub-gaps of the sorted points {0, T},
t mod T and the breakpoints of g, accumulated by one anchored cumulative sum
per mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadPeriod, LiebauError, MOutOfRange, PropertyViolation
from .funcspec import PeriodicFunction
from .numerics import cyclic_fd_operator, simpson_segmented, trace_array

# the root case of a kernel, read off its modes; a label for output
CASE_REAL_DISTINCT = "real_distinct"
CASE_DOUBLE_ROOT = "double_root"
CASE_COMPLEX_PAIR = "complex_pair"

# Relative tolerance on |a^2 - 4 m^2| / (4 m^2) below which the confluent
# formula is used.  That formula is off by about this ratio times kmax, while
# the distinct-roots expression cancels and is off by about eps / sqrt(ratio);
# the two errors balance near eps^(2/3), about 3.7e-11 (both within 7e-11 of
# kmax on either side of it against a 40-digit kernel, for m T from 0.05 to
# 10).
_BRANCH_EPS = float(np.finfo(float).eps) ** (2.0 / 3.0)

# The response sweep: the 8-point Gauss-Legendre rule on (-1, 1), as
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

# apply_kernel's resolution: at least 2 * BASE_PANELS fine-grid nodes for the
# circular rule, sub-gaps no wider than T / BASE_PANELS for the sweep
BASE_PANELS = 1024

Mode = tuple[complex, int, complex]  # (c_j, p_j, lam_j)


def m_window(a: float, T: float) -> float:
    """Upper end of the admissible shift window, sqrt((pi/T)^2 + (a/2)^2)."""
    return math.sqrt((math.pi / T) ** 2 + (a / 2.0) ** 2)


def _mode_sum(c: np.ndarray, p: np.ndarray, lam: np.ndarray, tau) -> np.ndarray:
    """Re sum_j c_j tau^p_j e^{lam_j tau}, the modes j along the first axis of c, p and lam.

    Real arithmetic: each term is e^{Re lam tau} (Re c cos(w tau) - Im c
    sin(w tau)) with w = Im lam.  Where no mode is complex the rotation,
    which would multiply by exactly 1, is skipped, so the bits of a kernel's
    values do not depend on the kernels evaluated with it.
    """
    terms = np.exp(lam.real * tau)
    w = lam.imag
    if w.any():
        terms *= c.real * np.cos(w * tau) - c.imag * np.sin(w * tau)
    else:
        terms *= c.real
    if p.any():
        terms *= np.where(p, tau, 1.0)
    return terms.sum(axis=0)


@dataclass(frozen=True)
class GreensKernel:
    """Immutable kernel: its modes and derived constants.

    ``k0`` = K(0) is the minimum of K and ``kmax`` = K(t*) its maximum.
    """

    a: float
    m: float
    T: float
    modes: tuple[Mode, ...]
    k0: float
    kmax: float
    cone_constant: float
    m_max: float

    @property
    def case(self) -> str:
        """The root case, read off the shape of the mode list."""
        if len(self.modes) == 1:
            return CASE_COMPLEX_PAIR
        return CASE_DOUBLE_ROOT if self.modes[1][1] else CASE_REAL_DISTINCT

    def at(self, tau) -> float | np.ndarray:
        """K(tau) for tau in [0, T]; tau = T is folded onto tau = 0."""
        # the kernel is T-periodic and continuous; wrap so K(T) lands on K(0)
        tt = np.mod(tau, self.T)
        shape = (-1,) + (1,) * np.ndim(tt)
        vals = _mode_sum(*(np.array(x).reshape(shape) for x in zip(*self.modes)), tt)
        return float(vals) if np.ndim(vals) == 0 else vals

    def green(self, t, s) -> float | np.ndarray:
        """G(t, s) = K((t - s) mod T)."""
        return self.at(np.asarray(t, dtype=float) - np.asarray(s, dtype=float))


def _one_minus_exp(z: complex) -> complex:
    """1 - e^z = 2 sin^2(y/2) e^x - expm1(x) - 2 i e^x sin(y/2) cos(y/2) for
    z = x + i y.  For x <= 0 the real part adds two nonnegative terms, so it
    keeps its digits for small |z|, where 1 - cmath.exp(z) cancels."""
    x, h = z.real, 0.5 * z.imag
    e, s = math.exp(x), math.sin(h)
    return complex(2.0 * s * s * e - math.expm1(x), -2.0 * e * s * math.cos(h))


def _reciprocal(z: complex) -> complex:
    """1/z, and inf for z = 0: a root that rounds to 0 has 1 - e^{lam T} = 0,
    and its infinite coefficient makes K(0) infinite or NaN, which ``ok`` refuses."""
    return 1.0 / z if z else complex(math.inf)


def _modes(a: float, m: float, T: float) -> tuple[Mode, Mode]:
    """The two modes of the kernel of one m; its root case is decided here.

    A complex pair's two modes are conjugate, so their real parts are equal:
    the first mode carries both, and the second has c = 0.
    """
    disc = a * a - 4.0 * m * m
    if abs(disc) < _BRANCH_EPS * 4.0 * m * m:
        lam = complex(-0.5 * a)
        b = _reciprocal(_one_minus_exp(lam * T))
        return ((T * cmath.exp(lam * T) * b * b, 0, lam), (b, 1, lam))
    half = cmath.sqrt(disc) / 2.0  # imaginary for a complex pair
    l1, l2 = -0.5 * a + half, -0.5 * a - half
    d = l1 - l2
    c1 = _reciprocal(_one_minus_exp(l1 * T) * d)
    if half.imag:
        return ((2.0 * c1, 0, l1), (0j, 0, l2))
    return ((c1, 0, l1), (-_reciprocal(_one_minus_exp(l2 * T) * d), 0, l2))


def _critical_point(modes: tuple[Mode, Mode]) -> float:
    """The zero t* of K' in (0, T), in closed form for each shape of mode pair."""
    (c1, _, l1), (c2, p2, l2) = modes
    if l1.imag:  # Re(c1 lam e^{lam t}) = 0 where omega t = pi/2 - arg(c1 lam) mod pi
        z = c1 * l1
        return math.atan2(z.real, z.imag) % math.pi / l1.imag
    if p2:  # K' = ((c1 + c2 t) lam + c2) e^{lam t}
        return -(c1 / c2).real - 1.0 / l1.real
    return math.log((-c2 * l2 / (c1 * l1)).real) / (l1 - l2).real


def _constants(a: float, m: float, T: float) -> tuple:
    """(c1, c2, lam1, lam2, p1, p2, K(0), t*) of one m: its two modes
    (c_j, p_j, lam_j) side by side, K(0), and t* (NaN unless 0 < K(0) < inf)."""
    modes = _modes(a, m, T)
    (c1, p1, l1), (c2, p2, l2) = modes
    k0 = c1.real + (0.0 if p2 else c2.real)  # _mode_sum at tau = 0, bit for bit
    return c1, c2, l1, l2, p1, p2, k0, _critical_point(modes) if 0.0 < k0 < math.inf else math.nan


class KernelConstants(NamedTuple):
    """The constants of the kernels for an array of m at one (a, T), one element per m.

    ``ok`` is False exactly where ``build`` raises (m outside (0, m_max), or
    kernel constants out of range); the constants there are NaN, or the
    values that put them out of range.
    """

    m_max: float
    # (c, p, lam), each of shape (2, len(ms)): the two modes of each m (see
    # _modes); c = 0 outside (0, m_max)
    modes: tuple[np.ndarray, np.ndarray, np.ndarray]
    k0: np.ndarray  # K(0)
    t_max: np.ndarray  # t*
    kmax: np.ndarray  # K(t*)
    cone_constant: np.ndarray  # c_m = K(0)/K(t*), NaN where not ok
    ok: np.ndarray


# The largest rate, 1/T or a, of a kernel or problem: it keeps (pi/T)^2, (a/2)^2
# and 1/h^2 on solve.MAX_GRID = 2^22 nodes below 1e294, so finite
MAX_RATE = 1e140


def check_coefficients(a: float, T: float) -> None:
    """The range check of a and T for every kernel and problem: BadPeriod
    unless 1/MAX_RATE <= T < inf, LiebauError unless 0 <= a <= MAX_RATE."""
    if not 1.0 / MAX_RATE <= T < math.inf:
        raise BadPeriod(f"period T must be finite and at least {1.0 / MAX_RATE!r}, got {T!r}")
    if not 0.0 <= a <= MAX_RATE:
        raise LiebauError(f"friction coefficient a must be finite and in [0, {MAX_RATE!r}], got {a!r}")


_OUTSIDE = (0j, 0j, 0j, 0j, 0, 0, math.nan, math.nan)  # the _constants of an m outside (0, m_max)


def kernel_constants(a: float, ms, T: float) -> KernelConstants:
    """K(0), t*, K(t*) and c_m for every m of a 1-D array, in one pass.

    Raises BadPeriod and LiebauError as ``build`` does; an m that ``build``
    would refuse (MOutOfRange or PropertyViolation) is marked in ``ok``
    instead.  Each element equals what ``build`` gives for that m, bit for
    bit: ``build`` is this function on one m.
    """
    check_coefficients(a, T)
    ms = np.asarray(ms, dtype=float)
    mmax = m_window(a, T)
    inside = (0.0 < ms) & (ms < mmax)
    rows = [_constants(a, m, T) if ins else _OUTSIDE for m, ins in zip(ms.tolist(), inside.tolist())]
    c1, c2, l1, l2, p1, p2, k0, t_max = list(zip(*rows)) or [()] * 8
    c, lam = np.array([c1, c2], dtype=complex), np.array([l1, l2], dtype=complex)
    p, k0, t_max = np.array([p1, p2], dtype=float), np.array(k0, dtype=float), np.array(t_max, dtype=float)
    # an infinite or NaN constant of a refused m must not warn
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kmax = np.where((0.0 < t_max) & (t_max < T), _mode_sum(c, p, lam, t_max), math.nan)
        ok = inside & (0.0 < k0) & (k0 < kmax)
        cone = np.where(ok, k0 / kmax, math.nan)
    return KernelConstants(mmax, (c, p, lam), k0, t_max, kmax, cone, ok)


def build(a: float, m: float, T: float) -> GreensKernel:
    """Construct the kernel and all derived constants: ``kernel_constants`` on one m.

    Raises as ``check_coefficients`` does, and MOutOfRange when m (NaN or
    infinite included) is outside (0, m_max); all before any kernel arithmetic.
    The extremal structure (the critical point t* in (0, T), with
    0 < K(0) < K(t*)) is checked here; a violation marks a near-degenerate
    case we refuse to certify with, so it raises PropertyViolation.
    """
    check_coefficients(a, T)
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
    # the mode list, without a complex pair's zero mode
    modes = tuple((complex(c), int(p), complex(lam)) for c, p, lam in zip(*(x[:, 0] for x in kc.modes)) if c)
    return GreensKernel(a, m, T, modes, k0, kmax, float(kc.cone_constant[0]), mmax)


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
    """integral_0^T K((t - s) mod T) g(s) ds at any t, by one sweep."""
    T = kernel.T
    modes = kernel.modes
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

    For g without breakpoints and t_values exactly the uniform grid
    arange(M) * (T/M), the response is ``circular_response`` (the circular
    convolution plus the h^2/12 kink term) on a fine grid of N nodes, the
    smallest multiple of M that is at least 2 * BASE_PANELS, and every
    (N/M)-th sample is returned.

    Every other call takes one sweep over the sorted points {0, T}, t mod T
    and the breakpoints of g, each gap split into equal sub-gaps no wider
    than T/BASE_PANELS (or 2/|lam| for the fastest kernel mode) with an
    8-point Gauss-Legendre rule on each, and g evaluated once on all the
    nodes.  The kernel is summed exactly as its exponential modes (see the
    module docstring); t values may come in any order, repeat, or lie
    outside [0, T).

    Raises LiebauError for t values that are not a 1-D array of finite
    numbers (an empty one gives an empty response), and for a g whose period
    is not the kernel's.
    """
    T = kernel.T
    if g.period != T:
        raise LiebauError(f"g period {g.period!r} does not match kernel period {T!r}")
    t_values = trace_array(t_values, "kernel response t values", allow_empty=True)
    M = len(t_values)
    if not g.breakpoints() and M > 0 and np.array_equal(t_values, np.arange(M) * (T / M)):
        n_fine = -(-2 * BASE_PANELS // M) * M
        fine = circular_response(kernel, g(np.arange(n_fine) * (T / n_fine)))
        return fine[:: n_fine // M]
    return _sweep_response(kernel, g, t_values)


@dataclass(frozen=True)
class KernelReport:
    """Measured kernel properties from verify_properties."""

    positivity_min: float  # min of K at the PROPERTY_GRID nodes, which is min G(t_i, t_j)
    mass_deviation: float  # |int_0^T K - 1/m^2|, by periodicity the deviation of every row of G
    chain_violation: float  # worst relative violation of G >= K0 >= c_m G on the same nodes
    reproduction_residual: float  # worst FD residual over the test forcings
    passed: bool


# verify_properties: mass and cone-chain tolerance, t x s grid, reproduction FD grid and tolerance
PROPERTY_TOL = 1e-8
PROPERTY_GRID = 256
REPRODUCTION_FD_POINTS = 4096
REPRODUCTION_TOL = 1e-6


def verify_properties(kernel: GreensKernel) -> KernelReport:
    """Measure positivity, unit mass, the cone chain, and reproduction.

    G(t, s) = K((t - s) mod T), so the first three are facts about K on one
    period: on the grid t_i = i T / PROPERTY_GRID the entries of G are the
    values K(t_i), and every row of G integrates to int_0^T K, one 1024-panel
    Simpson rule.  (Simpson on a row t = j T / 64 split at t is the same sum.)

    Reproduction feeds smooth test forcings through the kernel and checks the
    resulting x against a second-order finite-difference residual for the
    shifted linear equation; the cyclic stencil builds the periodic boundary
    conditions in.
    Raises PropertyViolation (report attached) if any measure exceeds its
    tolerance.
    """
    a, m, T = kernel.a, kernel.m, kernel.T

    ks = kernel.at(np.linspace(0.0, T, PROPERTY_GRID, endpoint=False))
    positivity_min = float(ks.min())
    mass_dev = abs(simpson_segmented(kernel.at, 0.0, T, base_panels=1024) - 1.0 / (m * m))
    k0 = kernel.k0
    lower = float(np.max((k0 - ks) / k0))  # > 0 means G(t,s) < K0 somewhere
    upper = float(np.max((kernel.cone_constant * ks - k0) / k0))  # > 0 means K0 < c_m G somewhere
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
        and chain_violation <= PROPERTY_TOL
        and worst_res <= REPRODUCTION_TOL
    )
    report = KernelReport(positivity_min, mass_dev, chain_violation, worst_res, passed)
    if not passed:
        raise PropertyViolation("kernel property check failed", report)
    return report
