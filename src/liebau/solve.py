"""Periodic solver for the regular problem.

Three steps.  A damped Newton iteration on the cyclic second-order
finite-difference (FD) system finds a discrete solution on ``fd_n`` =
min(n, ``COARSE_N``) points (128); its Jacobian is cyclic tridiagonal and
solved by bordered elimination.  For n above 128 this solution is lifted to
the n-grid by zero-padded FFT resampling (the nested-iteration start of
Newton-Krylov methods).  A polish stage then runs Newton on the Fourier
collocation residual d2 + a d1 - f(x) at n, taken as one rfft of x - mean x
times the symbol of D^2 + a D and one irfft (the spectral form of x'' + a x'
that the residual diagnostic uses too).  Each polish step solves its linear
system by a short GMRES, preconditioned by FFT with the constant-coefficient
operator D^2 + a D - mean f'(x), so the polish makes no cyclic tridiagonal
solves; it stops once a step fails to halve the residual, which for smooth
coefficient data leaves residuals near rounding level.

Each stage runs once, and nothing retries where the coarse start misses the
polish's basin: a coarse Newton failure raises LeftPositiveCone or
NoConvergence, a lift that is not strictly positive raises LeftPositiveCone,
and a polish that ends above the rounding floor (on data 128 points cannot
resolve) returns its iterate, whose level ``sup_residual`` reports.

Residual reporting: ``sup_residual`` is the collocated residual of the
returned representation measured on a ``REFINE_FACTOR`` (4) times finer grid,
with the coefficient samples interpolated alongside the solution (it
measures how well the discrete representation solves its own collocated
equation; this is the number that converges to rounding level).
``sup_residual_exact_data`` evaluates the coefficients exactly at the fine
nodes instead, so it additionally sees how much of the continuum data the
grid resolution cannot represent; for band-limited coefficients the two
coincide.  The fine nodes are taken as ``REFINE_FACTOR`` phase-shifted
copies of the n-grid.  Phase 0 is the n-grid itself, where both residuals
are the node residual that the polish computed from its final transform of
the solution; the other phases are evaluated by n-point inverse transforms
of that same spectrum, so a solve transforms its final iterate once.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    BadRadii,
    ConfigError,
    LeftPositiveCone,
    LiebauError,
    NegativeState,
    NoConvergence,
    OutOfFloatRange,
)
from .problem import GeneralProblem, deregularize
from .numerics import (
    cyclic_fd_operator,
    gmres,
    is_finite_real,
    pow_or_inf,
    solve_cyclic_tridiagonal,
    trace_array,
    trig_interpolate,
)

# Largest grid an input may ask for (refined solve grid, greens samples, search grids).
MAX_GRID = 2**22

# The FD Newton stage stops once its accepted update is at most
# NEWTON_TOL * min(1, max x) in sup norm, and gives up after NEWTON_MAX_STEPS.
NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 50

# ``sup_residual`` is measured on a grid this many times finer than the solution's.
REFINE_FACTOR = 4

# Largest grid of the finite-difference Newton stage: the polish only needs a
# start inside its basin, and the cyclic solves cost O(n) Python-float work each.
COARSE_N = 128

# The polish's inner GMRES: relative residual target, basis size per cycle
# and number of cycles.  The preconditioned operator is the identity up to
# the spread of f'(x), so a few vectors reach the target.
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 12
_GMRES_CYCLES = 4

# After a kept polish step, a step of at most this times max x is kept even if
# rounding noise raises its sup residual, and ends the polish.  (A first step
# that small would come from a converged start, so it is noise alone.)
_POLISH_NOISE_STEP = 1e-10


@dataclass(frozen=True)
class SolveOptions:
    """Grid size and start of ``solve_periodic``; a bad field raises ConfigError naming it."""

    n: int = 512
    initial: float | None = None
    bracket: tuple[float, float] | None = None  # geometric midpoint used as constant guess
    # Not a field: the retired switch, refused by name when given.
    polish: InitVar[object] = None

    def __post_init__(self, polish):
        if polish is not None:
            raise ConfigError("was removed: every solve runs the FD stage, the lift and the polish", "polish")
        n_max = MAX_GRID // REFINE_FACTOR  # the residual check samples REFINE_FACTOR * n points
        if not (isinstance(self.n, (int, np.integer)) and 8 <= self.n <= n_max):
            raise ConfigError(f"must be an integer from 8 to {n_max}, got {self.n!r}", "n")
        if self.initial is not None and not (is_finite_real(self.initial) and self.initial > 0.0):
            raise ConfigError(f"must be a positive finite number, got {self.initial!r}", "initial")
        b = self.bracket
        if b is not None and not (
            isinstance(b, tuple) and len(b) == 2 and all(map(is_finite_real, b)) and 0.0 < b[0] < b[1]
        ):
            raise ConfigError(f"need a pair (lo, hi) with 0 < lo < hi < inf, got {b!r}", "bracket")


@dataclass(frozen=True)
class GridSolution:
    """Periodic solution samples on a uniform grid over [0, T)."""

    T: float
    nodes: np.ndarray
    values: np.ndarray
    sup_residual: float
    sup_residual_exact_data: float
    iterations: int  # Newton steps and polish steps together
    converged: bool
    polish_iterations: int  # the polish's share of ``iterations``
    fd_n: int  # grid of the FD Newton stage: min(n, COARSE_N)

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def mean_value(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class ConeReport:
    in_cone: bool  # min x >= c_m * max x
    above_lower: bool  # min x >= c_m * R1
    below_upper: bool  # max x <= R2

    @property
    def all_ok(self) -> bool:
        return self.in_cone and self.above_lower and self.below_upper


def _rounding_floor(x: np.ndarray, h: float, a: float) -> float:
    """Sup-norm residual level that rounding alone gives the FD operator at step h.

    It scales with max |x|, so an iterate collapsing toward 0 cannot reach it
    on the size of its residual alone.
    """
    return 32.0 * np.finfo(float).eps * (4.0 / h**2 + 2.0 * a / h) * float(np.max(np.abs(x)))


def _operator_symbol(n: int, T: float, a: float) -> np.ndarray:
    """rfft symbol of D^2 + a D on n nodes; the Nyquist bin keeps no first
    derivative, as in ``numerics.spectral_derivatives``."""
    w = (2.0 * np.pi / T) * np.arange(n // 2 + 1)
    symbol = -(w**2) + 1j * a * w
    if n % 2 == 0:
        symbol[-1] = -(w[-1] ** 2)
    return symbol


def _sampled(gp: GeneralProblem, n: int):
    """Nodes, node samples of r and s, and x -> f(t, x), f_x(t, x) on the n-grid."""
    nodes = np.arange(n) * (gp.T / n)
    r = np.asarray(gp.r(nodes), dtype=float)
    s = np.asarray(gp.s(nodes), dtype=float)
    alpha, beta = gp.alpha, gp.beta

    def f_of(x):
        return r * x**alpha - s * x**beta

    def fprime_of(x):
        return alpha * r * x ** (alpha - 1.0) - beta * s * x ** (beta - 1.0)

    return nodes, r, s, f_of, fprime_of


def _initial_values(gp: GeneralProblem, opts: SolveOptions, n: int) -> np.ndarray:
    if opts.initial is not None:
        return np.full(n, float(opts.initial))
    if opts.bracket is not None:
        lo, hi = opts.bracket
        return np.full(n, math.sqrt(lo * hi))
    try:
        lp = deregularize(gp)
    except LiebauError:
        lp = None
    if lp is not None:
        ebar = lp.e.mean()
        if ebar > 0.0:
            guess = pow_or_inf(ebar / lp.c, 1.0 / lp.mu)
            if not 0.0 < guess < math.inf:
                raise OutOfFloatRange(
                    f"the built-in constant guess (mean e / c)^(1/mu) is beyond float range "
                    f"(mean e={ebar!r}, c={lp.c!r}, mu={lp.mu!r}); provide SolveOptions.initial or .bracket"
                )
            return np.full(n, guess)
    raise LiebauError(
        "no usable initial guess: provide SolveOptions.initial or .bracket "
        "(the built-in constant guess needs a Liebau-derived problem with positive mean forcing)"
    )


def solve_periodic(gp: GeneralProblem, opts: SolveOptions = SolveOptions()) -> GridSolution:
    """Compute a positive periodic solution on a uniform cyclic grid.

    One pass: damped Newton on central differences on ``fd_n`` = min(n,
    COARSE_N) points, the lift of its solution to the n-grid and the
    collocation Newton polish there.  Raises NoConvergence when the Newton
    budget runs out, LeftPositiveCone when damping cannot keep the iterate
    positive or the lift is not (a bad initial guess, or no positive solution
    nearby), and OutOfFloatRange when the built-in constant guess overflows
    or underflows to 0; see the module docstring.
    """
    n, T, a = opts.n, gp.T, gp.a
    nodes, r_nodes, s_nodes, f_of, fprime_of = _sampled(gp, n)
    fd_n = min(n, COARSE_N)
    f_fd, fprime_fd = (f_of, fprime_of) if fd_n == n else _sampled(gp, fd_n)[3:]
    x, iterations = _fd_newton(_initial_values(gp, opts, fd_n), T / fd_n, a, f_fd, fprime_fd)
    if fd_n < n:
        x = trig_interpolate(x, n)
        if not np.all(x > 0.0):
            raise LeftPositiveCone("the lifted coarse solution is not strictly positive")
    symbol = _operator_symbol(n, T, a)
    x, polish_iters, res, spec = _polish(x, symbol, f_of, fprime_of)
    sup_res, sup_res_exact = _refined_residuals(gp, x, res, spec, symbol, r_nodes, s_nodes)
    return GridSolution(
        T=T,
        nodes=nodes,
        values=x,
        sup_residual=sup_res,
        sup_residual_exact_data=sup_res_exact,
        iterations=iterations + polish_iters,
        converged=True,
        polish_iterations=polish_iters,
        fd_n=fd_n,
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is caught as a non-finite value
def _fd_newton(x, h, a, f_of, fprime_of):
    """Damped Newton on the cyclic central-difference system, from x.

    Returns the solution and the number of Newton steps.  Each step solves
    the cyclic tridiagonal Jacobian system and halves the step until the
    iterate stays positive and the sup-norm residual does not grow.  A
    residual or f'(x) that is not finite ends the stage with NoConvergence
    (the solution lies beyond float range; an overflowed f'(x) would give a
    zero step that reads as convergence), and a trial step whose residual
    is not finite counts as one that does not lower it.
    """
    if np.any(x <= 0.0):
        raise LeftPositiveCone("initial guess must be strictly positive")
    n = len(x)
    sub = np.full(n, 1.0 / h**2 - a / (2.0 * h))
    sup = np.full(n, 1.0 / h**2 + a / (2.0 * h))
    iterations = 0
    res = cyclic_fd_operator(x, h, a) - f_of(x)
    for _ in range(NEWTON_MAX_STEPS):
        res_norm = float(np.max(np.abs(res)))
        if not res_norm < math.inf:
            raise NoConvergence("the FD residual is beyond float range")
        if res_norm <= _rounding_floor(x, h, a):
            return x, iterations
        diag = -2.0 / h**2 - fprime_of(x)
        if not np.all(np.isfinite(diag)):
            raise NoConvergence("f'(x) of the Newton iterate is beyond float range")
        step = solve_cyclic_tridiagonal(sub, diag, sup, sub[0], sup[-1], -res)
        lam = 1.0
        accepted = False
        positivity_blocked = False
        while lam >= 2.0**-20:
            candidate = x + lam * step
            if np.all(candidate > 0.0):
                cand_res = cyclic_fd_operator(candidate, h, a) - f_of(candidate)
                cand_norm = float(np.max(np.abs(cand_res)))
                if cand_norm <= res_norm * (1.0 + 1e-10) or (lam < 1e-4 and cand_norm < math.inf):
                    accepted = True
                    break
            else:
                positivity_blocked = True
            lam *= 0.5
        if not accepted:
            if positivity_blocked:
                raise LeftPositiveCone(
                    "Newton damping hit its floor while the iterate was nonpositive"
                )
            raise NoConvergence("Newton damping hit its floor without residual decrease")
        x = candidate
        res = cand_res
        iterations += 1
        if float(np.max(np.abs(lam * step))) <= NEWTON_TOL * min(1.0, float(np.max(x))):
            return x, iterations
    raise NoConvergence(f"no convergence within {NEWTON_MAX_STEPS} Newton iterations")


def _node_residual(y, symbol, f_of):
    """Collocation residual irfft(rfft(y - mean y) * symbol) - f(y) at the
    nodes, with the rfft(y - mean y) it was computed from."""
    spec = np.fft.rfft(y - y.mean())
    return np.fft.irfft(spec * symbol, n=len(y)) - f_of(y), spec


def _polish(x, symbol, f_of, fprime_of):
    """Newton on the collocation residual d2 + a d1 - f(x), from x.

    The residual is ``_node_residual``'s, with ``symbol`` the rfft symbol of
    D^2 + a D from ``_operator_symbol``: one rfft/irfft pair.  Each step
    solves (D^2 + a D - diag f'(x)) delta = -res by GMRES, right
    preconditioned by P = D^2 + a D - mean f'(x), whose FFT symbol
    -w^2 + i a w - mean f' is inverted mode by mode.  Since D^2 + a D = P +
    mean f', the preconditioned operator is I - (f'(x) - mean f') P^-1, one
    rfft/irfft pair per matvec; GMRES returns on its own residual estimate,
    with no matvec after its last Arnoldi vector.  Steps continue while each
    one at least halves the sup-norm residual; a step that leaves the
    positive cone, or does not lower the residual, is dropped, except that
    after a kept step a step of at most ``_POLISH_NOISE_STEP`` times max x is
    kept whatever its residual (whose change is then rounding noise) and
    ends the polish.  A zero bin of the symbol (mode 0 when mean f' = 0)
    makes P singular, and x is returned as it is.  Returns the iterate, the
    number of steps kept, and the node residual and spectrum of the iterate
    that ``_node_residual`` gave, for ``_refined_residuals``.
    """
    n = len(x)
    res, spec = _node_residual(x, symbol, f_of)
    res_norm = float(np.max(np.abs(res)))
    steps = 0
    while True:
        fp = fprime_of(x)
        fbar = float(fp.mean())
        denom = symbol - fbar
        if np.any(denom == 0.0):
            return x, steps, res, spec
        inv = 1.0 / denom
        spread = fp - fbar

        def precond(v):
            return np.fft.irfft(np.fft.rfft(v) * inv, n=n)

        u = gmres(lambda v: v - spread * precond(v), -res, _GMRES_RTOL, _GMRES_RESTART, _GMRES_CYCLES)
        delta = precond(u)
        candidate = x + delta
        if np.any(candidate <= 0.0):
            return x, steps, res, spec
        cand_res, cand_spec = _node_residual(candidate, symbol, f_of)
        cand_norm = float(np.max(np.abs(cand_res)))
        noise_step = steps > 0 and np.max(np.abs(delta)) <= _POLISH_NOISE_STEP * np.max(x)
        if not (cand_norm < res_norm or noise_step):
            return x, steps, res, spec
        steps += 1
        halved = cand_norm <= 0.5 * res_norm
        x, res, spec, res_norm = candidate, cand_res, cand_spec, cand_norm
        if noise_step or not halved:
            return x, steps, res, spec


def _refined_residuals(gp, values, node_res, spec, symbol, r_nodes, s_nodes):
    """``sup_residual`` and ``sup_residual_exact_data`` over the REFINE_FACTOR * n fine nodes.

    ``node_res`` and ``spec`` are ``_node_residual``'s residual of the
    values and their mean-free spectrum, and ``symbol`` its operator symbol.
    Fine node REFINE_FACTOR * i + j is node i shifted by j h / REFINE_FACTOR.
    Phase 0 is the n-grid itself, bit for bit, where every interpolant equals
    its samples: both residuals there are the node residual.  At phase j > 0
    an interpolant's values are the n-point inverse transform of its
    spectrum times e^{i w j h / REFINE_FACTOR}.  One complex exp gives phase
    1's factors, and phase j > 1 takes phase j - 1's times phase 1's, which
    moves them by a few ulp.  For even n, irfft reads only the real part of
    the Nyquist bin, so that bin takes the real factor cos(w j h /
    REFINE_FACTOR) of the symmetric split in ``resample_spectrum``.  The
    phases go one at a time, so no REFINE_FACTOR * n array is built.  A
    coefficient whose node samples are all equal is that constant, with no
    transform.  (The mean of equal samples may miss them by an ulp, as
    s = 0.30000000000000004 of the tank preset reads 0.29999999999999993.)
    """
    T = gp.T
    n = len(values)
    n_f = REFINE_FACTOR * n
    mean = values.mean()
    lin_spec = spec * symbol
    coefficients = []  # (mean, spectrum) of r and s; (value, None) for a constant
    for c in (r_nodes, s_nodes):
        if np.all(c == c[0]):
            coefficients.append((c[0], None))
        else:
            c_mean = c.mean()
            coefficients.append((c_mean, np.fft.rfft(c - c_mean)))
    step = np.exp((2j * np.pi / n_f) * np.arange(n // 2 + 1))  # phase 1's factor
    fine_index = REFINE_FACTOR * np.arange(n)
    node_sup = np.max(np.abs(node_res))
    sups_colloc, sups_exact = [node_sup], [node_sup]
    for phase in range(1, REFINE_FACTOR):
        shift = step if phase == 1 else shift * step  # phase j's factor, step**j by products

        def at_phase(spectrum):
            return np.fft.irfft(spectrum * shift, n=n)

        positive = np.clip(at_phase(spec) + mean, 1e-300, None)
        lin = at_phase(lin_spec)
        x_alpha, x_beta = positive**gp.alpha, positive**gp.beta
        r_interp, s_interp = (
            c_mean if c_spec is None else at_phase(c_spec) + c_mean for c_mean, c_spec in coefficients
        )
        sups_colloc.append(np.max(np.abs(lin - (r_interp * x_alpha - s_interp * x_beta))))
        fine_nodes = (fine_index + phase) * (T / n_f)
        r_exact = np.asarray(gp.r(fine_nodes), dtype=float)
        s_exact = np.asarray(gp.s(fine_nodes), dtype=float)
        sups_exact.append(np.max(np.abs(lin - (r_exact * x_alpha - s_exact * x_beta))))
    return float(np.max(sups_colloc)), float(np.max(sups_exact))


def fd_residual(gp: GeneralProblem, x) -> float:
    """Sup-norm finite-difference residual of samples x on the grid arange(n) * (T/n).

    The cyclic stencils build periodicity in, so there is no separate
    boundary defect to report.  ``numerics.trace_array`` checks x.
    """
    x = trace_array(x, "x", NegativeState)
    n = len(x)
    f_of = _sampled(gp, n)[3]
    res = cyclic_fd_operator(x, gp.T / n, gp.a) - f_of(x)
    return float(np.max(np.abs(res)))


def cone_and_localization(values, cone_const: float, r1: float, r2: float) -> ConeReport:
    """Check cone membership and the localization band for trace samples
    (checked by ``numerics.trace_array``); each bound must be a finite real
    number, cone_const must lie in (0, 1), and BadRadii refuses radii outside
    0 < r1 < r2."""
    values = trace_array(values, "values")
    for name, bound in (("cone_const", cone_const), ("r1", r1), ("r2", r2)):
        if not is_finite_real(bound):
            raise LiebauError(f"{name} must be a finite real number, got {bound!r}")
    if not 0.0 < cone_const < 1.0:
        raise LiebauError(f"cone_const must lie in (0, 1), got {cone_const!r}")
    if not 0.0 < r1 < r2:
        raise BadRadii(f"need 0 < r1 < r2, got {r1!r}, {r2!r}")
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    return ConeReport(
        in_cone=vmin >= cone_const * vmax,
        above_lower=vmin >= cone_const * r1,
        below_upper=vmax <= r2,
    )
