"""Periodic solvers for the regular problem.

Two stages.  A damped Newton iteration on the cyclic second-order
finite-difference system finds the discrete solution; its Jacobian is cyclic
tridiagonal and solved by bordered elimination.  A polish stage then runs
Newton on the Fourier collocation residual d2 + a d1 - f(x) (spectral
derivatives of the trigonometric interpolant), starting from the
finite-difference solution.  Each polish step solves its linear system by a
short GMRES, preconditioned by FFT with the constant-coefficient operator
D^2 + a D - mean f'(x), so the polish makes no cyclic tridiagonal solves;
it stops once a step fails to halve the residual, which for smooth
coefficient data leaves residuals near rounding level.  The
finite-difference stage alone is a clean second-order scheme, and the polish
can be disabled to observe that order.

Residual reporting: ``sup_residual`` is the collocated residual of the
returned representation measured on a ``refine_factor`` times finer grid,
with the coefficient samples interpolated alongside the solution (it
measures how well the discrete representation solves its own collocated
equation; this is the number that converges to rounding level).
``sup_residual_exact_data`` evaluates the coefficients exactly at the fine
nodes instead, so it additionally sees how much of the continuum data the
grid resolution cannot represent; for band-limited coefficients the two
coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import greens
from .errors import BadRadii, LeftPositiveCone, LiebauError, NegativeState, NoConvergence
from .funcspec import PeriodicFunction
from .problem import GeneralProblem, deregularize, truncated_rhs
from .numerics import (
    cyclic_differences,
    gmres,
    solve_cyclic_tridiagonal,
    spectral_derivatives,
    trig_interpolate,
)

# The polish's inner GMRES: relative residual target, basis size per cycle
# and number of cycles.  The preconditioned operator is the identity up to
# the spread of f'(x), so a few vectors reach the target.
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 12
_GMRES_CYCLES = 4


@dataclass(frozen=True)
class SolveOptions:
    n: int = 512
    tol: float = 1e-12  # sup-norm bound on the accepted Newton update, times min(1, max x)
    max_iter: int = 50
    initial: float | np.ndarray | None = None
    bracket: tuple[float, float] | None = None  # geometric midpoint used as constant guess
    polish: bool = True
    refine_factor: int = 4
    truncation_band: tuple[float, float, float] | None = None  # (m, r1, r2) fallback operator


@dataclass(frozen=True)
class GridSolution:
    """Periodic solution samples on a uniform grid over [0, T)."""

    T: float
    nodes: np.ndarray
    values: np.ndarray
    sup_residual: float
    sup_residual_exact_data: float
    iterations: int  # Newton steps, Picard fallbacks and polish steps together
    converged: bool
    polish_iterations: int = 0  # the polish's share of ``iterations``
    units: str = "x"

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


def _fd_residual_terms(values: np.ndarray, h: float, a: float) -> np.ndarray:
    d1, d2 = cyclic_differences(values)
    return d2 / h**2 + a * d1 / (2.0 * h)


def _initial_values(gp: GeneralProblem, opts: SolveOptions, n: int) -> np.ndarray:
    if opts.initial is not None:
        init = np.asarray(opts.initial, dtype=float)
        if init.ndim == 0:
            return np.full(n, float(init))
        if len(init) != n:
            raise LiebauError(f"initial guess has {len(init)} values, expected {n}")
        return init.copy()
    if opts.bracket is not None:
        lo, hi = opts.bracket
        if not (0.0 < lo < hi):
            raise LiebauError(f"bracket must satisfy 0 < lo < hi, got {opts.bracket!r}")
        return np.full(n, math.sqrt(lo * hi))
    try:
        lp = deregularize(gp)
    except LiebauError:
        lp = None
    if lp is not None:
        ebar = lp.e.mean()
        if ebar > 0.0:
            return np.full(n, (ebar / lp.c) ** (1.0 / lp.mu))
    if opts.truncation_band is not None:
        m, r1, r2 = opts.truncation_band
        cm = greens.build(gp.a, m, gp.T).cone_constant
        return np.full(n, math.sqrt(cm * r1 * r2))
    raise LiebauError(
        "no usable initial guess: provide SolveOptions.initial or .bracket "
        "(the built-in constant guess needs a Liebau-derived problem with positive mean forcing)"
    )


def solve_periodic(gp: GeneralProblem, opts: SolveOptions = SolveOptions()) -> GridSolution:
    """Compute a positive periodic solution on a uniform cyclic grid.

    Damped Newton on central differences followed by the collocation
    Newton polish (see module docstring).  Raises NoConvergence when the iteration
    budget runs out and LeftPositiveCone when damping cannot keep the iterate
    positive (a bad initial guess, or no positive solution nearby).
    """
    n = opts.n
    T = gp.T
    h = T / n
    nodes = np.arange(n) * h
    r_nodes = np.asarray(gp.r(nodes), dtype=float)
    s_nodes = np.asarray(gp.s(nodes), dtype=float)
    a, alpha, beta = gp.a, gp.alpha, gp.beta

    def f_of(x):
        return r_nodes * x**alpha - s_nodes * x**beta

    def fprime_of(x):
        return alpha * r_nodes * x ** (alpha - 1.0) - beta * s_nodes * x ** (beta - 1.0)

    sub = np.full(n, 1.0 / h**2 - a / (2.0 * h))
    sup = np.full(n, 1.0 / h**2 + a / (2.0 * h))

    x = _initial_values(gp, opts, n)
    if np.any(x <= 0.0):
        raise LeftPositiveCone("initial guess must be strictly positive")

    iterations = 0
    converged = False
    fallback_used = False
    res = _fd_residual_terms(x, h, a) - f_of(x)
    for _ in range(opts.max_iter):
        res_norm = float(np.max(np.abs(res)))
        noise_floor = 32.0 * np.finfo(float).eps * (4.0 / h**2 + 2.0 * a / h) * max(
            1.0, float(np.max(np.abs(x)))
        )
        if res_norm <= noise_floor:
            converged = True
            break
        diag = -2.0 / h**2 - fprime_of(x)
        step = solve_cyclic_tridiagonal(sub, diag, sup, sub[0], sup[-1], -res)
        lam = 1.0
        accepted = False
        positivity_blocked = False
        while lam >= 2.0**-20:
            candidate = x + lam * step
            if np.all(candidate > 0.0):
                cand_res = _fd_residual_terms(candidate, h, a) - f_of(candidate)
                if float(np.max(np.abs(cand_res))) <= res_norm * (1.0 + 1e-10) or lam < 1e-4:
                    accepted = True
                    break
            else:
                positivity_blocked = True
            lam *= 0.5
        if not accepted:
            if opts.truncation_band is not None and not fallback_used:
                # a few compact-operator sweeps pull the iterate back into the band
                fallback_used = True
                m, r1, r2 = opts.truncation_band
                trace = picard_iterate(gp, m, r1, r2, np.clip(np.abs(x), 1e-12, r2), 8)
                x = trace.iterates[-1]
                res = _fd_residual_terms(x, h, a) - f_of(x)
                iterations += 1
                continue
            if positivity_blocked:
                raise LeftPositiveCone(
                    "Newton damping hit its floor while the iterate was nonpositive"
                )
            raise NoConvergence("Newton damping hit its floor without residual decrease")
        x = candidate
        res = cand_res
        iterations += 1
        if float(np.max(np.abs(lam * step))) <= opts.tol * min(1.0, float(np.max(x))):
            converged = True
            break
    if not converged:
        raise NoConvergence(f"no convergence within {opts.max_iter} Newton iterations")

    polish_iters = 0
    if opts.polish:
        x, polish_iters = _polish(x, T, a, f_of, fprime_of)

    sup_res, sup_res_exact = _refined_residuals(gp, nodes, x, r_nodes, s_nodes, opts.refine_factor)
    return GridSolution(
        T=T,
        nodes=nodes,
        values=x,
        sup_residual=sup_res,
        sup_residual_exact_data=sup_res_exact,
        iterations=iterations + polish_iters,
        converged=True,
        polish_iterations=polish_iters,
    )


def _polish(x, T, a, f_of, fprime_of):
    """Newton on the collocation residual d2 + a d1 - f(x), from the FD solution.

    Each step solves (D^2 + a D - diag f'(x)) delta = -res by GMRES, right
    preconditioned by P = D^2 + a D - mean f'(x), whose FFT symbol
    -w^2 + i a w - mean f' is inverted mode by mode (the Nyquist bin keeps no
    first derivative, as in ``spectral_derivatives``).  Since D^2 + a D = P +
    mean f', the preconditioned operator is I - (f'(x) - mean f') P^-1, one
    rfft/irfft pair per matvec.  Steps continue while each one at least
    halves the sup-norm residual; a step that does not lower it, or leaves
    the positive cone, is dropped.  A zero bin of the symbol (mode 0 when
    mean f' = 0) makes P singular, and the Newton iterate is returned as it is.
    """
    n = len(x)
    w = (2.0 * np.pi / T) * np.arange(n // 2 + 1)
    symbol = -(w**2) + 1j * a * w
    if n % 2 == 0:
        symbol[-1] = -(w[-1] ** 2)

    def residual(y):
        d1, d2 = spectral_derivatives(y, T)
        return d2 + a * d1 - f_of(y)

    res = residual(x)
    res_norm = float(np.max(np.abs(res)))
    steps = 0
    while True:
        fp = fprime_of(x)
        fbar = float(fp.mean())
        denom = symbol - fbar
        if np.any(denom == 0.0):
            return x, steps
        inv = 1.0 / denom
        spread = fp - fbar

        def precond(v):
            return np.fft.irfft(np.fft.rfft(v) * inv, n=n)

        u = gmres(lambda v: v - spread * precond(v), -res, _GMRES_RTOL, _GMRES_RESTART, _GMRES_CYCLES)
        candidate = x + precond(u)
        if np.any(candidate <= 0.0):
            return x, steps
        cand_res = residual(candidate)
        cand_norm = float(np.max(np.abs(cand_res)))
        if not cand_norm < res_norm:
            return x, steps
        steps += 1
        halved = cand_norm <= 0.5 * res_norm
        x, res, res_norm = candidate, cand_res, cand_norm
        if not halved:
            return x, steps


def _refined_residuals(gp, nodes, values, r_nodes, s_nodes, factor):
    T = gp.T
    n = len(values)
    d1, d2 = spectral_derivatives(values, T)
    x_f = trig_interpolate(values, factor)
    d1_f = trig_interpolate(d1, factor)
    d2_f = trig_interpolate(d2, factor)
    fine_nodes = np.arange(factor * n) * (T / (factor * n))
    lin = d2_f + gp.a * d1_f
    positive = np.clip(x_f, 1e-300, None)
    r_interp = trig_interpolate(r_nodes, factor)
    s_interp = trig_interpolate(s_nodes, factor)
    res_colloc = lin - (r_interp * positive**gp.alpha - s_interp * positive**gp.beta)
    r_exact = np.asarray(gp.r(fine_nodes), dtype=float)
    s_exact = np.asarray(gp.s(fine_nodes), dtype=float)
    res_exact = lin - (r_exact * positive**gp.alpha - s_exact * positive**gp.beta)
    return float(np.max(np.abs(res_colloc))), float(np.max(np.abs(res_exact)))


def fd_residual(gp: GeneralProblem, solution: GridSolution) -> float:
    """Sup-norm finite-difference residual at the nodes.

    The cyclic stencils build periodicity in, so there is no separate
    boundary defect to report.
    """
    x = np.asarray(solution.values, dtype=float)
    if np.any(x <= 0.0):
        raise NegativeState("residual requested for a nonpositive trace")
    n = len(x)
    h = gp.T / n
    nodes = solution.nodes
    res = _fd_residual_terms(x, h, gp.a) - (
        np.asarray(gp.r(nodes), dtype=float) * x**gp.alpha
        - np.asarray(gp.s(nodes), dtype=float) * x**gp.beta
    )
    return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class PicardTrace:
    """Iterates of the truncated integral operator."""

    nodes: np.ndarray
    iterates: tuple[np.ndarray, ...]
    sup_deltas: tuple[float, ...]
    cone_const: float

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def picard_iterate(
    gp: GeneralProblem,
    m: float,
    r1: float,
    r2: float,
    x0,
    n_steps: int,
    n: int | None = None,
) -> PicardTrace:
    """Iterate x -> integral G_m(., s) f~(s, x(s)) ds on the grid.

    The operator is compact, not contractive, so there is no convergence
    guarantee; this is a fallback and a direct probe of the fixed-point
    operator.  Each step is one ``greens.circular_response``: the periodic
    trapezoid rule as a circular convolution plus the h^2/12 * f~(t) term for
    the kernel's unit slope jump at the wrap.
    """
    if not (0.0 < r1 < r2):
        raise BadRadii(f"need 0 < R1 < R2, got {r1!r}, {r2!r}")
    kernel = greens.build(gp.a, m, gp.T)
    cm = kernel.cone_constant
    if isinstance(x0, GridSolution):
        start = np.asarray(x0.values, dtype=float)
    else:
        start = np.asarray(x0, dtype=float)
        if start.ndim == 0:
            start = np.full(n or 512, float(start))
    nodes = np.arange(len(start)) * (gp.T / len(start))

    iterates = [start.copy()]
    deltas: list[float] = []
    x = start.copy()
    for _ in range(n_steps):
        f = truncated_rhs(gp, m, cm, r1, r2, nodes, x)
        x_next = greens.circular_response(kernel, f)
        deltas.append(float(np.max(np.abs(x_next - x))))
        x = x_next
        iterates.append(x.copy())
    return PicardTrace(nodes, tuple(iterates), tuple(deltas), cm)


def solve_shifted_linear(
    a: float, m: float, T: float, forcing: PeriodicFunction, n: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Solve x'' + a x' + m^2 x = h(t) periodically with the cyclic scheme.

    One linear solve; used to cross-check the finite-difference machinery
    against the kernel quadrature route.
    """
    h = T / n
    nodes = np.arange(n) * h
    sub = np.full(n, 1.0 / h**2 - a / (2.0 * h))
    sup = np.full(n, 1.0 / h**2 + a / (2.0 * h))
    diag = np.full(n, -2.0 / h**2 + m * m)
    rhs = np.asarray(forcing(nodes), dtype=float)
    x = solve_cyclic_tridiagonal(sub, diag, sup, sub[0], sup[-1], rhs)
    return nodes, x


def cone_and_localization(
    solution: GridSolution | np.ndarray, cone_const: float, r1: float, r2: float
) -> ConeReport:
    """Check cone membership and the localization band for a trace."""
    values = solution.values if isinstance(solution, GridSolution) else np.asarray(solution)
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    return ConeReport(
        in_cone=vmin >= cone_const * vmax,
        above_lower=vmin >= cone_const * r1,
        below_upper=vmax <= r2,
    )
