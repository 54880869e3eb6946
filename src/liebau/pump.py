"""Pipe-level checks and the pumping-effect report.

Multiplying the pipe-level equation by u and integrating over one period
kills every derivative term except -int (u')^2, leaving the exact balance

    c T u_mean = T e_mean - (b - 1) int_0^T (u')^2 dt.

So a nonconstant periodic regime depresses the mean pipe quantity below the
constant-forcing level e_mean / c by exactly (b - 1) ||u'||^2 / (c T); with
the total volume fixed, a lower mean pipe quantity is a higher mean tank
level, which is the pumping effect.  The report quantifies this as
``delta = e_mean/c - u_mean`` and cross-checks it with the balance residual.

A trace is a 1-D array of u samples on the problem's grid arange(n) * (T/n),
checked by ``numerics.trace_array`` (NonpositiveLevel for u <= 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LiebauError, NegativeState, NonpositiveLevel
from .problem import LiebauProblem
from .numerics import cyclic_differences, is_finite_real, spectral_derivatives, trace_array


@dataclass(frozen=True)
class PumpReport:
    u_mean: float
    e_mean_over_c: float
    delta: float  # e_mean/c - u_mean; positive for nonconstant regimes
    uprime_l2sq: float  # int_0^T (u')^2 dt
    identity_residual: float  # |c T u_mean - (T e_mean - (b-1) uprime_l2sq)|
    pumping_detected: bool


def singular_residual(
    lp: LiebauProblem,
    u,
    uprime: np.ndarray | None = None,
    usecond: np.ndarray | None = None,
) -> float:
    """Sup-norm residual of the pipe-level equation on the grid.

    Cyclic central differences by default; pass analytic samples of both
    derivatives, of u's shape, to isolate the model identity from
    discretization error.
    """
    values = trace_array(u, "u", NonpositiveLevel)
    n = len(values)
    h = lp.T / n
    nodes = np.arange(n) * h
    if uprime is None and usecond is None:
        d1, d2 = cyclic_differences(values)
        du = d1 / (2.0 * h)
        d2u = d2 / h**2
    else:
        du = trace_array(uprime, "uprime")
        d2u = trace_array(usecond, "usecond")
        if not du.shape == d2u.shape == values.shape:
            raise LiebauError(f"uprime and usecond need u's shape {values.shape}")
    e_vals = np.asarray(lp.e(nodes), dtype=float)
    res = d2u + lp.a * du - (e_vals - lp.b * du**2) / values + lp.c
    return float(np.max(np.abs(res)))


def x_to_u(x, mu: float) -> np.ndarray:
    """Transform regularized samples back to pipe-level units, u = x^mu, for
    the exponent mu in (0, 1/2) of a pipe-level problem."""
    values = trace_array(x, "x", NegativeState)
    if not is_finite_real(mu):
        raise LiebauError(f"mu must be a finite real number, got {mu!r}")
    if not 0.0 < mu < 0.5:
        raise LiebauError(f"need 0 < mu < 1/2, got mu={mu!r}")
    return values**mu


def check_tol(tol) -> None:
    """LiebauError unless the pumping detection threshold tol is a finite real number at least 0."""
    if not is_finite_real(tol):
        raise LiebauError(f"tol must be a finite real number, got {tol!r}")
    if tol < 0.0:
        raise LiebauError(f"tol must be at least 0, got {tol!r}")


def pump_report(lp: LiebauProblem, u, tol: float = 1e-9) -> PumpReport:
    """Quantify the pumping effect of a periodic pipe-level trace.

    Periodic means are plain node averages (spectrally accurate for smooth
    periodic data); u' comes from spectral differentiation of the trace.
    Pumping is detected when delta exceeds tol, which ``check_tol`` checks.
    """
    values = trace_array(u, "u", NonpositiveLevel)
    check_tol(tol)
    T = lp.T
    u_mean = float(values.mean())
    e_mean = lp.e.mean()
    du, _ = spectral_derivatives(values, T)
    uprime_l2sq = float(np.mean(du**2)) * T
    delta = e_mean / lp.c - u_mean
    identity_residual = abs(lp.c * T * u_mean - (T * e_mean - (lp.b - 1.0) * uprime_l2sq))
    return PumpReport(
        u_mean=u_mean,
        e_mean_over_c=e_mean / lp.c,
        delta=delta,
        uprime_l2sq=uprime_l2sq,
        identity_residual=identity_residual,
        pumping_detected=delta > tol,
    )
