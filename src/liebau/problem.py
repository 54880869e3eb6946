"""Model descriptions and the transforms between them.

Three levels, from physical to abstract:

* PhysicalConfig: raw pipe/tank constants and the external force p(t).
* LiebauProblem: the singular pipe-level equation
      u'' + a u' = (e(t) - b (u')^2)/u - c,  u(0)=u(T), u'(0)=u'(T),
  parametrized by (a, b, c, T, e) with b > 1; mu = 1/(b+1) is stored as the
  canonical exponent since every sufficient condition is written in mu.
* GeneralProblem: the regular equation
      x'' + a x' = r(t) x^alpha - s(t) x^beta,  0 < alpha < beta < 1,
  obtained from a LiebauProblem through the substitution u = x^mu, which
  maps (e, c, mu) to r = e/mu, s = c/mu, alpha = 1 - 2 mu, beta = 1 - mu.

The shifted right-hand side f_m(t, x) = r x^alpha - s x^beta + m^2 x is
defined here as well; it accepts scalars or numpy arrays in t and x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LiebauError, NegativeState
from .funcspec import PeriodicFunction
from .greens import check_coefficients


def _require_finite(obj, *names: str) -> None:
    """Reject NaN and infinite scalar parameters before any range check sees them."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise LiebauError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalConfig:
    """Raw constants of the one-pipe one-tank configuration."""

    r0: float  # friction coefficient
    rho: float  # fluid density
    zeta: float  # junction coefficient, >= 1
    g: float  # gravity
    a_tau: float  # tank cross-section
    a_pi: float  # pipe cross-section
    v0: float  # total fluid volume
    p: PeriodicFunction  # external force

    def __post_init__(self):
        _require_finite(self, "r0", "rho", "zeta", "g", "a_tau", "a_pi", "v0")
        if self.r0 < 0.0 or self.rho <= 0.0 or self.g <= 0.0:
            raise LiebauError("need r0 >= 0, rho > 0, g > 0")
        if self.a_tau <= 0.0 or self.a_pi <= 0.0 or self.v0 <= 0.0:
            raise LiebauError("cross-sections and volume must be positive")
        if self.zeta < 1.0:
            raise LiebauError(f"junction coefficient must be >= 1, got {self.zeta!r}")
        if self.a_pi >= self.a_tau:
            warnings.warn("pipe cross-section is not small relative to the tank", stacklevel=2)


@dataclass(frozen=True)
class LiebauProblem:
    """Singular pipe-level problem; mu in (0, 1/2) is the stored exponent."""

    a: float
    mu: float
    c: float
    T: float
    e: PeriodicFunction

    def __post_init__(self):
        _require_finite(self, "mu", "c")
        check_coefficients(self.a, self.T)
        if not (0.0 < self.mu < 0.5):
            raise LiebauError(f"need 0 < mu < 1/2 (equivalently b > 1), got mu={self.mu!r}")
        if self.c <= 0.0:
            raise LiebauError(f"need c > 0, got {self.c!r}")
        if self.e.period != self.T:
            raise LiebauError(
                f"forcing period {self.e.period!r} does not match problem period {self.T!r}"
            )

    @property
    def b(self) -> float:
        return 1.0 / self.mu - 1.0

    @staticmethod
    def from_b(a: float, b: float, c: float, T: float, e: PeriodicFunction) -> "LiebauProblem":
        if b <= 1.0:
            raise LiebauError(f"need b > 1, got {b!r}")
        return LiebauProblem(a, 1.0 / (b + 1.0), c, T, e)


@dataclass(frozen=True)
class GeneralProblem:
    """Regular problem x'' + a x' = r(t) x^alpha - s(t) x^beta."""

    a: float
    T: float
    r: PeriodicFunction
    s: PeriodicFunction
    alpha: float
    beta: float

    def __post_init__(self):
        _require_finite(self, "alpha", "beta")
        check_coefficients(self.a, self.T)
        if not (0.0 < self.alpha < self.beta < 1.0):
            raise LiebauError(
                f"exponents must satisfy 0 < alpha < beta < 1, got {self.alpha!r}, {self.beta!r}"
            )
        if self.r.period != self.T or self.s.period != self.T:
            raise LiebauError("coefficient periods must match the problem period")


def from_physical(cfg: PhysicalConfig) -> LiebauProblem:
    """Derive the pipe-level parameters from physical constants.

    a = r0/rho, b = 1 + zeta/2, c = g A_pi / A_tau and
    e(t) = g V0 / A_tau - p(t)/rho.  The map is one-way: several physical
    configurations collapse onto one LiebauProblem.
    """
    a = cfg.r0 / cfg.rho
    b = 1.0 + cfg.zeta / 2.0
    c = cfg.g * cfg.a_pi / cfg.a_tau
    e = cfg.p.scale(-1.0 / cfg.rho).plus_constant(cfg.g * cfg.v0 / cfg.a_tau)
    return LiebauProblem.from_b(a, b, c, cfg.p.period, e)


def regularize(lp: LiebauProblem) -> GeneralProblem:
    """Transform the singular problem into the regular one via u = x^mu."""
    mu = lp.mu
    return GeneralProblem(
        a=lp.a,
        T=lp.T,
        r=lp.e.scale(1.0 / mu),
        s=PeriodicFunction.constant(lp.T, lp.c / mu),
        alpha=1.0 - 2.0 * mu,
        beta=1.0 - mu,
    )


def deregularize(gp: GeneralProblem) -> LiebauProblem:
    """Invert regularize when the problem has the Liebau structure.

    Requires s constant and alpha = 1 - 2(1 - beta) up to rounding; raises
    LiebauError otherwise.
    """
    from .funcspec import Constant

    mu = 1.0 - gp.beta
    if abs(gp.alpha - (1.0 - 2.0 * mu)) > 1e-12:
        raise LiebauError("exponents do not have the regularized Liebau structure")
    if not isinstance(gp.s.body, Constant):
        raise LiebauError("s(t) must be constant for a Liebau-derived problem")
    c = gp.s.body.value * mu
    return LiebauProblem(a=gp.a, mu=mu, c=c, T=gp.T, e=gp.r.scale(mu))


def shifted_rhs(gp: GeneralProblem, m: float, t, x):
    """f_m(t, x) = r(t) x^alpha - s(t) x^beta + m^2 x for x >= 0.

    The fractional powers extend continuously to x = 0 with value 0, so
    f_m(t, 0) = 0.  Raises NegativeState for x < 0.
    """
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0):
        raise NegativeState("shifted right-hand side evaluated at x < 0")
    rv = np.asarray(gp.r(t), dtype=float)
    sv = np.asarray(gp.s(t), dtype=float)
    out = rv * xv**gp.alpha - sv * xv**gp.beta + m * m * xv
    return out if (np.ndim(x) or np.ndim(t)) else float(out)
