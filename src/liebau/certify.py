"""Numeric existence certificates.

A certificate records, for one sufficient-condition system and one parameter
tuple (m, kappa, R1, R2), every inequality that was checked together with its
two sides and its margin.  Margins are oriented so nonnegative means
satisfied.  A condition holds when its relative margin, margin / max(|lhs|,
|rhs|, 1e-300), is at least ``eps``; the default 0 is margin >= 0 (no hidden
epsilon: some published instances pass with relative margins near 1e-7).  A
condition with a zero side (the envelope facts, ``forcing_positive``) reads
-1, 0 or 1 when its other side is at least 1e-300 in size, so eps acts on it
only through its sign.  A side that overflows to inf reads NaN and fails.

Three condition systems are implemented:

* ``general``: user-supplied envelope functions g0 <= f_m <= g1 on bands of
  the cone, plus bounds on the kernel responses to g0 and g1.  Passing it
  guarantees a positive periodic solution with values in [c_m R1, R2].
* ``sign_changing``: explicit inequalities for the pipe-level problem that
  tolerate a forcing with negative minimum.  Parameters (m, kappa, R1, R2).
* ``positive_forcing``: a two-inequality criterion for strictly positive
  forcing; on success it carries the explicit localization ceiling
  (1/c_m) (e_max / c)^(1/mu) and the largest forcing peak the criterion
  could still certify at this m.

A deterministic search automates the parameter hunt for both pipe-level
systems: it scans a grid of m and takes the other parameters in closed form
at each m, so no grid or option bounds the radii.  It ranks the grid on the
pipe-level checkers' own conditions (the same helpers build them), so a tuple
it keeps passes the checker it returns.  The closed-form tuple maximizes the
minimum relative margin at its m whatever eps is, so eps only drops the grid
points whose score is below it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import greens
from .errors import (
    BadRadii,
    ConfigError,
    InapplicableCriterion,
    KappaNonpositive,
    LiebauError,
    OutOfFloatRange,
)
from .funcspec import EXTREMA_REFINE_TOL, PeriodicFunction
from .numerics import is_finite_real, per_element, pow_or_inf, sorted_unique
from .problem import GeneralProblem, LiebauProblem, shifted_rhs

THEOREM_GENERAL = "general"
THEOREM_SIGN_CHANGING = "sign_changing"
THEOREM_POSITIVE_FORCING = "positive_forcing"

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INAPPLICABLE = "inapplicable"

_TINY = 1e-300


class Condition(NamedTuple):
    """One checked inequality: ``lhs relation rhs`` with oriented margin;
    ``satisfied`` says that ``relative_margin`` is at least the checker's eps.

    A named tuple, three times cheaper to build than a frozen dataclass; it
    reaches JSON only through ``to_dict`` (``dump_json`` writes tuples as lists).
    """

    name: str
    lhs: float
    rhs: float
    relation: str  # "<=" or ">="
    satisfied: bool
    margin: float  # >= 0 iff satisfied at eps = 0
    applicable: bool = True
    note: str = ""

    @property
    def relative_margin(self) -> float:
        return float(_relative_margin(self.margin, self.lhs, self.rhs))

    def to_dict(self) -> dict:
        out = dict(zip(self._fields[:6], self))  # name, lhs, rhs, relation, satisfied, margin
        out["relative_margin"] = self.relative_margin
        if not self.applicable:
            out["applicable"] = False
        if self.note:
            out["note"] = self.note
        return out


def _relative_margin(margin, lhs, rhs):
    """margin / max(|lhs|, |rhs|, _TINY): floats, or arrays elementwise; NaN
    (without a warning) where a side is infinite."""
    if isinstance(margin, np.ndarray):
        with np.errstate(invalid="ignore"):
            return margin / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _TINY)
    return margin / max(abs(lhs), abs(rhs), _TINY)


def _margin(lhs, rhs, relation):
    """Oriented margin of ``lhs relation rhs``: nonnegative iff it holds (floats or arrays)."""
    return (rhs - lhs) if relation == "<=" else (lhs - rhs)


def _cond(name, lhs, rhs, relation, eps=0.0, note="") -> Condition:
    lhs, rhs = float(lhs), float(rhs)
    margin = _margin(lhs, rhs, relation)
    return Condition(name, lhs, rhs, relation, _relative_margin(margin, lhs, rhs) >= eps, margin, True, note)


def _inapplicable(name, relation, note) -> Condition:
    return Condition(name, math.nan, math.nan, relation, True, 0.0, False, note)


def _min_relative_margin(conditions) -> float:
    vals = [c.relative_margin for c in conditions if c.applicable]
    return min(vals) if vals else math.inf


def _check_numbers(**values) -> None:
    """ConfigError names a checker's value that is not a real number (a bool is not) or a
    non-finite eps; a NaN or infinite m, kappa or radius is left to the range checks."""
    for name, value in values.items():
        if not (is_finite_real(value) or (name != "eps" and isinstance(value, (float, np.floating)))):
            kind = "finite" if name == "eps" else "real"
            raise ConfigError(f"must be a {kind} number, got {value!r}", name)


def _check_radii(r1, r2) -> None:
    if not (0.0 < r1 < r2 < math.inf):
        raise BadRadii(f"need 0 < R1 < R2 < inf, got {r1!r}, {r2!r}")


@dataclass(frozen=True)
class Certificate:
    """Verdict plus full numeric evidence for one condition system."""

    theorem: str
    verdict: str
    m: float
    kappa: float | None
    r1: float | None
    r2: float | None
    conditions: tuple[Condition, ...]
    cone_const: float
    kernel_diag: float
    m_max: float
    localization: tuple[float, float] | None
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_PASS

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def min_relative_margin(self) -> float:
        return _min_relative_margin(self.conditions)

    def to_dict(self) -> dict:
        params = {"m": self.m, "kappa": self.kappa, "r1": self.r1, "r2": self.r2}
        params = {k: v for k, v in params.items() if v is not None}
        out = {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "params": params,
            "constants": {
                "cone_constant": self.cone_const,
                "kernel_diagonal": self.kernel_diag,
                "m_max": self.m_max,
            },
            "conditions": [c.to_dict() for c in self.conditions],
        }
        if self.localization is not None:
            out["localization"] = {"lower": self.localization[0], "upper": self.localization[1]}
        if self.extras:
            out["extras"] = dict(self.extras)
        out["tolerances"] = {"extrema_refine_t": EXTREMA_REFINE_TOL}
        return out


# check_general's t and x sample counts
GENERAL_T_POINTS = 512
GENERAL_X_POINTS = 512
# t rows per block of check_general's band minima, so a block's f_m samples
# stay in cache; a minimum is exact, so any block size gives the same value
_BAND_BLOCK_ROWS = 64


def _t_grid(uniform: np.ndarray, functions: list[PeriodicFunction]) -> np.ndarray:
    """The uniform t grid with the breakpoints of ``functions`` inserted."""
    pts = list(uniform)
    for f in functions:
        pts.extend(f.breakpoints())
    return sorted_unique(np.asarray(pts, dtype=float))


def _x_grid(lo: float, hi: float) -> np.ndarray:
    if lo <= 0.0:
        raise BadRadii(f"band floor must be positive, got {lo!r}")
    return sorted_unique(np.concatenate([np.geomspace(lo, hi, GENERAL_X_POINTS), [lo, hi]]))


def check_general(
    gp: GeneralProblem, m: float, r1: float, r2: float, g0: PeriodicFunction, g1: PeriodicFunction,
    eps: float = 0.0,
) -> Certificate:
    """Verify the general band/envelope condition system.

    The checked facts, with c = c_m the cone constant of the kernel:

    * ``nonneg_on_band``:      f_m >= 0      on [0,T] x [c R1, R2]
    * ``upper_envelope``:      f_m <= g1(t)  on [0,T] x [c R2, R2]
    * ``upper_response_min``:  min_t int G g1 <= c R2
    * ``upper_response_max``:  max_t int G g1 <= R2
    * ``lower_envelope``:      f_m >= g0(t) >= 0 on [0,T] x [c R1, R1]
    * ``lower_response_min``:  min_t int G g0 >= c R1
    * ``lower_response_max``:  max_t int G g0 >= R1

    The verdict is pass when the three envelope facts hold together with at
    least one of each response pair, each with relative margin >= eps (a
    negative eps tolerates quadrature noise; the envelope facts compare with
    0, so eps acts on them only through its sign).  Envelope facts are
    sampled on a t x x grid (GENERAL_T_POINTS uniform t values with the
    coefficient breakpoints inserted, GENERAL_X_POINTS log-spaced x values
    with the endpoints), and each minimum is taken over blocks of
    _BAND_BLOCK_ROWS t rows.  Responses come from ``greens.apply_kernel`` on
    the uniform t values alone: they are C^1, so the breakpoints matter to
    the envelope facts only, and a g0 or g1 without breakpoints keeps the
    circular rule.  That rule needs T-periodic envelopes: LiebauError names
    a g0 or g1 of another period.
    BadRadii refuses radii outside 0 < R1 < R2 < inf; ConfigError names what
    ``_check_numbers`` refuses and a g0 or g1 that is not a PeriodicFunction.
    """
    _check_numbers(m=m, r1=r1, r2=r2, eps=eps)
    _check_radii(r1, r2)
    for name, g in (("g0", g0), ("g1", g1)):
        if not isinstance(g, PeriodicFunction):
            raise ConfigError(f"must be a PeriodicFunction, got {g!r}", name)
        if g.period != gp.T:
            raise LiebauError(f"{name} period {g.period!r} does not match problem period {gp.T!r}")
    kernel = greens.build(gp.a, m, gp.T)
    cm = kernel.cone_constant

    uniform = np.arange(GENERAL_T_POINTS) * (gp.T / GENERAL_T_POINTS)
    ts = _t_grid(uniform, [gp.r, gp.s, g0, g1])
    g0_t = np.asarray(g0(ts), dtype=float)
    g1_t = np.asarray(g1(ts), dtype=float)

    def band_min(lo, hi, margin):
        """min over the band [lo, hi] of margin(rows, f_m on those t rows)."""
        xs = _x_grid(lo, hi)[None, :]
        blocks = [slice(i, i + _BAND_BLOCK_ROWS) for i in range(0, len(ts), _BAND_BLOCK_ROWS)]
        mins = [np.min(margin(rows, shifted_rhs(gp, m, ts[rows, None], xs))) for rows in blocks]
        return float(np.min(mins))

    h1 = _cond("nonneg_on_band", band_min(cm * r1, r2, lambda rows, f: f), 0.0, ">=", eps)
    h2_min = band_min(cm * r2, r2, lambda rows, f: g1_t[rows, None] - f)
    h2 = _cond("upper_envelope", h2_min, 0.0, ">=", eps, note="min over band of g1(t) - f_m")
    h5_min = min(band_min(cm * r1, r1, lambda rows, f: f - g0_t[rows, None]), float(np.min(g0_t)))
    h5 = _cond(
        "lower_envelope", h5_min, 0.0, ">=", eps, note="min of (f_m - g0) and of g0 on the band"
    )

    delta = greens.apply_kernel(kernel, g1, uniform)
    gamma = greens.apply_kernel(kernel, g0, uniform)
    h3 = _cond("upper_response_min", float(delta.min()), cm * r2, "<=", eps)
    h4 = _cond("upper_response_max", float(delta.max()), r2, "<=", eps)
    h6 = _cond("lower_response_min", float(gamma.min()), cm * r1, ">=", eps)
    h7 = _cond("lower_response_max", float(gamma.max()), r1, ">=", eps)

    ok = (
        h1.satisfied
        and h2.satisfied
        and h5.satisfied
        and (h3.satisfied or h4.satisfied)
        and (h6.satisfied or h7.satisfied)
    )
    return Certificate(
        THEOREM_GENERAL, VERDICT_PASS if ok else VERDICT_FAIL, m, None, r1, r2, (h1, h2, h3, h4, h5, h6, h7),
        cm, kernel.k0, kernel.m_max, (cm * r1, r2), {"solution_max_reaches_r1": bool(h7.satisfied)},
    )


def _positive_forcing_mass(lp: LiebauProblem) -> float:
    """integral_0^T e_+(s) ds, exact for piecewise-linear forcing."""
    return lp.e.positive_part().mean() * lp.T


def _kappa_interval(y1: float, mu: float, k0: float, epos_mass: float):
    """(y1^(1-2 mu), kappa_lo, kappa_hi) at y1 = c_m R1: ``kappa_lower`` holds for
    kappa >= y1 / (K(0) integral e_+), ``kappa_upper`` for kappa <= y1^(1-2 mu) / mu."""
    power = y1 ** (1.0 - 2.0 * mu)
    kappa_lo = y1 / (k0 * epos_mass) if epos_mass > 0.0 else math.inf
    return power, kappa_lo, power / mu


def _root_floor(lp: LiebauProblem, m: float, e_min: float) -> float:
    """The right side of ``root_clearance``, which asks y1^mu >= it."""
    mu, c = lp.mu, lp.c
    return (c + math.sqrt(c * c - 4.0 * mu * m * m * e_min)) / (2.0 * mu * m * m)


def _inner_conditions(lp, m, kappa, y1, power, k0, epos_mass, e_min, eps):
    """``root_clearance``, ``kappa_upper`` and ``kappa_lower``; power = y1^(1-2 mu)."""
    if e_min > 0.0:
        note = "forcing minimum is positive; this bound addresses sign-changing forcing only"
        c1 = _inapplicable("root_clearance", ">=", note)
    else:
        c1 = _cond("root_clearance", y1**lp.mu, _root_floor(lp, m, e_min), ">=", eps)
    c2 = _cond("kappa_upper", power, kappa * lp.mu, ">=", eps)
    c3 = _cond("kappa_lower", k0 * epos_mass, y1 / kappa, ">=", eps)
    return c1, c2, c3


def _ceiling_clearance(lp: LiebauProblem, e_max: float, r2: float, eps: float) -> Condition:
    return _cond("ceiling_clearance", e_max, lp.c * r2**lp.mu, "<=", eps)


def _nudged(x: float, holds, direction: int):
    """x, moved by relative steps 2^-52, 2^-51, ... up (direction 1) or down
    (-1) until it is finite and ``holds``; None after 64 steps."""
    step = 2.0**-52
    for _ in range(64):
        if x < math.inf and holds(x):
            return x
        x *= 1.0 + direction * step
        step = min(2.0 * step, 0.5)
    return None


def check_sign_changing(
    lp: LiebauProblem, m: float, kappa: float, r1: float, r2: float, eps: float = 0.0
) -> Certificate:
    """Pipe-level sufficient conditions that allow min e <= 0.

    With y1 = c_m R1 and the forcing extrema (e_min, e_max):

    * ``root_clearance``:   y1^mu >= (c + sqrt(c^2 - 4 mu m^2 e_min)) / (2 mu m^2)
                            (recorded as inapplicable-pass when e_min > 0,
                            where the larger criterion below is the intended
                            route)
    * ``kappa_upper``:      y1^(1-2 mu) >= kappa mu
    * ``kappa_lower``:      K(0) * integral e_+ >= y1 / kappa
    * ``ceiling_clearance``: e_max <= c R2^mu

    A pass certifies a positive periodic solution of the regularized problem
    with values in [c_m R1, R2].  The extras carry the kappa interval that
    the two kappa conditions admit at this R1 (see ``_kappa_interval``), the
    R1 window this m admits, [rho^(1/mu), (K(0) integral e_+ / mu)^(1/(2 mu))]
    / c_m with rho the right side of ``root_clearance`` (its floor is 0 when
    e_min > 0), and the R2 floor (e_max/c)^(1/mu); a bound beyond float range
    reads inf.  KappaNonpositive refuses a kappa outside (0, inf), BadRadii
    radii outside 0 < R1 < R2 < inf, and ConfigError what ``_check_numbers``
    refuses.
    """
    _check_numbers(m=m, kappa=kappa, r1=r1, r2=r2, eps=eps)
    if not 0.0 < kappa < math.inf:
        raise KappaNonpositive(f"kappa must be positive and finite, got {kappa!r}")
    _check_radii(r1, r2)
    kernel = greens.build(lp.a, m, lp.T)
    return _sign_changing(lp, m, kappa, r1, r2, eps, kernel.cone_constant, kernel.k0, kernel.m_max)


def _sign_changing(lp, m, kappa, r1, r2, eps, cm, k0, m_max) -> Certificate:
    """``check_sign_changing`` on valid parameters, given the kernel constants at m."""
    mu = lp.mu
    e_min, e_max, _, _ = lp.e.extrema()
    y1 = cm * r1
    epos_mass = _positive_forcing_mass(lp)
    power, kappa_lo, kappa_hi = _kappa_interval(y1, mu, k0, epos_mass)
    conditions = (
        *_inner_conditions(lp, m, kappa, y1, power, k0, epos_mass, e_min, eps),
        _ceiling_clearance(lp, e_max, r2, eps),
    )
    verdict = VERDICT_PASS if all(cc.satisfied for cc in conditions) else VERDICT_FAIL
    r1_floor = pow_or_inf(_root_floor(lp, m, e_min), 1.0 / mu) / cm if e_min <= 0.0 else 0.0
    extras = {
        "kappa_interval_lower": kappa_lo,
        "kappa_interval_upper": kappa_hi,
        "r1_window_lower": r1_floor,
        "r1_window_upper": pow_or_inf(k0 * epos_mass / mu, 0.5 / mu) / cm,
        "r2_floor": pow_or_inf(max(e_max, 0.0) / lp.c, 1.0 / mu),
        "forcing_min": e_min,
        "forcing_max": e_max,
        "positive_forcing_mass": epos_mass,
    }
    return Certificate(
        THEOREM_SIGN_CHANGING, verdict, m, kappa, r1, r2, conditions, cm, k0, m_max, (cm * r1, r2), extras
    )


def _envelope_radius(cm: float, m: float, mu: float, c: float, e_min: float, r2: float) -> float:
    """The largest R1 <= R2 with (1-c_m) m^2 mu R1^(2 mu) + c R1^mu <= e_min c_m^(1-2 mu).

    The left side is a quadratic in z = R1^mu with positive coefficients, so
    its root is z = 2 target / (c + sqrt(c^2 + 4 (1-c_m) m^2 mu target)).
    z^(1/mu) magnifies the rounding of z 1/mu-fold, so R1 is then stepped
    down (``_nudged``) until the left side, evaluated in floats, is at most
    the target.  Any R1 at or below it supports the lower envelope
    g0 = m^2 R1.  Returns 0 when the root underflows.
    """
    target = e_min * cm ** (1.0 - 2.0 * mu)
    quad = (1.0 - cm) * m * m * mu
    z = 2.0 * target / (c + math.sqrt(c * c + 4.0 * quad * target))
    r1 = min(pow_or_inf(z, 1.0 / mu), r2)
    return _nudged(r1, lambda r: quad * r ** (2.0 * mu) + c * r**mu - target <= 0.0, -1)


def _ceiling(name: str, level: float, c: float, mu: float, cm: float) -> float:
    """(1/c_m) (level/c)^(1/mu), the R at which c (c_m R)^mu reaches ``level``.

    Raises OutOfFloatRange, naming ``name``, when the value overflows or
    underflows to 0; small mu makes the exponent large.
    """
    value = (1.0 / cm) * pow_or_inf(level / c, 1.0 / mu)
    if not 0.0 < value < math.inf:
        raise OutOfFloatRange(
            f"{name} = (1/c_m)(level/c)^(1/mu) is beyond float range "
            f"(level={level!r}, c={c!r}, mu={mu!r}, c_m={cm!r})"
        )
    return value


def _shift_sides(lp: LiebauProblem, cm, m, m_max: float, e_min: float, e_max: float):
    """(name, lhs, rhs, relation) of ``shift_lower`` and ``shift_window``.

    ``cm`` and ``m`` are floats, or arrays with one element per m; c_m^mu
    is libm's pow either way, so the search ranks on the checker's bits.
    Where mu e_min^2 underflows to 0 the factor c^2 / (mu e_min^2) is inf.
    """
    mu, c = lp.mu, lp.c
    scale = mu * e_min * e_min
    lhs = (c * c / scale if scale else math.inf) * (e_max / per_element(math.pow, cm, mu) - e_min)
    return (("shift_lower", lhs, m * m, "<="), ("shift_window", m * m, m_max**2, "<="))


def _forcing_gate(e_min: float, eps: float) -> Condition:
    """``forcing_positive``: e_min > 0 at every eps, and a relative margin of at least eps."""
    return _cond("forcing_positive", e_min, 0.0, ">=", max(eps, _TINY))


def _positive_scores(lp, kc: greens.KernelConstants, ms, e_min, e_max, eps) -> np.ndarray:
    """The search score (minimum relative margin) of the positive criterion at
    each m, -inf where the kernel cannot be built or a condition fails; e_min > 0."""
    gate = _forcing_gate(e_min, eps)
    score = np.full(len(ms), gate.relative_margin if gate.satisfied else -math.inf)
    for _, lhs, rhs, relation in _shift_sides(lp, kc.cone_constant, ms, kc.m_max, e_min, e_max):
        relative = _relative_margin(_margin(lhs, rhs, relation), lhs, rhs)
        score = np.where(relative >= eps, np.minimum(score, relative), -math.inf)
    return np.where(kc.ok, score, -math.inf)


def check_positive_forcing(lp: LiebauProblem, m: float, eps: float = 0.0) -> Certificate:
    """Two-inequality criterion for strictly positive forcing.

    * ``forcing_positive``: e_min > 0 (the system's gate; failing it makes
      the whole certificate inapplicable rather than failed)
    * ``shift_lower``:  (c^2 / (mu e_min^2)) (e_max / c_m^mu - e_min) <= m^2
    * ``shift_window``: m^2 < (pi/T)^2 + (a/2)^2

    On a pass the certificate carries the localization ceiling
    R2 = (1/c_m)(e_max/c)^(1/mu), an inner radius R1 defined by the lower
    envelope construction (the root of a quadratic in R1^mu, see
    ``_envelope_radius``), the largest forcing peak ``e_max_threshold`` that
    would still satisfy the criterion at this m, and the ceiling the
    threshold would imply.  ``search_certificate`` ranks the m grid on the
    conditions alone and returns this certificate at the winning m, bit for
    bit.  Raises OutOfFloatRange, naming the quantity, when R2 or the
    ceiling at the threshold overflows or underflows to 0 (it happens at
    small mu, where the exponent 1/mu is large), and when the inner radius
    R1 underflows to 0 (a tiny c_m, as at large a, puts its root below the
    smallest float).  ConfigError names what ``_check_numbers`` refuses.
    """
    _check_numbers(m=m, eps=eps)
    kernel = greens.build(lp.a, m, lp.T)
    return _positive_forcing(lp, m, eps, kernel.cone_constant, kernel.k0, kernel.m_max)


def _positive_forcing(lp, m, eps, cm, k0, m_max) -> Certificate:
    """``check_positive_forcing`` given the kernel constants at m."""
    mu, c = lp.mu, lp.c
    e_min, e_max, _, _ = lp.e.extrema()
    conditions = (_forcing_gate(e_min, eps),)  # only the gate when e_min <= 0
    extras = {"forcing_min": e_min, "forcing_max": e_max}
    r1 = r2 = localization = None
    if e_min <= 0.0:
        verdict = VERDICT_INAPPLICABLE
    else:
        conditions += tuple(_cond(*sides, eps) for sides in _shift_sides(lp, cm, m, m_max, e_min, e_max))
        c2 = c * c  # 0 where c^2 underflows: the threshold is then inf
        threshold = cm**mu * (e_min + (m * m * mu * e_min * e_min / c2 if c2 else math.inf))
        extras["e_max_threshold"] = threshold
        extras["bound_at_threshold"] = _ceiling("bound_at_threshold", threshold, c, mu, cm)
        ok = all(cc.satisfied for cc in conditions)
        verdict = VERDICT_PASS if ok else VERDICT_FAIL
        if ok:
            r2 = _ceiling("localization ceiling R2", e_max, c, mu, cm)
            r1 = _envelope_radius(cm, m, mu, c, e_min, r2)
            if not r1:
                raise OutOfFloatRange(
                    f"inner radius R1 underflows to 0, below float range "
                    f"(m={m!r}, c_m={cm!r}, mu={mu!r}, c={c!r}, e_min={e_min!r})"
                )
            localization = (cm * r1, r2)
    return Certificate(
        THEOREM_POSITIVE_FORCING, verdict, m, None, r1, r2, conditions, cm, k0, m_max, localization, extras
    )


def check_legacy_criterion(lp: LiebauProblem) -> tuple[float, float, bool]:
    """Older ratio test: c^2 / (4 mu e_min) <= (pi/T)^2 + a^2/4.

    Needs e_min > 0; raises InapplicableCriterion otherwise.  Returned as
    (lhs, rhs, satisfied) for comparison against the certificate checkers,
    which can pass where this test fails.
    """
    e_min = lp.e.extrema()[0]
    if e_min <= 0.0:
        raise InapplicableCriterion("the ratio test requires a strictly positive forcing minimum")
    lhs = lp.c * lp.c / (4.0 * lp.mu * e_min)
    rhs = (math.pi / lp.T) ** 2 + lp.a * lp.a / 4.0
    return lhs, rhs, lhs <= rhs


def check_necessary(lp: LiebauProblem) -> tuple[float, bool]:
    """Mean forcing must be positive for any positive periodic solution."""
    ebar = lp.e.mean()
    return ebar, ebar > 0.0


# points of the search's uniform m grid on (0, m_max); 4096 points raise the
# winner's minimum relative margin by at most 0.5%, at 30 to 50 times the cost
SEARCH_M_POINTS = 64


_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)  # normal floats


def _sign_tuple(lp, m, cm, k0, e_min, e_max, epos_mass):
    """(score, (kappa, R1, R2)) of the sign-changing route at one m, or None.

    With u = (c_m R1)^mu, B = sqrt(mu / (K(0) integral e_+)), rho the right
    side of ``root_clearance`` and kappa at the geometric midpoint of its
    interval, root_clearance has relative margin 1 - rho/u and both kappa
    conditions 1 - B u, so u = sqrt(rho/B) maximizes the smaller, at
    s = 1 - sqrt(rho B).  R2 = (e_max/(c (1-s)))^(1/mu) gives
    ceiling_clearance the same relative margin (at least 0).  All of it runs
    in log space; then R2 is nudged up until ceiling_clearance holds in
    floats.  The score is the tuple's minimum relative margin, which the
    search compares with eps.  None when c_m R1 or R2 leaves float range.
    """
    mu = lp.mu
    rho = _root_floor(lp, m, e_min)
    log_b = 0.5 * (math.log(mu) - math.log(k0 * epos_mass))
    log_u = 0.5 * (math.log(rho) - log_b)
    log_1ms = max(math.log(rho) - log_u, log_b + log_u)  # log(1 - s)
    log_r2 = (math.log(e_max / lp.c) - min(log_1ms, 0.0)) / mu
    if not (_LOG_TINY < log_u / mu and log_u / mu - math.log(cm) < _LOG_HUGE and log_r2 < _LOG_HUGE):
        return None
    r1 = math.exp(log_u / mu) / cm
    y1 = cm * r1
    power, kappa_lo, kappa_hi = _kappa_interval(y1, mu, k0, epos_mass)
    kappa = math.sqrt(kappa_lo) * math.sqrt(kappa_hi)
    conditions = _inner_conditions(lp, m, kappa, y1, power, k0, epos_mass, e_min, 0.0)
    r2 = _nudged(max(math.exp(log_r2), math.nextafter(r1, math.inf)),
                 lambda r: _ceiling_clearance(lp, e_max, r, 0.0).satisfied, 1)
    if r2 is None:
        return None
    score = min(_min_relative_margin(conditions), _ceiling_clearance(lp, e_max, r2, 0.0).relative_margin)
    return score, (kappa, r1, r2)


def search_certificate(lp: LiebauProblem, eps: float = 0.0):
    """Scan the m grid for a passing certificate.

    Returns the passing certificate with the largest minimum relative margin,
    or None.  The m grid has SEARCH_M_POINTS points spread uniformly over
    (0, m_max); every other parameter comes in closed form, so no grid bounds
    the radii.  Strictly positive forcing uses the two-inequality criterion,
    sign-changing forcing the kappa system (whose root clearance bound is
    only meaningful there) at the max-margin (kappa, R1, R2) of
    ``_sign_tuple``, skipping an m whose R1 or R2 would leave float range.
    Both routes rank the grid on the minimum relative margin of their
    checker's own conditions.  That tuple is the best at its m for every
    eps, so eps only drops the grid points scoring below it: the certificate
    at any eps up to the eps = 0 winner's score is the eps = 0 certificate,
    and above it there is none.  Both make the certificate once, at the
    winner (so the positive route computes R1 and R2 for it only), from the
    constants of one ``greens.kernel_constants`` pass: no kernel is built,
    and the certificate equals the public checker's bit for bit.  An m
    outside the mask ``ok`` (one ``greens.build`` would refuse) takes no
    part.  Ties keep the earliest m, so the result is a pure function of the
    problem and eps.  A non-finite eps raises ConfigError naming it.
    """
    _check_numbers(eps=eps)
    ebar, ok = check_necessary(lp)
    if not ok:
        return None
    e_min, e_max, _, _ = lp.e.extrema()
    k = SEARCH_M_POINTS
    ms = greens.m_window(lp.a, lp.T) * np.linspace(1.0 / (k + 1), k / (k + 1.0), k)
    kc = greens.kernel_constants(lp.a, ms, lp.T)

    if e_min > 0.0:
        score = _positive_scores(lp, kc, ms, e_min, e_max, eps)
        i = int(np.argmax(score))  # the first of equal scores
        if score[i] == -math.inf:
            return None
        constants = float(kc.cone_constant[i]), float(kc.k0[i]), kc.m_max
        return _positive_forcing(lp, float(ms[i]), eps, *constants)

    # sign-changing route: the positive part of the forcing must carry mass
    epos_mass = _positive_forcing_mass(lp)
    if epos_mass <= 0.0:
        return None
    best = None  # (score, the parameters of _sign_changing after lp)
    for m, cm, k0 in zip(*(x[kc.ok].tolist() for x in (ms, kc.cone_constant, kc.k0))):
        found = _sign_tuple(lp, m, cm, k0, e_min, e_max, epos_mass)
        if found is not None and found[0] >= eps and (best is None or found[0] > best[0]):
            best = (found[0], (m, *found[1], eps, cm, k0, kc.m_max))
    return None if best is None else _sign_changing(lp, *best[1])
