"""Built-in regression suite.

Eleven named checks pin the package against its reference numbers: kernel
constants, certificate margins for the bundled instances, solver anchors and
scheme order, figure-level solution properties, the pumping balance, and the
search/checker/solver soundness chain.  The CLI ``verify`` subcommand runs
them all and prints one line per check; the pytest suite asserts each one
individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import greens, presets
from .certify import (
    check_general,
    check_legacy_criterion,
    check_positive_forcing,
    check_sign_changing,
    search_certificate,
)
from .errors import PropertyViolation
from .funcspec import PeriodicFunction
from .problem import LiebauProblem, regularize
from .pump import pump_report, singular_residual, x_to_u
from .solve import SolveOptions, _fd_newton, _sampled, cone_and_localization, solve_periodic
from .numerics import format_float as f17


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _kernel_report(a: float, m: float, T: float) -> greens.KernelReport:
    """verify_properties of the kernel, or the report of the PropertyViolation it raises."""
    kernel = greens.build(a, m, T)
    try:
        return greens.verify_properties(kernel)
    except PropertyViolation as exc:
        return exc.report


@lru_cache(maxsize=None)
def _solution(name: str):
    lp = presets.preset(name).problem
    return lp, solve_periodic(regularize(lp))


@lru_cache(maxsize=None)
def _search(name: str):
    lp = presets.preset(name).problem
    return lp, search_certificate(lp)


def _all(*facts: tuple[bool, str]) -> CheckResult:
    passed = all(ok for ok, _ in facts)
    detail = "; ".join(msg for _, msg in facts)
    return CheckResult("", passed, detail)


def check_kernel_constants() -> CheckResult:
    k = greens.build(1.6, 0.7, 1.0)
    ss = np.linspace(0.0, 1.0, 257)
    diag_dev = float(np.max(np.abs(k.green(ss, ss) - k.k0)))
    return _all(
        (abs(k.cone_constant - 0.94144) < 1e-4, f"cone constant {f17(k.cone_constant)}"),
        (abs(k.k0 - 1.96026) < 1e-4, f"diagonal value {f17(k.k0)}"),
        (diag_dev < 1e-10, f"diagonal variation {f17(diag_dev)}"),
    )


_MASS_CASES = ((1.6, 0.7, 1.0), (0.0, 0.25, 2 * math.pi), (2.0, 1.0, 1.0))


def check_unit_mass() -> CheckResult:
    devs = [(a, m, _kernel_report(a, m, T).mass_deviation) for a, m, T in _MASS_CASES]
    return _all(*((dev < 1e-8, f"(a={a}, m={m}) mass deviation {f17(dev)}") for a, m, dev in devs))


def check_cone_chain() -> CheckResult:
    worst = [(a, m, _kernel_report(a, m, T).chain_violation) for a, m, T in _MASS_CASES]
    return _all(*((w <= 1e-12, f"(a={a}, m={m}) chain violation {f17(w)}") for a, m, w in worst))


def check_trapezoid_certificate() -> CheckResult:
    lp = presets.preset("trapezoid").problem
    cert = check_sign_changing(lp, m=0.7, kappa=2200.0, r1=25.0, r2=1e4)
    c4 = cert.condition("ceiling_clearance")
    lo = cert.extras["kappa_interval_lower"]
    hi = cert.extras["kappa_interval_upper"]
    return _all(
        (cert.passed, f"verdict {cert.verdict}"),
        (0.0 < c4.relative_margin < 1e-5,
         f"ceiling margin {f17(c4.margin)} (relative {f17(c4.relative_margin)})"),
        (lo <= 2200.0 <= hi, f"kappa interval [{f17(lo)}, {f17(hi)}]"),
    )


def check_positive_forcing_numbers() -> CheckResult:
    lp = presets.preset("narrowband").problem
    lhs, rhs, ok = check_legacy_criterion(lp)
    cert = check_positive_forcing(lp, m=0.7)
    c6 = cert.condition("shift_lower")
    thr = cert.extras["e_max_threshold"]
    bound = cert.extras["bound_at_threshold"]
    return _all(
        (abs(lhs - 36.0406) < 1e-3 and abs(rhs - 10.5096) < 1e-3 and not ok,
         f"legacy ratio {f17(lhs)} > {f17(rhs)} (fails as expected)"),
        (cert.passed and abs(c6.lhs - 0.2884) < 1e-3 and c6.lhs <= 0.49,
         f"shift bound {f17(c6.lhs)} <= {f17(c6.rhs)}"),
        (abs(thr - 1.5443) < 1e-3, f"peak threshold {f17(thr)}"),
        (abs(bound - 38.0844) < 1e-2, f"ceiling at threshold {f17(bound)}"),
    )


def check_constant_anchor() -> CheckResult:
    lp = LiebauProblem(1.6, 0.01, 1.49, 1.0, PeriodicFunction.constant(1.0, 1.54))
    sol = solve_periodic(regularize(lp))  # default initial guess
    anchor = 27.1297
    dev = max(abs(sol.min_value - anchor), abs(sol.max_value - anchor))
    return _all(
        (sol.converged, f"converged in {sol.iterations} iterations"),
        (dev < 1e-3, f"constant level {f17(sol.mean_value)} vs {anchor}"),
    )


# the tank problem's grid arange(n) * (T/n), T = 2 pi, on which its traces are sampled
_PIPE_NODES = np.arange(1024) * (2 * math.pi / 1024)


def _pipe_trace(v0: float) -> np.ndarray:
    """The closed-form tank solution u = (v0 - 2) + cos t on _PIPE_NODES."""
    return (v0 - 2.0) + np.cos(_PIPE_NODES)


def check_closed_form_benchmark() -> CheckResult:
    lp = presets.tank_problem(4.0)
    trace = _pipe_trace(4.0)
    res_exact = singular_residual(
        lp, trace, uprime=-np.sin(_PIPE_NODES), usecond=-np.cos(_PIPE_NODES)
    )
    res_fd = singular_residual(lp, trace)
    sol = solve_periodic(regularize(lp), SolveOptions(n=512, bracket=(4.0, 40.0)))
    err = float(np.max(np.abs(sol.values - (2.0 + np.cos(sol.nodes)) ** 3)))
    return _all(
        (res_exact < 1e-12, f"model residual with analytic derivatives {f17(res_exact)}"),
        (res_fd < 1e-4, f"model residual with grid derivatives {f17(res_fd)}"),
        (err < 1e-6, f"solver error against closed form {f17(err)}"),
    )


def check_figure_solutions() -> CheckResult:
    facts = []
    for name in ("cosine", "cubic"):
        lp, sol = _solution(name)
        cert = check_positive_forcing(lp, m=0.7)
        cone = cone_and_localization(sol.values, cert.cone_const, cert.r1, cert.r2)
        facts.extend(
            [
                (sol.converged, f"{name}: converged, periodic"),
                (0.0 < sol.min_value and sol.max_value < 38.0844,
                 f"{name}: values in ({f17(sol.min_value)}, {f17(sol.max_value)})"),
                (cone.all_ok, f"{name}: cone and localization flags ok (c_m {f17(cert.cone_const)})"),
                (sol.sup_residual < 1e-8, f"{name}: collocated residual {f17(sol.sup_residual)}"),
            ]
        )
    return _all(*facts)


def check_pumping_balance() -> CheckResult:
    facts = []
    for v0 in (3.5, 4.0, 10.0):
        lp = presets.tank_problem(v0)
        report = pump_report(lp, _pipe_trace(v0))
        facts.append(
            (report.identity_residual < 1e-10 and abs(report.delta - 5.0) < 1e-10,
             f"v0={v0}: delta {f17(report.delta)}, balance residual {f17(report.identity_residual)}")
        )
    for name in ("cosine", "cubic"):
        lp, sol = _solution(name)
        report = pump_report(lp, x_to_u(sol.values, lp.mu))
        facts.append((report.delta > 0.0, f"{name}: pumping gain {f17(report.delta)}"))
    return _all(*facts)


def check_search_soundness() -> CheckResult:
    facts = []
    for name in ("trapezoid", "cosine"):
        lp, cert = _search(name)
        if cert is None or not cert.passed:
            facts.append((False, f"{name}: search returned nothing"))
            continue
        gp = regularize(lp)
        m, r1, r2 = cert.m, cert.r1, cert.r2
        g1 = PeriodicFunction.constant(lp.T, m * m * r2)
        g0 = (lp.e.positive_part().scale(cert.kappa) if cert.kappa is not None
              else PeriodicFunction.constant(lp.T, m * m * r1))
        general = check_general(gp, m, r1, r2, g0, g1)  # at eps = 0: no tolerance
        _, sol = _solution(name)  # constant guess from the forcing mean
        cone = cone_and_localization(sol.values, cert.cone_const, r1, r2)
        facts.extend(
            [
                (general.passed, f"{name}: general system re-check {general.verdict}"),
                (cone.all_ok,
                 f"{name}: solution in cone and within "
                 f"[{f17(cert.localization[0])}, {f17(r2)}]"),
            ]
        )
    return _all(*facts)


def check_scheme_order() -> CheckResult:
    """The FD Newton stage alone at n, from the constant guess sqrt(4 * 40)."""
    gp = regularize(presets.tank_problem(4.0))
    errs = {}
    for n in (256, 512):
        nodes, _, _, f_of, fprime_of = _sampled(gp, n)
        x, _ = _fd_newton(np.full(n, math.sqrt(4.0 * 40.0)), gp.T / n, gp.a, f_of, fprime_of)
        errs[n] = float(np.max(np.abs(x - (2.0 + np.cos(nodes)) ** 3)))
    ratio = errs[256] / errs[512]
    return _all(
        (3.5 <= ratio <= 4.5,
         f"error {f17(errs[256])} at n=256 vs {f17(errs[512])} at n=512 (ratio {f17(ratio)})")
    )


CHECKS: tuple[tuple[str, str, Callable[[], CheckResult]], ...] = (
    ("kernel-constants", "cone constant and diagonal of the reference kernel", check_kernel_constants),
    ("unit-mass", "kernel rows integrate to 1/m^2", check_unit_mass),
    ("cone-chain", "two-sided diagonal bound on a dense grid", check_cone_chain),
    ("trapezoid-certificate", "tight sign-changing certificate tuple", check_trapezoid_certificate),
    ("positive-forcing-numbers", "ratio test, shift bound, threshold, ceiling", check_positive_forcing_numbers),
    ("constant-anchor", "constant-forcing solution from the default guess", check_constant_anchor),
    ("closed-form-benchmark", "pipe-tank closed form: residuals and recovery", check_closed_form_benchmark),
    ("figure-solutions", "both near-constant forcings solve cleanly", check_figure_solutions),
    ("pumping-balance", "period balance and volume independence", check_pumping_balance),
    ("search-soundness", "search output re-verifies and localizes solves", check_search_soundness),
    ("scheme-order", "finite-difference stage is second order", check_scheme_order),
)


def run_all(verbose: bool = True) -> list[CheckResult]:
    results = []
    for check_id, _, fn in CHECKS:
        try:
            res = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            res = CheckResult(check_id, False, f"raised {type(exc).__name__}: {exc}")
        res = CheckResult(check_id, res.passed, res.detail)
        results.append(res)
        if verbose:
            mark = "PASS" if res.passed else "FAIL"
            print(f"{mark:4}  {check_id:28}  {res.detail}")
    if verbose:
        n_ok = sum(r.passed for r in results)
        print(f"{n_ok}/{len(results)} checks passed")
    return results
