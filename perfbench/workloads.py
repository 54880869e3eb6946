"""Seeded inputs, operations and output checks for each workload.

Inputs are plain parameter tuples generated from the seed; each
operation builds its problem objects afresh from them, so no object is
reused across operations and work shared inside one operation (the 64
m-grid points of a search on one forcing) still shows.  Only the public API
is called: names in ``liebau.__all__``, ``presets.preset``, the
``PeriodicFunction`` constructors and the ``liebau`` command line.

Every operation returns its input class.  Output checks raise one of two
exceptions, and every exception, these and the program's own, counts as a
failed operation and never aborts the run:

* ``WrongResult``: the output contradicts itself or the problem (a
  certificate that does not re-check, a solve that returned unconverged, a
  tank solution that is not the closed form, ``liebau verify`` failing).
* ``Inaccurate``: the output is the right solution but misses an accuracy
  target (residual above the rounding floor, tank error of 1e-6 or more).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import numpy as np

import liebau
from liebau import LiebauProblem, PeriodicFunction, SolveOptions, presets

SOLVE_N = 4096
MU = 0.01
OFFSET = 1.54215  # near-constant forcing level of the bundled positive presets
VERIFY_TIMEOUT_S = 120.0
# Tank solves fail in two known ways.  From the default guess they end in
# LeftPositiveCone or NoConvergence below v0 of about 4.56.  Above v0 of about
# 7 the error against the closed form grows (median 5e-8 near v0 = 9) and a
# few inputs miss the 1e-6 check, such as v0 = 9.911091741522899.  The timed
# loop draws v0 from [TANK_V0_MIN, TANK_V0_MAX], where every probed solve
# passed, so its failure count does not depend on how many operations fit in a
# run; KNOWN_FAILING_TANKS keeps both failures measured, untimed, in every
# solve-grid run.
TANK_V0_MIN, TANK_V0_MAX = 4.75, 7.0
KNOWN_FAILING_TANKS = (3.6, 4.0, 4.4, 9.911091741522899)


class WrongResult(Exception):
    """The program returned an output that is wrong."""


class Inaccurate(Exception):
    """The program returned the right solution, short of an accuracy target."""


# -- inputs ------------------------------------------------------------------
#
# Each input class draws its parameters from a Kronecker (generalised golden
# ratio) sequence whose offset comes from the seed.  Every prefix of such a
# sequence covers the parameter box evenly, so runs of any length see the same
# share of each input region (for example of the tank inputs that fail) and
# run-to-run spread comes from the program and the machine, not from sampling.

def _steps(dims: int) -> tuple[float, ...]:
    g = 2.0
    for _ in range(64):  # g solves g^(dims+1) = g + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    return tuple((1.0 / g) ** (k + 1) % 1.0 for k in range(dims))


def _trig(u):
    return ("cosine", 1.0 + u[0], 0.0021 * u[1], 1 + int(3.0 * u[2]))


def _cubic(u):
    return ("cubic", 1.0 + u[0], -0.02 + 0.04 * u[1])


def _tank(u):
    return ("tank", TANK_V0_MIN + (TANK_V0_MAX - TANK_V0_MIN) * u[0])


def _trapezoid(u):
    return ("trapezoid", 1.4 + 0.4 * u[0], 0.0050 + 0.0008 * u[1])


# (maker, number of parameters) per input class.  Classes cycle in this fixed
# order, so any stopping point leaves them balanced.
MIXES = {
    "solve-grid": ((_trig, 3), (_cubic, 2), (_tank, 1)),
    "search-positive": ((_trig, 3), (_cubic, 2)),
    "search-sign": ((_trapezoid, 2),),
    "verify": (),
}


class Inputs:
    """Deterministic sequence of input tuples for one workload and seed."""

    def __init__(self, workload: str, seed, count: int = 2048):
        self._mix = MIXES[workload]
        rng = random.Random(f"{workload}/{seed}")
        self._offsets = [[rng.random() for _ in range(dims)] for _, dims in self._mix]
        self._steps = [_steps(dims) for _, dims in self._mix]
        self._items = [self._make(i) for i in range(count if self._mix else 0)]

    def _make(self, i: int):
        c, j = i % len(self._mix), i // len(self._mix) + 1
        u = [(o + j * a) % 1.0 for o, a in zip(self._offsets[c], self._steps[c])]
        return self._mix[c][0](u)

    def __getitem__(self, i: int):
        if not self._mix:
            return ("verify",)
        return self._items[i] if i < len(self._items) else self._make(i)


# -- problem construction ----------------------------------------------------

def _forcing(spec) -> PeriodicFunction:
    kind = spec[0]
    if kind == "cosine":
        _, _, amp, k = spec
        return PeriodicFunction.trig(1.0, OFFSET, [(amp, k, 0.0)])
    if kind == "cubic":
        s = spec[2]
        # OFFSET + s (t - 3 t^2 + 2 t^3): the cubic vanishes at both ends
        return PeriodicFunction.poly(1.0, [OFFSET, s, -3.0 * s, 2.0 * s])
    _, _, plateau = spec
    return PeriodicFunction.piecewise_linear(
        [(0.0, -0.00005), (0.0005, plateau), (0.9995, plateau), (1.0, -0.00005)]
    )


def _problem(spec) -> LiebauProblem:
    if spec[0] == "trapezoid":
        return LiebauProblem(a=spec[1], mu=MU, c=0.005, T=1.0, e=_forcing(spec))
    return LiebauProblem(a=spec[1], mu=MU, c=1.49, T=1.0, e=_forcing(spec))


# -- operations ----------------------------------------------------------------

def solve_op(spec, stats: dict) -> str:
    if spec[0] == "tank":
        v0 = spec[1]
        lp = presets.preset("benchmark", v0=v0).problem
        opts = SolveOptions(n=SOLVE_N, bracket=((v0 - 3.0) ** 3, (v0 - 1.0) ** 3))
    else:
        lp = _problem(spec)
        opts = SolveOptions(n=SOLVE_N)
    sol = liebau.solve_periodic(liebau.regularize(lp), opts)
    if not sol.converged:
        raise WrongResult(f"{spec[0]}: returned without converging")
    # rounding floor of a second-derivative residual: eps * (n/T)^2 * |x|
    floor = 64.0 * np.finfo(float).eps * (len(sol.values) / sol.T) ** 2 * max(1.0, sol.max_value)
    if spec[0] == "tank":
        exact = ((v0 - 2.0) + np.cos(sol.nodes)) ** 3
        err = float(np.max(np.abs(sol.values - exact)))
        stats["solve_err_max"] = max(stats.get("solve_err_max", 0.0), err)
        if not err < 1e-3 * float(np.max(exact)):
            raise WrongResult(f"tank v0={v0!r}: error {err!r}, not the closed-form solution")
        if not err < 1e-6:
            raise Inaccurate(f"tank v0={v0!r}: error {err!r} against the closed form")
    if not sol.sup_residual <= floor:
        raise Inaccurate(f"{spec[0]}: sup_residual {sol.sup_residual!r} above floor {floor!r}")
    return spec[0]


def _same(a, b) -> bool:
    return json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def search_positive_op(spec, stats: dict) -> str:
    lp = _problem(spec)
    cert = liebau.search_certificate(lp)
    if cert is None or not cert.passed:
        raise WrongResult(f"{spec[0]}: search found no certificate")
    again = liebau.check_positive_forcing(lp, cert.m)
    if not again.passed or not _same(cert, again):
        raise WrongResult(f"{spec[0]}: certificate at m={cert.m!r} does not re-check")
    return spec[0]


def search_sign_op(spec, stats: dict) -> str:
    lp = _problem(spec)
    cert = liebau.search_certificate(lp)
    if cert is None or not cert.passed:
        raise WrongResult("trapezoid: search found no certificate")
    again = liebau.check_sign_changing(lp, cert.m, cert.kappa, cert.r1, cert.r2)
    if not again.passed or not _same(cert, again):
        raise WrongResult(f"trapezoid: certificate at m={cert.m!r} does not re-check")
    return spec[0]


def child_env(root: str) -> dict:
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def verify_op(root: str, traced: bool, stats: dict) -> str:
    if traced:
        cmd = [sys.executable, os.path.join(root, "perfbench", "traced_cli.py"), "verify"]
    else:
        cmd = [sys.executable, "-m", "liebau", "verify"]
    proc = subprocess.run(
        cmd, cwd=root, env=child_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=VERIFY_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if traced and lines and lines[-1].startswith("PERFBENCH-TRACE "):
        stats.setdefault("trace_summaries", []).append(json.loads(lines.pop()[16:]))
    if proc.returncode != 0 or not lines or lines[-1].strip() != "11/11 checks passed":
        tail = lines[-1] if lines else proc.stderr.strip()[-200:]
        raise WrongResult(f"liebau verify exited {proc.returncode}: {tail}")
    return "verify"


def known_failures() -> dict:
    """Outcome of each tank solve in the known failure region (untimed)."""
    out = {}
    for v0 in KNOWN_FAILING_TANKS:
        try:
            solve_op(("tank", v0), {})
            out[repr(v0)] = "ok"
        except Exception as exc:
            out[repr(v0)] = type(exc).__name__
    return out


def run_op(workload: str, spec, root: str, traced: bool, stats: dict) -> str:
    if workload == "solve-grid":
        return solve_op(spec, stats)
    if workload == "search-positive":
        return search_positive_op(spec, stats)
    if workload == "search-sign":
        return search_sign_op(spec, stats)
    return verify_op(root, traced, stats)

