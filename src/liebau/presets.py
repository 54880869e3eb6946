"""Built-in problem instances.

Each preset bundles a pipe-level problem with sensible per-command defaults
so the verification suite and the CLI run with zero configuration:

* ``trapezoid``: sign-changing trapezoidal forcing on T=1 with a known tight
  certificate tuple (m=0.7, kappa=2200, R1=25, R2=1e4).
* ``cosine`` / ``cubic``: near-constant strictly positive forcings on T=1
  (offset 1.54215 with a small cosine or cubic wiggle), certified through
  the positive-forcing criterion at m=0.7.
* ``narrowband``: the forcing family pinned by extrema (1.54, 1.54215); the
  positive-forcing criterion numbers for it are reproduced in the
  verification suite.
* ``benchmark``: the pipe-tank configuration with the closed-form solution
  u = (v0 - 2) + cos t, used to validate solvers and the pumping balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .funcspec import PeriodicFunction
from .problem import LiebauProblem

PRESET_NAMES = ("trapezoid", "cosine", "cubic", "narrowband", "benchmark")


@dataclass(frozen=True)
class Preset:
    name: str
    problem: LiebauProblem
    certify: dict = field(default_factory=dict)
    solve: dict = field(default_factory=dict)


def trapezoid_forcing() -> PeriodicFunction:
    return PeriodicFunction.piecewise_linear(
        [(0.0, -0.00005), (0.0005, 0.00548239), (0.9995, 0.00548239), (1.0, -0.00005)]
    )


def cosine_forcing() -> PeriodicFunction:
    return PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)])


def cubic_forcing() -> PeriodicFunction:
    # 1.54215 - 0.02 (t - 3 t^2 + 2 t^3); the cubic vanishes at both ends
    return PeriodicFunction.poly(1.0, [1.54215, -0.02, 0.06, -0.04])


def narrowband_forcing() -> PeriodicFunction:
    offset = (1.54 + 1.54215) / 2.0
    amp = (1.54215 - 1.54) / 2.0
    return PeriodicFunction.trig(1.0, offset, [(amp, 1, 0.0)])


def tank_forcing(v0: float) -> PeriodicFunction:
    # 0.1 v0 + 1.8 + (2.1 - v0) cos t - 3 cos^2 t in harmonic form
    return PeriodicFunction.trig(
        2 * math.pi, 0.1 * v0 + 1.8 - 1.5, [(2.1 - v0, 1, 0.0), (-1.5, 2, 0.0)]
    )


def tank_problem(v0: float = 4.0) -> LiebauProblem:
    return LiebauProblem.from_b(a=0.0, b=2.0, c=0.1, T=2 * math.pi, e=tank_forcing(v0))


def preset(name: str, v0: float = 4.0) -> Preset:
    if name == "trapezoid":
        return Preset(
            name,
            LiebauProblem(a=1.6, mu=0.01, c=0.005, T=1.0, e=trapezoid_forcing()),
            certify={"theorem": "sign_changing", "m": 0.7, "kappa": 2200.0, "r1": 25.0, "r2": 1e4},
        )
    if name == "cosine":
        return Preset(
            name,
            LiebauProblem(a=1.6, mu=0.01, c=1.49, T=1.0, e=cosine_forcing()),
            certify={"theorem": "positive_forcing", "m": 0.7},
        )
    if name == "cubic":
        return Preset(
            name,
            LiebauProblem(a=1.6, mu=0.01, c=1.49, T=1.0, e=cubic_forcing()),
            certify={"theorem": "positive_forcing", "m": 0.7},
        )
    if name == "narrowband":
        return Preset(
            name,
            LiebauProblem(a=1.6, mu=0.01, c=1.49, T=1.0, e=narrowband_forcing()),
            certify={"theorem": "positive_forcing", "m": 0.7},
        )
    if name == "benchmark":
        return Preset(name, tank_problem(v0), solve={"bracket": (4.0, 40.0)})
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
