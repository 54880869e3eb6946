import math

import pytest
from hypothesis import settings

from liebau.funcspec import PeriodicFunction
from liebau.problem import LiebauProblem

# Fixed examples and no per-example deadline, so property tests give the same
# verdict on every run and do not flake on a slow or loaded machine.
settings.register_profile("liebau", derandomize=True, deadline=None)
settings.load_profile("liebau")


@pytest.fixture(scope="session")
def trapezoid_lp() -> LiebauProblem:
    """Sign-changing trapezoidal forcing on T=1 with a tight certificate."""
    e = PeriodicFunction.piecewise_linear(
        [(0.0, -0.00005), (0.0005, 0.00548239), (0.9995, 0.00548239), (1.0, -0.00005)]
    )
    return LiebauProblem(a=1.6, mu=0.01, c=0.005, T=1.0, e=e)


@pytest.fixture(scope="session")
def narrowband_lp() -> LiebauProblem:
    """Strictly positive forcing oscillating between 1.54 and 1.54215."""
    offset = (1.54 + 1.54215) / 2.0
    amp = (1.54215 - 1.54) / 2.0
    e = PeriodicFunction.trig(1.0, offset, [(amp, 1, 0.0)])
    return LiebauProblem(a=1.6, mu=0.01, c=1.49, T=1.0, e=e)


@pytest.fixture(scope="session")
def cosine_lp() -> LiebauProblem:
    """Near-constant cosine forcing, offset 1.54215, amplitude 0.002097."""
    e = PeriodicFunction.trig(1.0, 1.54215, [(0.002097, 1, 0.0)])
    return LiebauProblem(a=1.6, mu=0.01, c=1.49, T=1.0, e=e)


@pytest.fixture(scope="session")
def cubic_lp() -> LiebauProblem:
    """Cubic-polynomial forcing 1.54215 - 0.02 (t - 3 t^2 + 2 t^3)."""
    e = PeriodicFunction.poly(1.0, [1.54215, -0.02, 0.06, -0.04])
    return LiebauProblem(a=1.6, mu=0.01, c=1.49, T=1.0, e=e)


@pytest.fixture(scope="session")
def tank_lp():
    """Pipe-tank benchmark with the closed-form solution u = (v0 - 2) + cos t."""

    def make(v0: float = 4.0) -> LiebauProblem:
        e = PeriodicFunction.trig(
            2 * math.pi, 0.1 * v0 + 1.8 - 1.5, [(2.1 - v0, 1, 0.0), (-1.5, 2, 0.0)]
        )
        return LiebauProblem.from_b(a=0.0, b=2.0, c=0.1, T=2 * math.pi, e=e)

    return make
