"""The public surface that the README documents and the benchmark harness calls.

``perfbench/workloads.py`` uses only names in ``liebau.__all__``,
``presets.preset`` and the ``PeriodicFunction`` constructors; a deletion or
rename that breaks one of its calls fails here rather than in a benchmark run.
"""

import numpy as np
import pytest

import liebau
from liebau import PeriodicFunction, presets

# the names perfbench/workloads.py reads from the package
BENCHMARK_NAMES = (
    "LiebauError",
    "LiebauProblem",
    "PeriodicFunction",
    "SolveOptions",
    "check_positive_forcing",
    "check_sign_changing",
    "regularize",
    "search_certificate",
    "solve_periodic",
)


def test_every_public_name_resolves():
    assert len(set(liebau.__all__)) == len(liebau.__all__)
    for name in liebau.__all__:
        assert getattr(liebau, name, None) is not None, name


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_name_is_public(name):
    assert name in liebau.__all__


def test_solve_as_the_benchmark_calls_it():
    v0 = 6.0
    lp = presets.preset("benchmark", v0=v0).problem
    opts = liebau.SolveOptions(n=4096, bracket=((v0 - 3.0) ** 3, (v0 - 1.0) ** 3))
    sol = liebau.solve_periodic(liebau.regularize(lp), opts)
    assert sol.converged is True
    assert sol.nodes.shape == sol.values.shape == (4096,)
    assert sol.T == lp.T
    assert sol.max_value == float(np.max(sol.values))
    assert 0.0 <= sol.sup_residual < 1e-6


def _benchmark_tank(v0):
    lp = presets.preset("benchmark", v0=v0).problem
    opts = liebau.SolveOptions(n=4096, bracket=((v0 - 3.0) ** 3, (v0 - 1.0) ** 3))
    return liebau.solve_periodic(liebau.regularize(lp), opts)


# the region perfbench's known_failures reports on every solve-grid run: it
# reads LeftPositiveCone three times and ok once, and moves only with this pin
@pytest.mark.parametrize("v0", [3.6, 4.0, 4.4])
def test_known_failing_tank_leaves_the_cone(v0):
    with pytest.raises(liebau.LeftPositiveCone):
        _benchmark_tank(v0)


def test_known_hard_tank_reaches_the_closed_form():
    v0 = 9.911091741522899
    sol = _benchmark_tank(v0)
    exact = ((v0 - 2.0) + np.cos(sol.nodes)) ** 3
    assert float(np.max(np.abs(sol.values - exact))) < 1e-6


@pytest.mark.parametrize("name", ["trig", "poly", "piecewise_linear"])
def test_benchmark_forcing_constructor(name):
    assert callable(getattr(PeriodicFunction, name, None))


def _same(a, b) -> bool:
    return a.to_dict() == b.to_dict()


@pytest.mark.parametrize("name", ["cosine", "cubic"])
def test_positive_search_as_the_benchmark_calls_it(name):
    lp = presets.preset(name).problem
    cert = liebau.search_certificate(lp)
    assert cert is not None and cert.passed
    again = liebau.check_positive_forcing(lp, cert.m)
    assert again.passed and _same(cert, again)


def test_sign_search_as_the_benchmark_calls_it():
    lp = presets.preset("trapezoid").problem
    cert = liebau.search_certificate(lp)
    assert cert is not None and cert.passed
    again = liebau.check_sign_changing(lp, cert.m, cert.kappa, cert.r1, cert.r2)
    assert again.passed and _same(cert, again)
