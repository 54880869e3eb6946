"""Runs every built-in regression check as its own test case.

The same checks back the ``liebau verify`` subcommand; each prints its
measured values in the failure message, so a red test shows the offending
number directly.
"""

import os
import subprocess
import sys

import pytest

from liebau.acceptance import CHECKS


@pytest.mark.parametrize("check_id,description,fn", CHECKS, ids=[c[0] for c in CHECKS])
def test_acceptance(check_id, description, fn):
    result = fn()
    assert result.passed, f"{check_id} ({description}): {result.detail}"


def test_run_all_loads_neither_numpy_ma_nor_polynomial():
    # ``liebau verify`` starts a fresh process, and loading numpy.ma (through
    # np.unique) or numpy.polynomial (through leggauss) would add to every
    # start-up; numerics.sorted_unique and greens._GAUSS_X/_GAUSS_W avoid them
    code = (
        "import sys\n"
        "from liebau import acceptance\n"
        "results = acceptance.run_all(verbose=False)\n"
        "assert all(r.passed for r in results), [r for r in results if not r.passed]\n"
        "print(sorted(name for name in ('numpy.ma', 'numpy.polynomial') if name in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
