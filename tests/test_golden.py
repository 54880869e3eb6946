"""Byte-for-byte regression of the CLI's stdout.

Each case runs ``cli.run`` in-process and compares stdout with the file of
the same name under ``tests/golden/``, and the exit code with ``CASES``.  A
change that is meant to move digits regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved digits in its change log.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liebau import cli
from liebau.presets import PRESET_NAMES

GOLDEN = Path(__file__).parent / "golden"

# file name -> (argv, exit code); certify does not apply to ``benchmark``,
# which carries no certificate tuple, and search finds nothing there.
CASES = {"verify.txt": (["verify"], cli.EXIT_OK)}
for _p in PRESET_NAMES:
    for _cmd in ("certify", "search", "solve", "pump"):
        if (_cmd, _p) == ("certify", "benchmark"):
            continue
        _code = cli.EXIT_SEARCH_EMPTY if (_cmd, _p) == ("search", "benchmark") else cli.EXIT_OK
        CASES[f"{_cmd}-{_p}.json"] = ([_cmd, "--preset", _p], _code)
# eps is a relative margin: the preset tuple's smallest is 1.79e-7
CASES["certify-trapezoid-eps-1e-6.json"] = (["certify", "--preset", "trapezoid", "--eps", "1e-6"], cli.EXIT_CERT_FAIL)
# the kernel of each root case: its constants and samples of K
for _case, _params in (
    ("real-distinct", ["-a", "1.6", "-m", "0.7", "-T", "1"]),
    ("complex-pair", ["-a", "0", "-m", "0.25", "-T", "6.283185307179586"]),
    ("double-root", ["-a", "2", "-m", "1", "-T", "1"]),
):
    CASES[f"greens-{_case}.txt"] = (["greens", *_params, "--csv-out", "-"], cli.EXIT_OK)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    argv, code = CASES[name]
    assert cli.run(argv) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, argv",
    [
        # the winner's smallest relative margin is 0.339, the preset tuple's 1.79e-7
        ("search-trapezoid.json", ["search", "--preset", "trapezoid", "--eps", "1e-12"]),
        ("certify-trapezoid.json", ["certify", "--preset", "trapezoid", "--eps", "1e-7"]),
    ],
)
def test_eps_below_every_relative_margin_keeps_the_bytes(capsys, name, argv):
    assert cli.run(argv) == CASES[name][1]
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


# numpy's AVX512 dispatch turned off, so it runs its AVX2 kernels; a feature
# name that the host's numpy does not dispatch is ignored
CAPPED_SIMD = "X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"


def test_certificates_keep_their_bytes_at_the_capped_simd_level():
    # every certify and search golden, and liebau verify, in one subprocess
    # at the capped dispatch level; search-soundness's upper_response_max is
    # a tie decided by the circular rule's rounding (see README)
    names = sorted(n for n in CASES if n.startswith(("certify-", "search-")))
    code = (
        "import contextlib, io, json, sys\n"
        "from liebau import cli\n"
        "out = {}\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        out[name] = [cli.run(argv), buf.getvalue()]\n"
        "print(json.dumps(out))\n"
    )
    argvs = {name: CASES[name][0] for name in names + ["verify.txt"]}
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=CAPPED_SIMD)
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(names) == 10
    for name in names:
        assert got[name] == [CASES[name][1], (GOLDEN / name).read_text(encoding="utf-8")], name
    assert got["verify.txt"][0] == cli.EXIT_OK
    assert got["verify.txt"][1].rstrip("\n").endswith("11/11 checks passed")


def regenerate() -> None:
    """Rewrite every golden file; stop at a case whose exit code is not the one in CASES."""
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in sorted(CASES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = cli.run(argv)
        if got != code:
            raise SystemExit(f"{name}: exit code {got}, expected {code}; not written")
        (GOLDEN / name).write_text(out.getvalue(), encoding="utf-8")
        print(name, file=sys.stderr)


def test_regenerate_stops_at_a_wrong_exit_code(monkeypatch, tmp_path):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    codes = {tuple(argv): code for argv, code in CASES.values()}
    codes["solve", "--preset", "cubic"] = cli.EXIT_SOLVER
    monkeypatch.setattr(cli, "run", lambda argv: codes[tuple(argv)])
    with pytest.raises(SystemExit, match=f"^solve-cubic.json: exit code {cli.EXIT_SOLVER}, expected 0"):
        regenerate()
    assert (tmp_path / "search-cubic.json").exists()
    assert not (tmp_path / "solve-cubic.json").exists()


if __name__ == "__main__":
    regenerate()
