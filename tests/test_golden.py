"""Byte-for-byte regression of the CLI's stdout.

Each case runs ``cli.run`` in-process and compares stdout with the file of
the same name under ``tests/golden/``, and the exit code with ``CASES``.  A
change that is meant to move digits regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved digits in its change log.
"""

import contextlib
import io
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
