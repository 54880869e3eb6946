import argparse
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys

import pytest

from liebau import acceptance, certify
from liebau.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CERT_FAIL,
    EXIT_CERT_INAPPLICABLE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SEARCH_EMPTY,
    EXIT_SOLVER,
    MAX_GRID,
    OPTION_SCHEMA,
    build_parser,
    command_options,
    load_config,
    run,
)
from liebau.errors import ConfigError
from liebau.problem import LiebauProblem
from liebau.solve import SolveOptions


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGreensCommand:
    def test_constants_json(self, capsys, tmp_path):
        csv_path = tmp_path / "kernel.csv"
        code, out, _ = run_captured(
            capsys, ["greens", "-a", "1.6", "-m", "0.7", "-T", "1", "--csv-out", str(csv_path)]
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["c_m"] == pytest.approx(0.94144, abs=1e-4)
        assert data["K0"] == pytest.approx(1.96026, abs=1e-4)
        assert data["case"] == "real_distinct"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "tau,K"
        assert len(lines) == 258
        assert list(data) == ["a", "m", "T", "case", "K0", "Kmax", "c_m", "m_max"]

    def test_window_violation_is_config_error(self, capsys):
        code, _, err = run_captured(capsys, ["greens", "-a", "1.6", "-m", "3.3", "-T", "1"])
        assert code == EXIT_CONFIG
        assert "admissible window" in err

    @pytest.mark.parametrize(
        "a, m", [("inf", "0.7"), ("nan", "0.7"), ("1.6", "inf"), ("1.6", "nan")]
    )
    def test_non_finite_coefficient_exits_two_without_warning(self, capsys, a, m):
        # pytest turns RuntimeWarning into an error, so any numpy warning fails here
        code, out, err = run_captured(capsys, ["greens", "-a", a, "-m", m, "-T", "1"])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "a, T, field", [("1", "1e-300", "greens.T"), ("1", "5e-324", "greens.T"), ("1e300", "1", "greens.a")]
    )
    def test_window_overflow_is_config_error(self, capsys, a, T, field):
        # m_window squares pi/T and a/2; past float range that raised OverflowError
        code, out, err = run_captured(capsys, ["greens", "-a", a, "-m", "0.5", "-T", T])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err

    @staticmethod
    def assert_closed_pipe_exits_quietly(**env):
        # 200000 rows fill the pipe buffer, so the writer is still writing when the reader stops
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        argv = ["greens", "-a", "1.6", "-m", "0.7", "-T", "1", "--samples", "200000", "--csv-out", "-"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "liebau", *argv],
            env=dict(os.environ, PYTHONPATH=src, **env),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert err == b""

    def test_closed_pipe_exits_quietly(self):
        self.assert_closed_pipe_exits_quietly()

    def test_closed_pipe_exits_quietly_unbuffered(self):
        # stdout's binary layer is then an unbuffered file, which may take part of a write
        self.assert_closed_pipe_exits_quietly(PYTHONUNBUFFERED="1")

    class ShortWrites(io.RawIOBase):
        """An unbuffered stdout that takes at most 7 bytes per write, as a pipe
        may when its reader closes; past ``limit`` bytes the pipe is closed."""

        def __init__(self, limit=math.inf):
            self.data = bytearray()
            self.limit = limit

        def writable(self):
            return True

        def write(self, b):
            if len(self.data) >= self.limit:
                raise BrokenPipeError(32, "Broken pipe")
            taken = bytes(b[:7])
            self.data += taken
            return len(taken)

    ARGV = ["greens", "-a", "1.6", "-m", "0.7", "-T", "1", "--csv-out", "-"]

    def test_short_writes_are_completed(self, monkeypatch):
        raw = self.ShortWrites()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        assert run(self.ARGV) == EXIT_OK
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "greens-real-distinct.txt")
        with open(golden, "rb") as fh:
            assert bytes(raw.data) == fh.read()

    def test_short_writes_then_a_closed_pipe_raise(self, monkeypatch):
        # the bytes are either all written or the write ends in BrokenPipeError, never a silent 0
        raw = self.ShortWrites(limit=100)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        with pytest.raises(BrokenPipeError):
            run(self.ARGV)
        assert len(raw.data) == 105


class TestCertifyCommand:
    def test_trapezoid_preset_passes(self, capsys):
        code, out, _ = run_captured(capsys, ["certify", "--preset", "trapezoid"])
        assert code == EXIT_OK
        cert = json.loads(out)
        assert cert["verdict"] == "pass"
        assert cert["params"] == {"m": 0.7, "kappa": 2200.0, "r1": 25.0, "r2": 10000.0}

    def test_override_fails_certificate(self, capsys):
        code, out, _ = run_captured(capsys, ["certify", "--preset", "trapezoid", "--kappa", "4000"])
        assert code == EXIT_CERT_FAIL
        assert json.loads(out)["verdict"] == "fail"

    def test_missing_source(self, capsys):
        code, _, err = run_captured(capsys, ["certify"])
        assert code == EXIT_CONFIG
        assert "--preset or --config" in err

    def test_inapplicable_exit_code(self, capsys):
        # the positive-forcing criterion does not apply to sign-changing e
        code, out, _ = run_captured(
            capsys, ["certify", "--preset", "trapezoid", "--theorem", "positive_forcing"]
        )
        assert code == EXIT_CERT_INAPPLICABLE
        assert json.loads(out)["verdict"] == "inapplicable"

    def test_general_theorem_via_config(self, capsys, tmp_path):
        cfg_obj = {
            "problem": {
                "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 0.005, "T": 1.0,
                "e": {"type": "piecewise", "points": [
                    [0.0, -0.00005], [0.0005, 0.00548239],
                    [0.9995, 0.00548239], [1.0, -0.00005]]},
            },
            "certify": {
                "theorem": "general", "m": 0.7, "r1": 25.0, "r2": 1e4,
                "eps": -1e-9,
                "g0": {"type": "constant", "period": 1.0, "value": 0.0},
                "g1": {"type": "constant", "period": 1.0, "value": 4900.0},
            },
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(cfg_obj))
        code, out, _ = run_captured(capsys, ["certify", "--config", str(path)])
        cert = json.loads(out)
        # g0 = 0 satisfies the lower envelope but gives zero responses, so
        # the lower response bounds fail and the verdict is fail
        assert code == EXIT_CERT_FAIL
        names = [c["name"] for c in cert["conditions"]]
        assert "lower_response_min" in names and "upper_response_max" in names

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_captured(capsys, ["certify", "--preset", "narrowband"])
        _, out2, _ = run_captured(capsys, ["certify", "--preset", "narrowband"])
        assert out1 == out2


class TestSearchCommand:
    def test_cosine_preset_finds(self, capsys):
        code, out, _ = run_captured(capsys, ["search", "--preset", "cosine"])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"

    def test_hopeless_config_returns_none(self, capsys, tmp_path):
        cfg = {
            "problem": {
                "kind": "liebau", "a": 0.0, "mu": 0.25, "c": 1.0, "T": 1.0,
                "e": {"type": "constant", "period": 1.0, "value": -1.0},
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_captured(capsys, ["search", "--config", str(path)])
        assert code == EXIT_SEARCH_EMPTY
        assert json.loads(out) == {"result": "none"}

    def test_trapezoid_strict_eps_keeps_the_eps_zero_winner(self, capsys):
        # every relative margin of the eps = 0 winner is at least 0.339, so
        # eps = 1e-6 keeps it; as an absolute margin it moved m to 0.748
        _, default, _ = run_captured(capsys, ["search", "--preset", "trapezoid"])
        code, out, err = run_captured(capsys, ["search", "--preset", "trapezoid", "--eps", "1e-6"])
        assert code == EXIT_OK, err
        assert out == default
        cert = json.loads(out)
        assert cert["verdict"] == "pass"
        assert cert["params"]["m"] == 2.244359078117412
        assert all(c["relative_margin"] >= 1e-6 for c in cert["conditions"])


def write_config(tmp_path, problem) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": problem}))
    return str(path)


class TestPeriodBound:
    """A period below 1/greens.MAX_RATE is refused where the problem is made: every
    command exits 2 with a config error naming T, and no traceback.  The greens
    command's case is TestGreensCommand.test_window_overflow_is_config_error."""

    TINY = {
        "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 1.49, "T": 1e-300,
        "e": {"type": "trig", "period": 1e-300, "offset": 1.54215, "terms": [[0.002097, 1, 0.0]]},
    }

    @pytest.mark.parametrize("command", ["solve", "pump", "search", "certify"])
    def test_tiny_period_in_a_config(self, capsys, tmp_path, command):
        # before the bound: ZeroDivisionError from 1/h^2 (solve, pump) or
        # OverflowError from (pi/T)^2 (search, certify), exit 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": self.TINY, "certify": {"theorem": "positive_forcing", "m": 0.7}}))
        code, out, err = run_captured(capsys, [command, "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("config error: problem: period T must be finite and at least 1e-140")


class TestSearchEdgeCases:
    def test_unbuildable_m_does_not_end_the_search(self, capsys, tmp_path):
        # at a = 300 the kernel of 22 of the 64 grid points cannot be built
        problem = {
            "kind": "liebau", "a": 300.0, "mu": 0.01, "c": 1.49, "T": 1.0,
            "e": {"type": "trig", "period": 1.0, "offset": 1.54215, "terms": [[0.002, 1, 0.0]]},
        }
        code, out, err = run_captured(capsys, ["search", "--config", write_config(tmp_path, problem)])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [1.54215, 1.3])
    @pytest.mark.parametrize(
        "argv", [["search"], ["certify", "--theorem", "positive_forcing", "-m", "0.7"]]
    )
    def test_small_mu_ceiling_is_a_config_error(self, capsys, tmp_path, value, argv):
        problem = {
            "kind": "liebau", "a": 1.6, "mu": 1e-5, "c": 1.49, "T": 1.0,
            "e": {"type": "constant", "period": 1.0, "value": value},
        }
        path = write_config(tmp_path, problem)
        code, out, err = run_captured(capsys, argv + ["--config", path])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "bound_at_threshold" in err and "beyond float range" in err
        assert "Traceback" not in err

    # mu e_min^2 underflows to 0 at e_min = 1e-200; both commands raised ZeroDivisionError
    TINY_FORCING = {
        "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 1.49, "T": 1.0,
        "e": {"type": "constant", "period": 1.0, "value": 1e-200},
    }

    def test_tiny_forcing_minimum_finds_nothing(self, capsys, tmp_path):
        code, out, err = run_captured(capsys, ["search", "--config", write_config(tmp_path, self.TINY_FORCING)])
        assert code == EXIT_SEARCH_EMPTY
        assert json.loads(out) == {"result": "none"}
        assert "Traceback" not in err

    def test_tiny_forcing_minimum_names_the_threshold_ceiling(self, capsys, tmp_path):
        argv = ["certify", "--theorem", "positive_forcing", "-m", "0.7"]
        code, out, err = run_captured(capsys, argv + ["--config", write_config(tmp_path, self.TINY_FORCING)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "bound_at_threshold" in err and "beyond float range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["search"], ["certify", "--theorem", "positive_forcing", "-m", "0.7"]]
    )
    def test_tiny_c_names_the_threshold_ceiling(self, capsys, tmp_path, argv):
        # c^2 underflows to 0 at c = 1e-200; both commands raised ZeroDivisionError
        problem = {
            "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 1e-200, "T": 1.0,
            "e": {"type": "constant", "period": 1.0, "value": 1.54},
        }
        code, out, err = run_captured(capsys, argv + ["--config", write_config(tmp_path, problem)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "bound_at_threshold" in err and "beyond float range" in err
        assert "Traceback" not in err

    def test_small_mu_sign_route_finds_nothing(self, capsys, tmp_path):
        problem = {
            "kind": "liebau", "a": 1.6, "mu": 1e-5, "c": 0.005, "T": 1.0,
            "e": {"type": "piecewise", "points": [
                [0.0, -0.00005], [0.0005, 0.00548239], [0.9995, 0.00548239], [1.0, -0.00005]]},
        }
        code, out, err = run_captured(capsys, ["search", "--config", write_config(tmp_path, problem)])
        assert code == EXIT_SEARCH_EMPTY
        assert json.loads(out) == {"result": "none"}
        assert "Traceback" not in err


class TestSolveCommand:
    def test_cosine_solution_summary_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sol.csv"
        code, out, _ = run_captured(
            capsys, ["solve", "--preset", "cosine", "--csv-out", str(csv_path)]
        )
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["N"] == 512
        assert list(summary)[1:4] == ["iterations", "polish_iterations", "fd_n"]
        assert 1 <= summary["polish_iterations"] < summary["iterations"]
        assert summary["fd_n"] == 128
        assert summary["max_x"] < 38.0844
        assert summary["sup_residual"] < 1e-8
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,x,u"
        assert len(lines) == 513

    def test_pump_consumes_solution_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sol.csv"
        run_captured(capsys, ["solve", "--preset", "benchmark", "--csv-out", str(csv_path)])
        code, out, _ = run_captured(
            capsys, ["pump", "--preset", "benchmark", "--solution", str(csv_path)]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["delta"] == pytest.approx(5.0, abs=1e-5)
        assert report["pumping_detected"] is True

    def test_pump_rejects_solution_of_another_period(self, capsys, tmp_path):
        # a T = 1 trace read against the T = 2 pi tank problem
        csv_path = tmp_path / "cosine.csv"
        run_captured(capsys, ["solve", "--preset", "cosine", "-n", "64", "--csv-out", str(csv_path)])
        code, out, err = run_captured(
            capsys, ["pump", "--preset", "benchmark", "--solution", str(csv_path)]
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert str(csv_path) in err and "t column" in err

    def test_pump_accepts_t_column_within_rounding(self, capsys, tmp_path):
        path = tmp_path / "sol.csv"
        path.write_text(f"t,u\n0.0,3.0\n{math.pi * (1 + 1e-14)!r},1.0\n")
        code, out, _ = run_captured(capsys, ["pump", "--preset", "benchmark", "--solution", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["u_mean"] == 2.0

    def test_pump_solves_internally(self, capsys):
        code, out, _ = run_captured(capsys, ["pump", "--preset", "cosine"])
        assert code == EXIT_OK
        assert json.loads(out)["delta"] > 0


class TestConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg_obj = {
            "problem": {
                "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 1.49, "T": 1.0,
                "e": {"type": "trig", "period": 1.0, "offset": 1.54215,
                       "terms": [[0.002097, 1, 0.0]]},
            },
            "certify": {"theorem": "positive_forcing", "m": 0.7},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_obj))
        cfg = load_config(str(path))
        assert isinstance(cfg.problem, LiebauProblem)
        assert cfg.problem.e(0.0) == pytest.approx(1.544247)

    def test_radii_validated(self, tmp_path):
        cfg_obj = {
            "problem": {
                "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 0.005, "T": 1.0,
                "e": {"type": "constant", "period": 1.0, "value": 1.0},
            },
            "certify": {"theorem": "sign_changing", "m": 0.7, "kappa": 1.0,
                         "r1": 100.0, "r2": 1.0},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg_obj))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "r1" in str(info.value)

    def test_period_mismatch_rejected(self, tmp_path):
        cfg_obj = {
            "problem": {
                "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 0.005, "T": 2.0,
                "e": {"type": "constant", "period": 1.0, "value": 1.0},
            }
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg_obj))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "period" in str(info.value)

    def test_malformed_json_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": [}')
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "line" in str(info.value)

    def test_physical_problem_parses(self, tmp_path):
        cfg_obj = {
            "problem": {
                "kind": "physical", "r0": 0.5, "rho": 1.0, "zeta": 1.0, "g": 9.8,
                "a_tau": 0.98, "a_pi": 0.01, "v0": 2.0,
                "p": {"type": "constant", "period": 1.0, "value": 0.0},
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_obj))
        cfg = load_config(str(path))
        assert isinstance(cfg.problem, LiebauProblem)
        assert cfg.problem.c == pytest.approx(0.1)


TANK_PROBLEM = {
    "kind": "liebau", "a": 0.0, "b": 2.0, "c": 0.1, "T": 6.283185307179586,
    "e": {"type": "constant", "period": 6.283185307179586, "value": 1.0},
}
BIG = "1" + "0" * 400  # written in place of the string "BIG": an integer literal beyond float range


def tank_trig(harmonic) -> dict:
    return {"type": "trig", "period": 6.283185307179586, "offset": 1.0, "terms": [[0.1, harmonic, 0.0]]}


class TestBadInputExitsTwo:
    @pytest.mark.parametrize(
        "command, section, options, field",
        [
            ("solve", "solve", {"n": "abc"}, "solve.n"),
            ("certify", "certify", {"theorem": "sign_changing", "kappa": "big"}, "certify.kappa"),
            ("search", "search", {"threads": "two"}, "search.threads"),
            ("search", "search", {"threads": 2}, "search.threads"),
            ("solve", "solve", {"truncation_band": [0.7, 1.0, 40.0]}, "solve.truncation_band"),
            ("solve", "solve", {"tol": 1e-12}, "solve.tol"),
            ("solve", "solve", {"max_iter": 50}, "solve.max_iter"),
            ("solve", "solve", {"refine_factor": 4}, "solve.refine_factor"),
            ("solve", "solve", {"polish": False}, "solve.polish"),
        ],
    )
    def test_option_type_and_key(self, capsys, tmp_path, command, section, options, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": TANK_PROBLEM, section: options}))
        code, out, err = run_captured(capsys, [command, "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err

    def test_removed_polish_flag(self, capsys):
        # every solve runs the polish, and the flag that skipped it is gone
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--preset", "cosine", "--no-polish"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_CONFIG
        assert captured.out == ""
        assert "--no-polish" in captured.err

    @pytest.mark.parametrize(
        "command, config, field",
        [
            # a harmonic of 1.5 once ran as harmonic 1, exit 0
            ("search", {"problem": dict(TANK_PROBLEM, e=tank_trig(1.5))}, "problem.e"),
            ("search", {"problem": dict(TANK_PROBLEM, e=tank_trig(math.inf))}, "problem.e.terms[0][1]"),
            # the extrema bisection's work grows linearly in the top harmonic
            ("search", {"problem": dict(TANK_PROBLEM, e=tank_trig(65537))}, "problem.e"),
            ("search", {"problem": dict(TANK_PROBLEM, e=dict(TANK_PROBLEM["e"], value="BIG"))},
             "problem.e.value"),
            ("search", {"problem": dict(TANK_PROBLEM, c="BIG")}, "problem.c"),
            ("search", {"problem": dict(TANK_PROBLEM, T="BIG")}, "problem.T"),
            ("certify", {"problem": TANK_PROBLEM, "certify": {"theorem": "positive_forcing", "m": "BIG"}},
             "certify.m"),
            ("search", {"problem": dict(TANK_PROBLEM, e={"type": "sum", "parts": []})}, "problem.e"),
            ("search", {"problem": dict(TANK_PROBLEM, e={"type": "piecewise", "points": []})}, "problem.e"),
        ],
        ids=["harmonic-1.5", "harmonic-inf", "harmonic-65537", "huge-value", "huge-c", "huge-T", "huge-m", "empty-sum",
             "empty-piecewise"],
    )
    def test_malformed_config(self, capsys, tmp_path, command, config, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config).replace('"BIG"', BIG))
        code, out, err = run_captured(capsys, [command, "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize("bad", ["1.54215", True, None], ids=["string", "bool", "null"])
    @pytest.mark.parametrize(
        "record, field",
        [
            ({"type": "constant", "period": 1.0, "value": "BAD"}, "value"),
            ({"type": "constant", "period": "BAD", "value": 1.54}, "period"),
            ({"type": "trig", "period": 1.0, "offset": "BAD", "terms": []}, "offset"),
            ({"type": "trig", "period": 1.0, "offset": 1.54, "terms": [[0.002097, 1, "BAD"]]}, "terms[0][2]"),
            ({"type": "trig", "period": 1.0, "offset": 1.54, "terms": [["BAD", 1, 0.0]]}, "terms[0][0]"),
            ({"type": "trig", "period": 1.0, "offset": 1.54, "terms": "BAD"}, "terms"),
            ({"type": "poly", "period": 1.0, "coeffs": [1.54, "BAD"]}, "coeffs[1]"),
            ({"type": "piecewise", "points": [[0.0, 1.54], [1.0, "BAD"]]}, "points[1][1]"),
            ({"type": "sum", "parts": [{"type": "constant", "period": 1.0, "value": "BAD"}]},
             "parts[0].value"),
        ],
    )
    def test_function_record_number_of_the_wrong_type(self, capsys, tmp_path, record, field, bad):
        # a string such as "1.54215" once went through float() and certified with exit 0
        record = json.loads(json.dumps(record).replace('"BAD"', json.dumps(bad)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": dict(COSINE_PROBLEM, e=record)}))
        code, out, err = run_captured(capsys, ["search", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"config error: problem.e.{field}: expected ")

    @pytest.mark.parametrize(
        "data",
        [
            b'{"problem": "\xff"}',
            b'{"problem": {"kind": "liebau", "c": 1' + b"0" * 5000 + b"}}",  # past the int digit limit
            b'{"problem": ' + b"[" * 100000 + b"]" * 100000 + b"}",  # nested past the recursion limit
        ],
        ids=["not-utf8", "long-integer", "deep-nesting"],
    )
    def test_unreadable_json(self, capsys, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        code, out, err = run_captured(capsys, ["search", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"config error: {path}: unreadable JSON")

    def test_general_envelope_of_another_period(self, capsys, tmp_path):
        # the constant g1 = m^2 R2 once passed here though its period is 7, not T = 1
        certify_opts = {
            "theorem": "general", "m": 0.7, "r1": 1.0, "r2": 37.953962145416071, "eps": -1e-9,
            "g0": {"type": "constant", "period": 1.0, "value": 0.49},
            "g1": {"type": "constant", "period": 7.0, "value": 0.49 * 37.953962145416071},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": COSINE_PROBLEM, "certify": certify_opts}))
        code, out, err = run_captured(capsys, ["certify", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: g1 period 7.0 does not match problem period 1.0\n"

    def test_nan_problem_value(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": dict(TANK_PROBLEM, c=float("nan"))}))
        code, out, err = run_captured(capsys, ["certify", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "finite" in err

    @pytest.mark.parametrize(
        "body",
        [
            "t,u\n0.0,3.0\n0.5,abc\n",  # non-numeric cell
            "t,u\n0.0,3.0\n0.5\n",  # ragged row
            "t,u\n",  # no data rows
            # t off the tank grid (0, pi) for n = 2; 3.1415926535 is 9e-11 off
            "t,u\n0.0,3.0\n3.1415926535,1.0\n",
            "t,u\n0.0,3.0\n-3.141592653589793,1.0\n",
        ],
    )
    def test_bad_solution_csv(self, capsys, tmp_path, body):
        path = tmp_path / "sol.csv"
        path.write_text(body)
        code, _, err = run_captured(
            capsys, ["pump", "--preset", "benchmark", "--solution", str(path)]
        )
        assert code == EXIT_CONFIG
        assert str(path) in err

    def test_nan_function_record(self, capsys):
        code, out, err = run_captured(capsys, ["solve", "--preset", "benchmark", "--v0", "nan"])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--preset", "trapezoid", "--out"],
            ["solve", "--preset", "cosine", "-n", "64", "--csv-out"],
        ],
    )
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "out.txt")
        code, _, err = run_captured(capsys, argv + [path])
        assert code == EXIT_CONFIG
        assert path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["greens", "-a", "1.6", "-m", "0.7", "-T", "1", "--csv-out"],
            ["solve", "--preset", "cosine", "-n", "64", "--csv-out"],
        ],
    )
    def test_failed_csv_write_prints_nothing(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "out.csv")
        code, out, err = run_captured(capsys, argv + [path])
        assert code == EXIT_CONFIG
        assert out == ""
        assert path in err

    def test_nonpositive_initial_guess(self, capsys):
        code, out, err = run_captured(capsys, ["solve", "--preset", "benchmark", "--initial", "-1"])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "solve.initial" in err

    @pytest.mark.parametrize("samples", ["-1", "0", "1"])
    def test_greens_samples_below_two(self, capsys, samples):
        code, out, err = run_captured(
            capsys, ["greens", "-a", "1.6", "-m", "0.7", "-T", "1", "--samples", samples]
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "greens.samples" in err
        assert "Traceback" not in err


COSINE_PROBLEM = {
    "kind": "liebau", "a": 1.6, "mu": 0.01, "c": 1.49, "T": 1.0,
    "e": {"type": "trig", "period": 1.0, "offset": 1.54215, "terms": [[0.002097, 1, 0.0]]},
}


class TestOptionRangesExitTwo:
    @pytest.mark.parametrize("factor", [0, -2])
    def test_refine_factor_below_one(self, capsys, tmp_path, factor):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"problem": COSINE_PROBLEM, "solve": {"n": 64, "refine_factor": factor}}
        ))
        code, out, err = run_captured(capsys, ["solve", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "solve.refine_factor" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            # the grid options are gone: argparse refuses their flags, and a
            # config names their keys as unknown
            (["--radius-lo", "0"], "search.radius_lo"),
            (["--radius-lo", "-1"], "search.radius_lo"),
            (["--radius-lo", "100", "--radius-hi", "1"], "search.radius_lo"),
            (["--radius-hi", "1e-7"], "search.radius_hi"),
            (["--m-points", "0"], "search.m_points"),
            (["--m-points", "64"], "search.m_points"),
            (["--radius-points", "0"], "search.radius_points"),
            (["--radius-points", "1"], "search.radius_points"),
            (["--m-points", str(10**20)], "search.m_points"),
        ],
    )
    def test_removed_search_grid_options(self, capsys, tmp_path, flags, field):
        # as flags, and as keys of a config's search section
        options = {f[2:].replace("-", "_"): json.loads(v) for f, v in zip(flags[::2], flags[1::2])}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": COSINE_PROBLEM, "search": options}))
        code, out, err = run_captured(capsys, ["search", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err
        assert "unknown search option" in err
        assert "Traceback" not in err
        with pytest.raises(SystemExit) as exc:
            run(["search", "--preset", "trapezoid", *flags])
        assert exc.value.code == EXIT_CONFIG
        assert flags[0] in capsys.readouterr().err


    @pytest.mark.parametrize(
        "options, field",
        [
            ({"max_iter": -3}, "solve.max_iter"),
            ({"max_iter": 0}, "solve.max_iter"),
            ({"tol": -1.0}, "solve.tol"),
            ({"tol": 0.0}, "solve.tol"),
        ],
    )
    def test_solve_iteration_limits(self, capsys, tmp_path, options, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": COSINE_PROBLEM, "solve": options}))
        code, out, err = run_captured(capsys, ["solve", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err

    def test_negative_tol_flag(self, capsys):
        # solve has no --tol flag, so argparse stops with a usage error
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--preset", "cosine", "--tol", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_CONFIG
        assert captured.out == ""
        assert "--tol" in captured.err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--bracket", "40", "4"], "solve.bracket"),
            (["--bracket", "0", "4"], "solve.bracket"),
        ],
    )
    def test_solve_flags_out_of_range(self, capsys, flags, field):
        code, out, err = run_captured(capsys, ["solve", "--preset", "benchmark", *flags])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_pump_tol_out_of_range(self, capsys, tol):
        code, out, err = run_captured(capsys, ["pump", "--preset", "benchmark", f"--tol={tol}"])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "pump.tol" in err

    @pytest.mark.parametrize("tol, message", [("-1e-9", "tol must be at least 0"), ("nan", "tol must be a finite")])
    def test_pump_tol_refused_by_pump_reports_rule(self, capsys, tol, message):
        code, _, err = run_captured(capsys, ["pump", "--preset", "benchmark", f"--tol={tol}"])
        assert code == EXIT_CONFIG
        assert f"pump.tol: {message}" in err

    @pytest.mark.parametrize("tol", ["-inf", "-1e-9", "-1"])
    def test_pump_tol_negative_as_separate_token(self, capsys, tol):
        # a space-separated negative float is a value, not an unknown option
        code, out, err = run_captured(capsys, ["pump", "--preset", "benchmark", "--tol", tol])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "pump.tol" in err
        assert "expected one argument" not in err

    @pytest.mark.parametrize("a, m", [("-inf", "0.7"), ("-1e-9", "0.7"), ("1.6", "-0.7")])
    def test_greens_negative_coefficient_as_separate_token(self, capsys, a, m):
        code, out, err = run_captured(capsys, ["greens", "-a", a, "-m", m, "-T", "1"])
        assert code == EXIT_CONFIG
        assert out == ""
        assert ("friction coefficient" if a != "1.6" else "admissible window") in err
        assert "expected one argument" not in err

    @pytest.mark.parametrize("command", ["search", "certify"])
    def test_negative_eps_as_separate_token(self, capsys, command):
        code, out, _ = run_captured(capsys, [command, "--preset", "cosine", "--eps", "-1e-9"])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"

    def test_pump_tol_zero_is_accepted(self, capsys):
        code, out, _ = run_captured(capsys, ["pump", "--preset", "benchmark", "--tol", "0"])
        assert code == EXIT_OK
        assert json.loads(out)["pumping_detected"] is True

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"n": 10**20}, "solve.n"),
            ({"n": 64, "refine_factor": 10**20}, "solve.refine_factor"),
            ({"n": MAX_GRID // 2, "refine_factor": 4}, "solve.refine_factor"),
            ({"n": MAX_GRID}, "solve.n"),  # the default refine_factor 4 overflows
        ],
    )
    def test_solve_grid_above_cap(self, capsys, tmp_path, options, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": COSINE_PROBLEM, "solve": options}))
        code, out, err = run_captured(capsys, ["solve", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["solve", "--preset", "cosine", "-n", str(10**20)], "solve.n"),
            (["pump", "--preset", "benchmark", "-n", str(10**20)], "solve.n"),
            (["greens", "-a", "1.6", "-m", "0.7", "-T", "1", "--samples", str(10**20)],
             "greens.samples"),
        ],
    )
    def test_grid_flags_above_cap(self, capsys, argv, field):
        code, out, err = run_captured(capsys, argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err
        assert "Traceback" not in err


class TestSolverFailureExitsSix:
    def test_solution_beyond_float_range(self, capsys):
        # x = ((v0 - 2) + cos t)^3 is about 1e900; f'(x) overflows, and
        # pytest turns any RuntimeWarning on the way into an error
        code, out, err = run_captured(capsys, ["solve", "--preset", "benchmark", "--v0", "1e300"])
        assert code == EXIT_SOLVER
        assert out == ""
        assert "beyond float range" in err
        assert "Traceback" not in err

    def test_collapsed_newton_iterate(self, capsys):
        code, out, err = run_captured(
            capsys, ["solve", "--preset", "benchmark", "--initial", "0.05", "-n", "512"]
        )
        assert code == EXIT_SOLVER
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("initial", ["1", "1e-300"])
    def test_collapsed_start_is_not_a_solution(self, capsys, initial):
        # both exited 0 with a near-zero "solution" whose |f| was its residual
        code, out, err = run_captured(capsys, ["solve", "--preset", "cosine", "--initial", initial])
        assert code == EXIT_SOLVER
        assert out == ""
        assert "no convergence" in err

    def test_pump_shares_the_exit_code(self, capsys, tmp_path):
        # the benchmark tank problem from a guess that leaves the positive cone
        e = {"type": "trig", "period": 2 * math.pi, "offset": 0.7,
             "terms": [[-1.9, 1, 0.0], [-1.5, 2, 0.0]]}
        problem = dict(TANK_PROBLEM, e=e)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": problem, "solve": {"initial": 0.05}}))
        code, out, err = run_captured(capsys, ["pump", "--config", str(path)])
        assert code == EXIT_SOLVER
        assert out == ""
        assert "nonpositive" in err


class TestFloatRangeEdges:
    @pytest.mark.parametrize("command", ["solve", "pump"])
    @pytest.mark.parametrize("mu, c", [(1e-6, 1.49), (0.01, 1e-50)])
    def test_default_guess_beyond_float_range_exits_two(self, capsys, tmp_path, command, mu, c):
        # (mean e / c)^(1/mu) overflows; both commands raised OverflowError
        problem = {
            "kind": "liebau", "a": 1.6, "mu": mu, "c": c, "T": 1.0,
            "e": {"type": "constant", "period": 1.0, "value": 1.54},
        }
        code, out, err = run_captured(capsys, [command, "--config", write_config(tmp_path, problem)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "constant guess" in err and "beyond float range" in err

    # mu = 1e-6 and c = 1e-200 or 1e50 put ceilings, thresholds and the
    # built-in guess (mean e / c)^(1/mu) beyond float range
    @pytest.mark.parametrize("a", [0.0, 1.6])
    @pytest.mark.parametrize("mu, c", [(1e-6, 1.49), (0.01, 1e-200), (0.01, 1e50)])
    @pytest.mark.parametrize(
        "e",
        [
            {"type": "constant", "period": 1.0, "value": 1.54},
            {"type": "trig", "period": 1.0, "offset": 1.54, "terms": [[0.5, 1, 0.0]]},
        ],
        ids=["constant", "cosine"],
    )
    def test_every_command_ends_in_an_exit_code(self, capsys, tmp_path, a, mu, c, e):
        path = write_config(tmp_path, {"kind": "liebau", "a": a, "mu": mu, "c": c, "T": 1.0, "e": e})
        commands = [
            ["search"],
            ["certify", "--theorem", "positive_forcing", "-m", "0.7"],
            ["certify", "--theorem", "sign_changing", "-m", "0.7", "--kappa", "2200", "--r1", "25", "--r2", "1e4"],
            ["solve", "-n", "64"],
            ["pump", "-n", "64"],
        ]
        for argv in commands:
            code = run([*argv, "--config", path])  # an exception fails the test
            capsys.readouterr()
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CERT_FAIL, EXIT_CERT_INAPPLICABLE,
                            EXIT_SEARCH_EMPTY, EXIT_SOLVER), argv


class TestOptionSchema:
    def test_keys_match_the_library_parameters(self):
        search_params = set(inspect.signature(certify.search_certificate).parameters) - {"lp"}
        assert set(OPTION_SCHEMA["search"]) == search_params == {"eps"}
        assert set(OPTION_SCHEMA["solve"]) == {f.name for f in dataclasses.fields(SolveOptions)}

    def test_flag_dests_are_schema_keys(self):
        actions = build_parser()._actions
        (commands,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        problem_source = {"help", "preset", "config", "v0", "out", "csv_out"}
        for section in ("search", "solve"):
            dests = {a.dest for a in commands.choices[section]._actions} - problem_source
            assert dests and dests <= set(OPTION_SCHEMA[section])

    def test_flag_overrides_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": TANK_PROBLEM, "solve": {"n": 64, "initial": 2.0}}))
        args = build_parser().parse_args(["solve", "--config", str(path), "-n", "128"])
        opts = command_options(load_config(str(path)), "solve", args)
        assert opts == SolveOptions(n=128, initial=2.0)

    def test_range_error_names_the_section(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": TANK_PROBLEM, "solve": {"n": 4}}))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.location == "solve.n"


class TestVerifyCommand:
    def test_verify_runs_green(self, capsys):
        code, out, _ = run_captured(capsys, ["verify"])
        assert code == EXIT_OK
        assert "11/11 checks passed" in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        failing = acceptance.CheckResult("always-fails", False, "detail")
        monkeypatch.setattr(acceptance, "CHECKS", (("always-fails", "", lambda: failing),))
        code, out, _ = run_captured(capsys, ["verify"])
        assert code == 1
        assert "FAIL  always-fails" in out and "0/1 checks passed" in out
