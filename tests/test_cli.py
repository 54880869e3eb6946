import json
import math

import pytest

from liebau import acceptance
from liebau.cli import (
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
from liebau.certify import SearchOptions
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

    def test_window_violation_is_config_error(self, capsys):
        code, _, err = run_captured(capsys, ["greens", "-a", "1.6", "-m", "3.3", "-T", "1"])
        assert code == EXIT_CONFIG
        assert "admissible window" in err


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
        code, out, _ = run_captured(
            capsys, ["search", "--preset", "cosine", "--m-points", "16"]
        )
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


class TestSolveCommand:
    def test_cosine_solution_summary_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sol.csv"
        code, out, _ = run_captured(
            capsys, ["solve", "--preset", "cosine", "--csv-out", str(csv_path)]
        )
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["N"] == 512
        assert list(summary)[1:3] == ["iterations", "polish_iterations"]
        assert 1 <= summary["polish_iterations"] < summary["iterations"]
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


class TestBadInputExitsTwo:
    @pytest.mark.parametrize(
        "command, section, options, field",
        [
            ("solve", "solve", {"n": "abc"}, "solve.n"),
            ("certify", "certify", {"theorem": "sign_changing", "kappa": "big"}, "certify.kappa"),
            ("search", "search", {"threads": "two"}, "search.threads"),
            ("search", "search", {"threads": 2}, "search.threads"),
        ],
    )
    def test_option_type_and_key(self, capsys, tmp_path, command, section, options, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": TANK_PROBLEM, section: options}))
        code, out, err = run_captured(capsys, [command, "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err

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
            (["--radius-lo", "0"], "search.radius_lo"),
            (["--radius-lo", "-1"], "search.radius_lo"),
            (["--radius-lo", "100", "--radius-hi", "1"], "search.radius_lo"),
            (["--radius-hi", "1e-7"], "search.radius_hi"),
            (["--m-points", "0"], "search.m_points"),
            (["--radius-points", "0"], "search.radius_points"),
            (["--radius-points", "1"], "search.radius_points"),
        ],
    )
    def test_search_grid_out_of_range(self, capsys, flags, field):
        code, out, err = run_captured(capsys, ["search", "--preset", "trapezoid", *flags])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err
        assert "Traceback" not in err


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
        code, out, err = run_captured(capsys, ["solve", "--preset", "cosine", "--tol", "-1"])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "solve.tol" in err

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
    def test_collapsed_newton_iterate(self, capsys):
        code, out, err = run_captured(
            capsys, ["solve", "--preset", "benchmark", "--initial", "0.05", "-n", "512"]
        )
        assert code == EXIT_SOLVER
        assert out == ""
        assert "Traceback" not in err

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


class TestOptionSchema:
    def test_keys_match_option_dataclasses(self):
        assert set(OPTION_SCHEMA["search"]) == set(SearchOptions.__dataclass_fields__)
        assert set(OPTION_SCHEMA["solve"]) == set(SolveOptions.__dataclass_fields__)

    def test_flag_overrides_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": TANK_PROBLEM, "solve": {"n": 64, "tol": 1e-9}}))
        args = build_parser().parse_args(["solve", "--config", str(path), "-n", "128"])
        opts = command_options(load_config(str(path)), "solve", args)
        assert opts == {"n": 128, "tol": 1e-9}


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
