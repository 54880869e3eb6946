"""Command-line interface.

Subcommands: ``greens`` (kernel samples and constants), ``certify`` (one
certificate), ``search`` (parameter scan), ``solve`` (periodic solution
trace), ``pump`` (pumping report), ``verify`` (built-in regression suite).

Problems come from ``--preset`` or from a JSON config file; every number in
the emitted JSON and CSV is printed with 17 significant digits in a fixed
field order, so identical inputs produce byte-identical output.

Exit codes: 0 success (certificate passed / solver converged / all checks
green), 1 ``verify`` found a failing check, 2 configuration or usage error
(including an unknown option key, an option, problem or function-record
value of the wrong type, not finite or out of range, a malformed solution
CSV or one whose t column is not the problem's grid arange(n) * (T/n), and
a certificate ceiling, inner radius or built-in solve guess beyond float
range), 3 certificate
failed, 4 certificate inapplicable, 5 search found nothing, 6 solver failed (no
convergence, or the iterate left the positive cone), 141 stdout was closed
before the output was written (a broken pipe, as in ``| head -1``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import acceptance, certify, greens, presets
from .errors import BadPeriod, ConfigError, LeftPositiveCone, LiebauError, NoConvergence
from .funcspec import PeriodicFunction
from .numerics import dump_json, format_float, is_finite_real
from .problem import (
    GeneralProblem,
    LiebauProblem,
    PhysicalConfig,
    deregularize,
    from_physical,
    regularize,
)
from .pump import check_tol, pump_report, x_to_u
from .solve import MAX_GRID, GridSolution, SolveOptions, solve_periodic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERT_FAIL = 3
EXIT_CERT_INAPPLICABLE = 4
EXIT_SEARCH_EMPTY = 5
EXIT_SOLVER = 6
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell shows for a process ended by it


@dataclass
class RunConfig:
    problem: LiebauProblem | GeneralProblem | None
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# config parsing

def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing required field {key!r}", where)
    return obj[key]


def _number(obj: dict, key: str, where: str) -> float:
    return _convert(_need(obj, key, where), float, f"{where}.{key}")


def _list_of(value, kind, where: str) -> list:
    """A JSON list whose items are converted to ``kind`` as ``_convert`` does."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"expected a list, got {value!r}", where)
    return [_convert(v, kind, f"{where}[{i}]") for i, v in enumerate(value)]


def parse_function(obj, where: str) -> PeriodicFunction:
    """A function record; every number in it must be a finite JSON number."""
    if not isinstance(obj, dict):
        raise ConfigError("function must be a tagged object", where)
    kind = _need(obj, "type", where)
    try:
        if kind == "constant":
            return PeriodicFunction.constant(_number(obj, "period", where), _number(obj, "value", where))
        if kind == "trig":
            return PeriodicFunction.trig(
                _number(obj, "period", where),
                _convert(obj.get("offset", 0.0), float, f"{where}.offset"),
                _list_of(obj.get("terms", []), 3, f"{where}.terms"),
            )
        if kind == "poly":
            return PeriodicFunction.poly(
                _number(obj, "period", where), _list_of(_need(obj, "coeffs", where), float, f"{where}.coeffs")
            )
        if kind == "piecewise":
            return PeriodicFunction.piecewise_linear(
                _list_of(_need(obj, "points", where), 2, f"{where}.points")
            )
        if kind == "sum":
            parts = [
                parse_function(p, f"{where}.parts[{i}]")
                for i, p in enumerate(_need(obj, "parts", where))
            ]
            return PeriodicFunction.sum_of(parts)
    except ConfigError:
        raise
    except (LiebauError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc), where) from exc
    raise ConfigError(f"unknown function type {kind!r}", f"{where}.type")


def parse_problem(obj, where: str):
    if not isinstance(obj, dict):
        raise ConfigError("problem must be an object", where)
    kind = _need(obj, "kind", where)
    try:
        if kind == "liebau":
            e = parse_function(_need(obj, "e", where), f"{where}.e")
            a, c, T = (_number(obj, key, where) for key in ("a", "c", "T"))
            if "mu" in obj:
                return LiebauProblem(a, _number(obj, "mu", where), c, T, e)
            return LiebauProblem.from_b(a, _number(obj, "b", where), c, T, e)
        if kind == "general":
            return GeneralProblem(
                a=_number(obj, "a", where),
                T=_number(obj, "T", where),
                r=parse_function(_need(obj, "r", where), f"{where}.r"),
                s=parse_function(_need(obj, "s", where), f"{where}.s"),
                alpha=_number(obj, "alpha", where),
                beta=_number(obj, "beta", where),
            )
        if kind == "physical":
            cfg = PhysicalConfig(
                **{key: _number(obj, key, where) for key in ("r0", "rho", "zeta", "g", "a_tau", "a_pi", "v0")},
                p=parse_function(_need(obj, "p", where), f"{where}.p"),
            )
            return from_physical(cfg)
    except ConfigError:
        raise
    except (LiebauError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), where) from exc
    raise ConfigError(f"unknown problem kind {kind!r}", f"{where}.kind")


# ---------------------------------------------------------------------------
# command options: one typed schema for config sections and CLI flags

# Per command: option key -> kind.  float takes any finite JSON number, an
# integer k takes a list of k numbers, "function" takes a function record.
# The solve keys are exactly the fields of SolveOptions, which checks its
# own ranges.
OPTION_SCHEMA = {
    "certify": {"theorem": str, "m": float, "kappa": float, "r1": float, "r2": float,
                "eps": float, "g0": "function", "g1": "function"},
    "search": {"eps": float},
    "solve": {"n": int, "initial": float, "bracket": 2},
}


def _convert(value, kind, where: str):
    if kind == "function":
        return parse_function(value, where)
    if isinstance(kind, int):
        if not isinstance(value, (list, tuple)) or len(value) != kind:
            raise ConfigError(f"expected a list of {kind} numbers, got {value!r}", where)
        return tuple(_convert(v, float, f"{where}[{i}]") for i, v in enumerate(value))
    if kind is float and type(value) is int:
        if not is_finite_real(value):
            raise ConfigError("must be finite, got an integer beyond float range", where)
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", where)
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"must be finite, got {value!r}", where)
    return value


def command_options(cfg: RunConfig, section: str, args=None):
    """Config section ``section`` overridden by the non-None CLI flags of the same name.

    Every value is converted to its OPTION_SCHEMA kind; an unknown key or a
    value of the wrong type raises ConfigError naming ``section.key``.  For
    ``solve`` the result is the built SolveOptions, whose range errors are
    re-raised under ``solve.key`` too; for ``certify`` and ``search`` it is
    a dict.
    """
    schema = OPTION_SCHEMA[section]
    raw = dict(cfg.options.get(section, {}))
    for key in schema:
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    opts = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown {section} option {key!r}", f"{section}.{key}")
        opts[key] = _convert(value, schema[key], f"{section}.{key}")
    if section == "solve":
        try:
            return SolveOptions(**opts)
        except ConfigError as exc:
            raise ConfigError(exc.message, f"{section}.{exc.location}") from exc
    if "r1" in opts and "r2" in opts and not (0 < opts["r1"] < opts["r2"]):
        raise ConfigError("radii must satisfy 0 < r1 < r2", f"{section}.r1")
    if opts.get("kappa", 1.0) <= 0.0:
        raise ConfigError("kappa must be positive", f"{section}.kappa")
    return opts


def _require(opts: dict, section: str, *keys: str) -> None:
    for key in keys:
        if key not in opts:
            raise ConfigError("missing field", f"{section}.{key}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc), path) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", path) from exc
    except (ValueError, RecursionError) as exc:  # bytes that are not UTF-8, an over-long integer, deep nesting
        raise ConfigError(f"unreadable JSON: {exc}", path) from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object", path)
    problem = parse_problem(raw["problem"], "problem") if "problem" in raw else None
    options = {k: v for k, v in raw.items() if k != "problem"}
    for key, val in options.items():
        if not isinstance(val, dict):
            raise ConfigError("command options must be objects", key)
    cfg = RunConfig(problem=problem, options=options)
    for section in OPTION_SCHEMA:
        command_options(cfg, section)  # reject bad options before any command runs
    return cfg


def _resolve(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif getattr(args, "preset", None):
        p = presets.preset(args.preset, v0=getattr(args, "v0", 4.0))
        cfg = RunConfig(problem=p.problem, options={"certify": dict(p.certify), "solve": dict(p.solve)})
    else:
        raise ConfigError("either --preset or --config is required")
    return cfg


def _liebau_problem(cfg: RunConfig) -> LiebauProblem:
    if isinstance(cfg.problem, LiebauProblem):
        return cfg.problem
    if isinstance(cfg.problem, GeneralProblem):
        try:
            return deregularize(cfg.problem)
        except LiebauError as exc:
            raise ConfigError(f"problem is not Liebau-derived: {exc}", "problem") from exc
    raise ConfigError("no problem defined", "problem")


# ---------------------------------------------------------------------------
# output helpers

def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(str(exc), path) from exc


def _csv_output(path: str, header: list[str], columns: list[np.ndarray]) -> tuple[str | None, str]:
    """(path, CSV text) for ``_emit``; path '-' becomes None, meaning stdout."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format_float(v) for v in row))
    return (None if path == "-" else path), "\n".join(lines) + "\n"


def _write_stdout(text: str) -> None:
    """Write text to stdout in full or raise BrokenPipeError.  Under ``python -u`` a write
    cut short by a closing reader takes part of the bytes, and the text layer drops the rest."""
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[binary.write(data) :]
    binary.flush()


def _emit(obj, out=None, *more: tuple[str | None, str]) -> None:
    """Write obj as JSON to ``out`` (stdout if None), then each (path, text) in ``more``.

    Every file is written before anything goes to stdout, so a failed write
    leaves stdout empty.
    """
    outputs = [(out or None, dump_json(obj) + "\n"), *more]
    for path, text in outputs:
        if path is not None:
            _write_text(path, text)
    for path, text in outputs:
        if path is None:
            _write_stdout(text)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_greens(args) -> int:
    if not 2 <= args.samples <= MAX_GRID:
        raise ConfigError(
            f"need between 2 and {MAX_GRID} samples, got {args.samples}", "greens.samples"
        )
    try:
        greens.check_coefficients(args.a, args.T)
    except LiebauError as exc:
        raise ConfigError(str(exc), "greens.T" if isinstance(exc, BadPeriod) else "greens.a") from exc
    kernel = greens.build(args.a, args.m, args.T)
    taus = np.linspace(0.0, kernel.T, args.samples)
    values = np.asarray(kernel.at(taus), dtype=float)
    csv = [_csv_output(args.csv_out, ["tau", "K"], [taus, values])] if args.csv_out else []
    _emit(
        {
            "a": kernel.a,
            "m": kernel.m,
            "T": kernel.T,
            "case": kernel.case,
            "K0": kernel.k0,
            "Kmax": kernel.kmax,
            "c_m": kernel.cone_constant,
            "m_max": kernel.m_max,
        },
        args.out,
        *csv,
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    cfg = _resolve(args)
    opts = command_options(cfg, "certify", args)
    _require(opts, "certify", "theorem")
    theorem = opts["theorem"]
    eps = opts.get("eps", 0.0)
    if theorem == "sign_changing":
        lp = _liebau_problem(cfg)
        _require(opts, "certify", "m", "kappa", "r1", "r2")
        cert = certify.check_sign_changing(
            lp, opts["m"], opts["kappa"], opts["r1"], opts["r2"], eps=eps
        )
    elif theorem == "positive_forcing":
        lp = _liebau_problem(cfg)
        _require(opts, "certify", "m")
        cert = certify.check_positive_forcing(lp, opts["m"], eps=eps)
    elif theorem == "general":
        problem = cfg.problem
        gp = problem if isinstance(problem, GeneralProblem) else regularize(_liebau_problem(cfg))
        _require(opts, "certify", "m", "r1", "r2", "g0", "g1")
        cert = certify.check_general(
            gp, opts["m"], opts["r1"], opts["r2"], opts["g0"], opts["g1"], eps=eps
        )
    else:
        raise ConfigError(f"unknown theorem {theorem!r}", "certify.theorem")
    _emit(cert.to_dict(), args.out)
    if cert.verdict == certify.VERDICT_PASS:
        return EXIT_OK
    if cert.verdict == certify.VERDICT_INAPPLICABLE:
        return EXIT_CERT_INAPPLICABLE
    return EXIT_CERT_FAIL


def _cmd_search(args) -> int:
    cfg = _resolve(args)
    opts = command_options(cfg, "search", args)
    cert = certify.search_certificate(_liebau_problem(cfg), eps=opts.get("eps", 0.0))
    if cert is None:
        _emit({"result": "none"}, args.out)
        return EXIT_SEARCH_EMPTY
    _emit(cert.to_dict(), args.out)
    return EXIT_OK


def _solved(cfg: RunConfig, args) -> tuple[GridSolution, float | None]:
    problem = cfg.problem
    if isinstance(problem, LiebauProblem):
        gp = regularize(problem)
        mu = problem.mu
    elif isinstance(problem, GeneralProblem):
        gp = problem
        try:
            mu = deregularize(problem).mu
        except LiebauError:
            mu = None
    else:
        raise ConfigError("no problem defined", "problem")
    return solve_periodic(gp, command_options(cfg, "solve", args)), mu


def _cmd_solve(args) -> int:
    sol, mu = _solved(_resolve(args), args)
    summary = {
        "N": len(sol.values),
        "iterations": sol.iterations,
        "polish_iterations": sol.polish_iterations,
        "fd_n": sol.fd_n,
        "sup_residual": sol.sup_residual,
        "sup_residual_exact_data": sol.sup_residual_exact_data,
        "min_x": sol.min_value,
        "max_x": sol.max_value,
        "mean_x": sol.mean_value,
    }
    header, columns = ["t", "x"], [sol.nodes, sol.values]
    if mu is not None:
        header, columns = header + ["u"], columns + [sol.values**mu]
    csv = [_csv_output(args.csv_out, header, columns)] if args.csv_out else []
    _emit(summary, args.out, *csv)
    return EXIT_OK


def _read_solution_csv(path: str, mu: float, T: float) -> np.ndarray:
    """The u samples of a solution CSV whose t column is the grid arange(n) * (T/n)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(str(exc), path) from exc
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ConfigError("solution file must carry a 't,x[,u]' header", path)
    header = rows[0]
    if len(rows) < 2 or any(len(row) != len(header) for row in rows[1:]):
        raise ConfigError("need one or more data rows, each with one value per column", path)
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"non-numeric value: {exc}", path) from exc
    if not np.all(np.isfinite(data)):
        raise ConfigError("solution data must be finite", path)
    n = len(data)
    if np.max(np.abs(data[:, 0] - np.arange(n) * (T / n))) > 1e-12 * T:
        raise ConfigError(
            f"t column is not the grid arange({n}) * (T/{n}) of the problem's period T = {T!r}",
            path,
        )
    if "u" in header:
        return data[:, header.index("u")]
    if "x" in header:
        return data[:, header.index("x")] ** mu
    raise ConfigError("need a 'u' or an 'x' column", path)


def _cmd_pump(args) -> int:
    tol = 1e-9 if args.threshold is None else args.threshold
    try:
        check_tol(tol)
    except LiebauError as exc:
        raise ConfigError(str(exc), "pump.tol") from exc
    cfg = _resolve(args)
    lp = _liebau_problem(cfg)
    if args.solution:
        u = _read_solution_csv(args.solution, lp.mu, lp.T)
    else:
        u = x_to_u(_solved(cfg, args)[0].values, lp.mu)
    report = pump_report(lp, u, tol=tol)
    _emit(
        {
            "u_mean": report.u_mean,
            "e_mean_over_c": report.e_mean_over_c,
            "delta": report.delta,
            "uprime_l2sq": report.uprime_l2sq,
            "identity_residual": report.identity_residual,
            "pumping_detected": report.pumping_detected,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = acceptance.run_all(verbose=True)
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # a token that reads as a float ("-1e-9", "-inf") is a value, not an unknown option
        try:
            float(arg_string)
            return None
        except ValueError:
            return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liebau",
        description="Existence certificates and periodic solvers for valveless pumping models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_source(p):
        p.add_argument("--preset", choices=presets.PRESET_NAMES, help="built-in instance")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--v0", type=float, default=4.0, help="volume for the benchmark preset")
        p.add_argument("--out", help="write the JSON result here instead of stdout")

    p = sub.add_parser("greens", help="kernel constants and samples")
    p.add_argument("-a", type=float, required=True)
    p.add_argument("-m", type=float, required=True)
    p.add_argument("-T", type=float, required=True)
    p.add_argument("--samples", type=int, default=257)
    p.add_argument("--csv-out", help="write tau,K samples here ('-' for stdout)")
    p.add_argument("--out", help="write the JSON constants here instead of stdout")
    p.set_defaults(handler=_cmd_greens)

    p = sub.add_parser("certify", help="check one certificate")
    add_problem_source(p)
    p.add_argument("--theorem", choices=("sign_changing", "positive_forcing", "general"))
    p.add_argument("-m", type=float, dest="m")
    p.add_argument("--kappa", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--eps", type=float, help="least relative margin of every condition (negative tolerates noise)")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("search", help="scan parameters for a passing certificate")
    add_problem_source(p)
    p.add_argument("--eps", type=float, help="least relative margin of every condition of the certificate")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("solve", help="compute a periodic solution")
    add_problem_source(p)
    p.add_argument("-n", type=int)
    p.add_argument("--initial", type=float)
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--csv-out", help="write t,x[,u] samples here ('-' for stdout)")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("pump", help="pumping-effect report")
    add_problem_source(p)
    p.add_argument("--solution", help="solution CSV from a previous solve")
    p.add_argument("-n", type=int)
    p.add_argument("--tol", dest="threshold", type=float, help="pumping detection threshold")
    p.set_defaults(handler=_cmd_pump)

    p = sub.add_parser("verify", help="run the built-in regression suite")
    p.set_defaults(handler=_cmd_verify)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, LeftPositiveCone) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except LiebauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``liebau greens --csv-out - | head -1``);
        # stdout goes to devnull so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
