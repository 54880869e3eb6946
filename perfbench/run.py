"""Closed-loop benchmark of the ``liebau`` package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client drives the package from this process in a closed loop: each
operation starts only after the previous one ended.  Workloads:

* ``solve-grid``: ``solve_periodic`` at n=4096 on seeded cosine, cubic and
  pipe-tank problems; the tank solutions are checked against the closed form.
* ``search-positive``: ``search_certificate`` on strictly positive forcings,
  re-checked with ``check_positive_forcing``.
* ``search-sign``: ``search_certificate`` on sign-changing trapezoids,
  re-checked with ``check_sign_changing``.
* ``verify``: one ``liebau verify`` per operation, each in a fresh process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with layer spans (see ``spans.py``) and prints the
per-layer metrics, normalised per operation, with the tracing overhead.  The
last line of standard output is one JSON object; a fuller result file with
provenance and determinism digests is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-grid", "search-positive", "search-sign", "verify")
SETUP_PROBES = 11
TAIL_PERCENTILE = 90.0  # a higher one follows host hiccups more than the program
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "LIEBAU_THREADS")

# per-layer metrics: spans reported with calls and self time, spans reported
# with calls only, and work counts, all per operation of the traced phase
TIMED_SPANS = (
    "numerics.solve_cyclic_tridiagonal", "numerics.spectral_derivatives",
    "numerics.trig_interpolate", "numerics.simpson_segmented",
    "solve.solve_periodic", "solve.picard_iterate",
    "funcspec.extrema", "funcspec.positive_part",
    "greens.build", "greens.apply_kernel", "greens.verify_properties",
    "certify.search_certificate", "certify.check_positive_forcing",
    "certify.check_sign_changing", "certify.check_general", "cli.run",
)
COUNTED_SPANS = ("pump.pump_report", "problem.regularize")
WORK_COUNTS = {
    "numerics.solve_cyclic_tridiagonal.unknowns": "unknowns/op",
    "solve.solve_periodic.iterations": "iter/op",
    "solve.picard_fallback.calls": "calls/op",
    "funcspec.eval.calls": "calls/op",
    "funcspec.eval.points": "points/op",
    "greens.apply_kernel.points": "points/op",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up -----------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child process: time ``import liebau`` plus generating the inputs."""
    t0 = time.perf_counter()
    import liebau  # noqa: F401
    import workloads

    workloads.Inputs(args.workload, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        values.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return values


# -- the closed loop ------------------------------------------------------------

def timed_loop(workload, inputs, start, seconds, traced, stats) -> dict:
    import liebau
    import workloads

    latencies, failures, notes = [], Counter(), []
    wrong = 0  # wrong outputs and exceptions outside liebau's documented errors
    i = start
    t_begin = time.perf_counter()
    while time.perf_counter() - t_begin < seconds:
        spec = inputs[i]
        i += 1
        t0 = time.perf_counter()
        try:
            workloads.run_op(workload, spec, str(ROOT), traced, stats)
        except Exception as exc:  # a failed operation never aborts the run
            failures[type(exc).__name__] += 1
            if not isinstance(exc, (liebau.LiebauError, workloads.Inaccurate)):
                wrong += 1
            if len(notes) < 5:
                notes.append(f"{spec!r}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - t_begin
    return {"latencies": latencies, "failures": failures, "wrong": wrong,
            "notes": notes, "elapsed": elapsed, "attempted": i - start, "next": i}


def warm_up(workload, seed) -> None:
    """One operation per input class on inputs the timed loop never uses."""
    import workloads

    if workload == "verify":  # every user pays a fresh process's start-up
        return
    warm = workloads.Inputs(workload, f"{seed}-warm-up", count=0)
    for i in range(len(workloads.MIXES[workload])):
        try:
            workloads.run_op(workload, warm[i], str(ROOT), False, {})
        except Exception:
            pass


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail latency: p90, or the
    highest percentile below it with TAIL_BEYOND samples above it; the slowest
    sample when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        beyond = max(TAIL_BEYOND, n - math.ceil(TAIL_PERCENTILE / 100.0 * n))
        return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond
    return ordered[-1], 100.0, 0


# -- metrics ------------------------------------------------------------------------

def layer_metrics(summary, n_ops, overhead_ms) -> dict:
    spans, counts = summary["spans"], summary["counts"]

    def per_op(x):
        return x / n_ops

    out = {}
    for name in TIMED_SPANS + COUNTED_SPANS:
        entry = spans.get(name, {"calls": 0, "self_ms": 0.0})
        out[f"{name}.calls"] = {"value": per_op(entry["calls"]), "unit": "calls/op"}
        if name in TIMED_SPANS:
            out[f"{name}.self_ms"] = {"value": per_op(entry["self_ms"]), "unit": "ms/op"}
    for name, unit in WORK_COUNTS.items():
        out[name] = {"value": per_op(counts.get(name, 0)), "unit": unit}
    checks = spans.get("certify.check_positive_forcing", {}).get("calls", 0)
    passed = counts.get("certify.check_positive_forcing.passed", 0)
    out["certify.check_positive_forcing.pass_ratio"] = {
        "value": passed / checks if checks else 0.0, "unit": "ratio"}
    out["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
    return out


# -- provenance and determinism ------------------------------------------------------

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "liebau").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args, ops) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed",
        "clients": 1,
        "ops": ops,
    }


def digests() -> dict:
    """sha256 of the JSON that ``liebau certify|search|solve`` print per preset."""
    from liebau import cli, presets

    out = {}
    for cmd in ("certify", "search", "solve"):
        for name in presets.PRESET_NAMES:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run([cmd, "--preset", name])
            except Exception as exc:
                code = f"raised {type(exc).__name__}"
            out[f"{cmd}/{name}"] = {
                "exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    return out


def changed_digests(current: dict) -> list[str]:
    try:
        baseline = json.loads((BENCH / "baseline.json").read_text())["digests"]
    except (OSError, KeyError, ValueError):
        return sorted(current)
    return sorted(k for k in set(current) | set(baseline) if current.get(k) != baseline.get(k))


# -- main -----------------------------------------------------------------------------

def ms(x: float) -> float:
    return 1e3 * x


def traced_loop(workload, inputs, start, seconds, stats) -> tuple[dict, dict]:
    """The timed loop with layer spans; returns the loop and the span summary."""
    from spans import Tracer, merge

    if workload == "verify":  # each child process traces itself
        loop = timed_loop(workload, inputs, start, seconds, True, stats)
        return loop, merge(stats.get("trace_summaries", []))
    tracer = Tracer().install()
    try:
        loop = timed_loop(workload, inputs, start, seconds, True, stats)
    finally:
        tracer.uninstall()
    return loop, tracer.summary()


def run(args) -> int:
    import workloads

    lines = [f"workload {args.workload}: closed loop, 1 client, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}"]
    setup = measure_setup(args) if args.trace == 0 else []
    inputs = workloads.Inputs(args.workload, args.seed)
    warm_up(args.workload, args.seed)
    stats: dict = {}
    result: dict = {}
    if args.trace == 0:
        loops = [timed_loop(args.workload, inputs, 0, args.seconds, False, stats)]
        usage = resource.RUSAGE_CHILDREN if args.workload == "verify" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    else:
        plain = timed_loop(args.workload, inputs, 0, args.seconds / 2.0, False, {})
        traced, summary = traced_loop(args.workload, inputs, plain["next"],
                                      args.seconds / 2.0, stats)
        loops = [plain, traced]

    attempted = sum(loop["attempted"] for loop in loops)
    failures = sum((loop["failures"] for loop in loops), Counter())
    failed = sum(failures.values())
    notes = [note for loop in loops for note in loop["notes"]][:5]
    if not all(loop["latencies"] for loop in loops):
        print(f"error: no {args.workload} operation succeeded; " + "; ".join(notes),
              file=sys.stderr)
        return 1
    correct = sum(loop["wrong"] for loop in loops) == 0
    lat = loops[-1]["latencies"]
    tail_s, tail_pct, tail_beyond = tail(lat)

    if args.trace == 0:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(lat) / loops[0]["elapsed"], "unit": "1/s"},
            "op_p50_ms": {"value": ms(statistics.median(lat)), "unit": "ms"},
            "op_tail_ms": {"value": ms(tail_s), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        lines.append(f"set-up: median of {len(setup)} fresh processes "
                     + " ".join(f"{v:.4f}" for v in setup))
        lines.append(f"op_tail_ms is p{tail_pct:.2f} of {len(lat)} samples "
                     f"({tail_beyond} beyond it)")
    else:
        p50_plain, p50_traced = (ms(statistics.median(loop["latencies"])) for loop in loops)
        metrics = layer_metrics(summary, traced["attempted"], p50_traced - p50_plain)
        lines.append(f"untraced op_p50_ms {p50_plain:.3f} over {len(plain['latencies'])} ops; "
                     f"traced {p50_traced:.3f} over {len(lat)} ops; "
                     f"tracing overhead {p50_traced - p50_plain:.3f} ms")
        if summary["absent"]:
            lines.append("absent layers (metrics read 0): " + ", ".join(summary["absent"]))
        if summary["hook_errors"]:
            lines.append(f"work-count hooks failed {summary['hook_errors']} times")
        result["layers"] = summary

    fail_ratio = failed / attempted
    lines.append(f"attempted {attempted}, failed {failed} (fail_ratio {fail_ratio:.6f})"
                 + (": " + ", ".join(f"{k} {v}" for k, v in sorted(failures.items()))
                    if failures else ""))
    lines.extend("  " + note for note in notes)
    if args.workload == "solve-grid":
        result["known_failures"] = workloads.known_failures()
        lines.append("known failure region, untimed and not in attempted/failed: "
                     + ", ".join(f"tank v0={v} {outcome}"
                                 for v, outcome in result["known_failures"].items()))
    if "solve_err_max" in stats:
        lines.append(f"solve_err_max {stats['solve_err_max']:.6e} "
                     "(tank solves against ((v0-2)+cos t)^3)")

    digest = digests()
    changed = changed_digests(digest)
    lines.append(f"determinism digests: {len(digest)} recorded, "
                 + (f"CHANGED: {', '.join(changed)}" if changed else "none changed"))

    result.update({
        "provenance": provenance(args, attempted),
        "tail": {"percentile": tail_pct, "samples": len(lat), "beyond": tail_beyond},
        "fail_ratio": fail_ratio,
        "failures": dict(failures),
        "failure_notes": notes,
        "solve_err_max": stats.get("solve_err_max"),
        "digests": digest,
        "digests_changed": changed,
        "metrics": metrics,
    })
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=2) + "\n")
    lines.append(f"result file: {out_file.relative_to(ROOT)}")

    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        lines.append(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "liebau" / "__init__.py").is_file():
        print(f"error: no liebau sources at {SRC / 'liebau'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
