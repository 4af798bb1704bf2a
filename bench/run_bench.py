"""End-to-end benchmark of the properflow CLI, with an optional traced run.

Usage (from the repository root):

    python3 bench/run_bench.py --workload simulate-desync --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py                 # every workload, 10 s each

For each workload it times set-up in fresh interpreters, runs the
workload's CLI invocations closed-loop in one child interpreter
(bench/worker.py), which checks every output the program writes
(bench/check.py), and prints each metric as ``name = value unit``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every output passed the check.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up probes run in two batches, before and after the workload child,
# so that a slow spell of the machine rarely covers all of them.
SETUP_PROBES = (5, 6)
PROBLEMS_SHOWN = 5


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def setup_seconds(work: Path, inv: workloads.Invocation, probes: int) -> list[tuple[float, float]]:
    """(set-up, calibration) seconds of ``probes`` fresh interpreters, one
    after another."""
    config = work / "setup.cfg"
    config.write_text(inv.config_text)
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(config), str(work / "setup_out")],
            env=_child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        setup, cal = (float(x) for x in proc.stdout.split())
        times.append((setup, cal))
    return times


def percentile_with_tail(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and how many samples lie above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def layer_metrics(work: Path, steps: int, sps_untraced: float, sps_traced: float) -> dict:
    names, name_ids, starts, ends, parents, counters = tracing.load(work)
    own = tracing.self_times(starts, ends, parents)
    calls = {layer: 0 for layer in tracing.LAYERS}
    self_s = dict.fromkeys(tracing.LAYERS, 0.0)
    total_s = dict.fromkeys(tracing.LAYERS, 0.0)
    for i, nid in enumerate(name_ids):
        name = names[nid]
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += ends[i] - starts[i]
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        per_call = 1e6 * total_s[layer] / calls[layer] if calls[layer] else 0.0
        metrics[f"{layer}.us_per_call"] = (per_call, "us")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    draws = counters.get(tracing.SAMPLE_DRAWS, 0)
    metrics.update({
        "wavefield.fields.points": (counters.get(tracing.FIELD_POINTS, 0), "count"),
        "wavefield.fields.boosted_calls": (counters.get(tracing.BOOSTED_CALLS, 0), "count"),
        "wavefield.fields.calls_per_step": (ratio(calls["wavefield.fields"], steps), "calls/step"),
        "stress_energy.eigenflows.calls_per_step": (
            ratio(calls["stress_energy.eigenflows"], steps), "calls/step"),
        "stress_energy.eigenflows.calls_per_trajectory": (
            ratio(calls["stress_energy.eigenflows"], calls["integrator.integrate"]), "calls/traj"),
        "integrator.sample_hyperplane.points_per_sample": (
            ratio(counters.get(tracing.SAMPLE_POINTS, 0), draws), "points/draw"),
        "trace.overhead_frac": (ratio(sps_untraced, sps_traced) - 1.0 if sps_traced else 0.0, "frac"),
    })
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = []
        first = workloads.invocation(workload, seed, 0)
        if not trace:
            setup += setup_seconds(work, first, SETUP_PROBES[0])
        cmd = [
            sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(trace),
            "--work", str(work),
        ]
        # The budget counts command time only; checks and calibration come on top.
        proc = subprocess.run(cmd, env=_child_env(), timeout=60.0 + 4.0 * seconds)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        report = json.loads((work / "invocations.json").read_text())
        if trace:
            return _traced_result(work, report)
        setup += setup_seconds(work, first, SETUP_PROBES[1])
        return _end_to_end_result(report, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _add_scaled_times(invocations: list[dict]) -> None:
    """Set each invocation's ``scaled_s``, its wall time at reference speed.

    Each kernel's time is the median of its runs made right before (after
    the previous invocation) and right after the invocation.
    """
    before = {"cpu_s": [], "io_s": []}
    paired = {}
    for rec in invocations:
        for key in before:
            paired[key] = statistics.median(before[key] + rec[key])
            before[key] = rec[key]
        rec["scaled_s"] = calibrate.scaled_seconds(
            rec["wall_s"], rec["sys_s"], paired["cpu_s"], paired["io_s"])


def _common(invocations: list[dict]) -> dict:
    _add_scaled_times(invocations)
    problems = [f"invocation {rec['k']}: {p}" for rec in invocations for p in rec["problems"]]
    return {
        "attempted": len(invocations),
        "failed": sum(1 for rec in invocations if rec["problems"]),
        "problems": problems,
        "slowdown": statistics.median(rec["wall_s"] / rec["scaled_s"] for rec in invocations),
    }


def _rate(rec: dict) -> float:
    """Steps per second of one invocation at reference speed."""
    return rec["steps"] / rec["scaled_s"]


def _end_to_end_result(report: dict, setup: list[tuple[float, float]]) -> dict:
    invocations = report["invocations"]
    result = _common(invocations)
    cmd_s = [rec["scaled_s"] for rec in invocations]
    result["metrics"] = {
        "steps_per_s": (statistics.median(_rate(rec) for rec in invocations), "steps/s"),
        "cmd_s_p50": (statistics.median(cmd_s), "s"),
        "setup_s": (statistics.median(
            calibrate.scaled_seconds(s, 0.0, c, calibrate.REFERENCE_IO_S) for s, c in setup), "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw_walls = [rec["wall_s"] for rec in invocations]
    p90, beyond = percentile_with_tail(cmd_s, 0.9)
    n = len(cmd_s)
    result["printed"] = [
        ("cmd_s_p90", f"{p90!r} s (n={n}, {beyond} above)" if beyond >= 10
         else f"n/a s (n={n}: fewer than 10 samples above p90)"),
        ("fail_frac", f"{result['failed'] / result['attempted']!r} 1"),
        ("raw.steps_per_s", f"{statistics.median(r['steps'] / r['wall_s'] for r in invocations)!r} steps/s"),
        ("raw.cmd_s_p50", f"{statistics.median(raw_walls)!r} s"),
        ("raw.setup_s", f"{statistics.median(s for s, _ in setup)!r} s"),
    ]
    return result


def _traced_result(work: Path, report: dict) -> dict:
    invocations = report["invocations"]
    result = _common(invocations)
    traced = [rec for rec in invocations if rec["traced"]]
    untraced = [rec for rec in invocations if not rec["traced"]]
    metrics = layer_metrics(
        work,
        sum(rec["steps"] for rec in traced),
        statistics.median(_rate(rec) for rec in untraced),
        statistics.median(_rate(rec) for rec in traced),
    )
    metrics["cli.bytes_out"] = (
        sum(rec["bytes"] for rec in invocations) / len(invocations), "B/cmd")
    result["metrics"] = metrics
    result["printed"] = [
        ("fail_frac", f"{result['failed'] / result['attempted']!r} 1"),
        ("traced_invocations", f"{len(traced)} count"),
    ]
    return result


def print_result(workload: str, result: dict, prefix: str = "") -> None:
    print(f"[{workload}] {result['attempted']} invocations, {result['failed']} failed")
    for problem in result["problems"][:PROBLEMS_SHOWN]:
        print(f"[{workload}] check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{prefix}{name} = {value!r} {unit}")
    for name, text in result["printed"]:
        print(f"{prefix}{name} = {text}")
    print(f"{prefix}slowdown = {result['slowdown']!r} x (median raw over scaled command time)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "properflow" / "cli.py").is_file():
        print(f"run_bench: no properflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run_bench: --seconds must be positive", file=sys.stderr)
        return 2

    print("env = " + json.dumps(environment(args.seed)))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        started = time.perf_counter()
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        prefix = f"{workload}." if len(names) > 1 else ""
        print_result(workload, result, prefix)
        print(f"[{workload}] run took {time.perf_counter() - started:.1f} s")
        attempted += result["attempted"]
        failed += result["failed"]
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
