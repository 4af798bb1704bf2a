"""Closed-loop workload child: one client calling ``properflow.cli.main``.

Run by run_bench.py in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH; it refuses to run against a properflow imported from
elsewhere.  Invocation k of the workload is generated, written as a
config file, and run through ``cli.main`` with the argv a user would type;
the next invocation starts only after the previous one returns.  Between
invocations, outside the timed region, the calibration kernels are timed
(calibrate.py) and the outputs are checked (check.py) and measured.
Outputs stay on disk until the run ends: on ext4, creating files right
after deleting thousands of others costs several times more kernel time
(freed blocks stay busy until the journal commits), which users writing
into a fresh directory do not pay.  The loop stops once the summed command time reaches
the budget.  With ``--trace 1`` the first half of the budget runs untraced
and the second half traced.

Writes ``invocations.json`` (one entry per call: k, exit code, wall and
kernel-mode seconds, calibration kernel seconds, traced flag, steps
completed, bytes written, check problems) and,
when traced, the span files to ``--work``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # Record the crash as a failed invocation and keep the loop going.
        traceback.print_exc()
        return -1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()

    import properflow
    from properflow import cli

    if SRC not in Path(properflow.__file__).resolve().parents:
        print(f"properflow imported from {properflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    records = []
    k = 0

    def phase(budget: float, call, traced: bool) -> None:
        nonlocal k
        spent = 0.0
        while True:
            inv = workloads.invocation(args.workload, args.seed, k)
            config = args.work / "in" / f"{k}.cfg"
            config.write_text(inv.config_text)
            out_dir = args.work / "out" / str(k)
            argv = inv.argv(config, out_dir)
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            code = _call(call, argv)
            wall = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            runs = range(calibrate.runs_after(wall))
            cpu = [calibrate.cpu_seconds() for _ in runs]
            io = [calibrate.io_seconds(args.work / "io" / f"{k}-{j}") for j in runs]
            outcome = check.check_invocation(inv, out_dir, code)
            written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
            records.append({
                "k": k, "exit": code, "wall_s": wall, "sys_s": r1.ru_stime - r0.ru_stime,
                "cpu_s": cpu, "io_s": io, "traced": traced,
                "steps": outcome.steps, "bytes": written, "problems": outcome.problems,
            })
            spent += wall
            k += 1
            if spent >= budget:
                return

    (args.work / "in").mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        phase(0.5 * args.seconds, cli.main, traced=False)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        phase(0.5 * args.seconds, tracer.wrap("cli.main", cli.main), traced=True)
    else:
        phase(args.seconds, cli.main, traced=False)

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.work / "invocations.json").write_text(
        json.dumps({"invocations": records, "peak_rss_kb": peak_rss_kb})
    )
    if tracer is not None:
        tracer.dump(args.work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
