"""Alternating benchmark pairs: a parent ref against this checkout.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 25 \\
        --workload simulate-desync --seed 2101 --json session.json

Exports PARENT into a temporary directory with ``git archive`` (the
export function of ``output_identity.py``) and runs
``bench/run_bench.py`` alternately there and in this checkout, working
tree included: one run per side and workload in each pair.  Pair i gives
both sides seed SEED + i, and which side runs first alternates from pair
to pair.  Each side runs its own copy of the harness.

It then prints, per workload and metric, both sides' median and
quartiles, the change of the median, how many pairs this checkout won,
and whether it is better in the median by more than the width of the
parent's interquartile range.  A metric whose median is worse than the
parent's by more than its ``BENCHMARK.json`` bound is flagged ``WORSE``.
Metric directions and bounds come from ``BENCHMARK.json`` in this
checkout.  With ``--json PATH`` the same session is also written to PATH
(``report``): its arguments, the table's rows, the failed runs and the
re-runs.

A run that exits non-zero (an output failed ``bench/check.py``, or a
command or the harness crashed) does not stop the others.  It is listed
after the table with its side, workload, pair, seed, exit code, failed
and attempted invocations and its first problems, taken from its JSON
last line and its stderr.  Its metrics still enter the table when it
printed them; a pair and workload whose runs did not both print a result
line is left out of it.

Each invocation K named by a failed run's ``check failed: invocation K``
problems (at most three per run) is then run again in both trees, built
by that tree's ``bench/workloads.invocation(workload, seed, K)`` and run
through its ``properflow.cli.main`` on its own ``src/``.  The two output
directories, exit codes, stdout and stderr are compared byte for byte
(``compare_trees`` of ``output_identity.py``).  Identical results mean
the parent writes the same bytes there, so its check would fail too had
its run reached that invocation; a difference means the change moved an
output.

The exit code is 1 when any run failed, 2 for bad arguments or a ref git
cannot export, and 0 otherwise, flags or not.  Each run starts in its own
session.  SIGTERM and SIGINT end the tool through its cleanup: the
running harness and every process it started are killed, and the
temporary directory is removed, as in every other case.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tools/ is on the path when this file runs as a script, not when it is
# loaded from its path by an importer.
sys.path.insert(0, str(ROOT / "tools"))

from output_identity import compare_trees, export_ref  # noqa: E402


@dataclass(frozen=True)
class Row:
    """Summary of one workload x metric over the pairs."""

    workload: str
    metric: str
    unit: str
    parent: tuple[float, float, float]  # (q1, median, q3)
    change: tuple[float, float, float]
    wins: int
    pairs: int
    clears_iqr: bool
    worse: bool


@dataclass(frozen=True)
class Failure:
    """One run that exited non-zero; failed and attempted are None when it
    printed no result line."""

    workload: str
    side: str
    pair: int
    seed: int
    exit_code: int
    failed: int | None
    attempted: int | None
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Rerun:
    """One failed invocation run again in both trees."""

    workload: str
    seed: int
    k: int
    exit_codes: tuple[int, int]  # (parent, change)
    differences: tuple[str, ...]  # compare_trees lines; empty when identical


# Problems kept per failed run.
PROBLEMS_KEPT = 3
_CHECK_FAILED = re.compile(r"check failed: invocation (\d+):")

# Run in a case directory with PYTHONPATH at a tree's src/; argv is that
# tree's bench/ directory, the workload, the seed and the invocation number.
_RERUN = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from properflow import cli
inv = workloads.invocation(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
Path("invocation.cfg").write_text(inv.config_text)
raise SystemExit(cli.main(inv.argv(Path("invocation.cfg"), Path("out"))))
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def result_line(stdout: str) -> dict:
    """The JSON object run_bench.py prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(runs: list[tuple[str, dict, dict]], spec: dict) -> list[Row]:
    """Rows, in order of first appearance, from (workload, parent, change)
    triples, one per pair and workload, each side's ``result_line``.

    Metrics that BENCHMARK.json does not list have no direction and are
    left out.
    """
    specs = {entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]}
    samples: dict[tuple[str, str], tuple[str, list[float], list[float]]] = {}
    for workload, parent, change in runs:
        for name, entry in parent["metrics"].items():
            if name not in specs or name not in change["metrics"]:
                continue
            _, before, after = samples.setdefault((workload, name), (entry["unit"], [], []))
            before.append(entry["value"])
            after.append(change["metrics"][name]["value"])
    rows = []
    for (workload, name), (unit, before, after) in samples.items():
        sign = 1.0 if specs[name]["better"] == "higher" else -1.0
        p, c = quartiles(before), quartiles(after)
        gain = sign * (c[1] - p[1])
        bound = specs[name].get("bound")
        rows.append(Row(
            workload=workload,
            metric=name,
            unit=unit,
            parent=p,
            change=c,
            wins=sum(sign * (a - b) > 0.0 for b, a in zip(before, after)),
            pairs=len(before),
            clears_iqr=gain > p[2] - p[0],
            worse=bound is not None and p[1] != 0.0 and -gain / abs(p[1]) > bound,
        ))
    return rows


def relative_change(r: Row) -> float | None:
    """(change median - parent median) / |parent median|; None for a zero
    parent median."""
    return (r.change[1] - r.parent[1]) / abs(r.parent[1]) if r.parent[1] else None


def format_rows(rows: list[Row]) -> str:
    """The summary as an aligned text table."""

    def spread(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    table = [("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "change", "wins", "gain>IQR", "flag")]
    for r in rows:
        rel = relative_change(r)
        table.append((r.workload, r.metric, r.unit, spread(r.parent), spread(r.change),
                      "n/a" if rel is None else f"{rel:+.1%}", f"{r.wins}/{r.pairs}",
                      "yes" if r.clears_iqr else "no", "WORSE" if r.worse else ""))
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table
    )


def failure(workload: str, side: str, pair: int, seed: int,
            proc: subprocess.CompletedProcess, result: dict | None) -> Failure:
    """What a non-zero run reports: counts from its result line, if it
    printed one, and its first ``check failed`` lines, or its last stderr
    lines when it has none (a traceback's end)."""
    failed, attempted = (result["failed"], result["attempted"]) if result else (None, None)
    lines = [line.strip() for line in proc.stderr.strip().splitlines()]
    problems = [line for line in lines if "check failed:" in line] or lines[-PROBLEMS_KEPT:]
    return Failure(workload, side, pair, seed, proc.returncode, failed, attempted,
                   tuple(problems[:PROBLEMS_KEPT]))


def format_failure(f: Failure) -> str:
    """One failed run as a headline and its problems, indented."""
    counts = "no result line" if f.attempted is None else (
        f"{f.failed}/{f.attempted} invocations failed")
    head = (f"FAILED {f.side} run of {f.workload} (pair {f.pair}, seed {f.seed}): "
            f"exit {f.exit_code}, {counts}")
    return "\n".join([head] + [f"    {problem}" for problem in f.problems])


def failed_invocations(f: Failure) -> list[int]:
    """The invocation numbers of a run's ``check failed`` problems, in
    order and each once."""
    found = (_CHECK_FAILED.search(problem) for problem in f.problems)
    return list(dict.fromkeys(int(m.group(1)) for m in found if m))


def rerun(parent_tree: Path, workload: str, seed: int, k: int, scratch: Path) -> Rerun:
    """Invocation k of workload under seed, run once in each tree into
    ``scratch``, and the differences between the two sides' results."""
    base = scratch / f"rerun-{workload}-{seed}-{k}"
    codes = []
    for side, tree in (("parent", parent_tree), ("change", ROOT)):
        case = base / side
        case.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-c", _RERUN, str(tree / "bench"), workload, str(seed), str(k)],
            cwd=case, env=dict(os.environ, PYTHONPATH=str(tree / "src")), capture_output=True)
        (case / "exit_code").write_text(f"{proc.returncode}\n")
        (case / "stdout").write_bytes(proc.stdout)
        (case / "stderr").write_bytes(proc.stderr)
        codes.append(proc.returncode)
    return Rerun(workload, seed, k, tuple(codes),
                 tuple(compare_trees(base / "parent", base / "change")))


def format_rerun(r: Rerun) -> str:
    """One re-run as a headline and its differences, indented."""
    outcome = (f"{len(r.differences)} differences" if r.differences
               else "identical outputs, exit codes and streams")
    head = (f"RE-RUN {r.workload} seed {r.seed} invocation {r.k}: exit {r.exit_codes[0]} "
            f"parent, {r.exit_codes[1]} change; {outcome}")
    return "\n".join([head] + [f"    {line}" for line in r.differences])


def _bench(tree: Path, workload: str, seed: int, seconds: float,
           trace: int) -> subprocess.CompletedProcess:
    """One run_bench.py run in ``tree``, in a session of its own; if it is
    interrupted, its whole process group is killed before this returns."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def run_pairs(parent_tree: Path, workloads: list[str], pairs: int, seed: int, seconds: float,
              trace: int) -> tuple[list[tuple[str, dict, dict]], list[Failure]]:
    """(workload, parent, change) result lines of every pair and workload
    where both sides printed one, and every run that exited non-zero."""
    runs, failures = [], []
    for i in range(pairs):
        sides = [("parent", parent_tree), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        for workload in workloads:
            result = {}
            for side, tree in sides:
                proc = _bench(tree, workload, seed + i, seconds, trace)
                try:
                    result[side] = result_line(proc.stdout)
                except (ValueError, IndexError):  # a crash: no result line
                    pass
                if proc.returncode != 0:
                    failures.append(
                        failure(workload, side, i + 1, seed + i, proc, result.get(side)))
                    print(format_failure(failures[-1]), file=sys.stderr)
                elif side in result:
                    print(f"pair {i + 1}/{pairs} {workload} {side}: seed {seed + i}, "
                          f"{result[side]['attempted']} invocations", file=sys.stderr)
            if len(result) == 2:
                runs.append((workload, result["parent"], result["change"]))
    return runs, failures


def report(args: argparse.Namespace, rows: list[Row], failures: list[Failure],
           reruns: list[Rerun]) -> dict:
    """The session as JSON: the arguments, then per row both sides'
    (q1, median, q3), the relative change of the median (None for a zero
    parent median), the wins, whether the gain clears the parent's IQR and
    the flag, then the failed runs and the re-runs as the tool prints them."""
    return {
        "parent": args.parent, "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1], "trace": args.trace,
        "rows": [dict(asdict(r), relative_change=relative_change(r),
                      flag="WORSE" if r.worse else "") for r in rows],
        "failures": [asdict(f) for f in failures],
        "reruns": [asdict(r) for r in reruns],
    }


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git ref to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat for several; default every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, metavar="PATH",
                    help="also write the summary, failures and re-runs to PATH")
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        print("bench_pairs: --pairs and --seconds must be positive", file=sys.stderr)
        return 2

    # A signal raises SystemExit, so the finally clauses below and in
    # _bench run: the harness is killed and the export removed.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_tree = scratch / "parent"
        error = export_ref(args.parent, parent_tree)
        if error is not None:
            print(f"bench_pairs: cannot export {args.parent!r}: {error}", file=sys.stderr)
            return 2
        runs, failures = run_pairs(parent_tree, args.workload or names, args.pairs, args.seed,
                                   args.seconds, args.trace)
        # An invocation that failed on both sides of a pair is run again once.
        wanted = dict.fromkeys((f.workload, f.seed, k) for f in failures
                               for k in failed_invocations(f))
        reruns = [rerun(parent_tree, *key, scratch) for key in wanted]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"parent {args.parent}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, trace {args.trace}")
    rows = summarize(runs, spec)
    print(format_rows(rows))
    for f in failures:
        print(format_failure(f))
    for r in reruns:
        print(format_rerun(r))
    if args.json is not None:
        args.json.write_text(json.dumps(report(args, rows, failures, reruns), indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
