"""Alternating benchmark pairs: a parent ref against this checkout.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 25 \\
        --workload simulate-desync --seed 2101

Checks PARENT out into a temporary ``git worktree`` and runs
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
checkout.

The exit code is 1 as soon as a run exits non-zero (its output is shown
and the remaining runs are skipped), 2 for bad arguments or a ref git
cannot check out, and 0 otherwise, flags or not.  The worktree is
removed in every case.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def format_rows(rows: list[Row]) -> str:
    """The summary as an aligned text table."""

    def spread(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    table = [("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "change", "wins", "gain>IQR", "flag")]
    for r in rows:
        rel = f"{(r.change[1] - r.parent[1]) / abs(r.parent[1]):+.1%}" if r.parent[1] else "n/a"
        table.append((r.workload, r.metric, r.unit, spread(r.parent), spread(r.change), rel,
                      f"{r.wins}/{r.pairs}", "yes" if r.clears_iqr else "no",
                      "WORSE" if r.worse else ""))
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table
    )


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=tree, capture_output=True, text=True)


def run_pairs(parent_tree: Path, workloads: list[str], pairs: int, seed: int,
              seconds: float, trace: int) -> list[tuple[str, dict, dict]] | None:
    """(workload, parent, change) result lines, or None after a failed run."""
    runs = []
    for i in range(pairs):
        sides = [("parent", parent_tree), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        for workload in workloads:
            result = {}
            for side, tree in sides:
                proc = _bench(tree, workload, seed + i, seconds, trace)
                if proc.returncode != 0:
                    print(f"bench_pairs: {side} run of {workload} (pair {i + 1}, seed {seed + i}) "
                          f"exited {proc.returncode}", file=sys.stderr)
                    print(proc.stdout[-4000:] + proc.stderr[-4000:], file=sys.stderr)
                    return None
                result[side] = result_line(proc.stdout)
                print(f"pair {i + 1}/{pairs} {workload} {side}: seed {seed + i}, "
                      f"{result[side]['attempted']} invocations", file=sys.stderr)
            runs.append((workload, result["parent"], result["change"]))
    return runs


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
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        print("bench_pairs: --pairs and --seconds must be positive", file=sys.stderr)
        return 2

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent_tree = scratch / "parent"
    added = _git("worktree", "add", "--detach", str(parent_tree), args.parent)
    try:
        if added.returncode != 0:
            print(f"bench_pairs: cannot check out {args.parent!r}: {added.stderr.strip()}",
                  file=sys.stderr)
            return 2
        runs = run_pairs(parent_tree, args.workload or names, args.pairs, args.seed,
                         args.seconds, args.trace)
        if runs is None:
            return 1
    finally:
        if added.returncode == 0:
            _git("worktree", "remove", "--force", str(parent_tree))
        shutil.rmtree(scratch, ignore_errors=True)
        _git("worktree", "prune")
    print(f"parent {args.parent}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, trace {args.trace}")
    print(format_rows(summarize(runs, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
