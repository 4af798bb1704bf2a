"""Byte identity of every output, and how far differing CSVs moved: a
parent ref against this checkout.

Usage (from the repository root):

    python3 tools/output_identity.py --parent HEAD~1

Exports PARENT into a temporary directory with ``git archive`` and runs
the same cases on both sides, each side importing properflow from its own
``src/``:

- ``configs/fig1.cfg`` and ``configs/fig2.cfg`` (this checkout's copies,
  on both sides) through ``simulate``, ``ensemble`` and ``covariance``,
  each with ``--scheme euler`` and ``--scheme midpoint``;
- a fig2 ``ensemble`` with ``--seed 7``;
- five variants of fig2 for paths the two configs miss: ``weighting =
  uniform`` through ``ensemble``, ``[model] boost_alpha = 0.5`` through
  ``simulate`` and through the eigenvalue-weighted ``ensemble``, the
  modes ``n_a = 2``, ``n_b = 5`` with ``m = 0.0`` through ``ensemble``,
  and ``[boost] alpha = 1.2`` with ``steps = 200`` and
  ``total_proper_time = 1.0`` through ``covariance``;
- three failing variants of fig2 through ``simulate``: ``z1 = 0.0000001``
  (node floor, exit 3), ``z1 = -0.5`` (outside the well, exit 5) and
  ``scheme = rk4`` (config error, exit 2);
- five near-null starts of the ``covariance-boost`` benchmark workload
  through ``covariance``: seed/invocation 531/85, 5108/156, 17006/281,
  18001/109 and 2523/254, whose deviations exceeded ``bench/check.py``'s
  1e-9 under the eigen solve, each config built by this checkout's
  ``bench/workloads.py``;
- every script in this checkout's ``demos/``, run from that side's
  ``demos/``.

Each case gets a directory holding the command's ``out/`` and its
``exit_code``, ``stdout`` and ``stderr``, so one comparison of the two
sides' trees covers file bytes, exit codes and both streams.  File modes
are not compared.

Prints every difference and exits 1 if there is one, 0 if the two sides
are identical, 2 for a ref git cannot export.  The temporary directory is
removed in every case.

Under each differing CSV a numeric report follows, so a change that moves
outputs at the rounding level can show how far:

- its row counts, and its ``# termination`` on both sides where it has one;
- every non-numeric difference, compared exactly: the header, a row's
  cell count, a ``# key = value`` comment present on one side only or
  whose values do not both parse as finite floats, a cell that does not
  (such as a termination tag);
- per numeric column, and per ``# key`` comment with float values, the
  largest |change| and the largest |change| in ulps of the larger of the
  two values.

A closing summary takes the maxima per file name (digits read as N, so
``member_N.csv``) and column over all cases, and counts the CSVs with a
non-numeric difference.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("fig1", "fig2")
COMMANDS = ("simulate", "ensemble", "covariance")
SCHEMES = ("euler", "midpoint")
# name -> (command, (old, new) edits of configs/fig2.cfg's text).
VARIANTS = {
    "fig2-uniform": ("ensemble", (("weighting = eigenvalue", "weighting = uniform"),)),
    "fig2-model-boost": ("simulate", (("n_b = 2\n", "n_b = 2\nboost_alpha = 0.5\n"),)),
    "fig2-boost-ensemble": ("ensemble", (("n_b = 2\n", "n_b = 2\nboost_alpha = 0.5\n"),)),
    "fig2-modes-ensemble": ("ensemble", (
        ("n_a = 1", "n_a = 2"), ("n_b = 2", "n_b = 5"), ("m = 1.0", "m = 0.0"),
    )),
    "fig2-boost-alpha": ("covariance", (
        ("velocity = 0.3", "alpha = 1.2"), ("steps = 500", "steps = 200"),
        ("total_proper_time = 2.0", "total_proper_time = 1.0"),
    )),
    # Failure paths: their exit codes and stderr messages.
    "fig2-node-floor": ("simulate", (("z1 = 1.0", "z1 = 0.0000001"),)),
    "fig2-outside": ("simulate", (("z1 = 1.0", "z1 = -0.5"),)),
    "fig2-bad-scheme": ("simulate", (("scheme = midpoint", "scheme = rk4"),)),
}

# (seed, invocation) of the covariance-boost starts whose frame deviations
# exceeded bench/check.py's 1e-9 under the eigen solve: pinned so that a
# change to them shows as a difference, not only as a failed benchmark run.
NEAR_NULL = ((531, 85), (5108, 156), (17006, 281), (18001, 109), (2523, 254))


def near_null_invocations() -> dict:
    """case name -> ``Invocation`` of each NEAR_NULL start, from this
    checkout's ``bench/workloads.py``."""
    invocation = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["invocation"]
    return {f"covariance-boost-{seed}-{k}": invocation("covariance-boost", seed, k)
            for seed, k in NEAR_NULL}


def variant_text(name: str) -> str:
    """configs/fig2.cfg with the edits of variant ``name``; ValueError
    unless each edit's old text occurs in the file exactly once."""
    text = (ROOT / "configs" / "fig2.cfg").read_text()
    for old, new in VARIANTS[name][1]:
        if text.count(old) != 1:
            raise ValueError(f"variant {name}: {old!r} is not once in fig2.cfg")
        text = text.replace(old, new)
    return text


def cases() -> list[tuple[str, list[str]]]:
    """(case name, arguments after the interpreter) for every case; a
    demo's script path is relative to the side's tree."""
    runs = [
        (f"{cfg}-{command}-{scheme}",
         ["-m", "properflow.cli", command, "--config", f"../{cfg}.cfg", "--out", "out",
          "--scheme", scheme])
        for cfg in CONFIGS for command in COMMANDS for scheme in SCHEMES
    ]
    runs.append(("fig2-ensemble-seed7",
                 ["-m", "properflow.cli", "ensemble", "--config", "../fig2.cfg", "--out", "out",
                  "--seed", "7"]))
    runs += [(f"{name}-{command}",
              ["-m", "properflow.cli", command, "--config", f"../{name}.cfg", "--out", "out"])
             for name, (command, _) in VARIANTS.items()]
    runs += [(name, ["-m", "properflow.cli", *inv.argv(Path(f"../{name}.cfg"), Path("out"))])
             for name, inv in near_null_invocations().items()]
    runs += [(f"demo-{demo.stem}", [f"demos/{demo.name}"])
             for demo in sorted((ROOT / "demos").glob("*.py"))]
    return runs


def run_side(tree: Path, results: Path) -> None:
    """Run every case against ``tree``'s sources, recording into results."""
    results.mkdir(parents=True)
    for cfg in CONFIGS:
        shutil.copyfile(ROOT / "configs" / f"{cfg}.cfg", results / f"{cfg}.cfg")
    for name in VARIANTS:
        (results / f"{name}.cfg").write_text(variant_text(name))
    for name, inv in near_null_invocations().items():
        (results / f"{name}.cfg").write_text(inv.config_text)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, args in cases():
        case = results / name
        case.mkdir()
        if args[0] != "-m":
            args = [str(tree / args[0]), *args[1:]]
        proc = subprocess.run([sys.executable, *args], cwd=case, env=env,
                              capture_output=True, timeout=600)
        (case / "exit_code").write_text(f"{proc.returncode}\n")
        (case / "stdout").write_bytes(proc.stdout)
        (case / "stderr").write_bytes(proc.stderr)
        print(f"{tree.name}: {name} exited {proc.returncode}", file=sys.stderr)


def _files(root: Path) -> dict[str, Path]:
    return {path.relative_to(root).as_posix(): path
            for path in root.rglob("*") if path.is_file()}


def compare_trees(parent: Path, change: Path) -> list[str]:
    """One line per file that is only on one side or whose bytes differ,
    in path order; empty when the two trees hold the same files."""
    before, after = _files(parent), _files(change)
    lines = []
    for name in sorted(before.keys() | after.keys()):
        if name not in after:
            lines.append(f"only in parent: {name}")
        elif name not in before:
            lines.append(f"only in change: {name}")
        elif before[name].read_bytes() != after[name].read_bytes():
            lines.append(f"differs: {name}")
    return lines


@dataclass
class CsvDiff:
    """How one CSV differs between the two sides.

    rows holds the data row counts (parent, change) and terminations the
    ``# termination`` values, or None; mismatches the non-numeric
    differences as text; columns maps a column or ``# key`` to (largest
    |change|, largest |change| in ulps) over its differing numeric cells.
    """

    rows: tuple[int, int]
    terminations: tuple[str | None, str | None]
    mismatches: list[str] = field(default_factory=list)
    columns: dict[str, tuple[float, float]] = field(default_factory=dict)

    def fold(self, column: str, where: str, a: str | None, b: str | None) -> None:
        """Take the differing cells a (parent) and b (change) of ``column``
        into its maxima, or into mismatches unless both are finite floats;
        ``where`` names the cell in a mismatch."""
        if a == b:
            return
        try:
            x, y = float(a), float(b)
        except (TypeError, ValueError):
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            self.mismatches.append(f"{where}: {a!r} != {b!r}")
            return
        size = abs(x - y)
        ulps = size / math.ulp(max(abs(x), abs(y)))
        old_size, old_ulps = self.columns.get(column, (0.0, 0.0))
        self.columns[column] = (max(old_size, size), max(old_ulps, ulps))


def _split_csv(text: str) -> tuple[dict[str, str | None], list[list[str]]]:
    """({'# key': value or None}, [header, *rows] as lists of cells)."""
    comments, table = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition(" = ")
            comments["# " + key] = value if sep else None
        else:
            table.append(line.split(","))
    return comments, table


def csv_diff(before: str, after: str) -> CsvDiff:
    """The numeric and non-numeric differences of two CLI CSV texts."""
    (notes_b, table_b), (notes_a, table_a) = _split_csv(before), _split_csv(after)
    diff = CsvDiff(rows=(max(len(table_b) - 1, 0), max(len(table_a) - 1, 0)),
                   terminations=(notes_b.get("# termination"), notes_a.get("# termination")))
    if diff.rows[0] != diff.rows[1]:
        diff.mismatches.append(f"rows: {diff.rows[0]} != {diff.rows[1]}")
    for key in sorted(notes_b.keys() | notes_a.keys()):
        if key not in notes_a or key not in notes_b:
            side = "parent" if key in notes_b else "change"
            diff.mismatches.append(f"{key}: only in {side}")
        else:
            diff.fold(key, key, notes_b[key], notes_a[key])
    header = table_b[0] if table_b else []
    if table_b[:1] != table_a[:1]:
        diff.mismatches.append(f"header: {table_b[:1]!r} != {table_a[:1]!r}")
    for j, (row_b, row_a) in enumerate(zip(table_b[1:], table_a[1:]), start=1):
        if len(row_b) != len(row_a):
            diff.mismatches.append(f"row {j}: {len(row_b)} cells != {len(row_a)}")
            continue
        for k, (a, b) in enumerate(zip(row_b, row_a)):
            column = header[k] if k < len(header) else f"column {k}"
            diff.fold(column, f"row {j} {column}", a, b)
    return diff


def _size(size: float, ulps: float) -> str:
    return f"max |d| {size:.3g} ({ulps:.3g} ulp)"


def csv_report(diff: CsvDiff) -> list[str]:
    """The indented lines printed under a differing CSV."""
    rows = f"    rows {diff.rows[0]} | {diff.rows[1]}"
    if diff.terminations != (None, None):
        rows += f", termination {diff.terminations[0]} | {diff.terminations[1]}"
    return ([rows] + [f"    non-numeric {m}" for m in diff.mismatches]
            + [f"    {column}: {_size(*size)}" for column, size in diff.columns.items()])


def numeric_summary(diffs: dict[str, CsvDiff]) -> list[str]:
    """Maxima per file name (digits as N) and column over all differing
    CSVs, and the count of those with a non-numeric difference."""
    kinds: dict[tuple[str, str], tuple[float, float, int]] = {}
    for name, diff in diffs.items():
        kind = re.sub(r"\d+", "N", name.rsplit("/", 1)[-1])
        for column, (size, ulps) in diff.columns.items():
            top_size, top_ulps, files = kinds.get((kind, column), (0.0, 0.0, 0))
            kinds[kind, column] = (max(top_size, size), max(top_ulps, ulps), files + 1)
    uneven = sum(1 for diff in diffs.values() if diff.mismatches)
    lines = [f"numeric report: {len(diffs)} differing CSVs, {uneven} with non-numeric "
             "differences"]
    lines += [f"  {kind} {column}: {_size(size, ulps)} in {files} files"
              for (kind, column), (size, ulps, files) in sorted(kinds.items())]
    return lines


def numeric_report(parent: Path, change: Path, differences: list[str]) -> tuple[
    list[str], dict[str, CsvDiff]
]:
    """(lines, diffs): ``differences`` with each differing CSV's report
    under its line, and the ``CsvDiff`` of each such CSV by path."""
    lines, diffs = [], {}
    for line in differences:
        lines.append(line)
        kind, _, name = line.partition(": ")
        if kind == "differs" and name.endswith(".csv"):
            diffs[name] = csv_diff((parent / name).read_text(), (change / name).read_text())
            lines += csv_report(diffs[name])
    return lines, diffs


def export_ref(ref: str, dest: Path, repo: Path = ROOT) -> str | None:
    """Write the files of ``repo`` at git ref ``ref`` into the new directory
    ``dest``; returns None, or git's message when it cannot export ``ref``.

    ``git archive`` adds nothing to the repository's ``.git``, so a run
    killed halfway leaves nothing there to prune.
    """
    archive = subprocess.run(["git", "-C", str(repo), "archive", ref], capture_output=True)
    if archive.returncode != 0:
        return archive.stderr.decode().strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git ref to compare against (default HEAD)")
    args = ap.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="output-identity-"))
    try:
        parent_tree = scratch / "parent"
        error = export_ref(args.parent, parent_tree)
        if error is not None:
            print(f"output_identity: cannot export {args.parent!r}: {error}", file=sys.stderr)
            return 2
        parent_results, change_results = scratch / "parent-results", scratch / "change-results"
        run_side(parent_tree, parent_results)
        run_side(ROOT, change_results)
        differences = compare_trees(parent_results, change_results)
        lines, diffs = numeric_report(parent_results, change_results, differences)
        count = len(_files(change_results))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in lines:
        print(line)
    if diffs:
        print("\n".join(numeric_summary(diffs)))
    print(f"parent {args.parent}: {len(differences)} differences over {len(cases())} cases "
          f"({count} files in this checkout's results)")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
