"""Byte identity of every output: a parent ref against this checkout.

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
- every script in this checkout's ``demos/``, run from that side's
  ``demos/``.

Each case gets a directory holding the command's ``out/`` and its
``exit_code``, ``stdout`` and ``stderr``, so one comparison of the two
sides' trees covers file bytes, exit codes and both streams.  File modes
are not compared.

Prints every difference and exits 1 if there is one, 0 if the two sides
are identical, 2 for a ref git cannot export.  The temporary directory is
removed in every case.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
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
        run_side(parent_tree, scratch / "parent-results")
        run_side(ROOT, scratch / "change-results")
        differences = compare_trees(scratch / "parent-results", scratch / "change-results")
        count = len(_files(scratch / "change-results"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in differences:
        print(line)
    print(f"parent {args.parent}: {len(differences)} differences over {len(cases())} cases "
          f"({count} files in this checkout's results)")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
