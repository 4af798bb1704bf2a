"""tools/bench_pairs.py: its summary and failure records on canned
run_bench.py results, and its cleanup when a signal stops it."""

import contextlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = {
    "end_to_end": [
        {"name": "steps_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "wavefield.fields.us_per_call", "better": "lower"}],
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclass looks its module up by name.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _line(**metrics):
    """The last stdout line of run_bench.py, after some metric lines."""
    units = {"steps_per_s": "steps/s", "peak_rss_mb": "MB", "unlisted": "s"}
    body = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": body}
    return "steps_per_s = 1.0 steps/s\n" + json.dumps(result) + "\n"


def test_summary_of_canned_pairs(tool):
    parent_sps = [100.0, 110.0, 90.0, 105.0, 95.0]
    change_sps = [120.0, 125.0, 118.0, 100.0, 130.0]
    parent_rss = [30.0, 30.0, 30.0, 30.0, 30.0]
    change_rss = [34.0, 33.5, 34.5, 34.0, 32.0]
    runs = [
        ("simulate-desync",
         tool.result_line(_line(steps_per_s=ps, peak_rss_mb=pr, unlisted=1.0)),
         tool.result_line(_line(steps_per_s=cs, peak_rss_mb=cr, unlisted=2.0)))
        for ps, cs, pr, cr in zip(parent_sps, change_sps, parent_rss, change_rss)
    ]
    sps, rss = tool.summarize(runs, SPEC)  # "unlisted" has no direction
    assert (sps.workload, sps.metric, sps.unit) == ("simulate-desync", "steps_per_s", "steps/s")
    assert sps.parent == (95.0, 100.0, 105.0)
    assert sps.change == (118.0, 120.0, 125.0)
    assert (sps.wins, sps.pairs) == (4, 5)
    assert sps.clears_iqr and not sps.worse  # gain 20 > IQR 10
    # Lower is better: every pair lost, the median 13 % worse, bound 10 %.
    assert rss.parent == (30.0, 30.0, 30.0) and rss.change[1] == 34.0
    assert (rss.wins, rss.clears_iqr, rss.worse) == (0, False, True)
    table = tool.format_rows([sps, rss]).splitlines()
    assert len(table) == 3
    assert "+20.0%" in table[1] and "4/5" in table[1] and "WORSE" not in table[1]
    assert table[2].endswith("WORSE")


def test_a_gain_inside_the_parent_spread_does_not_clear_it(tool):
    runs = [
        ("covariance-boost",
         {"metrics": {"steps_per_s": {"value": p, "unit": "steps/s"}}},
         {"metrics": {"steps_per_s": {"value": c, "unit": "steps/s"}}})
        for p, c in ((100.0, 104.0), (80.0, 84.0), (120.0, 124.0))
    ]
    (row,) = tool.summarize(runs, SPEC)
    assert (row.wins, row.clears_iqr, row.worse) == (3, False, False)
    assert tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _proc(returncode, stdout="", stderr=""):
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_failed_runs_are_recorded_and_the_pairs_go_on(tool, monkeypatch, capsys):
    """A failed run does not stop the pairs: a failed check keeps its
    metrics in the table, a crash leaves its pair out, and both are
    listed with their counts and first problems."""
    checked = json.loads(_line(steps_per_s=90.0).splitlines()[-1])
    checked.update(correct=False, attempted=900, failed=1)
    problems = "".join(f"[covariance-boost] check failed: invocation {k}: deviation\n"
                       for k in (85, 156, 300, 301))
    canned = {
        ("parent", 1): _proc(0, _line(steps_per_s=100.0)),
        ("change", 1): _proc(0, _line(steps_per_s=120.0)),
        ("change", 2): _proc(1, "metrics\n" + json.dumps(checked) + "\n", problems),
        ("parent", 2): _proc(0, _line(steps_per_s=101.0)),
        ("parent", 3): _proc(1, "", "Traceback\n  File x\nRuntimeError: worker exited with code 1\n"),
        ("change", 3): _proc(0, _line(steps_per_s=121.0)),
    }
    order = []

    def bench(tree, workload, seed, seconds, trace):
        side = "change" if tree == tool.ROOT else "parent"
        order.append((side, seed))
        return canned[side, seed]

    monkeypatch.setattr(tool, "_bench", bench)
    runs, failures = tool.run_pairs(Path("parent-tree"), ["covariance-boost"], 3, 1, 1.0, 0)
    assert order == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    assert [(p["metrics"]["steps_per_s"]["value"], c["metrics"]["steps_per_s"]["value"])
            for _, p, c in runs] == [(100.0, 120.0), (101.0, 90.0)]
    checked_fail, crash = failures
    assert (checked_fail.side, checked_fail.pair, checked_fail.seed) == ("change", 2, 2)
    assert (checked_fail.exit_code, checked_fail.failed, checked_fail.attempted) == (1, 1, 900)
    assert checked_fail.problems == tuple(
        f"[covariance-boost] check failed: invocation {k}: deviation" for k in (85, 156, 300))
    assert (crash.side, crash.seed, crash.failed, crash.attempted) == ("parent", 3, None, None)
    assert crash.problems == ("Traceback", "File x", "RuntimeError: worker exited with code 1")
    text = tool.format_failure(checked_fail).splitlines()
    assert text[0] == ("FAILED change run of covariance-boost (pair 2, seed 2): "
                       "exit 1, 1/900 invocations failed")
    assert text[1] == "    [covariance-boost] check failed: invocation 85: deviation"
    assert "exit 1, no result line" in tool.format_failure(crash)

    assert tool.failed_invocations(checked_fail) == [85, 156, 300]
    assert tool.failed_invocations(crash) == []

    reruns = []

    def rerun(parent_tree, workload, seed, k, scratch):
        reruns.append((workload, seed, k))
        return tool.Rerun(workload, seed, k, (1, 1), ())

    monkeypatch.setattr(tool, "rerun", rerun)
    monkeypatch.setattr(tool, "export_ref", lambda ref, dest: None)
    capsys.readouterr()
    handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        assert tool.main(["--pairs", "3", "--workload", "covariance-boost", "--seconds", "1"]) == 1
    finally:  # main installs its own
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    out = capsys.readouterr().out
    assert "1/2" in out.splitlines()[2]  # steps_per_s: 2 pairs summarised, 1 won
    assert out.count("FAILED ") == 2
    # The checked failure's invocations are run again; the crash names none.
    assert reruns == [("covariance-boost", 2, k) for k in (85, 156, 300)]
    assert out.count("RE-RUN ") == 3


def test_json_holds_the_table_the_failures_and_the_reruns(tool, monkeypatch, tmp_path, capsys):
    """--json PATH writes what the tool prints: per workload and metric
    both sides' quartiles, the change, wins, gain > IQR and the flag, then
    the failed runs and their re-runs."""
    problems = "[simulate-desync] check failed: invocation 4: moved\n"
    canned = {
        ("parent", 1): _proc(0, _line(steps_per_s=100.0, peak_rss_mb=30.0)),
        ("change", 1): _proc(0, _line(steps_per_s=120.0, peak_rss_mb=34.0)),
        ("change", 2): _proc(0, _line(steps_per_s=118.0, peak_rss_mb=34.0)),
        ("parent", 2): _proc(1, _line(steps_per_s=104.0, peak_rss_mb=30.0), problems),
    }
    monkeypatch.setattr(
        tool, "_bench",
        lambda tree, workload, seed, seconds, trace:
            canned["change" if tree == tool.ROOT else "parent", seed])
    monkeypatch.setattr(
        tool, "rerun",
        lambda parent_tree, workload, seed, k, scratch:
            tool.Rerun(workload, seed, k, (1, 0), ("differs: exit_code",)))
    monkeypatch.setattr(tool, "export_ref", lambda ref, dest: None)
    path = tmp_path / "session.json"
    handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        code = tool.main(["--parent", "abc", "--pairs", "2", "--seed", "1", "--seconds", "1",
                          "--workload", "simulate-desync", "--json", str(path)])
    finally:  # main installs its own
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    assert code == 1
    printed = capsys.readouterr().out
    session = json.loads(path.read_text())
    assert {k: session[k] for k in ("parent", "pairs", "seconds", "seeds", "trace")} == {
        "parent": "abc", "pairs": 2, "seconds": 1.0, "seeds": [1, 2], "trace": 0}
    sps, rss = session["rows"]
    assert sps == {
        "workload": "simulate-desync", "metric": "steps_per_s", "unit": "steps/s",
        "parent": [101.0, 102.0, 103.0], "change": [118.5, 119.0, 119.5],
        "relative_change": pytest.approx(17.0 / 102.0), "wins": 2, "pairs": 2,
        "clears_iqr": True, "worse": False, "flag": ""}
    assert (rss["metric"], rss["wins"], rss["worse"], rss["flag"]) == (
        "peak_rss_mb", 0, True, "WORSE")
    assert session["failures"] == [{
        "workload": "simulate-desync", "side": "parent", "pair": 2, "seed": 2,
        "exit_code": 1, "failed": 0, "attempted": 10,
        "problems": ["[simulate-desync] check failed: invocation 4: moved"]}]
    assert session["reruns"] == [{
        "workload": "simulate-desync", "seed": 2, "k": 4, "exit_codes": [1, 0],
        "differences": ["differs: exit_code"]}]
    assert "+16.7%" in printed and "WORSE" in printed and printed.count("RE-RUN ") == 1


# Stub sources for a tree's bench/workloads.py and properflow.cli: one
# invocation per k that writes a file of its own and exits with code EXIT.
STUB_WORKLOADS = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Invocation:
    config_text: str

    def argv(self, config_path, out_dir):
        return ["simulate", "--config", str(config_path), "--out", str(out_dir)]

def invocation(workload, seed, k):
    return Invocation(f"[run]\\nk = {workload}/{seed}/{k}\\n")
"""
STUB_CLI = """
import sys
from pathlib import Path

def main(argv):
    config, out = Path(argv[2]), Path(argv[4])
    out.mkdir()
    (out / "trajectory.csv").write_text(config.read_text() + "ROW\\n")
    print("simulate: terminated early: node_abort", file=sys.stderr)
    return EXIT
"""


def _stub_tree(root, row="1,2", exit_code=3):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "workloads.py").write_text(STUB_WORKLOADS)
    (root / "src" / "properflow").mkdir(parents=True)
    (root / "src" / "properflow" / "__init__.py").write_text("")
    (root / "src" / "properflow" / "cli.py").write_text(
        STUB_CLI.replace("ROW", row).replace("EXIT", str(exit_code)))
    return root


def test_rerun_compares_both_trees_outputs(tool, tmp_path, monkeypatch):
    """A failed invocation is run again in each tree, on that tree's own
    workloads and sources, and the two results are compared byte for byte."""
    change = _stub_tree(tmp_path / "change")
    monkeypatch.setattr(tool, "ROOT", change)
    same = tool.rerun(_stub_tree(tmp_path / "same"), "covariance-boost", 17006, 281,
                      tmp_path / "a")
    assert same == tool.Rerun("covariance-boost", 17006, 281, (3, 3), ())
    case = tmp_path / "a" / "rerun-covariance-boost-17006-281" / "change"
    assert (case / "out" / "trajectory.csv").read_text() == (
        "[run]\nk = covariance-boost/17006/281\n1,2\n")
    assert tool.format_rerun(same) == (
        "RE-RUN covariance-boost seed 17006 invocation 281: exit 3 parent, 3 change; "
        "identical outputs, exit codes and streams")

    moved = tool.rerun(_stub_tree(tmp_path / "moved", row="1,2.0000000000000004", exit_code=0),
                       "covariance-boost", 17006, 281, tmp_path / "b")
    assert moved.exit_codes == (0, 3)
    assert moved.differences == ("differs: exit_code", "differs: out/trajectory.csv")
    assert tool.format_rerun(moved).splitlines()[1:] == [
        "    differs: exit_code", "    differs: out/trajectory.csv"]


# A harness that starts a grandchild, writes both pids and sleeps.
STUB_RUN_BENCH = """
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open(os.path.join(os.environ["STUB_PIDS"], str(os.getpid())), "w") as f:
    f.write(f"{os.getpid()} {child.pid}")
time.sleep(60)
"""


def _alive(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
def test_a_signal_kills_the_runs_and_removes_the_export(tmp_path, signum):
    tree, pids, tmp = tmp_path / "tree", tmp_path / "pids", tmp_path / "tmp"
    for d in (tree / "bench", tree / "tools", pids, tmp):
        d.mkdir(parents=True)
    (tree / "bench" / "run_bench.py").write_text(STUB_RUN_BENCH)
    for name in ("bench_pairs.py", "output_identity.py"):
        shutil.copy(TOOL.parent / name, tree / "tools" / name)
    (tree / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [], "per_layer": []}))
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "stub"], check=True)
    env = dict(os.environ, STUB_PIDS=str(pids), TMPDIR=str(tmp))
    tool = subprocess.Popen([sys.executable, "tools/bench_pairs.py", "--pairs", "1"],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    started = []
    try:
        deadline = time.monotonic() + 30.0
        while not started and time.monotonic() < deadline:
            time.sleep(0.05)
            started = [int(pid) for f in pids.iterdir() if f.read_text()
                       for pid in f.read_text().split()]
        assert len(started) == 2, "the stub harness did not start"
        assert len(list(tmp.glob("bench-pairs-*"))) == 1
        tool.send_signal(signum)
        _, stderr = tool.communicate(timeout=30)
        assert tool.returncode == 128 + signum, stderr
        survivors = [pid for pid in started if _alive(pid)]
        assert survivors == []
        assert list(tmp.iterdir()) == []
    finally:
        tool.kill()
        tool.communicate()
        for pid in started:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
