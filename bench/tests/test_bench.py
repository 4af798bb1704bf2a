"""Tests of the benchmark itself: output check, span arithmetic, inputs.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(SRC))
    from properflow import cli

    return cli


def _run(cli, inv, tmp_path: Path) -> Path:
    config = tmp_path / "run.cfg"
    config.write_text(inv.config_text)
    out = tmp_path / "out"
    assert cli.main(inv.argv(config, out)) == 0
    return out


def _perturb_v1(path: Path, record: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("sigma,")) + 1
    cells = lines[first + record].split(",")
    cells[5] = repr(float(cells[5]) + delta)
    lines[first + record] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_check_accepts_simulate_output_and_rejects_perturbed_v(cli, tmp_path):
    inv = workloads.invocation("simulate-desync", 3, 0)
    out = _run(cli, inv, tmp_path)
    clean = check.check_invocation(inv, out, 0)
    assert clean.problems == []
    assert clean.steps == workloads.SIMULATE_STEPS

    _perturb_v1(out / "trajectory.csv", 250, 1e-6)
    perturbed = check.check_invocation(inv, out, 0)
    assert len(perturbed.problems) == 1
    assert "record 250 particle 1" in perturbed.problems[0]


def test_check_counts_ensemble_members(cli, tmp_path):
    inv = workloads.invocation("ensemble-wide", 3, 0)
    out = _run(cli, inv, tmp_path)
    assert check.check_invocation(inv, out, 0).problems == []

    (out / "member_007.csv").unlink()
    problems = check.check_invocation(inv, out, 0).problems
    expected = f"{workloads.ENSEMBLE_COUNT - 1} member files"
    assert any(expected in p for p in problems)
    assert any("member_007.csv: unreadable" in p for p in problems)


def test_malformed_member_row_is_one_failed_invocation(cli, tmp_path):
    inv = workloads.invocation("ensemble-wide", 3, 0)
    out = _run(cli, inv, tmp_path)
    clean = check.check_invocation(inv, out, 0)

    path = out / "member_000.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    broken = check.check_invocation(inv, out, 0)
    assert broken.problems and "malformed output" in broken.problems[0]

    timing = {"wall_s": 0.5, "sys_s": 0.1, "cpu_s": [0.005], "io_s": [0.004]}
    records = [
        {"k": k, "problems": outcome.problems, **timing}
        for k, outcome in enumerate((clean, broken))
    ]
    summary = run_bench._common(records)
    assert (summary["attempted"], summary["failed"]) == (2, 1)


def test_check_rejects_large_frame_deviation(cli, tmp_path):
    inv = workloads.invocation("covariance-boost", 3, 0)
    out = _run(cli, inv, tmp_path)
    outcome = check.check_invocation(inv, out, 0)
    assert outcome.problems == []
    assert outcome.steps == 2 * workloads.COVARIANCE_STEPS + 2 * (50 + 100 + 200)

    path = out / "comparison.csv"
    text = path.read_text()
    head, _, rest = text.partition("# max_deviation = ")
    path.write_text(head + "# max_deviation = 1e-6\n" + rest.split("\n", 1)[1])
    assert check.check_invocation(inv, out, 0).problems


def test_self_times_on_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6];
    # c [20, 30] with overlapping children [21, 25] and [24, 27].
    starts = [0.0, 1.0, 2.0, 5.0, 20.0, 21.0, 24.0]
    ends = [10.0, 4.0, 3.0, 6.0, 30.0, 25.0, 27.0]
    parents = [-1, 0, 1, 0, -1, 4, 4]
    own = tracing.self_times(starts, ends, parents)
    assert own == pytest.approx([6.0, 2.0, 1.0, 1.0, 4.0, 4.0, 3.0])


def test_self_times_clip_children_to_parent():
    own = tracing.self_times([0.0, 0.5], [1.0, 1.5], [-1, 0])
    assert own == pytest.approx([0.5, 1.0])


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for workload in workloads.WORKLOADS:
        same = [workloads.invocation(workload, 7, k) for k in range(3)]
        again = [workloads.invocation(workload, 7, k) for k in range(3)]
        other = [workloads.invocation(workload, 8, k) for k in range(3)]
        assert same == again
        assert all(a.config_text != b.config_text for a, b in zip(same, other))
        assert len({inv.config_text for inv in same}) == 3


def test_desync_starts_are_clock_offset():
    for k in range(50):
        z1, t1, z2, t2 = workloads.invocation("simulate-desync", 1, k).q0
        assert 0.5 <= abs(t1 - t2) <= 1.5


def test_traced_run_counts_layers(tmp_path):
    work = tmp_path / "work"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "simulate-desync",
         "--seed", "1", "--seconds", "0.01", "--trace", "1", "--work", str(work)],
        env=run_bench._child_env(), check=True, timeout=120,
    )
    metrics = run_bench.layer_metrics(work, workloads.SIMULATE_STEPS, 1.0, 1.0)
    steps = workloads.SIMULATE_STEPS
    assert metrics["integrator.integrate.calls"][0] == 1
    assert metrics["stress_energy.eigenflows.calls"][0] == 2 * (steps + 1) + 2 * steps
    assert metrics["wavefield.fields.boosted_calls"][0] == 0
    assert metrics["covariance.compare_frames.calls"][0] == 0
    assert metrics["cli.main.calls"][0] == 1
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    main_total = metrics["cli.main.us_per_call"][0] * 1e-6
    assert self_total == pytest.approx(main_total, rel=1e-9)
