"""Summary of tools/bench_pairs.py on canned run_bench.py result lines."""

import importlib.util
import json
import sys
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
