"""The comparison of tools/output_identity.py on two result trees."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_identity.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_identical_trees_have_no_differences(tool, tmp_path):
    files = {"fig2-simulate/out/trajectory.csv": b"1,2\n", "fig2-simulate/exit_code": b"0\n"}
    parent = _tree(tmp_path / "parent", files)
    change = _tree(tmp_path / "change", files)
    (change / "fig2-simulate" / "exit_code").chmod(0o600)  # modes are not compared
    assert tool.compare_trees(parent, change) == []


def test_every_kind_of_difference_is_listed_in_path_order(tool, tmp_path):
    parent = _tree(tmp_path / "parent", {
        "a/stdout": b"same\n", "b/out/x.csv": b"0.1\n", "c/exit_code": b"0\n", "d/gone": b"",
    })
    change = _tree(tmp_path / "change", {
        "a/stdout": b"same\n", "b/out/x.csv": b"0.10000000000000001\n", "c/exit_code": b"3\n",
        "e/new": b"",
    })
    assert tool.compare_trees(parent, change) == [
        "differs: b/out/x.csv",
        "differs: c/exit_code",
        "only in parent: d/gone",
        "only in change: e/new",
    ]


def test_cases_cover_both_configs_commands_schemes_and_demos(tool):
    names = [name for name, _ in tool.cases()]
    assert len(names) == len(set(names)) == 2 * 3 * 2 + 1 + 8 + 5 + len(
        list((TOOL.parents[1] / "demos").glob("*.py"))
    )
    assert "fig1-covariance-euler" in names and "fig2-ensemble-seed7" in names
    assert {"fig2-uniform-ensemble", "fig2-model-boost-simulate",
            "fig2-boost-alpha-covariance", "fig2-node-floor-simulate",
            "fig2-outside-simulate", "fig2-bad-scheme-simulate",
            "fig2-boost-ensemble-ensemble", "fig2-modes-ensemble-ensemble",
            "covariance-boost-531-85", "covariance-boost-5108-156",
            "covariance-boost-17006-281", "covariance-boost-18001-109",
            "covariance-boost-2523-254"} <= set(names)
    for name in tool.VARIANTS:  # every edit applies to fig2.cfg
        assert tool.variant_text(name) != (TOOL.parents[1] / "configs" / "fig2.cfg").read_text()


TRAJECTORY = """# model.m = 1.0
# max_deviation = 7.2600000000000001e-15
# termination = completed
sigma,z1,v1
0,1,-0.38781923974405796
0.01,0.99585577619511756,-0.37786234710564037
"""


def test_one_digit_difference_is_reported_by_column_and_size(tool, tmp_path):
    """v1's last digit moves by 3 in row 2, one ulp (5.6e-17): one column,
    that size in both units; rows and termination on both sides; no
    non-numeric difference."""
    moved = TRAJECTORY.replace("-0.37786234710564037", "-0.37786234710564034")
    diff = tool.csv_diff(TRAJECTORY, moved)
    assert diff.mismatches == []
    assert list(diff.columns) == ["v1"]
    size, ulps = diff.columns["v1"]
    assert size == abs(-0.37786234710564037 - -0.37786234710564034)
    assert size == math.ulp(0.37786234710564037) and ulps == 1.0
    assert tool.csv_report(diff) == [
        "    rows 2 | 2, termination completed | completed",
        f"    v1: max |d| {size:.3g} (1 ulp)",
    ]

    parent = _tree(tmp_path / "parent", {"a/out/trajectory.csv": TRAJECTORY.encode()})
    change = _tree(tmp_path / "change", {"a/out/trajectory.csv": moved.encode()})
    differences = tool.compare_trees(parent, change)
    lines, diffs = tool.numeric_report(parent, change, differences)
    assert lines == ["differs: a/out/trajectory.csv", *tool.csv_report(diff)]
    assert tool.numeric_summary(diffs) == [
        "numeric report: 1 differing CSVs, 0 with non-numeric differences",
        f"  trajectory.csv v1: max |d| {size:.3g} (1 ulp) in 1 files",
    ]


def test_comments_compare_by_key_and_non_numeric_lines_exactly(tool):
    """A float comment value is measured like a column; the header, a
    missing key, a changed termination and a dropped row are not."""
    moved = (TRAJECTORY.replace("7.2600000000000001e-15", "8.1300000000000004e-15")
             .replace("completed", "node_abort").replace("# model.m = 1.0\n", "")
             .replace("sigma,z1,v1", "sigma,z1,v2").rsplit("0.01,", 1)[0])
    diff = tool.csv_diff(TRAJECTORY, moved)
    assert diff.rows == (2, 1) and diff.terminations == ("completed", "node_abort")
    assert diff.mismatches == [
        "rows: 2 != 1",
        "# model.m: only in parent",
        "# termination: 'completed' != 'node_abort'",
        "header: [['sigma', 'z1', 'v1']] != [['sigma', 'z1', 'v2']]",
    ]
    assert list(diff.columns) == ["# max_deviation"]
    assert diff.columns["# max_deviation"][0] == abs(8.13e-15 - 7.26e-15)
    assert tool.numeric_report(Path("."), Path("."), []) == ([], {})


def test_export_ref_writes_the_files_of_a_good_ref_only(tool, tmp_path):
    repo = tmp_path / "repo"
    _tree(repo, {"src/a.py": b"x = 1\n"})
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, check=True, capture_output=True)
    (repo / "src" / "a.py").write_bytes(b"x = 2\n")  # uncommitted: not exported

    assert tool.export_ref("HEAD", tmp_path / "good", repo) is None
    assert (tmp_path / "good" / "src" / "a.py").read_bytes() == b"x = 1\n"
    assert not (tmp_path / "good" / ".git").exists()

    error = tool.export_ref("no-such-ref", tmp_path / "bad", repo)
    assert error and "no-such-ref" in error
    assert not (tmp_path / "bad").exists()
    assert subprocess.run(git + ["worktree", "list", "--porcelain"], capture_output=True,
                          text=True).stdout.count("worktree ") == 1
