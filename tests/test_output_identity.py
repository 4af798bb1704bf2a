"""The comparison of tools/output_identity.py on two result trees."""

import importlib.util
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
    assert len(names) == len(set(names)) == 2 * 3 * 2 + 1 + 8 + len(
        list((TOOL.parents[1] / "demos").glob("*.py"))
    )
    assert "fig1-covariance-euler" in names and "fig2-ensemble-seed7" in names
    assert {"fig2-uniform-ensemble", "fig2-model-boost-simulate",
            "fig2-boost-alpha-covariance", "fig2-node-floor-simulate",
            "fig2-outside-simulate", "fig2-bad-scheme-simulate",
            "fig2-boost-ensemble-ensemble", "fig2-modes-ensemble-ensemble"} <= set(names)
    for name in tool.VARIANTS:  # every edit applies to fig2.cfg
        assert tool.variant_text(name) != (TOOL.parents[1] / "configs" / "fig2.cfg").read_text()


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
