"""Config parsing, subcommands, CSV/SVG artifacts, exit codes."""

import math
import os
import stat
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

import properflow as pf
from properflow import cli, integrator
from properflow.integrator import TERMINATIONS

L_LINE = "L = 3.141592653589793"
SVG_NS = {"svg": "http://www.w3.org/2000/svg"}

FIG1 = f"""
[model]
{L_LINE}
m = 1.0
n_a = 1
n_b = 2

[run]
z1 = 1.0
t1 = 0.0
z2 = 2.0
t2 = 0.0
epsilon = 0.01
steps = 60
scheme = midpoint
"""

FIG2 = FIG1.replace("t1 = 0.0", "t1 = 1.0")

BOOST_BLOCK = """
[boost]
velocity = 0.3
epsilons = 0.02 0.01 0.005
total_proper_time = 2.0
"""

ENSEMBLE_BLOCK = """
[ensemble]
count = 6
weighting = eigenvalue
seed = 11
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(csv_path):
    """Data rows of an emitted CSV as lists of column strings."""
    lines = [l for l in csv_path.read_text().splitlines()
             if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_simulate_static_run(tmp_path):
    cfg = _write(tmp_path, FIG1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out / "trajectory.csv")
    assert header == ["sigma", "z1", "t1", "z2", "t2", "v1", "v2", "lambda1", "lambda2"]
    assert len(rows) == 61
    for row in rows:
        assert abs(float(row[5])) < 1e-10 and abs(float(row[6])) < 1e-10
        assert abs(float(row[2]) - float(row[4])) < 1e-10
    text = (out / "trajectory.csv").read_text()
    assert "# termination = completed" in text
    assert "# run.scheme = midpoint" in text


def test_static_run_writes_no_negative_zero(tmp_path):
    """Exactly vanishing velocities print as 0, never -0."""
    cfg = _write(tmp_path, FIG1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _rows(out / "trajectory.csv")
    assert not [f for row in rows for f in row if f.startswith("-") and float(f) == 0.0]


def test_csv_round_trip_is_exact(tmp_path):
    """17 significant digits reproduce the in-memory records bitwise."""
    cfg = _write(tmp_path, FIG2)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    model = pf.entangled_pair(pf.box_mode(1, math.pi, 1.0), pf.box_mode(2, math.pi, 1.0))
    traj = pf.integrate(model, pf.ConfigPoint(1.0, 1.0, 2.0, 0.0), 0.01, 60, "midpoint")
    _, rows = _rows(out / "trajectory.csv")
    assert len(rows) == len(traj.records)
    for row, rec in zip(rows, traj.records):
        assert float(row[0]) == rec.sigma
        assert float(row[1]) == rec.q.z1 and float(row[2]) == rec.q.t1
        assert float(row[3]) == rec.q.z2 and float(row[4]) == rec.q.t2
        assert float(row[5]) == rec.v1 and float(row[6]) == rec.v2
        assert float(row[7]) == rec.lambda1 and float(row[8]) == rec.lambda2


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, FIG2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "trajectory.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scheme_override_changes_output(tmp_path):
    cfg = _write(tmp_path, FIG2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2),
                     "--scheme", "euler"]) == 0
    assert (out1 / "trajectory.csv").read_text() != (out2 / "trajectory.csv").read_text()
    text = (out2 / "trajectory.csv").read_text()
    # the file's own value stays in the echo; the override is logged beside it
    assert "# run.scheme = midpoint" in text
    assert "# override.scheme = euler" in text


def test_svg_layout(tmp_path):
    cfg = _write(tmp_path, FIG2)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    root = ET.parse(out / "trajectory.svg").getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    polylines = root.findall(".//svg:polyline", SVG_NS)
    assert len(polylines) == 2
    # 61 records at stride 10 -> 7 sigma labels per panel
    labels = [t for t in root.findall(".//svg:text", SVG_NS)
              if t.text and t.text.strip().isdigit()]
    assert len(labels) == 14


def test_svg_single_record_has_no_polyline():
    traj = pf.Trajectory(epsilon=0.01, scheme="midpoint",
                         rows=[(1.0, 0.5, 2.0, 0.1, 0.0, 0.0, 1.0, 1.0)],
                         termination="completed")
    root = ET.fromstring(cli.emit_svg(traj))
    assert root.findall(".//svg:polyline", SVG_NS) == []
    assert len(root.findall(".//svg:circle", SVG_NS)) == 2


def test_ensemble_outputs(tmp_path):
    cfg = _write(tmp_path, FIG2 + ENSEMBLE_BLOCK)
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    members = sorted(out.glob("member_*.csv"))
    assert len(members) == 6
    header, rows = _rows(out / "summary.csv")
    assert header == ["member", "z1_0", "t1_0", "z2_0", "t2_0", "termination",
                      "sigma_final", "z1_f", "t1_f", "z2_f", "t2_f"]
    assert len(rows) == 6
    assert all(r[5] == "completed" for r in rows)
    assert "# ensemble.weighting = eigenvalue" in (out / "summary.csv").read_text()


def test_ensemble_creates_its_directory_once(tmp_path, monkeypatch):
    """One mkdir per command, however many members; no temp file is left."""
    made = []
    mkdir = type(tmp_path).mkdir

    def counting_mkdir(path, *args, **kwargs):
        made.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(type(tmp_path), "mkdir", counting_mkdir)
    cfg = _write(tmp_path, FIG2 + ENSEMBLE_BLOCK)
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    assert made == [out]
    assert len(list(out.iterdir())) == 7
    assert not list(out.glob("*.tmp"))


def test_ensemble_stops_at_a_failing_start(tmp_path, capsys, monkeypatch):
    """Members before the failing start are written; then its exit code."""
    points = [pf.ConfigPoint(1.0, 0.0, 2.0, 0.0), pf.ConfigPoint(1.2, 0.0, 2.1, 0.0),
              pf.ConfigPoint(1e-7, 0.0, 2.0, 0.0), pf.ConfigPoint(0.9, 0.0, 2.2, 0.0)]
    monkeypatch.setattr(cli, "sample_hyperplane", lambda *args: points)
    cfg = _write(tmp_path, FIG2 + ENSEMBLE_BLOCK)
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    with pytest.raises(pf.NodeProximityError) as single:
        pf.integrate(cli.build_model(cli.load_config(cfg, out)), points[2], 0.01, 60)
    assert err == f"ensemble: {single.value}\n"
    assert sorted(p.name for p in out.iterdir()) == ["member_000.csv", "member_001.csv"]


def test_ensemble_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, FIG2 + ENSEMBLE_BLOCK)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out2)]) == 0
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes()


def test_ensemble_seed_override(tmp_path):
    cfg = _write(tmp_path, FIG2 + ENSEMBLE_BLOCK)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out2),
                     "--seed", "99"]) == 0
    assert (out1 / "summary.csv").read_text() != (out2 / "summary.csv").read_text()


def test_covariance_outputs(tmp_path):
    cfg = _write(tmp_path, FIG2 + BOOST_BLOCK)
    out = tmp_path / "out"
    assert cli.main(["covariance", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out / "comparison.csv")
    assert header == ["step", "sigma", "dev1", "dev2", "deviation"]
    assert len(rows) == 61
    assert all(float(r[4]) <= 1e-11 for r in rows)
    conv = (out / "convergence.csv").read_text()
    header, rows = _rows(out / "convergence.csv")
    assert header == ["epsilon", "max_deviation"]
    assert len(rows) == 3
    assert "# fitted_order = n/a (deviations below rounding floor)" in conv


def test_covariance_identity_boost(tmp_path):
    cfg = _write(tmp_path, FIG2 + "\n[boost]\nalpha = 0.0\n")
    out = tmp_path / "out"
    assert cli.main(["covariance", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "comparison.csv").read_text()
    assert "# max_deviation = 0" in text
    assert not (out / "convergence.csv").exists()


def test_config_errors(tmp_path, capsys):
    bad = FIG1.replace("epsilon = 0.01", "epsilon = 0")
    cfg = _write(tmp_path, bad)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "run.epsilon" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()

    cfg = _write(tmp_path, FIG1 + "\nbogus = 3\n", "unknown.cfg")
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "unknown key run.bogus" in capsys.readouterr().err

    cfg = _write(tmp_path, FIG1.replace("n_a = 1", "n_a = 1\nn_a = 2"), "dup.cfg")
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "duplicate" in capsys.readouterr().err

    cfg = _write(tmp_path, FIG1.replace("[model]\n", ""), "nosec.cfg")
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2

    cfg = _write(tmp_path, FIG1.replace("z2 = 2.0\n", ""), "missing.cfg")
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "missing keys: z2" in capsys.readouterr().err

    cfg = _write(tmp_path, FIG2 + BOOST_BLOCK + "alpha = 0.1\n", "twoboost.cfg")
    assert cli.main(["covariance", "--config", cfg, "--out", str(out)]) == 2

    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("covariance", "velocity = 0.3", "alpha = 800"),
        ("covariance", "n_b = 2", "n_b = 2\nboost_alpha = 1e6"),
        ("covariance", "total_proper_time = 2.0", "total_proper_time = inf"),
        ("covariance", "epsilons = 0.02 0.01 0.005", "epsilons = 0.02 0.01 0"),
        ("covariance", "velocity = 0.3", "velocity = 0.9999999999"),
        ("covariance", "velocity = 0.3", "alpha = nan"),
        ("simulate", "epsilon = 0.01", "epsilon = inf"),
        ("covariance", "epsilons = 0.02 0.01 0.005", "epsilons = 0.02 0.01 0.003"),
        ("simulate", L_LINE, "L = 1e-160"),
        ("simulate", "n_a = 1", "n_a = 1" + "0" * 400),
        ("simulate", "m = 1.0", "m = 1e300"),
        ("ensemble", "count = 6", "count = 0"),
        ("ensemble", "weighting = eigenvalue", "weighting = gaussian"),
        ("ensemble", "seed = 11", "seed = -1"),
        ("simulate", "scheme = midpoint", "scheme = rk4"),
    ],
    ids=["alpha-overflow", "model-alpha-overflow", "infinite-proper-time",
         "zero-epsilon", "velocity-at-guard", "nan-alpha", "infinite-epsilon",
         "epsilon-not-dividing", "wave-number-overflow", "mode-index-overflow",
         "mass-overflow", "zero-count", "unknown-weighting", "negative-seed",
         "unknown-scheme"],
)
def test_invalid_config_values(tmp_path, capsys, command, old, new):
    """Out-of-range numbers are config errors naming their key and line."""
    text = (FIG2 + BOOST_BLOCK + ENSEMBLE_BLOCK).replace(old, new)
    lines = text.splitlines()
    bad = new.splitlines()[-1]
    lineno = lines.index(bad) + 1
    section = next(l for l in reversed(lines[:lineno]) if l.startswith("["))[1:-1]
    key = f"{section}.{bad.split(' = ')[0]}"
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert f"{key} (line {lineno})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, line, problem, default",
    [
        ("simulate", "scheme = midpoint", "must be one of euler, midpoint, got ''",
         integrator.DEFAULT_SCHEME),
        ("ensemble", "weighting = eigenvalue", "must be uniform or eigenvalue, got ''",
         "uniform"),
    ],
    ids=["scheme", "weighting"],
)
def test_empty_value_is_not_the_default(tmp_path, capsys, command, line, problem, default):
    """A key given with no value fails its check; only an absent key takes
    the default."""
    key = line.split(" = ")[0]
    text = FIG2 + ENSEMBLE_BLOCK
    lines = text.splitlines()
    lineno = lines.index(line) + 1
    section = next(l for l in reversed(lines[:lineno]) if l.startswith("["))[1:-1]
    out = tmp_path / "out"
    cfg = _write(tmp_path, text.replace(line, f"{key} ="))
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{command}: {section}.{key} (line {lineno}): {problem}\n"
    assert not out.exists()

    absent = cli.load_config(_write(tmp_path, text.replace(line, ""), "absent.cfg"), out)
    assert {"scheme": absent.scheme, "weighting": absent.ensemble.weighting}[key] == default


def test_negative_seed_override_names_the_flag(tmp_path, capsys):
    cfg = _write(tmp_path, FIG2 + ENSEMBLE_BLOCK)
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "ensemble: --seed: must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["out-is-a-file", "out-below-a-file"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, below):
    """An --out that cannot be a directory is a one-line error, exit 2."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / "sub" if below else blocker
    assert cli.main(["simulate", "--config", _write(tmp_path, FIG1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"simulate: cannot write output {out}")
    assert err.count("\n") == 1
    assert blocker.read_text() == "keep"


def test_missing_blocks(tmp_path, capsys):
    cfg = _write(tmp_path, FIG1)
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out)]) == 2
    assert "[ensemble]" in capsys.readouterr().err
    assert cli.main(["covariance", "--config", cfg, "--out", str(out)]) == 2
    assert "[boost]" in capsys.readouterr().err


def test_node_start_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, FIG1.replace("z1 = 1.0", "z1 = 0.0000001"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "node floor" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_boundary_start_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, FIG1.replace("z1 = 1.0", "z1 = -0.5"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 5
    assert "outside" in capsys.readouterr().err


def test_exit_code_tables():
    """Termination tags and exit codes come from the error classes."""
    row = (1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    exits = {
        tag: pf.Trajectory(epsilon=0.01, scheme="midpoint", rows=[row],
                           termination=tag).exit_code
        for tag in TERMINATIONS
    }
    assert exits == {
        "completed": 0, "node_abort": 3, "degenerate_abort": 4, "boundary_abort": 5,
    }
    aborts = (pf.NodeProximityError, pf.FlowError, pf.BoundaryError)
    assert [(e.tag, e.exit_code) for e in aborts] == [
        ("node_abort", 3), ("degenerate_abort", 4), ("boundary_abort", 5),
    ]
    assert pf.NodeProximityError("x").exit_code == 3
    assert pf.DegenerateFlowError("x").exit_code == 4
    assert pf.LightlikeVelocityError("x").exit_code == 4
    assert pf.SamplingError("x").exit_code == 4
    assert pf.BoundaryError("x").exit_code == 5
    assert pf.ComparisonFailure("x").exit_code == 6
    assert cli.ConfigError("x").exit_code == 2


FIG2_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "fig2.cfg")

STARTUP_SCRIPT = """
import sys
from properflow import cli

cfg, out = sys.argv[1:]
for command in ("simulate", "covariance"):
    assert cli.main([command, "--config", cfg, "--out", f"{out}/{command}"]) == 0
print(*[m for m in ("numpy", "xml.etree.ElementTree") if m in sys.modules] or ["-"])
sys.exit(cli.main(["ensemble", "--config", cfg, "--out", f"{out}/ensemble"]))
"""


def test_fresh_interpreter_imports_numpy_only_for_the_ensemble(tmp_path):
    """simulate and covariance on fig2 import neither numpy nor an XML
    library; an ensemble in the same interpreter then loads numpy on first
    use and writes what an in-process run writes."""
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, FIG2_CFG, str(tmp_path / "cold")],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-\n", "")
    out = tmp_path / "warm"
    assert cli.main(["ensemble", "--config", FIG2_CFG, "--out", str(out)]) == 0
    summary = (tmp_path / "cold" / "ensemble" / "summary.csv").read_bytes()
    assert summary == (out / "summary.csv").read_bytes()


def test_console_script_wiring(tmp_path):
    cfg = _write(tmp_path, FIG1)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "properflow.cli", "simulate",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (out / "trajectory.csv").exists()


def test_outputs_follow_the_umask(tmp_path):
    """Outputs get the mode of any new file under the umask (0o644 under
    0o022), not a private temp file's 0o600."""
    cfg = _write(tmp_path, FIG2)
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == {"trajectory.csv": 0o644, "trajectory.svg": 0o644}


def test_failed_rename_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", _write(tmp_path, FIG1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"simulate: cannot write output {out / 'trajectory.csv'}")
    assert list(out.iterdir()) == []


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["simulate", "ensemble", "covariance"])
def test_commands_build_no_step_records(tmp_path, monkeypatch, command):
    """The commands write straight from a trajectory's rows: with
    StepRecord made unusable they exit 0 and write the same bytes."""
    cfg = _write(tmp_path, FIG2 + BOOST_BLOCK + ENSEMBLE_BLOCK)
    plain, patched = tmp_path / "plain", tmp_path / "patched"
    assert cli.main([command, "--config", cfg, "--out", str(plain)]) == 0

    def no_records(*args, **kwargs):
        raise AssertionError("a StepRecord was built")

    monkeypatch.setattr(integrator, "StepRecord", no_records)
    assert cli.main([command, "--config", cfg, "--out", str(patched)]) == 0
    assert _outputs(patched) == _outputs(plain)


@pytest.mark.parametrize("value", ["rk4", ""], ids=["unknown", "empty"])
def test_scheme_override_does_not_hide_a_bad_file_scheme(tmp_path, capsys, value):
    """The file's run.scheme is checked, with its line, before --scheme
    replaces it."""
    lines = FIG1.splitlines()
    lineno = lines.index("scheme = midpoint") + 1
    cfg = _write(tmp_path, FIG1.replace("scheme = midpoint", f"scheme = {value}".rstrip()))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--scheme", "euler"]) == 2
    assert capsys.readouterr().err == (
        f"simulate: run.scheme (line {lineno}): must be one of euler, midpoint, got {value!r}\n"
    )
    assert not out.exists()


def test_negative_seed_override_fails_without_an_ensemble(tmp_path, capsys):
    """--seed is checked whether or not the file has an [ensemble] section."""
    cfg = _write(tmp_path, FIG1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "simulate: --seed: must be nonnegative, got -1\n"
    assert not out.exists()


def test_uniform_ensemble_on_a_boosted_model_starts_inside(tmp_path):
    """A uniform draw that falls outside the boosted well, 0 < z' cosh(alpha)
    < L on the t' = 0 plane, is redrawn; every member starts inside."""
    alpha = 0.5
    text = (FIG2.replace("n_b = 2\n", f"n_b = 2\nboost_alpha = {alpha}\n")
            + ENSEMBLE_BLOCK.replace("count = 6", "count = 100")
            .replace("weighting = eigenvalue", "weighting = uniform"))
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out / "summary.csv")
    assert len(rows) == 100
    for row in rows:
        start = dict(zip(header, row))
        for key in ("z1_0", "z2_0"):
            assert 0.0 < float(start[key]) * math.cosh(alpha) < math.pi


def test_seed_override_does_not_hide_a_bad_file_seed(tmp_path, capsys):
    """The file's ensemble.seed is checked, with its line, before --seed
    replaces it."""
    text = FIG2 + ENSEMBLE_BLOCK
    lineno = text.splitlines().index("seed = 11") + 1
    cfg = _write(tmp_path, text.replace("seed = 11", "seed = -5"))
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out), "--seed", "3"]) == 2
    assert capsys.readouterr().err == (
        f"ensemble: ensemble.seed (line {lineno}): must be nonnegative\n"
    )
    assert not out.exists()


def test_bad_scheme_override_names_the_flag(tmp_path):
    with pytest.raises(cli.ConfigError, match="^--scheme: must be one of euler, midpoint, got 'rk4'$"):
        cli.load_config(_write(tmp_path, FIG1), tmp_path / "out", scheme_override="rk4")


# As in the covariance benchmark: 200 steps at epsilon = 0.01, and a study
# whose epsilon = 0.01 run is the main run's first 100 steps.
COVARIANCE_LIKE = FIG2.replace("steps = 60", "steps = 200") + """
[boost]
alpha = 1.2123
epsilons = 0.02 0.01 0.005
total_proper_time = 1.0
"""


def test_covariance_integrates_each_frame_and_step_size_once(tmp_path, integrations):
    cfg = _write(tmp_path, COVARIANCE_LIKE)
    assert cli.main(["covariance", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert sorted(integrations) == [(0.005, 200)] * 2 + [(0.01, 200)] * 2 + [(0.02, 50)] * 2


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
@pytest.mark.parametrize("text", [COVARIANCE_LIKE, FIG2 + BOOST_BLOCK], ids=["handed", "short"])
def test_covariance_handover_writes_the_same_bytes(tmp_path, monkeypatch, text, scheme):
    """With the main comparison handed to the study or not, both files
    are the same bytes."""
    cfg = _write(tmp_path, text)
    handed, plain = tmp_path / "handed", tmp_path / "plain"
    argv = ["covariance", "--config", cfg, "--scheme", scheme, "--out"]
    assert cli.main(argv + [str(handed)]) == 0
    real = cli.convergence_study

    def unhanded(*args, comparison):
        return real(*args)

    monkeypatch.setattr(cli, "convergence_study", unhanded)
    assert cli.main(argv + [str(plain)]) == 0
    assert set(_outputs(handed)) == {"comparison.csv", "convergence.csv"}
    assert _outputs(handed) == _outputs(plain)
