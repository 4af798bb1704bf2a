"""Config parsing, subcommands, CSV/SVG artifacts, exit codes."""

import math
import subprocess
import sys
from xml.etree import ElementTree as ET

import pytest

import properflow as pf
from properflow import cli

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
    rec = pf.StepRecord(
        sigma=0.0, q=pf.ConfigPoint(1.0, 0.5, 2.0, 0.1),
        v1=0.0, v2=0.0, lambda1=1.0, lambda2=1.0,
    )
    traj = pf.Trajectory(epsilon=0.01, scheme="midpoint", records=(rec,),
                         termination="completed")
    root = ET.fromstring(cli.emit_svg(traj))
    assert root.findall(".//svg:polyline", SVG_NS) == []
    assert len(root.findall(".//svg:circle", SVG_NS)) == 2


def test_svg_rejects_bad_stride(model, rest_point):
    traj = pf.integrate(model, rest_point, 0.01, 2, "midpoint")
    with pytest.raises(ValueError):
        cli.emit_svg(traj, cli.PlotSpec(label_stride=0))


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
    assert cli._TERMINATION_EXIT == {
        "completed": 0, "node_abort": 3, "degenerate_abort": 4, "boundary_abort": 5,
    }
    assert cli._exit_for_error(pf.NodeProximityError("x")) == 3
    assert cli._exit_for_error(pf.DegenerateFlowError("x")) == 4
    assert cli._exit_for_error(pf.LightlikeVelocityError("x")) == 4
    assert cli._exit_for_error(pf.SamplingError("x")) == 4
    assert cli._exit_for_error(pf.BoundaryError("x")) == 5
    assert cli._exit_for_error(pf.ComparisonFailure("x")) == 6


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
