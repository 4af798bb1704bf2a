"""Independent check of the CSV files properflow writes.

The check does not import properflow.  It evaluates the entangled box-mode
pair in closed form,

    phi_n(z, t) = sqrt(2/L) sin(n pi z / L) exp(i omega_n t),
    omega_n = sqrt((n pi / L)^2 + m^2),
    Psi = phi_a(z1, t1) phi_b(z2, t2) + phi_b(z1, t1) phi_a(z2, t2),

builds each particle's mixed stress tensor

    T^mu_nu = |Psi|^2 (m^2 - P.P - S.S) delta^mu_nu
              + 2 |Psi|^2 (P^mu P_nu + S^mu S_nu),   P + i S = dPsi / Psi,

and takes its timelike eigenvector with ``np.linalg.eig``.  Against that
it checks, at every written record, the velocities v1, v2 and the
timelike eigenvalues lambda1, lambda2 (1e-9), that every step of each
particle has dt^2 - dz^2 = epsilon^2 (relative 1e-10, the paper's
equal-proper-time rule), that sigma = j epsilon, frame deviations of at
most 1e-9, and ensemble member and summary counts.  The state (L, m,
n_a, n_b) is the one workloads.py writes into every config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import L, MASS, N_A, N_B

V_TOL = 1e-9
LAMBDA_RTOL = 1e-9
INTERVAL_RTOL = 1e-10
SIGMA_TOL = 1e-12
DEVIATION_MAX = 1e-9

TRAJECTORY_HEADER = "sigma,z1,t1,z2,t2,v1,v2,lambda1,lambda2"
SUMMARY_HEADER = "member,z1_0,t1_0,z2_0,t2_0,termination,sigma_final,z1_f,t1_f,z2_f,t2_f"
COMPARISON_HEADER = "step,sigma,dev1,dev2,deviation"
CONVERGENCE_HEADER = "epsilon,max_deviation"


@dataclass
class Outcome:
    """Steps a command completed and every problem found in its outputs."""

    steps: int = 0
    problems: list[str] = field(default_factory=list)


def _mode(n: int, z, t):
    k = n * math.pi / L
    omega = math.sqrt(k * k + MASS * MASS)
    amp = math.sqrt(2.0 / L)
    phase = np.exp(1j * omega * t)
    val = amp * np.sin(k * z) * phase
    return val, 1j * omega * val, amp * k * np.cos(k * z) * phase


def box_fields(z1, t1, z2, t2):
    """(Psi, dPsi/dt1, dPsi/dz1, dPsi/dt2, dPsi/dz2) in closed form."""
    a1, a1_t, a1_z = _mode(N_A, z1, t1)
    b1, b1_t, b1_z = _mode(N_B, z1, t1)
    a2, a2_t, a2_z = _mode(N_A, z2, t2)
    b2, b2_t, b2_z = _mode(N_B, z2, t2)
    return (
        a1 * b2 + b1 * a2,
        a1_t * b2 + b1_t * a2,
        a1_z * b2 + b1_z * a2,
        a1 * b2_t + b1 * a2_t,
        a1 * b2_z + b1 * a2_z,
    )


def stress_tensors(psi, d_t, d_z) -> np.ndarray:
    """Mixed tensors T^mu_nu, shape (N, 2, 2), rows (t, z)."""
    a2 = psi.real**2 + psi.imag**2
    r_t, r_z = d_t / psi, d_z / psi
    pt, st, pz, sz = r_t.real, r_t.imag, r_z.real, r_z.imag
    iso = a2 * (MASS * MASS - (pt * pt - pz * pz) - (st * st - sz * sz))
    tz = 2.0 * a2 * (pt * pz + st * sz)
    T = np.empty(psi.shape + (2, 2))
    T[..., 0, 0] = iso + 2.0 * a2 * (pt * pt + st * st)
    T[..., 0, 1] = tz
    T[..., 1, 0] = -tz
    T[..., 1, 1] = iso - 2.0 * a2 * (pz * pz + sz * sz)
    return T


def timelike_flows(T: np.ndarray):
    """(v, lambda, ok) of the timelike eigenvector of each tensor.

    ok is False where the eigenvalues are complex or the eigenvectors do
    not split into exactly one timelike and one spacelike direction.
    """
    vals, vecs = np.linalg.eig(T)
    real = np.ones(vals.shape[0], dtype=bool)
    if np.iscomplexobj(vals):
        real = np.all(np.abs(vals.imag) <= 1e-12 * np.abs(T).sum(axis=(1, 2))[:, None], axis=1)
        vals, vecs = vals.real, vecs.real
    norms = vecs[:, 0, :] ** 2 - vecs[:, 1, :] ** 2
    timelike = norms > 0.0
    ok = real & (timelike.sum(axis=1) == 1)
    k = np.argmax(timelike, axis=1)
    rows = np.arange(len(k))
    v = vecs[rows, 1, k] / vecs[rows, 0, k]
    return v, vals[rows, k], ok


def read_csv(path: Path):
    """(comments, header, rows) of a '#'-commented CSV; comments maps
    'key = value' lines to their values, rows are lists of strings."""
    comments: dict[str, str] = {}
    header = None
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    comments[key.strip()] = value.strip()
            elif header is None:
                header = line
            elif line:
                rows.append(line.split(","))
    return comments, header, rows


def _load_trajectory(path: Path, steps: int, out: Outcome):
    """Records of one trajectory CSV as an array, or None after noting why
    they cannot be checked."""
    name = path.name
    try:
        comments, header, rows = read_csv(path)
    except OSError as err:
        out.problems.append(f"{name}: unreadable ({err})")
        return None
    if header != TRAJECTORY_HEADER or not rows:
        out.problems.append(f"{name}: header {header!r}, {len(rows)} records")
        return None
    out.steps += len(rows) - 1
    if comments.get("termination") != "completed":
        out.problems.append(f"{name}: termination {comments.get('termination')!r}")
    if len(rows) != steps + 1:
        out.problems.append(f"{name}: {len(rows)} records, expected {steps + 1}")
        return None
    return np.array(rows, dtype=float)


def check_records(data: np.ndarray, q0: np.ndarray, epsilon: float, labels, out: Outcome) -> None:
    """Check trajectories of equal length at once.

    data has shape (M, steps + 1, 9) in CSV column order, q0 shape (M, 4);
    labels name the M trajectories in problem reports.
    """

    def report(bad: np.ndarray, what) -> None:
        if bad.any():
            m, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            out.problems.append(f"{labels[m]}: {what(m, j)} ({int(bad.sum())} records)")

    sigma, z1, t1, z2, t2, v1, v2, lam1, lam2 = np.moveaxis(data, -1, 0)
    report(np.any(data[:, 0, 1:5] != q0, axis=1)[:, None],
           lambda m, j: f"first record {tuple(data[m, 0, 1:5])} != start {tuple(q0[m])}")
    jeps = np.arange(data.shape[1]) * epsilon
    report(np.abs(sigma - jeps) > SIGMA_TOL * np.maximum(1.0, jeps),
           lambda m, j: f"sigma {sigma[m, j]!r} at record {j}")
    eps2 = epsilon * epsilon
    for label, t, z in (("1", t1, z1), ("2", t2, z2)):
        dt, dz = np.diff(t, axis=1), np.diff(z, axis=1)
        interval = dt * dt - dz * dz
        report((np.abs(interval - eps2) > INTERVAL_RTOL * eps2) | (dt <= 0.0),
               lambda m, j: f"particle {label} step {j}: dt^2 - dz^2 = {interval[m, j]!r}, "
                            f"expected {eps2!r}")
    fields = box_fields(z1.ravel(), t1.ravel(), z2.ravel(), t2.ravel())
    for label, d_t, d_z, v, lam in (
        ("1", fields[1], fields[2], v1, lam1),
        ("2", fields[3], fields[4], v2, lam2),
    ):
        v_ref, lam_ref, ok = (
            a.reshape(v.shape) for a in timelike_flows(stress_tensors(fields[0], d_t, d_z))
        )
        report(~ok | (np.abs(v - v_ref) > V_TOL)
               | (np.abs(lam - lam_ref) > LAMBDA_RTOL * np.maximum(1.0, np.abs(lam_ref))),
               lambda m, j: f"record {j} particle {label}: v {v[m, j]!r} vs {v_ref[m, j]!r}, "
                            f"lambda {lam[m, j]!r} vs {lam_ref[m, j]!r}")


def check_simulate(out_dir: Path, inv, out: Outcome) -> None:
    data = _load_trajectory(out_dir / "trajectory.csv", inv.steps, out)
    if data is not None:
        check_records(data[None], np.array([inv.q0]), inv.epsilon, ["trajectory.csv"], out)
    svg = out_dir / "trajectory.svg"
    if not svg.is_file() or not svg.read_text().rstrip().endswith("</svg>"):
        out.problems.append("trajectory.svg: missing or truncated")


def check_ensemble(out_dir: Path, inv, out: Outcome) -> None:
    try:
        _, header, rows = read_csv(out_dir / "summary.csv")
    except OSError as err:
        out.problems.append(f"summary.csv: unreadable ({err})")
        return
    if header != SUMMARY_HEADER:
        out.problems.append(f"summary.csv: header {header!r}")
        return
    n_files = len(list(out_dir.glob("member_*.csv")))
    if len(rows) != inv.count or n_files != inv.count:
        out.problems.append(
            f"ensemble: {len(rows)} summary rows and {n_files} member files, expected {inv.count}"
        )
    labels, starts, finals, members = [], [], [], []
    for k, row in enumerate(rows):
        q0 = tuple(float(x) for x in row[1:5])
        if int(row[0]) != k or row[5] != "completed":
            out.problems.append(f"summary.csv: row {k} is member {row[0]}, {row[5]}")
        if q0[1] != 0.0 or q0[3] != 0.0 or not all(0.0 < z < L for z in q0[0::2]):
            out.problems.append(f"summary.csv: member {k} start {q0} off the equal-time plane")
        name = f"member_{k:03d}.csv"
        data = _load_trajectory(out_dir / name, inv.steps, out)
        if data is not None:
            labels.append(name)
            starts.append(q0)
            finals.append([float(x) for x in row[7:11]])
            members.append(data)
    if len(set(starts)) != len(starts):
        out.problems.append(f"ensemble: {len(starts) - len(set(starts))} members share a start")
    if not members:
        return
    data = np.stack(members)
    moved = np.any(data[:, -1, 1:5] != np.array(finals), axis=1)
    if moved.any():
        out.problems.append(f"summary.csv: final point of {labels[int(np.argmax(moved))]} differs")
    check_records(data, np.array(starts), inv.epsilon, labels, out)


def check_covariance(out_dir: Path, inv, out: Outcome) -> None:
    try:
        comments, header, rows = read_csv(out_dir / "comparison.csv")
    except OSError as err:
        out.problems.append(f"comparison.csv: unreadable ({err})")
        return
    if header != COMPARISON_HEADER or not rows:
        out.problems.append(f"comparison.csv: header {header!r}, {len(rows)} rows")
        return
    data = np.array(rows, dtype=float)
    step, sigma, dev1, dev2, dev = data.T
    if len(data) != inv.steps + 1 or np.any(step != np.arange(len(data))):
        out.problems.append(f"comparison.csv: {len(data)} rows, expected {inv.steps + 1}")
    else:
        out.steps += 2 * inv.steps
    if np.any(np.abs(sigma - step * inv.epsilon) > SIGMA_TOL * np.maximum(1.0, sigma)):
        out.problems.append("comparison.csv: sigma != j*epsilon")
    if float(comments.get("alpha", "nan")) != inv.alpha:
        out.problems.append(f"comparison.csv: alpha {comments.get('alpha')!r} != {inv.alpha!r}")
    max_dev = float(comments.get("max_deviation", "nan"))
    if not max_dev <= DEVIATION_MAX or max_dev != dev.max() or np.any(dev != np.maximum(dev1, dev2)):
        out.problems.append(f"comparison.csv: max_deviation {max_dev!r} (rows max {dev.max()!r})")
    if inv.epsilons is None:
        return
    try:
        comments, header, rows = read_csv(out_dir / "convergence.csv")
    except OSError as err:
        out.problems.append(f"convergence.csv: unreadable ({err})")
        return
    data = np.array(rows, dtype=float).reshape(-1, 2)
    if header != CONVERGENCE_HEADER or tuple(data[:, 0]) != tuple(inv.epsilons):
        out.problems.append(f"convergence.csv: epsilons {tuple(data[:, 0])} != {inv.epsilons}")
        return
    if not np.all(data[:, 1] <= DEVIATION_MAX):
        out.problems.append(f"convergence.csv: deviations {tuple(data[:, 1])} above {DEVIATION_MAX}")
    if "fitted_order" not in comments:
        out.problems.append("convergence.csv: no fitted_order line")
    out.steps += sum(2 * round(inv.total_proper_time / e) for e in inv.epsilons)


_CHECKS = {"simulate": check_simulate, "ensemble": check_ensemble, "covariance": check_covariance}


def check_invocation(inv, out_dir: Path, exit_code: int) -> Outcome:
    """Check the outputs of one CLI invocation described by ``inv``.

    An output the check cannot parse (a ragged or non-numeric row, a short
    summary row) is a problem of the invocation, not an error of the run.
    """
    out = Outcome()
    if exit_code != 0:
        out.problems.append(f"exit code {exit_code}")
    try:
        _CHECKS[inv.command](Path(out_dir), inv, out)
    except (ValueError, IndexError) as err:
        out.problems.append(f"malformed output: {type(err).__name__}: {err}")
    return out
