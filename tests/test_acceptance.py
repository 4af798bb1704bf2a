"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Criterion 3 measures two things in a boosted frame.  Runs made
directly in that frame converge to the boosted world lines (a fine-step
rest-frame run, boosted record by record) at the truncation order of
their scheme.  The step-for-step deviation between a boosted rest-frame
run and a boosted-frame run at the same step size stays at the rounding
floor, since the stepping rule commutes with boosts exactly.
"""

import math
import time

import numpy as np
import pytest

import properflow as pf
from properflow import cli

L = math.pi
EPS = 0.01
STEPS = 500
BOOST = pf.rapidity_from_velocity(0.3)
Q_STATIC = pf.ConfigPoint(1.0, 0.0, 2.0, 0.0)
Q_MOVING = pf.ConfigPoint(1.0, 1.0, 2.0, 0.0)


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def static_run(model):
    t0 = time.perf_counter()
    traj = pf.integrate(model, Q_STATIC, EPS, STEPS, "midpoint")
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def moving_run(model):
    t0 = time.perf_counter()
    traj = pf.integrate(model, Q_MOVING, EPS, STEPS, "midpoint")
    return traj, time.perf_counter() - t0


def test_criterion_01_static_pair_stays_coordinated(static_run):
    traj, elapsed = static_run
    vmax = max(max(abs(r.v1), abs(r.v2)) for r in traj.records)
    dtmax = max(abs(d) for d in pf.coordination_profile(traj))
    ok = (traj.termination == "completed" and vmax < 1e-10
          and dtmax < 1e-10 and elapsed < 1.0)
    _report(1, ok, f"max |v| = {vmax:.2e}, max |t1-t2| = {dtmax:.2e}, {elapsed:.2f} s")


def test_criterion_02_desynchronized_pair_moves(moving_run):
    traj, elapsed = moving_run
    vmax = max(max(abs(r.v1), abs(r.v2)) for r in traj.records)
    spread = float(np.std(pf.coordination_profile(traj)))
    ok = (traj.termination == "completed" and vmax > 1e-3
          and spread > 1e-4 and elapsed < 1.0)
    _report(2, ok, f"max |v| = {vmax:.3f}, std(t1-t2) = {spread:.4f}, {elapsed:.2f} s")


def _particle_gap(a, b):
    return max(math.hypot(a.t1 - b.t1, a.z1 - b.z1),
               math.hypot(a.t2 - b.t2, a.z2 - b.z2))


def test_criterion_03_boosted_frame_convergence_order(model):
    windows = {"midpoint": (1.7, 2.3), "euler": (0.8, 1.2)}
    epsilons = (0.02, 0.01, 0.005)
    total = 2.0
    eps_ref = epsilons[-1] / 8
    t0 = time.perf_counter()
    # Boosted world lines: a fine-step rest-frame run, boosted record by record.
    ref = pf.integrate(model, Q_MOVING, eps_ref, round(total / eps_ref), "midpoint")
    ref_q = [pf.boost_configuration(r.q, BOOST) for r in ref.records]
    primed_model = pf.boosted(model, BOOST)
    primed_q0 = pf.boost_configuration(Q_MOVING, BOOST)
    ok = ref.completed
    parts = []
    for scheme, (lo, hi) in windows.items():
        devs = []
        for eps in epsilons:
            run = pf.integrate(primed_model, primed_q0, eps, round(total / eps), scheme)
            aligned = ref_q[::round(eps / eps_ref)]
            ok = ok and run.completed and len(run.records) == len(aligned)
            devs.append(max(_particle_gap(r.q, g) for r, g in zip(run.records, aligned)))
        order = float(np.polyfit(np.log(epsilons), np.log(devs), 1)[0])
        frame = pf.convergence_study(model, Q_MOVING, BOOST, epsilons, total, scheme)
        decreasing = all(b < a for a, b in zip(devs, devs[1:]))
        ok = ok and decreasing and lo <= order <= hi and frame.fitted_order is None
        shown = ", ".join(f"{d:.2e}" for d in devs)
        parts.append(f"{scheme}: deviations [{shown}], order {order:.2f}, "
                     f"frame deviation {max(frame.deviations):.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(3, ok, f"{'; '.join(parts)}, {elapsed:.1f} s")


def test_criterion_04_proper_time_invariant(static_run, moving_run):
    worst = 0.0
    for traj, _ in (static_run, moving_run):
        arr = traj.configuration_array()
        for it, iz in ((1, 0), (3, 2)):
            dt = np.diff(arr[:, it])
            dz = np.diff(arr[:, iz])
            err = np.max(np.abs(dt * dt - dz * dz - EPS * EPS)) / (EPS * EPS)
            worst = max(worst, float(err))
    ok = worst < 1e-10
    _report(4, ok, f"worst relative interval error = {worst:.2e}")


def test_criterion_05_eigenstructure(model):
    rng = np.random.default_rng(11)
    checked = 0
    worst_resid = 0.0
    vmax = 0.0
    while checked < 1000:
        q = pf.ConfigPoint(
            z1=float(rng.uniform(0.0, L)), t1=float(rng.uniform(-2.0, 2.0)),
            z2=float(rng.uniform(0.0, L)), t2=float(rng.uniform(-2.0, 2.0)),
        )
        try:
            ld = pf.log_derivatives(model, q)
        except pf.FlowError:
            continue
        for i in (1, 2):
            T = pf.assemble(ld, i, model.mass)
            flow = pf.eigenflows(T)  # raises unless exactly one timelike
            w = np.array([flow.w.t, flow.w.z])
            resid = np.linalg.norm(T.as_matrix() @ w - flow.lambda_time * w)
            worst_resid = max(worst_resid, resid / np.linalg.norm(T.as_matrix()))
            vmax = max(vmax, abs(flow.v))
        checked += 1
    ok = worst_resid <= 1e-9 and vmax < 1.0
    _report(5, ok, f"1000 points, worst residual = {worst_resid:.2e}, max |v| = {vmax:.4f}")


def test_criterion_06_dual_route_velocity(model):
    rng = np.random.default_rng(7)
    compared = 0
    worst = 0.0
    while compared < 500:
        q = pf.ConfigPoint(
            z1=float(rng.uniform(0.05, L - 0.05)), t1=float(rng.uniform(-2.0, 2.0)),
            z2=float(rng.uniform(0.05, L - 0.05)), t2=float(rng.uniform(-2.0, 2.0)),
        )
        try:
            ld = pf.log_derivatives(model, q)
        except pf.FlowError:
            continue
        for i in (1, 2):
            try:
                vc = pf.velocity_closed_form(ld, i)
            except (pf.DegenerateThetaError, pf.FlowError):
                continue
            ve = pf.eigenflows(pf.assemble(ld, i, model.mass)).v
            worst = max(worst, abs(vc - ve))
            compared += 1
    ok = worst <= 1e-9
    _report(6, ok, f"{compared} comparisons, worst |v_closed - v_eigen| = {worst:.2e}")


def test_criterion_07_conservation_and_field_equation(model, probe_point):
    q = probe_point
    orders = []
    for i in (1, 2):
        for nu in ("t", "z"):
            r1 = abs(pf.conservation_residual(model, q, i, nu, 1e-4))
            r2 = abs(pf.conservation_residual(model, q, i, nu, 5e-5))
            orders.append(math.log2(r1 / r2))
        k1 = abs(pf.kg_residual(model, q, i, 1e-4))
        k2 = abs(pf.kg_residual(model, q, i, 5e-5))
        orders.append(math.log2(k1 / k2))
    bad = pf.product_pair(
        pf.box_mode(1, L, 1.0, frequency=math.sqrt(2.0) + 0.1),
        pf.box_mode(2, L, 1.0),
    )
    cons = [max(abs(pf.conservation_residual(bad, q, 1, nu, h)) for nu in ("t", "z"))
            for h in (1e-4, 5e-5)]
    kg = [abs(pf.kg_residual(bad, q, 1, h)) for h in (1e-4, 5e-5)]
    control_fails = all(r > 1e-3 for r in cons + kg) and cons[1] > 0.9 * cons[0]
    ok = min(orders) >= 1.9 and control_fails
    _report(
        7, ok,
        f"min decay order = {min(orders):.2f}, control residuals "
        f"conservation {cons[0]:.2e} / field {kg[0]:.2e}",
    )


def test_criterion_08_invariance_suite(model):
    rng = np.random.default_rng(17)
    phase = complex(math.cos(0.9), math.sin(0.9))
    variants = [pf.rescaled(model, f) for f in (phase, 2.5, 2.5 * phase)]
    worst = 0.0
    checked = 0
    while checked < 20:
        q = pf.ConfigPoint(
            z1=float(rng.uniform(0.05, L - 0.05)), t1=float(rng.uniform(-2.0, 2.0)),
            z2=float(rng.uniform(0.05, L - 0.05)), t2=float(rng.uniform(-2.0, 2.0)),
        )
        try:
            ld = pf.log_derivatives(model, q)
        except pf.FlowError:
            continue
        for i in (1, 2):
            T = pf.assemble(ld, i, model.mass)
            base = pf.eigenflows(T).v
            bigger = pf.StressTensor(3.7 * T.tt, 3.7 * T.tz, 3.7 * T.zt,
                                     3.7 * T.zz, T.amplitude2)
            worst = max(worst, abs(pf.eigenflows(bigger).v - base))
            for variant in variants:
                vld = pf.log_derivatives(variant, q)
                v = pf.eigenflows(pf.assemble(vld, i, model.mass)).v
                worst = max(worst, abs(v - base))
        checked += 1
    fwd = pf.integrate(model, pf.ConfigPoint(1.0, 1.0, 2.0, 0.0), EPS, 300, "midpoint")
    swp = pf.integrate(model, pf.ConfigPoint(2.0, 0.0, 1.0, 1.0), EPS, 300, "midpoint")
    exchange = max(
        max(abs(a.q.z1 - b.q.z2), abs(a.q.t1 - b.q.t2),
            abs(a.q.z2 - b.q.z1), abs(a.q.t2 - b.q.t1))
        for a, b in zip(fwd.records, swp.records)
    )
    ok = worst <= 1e-12 and exchange <= 1e-12
    _report(8, ok, f"velocity shift under rescaling = {worst:.2e}, "
                   f"exchange deviation = {exchange:.2e}")


def test_criterion_09_determinism_and_uniqueness(model, tmp_path):
    # retrace decay must meet the scheme-order lower edges used in criterion 3
    ratio_bounds = {"euler": 2.0 ** -0.8, "midpoint": 2.0 ** -1.7}
    retrace_ok = True
    notes = []
    for scheme, bound in ratio_bounds.items():
        devs = []
        for eps in (0.02, 0.01, 0.005):
            traj = pf.integrate(model, Q_MOVING, eps, round(2.0 / eps), scheme)
            devs.append(pf.reverse_check(model, traj))
        ratios = [b / a for a, b in zip(devs, devs[1:])]
        retrace_ok = retrace_ok and all(r <= bound for r in ratios)
        notes.append(f"{scheme} retrace ratios {ratios[0]:.3f}/{ratios[1]:.3f}")

    points = pf.sample_hyperplane(model, 100, "eigenvalue", seed=5)
    seen = {}
    shared = 0
    for member, q0 in enumerate(points):
        traj = pf.integrate(model, q0, EPS, 200, "midpoint")
        for rec in traj.records:
            key = (rec.q.z1, rec.q.t1, rec.q.z2, rec.q.t2)
            if key in seen and seen[key] != member:
                shared += 1
            seen[key] = member

    cfg = tmp_path / "ens.cfg"
    cfg.write_text(
        "[model]\nL = 3.141592653589793\nm = 1.0\nn_a = 1\nn_b = 2\n"
        "[run]\nz1 = 1.0\nt1 = 1.0\nz2 = 2.0\nt2 = 0.0\n"
        "epsilon = 0.01\nsteps = 100\n"
        "[ensemble]\ncount = 12\nweighting = eigenvalue\nseed = 11\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli.main(["ensemble", "--config", str(cfg), "--out", str(out1)])
    code2 = cli.main(["ensemble", "--config", str(cfg), "--out", str(out2)])
    identical = code1 == code2 == 0 and all(
        p.read_bytes() == (out2 / p.name).read_bytes() for p in sorted(out1.iterdir())
    )

    ok = retrace_ok and shared == 0 and identical
    _report(9, ok, f"{'; '.join(notes)}; shared records = {shared}; "
                   f"seeded reruns identical = {identical}")


def test_moving_ensemble_never_shares_a_record(model):
    """Criterion 9's non-crossing on an ensemble that moves.

    Equal-time starts are static (criterion 1), so criterion 9's ensemble
    never moves.  Here 100 clock-offset members, z1 in [0.8, 1.2], z2 in
    [1.9, 2.3] and |t1 - t2| in [0.5, 1.5] (away from both node lines), run
    500 lockstep steps: no two members share a record, and at every sigma
    each pair stays apart by more than the rounding floor.  The budget is
    process CPU time, so other load on the machine does not count.
    """
    rng = np.random.default_rng(2001)
    t2 = rng.uniform(-1.0, 1.0, 100)
    t1 = t2 + rng.choice((-1.0, 1.0), 100) * rng.uniform(0.5, 1.5, 100)
    starts = [
        pf.ConfigPoint(*map(float, q))
        for q in zip(rng.uniform(0.8, 1.2, 100), t1, rng.uniform(1.9, 2.3, 100), t2)
    ]
    t0 = time.process_time()
    ensemble = list(pf.integrate(model, starts, EPS, STEPS, "midpoint"))
    elapsed = time.process_time() - t0

    completed = sum(traj.completed for traj in ensemble)
    moved = min(
        np.max(np.abs(traj.configuration_array()[:, [0, 2]] - [q.z1, q.z2]))
        for q, traj in zip(starts, ensemble)
    )
    seen = {}
    shared = 0
    for member, traj in enumerate(ensemble):
        for rec in traj.records:
            key = (rec.q.z1, rec.q.t1, rec.q.z2, rec.q.t2)
            if key in seen and seen[key] != member:
                shared += 1
            seen[key] = member
    floor = 10.0 * EPS * np.finfo(float).eps
    common = min(len(traj.records) for traj in ensemble)
    paths = np.stack([traj.configuration_array()[:common] for traj in ensemble])
    closest = min(
        np.min(np.linalg.norm(paths[i + 1:] - paths[i], axis=2)) for i in range(len(paths) - 1)
    )

    ok = completed == 100 and moved > 0.05 and shared == 0 and closest > floor and elapsed < 1.0
    _report(9, ok, f"moving ensemble: {completed} of 100 completed, least-moving member "
                   f"travels {moved:.3f} in z, shared records = {shared}, closest pair = "
                   f"{closest:.2e}, {elapsed:.2f} s CPU")


def test_criterion_10_ground_mode_energy_density():
    lone = pf.lone_state(pf.box_mode(1, L, 0.0))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for z in rng.uniform(0.05, L - 0.05, size=100):
        ld = pf.log_derivatives(lone, pf.ConfigPoint(float(z), 0.2, 1.0, 0.0))
        T = pf.assemble(ld, 1, 0.0)
        worst = max(worst, abs(T.tt - 2.0 / L))
    ok = worst <= 1e-12
    _report(10, ok, f"100 points, worst |T^t_t - 2/pi| = {worst:.2e}")
