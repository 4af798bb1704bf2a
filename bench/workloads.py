"""Seeded inputs for the benchmark workloads.

Every CLI invocation of a workload is described by an ``Invocation``: the
command, the config file text the program reads, extra argv, and the
parameters the output check expects.  Invocation k of a workload is a pure
function of (workload, seed, k), so a run is reproducible from its seed
and the program only ever sees the generated config files.

All workloads use the entangled (n_a, n_b) = (1, 2) box-mode pair with
L = pi and m = 1, the state of configs/fig2.cfg.  Writing
Psi = 2 c^2 sin z1 sin z2 [cos z2 e^{i th_A} + cos z1 e^{i th_B}] with
th_A - th_B = (omega_1 - omega_2)(t1 - t2), the interior nodes lie on
z1 = z2 (phase difference pi) and z1 + z2 = pi (phase difference 0 mod
2 pi).  Clock-offset starts are drawn with z1 in [0.8, 1.2], z2 in
[1.9, 2.3] and |t1 - t2| in [0.5, 1.5]: the phase difference then stays
between 0.41 and 1.23 rad, so the start is far from both node lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS: tuple[str, ...] = ("simulate-desync", "ensemble-wide", "covariance-boost")

L = 3.141592653589793
MASS = 1.0
N_A, N_B = 1, 2
EPSILON = 0.01

SIMULATE_STEPS = 500

ENSEMBLE_COUNT = 500
ENSEMBLE_STEPS = 2

COVARIANCE_STEPS = 200
COVARIANCE_EPSILONS = (0.02, 0.01, 0.005)
COVARIANCE_TOTAL_PROPER_TIME = 1.0
ALPHA_RANGE = (0.3, 2.0)


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload and what its outputs must satisfy."""

    command: str
    config_text: str
    extra_argv: tuple[str, ...]
    q0: tuple[float, float, float, float]
    epsilon: float
    steps: int
    count: int | None = None
    alpha: float | None = None
    epsilons: tuple[float, ...] | None = None
    total_proper_time: float | None = None

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [
            self.command, "--config", str(config_path), "--out", str(out_dir),
            *self.extra_argv,
        ]


def _rng(workload: str, seed: int, k: int) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream is stable across
    # interpreter runs and Python versions.
    return random.Random(f"{workload}/{seed}/{k}")


def _desync_start(rng: random.Random) -> tuple[float, float, float, float]:
    z1 = rng.uniform(0.8, 1.2)
    z2 = rng.uniform(1.9, 2.3)
    t2 = rng.uniform(-1.0, 1.0)
    tau = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    return z1, t2 + tau, z2, t2


def _config_text(q0, steps: int, extra: list[str]) -> str:
    z1, t1, z2, t2 = q0
    lines = [
        "[model]",
        f"L = {L!r}",
        f"m = {MASS!r}",
        f"n_a = {N_A}",
        f"n_b = {N_B}",
        "",
        "[run]",
        f"z1 = {z1!r}",
        f"t1 = {t1!r}",
        f"z2 = {z2!r}",
        f"t2 = {t2!r}",
        f"epsilon = {EPSILON!r}",
        f"steps = {steps}",
        "scheme = midpoint",
    ]
    if extra:
        lines += [""] + extra
    return "\n".join(lines) + "\n"


def invocation(workload: str, seed: int, k: int) -> Invocation:
    """The k-th invocation of ``workload`` under ``seed``."""
    rng = _rng(workload, seed, k)
    if workload == "simulate-desync":
        q0 = _desync_start(rng)
        return Invocation(
            command="simulate",
            config_text=_config_text(q0, SIMULATE_STEPS, []),
            extra_argv=(),
            q0=q0,
            epsilon=EPSILON,
            steps=SIMULATE_STEPS,
        )
    if workload == "ensemble-wide":
        # The [run] start is echoed but unused: members start at sampled
        # points of the equal-time plane.
        q0 = _desync_start(rng)
        config_seed = rng.randrange(1 << 30)
        cli_seed = rng.randrange(1 << 30)
        extra = [
            "[ensemble]",
            f"count = {ENSEMBLE_COUNT}",
            "weighting = eigenvalue",
            f"seed = {config_seed}",
        ]
        return Invocation(
            command="ensemble",
            config_text=_config_text(q0, ENSEMBLE_STEPS, extra),
            extra_argv=("--seed", str(cli_seed)),
            q0=q0,
            epsilon=EPSILON,
            steps=ENSEMBLE_STEPS,
            count=ENSEMBLE_COUNT,
        )
    if workload == "covariance-boost":
        q0 = _desync_start(rng)
        alpha = rng.uniform(*ALPHA_RANGE)
        extra = [
            "[boost]",
            f"alpha = {alpha!r}",
            "epsilons = " + " ".join(repr(e) for e in COVARIANCE_EPSILONS),
            f"total_proper_time = {COVARIANCE_TOTAL_PROPER_TIME!r}",
        ]
        return Invocation(
            command="covariance",
            config_text=_config_text(q0, COVARIANCE_STEPS, extra),
            extra_argv=(),
            q0=q0,
            epsilon=EPSILON,
            steps=COVARIANCE_STEPS,
            alpha=alpha,
            epsilons=COVARIANCE_EPSILONS,
            total_proper_time=COVARIANCE_TOTAL_PROPER_TIME,
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
