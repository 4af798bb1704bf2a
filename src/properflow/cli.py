"""Command-line front end: simulate, ensemble, covariance.

Config files are flat ``key = value`` lines under bracketed section
headers; blank lines and lines starting with ``#`` are ignored, and
unknown sections or keys are rejected with their line number.  Example::

    [model]
    L = 3.141592653589793
    m = 1.0
    n_a = 1
    n_b = 2

    [run]
    z1 = 1.0
    t1 = 0.0
    z2 = 2.0
    t2 = 0.0
    epsilon = 0.01
    steps = 500
    scheme = midpoint

    [boost]
    velocity = 0.3
    epsilons = 0.02 0.01 0.005
    total_proper_time = 2.0

    [ensemble]
    count = 100
    weighting = uniform
    seed = 1

The keys, their parsers and which are required form one table,
``_SCHEMA``.  Exit codes: 0 success, 2 config error or unwritable output,
3 node abort, 4 degenerate flow or sampling failure, 5 boundary abort, 6
frame-comparison failure.  Each is the ``exit_code`` of an error class
(``ConfigError`` here, the rest in ``errors``); a partial run exits with
``Trajectory.exit_code``, the code of the class whose tag ended it.
Aborted runs still write their partial trajectory before exiting nonzero.
All files are written atomically (temp file plus rename) and contain no
timestamps, so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ComparisonFailure, FlowError, LightlikeVelocityError, SamplingError
from .minkowski import Rapidity, rapidity_from_velocity
from .wavefield import ConfigPoint, WaveModel, boosted, box_mode, entangled_pair
from .integrator import DEFAULT_SCHEME, SCHEMES, Trajectory, integrate, sample_hyperplane
from .covariance import compare_frames, convergence_study, step_count

CSV_HEADER = "sigma,z1,t1,z2,t2,v1,v2,lambda1,lambda2"


class ConfigError(Exception):
    """Malformed or invalid run configuration, or an unwritable output."""

    exit_code = 2


@dataclass(frozen=True)
class EnsembleSpec:
    count: int
    weighting: str
    seed: int


@dataclass(frozen=True)
class RunConfig:
    L: float
    m: float
    n_a: int
    n_b: int
    q0: ConfigPoint
    epsilon: float
    n_steps: int
    scheme: str
    out_dir: Path
    model_boost: Rapidity | None = None
    boost: Rapidity | None = None
    epsilons: tuple[float, ...] | None = None
    total_proper_time: float | None = None
    ensemble: EnsembleSpec | None = None
    echo: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class PlotSpec:
    """World-line plot layout: one panel per listed particle, z running
    horizontally and t vertically, sigma-index labels every ``label_stride``
    records."""

    particles: tuple[int, ...] = (1, 2)
    label_stride: int = 10
    width: int = 880
    height: int = 460


def _number(text: str) -> float:
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {text!r}")
    return number


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _numbers(text: str) -> tuple[float, ...]:
    try:
        items = tuple(float(part) for part in text.split())
    except ValueError:
        raise ValueError(f"not a space-separated number list: {text!r}") from None
    if not items:
        raise ValueError("empty list")
    if not all(math.isfinite(x) for x in items):
        raise ValueError(f"not all finite: {text!r}")
    return items


# section -> key -> (parser, required).  A section with a required key is
# itself required; the config echo lists the sections in this order.
_SCHEMA = {
    "model": {
        "L": (_number, True), "m": (_number, True),
        "n_a": (_integer, True), "n_b": (_integer, True),
        "boost_velocity": (_number, False), "boost_alpha": (_number, False),
    },
    "run": {
        "z1": (_number, True), "t1": (_number, True),
        "z2": (_number, True), "t2": (_number, True),
        "epsilon": (_number, True), "steps": (_integer, True), "scheme": (str, False),
    },
    "boost": {
        "velocity": (_number, False), "alpha": (_number, False),
        "epsilons": (_numbers, False), "total_proper_time": (_number, False),
    },
    "ensemble": {"count": (_integer, False), "weighting": (str, False), "seed": (_integer, False)},
}


class _Values:
    """Parsed values of one config file, each with its line number."""

    def __init__(self, sections: dict[str, dict[str, tuple[object, int]]]):
        self.sections = sections

    def get(self, section: str, key: str):
        entry = self.sections.get(section, {}).get(key)
        return None if entry is None else entry[0]

    def check(self, ok: bool, section: str, key: str, problem: str) -> None:
        """Raise ``ConfigError("section.key (line N): problem")`` unless ok."""
        if not ok:
            line = self.sections[section][key][1]
            raise ConfigError(f"{section}.{key} (line {line}): {problem}")


def _parse_lines(text: str, origin: str) -> tuple[_Values, list[str]]:
    """The file's values, parsed and checked against ``_SCHEMA``, and its
    ``section.key = value`` echo lines."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{origin}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{origin}:{lineno}: unknown key {current}.{key}")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {current}.{key}")
        sections[current][key] = (value, lineno)
    for section, keys in _SCHEMA.items():
        needed = {key for key, (_, required) in keys.items() if required}
        if needed and section not in sections:
            raise ConfigError(f"{origin}: missing required section [{section}]")
        missing = needed - set(sections.get(section, ()))
        if missing:
            raise ConfigError(
                f"{origin}: section [{section}] missing keys: {', '.join(sorted(missing))}"
            )
    echo = [
        f"{section}.{key} = {sections[section][key][0]}"
        for section in _SCHEMA
        if section in sections
        for key in sorted(sections[section])
    ]
    values = _Values(sections)
    for section, entries in sections.items():
        for key, (value, lineno) in entries.items():
            try:
                entries[key] = (_SCHEMA[section][key][0](value), lineno)
            except ValueError as err:
                values.check(False, section, key, str(err))
    return values, echo


def _rapidity_from(raw: _Values, section: str, vel_key: str, alpha_key: str) -> Rapidity | None:
    velocity = raw.get(section, vel_key)
    alpha = raw.get(section, alpha_key)
    if velocity is not None and alpha is not None:
        raise ConfigError(f"{section}: give exactly one of {vel_key} or {alpha_key}")
    if velocity is not None:
        try:
            return rapidity_from_velocity(velocity)
        except LightlikeVelocityError as err:
            raw.check(False, section, vel_key, str(err))
    if alpha is not None:
        try:
            math.cosh(alpha)
        except OverflowError:
            raw.check(False, section, alpha_key, f"cosh of rapidity {alpha!r} overflows")
        return Rapidity(alpha)
    return None


def load_config(
    path: Path,
    out_dir: Path,
    scheme_override: str | None = None,
    seed_override: int | None = None,
) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    raw, echo = _parse_lines(text, str(path))
    get, check = raw.get, raw.check

    L, m, n_a, n_b = (get("model", key) for key in ("L", "m", "n_a", "n_b"))
    check(L > 0.0, "model", "L", "must be > 0")
    check(m >= 0.0, "model", "m", "must be >= 0")
    for key, n in (("n_a", n_a), ("n_b", n_b)):
        check(n >= 1, "model", key, "must be >= 1")
        # A mode frequency that overflows is blamed on the first of L, n, m
        # with which it overflows while the later ones are at their mildest.
        for blame, args in (("L", (1, L, 0.0)), (key, (n, L, 0.0)), ("m", (n, L, m))):
            try:
                box_mode(*args)
            except ValueError as err:
                check(False, "model", blame, str(err))
    model_boost = _rapidity_from(raw, "model", "boost_velocity", "boost_alpha")

    q0 = ConfigPoint(*(get("run", key) for key in ("z1", "t1", "z2", "t2")))
    epsilon = get("run", "epsilon")
    n_steps = get("run", "steps")
    scheme = get("run", "scheme") or DEFAULT_SCHEME
    if scheme_override is not None:
        scheme = scheme_override
        echo.append(f"override.scheme = {scheme_override}")
    check(epsilon > 0.0, "run", "epsilon", "must be > 0")
    check(n_steps >= 1, "run", "steps", "must be >= 1")
    bad_scheme = f"must be one of {', '.join(SCHEMES)}, got {scheme!r}"
    if scheme_override is not None and scheme not in SCHEMES:
        raise ConfigError(f"--scheme: {bad_scheme}")
    check(scheme in SCHEMES, "run", "scheme", bad_scheme)

    boost_rapidity = None
    epsilons = None
    total_proper_time = None
    if "boost" in raw.sections:
        boost_rapidity = _rapidity_from(raw, "boost", "velocity", "alpha")
        if boost_rapidity is None:
            raise ConfigError("boost: needs velocity or alpha")
        epsilons = get("boost", "epsilons")
        total_proper_time = get("boost", "total_proper_time")
        if epsilons is not None:
            if total_proper_time is None:
                raise ConfigError("boost.total_proper_time: required alongside boost.epsilons")
            check(total_proper_time > 0.0, "boost", "total_proper_time", "must be > 0")
            check(len(epsilons) >= 3, "boost", "epsilons", "need at least 3 values")
            check(
                all(b < a for a, b in zip(epsilons, epsilons[1:])),
                "boost", "epsilons", "must be strictly decreasing",
            )
            for e in epsilons:
                try:
                    step_count(e, total_proper_time)
                except ValueError as err:
                    check(False, "boost", "epsilons", str(err))

    ensemble = None
    if "ensemble" in raw.sections:
        count = get("ensemble", "count")
        weighting = get("ensemble", "weighting") or "uniform"
        seed = get("ensemble", "seed") or 0
        if count is None:
            raise ConfigError("ensemble.count: required in an [ensemble] section")
        check(count >= 1, "ensemble", "count", "must be a positive integer")
        check(
            weighting in ("uniform", "eigenvalue"),
            "ensemble", "weighting", f"must be uniform or eigenvalue, got {weighting!r}",
        )
        if seed_override is not None:
            if seed_override < 0:
                raise ConfigError(f"--seed: must be nonnegative, got {seed_override!r}")
            seed = seed_override
        check(seed >= 0, "ensemble", "seed", "must be nonnegative")
        ensemble = EnsembleSpec(count=count, weighting=weighting, seed=seed)

    if seed_override is not None:
        echo.append(f"override.seed = {seed_override}")

    return RunConfig(
        L=L,
        m=m,
        n_a=n_a,
        n_b=n_b,
        q0=q0,
        epsilon=epsilon,
        n_steps=n_steps,
        scheme=scheme,
        out_dir=Path(out_dir),
        model_boost=model_boost,
        boost=boost_rapidity,
        epsilons=epsilons,
        total_proper_time=total_proper_time,
        ensemble=ensemble,
        echo=tuple(echo),
    )


def build_model(cfg: RunConfig) -> WaveModel:
    model: WaveModel = entangled_pair(
        box_mode(cfg.n_a, cfg.L, cfg.m), box_mode(cfg.n_b, cfg.L, cfg.m)
    )
    if cfg.model_boost is not None:
        model = boosted(model, cfg.model_boost)
    return model


def _writer(out_dir: Path):
    """write(name, text) into out_dir, creating the directory on the first
    write; each file goes to a temp file that is then renamed over it.  An
    ``OSError`` becomes a ``ConfigError`` naming the file."""
    made = False

    def write(name: str, text: str) -> None:
        nonlocal made
        try:
            if not made:
                out_dir.mkdir(parents=True, exist_ok=True)
                made = True
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, out_dir / name)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as err:
            raise ConfigError(f"cannot write output {out_dir / name}: {err}") from None

    return write


def _echo_lines(cfg: RunConfig) -> list[str]:
    return [f"# {line}" for line in cfg.echo]


def trajectory_csv(traj: Trajectory, cfg: RunConfig) -> str:
    lines = _echo_lines(cfg)
    lines.append(f"# termination = {traj.termination}")
    lines.append(CSV_HEADER)
    row = ",".join(["%.17g"] * 9)
    for r in traj.records:
        q = r.q
        lines.append(row % (r.sigma, q.z1, q.t1, q.z2, q.t2, r.v1, r.v2, r.lambda1, r.lambda2))
    return "\n".join(lines) + "\n"


def emit_svg(traj: Trajectory, spec: PlotSpec | None = None) -> str:
    """Standalone SVG with one world-line panel per particle.

    Position runs horizontally, coordinate time vertically; every
    ``label_stride``-th record carries its integer sigma index on both
    world lines.  A single-record trajectory is drawn as labeled points
    with no polyline.
    """
    spec = spec or PlotSpec()
    if spec.label_stride < 1:
        raise ValueError(f"label_stride must be >= 1, got {spec.label_stride!r}")
    if not spec.particles:
        raise ValueError("cannot plot without a particle panel")
    if not traj.records:
        raise ValueError("cannot plot an empty trajectory")
    margin = 54.0
    n_panels = len(spec.particles)
    panel_w = (spec.width - margin * (n_panels + 1)) / n_panels
    panel_h = spec.height - 2 * margin
    w, h = spec.width, spec.height
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white" />'
    ]
    for panel, particle in enumerate(spec.particles):
        ts, zs = zip(*(r.q.particle(particle) for r in traj.records))
        x0 = margin + panel * (panel_w + margin)
        y0 = margin

        def span(values):
            lo, hi = min(values), max(values)
            pad = 0.05 * (hi - lo) if hi > lo else 0.5
            return lo - pad, hi + pad

        z_lo, z_hi = span(zs)
        t_lo, t_hi = span(ts)

        def sx(z):
            return x0 + (z - z_lo) / (z_hi - z_lo) * panel_w

        def sy(t):
            return y0 + panel_h - (t - t_lo) / (t_hi - t_lo) * panel_h

        axis = 'text-anchor="middle" font-size="12" fill="#333333"'
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{panel_w:.2f}" height="{panel_h:.2f}" '
            'fill="none" stroke="#333333" stroke-width="1" />'
            f'<text x="{x0 + panel_w / 2:.2f}" y="{y0 - 12:.2f}" text-anchor="middle" '
            f'font-size="14" fill="#333333">particle {particle}</text>'
            f'<text x="{x0 + panel_w / 2:.2f}" y="{y0 + panel_h + 32:.2f}" {axis}>z</text>'
            f'<text x="{x0 - 28:.2f}" y="{y0 + panel_h / 2:.2f}" {axis}>t</text>'
        )
        if len(traj.records) > 1:
            pts = " ".join(f"{sx(z):.3f},{sy(t):.3f}" for z, t in zip(zs, ts))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5" />'
            )
        for j in range(0, len(traj.records), spec.label_stride):
            x, y = sx(zs[j]), sy(ts[j])
            parts.append(
                f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.2" fill="#b03030" />'
                f'<text x="{x + 5:.3f}" y="{y - 4:.3f}" font-size="10" fill="#b03030">{j}</text>'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def ensemble_summary_csv(
    cfg: RunConfig, members: list[tuple[ConfigPoint, Trajectory]]
) -> str:
    lines = _echo_lines(cfg)
    lines.append(
        "member,z1_0,t1_0,z2_0,t2_0,termination,sigma_final,z1_f,t1_f,z2_f,t2_f"
    )
    row = "%d,%.17g,%.17g,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g"
    for k, (q0, traj) in enumerate(members):
        last = traj.records[-1]
        q = last.q
        lines.append(row % (
            k, q0.z1, q0.t1, q0.z2, q0.t2, traj.termination, last.sigma, q.z1, q.t1, q.z2, q.t2
        ))
    return "\n".join(lines) + "\n"


def comparison_csv(comp, cfg: RunConfig) -> str:
    lines = _echo_lines(cfg)
    lines.append("# alpha = %.17g" % comp.alpha.alpha)
    lines.append("# max_deviation = %.17g" % comp.max_deviation)
    lines.append("step,sigma,dev1,dev2,deviation")
    for j, ((d1, d2), d) in enumerate(
        zip(comp.per_particle_deviation, comp.per_step_deviation)
    ):
        lines.append("%d,%.17g,%.17g,%.17g,%.17g" % (j, j * comp.epsilon, d1, d2, d))
    return "\n".join(lines) + "\n"


def convergence_csv(report, cfg: RunConfig) -> str:
    lines = _echo_lines(cfg)
    lines.append("epsilon,max_deviation")
    for e, d in zip(report.epsilons, report.deviations):
        lines.append("%.17g,%.17g" % (e, d))
    if report.fitted_order is None:
        lines.append("# fitted_order = n/a (deviations below rounding floor)")
    else:
        lines.append("# fitted_order = %.17g" % report.fitted_order)
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig) -> int:
    model = build_model(cfg)
    traj = integrate(model, cfg.q0, cfg.epsilon, cfg.n_steps, cfg.scheme)
    write = _writer(cfg.out_dir)
    write("trajectory.csv", trajectory_csv(traj, cfg))
    write("trajectory.svg", emit_svg(traj))
    if not traj.completed:
        print(f"simulate: terminated early: {traj.termination}", file=sys.stderr)
    return traj.exit_code


def cmd_ensemble(cfg: RunConfig) -> int:
    if cfg.ensemble is None:
        raise ConfigError("ensemble command needs an [ensemble] section")
    model = build_model(cfg)
    points = sample_hyperplane(
        model, cfg.ensemble.count, cfg.ensemble.weighting, cfg.ensemble.seed
    )
    # All members are stepped in lockstep; a member whose start fails
    # raises when reached, after the members before it are written.
    trajectories = integrate(model, points, cfg.epsilon, cfg.n_steps, cfg.scheme)
    write = _writer(cfg.out_dir)
    members: list[tuple[ConfigPoint, Trajectory]] = []
    exit_code = 0
    for k, (q0, traj) in enumerate(zip(points, trajectories)):
        members.append((q0, traj))
        write(f"member_{k:03d}.csv", trajectory_csv(traj, cfg))
        if exit_code == 0 and not traj.completed:
            exit_code = traj.exit_code
            print(
                f"ensemble: member {k} terminated early: {traj.termination}",
                file=sys.stderr,
            )
    write("summary.csv", ensemble_summary_csv(cfg, members))
    return exit_code


def cmd_covariance(cfg: RunConfig) -> int:
    if cfg.boost is None:
        raise ConfigError("covariance command needs a [boost] section")
    model = build_model(cfg)
    comp = compare_frames(model, cfg.q0, cfg.boost, cfg.epsilon, cfg.n_steps, cfg.scheme)
    write = _writer(cfg.out_dir)
    write("comparison.csv", comparison_csv(comp, cfg))
    if cfg.epsilons is not None:
        report = convergence_study(
            model, cfg.q0, cfg.boost, cfg.epsilons, cfg.total_proper_time, cfg.scheme
        )
        write("convergence.csv", convergence_csv(report, cfg))
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="properflow",
        description="Equal-proper-time flow trajectories for entangled two-particle states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("simulate", "integrate one trajectory and write CSV + SVG"),
        ("ensemble", "integrate an ensemble from sampled hyperplane points"),
        ("covariance", "compare trajectories across boosted frames"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, type=Path, help="run configuration file")
        cmd.add_argument("--out", required=True, type=Path, help="output directory")
        cmd.add_argument("--scheme", choices=SCHEMES, help="override run.scheme")
        cmd.add_argument("--seed", type=int, help="override ensemble.seed")
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "ensemble": cmd_ensemble,
        "covariance": cmd_covariance,
    }
    try:
        cfg = load_config(
            args.config, args.out, scheme_override=args.scheme, seed_override=args.seed
        )
        return handlers[args.command](cfg)
    except (ConfigError, FlowError, ComparisonFailure, SamplingError) as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        return err.exit_code


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
