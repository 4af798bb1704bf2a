"""Span tracing of properflow's layers from outside the library.

``install`` replaces each traced public function wherever a properflow
module binds it (``properflow.integrator.eigenflows``,
``properflow.cli.integrate``, ...) with a wrapper that records a span:
name, start, end and the enclosing span.  Model evaluations are traced on
every ``WaveModel`` subclass, outermost call only, so a ``BoostedModel``
delegating to its base counts once.  A function the library no longer has
is skipped and reads as 0 calls.

Spans live in flat arrays while the workload runs and are written to disk
once at the end; ``self_times`` turns them into per-span self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS: tuple[str, ...] = (
    "wavefield.fields",
    "wavefield.contains",
    "wavefield.log_derivatives",
    "stress_energy.assemble",
    "stress_energy.eigenflows",
    "minkowski.proper_step",
    "integrator.integrate",
    "integrator.sample_hyperplane",
    "covariance.compare_frames",
    "covariance.convergence_study",
    "cli.load_config",
    "cli.format",
    "cli.main",
)

# (layer, module, attribute) for plain functions.
_FUNCTIONS = (
    ("wavefield.log_derivatives", "properflow.wavefield", "log_derivatives"),
    ("stress_energy.assemble", "properflow.stress_energy", "assemble"),
    ("stress_energy.eigenflows", "properflow.stress_energy", "eigenflows"),
    ("minkowski.proper_step", "properflow.minkowski", "proper_step"),
    ("integrator.integrate", "properflow.integrator", "integrate"),
    ("integrator.sample_hyperplane", "properflow.integrator", "sample_hyperplane"),
    ("covariance.compare_frames", "properflow.covariance", "compare_frames"),
    ("covariance.convergence_study", "properflow.covariance", "convergence_study"),
    ("cli.load_config", "properflow.cli", "load_config"),
    ("cli.format", "properflow.cli", "trajectory_csv"),
    ("cli.format", "properflow.cli", "emit_svg"),
    ("cli.format", "properflow.cli", "ensemble_summary_csv"),
    ("cli.format", "properflow.cli", "comparison_csv"),
    ("cli.format", "properflow.cli", "convergence_csv"),
)

# Counter names recorded at the span boundaries.
FIELD_POINTS = "wavefield.fields.points"
BOOSTED_CALLS = "wavefield.fields.boosted_calls"
SAMPLE_POINTS = "integrator.sample_hyperplane.points"
SAMPLE_DRAWS = "integrator.sample_hyperplane.draws"

_NAME_FILE = "spans_name.bin"
_START_FILE = "spans_start.bin"
_END_FILE = "spans_end.bin"
_PARENT_FILE = "spans_parent.bin"
_META_FILE = "trace.json"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._open: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def is_open(self, name: str) -> bool:
        """True while a span of ``name`` is on the stack."""
        nid = self._ids.get(name)
        return nid is not None and self._open[nid] > 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, outermost: bool = False, after=None):
        """``fn`` recording a span named ``name`` per call.

        With ``outermost`` a call made while a span of the same name is
        open runs untraced.  ``after(args, result)`` runs after each traced
        call that returns.
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, opened = self._stack, self._open
        names, starts, ends, parents = self.name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and opened[nid]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            opened[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                opened[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, directory: Path) -> None:
        directory = Path(directory)
        for arr, fname in (
            (self.name, _NAME_FILE),
            (self.start, _START_FILE),
            (self.end, _END_FILE),
            (self.parent, _PARENT_FILE),
        ):
            with open(directory / fname, "wb") as handle:
                arr.tofile(handle)
        meta = {"names": self.names, "counters": self.counters}
        (directory / _META_FILE).write_text(json.dumps(meta))


def load(directory: Path):
    """(names, name_ids, starts, ends, parents, counters) written by ``dump``."""
    directory = Path(directory)
    meta = json.loads((directory / _META_FILE).read_text())
    arrays = []
    for code, fname in (("i", _NAME_FILE), ("d", _START_FILE), ("d", _END_FILE), ("i", _PARENT_FILE)):
        arr = array(code)
        path = directory / fname
        with open(path, "rb") as handle:
            arr.frombytes(handle.read())
        arrays.append(arr)
    return (meta["names"], *arrays, meta["counters"])


def self_times(starts, ends, parents) -> list[float]:
    """Per-span self time: duration minus the union of its children.

    Spans must be listed in order of start time, as a tracer appends them.
    Child intervals are clipped to the parent's and overlapping children
    are counted once.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def _rebind(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "properflow" or modname.startswith("properflow.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Trace every layer of an imported properflow package."""
    import numpy as np

    for name, modname, attr in _FUNCTIONS:
        tracer.name_id(name)
        module = sys.modules.get(modname)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            continue
        after = None
        if name == "integrator.sample_hyperplane":
            def after(args, result):
                tracer.count(SAMPLE_DRAWS, len(result))
        _rebind(original, tracer.wrap(name, original, after=after))

    wavefield = sys.modules["properflow.wavefield"]
    base = getattr(wavefield, "WaveModel", None)
    boosted_cls = getattr(wavefield, "BoostedModel", None)

    def after_fields(args, result):
        points = np.broadcast(*args[1:5]).size
        tracer.count(FIELD_POINTS, points)
        if tracer.is_open("integrator.sample_hyperplane"):
            tracer.count(SAMPLE_POINTS, points)
        if boosted_cls is not None and isinstance(args[0], boosted_cls):
            tracer.count(BOOSTED_CALLS)

    for method, layer, after in (
        ("fields", "wavefield.fields", after_fields),
        ("contains", "wavefield.contains", None),
    ):
        tracer.name_id(layer)
        if base is None:
            continue
        for cls in list(vars(wavefield).values()):
            if isinstance(cls, type) and issubclass(cls, base) and method in vars(cls):
                setattr(cls, method, tracer.wrap(layer, vars(cls)[method], outermost=True, after=after))
