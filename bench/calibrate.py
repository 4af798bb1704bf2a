"""Calibration kernels: the machine's current speed, measured in-process.

On a shared virtual machine the same code runs up to ~1.7x slower for
spells of seconds to minutes, while the ratio between two pieces of
CPU-bound Python code stays within a few percent.  Creating small files
varies even more (up to ~10x in kernel time), in spells of its own.  The
benchmark therefore times two fixed kernels, which do not use properflow,
right after every timed operation in the same process:

- ``cpu_seconds``: small numpy calls (a 2x2 ``eig``), scalar float math,
  list building and float formatting, the mix of properflow's hot path;
- ``io_seconds``: IO_FILES small files written the way the CLI writes its
  outputs (temporary file, then rename).

An operation's time in kernel mode (``ru_stime``, almost all file
creation) is scaled by ``REFERENCE_IO_S / io_seconds`` and the rest of its
wall time by ``REFERENCE_CPU_S / cpu_seconds``: the time the operation
would have taken at the reference speed.  A single kernel run is noisy, so
each operation is paired with the median of the runs made right before and
right after it, with more runs after a longer operation (``runs_after``).
Scaling all wall time by the CPU kernel alone leaves ``ensemble-wide``,
whose kernel-mode share moves between 9 % and 41 %, about as noisy as raw
wall time (bench/README.md has the measured spreads).
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

# Kernel seconds on the reference machine, a 2-vCPU Intel Xeon VM with
# Python 3.11.7 and numpy 2.4.6.  Constants, so that scaled timings of two
# commits are comparable.
REFERENCE_CPU_S = 0.0045
REFERENCE_IO_S = 0.004

CPU_ITERATIONS = 250
IO_FILES = 20

# Kernel runs after an operation: one per this many seconds of it, 1 to 5.
SECONDS_PER_RUN = 0.2
MAX_RUNS = 5

_MATRIX = np.array([[2.0, 0.3], [-0.3, 1.0]])
_IO_TEXT = "0.123456789012345678," * 150


def cpu_kernel() -> float:
    acc = 0.0
    for _ in range(CPU_ITERATIONS):
        vals, vecs = np.linalg.eig(_MATRIX)
        acc += math.sqrt(abs(float(vals[0]))) + float(vecs[0, 0])
        acc += sum([float(j) * 1.0001 for j in range(16)])
        acc += len(format(acc, ".17g"))
    return acc


def cpu_seconds() -> float:
    """Wall seconds of one CPU kernel run."""
    t0 = time.perf_counter()
    cpu_kernel()
    return time.perf_counter() - t0


def io_seconds(directory: Path) -> float:
    """Wall seconds to write IO_FILES files into the new ``directory``.

    The files stay in place: deleting them would slow the next file
    creations, the timed operation's included.
    """
    directory.mkdir(parents=True)
    t0 = time.perf_counter()
    for i in range(IO_FILES):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"f{i:02d}", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(_IO_TEXT)
        os.replace(tmp, directory / f"f{i:02d}.csv")
    return time.perf_counter() - t0


def runs_after(operation_s: float) -> int:
    """How many runs of each kernel to make after an operation that long."""
    return max(1, min(MAX_RUNS, round(operation_s / SECONDS_PER_RUN)))


def scaled_seconds(wall_s: float, kernel_mode_s: float, cpu_s: float, io_s: float) -> float:
    """``wall_s`` at reference speed, given the paired kernel times."""
    kernel_mode_s = min(kernel_mode_s, wall_s)
    return (
        (wall_s - kernel_mode_s) * REFERENCE_CPU_S / cpu_s
        + kernel_mode_s * REFERENCE_IO_S / io_s
    )
