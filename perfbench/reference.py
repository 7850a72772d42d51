"""A fixed reference computation that measures how fast the machine is now.

The benchmark times this kernel before and after every CLI call and
reports the call's wall time as a multiple of it.  On a shared machine
whose speed drifts by tens of per cent over minutes, the multiple stays
put while raw seconds do not.  The kernel mixes what fedcarbon spends its
time on: Python object churn, JSON encode and decode, small matrix
products, and sorting and counting over vectors of tens of thousands of elements.  It never
touches fedcarbon, so no change to the program changes the kernel, and
it runs with the garbage collector off, so the objects a program keeps
alive cannot slow it.

Set-up time, which is mostly interpreter start and imports, follows the
machine's speed less closely than the kernel does, so it is divided by
setup_reference_seconds: the geometric mean of the kernel and of a bare
interpreter that starts and imports numpy.
"""

from __future__ import annotations

import gc
import json
import math
import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(20210215)
_X = _RNG.standard_normal((32, 13))
_W = _RNG.standard_normal((10, 13))
_V = _RNG.random(50_000)
# Many small repeats keep the kernel's memory to about a megabyte, so it
# does not raise the peak resident set the benchmark reports.
_REPEATS = 18  # about 0.1 s on an idle 2.1 GHz Xeon core

# A bare interpreter that prints the time once numpy is imported.
_INTERPRETER_PROBE = "import time, numpy; print(repr(time.monotonic()))"

# setup_s is reported in seconds of a machine on which
# setup_reference_seconds() reads this much.
SETUP_REFERENCE_NOMINAL_S = 0.1


class _Row:
    __slots__ = ("round", "client", "wall")

    def __init__(self, r: int, c: int, w: float):
        self.round, self.client, self.wall = r, c, w


def _kernel() -> float:
    acc = 0.0
    for _ in range(50):
        z = _X @ _W.T
        z -= z.max(axis=1, keepdims=True)
        acc += float(np.exp(z).sum())
    rows = [{"round": i // 100, "client": i % 997, "wall_time_s": i * 0.5}
            for i in range(2_000)]
    parsed = json.loads(json.dumps(rows))
    objs = [_Row(d["round"], d["client"], d["wall_time_s"]) for d in parsed]
    acc += sum(o.wall for o in objs)
    acc += float(np.sort(_V)[1000] + np.bincount((_V * 100).astype(np.int64)).max())
    return acc


def reference_seconds() -> float:
    """Wall time of one run of the kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def interpreter_seconds() -> float:
    """Wall time from starting a bare interpreter to its having imported numpy."""
    start = time.monotonic()  # system-wide clock, comparable with the child's
    out = subprocess.run([sys.executable, "-c", _INTERPRETER_PROBE],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout) - start


def setup_reference_seconds() -> float:
    """Geometric mean of one kernel run and one bare interpreter start."""
    return math.sqrt(reference_seconds() * interpreter_seconds())
