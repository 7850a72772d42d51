"""Spans around fedcarbon's layer boundaries, recorded from outside.

The tracer replaces each public function where its caller looks it up
(`fedcarbon.sim.assign_samples`, not `fedcarbon.partition.assign_samples`,
because sim imported the name) and restores the originals afterwards.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    invocation: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


class Recorder:
    """In-memory span log with a stack of the spans now open."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.invocation = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.invocation))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")
        self.spans[index].end = self.clock()

    def is_open(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    def wrap(self, fn: Callable, name: str,
             note: Callable[[dict, tuple, dict, Any], None] | None = None) -> Callable:
        """fn inside a span; `note` may add counts to the span's attrs.

        A call made while a span of the same name is open (fedavg_aggregate
        calling weighted_delta, say) is not recorded again, so a layer's
        time is never counted twice.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.is_open(name):
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if note is not None:
                note(self.spans[index].attrs, args, kwargs, result)
            return result
        return traced


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON array per line: invocation, name, start, end, parent, attrs.

    parent indexes the spans of the same invocation, in file order.
    """
    with path.open("w") as f:
        for s in spans:
            f.write(json.dumps([s.invocation, s.name, s.start, s.end, s.parent,
                                s.attrs]) + "\n")


# --- what each boundary counts ------------------------------------------

def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _note_train_local(attrs, args, kwargs, result):
    attrs["samples"] = len(_arg(args, kwargs, 2, "shard")) * _arg(args, kwargs, 4, "epochs")


def _note_make_task(attrs, args, kwargs, result):
    attrs["key"] = repr((args, sorted(kwargs.items())))


def _note_lda_partition(attrs, args, kwargs, result):
    attrs["alpha"] = float(_arg(args, kwargs, 1, "alpha"))


def _note_assign_samples(attrs, args, kwargs, result):
    attrs["clients"] = len(result.per_client)
    attrs["warnings"] = int(result.exhaustion_warnings)


def _note_schedule_from_dict(attrs, args, kwargs, result):
    attrs["entries"] = len(result.participation)


# (module, attribute, span name, note).  Each name is replaced where its
# caller looks it up: cli and optimize imported their names from carbon,
# sim imported its names from partition, and the live optimize runner
# imports run_experiment from sim when it is built.
TARGETS = (
    ("fedcarbon.cli", "load_config", "profiles.load_config", None),
    ("fedcarbon.cli", "run_experiment", "sim.run_experiment", None),
    ("fedcarbon.cli", "schedule_from_dict", "carbon.schedule_from_dict",
     _note_schedule_from_dict),
    ("fedcarbon.cli", "schedule_to_dict", "carbon.schedule_to_dict", None),
    ("fedcarbon.cli", "estimate_fl", "carbon.estimate_fl", None),
    ("fedcarbon.cli", "grid_search", "optimize.grid_search", None),
    ("fedcarbon.optimize", "estimate_fl", "carbon.estimate_fl", None),
    ("fedcarbon.optimize", "schedule_prefix", "carbon.schedule_prefix", None),
    ("fedcarbon.sim", "run_experiment", "sim.run_experiment", None),
    ("fedcarbon.sim", "make_task", "sim.make_task", _note_make_task),
    ("fedcarbon.sim", "lda_partition", "partition.lda_partition", _note_lda_partition),
    ("fedcarbon.sim", "assign_samples", "partition.assign_samples", _note_assign_samples),
    ("fedcarbon.sim", "simulate", "sim.simulate", None),
    ("fedcarbon.sim", "select_clients", "sim.select_clients", None),
    ("fedcarbon.sim", "train_local", "sim.train_local", _note_train_local),
    ("fedcarbon.sim", "fedavg_aggregate", "sim.aggregate", None),
    ("fedcarbon.sim", "fedadam_aggregate", "sim.aggregate", None),
    ("fedcarbon.sim", "weighted_delta", "sim.aggregate", None),
)


class Tracer:
    """Installs the span wrappers on enter and restores the originals on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        import importlib

        rec = self.recorder
        for module_name, attr, span_name, note in TARGETS:
            module = importlib.import_module(module_name)
            self._replace(module, attr, rec.wrap(getattr(module, attr), span_name, note))

        sim = importlib.import_module("fedcarbon.sim")
        # accuracy is a method, so it is wrapped on the class.
        self._replace(sim.ModelSpec, "accuracy",
                      rec.wrap(sim.ModelSpec.accuracy, "sim.evaluate"))

        cli = importlib.import_module("fedcarbon.cli")
        make_runner = cli.make_simulation_runner

        @functools.wraps(make_runner)
        def traced_make_runner(*args, **kwargs):
            return rec.wrap(make_runner(*args, **kwargs), "optimize.cell")

        self._replace(cli, "make_simulation_runner", traced_make_runner)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --- per-layer metrics --------------------------------------------------

PER_LAYER_UNITS = {
    "sim.train_local.calls": "count",
    "sim.train_local.samples": "count",
    "sim.train_local.s": "s",
    "partition.lda_partition.calls": "count",
    "partition.lda_partition.s": "s",
    "partition.assign_samples.calls": "count",
    "partition.assign_samples.s": "s",
    "partition.redraw_ratio": "ratio",
    "partition.reuse_ratio": "ratio",
    "sim.make_task.calls": "count",
    "sim.make_task.s": "s",
    "sim.task_reuse_ratio": "ratio",
    "sim.evaluate.calls": "count",
    "sim.evaluate.s": "s",
    "sim.aggregate.s": "s",
    "sim.select_clients.s": "s",
    "sim.simulate.self_s": "s",
    "carbon.schedule_to_dict.s": "s",
    "carbon.schedule_from_dict.entries": "count",
    "carbon.schedule_from_dict.s": "s",
    "carbon.estimate_fl.calls": "count",
    "carbon.estimate_fl.s": "s",
    "carbon.schedule_prefix.s": "s",
    "optimize.pricing_calls_per_cell": "ratio",
    "optimize.cell_ms.p50": "ms",
    "optimize.cell_ms.p75": "ms",
    "profiles.load_config.s": "s",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def invocation_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation (one cli.main root).

    A layer that the invocation never reached reads 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def distinct(name: str, key: str) -> int:
        return len({spans[i].attrs[key] for i in by_name.get(name, ())})

    m: dict[str, float] = {}
    m["sim.train_local.calls"] = calls("sim.train_local")
    m["sim.train_local.samples"] = attr_sum("sim.train_local", "samples")
    m["sim.train_local.s"] = total("sim.train_local")
    for layer in ("lda_partition", "assign_samples"):
        m[f"partition.{layer}.calls"] = calls(f"partition.{layer}")
        m[f"partition.{layer}.s"] = total(f"partition.{layer}")
    m["partition.redraw_ratio"] = _ratio(attr_sum("partition.assign_samples", "warnings"),
                                         attr_sum("partition.assign_samples", "clients"))
    m["partition.reuse_ratio"] = _ratio(distinct("partition.lda_partition", "alpha"),
                                        calls("partition.lda_partition"))
    m["sim.make_task.calls"] = calls("sim.make_task")
    m["sim.make_task.s"] = total("sim.make_task")
    m["sim.task_reuse_ratio"] = _ratio(distinct("sim.make_task", "key"),
                                       calls("sim.make_task"))
    m["sim.evaluate.calls"] = calls("sim.evaluate")
    m["sim.evaluate.s"] = total("sim.evaluate")
    m["sim.aggregate.s"] = total("sim.aggregate")
    m["sim.select_clients.s"] = total("sim.select_clients")
    m["sim.simulate.self_s"] = sum(selfs[i] for i in by_name.get("sim.simulate", ()))
    m["carbon.schedule_to_dict.s"] = total("carbon.schedule_to_dict")
    m["carbon.schedule_from_dict.entries"] = attr_sum("carbon.schedule_from_dict", "entries")
    m["carbon.schedule_from_dict.s"] = total("carbon.schedule_from_dict")
    m["carbon.estimate_fl.calls"] = calls("carbon.estimate_fl")
    m["carbon.estimate_fl.s"] = total("carbon.estimate_fl")
    m["carbon.schedule_prefix.s"] = total("carbon.schedule_prefix")
    in_cells = sum(1 for i in by_name.get("carbon.estimate_fl", ())
                   if _inside(spans, i, "optimize.cell"))
    m["optimize.pricing_calls_per_cell"] = _ratio(in_cells, calls("optimize.cell"))
    m["profiles.load_config.s"] = total("profiles.load_config")
    m["cli.self_s"] = sum(selfs[i] for i in by_name.get("cli.main", ()))
    return m


def _inside(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def cell_ms(spans: list[Span]) -> list[float]:
    return [1000.0 * s.duration for s in spans if s.name == "optimize.cell"]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
