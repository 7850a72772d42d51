"""Span recorder: self time, nesting, and the tracer's install/restore."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0)


def test_self_time_without_children_is_duration():
    assert spans.self_times([_span("a", 1.0, 4.0)]) == [3.0]


def test_self_time_subtracts_only_direct_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("child", 2.0, 6.0, parent=0),
        _span("grandchild", 3.0, 4.0, parent=1),
    ]
    assert spans.self_times(tree) == [6.0, 3.0, 1.0]


def test_adjacent_children_are_both_subtracted():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 3.0, 5.0, parent=0),
    ]
    assert spans.self_times(tree)[0] == 6.0


def test_overlapping_children_count_once():
    assert spans.covered(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == 5.0


def test_children_are_clipped_to_the_parent():
    assert spans.covered(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0)]) == 2.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_nests_and_skips_repeated_layer():
    rec = spans.Recorder(clock=FakeClock())

    def inner(x):
        return x + 1

    wrapped_inner = rec.wrap(inner, "layer.inner")

    def outer(x):
        # Same span name as the caller: recorded once, not twice.
        return same(wrapped_inner(x))

    same = rec.wrap(lambda x: x * 2, "layer.outer")
    wrapped_outer = rec.wrap(outer, "layer.outer",
                             note=lambda attrs, a, kw, res: attrs.update(result=res))
    assert wrapped_outer(3) == 8
    names = [s.name for s in rec.spans]
    assert names == ["layer.outer", "layer.inner"]
    assert rec.spans[1].parent == 0
    assert rec.spans[0].attrs == {"result": 8}
    assert spans.self_times(rec.spans) == [2.0, 1.0]


def test_spans_must_close_in_order():
    rec = spans.Recorder()
    a = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(a)


def test_write_spans_one_line_each(tmp_path):
    path = tmp_path / "spans.jsonl"
    spans.write_spans(path, [_span("a", 0.0, 1.0), _span("b", 0.2, 0.4, parent=0)])
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [[0, "a", 0.0, 1.0, -1, {}], [0, "b", 0.2, 0.4, 0, {}]]


def test_tracer_sees_every_layer_and_restores_the_program(tmp_path):
    import fedcarbon.cli as cli
    import fedcarbon.sim as sim

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "mode": "fl", "hardware": "tx2-cifar10", "grid": "france", "seed": 3,
        "fl": {"pool_size": 4, "clients_per_round": 2, "rounds": 3, "local_epochs": 2},
        "sim": {"classes": 3, "features": 4, "n_samples": 200, "target_accuracy": 1.0},
    }))
    before = (sim.train_local, sim.ModelSpec.accuracy, cli.run_experiment)
    rec = spans.Recorder()
    with spans.Tracer(rec):
        root = rec.begin("cli.main")
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")])
        rec.end(root)
    assert code == 3  # target 1.0 is never reached
    assert (sim.train_local, sim.ModelSpec.accuracy, cli.run_experiment) == before

    m = spans.invocation_metrics(rec.spans)
    assert m["sim.train_local.calls"] == 2 * 3
    # 160 training samples over 4 clients, 2 local epochs each.
    assert m["sim.train_local.samples"] == 2 * 3 * 40 * 2
    assert m["sim.evaluate.calls"] == 3
    assert m["sim.make_task.calls"] == m["partition.lda_partition.calls"] == 1
    assert m["partition.assign_samples.calls"] == 1
    assert m["carbon.schedule_to_dict.s"] > 0
    assert m["carbon.schedule_from_dict.entries"] == 0
    assert 0 < m["cli.self_s"] < rec.spans[0].duration
    parents = {rec.spans[s.parent].name for s in rec.spans if s.name == "sim.train_local"}
    assert parents == {"sim.simulate"}
