"""The simulate-cross-device check counts the schedule's participations."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from workloads import SimulateCrossDevice  # noqa: E402

HARDWARE = {"name": "tx2-cifar10", "active_power_w": 4.7, "idle_power_w": 1.35,
            "kind": "edge", "time_per_local_epoch_s": 0.8}
EXPECT = {"samples_per_client": 16, "local_epochs": 1}


def _write(directory: Path, entries: list[dict], rounds: int) -> None:
    # Each round's cumulative energy re-priced from the entries up to it.
    rows, wh = [], 0.0
    for r in range(rounds):
        wh += sum(e["wall_time_s"] * 4.7 for e in entries if e["round"] == r) / 3600.0
        rows.append(f"{r + 1},0.5,{wh!r}")
    (directory / "run.csv").write_text(
        "# seed=1\nround,accuracy,cumulative_wh\n" + "\n".join(rows) + "\n")
    (directory / "run.schedule.json").write_text(
        json.dumps({"rounds": rounds, "participation": entries}))


def _entries(w: SimulateCrossDevice) -> list[dict]:
    return [{"round": r, "client": c, "wall_time_s": 0.8, "hardware": HARDWARE}
            for r in range(w.rounds) for c in range(w.clients_per_round)]


def test_full_schedule_passes_and_counts_expected_work(tmp_path):
    w = SimulateCrossDevice()
    _write(tmp_path, _entries(w), w.rounds)
    out = w.check(tmp_path, w.expected_exit, EXPECT)
    assert out.problems == []
    assert out.work_items == w.rounds * w.clients_per_round * 16


def test_dropped_participation_fails(tmp_path):
    w = SimulateCrossDevice()
    entries = _entries(w)
    del entries[5]
    _write(tmp_path, entries, w.rounds)
    assert w.check(tmp_path, w.expected_exit, EXPECT).problems


def test_duplicated_participation_fails(tmp_path):
    w = SimulateCrossDevice()
    entries = _entries(w)
    entries.append(dict(entries[-1]))
    _write(tmp_path, entries, w.rounds)
    assert w.check(tmp_path, w.expected_exit, EXPECT).problems
