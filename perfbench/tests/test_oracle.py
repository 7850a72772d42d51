"""The benchmark's independent CO2e recomputation on a hand-sized schedule."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402

# Three entries: wall s, active W, idle W.
WALL = [10.0, 20.0, 30.0]
ACTIVE = [4.0, 5.0, 6.0]
IDLE = [1.0, 1.0, 2.0]
LINK = dict(model_size_mb=100.0, download_mbps=100.0, upload_mbps=50.0,
            router_power_w=10.0, c_rate_kg_per_kwh=0.5)


def test_hand_computed_schedule():
    priced = oracle.price_schedule(WALL, ACTIVE, IDLE, **LINK)
    # 40 + 100 + 180 J of training.
    assert priced["training_wh"] == pytest.approx(320.0 / 3600.0, rel=1e-15)
    # One exchange takes 100 * (1/100 + 1/50) = 3 s at router plus idle draw:
    # 3 * (11 + 11 + 12) J.
    assert priced["communication_wh"] == pytest.approx(102.0 / 3600.0, rel=1e-15)
    assert priced["co2e_g"] == pytest.approx(0.5 * 422.0 / 3600.0, rel=1e-15)


def test_zero_model_size_has_no_communication():
    priced = oracle.price_schedule(WALL, ACTIVE, IDLE, **{**LINK, "model_size_mb": 0.0})
    assert priced["communication_wh"] == 0.0
    assert priced["co2e_g"] == pytest.approx(0.5 * 320.0 / 3600.0, rel=1e-15)


def test_agrees_with_fedcarbon_on_the_same_schedule():
    from fedcarbon import (HardwareProfile, RoundSchedule, ScheduleEntry,
                           config_from_dict, estimate_fl)

    cfg = config_from_dict({
        "mode": "fl", "hardware": "tx2-cifar10",
        "grid": {"region": "test", "c_rate_kg_per_kwh": 0.5},
        "network": {"download_mbps": 100.0, "upload_mbps": 50.0, "router_power_w": 10.0},
        "fl": {"pool_size": 3, "clients_per_round": 3, "rounds": 1, "local_epochs": 1,
               "model_size_mb": 100.0},
    })
    entries = tuple(
        ScheduleEntry(0, k, w, HardwareProfile(f"d{k}", a, i, 1.0))
        for k, (w, a, i) in enumerate(zip(WALL, ACTIVE, IDLE)))
    report = estimate_fl(cfg, RoundSchedule(rounds=1, participation=entries))
    priced = oracle.price_schedule(WALL, ACTIVE, IDLE, **LINK)
    assert oracle.rel_close(report.energy.training_wh, priced["training_wh"])
    assert oracle.rel_close(report.energy.communication_wh, priced["communication_wh"])
    assert oracle.rel_close(report.co2e_g, priced["co2e_g"])


def test_rel_close_is_relative():
    assert oracle.rel_close(1e6 * (1 + 5e-10), 1e6)
    assert not oracle.rel_close(1e6 * (1 + 2e-9), 1e6)
    assert oracle.rel_close(0.0, 0.0)
