"""Energy and emission arithmetic against hand-computed oracles.

Every expected number below was worked out independently on paper
(watts times seconds over 3600, times the grid rate) before the module
was written; the tests only compare.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import json
import math
import sys
import types
from collections import Counter, OrderedDict, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedcarbon import (
    ConfigError,
    EmissionReport,
    EnergyBreakdown,
    ExperimentConfig,
    FlSetup,
    HardwareProfile,
    RoundSchedule,
    ScheduleEntry,
    builtin_registry,
    config_from_dict,
    cumulative_training_energy,
    estimate_centralized,
    estimate_fl,
    load_config,
    schedule_from_dict,
    schedule_prefix,
    schedule_to_dict,
    to_co2e,
    training_energy_centralized,
    training_energy_fl,
    NetworkProfile,
    active_registry,
)
from fedcarbon import carbon
from fedcarbon.carbon import UNIFORM_ENTRY_CAP

from conftest import FIXTURES_DIR, load_fixture

REG = builtin_registry()
TX2_NOMINAL = REG["hw:tx2-nominal"]
TX2_CIFAR = REG["hw:tx2-cifar10"]
NX_CIFAR = REG["hw:nx-cifar10"]
FRANCE = REG["grid:france"]
CHINA = REG["grid:china"]

REL = 1e-12


def uniform_16x5() -> RoundSchedule:
    return RoundSchedule.uniform(16, 5, 51.4, TX2_NOMINAL)


class TestTrainingEnergy:
    def test_uniform_fleet_oracle(self):
        # 16 rounds x 5 clients x 51.4 s x 10 W = 41120 Ws -> / 3600
        wh = training_energy_fl(uniform_16x5())
        assert wh == pytest.approx(11.422222222222222, rel=REL)

    def test_long_adaptive_run_oracle(self):
        # 349 rounds x 10 clients x 4.0 s x 4.7 W = 65612 Ws
        schedule = RoundSchedule.uniform(349, 10, 4.0, TX2_CIFAR)
        wh = training_energy_fl(schedule)
        assert wh == pytest.approx(18.225555555555555, rel=REL)

    def test_matches_explicit_loop_on_mixed_schedule(self):
        entries = []
        for r in range(7):
            for c, hw in ((0, TX2_CIFAR), (3, NX_CIFAR), (5, TX2_NOMINAL)):
                entries.append(ScheduleEntry(r, c, 1.5 + 0.25 * r + 0.1 * c, hw))
        schedule = RoundSchedule(rounds=7, participation=tuple(entries))
        expected = sum(e.wall_time_s * e.hardware.active_power_w
                       for e in entries) / 3600.0
        assert training_energy_fl(schedule) == pytest.approx(expected, rel=REL)

    def test_doubling_wall_times_doubles_energy_exactly(self):
        schedule = uniform_16x5()
        doubled = RoundSchedule.uniform(16, 5, 2 * 51.4, TX2_NOMINAL)
        assert training_energy_fl(doubled) == 2 * training_energy_fl(schedule)

    def test_empty_schedule_is_zero(self):
        assert training_energy_fl(RoundSchedule(rounds=0, participation=())) == 0.0

    def test_cumulative_per_round_oracle(self):
        cumulative = cumulative_training_energy(uniform_16x5())
        assert len(cumulative) == 16
        # 4 rounds x 5 clients x 514 Ws
        assert cumulative[3] == pytest.approx(2.8555555555555556, rel=REL)
        assert cumulative[-1] == training_energy_fl(uniform_16x5())

    def test_cumulative_carries_rounds_without_entries(self):
        schedule = RoundSchedule(rounds=3, participation=(
            ScheduleEntry(2, 0, 36.0, TX2_NOMINAL),
            ScheduleEntry(0, 1, 36.0, TX2_NOMINAL),
        ))
        # 36 s x 10 W = 0.1 Wh per entry, listed out of round order
        assert cumulative_training_energy(schedule) == pytest.approx(
            (0.1, 0.1, 0.2), rel=REL)

    def test_centralized_oracle(self):
        # 1.67 x 202 W x 48 s = 16192.32 Ws
        wh = training_energy_centralized(202.0, 48.0, 1.67)
        assert wh == pytest.approx(4.497866666666667, rel=REL)

    def test_centralized_without_pue_is_raw_device_energy(self):
        assert training_energy_centralized(202.0, 48.0, 1.0) == \
            pytest.approx(2.6933333333333334, rel=REL)

    def test_centralized_rejects_pue_below_one(self):
        with pytest.raises(ValueError, match="pue"):
            training_energy_centralized(100.0, 10.0, 0.99)

    def test_centralized_overflow_is_an_error(self):
        with pytest.raises(ValueError, match="^training energy overflows the float range$"):
            training_energy_centralized(1e308, 1e308, 1.0)

    def test_overflowing_sum_is_an_error(self):
        # Each entry's joules are finite; their sum is not.  Warnings are
        # errors in CI, so the overflow must also stay silent.
        schedule = RoundSchedule.uniform(3, 5, 1e307, TX2_CIFAR)
        with pytest.raises(ValueError, match="^training energy overflows the float range$"):
            cumulative_training_energy(schedule)
        with pytest.raises(ValueError, match="^training energy overflows"):
            training_energy_fl(schedule)


def communication_wh(schedule: RoundSchedule, model_size_mb: float,
                     network: NetworkProfile | None = None,
                     wan_model: str = "router") -> float:
    """estimate_fl's communication Wh for a schedule whose rounds each hold
    clients 0..k-1, on a config that declares exactly that run."""
    per_round = len(schedule.round) // schedule.rounds if schedule.rounds else 1
    fl = FlSetup(pool_size=per_round, clients_per_round=per_round, rounds=schedule.rounds,
                 local_epochs=1, model_size_mb=model_size_mb, wan_model=wan_model)
    cfg = ExperimentConfig(mode="fl", hardware=TX2_CIFAR, grids=(FRANCE,),
                           network=network, fl=fl)
    return estimate_fl(cfg, schedule).energy.communication_wh


class TestCommunicationEnergy:
    NET = NetworkProfile(download_mbps=100.0, upload_mbps=40.0, router_power_w=10.0)

    def test_single_transfer_oracle(self):
        # 357 Mb x (1/100 + 1/40) = 12.495 s at 10 + 1.35 W
        schedule = RoundSchedule.uniform(1, 1, 4.0, TX2_CIFAR)
        wh = communication_wh(schedule, 357.0, self.NET)
        assert wh == pytest.approx(0.03939395833333333, rel=REL)

    def test_scales_with_participation_entries(self):
        one = communication_wh(RoundSchedule.uniform(1, 1, 4.0, TX2_CIFAR), 357.0, self.NET)
        eighty = communication_wh(RoundSchedule.uniform(16, 5, 4.0, TX2_CIFAR),
                                  357.0, self.NET)
        assert eighty == pytest.approx(80 * one, rel=REL)
        assert eighty == pytest.approx(3.1515166666666667, rel=REL)

    def test_zero_payload_costs_nothing(self):
        schedule = RoundSchedule.uniform(4, 2, 1.0, TX2_CIFAR)
        assert communication_wh(schedule, 0.0, self.NET) == 0.0

    def test_idle_draw_depends_on_entry_hardware(self):
        s_tx2 = RoundSchedule.uniform(1, 1, 1.0, TX2_CIFAR)   # idle 1.35 W
        s_nx = RoundSchedule.uniform(1, 1, 1.0, NX_CIFAR)     # idle 2.25 W
        e_tx2 = communication_wh(s_tx2, 100.0, self.NET)
        e_nx = communication_wh(s_nx, 100.0, self.NET)
        ratio = (10.0 + 2.25) / (10.0 + 1.35)
        assert e_nx == pytest.approx(e_tx2 * ratio, rel=REL)

    @pytest.mark.parametrize("size_mb, net", [
        (1e308, NET),
        (1.0, NetworkProfile(download_mbps=100.0, upload_mbps=40.0, router_power_w=1e308)),
        (1e308, NetworkProfile(download_mbps=5e-324, upload_mbps=40.0, router_power_w=0.0)),
    ], ids=["payload", "router", "infinite-transfer-at-0-W"])
    def test_overflow_is_an_error(self, size_mb, net):
        schedule = RoundSchedule.uniform(16, 5, 1.0, replace(TX2_CIFAR, idle_power_w=0.0))
        with pytest.raises(ValueError, match="^communication energy overflows the float range$"):
            communication_wh(schedule, size_mb, net)


class TestLegacyTransferAndConversion:
    LEGACY = "legacy-5kwh-per-gb"

    def test_flat_rate_per_gb(self):
        # 1 GB (8000 Mb) moved once: 5 kWh
        schedule = RoundSchedule.uniform(1, 1, 4.0, TX2_CIFAR)
        assert communication_wh(schedule, 8000.0, wan_model=self.LEGACY) == 5000.0

    def test_flat_rate_scales_with_both_factors(self):
        # 5 kWh/GB x 0.044625 GB x 10 transfers; 5 x (357 / 8000) x 10 x 1000,
        # multiplied in that order, rounds to the float below 2231.25.
        schedule = RoundSchedule.uniform(1, 10, 4.0, TX2_CIFAR)
        wh = communication_wh(schedule, 357.0, wan_model=self.LEGACY)
        assert wh == pytest.approx(2231.25, rel=REL)
        assert wh == 2231.2499999999995

    def test_zero_transfers_is_zero(self):
        empty = RoundSchedule(rounds=0, participation=())
        assert communication_wh(empty, 24000.0, wan_model=self.LEGACY) == 0.0

    def test_flat_rate_overflow_is_an_error(self):
        schedule = RoundSchedule.uniform(1, 10, 4.0, TX2_CIFAR)
        with pytest.raises(ValueError, match="^communication energy overflows the float range$"):
            communication_wh(schedule, 1e308, wan_model=self.LEGACY)

    def test_to_co2e_oracle(self):
        # 4.5 Wh on a 0.0790 kg/kWh grid
        assert to_co2e(4.5, FRANCE) == pytest.approx(0.3555, rel=REL)

    def test_to_co2e_rejects_negative_energy(self):
        with pytest.raises(ValueError, match="energy_wh"):
            to_co2e(-1.0, FRANCE)

    def test_to_co2e_rejects_an_overflowing_product(self):
        grid = replace(FRANCE, region="x", c_rate_kg_per_kwh=1e308)
        assert to_co2e(1.0, grid) == 1e308
        with pytest.raises(ValueError, match="^CO2e on grid 'x' overflows the float range$"):
            to_co2e(11.4, grid)


_INT64_MAX = 2 ** 63 - 1


@st.composite
def _pair_lists(draw):
    """(round, client) pairs: from small ranges, where repeats are common,
    up to 2**63 - 1, where round * (largest client + 1) + client would not
    fit in int64."""
    def ids():
        return draw(st.sampled_from([
            st.integers(0, 2), st.integers(0, 40), st.integers(0, _INT64_MAX),
            st.sampled_from([0, 1, 2 ** 31, 2 ** 62 - 1, 2 ** 62, _INT64_MAX - 1, _INT64_MAX]),
        ]))
    return draw(st.lists(st.tuples(ids(), ids()), max_size=12))


class TestScheduleValidation:
    def test_duplicate_round_client_pair_rejected(self):
        e = ScheduleEntry(0, 1, 2.0, TX2_CIFAR)
        with pytest.raises(ValueError, match=r"^participation entry 1: duplicate of "
                                             r"entry 0 \(round 0, client 1\)$"):
            RoundSchedule(rounds=1, participation=(e, e))

    def test_first_repeat_names_its_pair_in_any_order(self):
        entries = [ScheduleEntry(r, c, 1.0, TX2_CIFAR)
                   for r, c in ((1, 4), (0, 2), (1, 3), (1, 4), (0, 2))]
        with pytest.raises(ValueError, match=r"^participation entry 3: duplicate of "
                                             r"entry 0 \(round 1, client 4\)$"):
            RoundSchedule(rounds=2, participation=entries)

    @settings(max_examples=500, deadline=None)
    @given(pairs=_pair_lists())
    @example(pairs=[])
    @example(pairs=[(0, _INT64_MAX)])
    @example(pairs=[(0, _INT64_MAX), (0, _INT64_MAX)])
    @example(pairs=[(_INT64_MAX, _INT64_MAX), (_INT64_MAX, 0), (_INT64_MAX, _INT64_MAX)])
    def test_first_repeat_matches_a_dict_search(self, pairs):
        round_ = np.array([r for r, _ in pairs], dtype=np.int64)
        client = np.array([c for _, c in pairs], dtype=np.int64)
        first: dict[tuple[int, int], int] = {}
        expected = None
        for i, pair in enumerate(pairs):
            if pair in first:
                expected = (i, first[pair])
                break
            first[pair] = i
        assert carbon._first_repeat(round_, client) == expected

    @pytest.mark.parametrize("round_, client, lexsorted", [
        ([0, 0, 1], [3, 2, 3], False),
        ([0, 0], [2 ** 63 - 2, 0], False),  # 1 round x (2**63 - 1) clients fit
        ([0, 0], [2 ** 63 - 1, 0], True),  # 1 round x 2**63 clients reach 2**63
        ([1, 0], [2 ** 62 - 1, 0], True),  # so do 2 rounds x 2**62 clients
        ([1, 1], [4, 4], True),
    ])
    def test_pairs_are_sorted_only_to_name_a_repeat_or_past_int64(
            self, monkeypatch, round_, client, lexsorted):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        carbon._first_repeat(np.array(round_, dtype=np.int64), np.array(client, dtype=np.int64))
        assert bool(calls) == lexsorted

    def test_entry_outside_executed_rounds_rejected(self):
        e = ScheduleEntry(3, 0, 2.0, TX2_CIFAR)
        with pytest.raises(ValueError, match=r"^participation entry 0: round 3 outside "
                                             r"executed range \[0, 3\)$"):
            RoundSchedule(rounds=3, participation=(e,))

    def test_repeated_inline_hardware_is_matched_with_its_types(self):
        # true == 1 in Python, but a JSON true is no number: the second
        # object must not reuse the profile the first one resolved to.
        good = {"active_power_w": 7, "idle_power_w": 0, "time_per_local_epoch_s": 1}
        entries = [{"round": 0, "client": c, "wall_time_s": 1.0, "hardware": hw}
                   for c, hw in enumerate((good, {**good, "time_per_local_epoch_s": True}))]
        with pytest.raises(ConfigError, match=r"^participation entry 1: hardware 'inline': "
                                              r"time_per_local_epoch_s must be finite and > 0$"):
            schedule_from_dict({"rounds": 1, "participation": entries})

    @pytest.mark.parametrize("largest", [sys.float_info.max, int(sys.float_info.max)],
                             ids=["float", "int"])
    def test_largest_finite_wall_time_is_valid(self, largest):
        # float64 holds the largest finite float exactly, as a float or as
        # the equal int, so the column reader takes it like any wall time.
        raw = {"rounds": 1, "participation": [
            {"round": 0, "client": 0, "wall_time_s": largest, "hardware": "tx2-cifar10"},
            {"round": 0, "client": 1, "wall_time_s": 2.0, "hardware": _INLINE[0]}]}
        assert carbon._entry_columns(raw["participation"], active_registry()) is not None
        parsed = schedule_from_dict(raw)
        assert parsed == RoundSchedule(1, (
            ScheduleEntry(0, 0, sys.float_info.max, TX2_CIFAR),
            ScheduleEntry(0, 1, 2.0, _profile(_INLINE[0]))))

    def test_ids_must_fit_in_int64(self):
        ScheduleEntry(2**63 - 1, 2**63 - 1, 1.0, TX2_CIFAR)
        with pytest.raises(ValueError, match=r"round_index must be an integer in \[0, 2\*\*63\)"):
            ScheduleEntry(2**63, 0, 1.0, TX2_CIFAR)
        with pytest.raises(ValueError, match=r"client_id must be an integer in \[0, 2\*\*63\)"):
            ScheduleEntry(0, 10**400, 1.0, TX2_CIFAR)

    def test_nonpositive_wall_time_rejected(self):
        with pytest.raises(ValueError, match="wall_time_s"):
            ScheduleEntry(0, 0, 0.0, TX2_CIFAR)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="round_index"):
            ScheduleEntry(-1, 0, 1.0, TX2_CIFAR)
        with pytest.raises(ValueError, match="client_id"):
            ScheduleEntry(0, -1, 1.0, TX2_CIFAR)


class TestUniformSchedule:
    @pytest.mark.parametrize("clients, wall_time, message", [
        (-4, 51.4, "clients_per_round must be an integer >= 0"),
        (2.5, 51.4, "clients_per_round must be an integer >= 0"),
        (True, 51.4, "clients_per_round must be an integer >= 0"),
        (5, "abc", "wall_time_s"),
        (0, "abc", "wall_time_s"),
        (0, 0.0, "wall_time_s"),
        (0, float("inf"), "wall_time_s"),
        (-4, "abc", "clients_per_round"),
    ])
    def test_arguments_are_checked_before_expansion(self, clients, wall_time, message):
        with pytest.raises(ValueError, match=message):
            RoundSchedule.uniform(3, clients, wall_time, TX2_NOMINAL)

    @pytest.mark.parametrize("rounds", [-1, 2.5, True, "16"])
    def test_rounds_is_checked_first(self, rounds):
        with pytest.raises(ConfigError, match=r"^rounds must be an integer >= 0$"):
            RoundSchedule.uniform(rounds, -4, "abc", TX2_NOMINAL)

    def test_entry_cap_is_checked_before_expansion(self):
        # About 0.85 s of pricing; README documents the same figure.
        assert UNIFORM_ENTRY_CAP == 500_000
        with pytest.raises(ValueError, match="cap of 500000 entries"):
            RoundSchedule.uniform(UNIFORM_ENTRY_CAP + 1, 1, 1.0, TX2_NOMINAL)
        with pytest.raises(ValueError, match="100000000 rounds x 5 clients"):
            RoundSchedule.uniform(10**8, 5, 1.0, TX2_NOMINAL)

    @pytest.mark.parametrize("uniform, problem", [
        ({"clients_per_round": 2, "wall_time_s": -1.0, "hardware": "tx2-cifar10"},
         "wall_time_s must be finite and > 0"),
        ({"clients_per_round": -2, "wall_time_s": 1.0, "hardware": "tx2-cifar10"},
         "clients_per_round must be an integer >= 0"),
        ({"clients_per_round": 2, "wall_time_s": 1.0, "hardware": "tx2-mnist"},
         "unknown hardware 'tx2-mnist'"),
    ], ids=["wall-time", "clients", "hardware"])
    def test_parse_errors_are_config_errors_naming_the_uniform_object(self, uniform, problem):
        with pytest.raises(ConfigError) as info:
            schedule_from_dict({"rounds": 2, "uniform": uniform})
        assert str(info.value) == f"schedule 'uniform': {problem}"

    @pytest.mark.parametrize("rounds", [-1, "16"])
    def test_a_bad_rounds_names_the_schedule_key_not_the_uniform_object(self, rounds):
        with pytest.raises(ConfigError) as info:
            schedule_from_dict({"rounds": rounds, "uniform": {
                "clients_per_round": 2.5, "wall_time_s": 1.0, "hardware": "tx2-mnist"}})
        assert str(info.value) == "rounds must be an integer >= 0"

    def test_zero_clients_does_not_walk_the_rounds(self):
        schedule = schedule_from_dict({"rounds": 10**12, "uniform": {
            "clients_per_round": 0, "wall_time_s": 1.0, "hardware": "tx2-nominal"}})
        assert schedule.rounds == 10**12 and schedule.participation == ()

    def test_expansion_lists_every_client_every_round(self):
        schedule = RoundSchedule.uniform(3, 2, 4.0, TX2_CIFAR)
        assert [(e.round_index, e.client_id) for e in schedule.participation] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


class TestEstimateReports:
    @pytest.fixture
    def fl_cfg(self, fixtures_dir):
        return load_config(fixtures_dir / "configs" / "fl_tx2_nominal_china.json")

    @pytest.fixture
    def fl_schedule(self, fixtures_dir):
        raw = json.loads(
            (fixtures_dir / "schedules" / "tx2_nominal_16x5.json").read_text())
        return schedule_from_dict(raw)

    def test_fixture_run_emission_oracle(self, fl_cfg, fl_schedule):
        report = estimate_fl(fl_cfg, fl_schedule)
        assert report.energy.training_wh == pytest.approx(11.422222222222222, rel=REL)
        assert report.energy.communication_wh == 0.0
        assert report.energy.comm_fraction == 0.0
        assert report.co2e_g == pytest.approx(11.132097777777778, rel=REL)
        assert report.grid.region == "china"
        assert report.mode == "fl"

    def test_adaptive_long_run_emission_oracle(self, fixtures_dir):
        cfg = load_config(fixtures_dir / "configs" / "fl_tx2_cifar10_adaptive_france.json")
        raw = json.loads(
            (fixtures_dir / "schedules" / "tx2_cifar10_adaptive_349x10.json").read_text())
        report = estimate_fl(cfg, schedule_from_dict(raw))
        assert report.energy.total_wh == pytest.approx(18.225555555555555, rel=REL)
        assert report.co2e_g == pytest.approx(1.439818888888889, rel=REL)

    def test_centralized_fixture_oracle(self, fixtures_dir):
        cfg = load_config(fixtures_dir / "configs" / "centralized_cifar10_world_france.json")
        report = estimate_centralized(cfg)
        assert report.energy.training_wh == pytest.approx(4.497866666666667, rel=REL)
        assert report.co2e_g == pytest.approx(0.3553314666666667, rel=REL)
        assert report.mode == "centralized"

    def test_legacy_wan_model_prices_every_entry(self, fl_cfg, fl_schedule):
        cfg = replace(fl_cfg, fl=replace(fl_cfg.fl, model_size_mb=357.0,
                                         wan_model="legacy-5kwh-per-gb"))
        report = estimate_fl(cfg, fl_schedule)
        # 5 kWh/GB x (357/8000) GB x 80 transfers, in Wh
        assert report.energy.communication_wh == pytest.approx(17850.0, rel=1e-9)

    def test_router_wan_model_oracle(self, fl_cfg, fl_schedule):
        net = NetworkProfile(download_mbps=100.0, upload_mbps=40.0, router_power_w=10.0)
        cfg = replace(fl_cfg, network=net,
                      fl=replace(fl_cfg.fl, model_size_mb=357.0, wan_model="router"))
        report = estimate_fl(cfg, fl_schedule)
        # 80 entries x 12.495 s x (10 + 1.35) W; tx2-nominal idles at 1.35 W
        assert report.energy.communication_wh == pytest.approx(3.1515166666666667, rel=REL)
        assert report.energy.total_wh == pytest.approx(
            report.energy.training_wh + report.energy.communication_wh, rel=REL)

    def test_schedule_round_count_must_match_config(self, fl_cfg):
        # fl.rounds caps a run: 1 to 16 rounds price, 0 and 17 do not
        for rounds in (17, 0):
            schedule = RoundSchedule.uniform(rounds, 5, 51.4, TX2_NOMINAL)
            with pytest.raises(ValueError, match=f"schedule has {rounds} rounds; "
                                                 "a run of this config has 1 to 16"):
                estimate_fl(fl_cfg, schedule)
        short = RoundSchedule.uniform(15, 5, 51.4, TX2_NOMINAL)
        capped = replace(fl_cfg, fl=replace(fl_cfg.fl, rounds=15))
        early, exact = estimate_fl(fl_cfg, short), estimate_fl(capped, short)
        assert early.config_digest != exact.config_digest
        assert replace(early, config_digest="") == replace(exact, config_digest="")

    def test_schedule_participants_must_match_config(self, fl_cfg):
        thin = RoundSchedule.uniform(16, 4, 51.4, TX2_NOMINAL)
        with pytest.raises(ValueError, match="participants"):
            estimate_fl(fl_cfg, thin)

    def test_schedule_client_must_fit_pool(self, fl_cfg):
        cfg = replace(fl_cfg, fl=replace(fl_cfg.fl, pool_size=3, clients_per_round=3,
                                         rounds=1))
        bad = RoundSchedule(rounds=1, participation=(
            ScheduleEntry(0, 0, 1.0, TX2_NOMINAL),
            ScheduleEntry(0, 1, 1.0, TX2_NOMINAL),
            ScheduleEntry(0, 7, 1.0, TX2_NOMINAL),
        ))
        with pytest.raises(ValueError, match="outside pool"):
            estimate_fl(cfg, bad)

    def test_zero_round_run_reports_all_zeros(self, fl_cfg):
        cfg = replace(fl_cfg, fl=replace(fl_cfg.fl, rounds=0))
        report = estimate_fl(cfg, RoundSchedule(rounds=0, participation=()))
        assert report.energy.total_wh == 0.0
        assert report.energy.comm_fraction == 0.0
        assert report.co2e_g == 0.0

    def test_mode_mismatch_rejected(self, fl_cfg, fl_schedule, fixtures_dir):
        with pytest.raises(ValueError, match="centralized"):
            estimate_centralized(fl_cfg)
        cen = load_config(fixtures_dir / "configs" / "centralized_cifar10_world_france.json")
        with pytest.raises(ValueError, match="fl"):
            estimate_fl(cen, fl_schedule)

    def test_report_json_shape(self, fl_cfg, fl_schedule):
        data = estimate_fl(fl_cfg, fl_schedule).to_json_dict()
        assert set(data) == {
            "training_wh", "communication_wh", "total_wh", "comm_fraction",
            "co2e_g", "grid_region", "c_rate", "mode", "config_digest",
        }
        assert data["grid_region"] == "china"
        assert len(data["config_digest"]) == 12


class TestScheduleTools:
    def test_prefix_keeps_early_rounds_only(self):
        full = uniform_16x5()
        head = schedule_prefix(full, 4)
        assert head.rounds == 4
        assert len(head.participation) == 20
        assert training_energy_fl(head) == pytest.approx(2.8555555555555556, rel=REL)

    def test_prefix_zero_is_empty(self):
        head = schedule_prefix(uniform_16x5(), 0)
        assert head.rounds == 0 and head.participation == ()

    def test_prefix_beyond_run_rejected(self):
        with pytest.raises(ValueError, match=r"rounds must be an integer in \[0, 16\]"):
            schedule_prefix(uniform_16x5(), 17)

    @pytest.mark.parametrize("rounds", [-1, True, 4.0])
    def test_prefix_rounds_must_be_an_integer_in_the_run(self, rounds):
        with pytest.raises(ValueError, match=r"rounds must be an integer in \[0, 16\]"):
            schedule_prefix(uniform_16x5(), rounds)

    def test_prefix_lists_only_the_hardware_it_keeps(self):
        schedule = RoundSchedule(rounds=2, participation=(
            ScheduleEntry(1, 0, 1.0, TX2_CIFAR),
            ScheduleEntry(0, 1, 1.0, NX_CIFAR),
            ScheduleEntry(0, 0, 2.0, TX2_CIFAR),
        ))
        head = schedule_prefix(schedule, 1)
        assert head.hardware == (NX_CIFAR, TX2_CIFAR)
        assert head == RoundSchedule(rounds=1, participation=schedule.participation[1:])

    def test_json_round_trip(self):
        entries = (
            ScheduleEntry(0, 2, 3.5, TX2_CIFAR),
            ScheduleEntry(0, 5, 2.5, NX_CIFAR),
            ScheduleEntry(1, 2, 3.5, TX2_CIFAR),
        )
        schedule = RoundSchedule(rounds=2, participation=entries)
        again = schedule_from_dict(schedule_to_dict(schedule))
        assert again == schedule

    def test_uniform_fixture_expands_to_explicit_form(self, fixtures_dir):
        raw = json.loads(
            (fixtures_dir / "schedules" / "tx2_nominal_16x5.json").read_text())
        assert schedule_from_dict(raw) == uniform_16x5()

    def test_schedule_dict_requires_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            schedule_from_dict({"participation": []})


class TestColumns:
    def test_columns_of_entries(self):
        schedule = RoundSchedule(rounds=2, participation=(
            ScheduleEntry(1, 5, 2.5, NX_CIFAR),
            ScheduleEntry(0, 3, 1.5, TX2_CIFAR),
            ScheduleEntry(1, 3, 3.5, NX_CIFAR),
        ))
        assert schedule.round.tolist() == [1, 0, 1]
        assert schedule.client.tolist() == [5, 3, 3]
        assert schedule.wall_time_s.tolist() == [2.5, 1.5, 3.5]
        assert schedule.hardware == (NX_CIFAR, TX2_CIFAR)
        assert schedule.hardware_index.tolist() == [0, 1, 0]
        assert {c.dtype for c in (schedule.round, schedule.client,
                                  schedule.hardware_index)} == {np.dtype(np.int64)}

    def test_schedule_is_read_only(self):
        schedule = uniform_16x5()
        with pytest.raises(ValueError, match="read-only"):
            schedule.wall_time_s[0] = 1.0
        with pytest.raises(AttributeError, match="read-only"):
            schedule.rounds = 3  # type: ignore[misc]

    def test_every_route_to_the_same_entries_is_equal(self):
        entries = tuple(ScheduleEntry(r, c, 4.0, TX2_CIFAR) for r in range(2) for c in range(3))
        by_entries = RoundSchedule(rounds=2, participation=entries)
        uniform = RoundSchedule.uniform(2, 3, 4.0, TX2_CIFAR)
        # One entry names the profile, the others spell it out inline.
        parsed = schedule_from_dict({"rounds": 2, "participation": [
            {"round": e.round_index, "client": e.client_id, "wall_time_s": 4.0,
             "hardware": dataclasses.asdict(TX2_CIFAR) if i else "tx2-cifar10"}
            for i, e in enumerate(entries)]})
        assert by_entries == uniform == parsed
        assert hash(by_entries) == hash(uniform) == hash(parsed)
        assert parsed.hardware == (TX2_CIFAR,) and parsed.participation == entries
        assert uniform != RoundSchedule.uniform(2, 3, 4.0, NX_CIFAR)
        assert uniform != RoundSchedule.uniform(3, 2, 4.0, TX2_CIFAR)


class TestSequentialSums:
    """Joules add one entry at a time, in schedule order: a compensated sum
    (math.fsum, or the built-in sum of floats on Python 3.12) would keep the
    low-order joules that a sequential sum rounds away."""

    BIG = HardwareProfile("big", 2.0 ** 54, 2.0 ** 53, 1.0)
    SMALL = HardwareProfile("small", 2.0, 1.0, 1.0)

    def schedule(self):
        # Ten entries, so numpy's pairwise sum (eight partial sums from
        # eight entries on) would differ too.
        return RoundSchedule(rounds=1, participation=[
            ScheduleEntry(0, c, 1.0, self.SMALL if c else self.BIG) for c in range(10)])

    def test_training_energy_is_the_sequential_sum(self):
        assert training_energy_fl(self.schedule()) == 2.0 ** 54 / 3600.0
        assert math.fsum([2.0 ** 54] + [2.0] * 9) == 2.0 ** 54 + 16

    def test_communication_energy_is_the_sequential_sum(self):
        # 1 Mb over 2 Mbps each way keeps the link busy 1 s per exchange.
        net = NetworkProfile(download_mbps=2.0, upload_mbps=2.0, router_power_w=0.0)
        assert communication_wh(self.schedule(), 1.0, net) == 2.0 ** 53 / 3600.0
        assert math.fsum([2.0 ** 53] + [1.0] * 9) == 2.0 ** 53 + 8


# Hardware an entry may name or spell out.  The second inline object holds
# integers, and the third equals it except for a JSON true, which is no number.
_INLINE = (
    {"name": "phone", "active_power_w": 3.2, "idle_power_w": 0.9,
     "time_per_local_epoch_s": 1.1},
    {"active_power_w": 7, "idle_power_w": 0, "time_per_local_epoch_s": 1, "kind": "edge"},
    {"active_power_w": 7, "idle_power_w": 0, "time_per_local_epoch_s": True, "kind": "edge"},
)
# The last value names the first profile again, so two spellings of one
# profile must share one hardware slot.
_HARDWARE = ("tx2-cifar10", "hw:nx-cifar10", "tx2-nominal", *_INLINE[:2], "hw:tx2-cifar10")
_ENTRY_KEYS = {"round", "client", "wall_time_s", "hardware"}


def _profile(value) -> HardwareProfile:
    if isinstance(value, str):
        return REG[value if value.startswith("hw:") else "hw:" + value]
    return HardwareProfile(**{"name": "inline", **value})


# Four spellings of three profiles: the first and the last are one profile,
# written once as a name and once inline.
_MIXED = ("tx2-cifar10", "hw:nx-cifar10", _INLINE[0], dataclasses.asdict(TX2_CIFAR))


@st.composite
def _mixed_schedules(draw):
    """(rounds, entry list) in any entry order, each spelling in _MIXED
    used at least once."""
    rounds, per_round = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    pairs = draw(st.permutations([(r, c) for r in range(rounds) for c in range(per_round)]))
    spellings = list(_MIXED) + [draw(st.sampled_from(_MIXED)) for _ in pairs[len(_MIXED):]]
    return rounds, [{"round": r, "client": c, "wall_time_s": 1.5, "hardware": copy.deepcopy(hw)}
                    for (r, c), hw in zip(pairs, draw(st.permutations(spellings)))]


def _first_use(profiles) -> tuple[tuple[HardwareProfile, ...], list[int]]:
    """hardware and hardware_index of these per-entry profiles, by a plain
    loop: each distinct profile is listed when first used."""
    hardware: list[HardwareProfile] = []
    index = []
    for p in profiles:
        if p not in hardware:
            hardware.append(p)
        index.append(hardware.index(p))
    return tuple(hardware), index


class TestHardwareSlots:
    @settings(max_examples=100, deadline=None)
    @given(_mixed_schedules(), st.data())
    def test_every_route_lists_profiles_by_first_use(self, drawn, data):
        rounds, raw = drawn
        entries = [ScheduleEntry(e["round"], e["client"], e["wall_time_s"],
                                 _profile(e["hardware"])) for e in raw]
        by_entries = RoundSchedule(rounds, entries)
        parsed = schedule_from_dict({"rounds": rounds, "participation": raw})
        r = data.draw(st.integers(0, rounds), label="prefix rounds")
        kept = [e for e in entries if e.round_index < r]
        head = RoundSchedule(r, kept)
        for schedule, listed in ((by_entries, entries), (parsed, entries),
                                 (schedule_prefix(by_entries, r), kept),
                                 (schedule_prefix(parsed, r), kept), (head, kept)):
            hardware, index = _first_use(e.hardware for e in listed)
            assert schedule.hardware == hardware
            assert schedule.hardware_index.tolist() == index
            assert schedule.hardware_index.dtype == np.int64
        assert len(by_entries.hardware) == 3
        assert schedule_prefix(parsed, r) == head


@st.composite
def _priced_schedules(draw, ordered=False):
    """A schedule object in any entry order, and a config that prices it.

    With ordered=True the entries come round by round, all of them may
    share one profile, and a wall time, the model size or the grid rate
    may be large enough for some prices to overflow."""
    rounds = draw(st.integers(0, 5))
    per_round = draw(st.integers(1, 5))
    pool = per_round + draw(st.integers(0, 3))
    walls = st.floats(1e-3, 1e4) | st.integers(1, 10 ** 6)
    hardware = st.sampled_from(_HARDWARE)
    sizes, grid = [0.0, 1.5, 357.0], "france"
    if ordered:
        walls |= st.just(1e307)
        if draw(st.booleans()):
            hardware = st.just(draw(hardware))
        sizes.append(1e308)
        grid = draw(st.sampled_from([grid] * 3 + [{"region": "x", "c_rate_kg_per_kwh": 1e305}]))
    entries = [
        {"round": r, "client": c, "wall_time_s": draw(walls),
         "hardware": copy.deepcopy(draw(hardware))}
        for r in range(rounds)
        for c in draw(st.permutations(range(pool)))[:per_round]]
    cfg = config_from_dict({
        "mode": "fl", "hardware": "tx2-cifar10", "grid": grid,
        "network": {"download_mbps": 100.0, "upload_mbps": 40.0, "router_power_w": 10.0},
        "fl": {"pool_size": pool, "clients_per_round": per_round,
               "rounds": rounds + draw(st.integers(0, 2)) if rounds else 0,
               "local_epochs": 1,
               "model_size_mb": draw(st.sampled_from(sizes)),
               "wan_model": draw(st.sampled_from(["router", "legacy-5kwh-per-gb"]))},
    }, registry=REG)
    return {"rounds": rounds,
            "participation": entries if ordered else draw(st.permutations(entries))}, cfg


def _outcome(price):
    """The bits of the float price() returns, or the error it raises."""
    try:
        return price().hex()
    except ValueError as exc:
        return f"error: {exc}"


def _left_to_right(raw, cfg):
    """Cumulative training Wh per round, training Wh and communication Wh,
    each sum taken one entry at a time."""
    entries, fl, net = raw["participation"], cfg.fl, cfg.network
    joules, cumulative = 0.0, []
    for r in range(raw["rounds"]):
        for e in entries:
            if e["round"] == r:
                joules += e["wall_time_s"] * _profile(e["hardware"]).active_power_w
        cumulative.append(joules / 3600.0)
    if fl.model_size_mb <= 0:
        comm = 0.0
    elif fl.wan_model == "router":
        transfer_s = fl.model_size_mb * (1.0 / net.download_mbps + 1.0 / net.upload_mbps)
        comm_joules = 0.0
        for e in entries:
            comm_joules += transfer_s * (net.router_power_w + _profile(e["hardware"]).idle_power_w)
        comm = comm_joules / 3600.0
    else:
        comm = 5.0 * (fl.model_size_mb / 8000.0) * len(entries) * 1000.0
    return tuple(cumulative), (cumulative[-1] if cumulative else 0.0), comm


# (good values, bad values) of each entry field.
_FIELDS = {
    "round": ((0, 1, 2, 2 ** 63 - 1), (-1, True, 2 ** 63, 10 ** 400, 1.5)),
    "client": ((0, 1, 2, 2 ** 63 - 1), (-1, False, 2 ** 63, 10 ** 400)),
    "wall_time_s": ((1.0, 2, 0.5, 5e-324, sys.float_info.max, int(sys.float_info.max)),
                    (0.0, -0.0, -1.0, "1", math.inf, math.nan, True, 10 ** 400, 2 ** 1024,
                     int(sys.float_info.max) + 1)),  # an int that rounds to float max
    "hardware": (_HARDWARE, (_INLINE[2],) * 3 + ("nope", 5, None, ["tx2-cifar10"],
                                                {**_INLINE[0], "name": ["phone"]})),
}


class _Id(enum.IntEnum):
    SEVEN = 7


class _Name(str):
    pass


# _FIELDS plus values only the Python API can pass: numpy scalars (np.float64
# is a float, np.int64 and np.float32 are no int or float), an IntEnum and a
# str subclass.
_API_FIELDS = {
    "round": (_FIELDS["round"][0] + (_Id.SEVEN,), _FIELDS["round"][1] + (np.int64(1),)),
    "client": (_FIELDS["client"][0] + (_Id.SEVEN,), _FIELDS["client"][1] + (np.int64(1),)),
    "wall_time_s": (_FIELDS["wall_time_s"][0] + (np.float64(2.5), _Id.SEVEN),
                    _FIELDS["wall_time_s"][1] + (np.float32(2.5),)),
    "hardware": (_FIELDS["hardware"][0] + (_Name("tx2-cifar10"),), _FIELDS["hardware"][1]),
}


# Objects the Python API may pass as an entry: dict subclasses, two of
# which answer for a missing key, and a mapping that is no dict.
_API_OBJECTS = (dict, OrderedDict, Counter, lambda item: defaultdict(int, item),
                types.MappingProxyType)


@st.composite
def _entry_lists(draw, fields=_FIELDS, objects=(dict,)):
    """A schedule object whose entries mix good and bad values and shapes."""
    items = []
    for _ in range(draw(st.integers(0, 6))):
        item = {key: copy.deepcopy(draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad)))
                for key, (good, bad) in fields.items()}
        shape = draw(st.sampled_from(["ok"] * 6 + ["drop", "add", "list"]))
        if shape == "drop":
            del item[draw(st.sampled_from(sorted(_ENTRY_KEYS)))]
        elif shape == "add":
            item["typo"] = 1
        if shape == "list":
            item = list(item.values())
        else:
            item = draw(st.sampled_from(objects))(item)
        items.append(item)
    return {"rounds": draw(st.sampled_from((0, 1, 2, 3, -1, True, "2"))),
            "participation": items}


def _first_error(raw):
    """What reading the entries left to right reports: each entry's shape,
    numbers and hardware in turn, then the round count, then each entry's
    round range and (round, client) pair."""
    for i, item in enumerate(raw["participation"]):
        where = f"participation entry {i}"
        if not isinstance(item, dict):
            return f"{where} must be an object"
        if _ENTRY_KEYS - item.keys():
            return f"{where} is missing {sorted(_ENTRY_KEYS - item.keys())[0]!r}"
        if item.keys() - _ENTRY_KEYS:
            return f"{where} has unknown keys: {sorted(item.keys() - _ENTRY_KEYS)}"
        try:
            ScheduleEntry(item["round"], item["client"], item["wall_time_s"], TX2_CIFAR)
            schedule_from_dict({"rounds": 1, "participation": [
                {"round": 0, "client": 0, "wall_time_s": 1.0, "hardware": item["hardware"]}]})
        except ValueError as exc:
            return f"{where}: {str(exc).removeprefix('participation entry 0: ')}"
    rounds = raw["rounds"]
    if not (type(rounds) is int and rounds >= 0):
        return "rounds must be an integer >= 0"
    first: dict[tuple[int, int], int] = {}
    for i, item in enumerate(raw["participation"]):
        pair = (item["round"], item["client"])
        if pair[0] >= rounds:
            return (f"participation entry {i}: round {pair[0]} outside executed "
                    f"range [0, {rounds})")
        if pair in first:
            return (f"participation entry {i}: duplicate of entry {first[pair]} "
                    f"(round {pair[0]}, client {pair[1]})")
        first[pair] = i
    return None


class TestScheduleProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=_priced_schedules())
    def test_pricing_matches_a_left_to_right_loop(self, case):
        raw, cfg = case
        schedule = schedule_from_dict(raw)
        cumulative, training, comm = _left_to_right(raw, cfg)
        assert cumulative_training_energy(schedule) == cumulative
        report = estimate_fl(cfg, schedule)
        assert report.energy == EnergyBreakdown.from_parts(training, comm)
        assert report.co2e_g == report.energy.total_wh * cfg.grid.c_rate_kg_per_kwh
        assert schedule_from_dict(schedule_to_dict(schedule)) == schedule
        assert RoundSchedule(raw["rounds"], [
            ScheduleEntry(e["round"], e["client"], e["wall_time_s"], _profile(e["hardware"]))
            for e in raw["participation"]]) == schedule

    @settings(max_examples=500, deadline=None)
    @given(raw=_entry_lists())
    def test_errors_name_the_first_bad_entry(self, raw):
        try:
            schedule_from_dict(raw)
            message = None
        except ConfigError as exc:
            message = str(exc)
        assert message == _first_error(raw)

    @settings(max_examples=500, deadline=None)
    @given(raw=_entry_lists(_API_FIELDS, _API_OBJECTS))
    def test_column_reader_refuses_exactly_the_lists_with_a_bad_entry(self, raw):
        entries, registry = raw["participation"], active_registry()
        keys = [list(item) for item in entries]
        columns = carbon._entry_columns(entries, registry)
        assert [list(item) for item in entries] == keys  # a defaultdict gains no key
        if columns is None:
            assert isinstance(carbon._first_bad_entry(entries, registry), ConfigError)
        else:
            with pytest.raises(AssertionError, match="breaks no rule"):
                carbon._first_bad_entry(entries, registry)

    def test_valid_entries_are_only_read_as_columns(self, monkeypatch):
        edge = [
            {"round": 0, "client": 0, "wall_time_s": sys.float_info.max, "hardware": "tx2-cifar10"},
            {"round": 0, "client": 1, "wall_time_s": int(sys.float_info.max),
             "hardware": "tx2-cifar10"},
            {"round": 0, "client": 2, "wall_time_s": np.float64(2.5), "hardware": "tx2-cifar10"},
            {"round": _Id.SEVEN, "client": _Id.SEVEN, "wall_time_s": 1.0,
             "hardware": "tx2-cifar10"},
            {"round": 1, "client": 3, "wall_time_s": 1.0, "hardware": _Name("nx-cifar10")},
        ]
        expected = RoundSchedule(8, [
            ScheduleEntry(e["round"], e["client"], e["wall_time_s"], _profile(e["hardware"]))
            for e in edge])
        large = [{"round": r, "client": c, "wall_time_s": 1.0 + c, "hardware": _HARDWARE[c % 6]}
                 for r in range(500) for c in range(100)]

        def refuse(*args, **kwargs):
            raise AssertionError("a valid entry list was read entry by entry")

        monkeypatch.setattr(carbon, "ScheduleEntry", refuse)
        monkeypatch.setattr(carbon.RoundSchedule, "__init__", refuse)
        assert schedule_from_dict({"rounds": 8, "participation": edge}) == expected
        parsed = schedule_from_dict({"rounds": 500, "participation": large})
        clients = np.tile(np.arange(100), 500)
        assert parsed.round.tolist() == np.repeat(np.arange(500), 100).tolist()
        assert parsed.client.tolist() == clients.tolist()
        assert parsed.wall_time_s.tolist() == (1.0 + clients).tolist()
        slots = clients % 6
        assert parsed.hardware_index.tolist() == np.where(slots == 5, 0, slots).tolist()
        assert parsed.hardware == tuple(map(_profile, _HARDWARE[:5]))


class TestRoundLedger:
    @settings(max_examples=300, deadline=None)
    @given(case=_priced_schedules(ordered=True))
    def test_each_row_prices_its_prefix_to_the_bit(self, case):
        # Row r - 1 put through from_parts and to_co2e, as the live optimize
        # runner prices a cell, is estimate_fl of the first r rounds, or
        # raises its error.
        raw, cfg = case
        schedule = schedule_from_dict(raw)
        training, communication = carbon._round_ledger(cfg, schedule)
        assert len(training) == len(communication) == schedule.rounds
        for r in range(1, schedule.rounds + 1):
            row = _outcome(lambda: carbon._priced(cfg, float(training[r - 1]),
                                                  float(communication[r - 1]))[1])
            assert row == _outcome(lambda: estimate_fl(cfg, schedule_prefix(schedule, r)).co2e_g)


class TestEnergyBreakdown:
    def test_fraction_oracle(self):
        b = EnergyBreakdown.from_parts(3.0, 1.0)
        assert b.total_wh == 4.0 and b.comm_fraction == 0.25

    def test_zero_total_has_zero_fraction(self):
        assert EnergyBreakdown.from_parts(0.0, 0.0).comm_fraction == 0.0

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            EnergyBreakdown.from_parts(-1.0, 0.0)

    @pytest.mark.parametrize("training, communication, part", [
        (math.inf, 1.0, "training"), (1.0, math.nan, "communication"),
        (1e308, 1e308, "total")])
    def test_parts_and_total_must_be_finite(self, training, communication, part):
        with pytest.raises(ValueError, match=f"^{part} energy overflows the float range$"):
            EnergyBreakdown.from_parts(training, communication)


class TestMeasuredDeviceTable:
    """The recorded power x duration products reproduce the table energies.

    One NX keyword-spotting row is excluded: its printed per-device energy
    (1.5 Wh) repeats the TX2 value, while 7.9 W x 536 s / 3600 = 1.18 Wh.
    The power/duration product is the authoritative quantity here.
    """

    @staticmethod
    def rows():
        return load_fixture("device_energy_table.json")["rows"]

    @staticmethod
    def is_known_bad(row):
        return (row["task"] == "speechcommands" and row["setting"] == "fedavg"
                and row["hardware"].startswith("nx"))

    def test_per_device_energy_matches_power_times_duration(self):
        checked = 0
        for row in self.rows():
            if self.is_known_bad(row):
                continue
            computed = row["power_w"] * row["duration_s"] / 3600.0
            printed = row["per_device_wh"]
            assert (abs(computed - printed) <= 0.055
                    or abs(computed - printed) / printed <= 0.005), row
            checked += 1
        assert checked == 12

    def test_excluded_row_really_is_inconsistent(self):
        bad = [r for r in self.rows() if self.is_known_bad(r)]
        assert len(bad) == 1
        computed = bad[0]["power_w"] * bad[0]["duration_s"] / 3600.0
        assert abs(computed - bad[0]["per_device_wh"]) > 0.3

    def test_durations_are_rounds_times_epoch_time(self):
        for row in self.rows():
            expected = row["units"] * row["local_epochs"] * row["epoch_time_s"]
            # centralized durations are printed display-rounded
            assert abs(expected - row["duration_s"]) <= max(0.5, 0.002 * expected), row
