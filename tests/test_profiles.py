"""Profile registry, config parsing, and validation behaviour."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from fedcarbon import (
    ConfigError,
    ExperimentConfig,
    FlSetup,
    GridIntensity,
    HardwareProfile,
    NetworkProfile,
    SimSetup,
    builtin_registry,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
    schedule_from_dict,
)

from conftest import FIXTURES_DIR, load_fixture


# Pinned registry constants: (active W, idle W, seconds per local epoch).
EDGE_HARDWARE = {
    "tx2-cifar10": (4.7, 1.35, 0.8),
    "nx-cifar10": (6.3, 2.25, 0.6),
    "tx2-imagenet": (6.5, 1.35, 474.0),
    "nx-imagenet": (9.7, 2.25, 273.0),
    "tx2-speechcommands": (5.7, 1.35, 1.6),
    "nx-speechcommands": (7.9, 2.25, 0.9),
    "tx2-nominal": (10.0, 1.35, 51.4),
}

DATACENTER_HARDWARE = {
    "v100-cifar10": (202.0, 24.0),
    "v100-imagenet": (304.0, 1440.0),
    "v100-speechcommands": (124.0, 52.0),
}

GRID_RATES = {"france": 0.0790, "usa": 0.5741, "china": 0.9746}

PUE_VALUES = {"world-2019": 1.67, "google": 1.11}


CENTRALIZED = {"mode": "centralized", "hardware": "v100-cifar10", "grid": "france",
               "pue": "world-2019", "epochs": 2}


# A valid 'fl' block of 12 clients, 4 per round.
FL_RUN = dict(pool_size=12, clients_per_round=4, rounds=8, local_epochs=2)


def fl_config(**overrides) -> ExperimentConfig:
    base = {
        "mode": "fl",
        "hardware": "tx2-cifar10",
        "grid": "france",
        "network": {"download_mbps": 100.0, "upload_mbps": 40.0, "router_power_w": 10.0},
        "fl": {
            "pool_size": 100,
            "clients_per_round": 10,
            "rounds": 16,
            "local_epochs": 1,
            "model_size_mb": 357.0,
        },
        "seed": 7,
    }
    base.update(overrides)
    return config_from_dict(base)


class TestBuiltinRegistry:
    def test_edge_hardware_values(self):
        reg = builtin_registry()
        for name, (active, idle, epoch_s) in EDGE_HARDWARE.items():
            profile = reg["hw:" + name]
            assert isinstance(profile, HardwareProfile)
            assert profile.active_power_w == active
            assert profile.idle_power_w == idle
            assert profile.time_per_local_epoch_s == epoch_s
            assert profile.kind == "edge"

    def test_datacenter_hardware_values(self):
        reg = builtin_registry()
        for name, (active, epoch_s) in DATACENTER_HARDWARE.items():
            profile = reg["hw:" + name]
            assert profile.active_power_w == active
            assert profile.idle_power_w == 0.0
            assert profile.time_per_local_epoch_s == epoch_s
            assert profile.kind == "datacenter"

    def test_grid_rates(self):
        reg = builtin_registry()
        for region, rate in GRID_RATES.items():
            grid = reg["grid:" + region]
            assert isinstance(grid, GridIntensity)
            assert grid.c_rate_kg_per_kwh == rate

    def test_pue_values(self):
        reg = builtin_registry()
        for name, pue in PUE_VALUES.items():
            assert reg["pue:" + name] == pue

    def test_no_builtin_network_profiles(self):
        assert not any(k.startswith("net:") for k in builtin_registry())

    def test_registry_is_read_only(self):
        reg = builtin_registry()
        with pytest.raises(TypeError):
            reg["hw:new"] = None  # type: ignore[index]


class TestProfileValidation:
    def test_idle_power_must_stay_below_active(self):
        with pytest.raises(ConfigError, match="idle_power_w"):
            HardwareProfile(
                name="bad", active_power_w=2.0, idle_power_w=3.0,
                time_per_local_epoch_s=1.0,
            )

    def test_active_power_must_be_positive(self):
        with pytest.raises(ConfigError, match="active_power_w"):
            HardwareProfile(
                name="bad", active_power_w=0.0, idle_power_w=0.0,
                time_per_local_epoch_s=1.0,
            )

    def test_grid_rate_must_be_positive(self):
        with pytest.raises(ConfigError, match="c_rate_kg_per_kwh"):
            GridIntensity(region="x", c_rate_kg_per_kwh=0.0)

    def test_network_rates_must_be_positive(self):
        with pytest.raises(ConfigError, match="download_mbps"):
            NetworkProfile(download_mbps=0.0, upload_mbps=5.0, router_power_w=1.0)

    def test_pue_below_one_is_rejected(self):
        hw = builtin_registry()["hw:v100-cifar10"]
        with pytest.raises(ConfigError, match="pue must be >= 1.0, got 0.9"):
            ExperimentConfig(mode="centralized", hardware=hw,
                             grids=(builtin_registry()["grid:france"],), pue=0.9, epochs=1)

    def test_datacenter_profile_rejects_edge_hardware(self):
        hw = builtin_registry()["hw:tx2-cifar10"]
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig(mode="centralized", hardware=hw,
                             grids=(builtin_registry()["grid:france"],), pue=1.5, epochs=1)

    def test_clients_per_round_cannot_exceed_pool(self):
        with pytest.raises(ConfigError, match="clients_per_round"):
            FlSetup(pool_size=5, clients_per_round=6, rounds=1, local_epochs=1,
                    model_size_mb=0.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            FlSetup(pool_size=5, clients_per_round=2, rounds=1, local_epochs=1,
                    model_size_mb=0.0, strategy="fedprox")

    def test_sim_target_accuracy_range(self):
        SimSetup(target_accuracy=0.0)
        SimSetup(target_accuracy=1.0)
        with pytest.raises(ConfigError, match="target_accuracy"):
            SimSetup(target_accuracy=1.5)

    @pytest.mark.parametrize("block, fields, message", [
        (FlSetup, {**FL_RUN, "pool_size": 12.0}, "fl.pool_size must be an integer >= 1"),
        (FlSetup, {**FL_RUN, "clients_per_round": 13},
         "fl.clients_per_round must be <= fl.pool_size"),
        (FlSetup, {**FL_RUN, "rounds": -1}, "fl.rounds must be an integer >= 0"),
        (FlSetup, {**FL_RUN, "strategy": "fedsgd"},
         "fl.strategy must be one of ('fedavg', 'fedadam')"),
        (SimSetup, {"client_lr": 0.0}, "sim.client_lr must be finite and > 0"),
        (SimSetup, {"beta2": 1.0}, "sim.beta2 must lie in [0, 1)"),
        (SimSetup, {"target_accuracy": 1.5}, "sim.target_accuracy must lie in [0, 1]"),
    ], ids=["float-pool", "clients-above-pool", "negative-rounds", "unknown-strategy",
            "zero-client-lr", "beta2-one", "target-above-one"])
    def test_fl_and_sim_rules_name_the_field(self, block, fields, message):
        with pytest.raises(ConfigError) as info:
            block(**fields)
        assert str(info.value) == message

    def test_non_finite_values_rejected(self):
        with pytest.raises(ConfigError, match="active_power_w"):
            HardwareProfile(name="bad", active_power_w=float("nan"),
                            idle_power_w=0.0, time_per_local_epoch_s=1.0)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="active_power_w"):
            HardwareProfile(name="bad", active_power_w=10 ** 400,
                            idle_power_w=0.0, time_per_local_epoch_s=1.0)

    @pytest.mark.parametrize("prior", [None, 3, 0.5, {"a": 1}, [None] * 10])
    def test_sim_prior_must_be_a_name_or_a_list_of_numbers(self, prior):
        with pytest.raises(ConfigError, match="sim.prior"):
            fl_config(sim={"prior": prior})

    @pytest.mark.parametrize("prior", [[math.nan, 1.0], (1.0, math.inf), [1.0, True]],
                             ids=["nan-list", "inf-tuple", "boolean-entry"])
    def test_sim_prior_entries_are_checked_at_construction(self, prior):
        with pytest.raises(ConfigError, match="^sim.prior list entries must be finite numbers$"):
            SimSetup(classes=2, prior=prior)

    def test_sim_prior_list_is_held_as_a_hashable_tuple_of_floats(self):
        sim = SimSetup(classes=2, prior=[np.float64(0.25), 0.75])
        assert sim.prior == (0.25, 0.75)
        assert all(type(p) is float for p in sim.prior)
        assert hash(sim) == hash(SimSetup(classes=2, prior=(0.25, 0.75)))
        again = dataclasses.replace(sim, alpha=0.5)
        assert again.prior == (0.25, 0.75)
        assert again == SimSetup(classes=2, prior=[0.25, np.float64(0.75)], alpha=0.5)
        assert hash(again) == hash(SimSetup(classes=2, prior=(0.25, 0.75), alpha=0.5))


class TestConfigParsing:
    def test_fl_config_resolves_registry_names(self):
        cfg = fl_config()
        assert cfg.hardware.name == "tx2-cifar10"
        assert cfg.grid.region == "france"
        assert cfg.network is not None and cfg.network.download_mbps == 100.0

    def test_prefixed_names_also_accepted(self):
        cfg = fl_config(hardware="hw:tx2-cifar10", grid="grid:france")
        assert cfg.hardware.active_power_w == 4.7
        assert cfg.grid.c_rate_kg_per_kwh == 0.0790

    def test_unknown_hardware_name_fails(self):
        with pytest.raises(ConfigError, match="unknown hardware"):
            fl_config(hardware="tx2-mnist")

    @pytest.mark.parametrize("change, message", [
        ({"grid": ["france", "grid:mars"]}, "unknown grid 'grid:mars'"),
        ({"network": "lab"}, "unknown network 'lab'"),
        ({"pue": "moon"}, "unknown pue 'moon'"),
        ({"hardware": 5}, "hardware must be a registry name or an inline object"),
        ({"grid": [None]}, "grid must be a registry name or an inline object"),
        ({"network": [100.0]}, "network must be a registry name or an inline object"),
        ({"pue": True}, "pue must be a registry name or an inline number"),
        ({"grid": []}, "at least one grid region is required"),
    ], ids=["grid-name", "network-name", "pue-name", "hardware-number",
            "grid-null", "network-list", "pue-boolean", "grid-empty-list"])
    def test_registry_or_inline_values_share_one_wording(self, change, message):
        with pytest.raises(ConfigError) as info:
            fl_config(**change)
        assert str(info.value) == message

    def test_inline_pue_is_a_float(self):
        pue = config_from_dict({**CENTRALIZED, "pue": 2}).pue
        assert pue == 2.0 and isinstance(pue, float)

    @pytest.mark.parametrize("mode, block, value", [
        ("fl", "pue", 1.5),
        ("fl", "epochs", 3),
        ("centralized", "fl", {"pool_size": 10, "clients_per_round": 2, "rounds": 1,
                               "local_epochs": 1}),
        ("centralized", "sim", {}),
        ("centralized", "network", {"download_mbps": 100.0, "upload_mbps": 40.0,
                                    "router_power_w": 10.0}),
    ], ids=["fl-pue", "fl-epochs", "centralized-fl", "centralized-sim",
            "centralized-network"])
    def test_block_the_mode_never_reads_is_rejected(self, mode, block, value):
        with pytest.raises(ConfigError) as info:
            if mode == "fl":
                fl_config(**{block: value})
            else:
                config_from_dict({**CENTRALIZED, block: value})
        assert str(info.value) == f"{mode} mode does not read [{block!r}]"

    def test_replace_cannot_add_a_block_the_mode_never_reads(self):
        with pytest.raises(ConfigError, match=r"fl mode does not read \['epochs'\]"):
            dataclasses.replace(fl_config(), epochs=2)

    def test_unknown_top_level_key_fails(self):
        with pytest.raises(ConfigError, match="unknown"):
            fl_config(banana=1)

    def test_unknown_fl_key_fails(self):
        with pytest.raises(ConfigError, match="unknown"):
            fl_config(fl={"pool_size": 10, "clients_per_round": 2, "rounds": 1,
                          "local_epochs": 1, "model_size_mb": 0.0, "extra": True})

    def test_inline_hardware_defaults_to_edge_in_fl_mode(self):
        cfg = fl_config(hardware={"name": "custom", "active_power_w": 3.0,
                                  "idle_power_w": 1.0, "time_per_local_epoch_s": 2.0})
        assert cfg.hardware.kind == "edge"

    def test_centralized_mode_parses_pue_name(self):
        cfg = config_from_dict({
            "mode": "centralized",
            "hardware": "v100-cifar10",
            "grid": "france",
            "pue": "world-2019",
            "epochs": 2,
            "seed": 0,
        })
        assert cfg.pue == 1.67
        assert cfg.hardware.active_power_w == 202.0

    def test_grid_list_form(self):
        cfg = fl_config(grid=["france", "usa", "china"])
        assert [g.region for g in cfg.grids] == ["france", "usa", "china"]
        assert cfg.grid.region == "france"

    def test_fl_mode_requires_fl_section(self):
        with pytest.raises(ConfigError, match="fl"):
            config_from_dict({"mode": "fl", "hardware": "tx2-cifar10",
                              "grid": "france", "seed": 0})

    def test_round_trip_preserves_config(self):
        cfg = fl_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_digest(again) == config_digest(cfg)

    def test_digest_is_stable_and_key_order_free(self):
        data = json.loads((FIXTURES_DIR / "configs" / "fl_tx2_nominal_china.json").read_text())
        cfg_a = config_from_dict(data)
        shuffled = dict(reversed(list(data.items())))
        cfg_b = config_from_dict(shuffled)
        digest = config_digest(cfg_a)
        assert digest == config_digest(cfg_b)
        assert len(digest) == 12
        int(digest, 16)

    @pytest.mark.parametrize("name, digest", [
        ("centralized_cifar10_world_france", "c6fe4a623848"),
        ("centralized_speech_google_france", "367c485cf97d"),
        ("centralized_speech_world_france", "70f3b3e1be29"),
        ("fl_sim_small_france", "05b0ba8aefa5"),
        ("fl_tx2_cifar10_adaptive_france", "333e35331685"),
        ("fl_tx2_nominal_china", "3098916afaa1"),
    ])
    def test_fixture_digests_are_pinned(self, fixtures_dir, name, digest):
        assert config_digest(load_config(fixtures_dir / "configs" / f"{name}.json")) == digest

    def test_digest_changes_with_seed(self):
        assert config_digest(fl_config(seed=1)) != config_digest(fl_config(seed=2))

    def test_load_config_reads_fixture_files(self, fixtures_dir):
        for path in sorted((fixtures_dir / "configs").glob("*.json")):
            cfg = load_config(path)
            assert isinstance(cfg, ExperimentConfig)
            assert cfg.mode in {"fl", "centralized"}

    def test_registry_env_override(self, tmp_path, monkeypatch):
        extra = {
            "hw:lab-board": {
                "active_power_w": 2.5, "idle_power_w": 0.5,
                "time_per_local_epoch_s": 4.0, "kind": "edge",
            },
            "grid:island": {"c_rate_kg_per_kwh": 0.2},
        }
        override = tmp_path / "registry.json"
        override.write_text(json.dumps(extra))
        monkeypatch.setenv("FEDCARBON_REGISTRY", str(override))
        cfg = fl_config(hardware="lab-board", grid="island")
        assert cfg.hardware.active_power_w == 2.5
        assert cfg.grid.c_rate_kg_per_kwh == 0.2
        # Builtins remain visible through the override.
        assert fl_config().hardware.name == "tx2-cifar10"

    @pytest.mark.parametrize("entry, message", [
        ({"grid:island": {"c_rate_kg_per_kwh": 0.2, "regoin": "eu"}},
         "registry entry 'grid:island' has unknown keys: ['regoin']"),
        ({"net:lab": {"download_mbps": 10.0, "upload_mbps": 5.0}},
         "registry entry 'net:lab' is missing 'router_power_w'"),
        ({"hw:lab-board": {"active_power_w": 2.5, "idle_power_w": 0.5,
                           "time_per_local_epoch_s": 4.0}},
         "registry entry 'hw:lab-board' is missing 'kind'"),
        ({"hw:lab-board": [2.5]}, "registry entry 'hw:lab-board' must be an object"),
    ], ids=["grid-unknown-key", "net-missing-key", "hw-missing-kind", "hw-not-object"])
    def test_registry_env_entries_take_exactly_their_fields(self, tmp_path, monkeypatch,
                                                            entry, message):
        override = tmp_path / "registry.json"
        override.write_text(json.dumps(entry))
        monkeypatch.setenv("FEDCARBON_REGISTRY", str(override))
        with pytest.raises(ConfigError) as info:
            fl_config()
        assert message in str(info.value)


# A federated config whose every block the key-check cases below edit.
_BASE = {"mode": "fl", "hardware": "tx2-cifar10", "grid": "france",
         "fl": {"pool_size": 10, "clients_per_round": 5, "rounds": 4, "local_epochs": 1}}


class TestOneKeyCheck:
    """Every config object, registry entry and schedule object is checked
    one way: not an object, then the first missing key, then unknown keys."""

    @pytest.mark.parametrize("source, doc, message", [
        ("config", {"hardware": "tx2-cifar10", "grid": "france", "typo": 1},
         "config is missing 'mode'"),
        ("config", {**_BASE, "fl": {"clients_per_round": 5, "rounds": 4, "local_epochs": 1,
                                    "typo": 1}},
         "'fl' is missing 'pool_size'"),
        # Every 'sim' field has a default, so an unknown key is its only key fault.
        ("config", {**_BASE, "sim": {"classes": 3, "typo": 1}},
         "'sim' has unknown keys: ['typo']"),
        ("config", {**_BASE, "hardware": {"active_power_w": 5.0, "idle_power_w": 1.0,
                                          "typo": 1}},
         "hardware is missing 'time_per_local_epoch_s'"),
        ("config", {**_BASE, "network": {"download_mbps": 100, "router_power_w": 10,
                                         "typo": 1}},
         "network is missing 'upload_mbps'"),
        ("config", {**_BASE, "grid": ["usa", {"c_rate_kg_per_kwh": 0.1, "typo": 1}]},
         "grid is missing 'region'"),
        ("registry", {"hw:lab": {"active_power_w": 2.5, "kind": "edge", "typo": 1}},
         "registry entry 'hw:lab' is missing 'idle_power_w'"),
        ("registry", {"net:lab": {"download_mbps": 10.0, "upload_mbps": 5.0, "typo": 1}},
         "registry entry 'net:lab' is missing 'router_power_w'"),
        ("registry", {"grid:island": {"typo": 1}},
         "registry entry 'grid:island' is missing 'c_rate_kg_per_kwh'"),
        ("schedule", {"rounds": 1, "participation": [
            {"round": 0, "client": 0, "wall_time_s": 1.0, "typo": 1}]},
         "participation entry 0 is missing 'hardware'"),
        ("schedule", {"rounds": 1, "uniform": {"clients_per_round": 1,
                                               "hardware": "tx2-nominal", "typo": 1}},
         "schedule 'uniform' is missing 'wall_time_s'"),
    ], ids=["top-level", "fl", "sim", "inline-hardware", "inline-network", "inline-grid",
            "registry-hw", "registry-net", "registry-grid", "schedule-entry",
            "schedule-uniform"])
    def test_missing_key_is_named_before_an_unknown_key(self, tmp_path, monkeypatch,
                                                        source, doc, message):
        monkeypatch.delenv("FEDCARBON_REGISTRY", raising=False)
        with pytest.raises(ConfigError) as info:
            if source == "config":
                config_from_dict(doc)
            elif source == "schedule":
                schedule_from_dict(doc)
            else:
                override = tmp_path / "registry.json"
                override.write_text(json.dumps(doc))
                monkeypatch.setenv("FEDCARBON_REGISTRY", str(override))
                config_from_dict(_BASE)
        assert str(info.value) == message

    @pytest.mark.parametrize("raw, message", [
        ([_BASE], "config must be an object"),
        ({**_BASE, "typo": 1, "extra": 2}, "config has unknown keys: ['extra', 'typo']"),
    ], ids=["not-an-object", "unknown-keys"])
    def test_top_level_wording(self, raw, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert str(info.value) == message


# Sets every optional case of the writer: a list prior,
# samples_per_client, two inline grids, an inline network with a region,
# the flat-rate WAN model and hidden units.
ALL_FIELDS = {
    "mode": "fl", "seed": 5,
    "hardware": {"name": "board", "active_power_w": 5.0, "idle_power_w": 1.0,
                 "time_per_local_epoch_s": 0.8},
    "grid": [{"region": "lab", "c_rate_kg_per_kwh": 0.3},
             {"region": "hill", "c_rate_kg_per_kwh": 0.05}],
    "network": {"download_mbps": 50, "upload_mbps": 10, "router_power_w": 6, "region": "lab"},
    "fl": {"pool_size": 8, "clients_per_round": 2, "rounds": 3, "local_epochs": 2,
           "model_size_mb": 4, "strategy": "fedadam", "wan_model": "legacy-5kwh-per-gb"},
    "sim": {"classes": 3, "prior": [0.5, 0.25, 0.25], "samples_per_client": 12,
            "hidden_units": 4},
}


class TestConfigWriter:
    def test_every_optional_field_is_written_as_pinned(self):
        cfg = config_from_dict(ALL_FIELDS, registry=builtin_registry())
        assert config_to_dict(cfg) == {
            "mode": "fl", "seed": 5,
            "hardware": {"name": "board", "active_power_w": 5.0, "idle_power_w": 1.0,
                         "time_per_local_epoch_s": 0.8, "kind": "edge"},
            "grid": [{"region": "lab", "c_rate_kg_per_kwh": 0.3},
                     {"region": "hill", "c_rate_kg_per_kwh": 0.05}],
            "network": {"download_mbps": 50, "upload_mbps": 10, "router_power_w": 6,
                        "region": "lab"},
            "fl": {"pool_size": 8, "clients_per_round": 2, "rounds": 3, "local_epochs": 2,
                   "model_size_mb": 4, "strategy": "fedadam",
                   "wan_model": "legacy-5kwh-per-gb"},
            "sim": {"classes": 3, "features": 32, "n_samples": 5000, "separation": 3.0,
                    "samples_per_client": 12, "batch_size": 32, "target_accuracy": 0.5,
                    "client_lr": 0.03162277660168379, "server_lr": 0.1, "beta1": 0.9,
                    "beta2": 0.99, "tau": 0.001, "hidden_units": 4,
                    "prior": [0.5, 0.25, 0.25], "alpha": 1000.0},
        }
        assert config_digest(cfg) == "1d3fd1365331"
