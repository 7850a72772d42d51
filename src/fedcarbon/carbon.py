"""Energy and CO2e arithmetic for federated and centralized training runs.

The accounting is deliberately simple and auditable:

* device training energy is watts times seconds, summed over every
  (round, client) participation entry,
* centralized energy is the device draw times the run duration, scaled by
  the datacenter PUE,
* WAN transfer energy prices the time a full model exchange keeps the
  link busy (download plus upload) at router power plus the idle draw of
  the receiving device,
* a legacy flat-rate transfer model (5 kWh per GB per transfer) is kept
  for comparison with older estimates,
* grams of CO2e are energy times the grid intensity; kg per kWh equals
  g per Wh, so Wh values convert directly.

All public functions are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .profiles import (
    ConfigError,
    ExperimentConfig,
    GridIntensity,
    HardwareProfile,
    NetworkProfile,
    active_registry,
    config_digest,
    _as_dict,
    _finite,
    _integer,
    _resolve,
)

__all__ = [
    "ScheduleEntry",
    "RoundSchedule",
    "EnergyBreakdown",
    "EmissionReport",
    "cumulative_training_energy",
    "training_energy_fl",
    "training_energy_centralized",
    "communication_energy",
    "legacy_transfer_energy",
    "to_co2e",
    "estimate_fl",
    "estimate_centralized",
    "schedule_prefix",
    "schedule_to_dict",
    "schedule_from_dict",
]

SECONDS_PER_HOUR = 3600.0

# Flat-rate WAN model: kWh consumed by moving one GB once.
LEGACY_KWH_PER_GB = 5.0

MEGABITS_PER_GB = 8000.0

# Most entries RoundSchedule.uniform expands to; fl.rounds itself has no
# upper bound.  Expanding and pricing took about 1.7 us per entry on one
# vCPU of a shared 2.1 GHz Xeon VM, so the cap is about 0.85 s of
# `estimate` there.
UNIFORM_ENTRY_CAP = 500_000


@dataclass(frozen=True)
class ScheduleEntry:
    """One client's participation in one round."""

    round_index: int
    client_id: int
    wall_time_s: float
    hardware: HardwareProfile

    def __post_init__(self) -> None:
        if not (_integer(self.round_index) and self.round_index >= 0):
            raise ValueError("round_index must be an integer >= 0")
        if not (_integer(self.client_id) and self.client_id >= 0):
            raise ValueError("client_id must be an integer >= 0")
        if not (_finite(self.wall_time_s) and self.wall_time_s > 0):
            raise ValueError("wall_time_s must be finite and > 0")


@dataclass(frozen=True)
class RoundSchedule:
    """Who trained when, for how long, on what device.

    rounds is the number of executed rounds; every entry's round index must
    lie in [0, rounds) and no (round, client) pair may repeat.
    """

    rounds: int
    participation: tuple[ScheduleEntry, ...]

    def __post_init__(self) -> None:
        if not (_integer(self.rounds) and self.rounds >= 0):
            raise ValueError("rounds must be an integer >= 0")
        seen: set[tuple[int, int]] = set()
        for e in self.participation:
            if e.round_index >= self.rounds:
                raise ValueError(
                    f"entry round {e.round_index} outside executed range [0, {self.rounds})")
            key = (e.round_index, e.client_id)
            if key in seen:
                raise ValueError(f"duplicate participation entry for {key}")
            seen.add(key)

    @classmethod
    def uniform(cls, rounds: int, clients_per_round: int, wall_time_s: float,
                hardware: HardwareProfile) -> "RoundSchedule":
        """Same clients, same wall time, every round (a uniform fleet).

        Raises when rounds x clients_per_round exceeds UNIFORM_ENTRY_CAP.
        """
        if not (_integer(rounds) and _integer(clients_per_round)):
            raise ValueError("rounds and clients_per_round must be integers")
        if clients_per_round < 0:
            raise ValueError("clients_per_round must be >= 0")
        if not (_finite(wall_time_s) and wall_time_s > 0):
            raise ValueError("wall_time_s must be finite and > 0")
        if rounds * clients_per_round > UNIFORM_ENTRY_CAP:
            raise ValueError(
                f"uniform schedule of {rounds} rounds x {clients_per_round} clients "
                f"exceeds the cap of {UNIFORM_ENTRY_CAP} entries")
        entries = tuple(
            ScheduleEntry(r, c, wall_time_s, hardware)
            for r in range(rounds) for c in range(clients_per_round)
        ) if clients_per_round else ()
        return cls(rounds=rounds, participation=entries)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Training and communication energy in Wh plus derived totals."""

    training_wh: float
    communication_wh: float
    total_wh: float
    comm_fraction: float

    @classmethod
    def from_parts(cls, training_wh: float, communication_wh: float) -> "EnergyBreakdown":
        if training_wh < 0 or communication_wh < 0:
            raise ValueError("energy components must be >= 0")
        total = training_wh + communication_wh
        fraction = communication_wh / total if total > 0 else 0.0
        return cls(training_wh, communication_wh, total, fraction)


@dataclass(frozen=True)
class EmissionReport:
    """Energy breakdown priced on one grid region."""

    energy: EnergyBreakdown
    co2e_g: float
    grid: GridIntensity
    mode: str
    config_digest: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "training_wh": self.energy.training_wh,
            "communication_wh": self.energy.communication_wh,
            "total_wh": self.energy.total_wh,
            "comm_fraction": self.energy.comm_fraction,
            "co2e_g": self.co2e_g,
            "grid_region": self.grid.region,
            "c_rate": self.grid.c_rate_kg_per_kwh,
            "mode": self.mode,
            "config_digest": self.config_digest,
        }


def cumulative_training_energy(schedule: RoundSchedule) -> tuple[float, ...]:
    """Training Wh of rounds 0..r for each executed round r; the last is the total.

    Joules are summed entry by entry, round by round, in schedule order.
    """
    per_round: list[list[float]] = [[] for _ in range(schedule.rounds)]
    for e in schedule.participation:
        per_round[e.round_index].append(e.wall_time_s * e.hardware.active_power_w)
    cumulative = []
    joules = 0.0
    for round_joules in per_round:
        for j in round_joules:
            joules += j
        cumulative.append(joules / SECONDS_PER_HOUR)
    return tuple(cumulative)


def training_energy_fl(schedule: RoundSchedule) -> float:
    """Training energy of every entry of the schedule, in Wh."""
    cumulative = cumulative_training_energy(schedule)
    return cumulative[-1] if cumulative else 0.0


def training_energy_centralized(power_w: float, duration_s: float, pue: float) -> float:
    """PUE-scaled device energy of one centralized run, in Wh."""
    if not (math.isfinite(power_w) and power_w > 0):
        raise ValueError("power_w must be finite and > 0")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError("duration_s must be finite and >= 0")
    if not (math.isfinite(pue) and pue >= 1.0):
        raise ValueError("pue must be >= 1.0")
    return pue * power_w * duration_s / SECONDS_PER_HOUR


def communication_energy(schedule: RoundSchedule, model_size_mb: float,
                         network: NetworkProfile) -> float:
    """WAN energy of exchanging the model each participation entry, in Wh.

    One exchange keeps the link busy for S * (1/D + 1/U) seconds, where S
    is the model size in megabits and D, U the link rates in Mbps.  That
    window is priced at router power plus the idle draw of the entry's
    device (the device waits while the payload moves).
    """
    if not (math.isfinite(model_size_mb) and model_size_mb >= 0):
        raise ValueError("model_size_mb must be finite and >= 0")
    transfer_s = model_size_mb * (1.0 / network.download_mbps + 1.0 / network.upload_mbps)
    joules = sum(
        transfer_s * (network.router_power_w + e.hardware.idle_power_w)
        for e in schedule.participation
    )
    return joules / SECONDS_PER_HOUR


def legacy_transfer_energy(model_size_gb: float, transfers: int) -> float:
    """Flat-rate WAN model: 5 kWh per GB per transfer.  Returns kWh."""
    if not (math.isfinite(model_size_gb) and model_size_gb >= 0):
        raise ValueError("model_size_gb must be finite and >= 0")
    if not (isinstance(transfers, int) and transfers >= 0):
        raise ValueError("transfers must be an integer >= 0")
    return LEGACY_KWH_PER_GB * model_size_gb * transfers


def to_co2e(energy_wh: float, grid: GridIntensity) -> float:
    """Grams of CO2e for energy_wh on the given grid.

    The grid rate is kg per kWh, which is numerically g per Wh, so the
    conversion is a single multiply.
    """
    if not (math.isfinite(energy_wh) and energy_wh >= 0):
        raise ValueError("energy_wh must be finite and >= 0")
    return energy_wh * grid.c_rate_kg_per_kwh


def _check_schedule_matches(cfg: ExperimentConfig, schedule: RoundSchedule) -> None:
    assert cfg.fl is not None
    fewest = min(1, cfg.fl.rounds)
    if not fewest <= schedule.rounds <= cfg.fl.rounds:
        raise ValueError(f"schedule has {schedule.rounds} rounds; a run of this config "
                         f"has {fewest} to {cfg.fl.rounds}")
    per_round: dict[int, int] = {}
    for e in schedule.participation:
        per_round[e.round_index] = per_round.get(e.round_index, 0) + 1
        if e.client_id >= cfg.fl.pool_size:
            raise ValueError(
                f"schedule client {e.client_id} outside pool of {cfg.fl.pool_size}")
    for r in range(schedule.rounds):
        n = per_round.get(r, 0)
        if n != cfg.fl.clients_per_round:
            raise ValueError(
                f"round {r} has {n} participants, config declares "
                f"{cfg.fl.clients_per_round} per round")


def _report(cfg: ExperimentConfig, training_wh: float,
            communication_wh: float) -> EmissionReport:
    energy = EnergyBreakdown.from_parts(training_wh, communication_wh)
    return EmissionReport(energy, to_co2e(energy.total_wh, cfg.grid), cfg.grid,
                          cfg.mode, config_digest(cfg))


def estimate_fl(cfg: ExperimentConfig, schedule: RoundSchedule) -> EmissionReport:
    """Price a federated schedule under the config's WAN model and grid.

    fl.rounds caps a run: the schedule may hold 1 to fl.rounds rounds, or 0 if it is 0.
    """
    if cfg.mode != "fl":
        raise ValueError(f"estimate_fl requires mode 'fl', got {cfg.mode!r}")
    assert cfg.fl is not None
    _check_schedule_matches(cfg, schedule)
    training = training_energy_fl(schedule)
    size_mb = cfg.fl.model_size_mb
    if size_mb <= 0:
        comm = 0.0
    elif cfg.fl.wan_model == "router":
        assert cfg.network is not None  # ExperimentConfig requires it here
        comm = communication_energy(schedule, size_mb, cfg.network)
    else:
        kwh = legacy_transfer_energy(size_mb / MEGABITS_PER_GB, len(schedule.participation))
        comm = kwh * 1000.0
    return _report(cfg, training, comm)


def estimate_centralized(cfg: ExperimentConfig) -> EmissionReport:
    """Price a centralized run: epochs times epoch time at PUE-scaled power."""
    if cfg.mode != "centralized":
        raise ValueError(f"estimate_centralized requires mode 'centralized', got {cfg.mode!r}")
    assert cfg.epochs is not None and cfg.pue is not None
    duration_s = cfg.epochs * cfg.hardware.time_per_local_epoch_s
    training = training_energy_centralized(cfg.hardware.active_power_w, duration_s, cfg.pue)
    return _report(cfg, training, 0.0)


def schedule_prefix(schedule: RoundSchedule, rounds: int) -> RoundSchedule:
    """Restrict a schedule to its first `rounds` rounds."""
    if not (isinstance(rounds, int) and 0 <= rounds <= schedule.rounds):
        raise ValueError(f"rounds must lie in [0, {schedule.rounds}]")
    entries = tuple(e for e in schedule.participation if e.round_index < rounds)
    return RoundSchedule(rounds=rounds, participation=entries)


# --- JSON round-trip ----------------------------------------------------

def schedule_to_dict(schedule: RoundSchedule) -> dict[str, Any]:
    return {
        "rounds": schedule.rounds,
        "participation": [
            {
                "round": e.round_index,
                "client": e.client_id,
                "wall_time_s": e.wall_time_s,
                "hardware": _as_dict(e.hardware),
            }
            for e in schedule.participation
        ],
    }


_ENTRY_KEYS = frozenset({"round", "client", "wall_time_s", "hardware"})


def _require(obj: Any, keys: frozenset[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    missing = sorted(keys - obj.keys())
    if missing:
        raise ConfigError(f"{where} is missing {missing[0]!r}")
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {unknown}")


def schedule_from_dict(raw: Any) -> RoundSchedule:
    """Parse a schedule JSON object.

    Two forms are accepted: an explicit "participation" entry list, or the
    compact {"rounds": R, "uniform": {"clients_per_round", "wall_time_s",
    "hardware"}} form that expands to the same clients every round.  The
    uniform object and each entry take exactly their own keys.
    """
    if not isinstance(raw, dict) or "rounds" not in raw:
        raise ConfigError("schedule must be an object with a 'rounds' key")
    rounds = raw["rounds"]
    registry = active_registry()
    if "uniform" in raw:
        if "participation" in raw:
            raise ConfigError("schedule takes 'participation' or 'uniform', not both")
        u = raw["uniform"]
        _require(u, frozenset({"clients_per_round", "wall_time_s", "hardware"}),
                 "schedule 'uniform'")
        hw = _resolve(u["hardware"], "hw:", registry)
        return RoundSchedule.uniform(rounds, u["clients_per_round"], u["wall_time_s"], hw)
    if "participation" not in raw:
        raise ConfigError("schedule needs either 'participation' or 'uniform'")
    if not isinstance(raw["participation"], list):
        raise ConfigError("schedule 'participation' must be a list")
    entries = []
    # One handler around the loop: valid files pay only a key count per
    # entry, and any error is re-raised naming the entry it came from.
    try:
        for i, item in enumerate(raw["participation"]):
            r, c, t, hw = item["round"], item["client"], item["wall_time_s"], item["hardware"]
            if len(item) != 4:
                raise KeyError
            entries.append(ScheduleEntry(r, c, t, _resolve(hw, "hw:", registry)))
    except (TypeError, KeyError):
        _require(item, _ENTRY_KEYS, f"participation entry {i}")
        raise
    except ValueError as exc:
        raise ConfigError(f"participation entry {i}: {exc}") from None
    return RoundSchedule(rounds=rounds, participation=tuple(entries))
