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
  for comparison with older estimates; estimate_fl prices either model
  from its per-round ledger,
* grams of CO2e are energy times the grid intensity; kg per kWh equals
  g per Wh, so Wh values convert directly.

Sums of joules run one entry at a time, left to right (np.cumsum, never
the pairwise np.sum or Python 3.12's compensated sum), so a price does
not depend on the numpy or Python version.  All public functions are
pure and deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .profiles import (
    _FLOAT_MAX,
    ConfigError,
    ExperimentConfig,
    GridIntensity,
    HardwareProfile,
    NetworkProfile,
    active_registry,
    config_digest,
    _as_dict,
    _check,
    _check_keys,
    _finite,
    _integer,
    _resolve,
    _training_time_s,
)

__all__ = [
    "ScheduleEntry",
    "RoundSchedule",
    "EnergyBreakdown",
    "EmissionReport",
    "cumulative_training_energy",
    "training_energy_fl",
    "training_energy_centralized",
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

# Round and client values are held as int64.
_INDEX_LIMIT = 2 ** 63


def _entry_problem(round_index: Any, client_id: Any, wall_time_s: Any) -> str | None:
    """The first rule one entry's three numbers break, or None."""
    if not (_integer(round_index) and 0 <= round_index < _INDEX_LIMIT):
        return "round_index must be an integer in [0, 2**63)"
    if not (_integer(client_id) and 0 <= client_id < _INDEX_LIMIT):
        return "client_id must be an integer in [0, 2**63)"
    if not (_finite(wall_time_s) and wall_time_s > 0):
        return "wall_time_s must be finite and > 0"
    return None


@dataclass(frozen=True)
class ScheduleEntry:
    """One client's participation in one round."""

    round_index: int
    client_id: int
    wall_time_s: float
    hardware: HardwareProfile

    def __post_init__(self) -> None:
        problem = _entry_problem(self.round_index, self.client_id, self.wall_time_s)
        if problem:
            raise ValueError(problem)


def _first_repeat(round_: np.ndarray, client: np.ndarray) -> tuple[int, int] | None:
    """The first entry whose (round, client) pair an earlier entry holds,
    and the earliest entry holding it; None when no pair repeats.

    Each pair is first packed into one int64 key, round * (largest client
    + 1) + client, and the keys are sorted; equal pairs give equal keys, so
    a list whose sorted keys hold no two equal neighbours has no repeat.
    Only a list with a repeat, or whose keys would not fit in int64, is
    sorted by (round, client), which names the first repeat."""
    if not len(round_):
        return None
    width = int(client.max()) + 1
    if (int(round_.max()) + 1) * width < _INDEX_LIMIT:
        key = round_ * width + client
        key.sort()
        if not (key[1:] == key[:-1]).any():
            return None
    # A stable sort by (round, client) puts each repeat right after the
    # earliest entry with its pair; the first repeat of all is the second
    # entry of its pair's group.
    order = np.lexsort((client, round_))
    r, c = round_[order], client[order]
    repeats = np.flatnonzero((r[1:] == r[:-1]) & (c[1:] == c[:-1])) + 1
    if not repeats.size:
        return None
    k = repeats[np.argmin(order[repeats])]
    return int(order[k]), int(order[k - 1])


def _check_rounds(rounds: Any) -> None:
    """The one rule for a schedule's round count, in either form."""
    _check(_integer(rounds) and rounds >= 0, "rounds must be an integer >= 0")


def _check_entries(rounds: Any, round_: np.ndarray, client: np.ndarray) -> None:
    """ValueError unless rounds is an integer >= 0, every entry's round lies
    in [0, rounds) and no (round, client) pair repeats; the message names
    the first entry that breaks a rule."""
    _check_rounds(rounds)
    late = np.flatnonzero(round_ >= rounds) if rounds < _INDEX_LIMIT else ()
    first_late = int(late[0]) if len(late) else len(round_)
    repeat = _first_repeat(round_, client)
    if repeat and repeat[0] < first_late:
        i, earlier = repeat
        raise ValueError(f"participation entry {i}: duplicate of entry {earlier} "
                         f"(round {round_[i]}, client {client[i]})")
    if len(late):
        raise ValueError(f"participation entry {first_late}: round {round_[first_late]} "
                         f"outside executed range [0, {rounds})")


def _slots(profiles: Iterable[HardwareProfile],
           ) -> tuple[np.ndarray, tuple[HardwareProfile, ...]]:
    """Each profile's slot, as an int64 index column, and the distinct
    profiles listed once in order of first use: the one rule that makes
    equal schedules hold equal hardware columns."""
    slot: dict[HardwareProfile, int] = {}
    index = np.array([slot.setdefault(p, len(slot)) for p in profiles], dtype=np.int64)
    return index, tuple(slot)


class RoundSchedule:
    """Who trained when, for how long, on what device, held as columns.

    Entry i is client[i] training in round[i] for wall_time_s[i] seconds on
    hardware[hardware_index[i]]; rounds is the number of executed rounds.
    Every round lies in [0, rounds) and no (round, client) pair repeats.
    round, client and hardware_index are int64 and wall_time_s is float64,
    all read-only; hardware lists each distinct profile once, in order of
    first use.  RoundSchedule(rounds, participation) builds a schedule from
    ScheduleEntry objects, and `participation` lists them again (built on
    first read).  Two schedules are equal when their entries are.
    """

    rounds: int
    round: np.ndarray
    client: np.ndarray
    wall_time_s: np.ndarray
    hardware_index: np.ndarray
    hardware: tuple[HardwareProfile, ...]

    def __init__(self, rounds: int, participation: Iterable[ScheduleEntry]) -> None:
        entries = tuple(participation)
        round_ = np.array([e.round_index for e in entries], dtype=np.int64)
        client = np.array([e.client_id for e in entries], dtype=np.int64)
        _check_entries(rounds, round_, client)
        self._set(rounds, round_, client,
                  np.array([e.wall_time_s for e in entries], dtype=np.float64),
                  *_slots(e.hardware for e in entries))
        self.__dict__["participation"] = entries

    @classmethod
    def _from_columns(cls, rounds: int, round_: np.ndarray, client: np.ndarray,
                      wall_time_s: np.ndarray, hardware_index: np.ndarray,
                      hardware: tuple[HardwareProfile, ...]) -> "RoundSchedule":
        """A schedule over columns its caller has checked and owns."""
        schedule = cls.__new__(cls)
        schedule._set(rounds, round_, client, wall_time_s, hardware_index, hardware)
        return schedule

    def _set(self, rounds: int, round_: np.ndarray, client: np.ndarray,
             wall_time_s: np.ndarray, hardware_index: np.ndarray,
             hardware: tuple[HardwareProfile, ...]) -> None:
        for column in (round_, client, wall_time_s, hardware_index):
            column.setflags(write=False)
        self.__dict__.update(rounds=rounds, round=round_, client=client,
                             wall_time_s=wall_time_s, hardware_index=hardware_index,
                             hardware=hardware)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"RoundSchedule is read-only; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"RoundSchedule is read-only; cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.rounds, self.hardware, self.round.tobytes(), self.client.tobytes(),
                self.wall_time_s.tobytes(), self.hardware_index.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundSchedule):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"RoundSchedule(rounds={self.rounds}, entries={len(self.round)}, "
                f"hardware={[h.name for h in self.hardware]})")

    @functools.cached_property
    def participation(self) -> tuple[ScheduleEntry, ...]:
        """The entries as ScheduleEntry objects, in schedule order."""
        hw = self.hardware
        return tuple(ScheduleEntry(r, c, t, hw[h]) for r, c, t, h in zip(
            self.round.tolist(), self.client.tolist(), self.wall_time_s.tolist(),
            self.hardware_index.tolist()))

    @classmethod
    def uniform(cls, rounds: int, clients_per_round: int, wall_time_s: float,
                hardware: HardwareProfile) -> "RoundSchedule":
        """Same clients, same wall time, every round (a uniform fleet).

        Raises when rounds x clients_per_round exceeds UNIFORM_ENTRY_CAP.
        """
        _check_rounds(rounds)
        if not (_integer(clients_per_round) and clients_per_round >= 0):
            raise ValueError("clients_per_round must be an integer >= 0")
        if not (_finite(wall_time_s) and wall_time_s > 0):
            raise ValueError("wall_time_s must be finite and > 0")
        if rounds * clients_per_round > UNIFORM_ENTRY_CAP:
            raise ValueError(
                f"uniform schedule of {rounds} rounds x {clients_per_round} clients "
                f"exceeds the cap of {UNIFORM_ENTRY_CAP} entries")
        # Either count may be huge when the other is 0: then nothing is built.
        width = clients_per_round if rounds else 0
        clients = np.broadcast_to(np.arange(width, dtype=np.int64),
                                  (rounds if clients_per_round else 0, width))
        return cls._same_device(rounds, clients, wall_time_s, hardware)

    @classmethod
    def _same_device(cls, rounds: int, clients: np.ndarray, wall_time_s: float,
                     hardware: HardwareProfile) -> "RoundSchedule":
        """Row r of the (rounds trained, clients per round) array `clients`
        lists the clients that trained in round r, each for wall_time_s on
        hardware; `rounds` is at least the number of rows."""
        n = clients.size
        return cls._from_columns(
            rounds, np.repeat(np.arange(len(clients), dtype=np.int64), clients.shape[1]),
            clients.astype(np.int64).reshape(-1), np.full(n, wall_time_s, dtype=np.float64),
            np.zeros(n, dtype=np.int64), (hardware,) if n else ())


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
        for part, wh in (("training", training_wh), ("communication", communication_wh),
                         ("total", total)):
            _finite_wh(part, wh)
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


def _finite_wh(part: str, wh: float) -> float:
    """wh, unless it is not finite: then a ValueError naming the part."""
    if not math.isfinite(wh):
        raise ValueError(f"{part} energy overflows the float range")
    return wh


def _per_hardware(schedule: RoundSchedule, field: str) -> np.ndarray:
    return np.array([getattr(h, field) for h in schedule.hardware], dtype=np.float64)


def _round_ends(schedule: RoundSchedule) -> np.ndarray:
    """For each executed round r, the number of entries of rounds 0..r."""
    return np.cumsum(np.bincount(schedule.round, minlength=schedule.rounds))


def _training_ledger(schedule: RoundSchedule) -> np.ndarray:
    """Training Wh of rounds 0..r for each executed round r (float64),
    unchecked: a row beyond the float range is inf.

    Joules are added one entry at a time, round by round and in schedule
    order within a round: one np.cumsum over a stable sort by round, read
    at the last entry of each round.
    """
    order = np.argsort(schedule.round, kind="stable")
    active = _per_hardware(schedule, "active_power_w")[schedule.hardware_index[order]]
    with np.errstate(over="ignore"):
        joules = np.cumsum(schedule.wall_time_s[order] * active)
    return np.concatenate(([0.0], joules))[_round_ends(schedule)] / SECONDS_PER_HOUR


def cumulative_training_energy(schedule: RoundSchedule) -> tuple[float, ...]:
    """Training Wh of rounds 0..r for each executed round r; the last is the total.

    Joules are summed entry by entry, round by round, in schedule order.
    Raises ValueError when the total is not finite.
    """
    ledger = _training_ledger(schedule)
    if len(ledger):
        _finite_wh("training", float(ledger[-1]))
    return tuple(ledger.tolist())


def training_energy_fl(schedule: RoundSchedule) -> float:
    """Training Wh of every entry: cumulative_training_energy's last row,
    or 0.0 when no round ran.  Raises ValueError when it is not finite."""
    cumulative = cumulative_training_energy(schedule)
    return cumulative[-1] if cumulative else 0.0


def training_energy_centralized(power_w: float, duration_s: float, pue: float) -> float:
    """PUE-scaled device energy of one centralized run, in Wh.  Raises
    ValueError when the product is not finite."""
    if not (math.isfinite(power_w) and power_w > 0):
        raise ValueError("power_w must be finite and > 0")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError("duration_s must be finite and >= 0")
    if not (math.isfinite(pue) and pue >= 1.0):
        raise ValueError("pue must be >= 1.0")
    return _finite_wh("training", pue * power_w * duration_s / SECONDS_PER_HOUR)


def _transfer_joules(schedule: RoundSchedule, model_size_mb: float,
                     network: NetworkProfile) -> np.ndarray:
    """Running sum of the WAN joules of each entry's model exchange, in
    schedule order (float64, inf or NaN past the float range).

    One exchange keeps the link busy for S * (1/D + 1/U) seconds, where S
    is the model size in megabits and D, U the link rates in Mbps.  That
    window is priced at router power plus the idle draw of the entry's
    device (the device waits while the payload moves).
    """
    transfer_s = model_size_mb * (1.0 / network.download_mbps + 1.0 / network.upload_mbps)
    # An infinite transfer time times a draw of 0 W is NaN, which is not finite either.
    with np.errstate(over="ignore", invalid="ignore"):
        per_hardware = transfer_s * (network.router_power_w
                                     + _per_hardware(schedule, "idle_power_w"))
        return np.cumsum(per_hardware[schedule.hardware_index])


def to_co2e(energy_wh: float, grid: GridIntensity) -> float:
    """Grams of CO2e for energy_wh on the given grid.

    The grid rate is kg per kWh, which is numerically g per Wh, so the
    conversion is a single multiply.  Raises ValueError when the product
    is not finite.
    """
    if not (math.isfinite(energy_wh) and energy_wh >= 0):
        raise ValueError("energy_wh must be finite and >= 0")
    co2e_g = energy_wh * grid.c_rate_kg_per_kwh
    if not math.isfinite(co2e_g):
        raise ValueError(f"CO2e on grid {grid.region!r} overflows the float range")
    return co2e_g


def _check_schedule_matches(cfg: ExperimentConfig, schedule: RoundSchedule) -> None:
    fl = cfg.fl
    assert fl is not None
    fewest = min(1, fl.rounds)
    if not fewest <= schedule.rounds <= fl.rounds:
        raise ValueError(f"schedule has {schedule.rounds} rounds; a run of this config "
                         f"has {fewest} to {fl.rounds}")
    outside = (np.flatnonzero(schedule.client >= fl.pool_size)
               if fl.pool_size < _INDEX_LIMIT else ())
    if len(outside):
        raise ValueError(
            f"schedule client {schedule.client[outside[0]]} outside pool of {fl.pool_size}")
    # n entries fill at most n rounds, so when there are more rounds than
    # that, one of rounds 0..n is short: counting those finds the first.
    head = min(schedule.rounds, len(schedule.round) + 1)
    counts = np.bincount(schedule.round[schedule.round < head], minlength=head)
    wrong = np.flatnonzero(counts != fl.clients_per_round)
    if len(wrong):
        r = wrong[0]
        raise ValueError(f"round {r} has {counts[r]} participants, config declares "
                         f"{fl.clients_per_round} per round")


def _round_ledger(cfg: ExperimentConfig,
                  schedule: RoundSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Training Wh and communication Wh of rounds 0..r, for each executed
    round r of a schedule the config may price (float64 rows, unchecked:
    a row beyond the float range is inf or NaN, and pricing it raises).

    The schedule is checked once.  Training rows are _training_ledger's.
    Communication rows are the running sum of each entry's transfer
    joules in schedule order, read at the entry count of rounds 0..r;
    under the flat-rate model, row r prices that many transfers at
    LEGACY_KWH_PER_GB, and with no model size every row is 0.  This is
    the one place communication is priced.  The last rows price the whole
    schedule.  When the schedule lists its entries round by round, as
    simulate's does, every row r - 1 is what pricing the schedule's first
    r rounds alone gives, to the last bit.
    """
    fl = cfg.fl
    assert fl is not None
    _check_schedule_matches(cfg, schedule)
    training = _training_ledger(schedule)
    size_mb = fl.model_size_mb
    if size_mb <= 0:
        return training, np.zeros(len(training))
    ends = _round_ends(schedule)
    if fl.wan_model == "router":
        assert cfg.network is not None  # ExperimentConfig requires it here
        joules = _transfer_joules(schedule, size_mb, cfg.network)
        return training, np.concatenate(([0.0], joules))[ends] / SECONDS_PER_HOUR
    with np.errstate(over="ignore"):
        return training, LEGACY_KWH_PER_GB * (size_mb / MEGABITS_PER_GB) * ends * 1000.0


def _priced(cfg: ExperimentConfig, training_wh: float,
            communication_wh: float) -> tuple[EnergyBreakdown, float]:
    """The energy breakdown and its grams CO2e on the config's grid;
    ValueError naming the first part, or the grid, that is not finite."""
    energy = EnergyBreakdown.from_parts(training_wh, communication_wh)
    return energy, to_co2e(energy.total_wh, cfg.grid)


def _report(cfg: ExperimentConfig, training_wh: float,
            communication_wh: float) -> EmissionReport:
    return EmissionReport(*_priced(cfg, training_wh, communication_wh), cfg.grid,
                          cfg.mode, config_digest(cfg))


def estimate_fl(cfg: ExperimentConfig, schedule: RoundSchedule) -> EmissionReport:
    """Price a federated schedule under the config's WAN model and grid.

    fl.rounds caps a run: the schedule may hold 1 to fl.rounds rounds, or 0 if it is 0.
    The price is the last row of the schedule's per-round ledger.
    """
    if cfg.mode != "fl":
        raise ValueError(f"estimate_fl requires mode 'fl', got {cfg.mode!r}")
    training, communication = _round_ledger(cfg, schedule)
    if not len(training):
        return _report(cfg, 0.0, 0.0)
    return _report(cfg, float(training[-1]), float(communication[-1]))


def estimate_centralized(cfg: ExperimentConfig) -> EmissionReport:
    """Price a centralized run: epochs times epoch time at PUE-scaled power."""
    if cfg.mode != "centralized":
        raise ValueError(f"estimate_centralized requires mode 'centralized', got {cfg.mode!r}")
    assert cfg.pue is not None
    training = training_energy_centralized(cfg.hardware.active_power_w,
                                           _training_time_s(cfg), cfg.pue)
    return _report(cfg, training, 0.0)


def schedule_prefix(schedule: RoundSchedule, rounds: int) -> RoundSchedule:
    """Restrict a schedule to its first `rounds` rounds."""
    if not (_integer(rounds) and 0 <= rounds <= schedule.rounds):
        raise ValueError(f"rounds must be an integer in [0, {schedule.rounds}]")
    keep = schedule.round < rounds
    # The kept entries may use only some of the profiles, and not in slot order.
    index, hardware = _slots(schedule.hardware[k] for k in schedule.hardware_index[keep].tolist())
    return RoundSchedule._from_columns(rounds, schedule.round[keep], schedule.client[keep],
                                       schedule.wall_time_s[keep], index, hardware)


# --- JSON round-trip ----------------------------------------------------

def schedule_to_dict(schedule: RoundSchedule) -> dict[str, Any]:
    hardware = [_as_dict(h) for h in schedule.hardware]
    return {
        "rounds": schedule.rounds,
        "participation": [
            {"round": r, "client": c, "wall_time_s": t, "hardware": dict(hardware[h])}
            for r, c, t, h in zip(schedule.round.tolist(), schedule.client.tolist(),
                                  schedule.wall_time_s.tolist(),
                                  schedule.hardware_index.tolist())
        ],
    }


_ENTRY_KEYS = frozenset({"round", "client", "wall_time_s", "hardware"})
_UNIFORM_KEYS = frozenset({"clients_per_round", "wall_time_s", "hardware"})


def _of_types(values: Iterable[Any], allowed: tuple[type, ...]) -> bool:
    """Whether every value is an instance of a type in `allowed` and none is
    a bool (the rule of _integer and _finite), checking each distinct type
    once."""
    return all(issubclass(t, allowed) and not issubclass(t, bool) for t in {*map(type, values)})


def _entry_columns(participation: list, registry: dict[str, Any]) -> tuple | None:
    """The round, client, wall-time and hardware-index columns of an entry
    list and its distinct profiles in order of first use, or None exactly
    when some entry breaks a rule that _first_bad_entry names.  Types are
    checked once per distinct type and numbers as columns; each distinct
    hardware value is resolved once: a name by itself, an inline object by
    its items and their types (so 1 and true stay apart).  Values that
    resolve to equal profiles ("tx2-cifar10" and "hw:tx2-cifar10") share
    one index."""
    kinds = {*map(type, participation)}
    if kinds - {dict}:
        # A dict subclass may answer for a key it lacks (__missing__), so its
        # keys are checked as they are; any other type is no entry object.
        if not (all(issubclass(kind, dict) for kind in kinds)
                and all(dict.keys(item) == _ENTRY_KEYS for item in participation)):
            return None
    rounds, clients, walls, slots = [], [], [], []
    slot_of: dict[Any, int] = {}
    values: list[Any] = []  # the first hardware value of each slot
    try:
        for item in participation:
            r, c, t, hw = item["round"], item["client"], item["wall_time_s"], item["hardware"]
            if len(item) != 4:
                return None
            # Hardware neither a name nor an object raises while it is keyed.
            key = hw if isinstance(hw, str) else (*hw, *hw.values(), *map(type, hw.values()))
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = len(values)
                values.append(hw)
            rounds.append(r)
            clients.append(c)
            walls.append(t)
            slots.append(slot)
        if not (_of_types(rounds, (int,)) and _of_types(clients, (int,))
                and _of_types(walls, (int, float))):
            return None
        round_, client, wall = (np.array(rounds, dtype=np.int64),
                                np.array(clients, dtype=np.int64),
                                np.array(walls, dtype=np.float64))
        # The compares reject NaN.  An int wall time above the float max
        # that float64 rounds down to it is checked as written.
        if len(wall) and not (round_.min() >= 0 and client.min() >= 0
                              and ((wall > 0) & (wall <= _FLOAT_MAX)).all()
                              and all(walls[i] <= _FLOAT_MAX
                                      for i in np.flatnonzero(wall == _FLOAT_MAX))):
            return None
        profiles = [_resolve(value, "hw:", registry) for value in values]
    except (TypeError, KeyError, AttributeError, OverflowError, ValueError):
        return None
    # Values are numbered in order of first use, so the first value that
    # resolves to a profile is that profile's first use.
    index, hardware = _slots(profiles)
    return round_, client, wall, index[np.array(slots, dtype=np.int64)], hardware


def _first_bad_entry(participation: list, registry: dict[str, Any]) -> ConfigError:
    """The error that names the first entry breaking a rule, reading each
    entry left to right: its shape, then its numbers, then its hardware.
    Only called on an entry list _entry_columns refused."""
    for i, item in enumerate(participation):
        where = f"participation entry {i}"
        try:
            _check_keys(item, _ENTRY_KEYS, sorted(_ENTRY_KEYS), where)
        except ConfigError as exc:
            return exc
        problem = _entry_problem(item["round"], item["client"], item["wall_time_s"])
        if problem:
            return ConfigError(f"{where}: {problem}")
        try:
            _resolve(item["hardware"], "hw:", registry)
        except ValueError as exc:
            return ConfigError(f"{where}: {exc}")
    raise AssertionError("the column reader refused an entry list that breaks no rule")


def schedule_from_dict(raw: Any) -> RoundSchedule:
    """Parse a schedule JSON object.

    Two forms are accepted: an explicit "participation" entry list, or the
    compact {"rounds": R, "uniform": {"clients_per_round", "wall_time_s",
    "hardware"}} form that expands to the same clients every round.  The
    uniform object and each entry take exactly their own keys.  A valid
    entry list is read once, as columns; an error in it names the first
    entry that breaks a rule, and an error in the uniform object names
    schedule 'uniform'.  Every error is a ConfigError.
    """
    if not isinstance(raw, dict) or "rounds" not in raw:
        raise ConfigError("schedule must be an object with a 'rounds' key")
    rounds = raw["rounds"]
    registry = active_registry()
    if "uniform" in raw:
        if "participation" in raw:
            raise ConfigError("schedule takes 'participation' or 'uniform', not both")
        _check_rounds(rounds)
        u, where = raw["uniform"], "schedule 'uniform'"
        _check_keys(u, _UNIFORM_KEYS, sorted(_UNIFORM_KEYS), where)
        try:
            hw = _resolve(u["hardware"], "hw:", registry)
            return RoundSchedule.uniform(rounds, u["clients_per_round"], u["wall_time_s"], hw)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if "participation" not in raw:
        raise ConfigError("schedule needs either 'participation' or 'uniform'")
    if not isinstance(raw["participation"], list):
        raise ConfigError("schedule 'participation' must be a list")
    columns = _entry_columns(raw["participation"], registry)
    if columns is None:
        raise _first_bad_entry(raw["participation"], registry)
    round_, client, wall, index, hardware = columns
    try:
        _check_entries(rounds, round_, client)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RoundSchedule._from_columns(rounds, round_, client, wall, index, hardware)
