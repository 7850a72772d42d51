"""Device, grid and datacenter profiles plus experiment-config ingestion.

Power draws and epoch times for the built-in hardware entries are bench
measurements of Jetson TX2 / Xavier NX boards and a V100 server under the
three reference workloads (image classification small/large, keyword
spotting).  Grid intensities are national yearly averages in kg CO2e per
kWh.  Registry names are namespaced: ``hw:``, ``grid:``, ``net:`` and
``pue:``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Collection, Iterable, Mapping

from .partition import ClassPrior

__all__ = [
    "ConfigError",
    "HardwareProfile",
    "GridIntensity",
    "NetworkProfile",
    "FlSetup",
    "SimSetup",
    "ExperimentConfig",
    "builtin_registry",
    "active_registry",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "config_digest",
    "REGISTRY_ENV_VAR",
]

# Environment variable holding a path to a JSON file whose entries are
# merged over the built-in registry (same key/value schema).
REGISTRY_ENV_VAR = "FEDCARBON_REGISTRY"

EDGE = "edge"
DATACENTER = "datacenter"


class ConfigError(ValueError):
    """A config file or profile failed to parse or validate."""


def _check(condition: bool, message: str) -> None:
    """Raise ConfigError(message) unless condition holds."""
    if not condition:
        raise ConfigError(message)


def _integer(x: Any) -> bool:
    """A Python int that is not a bool (JSON true would otherwise pass)."""
    return isinstance(x, int) and not isinstance(x, bool)


_FLOAT_MAX = sys.float_info.max


def _finite(x: Any) -> bool:
    """A non-bool int or float within the float range (not inf, not NaN)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


@dataclass(frozen=True)
class HardwareProfile:
    """Electrical behaviour of one device class under one workload.

    active_power_w is the draw during local training, idle_power_w the draw
    while the device waits (used to price the receiving end of a model
    transfer).  time_per_local_epoch_s is the measured wall time of one
    local epoch of the profiled workload.
    """

    name: str
    active_power_w: float
    idle_power_w: float
    time_per_local_epoch_s: float
    kind: str = EDGE

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigError(f"hardware name must be a string, got {self.name!r}")
        _check(self.kind in (EDGE, DATACENTER),
               f"hardware {self.name!r}: kind must be {EDGE!r} or {DATACENTER!r}")
        _check(_finite(self.active_power_w) and self.active_power_w > 0,
               f"hardware {self.name!r}: active_power_w must be finite and > 0")
        _check(_finite(self.idle_power_w) and self.idle_power_w >= 0,
               f"hardware {self.name!r}: idle_power_w must be finite and >= 0")
        _check(self.idle_power_w < self.active_power_w,
               f"hardware {self.name!r}: idle_power_w must be < active_power_w")
        _check(_finite(self.time_per_local_epoch_s) and self.time_per_local_epoch_s > 0,
               f"hardware {self.name!r}: time_per_local_epoch_s must be finite and > 0")


@dataclass(frozen=True)
class GridIntensity:
    """Average carbon intensity of one electricity grid, kg CO2e per kWh."""

    region: str
    c_rate_kg_per_kwh: float

    def __post_init__(self) -> None:
        if not isinstance(self.region, str):
            raise ConfigError(f"grid region must be a string, got {self.region!r}")
        _check(_finite(self.c_rate_kg_per_kwh) and self.c_rate_kg_per_kwh > 0,
               f"grid {self.region!r}: c_rate_kg_per_kwh must be finite and > 0")


@dataclass(frozen=True)
class NetworkProfile:
    """WAN link seen by participating clients plus the router draw in watts."""

    download_mbps: float
    upload_mbps: float
    router_power_w: float
    region: str = "custom"

    def __post_init__(self) -> None:
        if not isinstance(self.region, str):
            raise ConfigError(f"network region must be a string, got {self.region!r}")
        _check(_finite(self.download_mbps) and self.download_mbps > 0,
               f"network {self.region!r}: download_mbps must be finite and > 0")
        _check(_finite(self.upload_mbps) and self.upload_mbps > 0,
               f"network {self.region!r}: upload_mbps must be finite and > 0")
        _check(_finite(self.router_power_w) and self.router_power_w >= 0,
               f"network {self.region!r}: router_power_w must be finite and >= 0")


STRATEGIES = ("fedavg", "fedadam")
WAN_MODELS = ("router", "legacy-5kwh-per-gb")


@dataclass(frozen=True)
class FlSetup:
    """Federated round structure: fleet size, sampling rate and transfers.

    rounds is the maximum number of rounds a run may execute; model_size_mb
    is the payload exchanged per participation, in megabits.
    """

    pool_size: int
    clients_per_round: int
    rounds: int
    local_epochs: int
    model_size_mb: float = 0.0
    strategy: str = "fedavg"
    wan_model: str = "router"

    def __post_init__(self) -> None:
        _check(_integer(self.pool_size) and self.pool_size >= 1,
               "fl.pool_size must be an integer >= 1")
        _check(_integer(self.clients_per_round) and self.clients_per_round >= 1,
               "fl.clients_per_round must be an integer >= 1")
        _check(self.clients_per_round <= self.pool_size,
               "fl.clients_per_round must be <= fl.pool_size")
        _check(_integer(self.rounds) and self.rounds >= 0,
               "fl.rounds must be an integer >= 0")
        _check(_integer(self.local_epochs) and self.local_epochs >= 1,
               "fl.local_epochs must be an integer >= 1")
        _check(_finite(self.model_size_mb) and self.model_size_mb >= 0,
               "fl.model_size_mb must be finite and >= 0")
        _check(self.strategy in STRATEGIES,
               f"fl.strategy must be one of {STRATEGIES}")
        _check(self.wan_model in WAN_MODELS,
               f"fl.wan_model must be one of {WAN_MODELS}")


# Default client step size; the server-side Adam variant keeps the same
# local rate and applies its own server_lr on top.
DEFAULT_CLIENT_LR = 10.0 ** -1.5


@dataclass(frozen=True)
class SimSetup:
    """Knobs for the synthetic classification task and local training."""

    classes: int = 10
    features: int = 32
    n_samples: int = 5000
    separation: float = 3.0
    samples_per_client: int | None = None
    batch_size: int = 32
    target_accuracy: float = 0.5
    client_lr: float = DEFAULT_CLIENT_LR
    server_lr: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 0.001
    hidden_units: int = 0
    prior: str | tuple[float, ...] = "uniform"
    alpha: float = 1000.0

    def __post_init__(self) -> None:
        prior_list = isinstance(self.prior, (tuple, list))
        if prior_list:
            _check(all(_finite(p) for p in self.prior),
                   "sim.prior list entries must be finite numbers")
            object.__setattr__(self, "prior", tuple(float(p) for p in self.prior))
        _check(_integer(self.classes) and self.classes >= 2,
               "sim.classes must be an integer >= 2")
        _check(_integer(self.features) and self.features >= 1,
               "sim.features must be an integer >= 1")
        _check(_integer(self.n_samples) and self.n_samples >= 10,
               "sim.n_samples must be an integer >= 10")
        _check(_finite(self.separation) and self.separation > 0,
               "sim.separation must be finite and > 0")
        if self.samples_per_client is not None:
            _check(_integer(self.samples_per_client) and self.samples_per_client >= 1,
                   "sim.samples_per_client must be an integer >= 1")
        _check(_integer(self.batch_size) and self.batch_size >= 1,
               "sim.batch_size must be an integer >= 1")
        _check(_finite(self.target_accuracy) and 0.0 <= self.target_accuracy <= 1.0,
               "sim.target_accuracy must lie in [0, 1]")
        _check(_finite(self.client_lr) and self.client_lr > 0,
               "sim.client_lr must be finite and > 0")
        _check(_finite(self.server_lr) and self.server_lr > 0,
               "sim.server_lr must be finite and > 0")
        _check(_finite(self.beta1) and 0.0 <= self.beta1 < 1.0,
               "sim.beta1 must lie in [0, 1)")
        _check(_finite(self.beta2) and 0.0 <= self.beta2 < 1.0,
               "sim.beta2 must lie in [0, 1)")
        _check(_finite(self.tau) and self.tau > 0,
               "sim.tau must be finite and > 0")
        _check(_integer(self.hidden_units) and self.hidden_units >= 0,
               "sim.hidden_units must be an integer >= 0")
        if prior_list:
            _check(len(self.prior) == self.classes,
                   "sim.prior list must have one entry per class")
            try:
                ClassPrior(self.prior)
            except ValueError as exc:
                raise ConfigError(f"sim.prior: {exc}") from None
        else:
            _check(self.prior in ("uniform", "empirical"),
                   "sim.prior must be 'uniform', 'empirical' or a list of proportions")
        _check(_finite(self.alpha) and self.alpha > 0,
               "sim.alpha must be finite and > 0")


MODES = ("fl", "centralized")
# The optional blocks each mode never reads; a config that holds one is
# rejected rather than carried into its digest unread.
_UNREAD = MappingProxyType({
    "fl": ("pue", "epochs"),
    "centralized": ("network", "fl", "sim"),
})


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: what ran where, on which grid."""

    mode: str
    hardware: HardwareProfile
    grids: tuple[GridIntensity, ...]
    seed: int = 0
    network: NetworkProfile | None = None
    pue: float | None = None
    epochs: int | None = None
    fl: FlSetup | None = None
    sim: SimSetup | None = None

    def __post_init__(self) -> None:
        _check(self.mode in MODES, f"mode must be one of {MODES}")
        _check(len(self.grids) >= 1, "at least one grid region is required")
        _check(_integer(self.seed) and self.seed >= 0, "seed must be an integer >= 0")
        if self.mode == "fl":
            _check(self.fl is not None, "fl mode requires an 'fl' object")
            assert self.fl is not None
            if self.fl.wan_model == "router" and self.fl.model_size_mb > 0:
                _check(self.network is not None,
                       "router wan model with a non-zero model size requires a 'network' object")
        else:
            _check(self.pue is not None, "centralized mode requires 'pue'")
            assert self.pue is not None
            _check(_finite(self.pue) and self.pue >= 1.0,
                   f"pue must be >= 1.0, got {self.pue!r}")
            _check(self.epochs is not None and _integer(self.epochs)
                   and self.epochs >= 0,
                   "centralized mode requires integer 'epochs' >= 0")
            _check(self.hardware.kind == DATACENTER,
                   f"centralized mode requires hardware of kind {DATACENTER!r}, "
                   f"got {self.hardware.kind!r}")
        unread = [name for name in _UNREAD[self.mode] if getattr(self, name) is not None]
        _check(not unread, f"{self.mode} mode does not read {unread}")

    @property
    def grid(self) -> GridIntensity:
        """Primary grid region (first entry); reports are priced against it."""
        return self.grids[0]


def _training_time_s(cfg: ExperimentConfig) -> float:
    """The wall time a config's hardware trains: one client's round in a
    federated config (fl.local_epochs times the hardware's
    time_per_local_epoch_s) or the whole run in a centralized one (epochs
    times it).  ConfigError naming both fields when it lies beyond the
    float range.  Loading does not check it: a config priced from a
    schedule never reads it."""
    if cfg.fl is not None:
        epochs, field = cfg.fl.local_epochs, "fl.local_epochs"
    else:
        assert cfg.epochs is not None
        epochs, field = cfg.epochs, "epochs"
    try:
        seconds = epochs * cfg.hardware.time_per_local_epoch_s
    except OverflowError:  # an int epoch count beyond the float range
        seconds = float("inf")
    _check(seconds <= _FLOAT_MAX,
           f"{field} x hardware.time_per_local_epoch_s overflows the float range")
    return seconds


# --- built-in registry -------------------------------------------------

def _edge(name: str, active: float, idle: float, epoch_s: float) -> HardwareProfile:
    return HardwareProfile(name, active, idle, epoch_s, kind=EDGE)


def _dc(name: str, active: float, epoch_s: float) -> HardwareProfile:
    return HardwareProfile(name, active, 0.0, epoch_s, kind=DATACENTER)


_BUILTIN: Mapping[str, Any] = MappingProxyType({
    # Jetson boards: (active W under the workload, idle W, s per local epoch)
    "hw:tx2-cifar10": _edge("tx2-cifar10", 4.7, 1.35, 0.8),
    "hw:nx-cifar10": _edge("nx-cifar10", 6.3, 2.25, 0.6),
    "hw:tx2-imagenet": _edge("tx2-imagenet", 6.5, 1.35, 474.0),
    "hw:nx-imagenet": _edge("nx-imagenet", 9.7, 2.25, 273.0),
    "hw:tx2-speechcommands": _edge("tx2-speechcommands", 5.7, 1.35, 1.6),
    "hw:nx-speechcommands": _edge("nx-speechcommands", 7.9, 2.25, 0.9),
    # TX2 running flat out at its nominal 10 W budget; round time of the
    # small-image workload at that draw.
    "hw:tx2-nominal": _edge("tx2-nominal", 10.0, 1.35, 51.4),
    # V100 server (GPU + rest-of-node), per-epoch training times.
    "hw:v100-cifar10": _dc("v100-cifar10", 202.0, 24.0),
    "hw:v100-imagenet": _dc("v100-imagenet", 304.0, 1440.0),
    "hw:v100-speechcommands": _dc("v100-speechcommands", 124.0, 52.0),
    # National grid averages, kg CO2e per kWh.
    "grid:france": GridIntensity("france", 0.0790),
    "grid:usa": GridIntensity("usa", 0.5741),
    "grid:china": GridIntensity("china", 0.9746),
    # Power usage effectiveness ratios.
    "pue:world-2019": 1.67,
    "pue:google": 1.11,
    # No "net:" defaults ship: WAN bandwidth and router draw vary too much
    # across deployments to publish a representative value, so configs must
    # state them inline.
})


def builtin_registry() -> Mapping[str, Any]:
    """Immutable name -> profile map with the built-in measured values."""
    return _BUILTIN


# Each namespace: what its entries hold (a config dataclass, or float for a
# bare pue ratio), the word its errors use, and defaults for fields an
# inline value leaves out.
_NAMESPACES: Mapping[str, tuple[type, str, dict[str, Any]]] = MappingProxyType({
    "hw:": (HardwareProfile, "hardware", {"name": "inline"}),
    "grid:": (GridIntensity, "grid", {}),
    "net:": (NetworkProfile, "network", {}),
    "pue:": (float, "pue", {}),
})


def _registry_entry_from_json(name: str, value: Any) -> Any:
    namespace = name[:name.find(":") + 1]
    if namespace not in _NAMESPACES:
        raise ConfigError(f"registry name {name!r} must start with hw:, grid:, net: or pue:")
    cls = _NAMESPACES[namespace][0]
    where = f"registry entry {name!r}"
    if cls is float:
        _check(_finite(value) and value >= 1.0, f"{where} must be a number >= 1.0")
        return float(value)
    if cls is HardwareProfile:
        _check(not isinstance(value, dict) or "kind" in value, f"{where} is missing 'kind'")
        return _from_object(cls, value, where, name=name[3:])
    if cls is GridIntensity:
        return _from_object(cls, value, where, region=name[5:])
    return _from_object(cls, value, where)


def active_registry() -> dict[str, Any]:
    """Built-in registry merged with the optional override file.

    The override path comes from the FEDCARBON_REGISTRY environment
    variable and must point at a JSON object keyed by namespaced names.
    """
    merged: dict[str, Any] = dict(_BUILTIN)
    override = os.environ.get(REGISTRY_ENV_VAR)
    if override:
        path = Path(override)
        if not path.exists():
            raise ConfigError(f"{REGISTRY_ENV_VAR} points at a missing file: {path}")
        raw = _read_json(path)
        _check(isinstance(raw, dict), f"registry override {path} must be a JSON object")
        for name, value in raw.items():
            merged[name] = _registry_entry_from_json(name, value)
    return merged


# --- config parsing -----------------------------------------------------

@functools.cache
def _fields(cls: type) -> tuple[tuple[str, ...], frozenset[str], tuple[str, ...]]:
    """A config dataclass's field names in order, the same as a set, and
    the names of the fields without a default."""
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    required = tuple(f.name for f in fields
                     if f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    return names, frozenset(names), required


def _check_keys(value: Any, known: Collection[str], required: Iterable[str],
                where: str) -> None:
    """ConfigError unless `value` is an object that holds every key of
    `required` and no key outside `known`.  The first missing key, in
    `required` order, is named before any unknown key.  `where` names the
    object in error messages."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    for name in required:
        if name not in value:
            raise ConfigError(f"{where} is missing {name!r}")
    unknown = sorted(set(value).difference(known))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {unknown}")


def _from_object(cls: type, value: Any, where: str, **defaults: Any) -> Any:
    """Build the config dataclass `cls` from a JSON object.

    The object's keys must be field names of `cls`; `defaults` fill fields
    the object leaves out, and a field with neither a dataclass default nor
    one given here is missing.  `where` names the object in error messages.
    """
    _, known, required = _fields(cls)
    _check_keys(value, known, [name for name in required if name not in defaults], where)
    return cls(**{**defaults, **value})


def _resolve(value: Any, namespace: str, registry: Mapping[str, Any],
             **inline_defaults: Any) -> Any:
    """The registry entry `value` names, with or without its namespace
    prefix, or else the inline value it spells out: a number for pue:, an
    object of the namespace's dataclass otherwise (`inline_defaults` fill
    fields it leaves out)."""
    if isinstance(value, str):
        key = value if value.startswith(namespace) else namespace + value
        try:
            return registry[key]
        except KeyError:
            raise ConfigError(f"unknown {_NAMESPACES[namespace][1]} {value!r}") from None
    cls, kind, defaults = _NAMESPACES[namespace]
    if cls is float:
        _check(_finite(value), f"{kind} must be a registry name or an inline number")
        return float(value)
    _check(isinstance(value, dict), f"{kind} must be a registry name or an inline object")
    return _from_object(cls, value, kind, **defaults, **inline_defaults)


def _json_key(name: str) -> str:
    """The JSON key of a config dataclass field: the tuple `grids` is
    written as the key `grid`."""
    return "grid" if name == "grids" else name


def config_from_dict(raw: Any, registry: Mapping[str, Any] | None = None) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    reg = registry if registry is not None else active_registry()
    names, _, required = _fields(ExperimentConfig)
    _check_keys(raw, set(map(_json_key, names)), map(_json_key, required), "config")
    mode = raw["mode"]
    default_kind = EDGE if mode == "fl" else DATACENTER
    hardware = _resolve(raw["hardware"], "hw:", reg, kind=default_kind)
    grid_raw = raw["grid"]
    grids = tuple(_resolve(v, "grid:", reg)
                  for v in (grid_raw if isinstance(grid_raw, list) else [grid_raw]))
    network = _resolve(raw["network"], "net:", reg) if "network" in raw else None
    pue = _resolve(raw["pue"], "pue:", reg) if "pue" in raw else None
    fl = _from_object(FlSetup, raw["fl"], "'fl'") if "fl" in raw else None
    sim = _from_object(SimSetup, raw["sim"], "'sim'") if "sim" in raw else None
    return ExperimentConfig(mode=mode, hardware=hardware, grids=grids, seed=raw.get("seed", 0),
                            network=network, pue=pue, epochs=raw.get("epochs"), fl=fl, sim=sim)


def _read_text(path: str | Path) -> str:
    """A file's text, decoded as UTF-8; bytes that are not UTF-8 are a
    ConfigError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: str | Path) -> Any:
    """Decode a JSON file; malformed JSON is a ConfigError naming the file."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON experiment config from disk, resolve names, validate."""
    return config_from_dict(_read_json(path))


def _as_dict(obj: Any) -> dict[str, Any]:
    """A config dataclass as a dict of its fields, in field order."""
    return {name: getattr(obj, name) for name in _fields(type(obj))[0]}


def _to_json(value: Any) -> Any:
    """A config value as JSON data: a config dataclass as an object of its
    fields that are not None, a tuple as a list, anything else as it is."""
    if dataclasses.is_dataclass(value):
        return {_json_key(name): _to_json(field) for name, field in _as_dict(value).items()
                if field is not None}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Canonical fully resolved dict form; parsing it back compares equal."""
    return _to_json(cfg)


def config_digest(cfg: ExperimentConfig) -> str:
    """First 12 hex chars of the sha256 of the canonical config JSON."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
