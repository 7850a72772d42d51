"""Fuzzing of the two JSON parsers: bad input may only raise ValueError.

config_from_dict and schedule_from_dict read user files, so whatever JSON
they are given they either return a value or raise ValueError (of which
ConfigError is a subclass); the CLI turns that into exit code 1.  Random
trees rarely get past the first key check, so most cases start from a
valid document and replace, drop or add one node at a random path.  Any
config the parser accepts must survive config_to_dict and JSON unchanged,
digest included; the round-trip cases also draw grid lists, prior lists and
samples_per_client.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from fedcarbon import (builtin_registry, config_digest, config_from_dict,
                       config_to_dict, schedule_from_dict)

from conftest import FIXTURES_DIR

REGISTRY = builtin_registry()

CONFIGS = [json.loads(p.read_text())
           for p in sorted((FIXTURES_DIR / "configs").glob("*.json"))]

SCHEDULES = [
    json.loads((FIXTURES_DIR / "schedules" / "tx2_nominal_16x5.json").read_text()),
    {"rounds": 2, "participation": [
        {"round": 0, "client": 3, "wall_time_s": 2.5, "hardware": "tx2-cifar10"},
        {"round": 1, "client": 0, "wall_time_s": 4.0,
         "hardware": {"name": "board", "active_power_w": 5.0, "idle_power_w": 1.0,
                      "time_per_local_epoch_s": 0.8, "kind": "edge"}},
    ]},
]

# Every block in every form: inline hardware, grid and network objects, a
# grid list, and a sim block with a prior list and samples_per_client.
ROUND_TRIP_BASES = CONFIGS + [
    {"mode": "fl", "seed": 3,
     "hardware": {"name": "board", "active_power_w": 5.0, "idle_power_w": 1.0,
                  "time_per_local_epoch_s": 0.8},
     "grid": [{"region": "lab", "c_rate_kg_per_kwh": 0.3}, "usa"],
     "network": {"download_mbps": 50, "upload_mbps": 10, "router_power_w": 6,
                 "region": "lab"},
     "fl": {"pool_size": 8, "clients_per_round": 2, "rounds": 3, "local_epochs": 1,
            "model_size_mb": 4, "strategy": "fedadam"},
     "sim": {"classes": 3, "prior": [0.5, 0.25, 0.25], "samples_per_client": 12}},
    {"mode": "centralized", "seed": 0, "grid": "france", "pue": 1.4, "epochs": 3,
     "hardware": {"active_power_w": 100, "idle_power_w": 0,
                  "time_per_local_epoch_s": 2}},
]

# Small integers only: a uniform schedule expands to rounds x clients entries.
_LEAVES = (st.none() | st.booleans() | st.integers(-3, 40)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
           | st.sampled_from(["uniform", "fl", "centralized", "tx2-nominal", "france"]))
_HUGE_INTS = st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63])

# Leaves of each JSON type that often keep a config valid.
_LIKE = {
    int: st.integers(0, 40),
    float: st.floats(0.0, 1.0) | st.floats(1.0, 1e6),
    str: st.sampled_from(["fedavg", "fedadam", "router", "legacy-5kwh-per-gb", "edge",
                          "datacenter", "uniform", "empirical", "france", "usa", "lab"]),
}


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.dictionaries(st.text(max_size=6), kids, max_size=4),
        max_leaves=10)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _document(data, bases, leaves):
    """An arbitrary tree, or a base with one node replaced, dropped or added."""
    base = data.draw(st.sampled_from([None, *bases]))
    value = data.draw(_trees(leaves))
    if base is None:
        return value
    doc = copy.deepcopy(base)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        parent[path[-1]] = value
    elif action == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=6))] = value
    else:
        parent.append(value)
    return doc


_GRIDS = st.lists(
    st.sampled_from(["france", "usa", "grid:china"])
    | st.fixed_dictionaries({"region": st.text(max_size=4),
                             "c_rate_kg_per_kwh": st.floats(1e-3, 2.0) | st.integers(1, 3)}),
    min_size=1, max_size=3)


@st.composite
def _drawn_configs(draw):
    """A valid federated config with a drawn grid list, sim prior (a name,
    or a list of positive proportions) and samples_per_client."""
    classes = draw(st.integers(2, 5))
    sim = {"classes": classes, "prior": draw(
        st.sampled_from(["uniform", "empirical"])
        | st.lists(st.integers(1, 9) | st.floats(1e-3, 1e3),
                   min_size=classes, max_size=classes).map(
                       lambda weights: [w / sum(weights) for w in weights]))}
    samples = draw(st.none() | st.integers(1, 500))
    if samples is not None:
        sim["samples_per_client"] = samples
    return {"mode": "fl", "seed": draw(st.integers(0, 2 ** 32)), "hardware": "tx2-cifar10",
            "grid": draw(_GRIDS),
            "fl": {"pool_size": 8, "clients_per_round": 2, "rounds": 3, "local_epochs": 1},
            "sim": sim}


def _edited(data, bases):
    """A base, drawn from `bases`, with up to three nodes inside its blocks
    dropped or replaced by a leaf of the same JSON type."""
    doc = copy.deepcopy(data.draw(bases))
    for _ in range(data.draw(st.integers(0, 3))):
        paths = [p for p in _paths(doc) if len(p) >= 2]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        old = parent[path[-1]]
        if data.draw(st.booleans()) and type(old) in _LIKE:
            parent[path[-1]] = data.draw(_LIKE[type(old)])
        else:
            del parent[path[-1]]
    return doc


# Generating a case takes several ms; 150 keep each test under 2 s.
_FUZZ = settings(max_examples=150, deadline=None)


@_FUZZ
@given(data=st.data())
def test_config_parser_raises_only_value_errors(data):
    raw = _document(data, CONFIGS, _LEAVES | _HUGE_INTS)
    try:
        config_from_dict(raw, registry=REGISTRY)
    except ValueError:
        pass


@_FUZZ
@given(data=st.data())
def test_schedule_parser_raises_only_value_errors(data):
    raw = _document(data, SCHEDULES, _LEAVES)
    try:
        schedule_from_dict(raw)
    except ValueError:
        pass


@_FUZZ
@given(data=st.data())
def test_accepted_configs_round_trip(data):
    raw = _edited(data, st.sampled_from(ROUND_TRIP_BASES) | _drawn_configs())
    try:
        cfg = config_from_dict(raw, registry=REGISTRY)
    except ValueError:
        return
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))), registry=REGISTRY)
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)
