"""Command line front end.

Subcommands: estimate, simulate, partition, optimize, compare, plot.
Exit codes: 0 success, 1 validation problem or out of memory, 2 I/O
problem, 3 the run never reached its accuracy target.  Output files are written atomically
(temp file then rename) and contain no timestamps, so reruns with the
same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from .carbon import (
    EmissionReport,
    RoundSchedule,
    cumulative_training_energy,
    estimate_centralized,
    estimate_fl,
    schedule_from_dict,
    schedule_to_dict,
    to_co2e,
)
from .optimize import (
    CellResult,
    default_grid,
    grid_search,
    make_simulation_runner,
    make_table_runner,
    pareto_front,
    table_cells,
    table_target,
)
from .profiles import (ConfigError, ExperimentConfig, SimSetup, _finite, _read_json,
                       _read_text, _training_time_s, config_digest, load_config)
from .sim import _fl_and_sim, build_federation, rounds_to_target, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NOT_REACHED = 3


def _write_all(texts: dict[str, str]) -> None:
    """Write each text to its path: every <path>.tmp first, then the renames.

    A write that fails unlinks every temp file written and re-raises, so
    no target changes.  Renames run in order only once all writes
    succeeded; one that fails (rarely, within one directory) unlinks the
    temp files left and re-raises, so the targets renamed before it hold
    the new texts and the rest what they held.
    """
    written: list[tuple[Path, Path]] = []
    try:
        for path, text in texts.items():
            target = Path(path)
            tmp = target.with_name(target.name + ".tmp")
            written.append((tmp, target))
            tmp.write_text(text)
        for tmp, target in written:
            os.replace(tmp, target)
    except OSError:
        for tmp, _ in written:
            tmp.unlink(missing_ok=True)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_all({out: text})


def _json_text(obj: Any) -> str:
    # inf and NaN are no JSON: json.dumps raises ValueError, which exits 1.
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _schedule_text(doc: dict[str, Any]) -> str:
    """_json_text(doc) for a document schedule_to_dict returns, written
    without json's pure-Python encoder (which `indent` selects).

    Each distinct hardware object is rendered once by _json_text,
    re-indented to entry depth, and looked up by its items and their value
    types (so 1, 1.0 and true stay apart; a schedule lists each distinct
    profile once, so equal items are one profile).  Each entry is one
    f-string: int.__repr__ and float.__repr__ are the text json writes for
    an int and a finite float, and a schedule's wall times are finite.
    """
    entries = doc["participation"]
    if not entries:
        return _json_text(doc)
    hardware_text: dict[tuple, str] = {}
    int_text, float_text = int.__repr__, float.__repr__
    parts = []
    for entry in entries:
        hw = entry["hardware"]
        key = (*hw.items(), *map(type, hw.values()))
        hw_text = hardware_text.get(key)
        if hw_text is None:
            hw_text = hardware_text[key] = _json_text(hw)[:-1].replace("\n", "\n      ")
        parts.append(f'    {{\n      "client": {int_text(entry["client"])},\n'
                     f'      "hardware": {hw_text},\n'
                     f'      "round": {int_text(entry["round"])},\n'
                     f'      "wall_time_s": {float_text(entry["wall_time_s"])}\n    }}')
    return ('{\n  "participation": [\n' + ",\n".join(parts)
            + f'\n  ],\n  "rounds": {int_text(doc["rounds"])}\n}}\n')


def _load(path: str, seed: int | None) -> ExperimentConfig:
    cfg = load_config(path)
    return cfg if seed is None else replace(cfg, seed=seed)


def _price(cfg: ExperimentConfig, fixture_path: str | None) -> EmissionReport:
    """Price a config: centralized directly; federated from the schedule
    fixture, else by simulating its 'sim' block, else from its declared
    round structure."""
    if cfg.mode == "centralized":
        return estimate_centralized(cfg)
    fl = cfg.fl
    assert fl is not None
    if fixture_path:
        schedule = schedule_from_dict(_read_json(fixture_path))
    elif cfg.sim is not None:
        _, schedule, _ = run_experiment(cfg)
    else:
        schedule = RoundSchedule.uniform(fl.rounds, fl.clients_per_round,
                                         _training_time_s(cfg), cfg.hardware)
    return estimate_fl(cfg, schedule)


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _load(args.config, args.seed)
    if args.fixtures and cfg.mode == "centralized":
        raise ConfigError("centralized mode does not read a schedule (--fixtures)")
    report = _price(cfg, args.fixtures)
    _emit(_json_text(report.to_json_dict()), args.out)
    return EXIT_OK


def _trace_csv(cfg: ExperimentConfig, trace, schedule) -> str:
    buf = io.StringIO()
    buf.write(f"# config_digest={config_digest(cfg)} seed={cfg.seed}\n")
    buf.write("round,accuracy,cumulative_wh\n")
    cumulative = cumulative_training_energy(schedule)
    for i, (acc, wh) in enumerate(zip(trace.accuracies, cumulative), start=1):
        buf.write(f"{i},{acc!r},{wh!r}\n")
    return buf.getvalue()


def cmd_simulate(args: argparse.Namespace) -> int:
    base = args.out or "fl_run"
    if base.endswith(".csv"):
        base = base[:-4]
    if os.path.basename(base) in ("", ".", ".."):
        raise ConfigError(f"--out {args.out!r} names no file: simulate writes "
                          "<out>.csv and <out>.schedule.json")
    cfg = _load(args.config, args.seed)
    trace, schedule, fed = run_experiment(cfg)
    # Both texts are rendered before either file is written, and both are
    # written before either is renamed into place: a failure leaves neither.
    _write_all({f"{base}.csv": _trace_csv(cfg, trace, schedule),
                f"{base}.schedule.json": _schedule_text(schedule_to_dict(schedule))})
    assert cfg.sim is not None
    spilled = fed.assignment.exhaustion_warnings
    if spilled:
        sys.stderr.write(
            f"warning: alpha={cfg.sim.alpha}: {spilled} exhaustion warnings while "
            "assigning samples (a client's class mix was re-spread over the "
            "classes with samples left)\n")
    if rounds_to_target(trace, cfg.sim.target_accuracy) is None:
        sys.stderr.write(
            f"target accuracy {cfg.sim.target_accuracy} not reached in "
            f"{trace.rounds} rounds\n")
        return EXIT_NOT_REACHED
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    cfg = _load(args.config, args.seed)
    _, sim = _fl_and_sim(cfg)
    alpha = args.alpha if args.alpha is not None else sim.alpha
    fed = build_federation(replace(cfg, sim=replace(sim, alpha=alpha)))
    prior, part, assignment = fed.prior, fed.partition, fed.assignment
    deviation = float(np.abs(part.per_client - np.asarray(prior.proportions)).max())
    if alpha >= 100.0 and deviation > 0.05:
        sys.stderr.write(
            f"warning: alpha={alpha} but some client is {deviation:.3f} "
            "away from the prior\n")
    out = {
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "alpha": alpha,
        "prior": list(prior.proportions),
        "per_client": part.per_client.tolist(),
        "assignments": assignment.per_client.tolist(),
        "exhaustion_warnings": assignment.exhaustion_warnings,
        "max_abs_deviation_from_prior": deviation,
    }
    _emit(_json_text(out), args.out)
    return EXIT_OK


def _cost_point_dict(p) -> Any:
    if p is None:
        return None
    return {
        "rounds": p.rounds,
        "co2e_g": p.co2e_g,
        "accuracy": p.accuracy,
        "carbon_cost": p.carbon_cost,
    }


def _cell_dict(c: CellResult) -> dict[str, Any]:
    return {
        "clients_per_round": c.clients_per_round,
        "local_epochs": c.local_epochs,
        "partition_alpha": c.partition_alpha,
        "at_target": _cost_point_dict(c.at_target),
        "stable": _cost_point_dict(c.stable),
    }


def _optimize_csv(cells: list[CellResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["clients_per_round", "local_epochs", "partition_alpha",
                     "target_rounds", "target_co2e_g", "target_carbon_cost",
                     "stable_accuracy", "stable_rounds", "stable_co2e_g",
                     "stable_carbon_cost"])
    for c in cells:
        t = c.at_target
        writer.writerow([
            c.clients_per_round, c.local_epochs, repr(c.partition_alpha),
            "" if t is None else t.rounds,
            "" if t is None else repr(t.co2e_g),
            "" if t is None else repr(t.carbon_cost),
            repr(c.stable.accuracy), c.stable.rounds,
            repr(c.stable.co2e_g), repr(c.stable.carbon_cost),
        ])
    return buf.getvalue()


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _load(args.config, args.seed)
    if args.fixtures:
        table = _read_json(args.fixtures)
        runner = make_table_runner(table)
        cells = table_cells(table)
        target = table_target(table, (cfg.sim or SimSetup).target_accuracy)
    else:
        fl, sim = _fl_and_sim(cfg)
        runner = make_simulation_runner(cfg)
        cells = default_grid(max_clients=min(10, fl.pool_size))
        target = sim.target_accuracy
    ranked = grid_search(cells, runner, target)
    front = pareto_front([c.stable for c in ranked])
    front_keys = [[p.clients_per_round, p.local_epochs, p.partition_alpha]
                  for p in front]
    if args.out and args.out.endswith(".csv"):
        _emit(_optimize_csv(ranked), args.out)
    else:
        payload = {
            "config_digest": config_digest(cfg),
            "seed": cfg.seed,
            "target_accuracy": target,
            "cells": [_cell_dict(c) for c in ranked],
            "pareto_stable": front_keys,
            "winner": _cell_dict(ranked[0]) if ranked else None,
        }
        _emit(_json_text(payload), args.out)
    if not any(c.reached_target for c in ranked):
        sys.stderr.write("no grid cell reached the accuracy target\n")
        return EXIT_NOT_REACHED
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    paths = args.config
    if len(paths) < 2:
        raise ConfigError("compare needs at least two --config paths")
    fixtures = args.fixtures or []
    if fixtures and len(fixtures) != len(paths):
        raise ConfigError("give one --fixtures per --config, or none")
    rows = []
    regions: list[str] | None = None
    for i, path in enumerate(paths):
        cfg = _load(path, args.seed)
        names = [g.region for g in cfg.grids]
        if regions is None:
            regions = names
        elif names != regions:
            raise ConfigError(
                f"{path}: grid regions {names} differ from {regions}")
        total_wh = _price(cfg, fixtures[i] if fixtures else None).energy.total_wh
        rows.append([Path(path).stem, cfg.mode, repr(total_wh)]
                    + [repr(to_co2e(total_wh, g)) for g in cfg.grids])
    assert regions is not None
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label", "mode", "total_wh"] + [f"co2e_g:{r}" for r in regions])
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _plot_from_trace(path: str, cfg: ExperimentConfig | None) -> str:
    lines = _read_text(path).splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        raise ConfigError(f"{path}: empty trace")
    reader = csv.DictReader(body)
    rate = cfg.grid.c_rate_kg_per_kwh if cfg is not None else None
    out = ["# round cumulative_g" if rate is not None else "# round cumulative_wh"]
    rows = 0
    for rec in reader:
        rows += 1
        try:
            wh = float(rec["cumulative_wh"])
            round_index = int(rec["round"])
        except (KeyError, TypeError, ValueError):
            wh = None
        if not _finite(wh):
            raise ConfigError(f"{path}: trace row {rows} needs an integer 'round' "
                              "and a finite numeric 'cumulative_wh'")
        y = wh * rate if rate is not None else wh
        out.append(f"{round_index} {y!r}")
    if rows == 0:
        raise ConfigError(f"{path}: no data rows")
    return "\n".join(out) + "\n"


def _plot_from_json(raw: Any) -> str:
    if isinstance(raw, dict) and "cells" in raw:
        if not isinstance(raw["cells"], list):
            raise ConfigError("grid output 'cells' must be a list")
        out = ["# co2e_g accuracy"]
        for i, cell in enumerate(raw["cells"]):
            stable = cell.get("stable") if isinstance(cell, dict) else None
            if not (isinstance(stable, dict) and {"co2e_g", "accuracy"} <= stable.keys()
                    and _finite(stable["co2e_g"]) and _finite(stable["accuracy"])):
                raise ConfigError(
                    f"grid output cell {i} needs a 'stable' object with numeric "
                    "'co2e_g' and 'accuracy'")
            out.append(f"{stable['co2e_g']!r} {stable['accuracy']!r}")
        if len(out) == 1:
            raise ConfigError("grid output holds no cells")
        return "\n".join(out) + "\n"
    reports = raw if isinstance(raw, list) else [raw]
    if not reports or not all(isinstance(r, dict) and "co2e_g" in r for r in reports):
        raise ConfigError("input is neither a grid output nor emission reports")
    out = ["# series co2e_g"]
    for i, rep in enumerate(reports, start=1):
        if not _finite(rep["co2e_g"]):
            raise ConfigError(f"emission report {i} 'co2e_g' must be a number")
        out.append(f"{i} {rep['co2e_g']!r}")
    return "\n".join(out) + "\n"


def cmd_plot(args: argparse.Namespace) -> int:
    if not args.fixtures:
        raise ConfigError("plot needs --fixtures pointing at a trace, grid or report file")
    path = args.fixtures
    if path.endswith(".csv"):
        cfg = load_config(args.config) if args.config else None
        text = _plot_from_trace(path, cfg)
    else:
        text = _plot_from_json(_read_json(path))
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcarbon",
        description="Energy and CO2e accounting for federated and centralized training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, fixtures: str | None = None, seed: bool = True,
            repeat: bool = False, config_required: bool = True):
        p = sub.add_parser(name, help=help_text)
        action, again = ("append", " (repeatable)") if repeat else ("store", "")
        p.add_argument("--config", action=action, required=config_required,
                       help="experiment config JSON" + again)
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out", default=None, help="output path")
        if fixtures:
            p.add_argument("--fixtures", action=action, default=None, help=fixtures + again)
        return p

    add("estimate", "price one run as an emission report", fixtures="schedule fixture JSON")
    add("simulate", "run federated rounds; write trace CSV and schedule JSON")
    p = add("partition", "draw per-client class mixes and sample assignments")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the concentration parameter")
    add("optimize", "rank a design grid by carbon cost", fixtures="results table JSON")
    add("compare", "emission table across several configs",
        fixtures="schedule fixture JSON, one per --config", repeat=True)
    add("plot", "turn a trace/grid/report file into plain plot columns",
        fixtures="trace CSV, grid output or emission report", seed=False,
        config_required=False)
    return parser


_COMMANDS = {
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "partition": cmd_partition,
    "optimize": cmd_optimize,
    "compare": cmd_compare,
    "plot": cmd_plot,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads arguments with, built once per process
    (parsing leaves it as it was)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError
        # names nothing.
        sys.stderr.write(f"error: out of memory: {exc}\n" if str(exc)
                         else "error: out of memory\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())
