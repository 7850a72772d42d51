#!/usr/bin/env python3
"""Rank federated hyperparameter cells by carbon cost at a fixed accuracy.

By default the search replays the published CIFAR-10 grid-results table,
so it runs instantly and reproduces the per-block winners.  With
--simulate it instead runs the desk-scale simulator for every cell of a
small grid derived from a base config, pricing each cell's schedule.

Usage:
    python3 scripts/run_grid_search.py [--top K]
    python3 scripts/run_grid_search.py --simulate [--config PATH] [--max-clients N]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from fedcarbon import (
    default_grid,
    grid_search,
    load_config,
    make_simulation_runner,
    make_table_runner,
    table_cells,
    table_target,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TABLE = REPO_ROOT / "fixtures" / "cifar10_grid_results.json"
DEFAULT_CONFIG = REPO_ROOT / "fixtures" / "configs" / "fl_sim_small_france.json"


def print_ranked(ranked, target: float, top: int) -> None:
    print(f"{'rank':<6}{'clients':<9}{'epochs':<8}{'alpha':<10}"
          f"{'rounds':<8}{'co2e g':<10}{'cost':<10}")
    for i, cell in enumerate(ranked[:top], start=1):
        point = cell.at_target
        if point is None:
            print(f"{i:<6}{cell.clients_per_round:<9}{cell.local_epochs:<8}"
                  f"{cell.partition_alpha:<10g}{'-':<8}{'-':<10}"
                  f"never reached {target}")
        else:
            print(f"{i:<6}{cell.clients_per_round:<9}{cell.local_epochs:<8}"
                  f"{cell.partition_alpha:<10g}{point.rounds:<8}"
                  f"{point.co2e_g:<10.2f}{point.carbon_cost:<10.2f}")

    winners = {}
    for cell in ranked:
        key = (cell.partition_alpha, cell.local_epochs)
        if key not in winners and cell.reached_target:
            winners[key] = cell
    if winners:
        print("\nBest cell per (alpha, local epochs) block:")
        for (alpha, epochs), cell in sorted(winners.items()):
            print(f"  alpha={alpha:<8g} epochs={epochs}: "
                  f"{cell.clients_per_round} clients/round, "
                  f"cost {cell.at_target.carbon_cost:.2f} g per unit accuracy")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", type=Path, default=DEFAULT_TABLE,
                        help="published grid-results fixture to replay")
    parser.add_argument("--simulate", action="store_true",
                        help="run the simulator per cell instead of the table")
    parser.add_argument("--config", type=Path, default=DEFAULT_CONFIG,
                        help="base federated config for --simulate")
    parser.add_argument("--max-clients", type=int, default=4,
                        help="largest clients-per-round cell for --simulate")
    parser.add_argument("--top", type=int, default=10,
                        help="how many ranked cells to print")
    args = parser.parse_args()
    for flag, value in (("--max-clients", args.max_clients), ("--top", args.top)):
        if value < 1:
            parser.error(f"{flag} must be >= 1")

    try:
        if args.simulate:
            base = load_config(args.config)
            runner = make_simulation_runner(base)
            target = base.sim.target_accuracy
            cells = default_grid(max_clients=args.max_clients)
            ranked = grid_search(cells, runner, target)
            print(f"Simulated {len(cells)} cells from {args.config.name} "
                  f"(target accuracy {target}):\n")
        else:
            table = json.loads(args.table.read_text())
            runner = make_table_runner(table)
            cells = table_cells(table)
            target = table_target(table)
            ranked = grid_search(cells, runner, target)
            print(f"Replayed {len(cells)} published cells from {args.table.name} "
                  f"(target accuracy {target}):\n")
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    print_ranked(ranked, target, args.top)


if __name__ == "__main__":
    main()
