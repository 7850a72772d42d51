#!/usr/bin/env python3
"""Recompute the published energy and emission tables from first principles.

Part one rebuilds the measured-device energy table: for every row of the
fixture, per-device energy is power times duration over 3600, and the
script prints the recomputed value next to the published one.  Part two
prices the three centralized workloads on the France and China grids at
both datacenter efficiency scenarios, which reproduces the published
centralized emission cells.

Usage:
    python3 scripts/reproduce_emission_tables.py [--fixtures DIR]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from fedcarbon import config_from_dict, estimate_centralized

REPO_ROOT = Path(__file__).resolve().parent.parent

CENTRALIZED_EPOCHS = {"cifar10": 2, "imagenet": 8, "speechcommands": 6}
PUE_SCENARIOS = ("world-2019", "google")
GRID_REGIONS = ("france", "china")


def device_energy_table(fixtures: Path) -> None:
    table = json.loads((fixtures / "device_energy_table.json").read_text())
    print("Per-device training energy (recomputed vs published)")
    print(f"{'task':<16}{'setting':<14}{'hardware':<22}"
          f"{'computed Wh':>12}{'published Wh':>14}")
    for row in table["rows"]:
        computed = row["power_w"] * row["duration_s"] / 3600.0
        flag = "" if abs(computed - row["per_device_wh"]) <= max(
            0.055, 0.005 * row["per_device_wh"]) else "  <- inconsistent row"
        print(f"{row['task']:<16}{row['setting']:<14}{row['hardware']:<22}"
              f"{computed:>12.3f}{row['per_device_wh']:>14}{flag}")
    print()


def centralized_emissions() -> None:
    print("Centralized CO2e (grams) by grid and datacenter efficiency")
    print(f"{'task':<16}{'pue':<12}" + "".join(f"{g:>12}" for g in GRID_REGIONS))
    for task, epochs in CENTRALIZED_EPOCHS.items():
        for pue in PUE_SCENARIOS:
            cells = []
            for grid in GRID_REGIONS:
                cfg = config_from_dict({
                    "mode": "centralized",
                    "hardware": f"v100-{task}",
                    "grid": grid,
                    "pue": pue,
                    "epochs": epochs,
                    "seed": 0,
                })
                cells.append(estimate_centralized(cfg).co2e_g)
            print(f"{task:<16}{pue:<12}" + "".join(f"{c:>12.2f}" for c in cells))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=Path, default=REPO_ROOT / "fixtures",
                        help="directory holding the published-table fixtures")
    args = parser.parse_args()
    try:
        device_energy_table(args.fixtures)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    centralized_emissions()


if __name__ == "__main__":
    main()
