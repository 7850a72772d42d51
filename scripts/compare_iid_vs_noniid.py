#!/usr/bin/env python3
"""Measure how client data skew changes rounds-to-target and emissions.

Runs the desk-scale federated simulator twice per seed — once with a
near-uniform partition (high Dirichlet alpha) and once with a heavily
concentrated one (low alpha) — and reports the rounds each needed to hit
the accuracy target, plus the CO2e of the executed schedule.

Usage:
    python3 scripts/compare_iid_vs_noniid.py [--seeds N] [--target T]
                                             [--alpha-iid A] [--alpha-noniid A]
"""

from __future__ import annotations

import argparse
import math

from fedcarbon import (
    ExperimentConfig,
    builtin_registry,
    config_from_dict,
    estimate_fl,
    rounds_to_target,
    run_experiment,
)


def experiment(args: argparse.Namespace, alpha: float, seed: int,
               registry) -> ExperimentConfig:
    """One arm of one seed: 100 clients, 10 per round, up to 60 rounds."""
    return config_from_dict({
        "mode": "fl", "hardware": args.hardware, "grid": args.grid, "seed": seed,
        "fl": {"pool_size": 100, "clients_per_round": 10, "rounds": 60,
               "local_epochs": 1},
        "sim": {"classes": 10, "features": 12, "n_samples": 5000, "separation": 4.5,
                "samples_per_client": 40, "target_accuracy": args.target,
                "alpha": alpha},
    }, registry)


def rounds_and_emissions(cfg: ExperimentConfig) -> tuple[int | None, float]:
    trace, schedule, _ = run_experiment(cfg)
    return rounds_to_target(trace, cfg.sim.target_accuracy), estimate_fl(cfg, schedule).co2e_g


def main() -> None:
    registry = builtin_registry()

    def names(prefix: str) -> list[str]:
        return [key[len(prefix):] for key in registry if key.startswith(prefix)]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of independent seeds to run")
    parser.add_argument("--target", type=float, default=0.9,
                        help="accuracy target for rounds-to-target")
    parser.add_argument("--alpha-iid", type=float, default=1000.0,
                        help="Dirichlet alpha for the near-uniform arm")
    parser.add_argument("--alpha-noniid", type=float, default=0.1,
                        help="Dirichlet alpha for the concentrated arm")
    parser.add_argument("--hardware", default="tx2-nominal", choices=names("hw:"),
                        metavar="NAME", help="hardware profile name for pricing")
    parser.add_argument("--grid", default="france", choices=names("grid:"),
                        metavar="NAME", help="grid region name for pricing")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if not 0.0 <= args.target <= 1.0:
        parser.error("--target must lie in [0, 1]")
    for flag, alpha in (("--alpha-iid", args.alpha_iid),
                        ("--alpha-noniid", args.alpha_noniid)):
        if not (math.isfinite(alpha) and alpha > 0):
            parser.error(f"{flag} must be finite and > 0")

    print(f"{'seed':<6}{'iid rounds':<12}{'noniid rounds':<15}"
          f"{'iid g CO2e':<12}{'noniid g CO2e':<15}")
    iid_wins = 0
    for seed in range(args.seeds):
        iid_hit, iid_g = rounds_and_emissions(
            experiment(args, args.alpha_iid, seed, registry))
        non_hit, non_g = rounds_and_emissions(
            experiment(args, args.alpha_noniid, seed, registry))
        if iid_hit is not None and (non_hit is None or iid_hit <= non_hit):
            iid_wins += 1
        show = lambda r: "never" if r is None else str(r)
        print(f"{seed:<6}{show(iid_hit):<12}{show(non_hit):<15}"
              f"{iid_g:<12.4f}{non_g:<15.4f}")

    print(f"\nNear-uniform partition reached {args.target} no later than the "
          f"concentrated one in {iid_wins} of {args.seeds} seeds.")


if __name__ == "__main__":
    main()
