"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --workloads all --seeds 1-10 --sets 2 \\
        --out perfbench/steadiness.json

A set runs every workload once per seed, one run after another, at
run_seconds from BENCHMARK.json unless --seconds says otherwise.  For
every workload and end-to-end metric of a set it records the per-run
values, their median and their spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
compared with the metric's bound in BENCHMARK.json.  With two sets, a
last entry gives each median of the second set over the first set's.
The JSON written to --out (after every workload, so a cut run keeps what
it measured) is a list of the sets followed by that entry.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(names: list[str], seeds: list[int], seconds: int,
            bounds: dict[str, float], on_workload) -> dict:
    table: dict[str, dict] = {}
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        walls = []
        for seed in seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            walls.append(round(time.monotonic() - t0, 1))
            if proc.returncode != 0:
                raise RuntimeError(f"{name} seed {seed}: exit {proc.returncode}\n"
                                   f"{proc.stderr}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric in bounds:
                values[metric].append(line["metrics"][metric]["value"])
            print(f"{name} seed {seed}: wall {walls[-1]} s " + " ".join(
                f"{m}={v[-1]:.6g}" for m, v in values.items()), flush=True)
        entry: dict = {}
        for metric, bound in bounds.items():
            s = spread(values[metric])
            entry[metric] = {
                "median": statistics.median(values[metric]),
                "spread": round(s, 4),
                "bound": bound,
                "spread_below_third_of_bound": s < bound / 3,
                "values": values[metric],
            }
            print(f"  {metric:<14} median {entry[metric]['median']:.6g}  "
                  f"spread {s:.4f}  bound {bound}", flush=True)
        entry["run_wall_s"] = walls
        table[name] = entry
        on_workload(table)
    return {"seconds": seconds, "seeds": seeds, "workloads": table}


def median_ratios(sets: list[dict], bounds: dict[str, float]) -> dict:
    first, second = sets[0]["workloads"], sets[1]["workloads"]
    return {name: {m: round(second[name][m]["median"] / first[name][m]["median"], 4)
                   for m in bounds}
            for name in second}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None, help="write the figures as JSON here")
    args = parser.parse_args()

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    sets: list[dict] = []

    def save(current: dict | None = None) -> None:
        if not args.out:
            return
        done = sets + ([{"seconds": seconds, "seeds": seeds, "workloads": current}]
                       if current is not None else [])
        out = list(done)
        if len(done) > 1:
            out.append({"second_set_median_over_first": median_ratios(done, bounds)})
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")

    try:
        for _ in range(args.sets):
            sets.append(run_set(names, seeds, seconds, bounds, save))
            save()
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(sets) > 1:
        print(json.dumps({"second_set_median_over_first": median_ratios(sets, bounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
