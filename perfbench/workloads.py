"""The benchmark's three workloads: seeded inputs, CLI arguments, checks.

Each workload writes every input it needs into one directory from the
workload seed alone, so the program under test sees only file paths on
its command line.  After every invocation the workload checks the
program's outputs against rules that do not depend on the program's own
code (see oracle.py), and counts the work the invocation did.
"""

from __future__ import annotations

import collections
import copy
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# fedcarbon's simulator trains on the first 80% of the samples and, when
# samples_per_client is not set, splits that part evenly over the pool.
TRAIN_FRACTION = 0.8

# Copy of fixtures/configs/fl_sim_small_france.json, kept here so that a
# change to the fixture does not silently change the benchmark.
BASE_CONFIG = {
    "mode": "fl",
    "hardware": "tx2-cifar10",
    "grid": "france",
    "seed": 7,
    "network": {"download_mbps": 100, "upload_mbps": 40, "router_power_w": 10},
    "fl": {
        "pool_size": 20,
        "clients_per_round": 5,
        "rounds": 40,
        "local_epochs": 1,
        "model_size_mb": 357,
        "strategy": "fedavg",
        "wan_model": "router",
    },
    "sim": {
        "classes": 10,
        "features": 12,
        "n_samples": 2000,
        "separation": 4.5,
        "target_accuracy": 0.9,
        "alpha": 1000.0,
        "prior": "uniform",
    },
}

GRID_C_RATE = {"france": 0.0790}

# Hardware of the large schedule.  Three entries are registry names and
# one is written inline, so both lookup paths of the schedule parser run.
# The power figures are the published device measurements, written out
# again so the oracle does not read them from the program.
SCHEDULE_HARDWARE = (
    # (value written to the schedule, active W, idle W, s per local epoch)
    ("tx2-cifar10", 4.7, 1.35, 0.8),
    ("nx-cifar10", 6.3, 2.25, 0.6),
    ("hw:tx2-speechcommands", 5.7, 1.35, 1.6),
    ({"name": "phone-inline", "active_power_w": 3.2, "idle_power_w": 0.9,
      "time_per_local_epoch_s": 1.1, "kind": "edge"}, 3.2, 0.9, 1.1),
)

_STREAM_SCHEDULE = 101


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def default_samples_per_client(cfg: dict) -> int:
    return int(TRAIN_FRACTION * cfg["sim"]["n_samples"]) // cfg["fl"]["pool_size"]


@dataclass
class Outcome:
    """What one checked invocation produced."""

    problems: list[str] = field(default_factory=list)
    accuracy: float | None = None
    work_items: int = 0


class Workload:
    name = ""
    expected_exit = 0
    work_unit = ""
    throughput = ("", "")  # name and unit of work_unit per second in the report

    def generate(self, seed: int, directory: Path) -> None:
        """Write the inputs."""
        raise NotImplementedError

    def expectations(self, seed: int) -> dict:
        """What the checks need to know about the inputs of this seed."""
        raise NotImplementedError

    def argv(self, directory: Path) -> list[str]:
        raise NotImplementedError

    def output_files(self, directory: Path) -> list[Path]:
        raise NotImplementedError

    def input_files(self, directory: Path) -> list[Path]:
        return [directory / "config.json"]

    def check(self, directory: Path, code: int, expect: dict) -> Outcome:
        out = Outcome()
        if code != self.expected_exit:
            out.problems.append(f"exit code {code}, expected {self.expected_exit}")
            return out
        try:
            self._check_outputs(directory, expect, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            out.problems.append(f"unreadable output: {exc!r}")
        return out

    def _check_outputs(self, directory: Path, expect: dict, out: Outcome) -> None:
        raise NotImplementedError


class OptimizeLiveGrid(Workload):
    """`fedcarbon optimize` by live simulation over default_grid(10)."""

    name = "optimize-live-grid"
    work_unit = "train_samples"
    throughput = ("train_samples_per_s", "samples/s")
    # 10 rounds, not 30: a 30-round call takes 3-5 s, so a run holds few
    # calls and the machine's speed changes within one, which spread
    # run_ref across seeds twice as much.
    rounds = 10
    cells = 40

    def config(self, seed):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["seed"] = seed
        cfg["fl"]["rounds"] = self.rounds
        return cfg

    def generate(self, seed, directory):
        _write_json(directory / "config.json", self.config(seed))

    def expectations(self, seed):
        return {"samples_per_client": default_samples_per_client(self.config(seed))}

    def argv(self, directory):
        return ["optimize", "--config", str(directory / "config.json"),
                "--out", str(directory / "grid.json")]

    def output_files(self, directory):
        return [directory / "grid.json"]

    def _check_outputs(self, directory, expect, out):
        result = json.loads((directory / "grid.json").read_text())
        cells = result["cells"]
        if len(cells) != self.cells:
            out.problems.append(f"{len(cells)} cells, expected {self.cells}")
        reached = [c["at_target"]["carbon_cost"] for c in cells
                   if c["at_target"] is not None]
        if reached != sorted(reached):
            out.problems.append("at_target.carbon_cost is not ascending")
        for c in cells:
            for point in (c["stable"], c["at_target"]):
                if point is not None and not oracle.rel_close(
                        point["carbon_cost"] * point["accuracy"], point["co2e_g"]):
                    out.problems.append(
                        f"carbon_cost x accuracy != co2e_g in cell "
                        f"{c['clients_per_round']},{c['local_epochs']},"
                        f"{c['partition_alpha']}")
        # The live runner always spends the full round budget.
        out.work_items = sum(
            c["clients_per_round"] * c["local_epochs"] * self.rounds
            * expect["samples_per_client"] for c in cells)
        out.accuracy = float(result["winner"]["stable"]["accuracy"])


class SimulateCrossDevice(Workload):
    """`fedcarbon simulate` on a 10 000-client pool, 100 per round."""

    name = "simulate-cross-device"
    expected_exit = 3  # target_accuracy 1.0 is never reached
    work_unit = "train_samples"
    throughput = ("train_samples_per_s", "samples/s")
    rounds = 20
    clients_per_round = 100

    def config(self, seed):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["seed"] = seed
        cfg["fl"].update(pool_size=10_000, clients_per_round=self.clients_per_round,
                         rounds=self.rounds, local_epochs=1)
        cfg["sim"].update(n_samples=200_000, alpha=0.1, target_accuracy=1.0)
        return cfg

    def generate(self, seed, directory):
        _write_json(directory / "config.json", self.config(seed))

    def expectations(self, seed):
        cfg = self.config(seed)
        return {"samples_per_client": default_samples_per_client(cfg),
                "local_epochs": cfg["fl"]["local_epochs"]}

    def argv(self, directory):
        return ["simulate", "--config", str(directory / "config.json"),
                "--out", str(directory / "run")]

    def output_files(self, directory):
        return [directory / "run.csv", directory / "run.schedule.json"]

    def _check_outputs(self, directory, expect, out):
        text = (directory / "run.csv").read_text()
        body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        if len(rows) != self.rounds:
            out.problems.append(f"{len(rows)} trace rows, expected {self.rounds}")
            return
        schedule = json.loads((directory / "run.schedule.json").read_text())
        entries = schedule["participation"]
        per_round = collections.Counter(e["round"] for e in entries)
        if per_round != {r: self.clients_per_round for r in range(self.rounds)}:
            out.problems.append(
                f"schedule has {len(entries)} entries over rounds "
                f"{sorted(per_round)}, expected {self.clients_per_round} "
                f"in each of rounds 0..{self.rounds - 1}")
            return
        expected_wh = oracle.training_wh(
            [e["wall_time_s"] for e in entries],
            [e["hardware"]["active_power_w"] for e in entries])
        last_wh = float(rows[-1]["cumulative_wh"])
        if not oracle.rel_close(last_wh, expected_wh):
            out.problems.append(
                f"last cumulative_wh {last_wh!r} != re-priced schedule {expected_wh!r}")
        out.work_items = (self.rounds * self.clients_per_round
                          * expect["samples_per_client"] * expect["local_epochs"])
        out.accuracy = float(rows[-1]["accuracy"])


class EstimateLargeSchedule(Workload):
    """`fedcarbon estimate --fixtures` on a 50 000-entry explicit schedule."""

    name = "estimate-large-schedule"
    work_unit = "schedule_entries"
    throughput = ("entries_per_s", "entries/s")
    rounds = 500
    clients_per_round = 100
    pool_size = 10_000

    def config(self, seed):
        cfg = copy.deepcopy(BASE_CONFIG)
        del cfg["sim"]
        cfg["seed"] = seed
        cfg["fl"].update(pool_size=self.pool_size,
                         clients_per_round=self.clients_per_round,
                         rounds=self.rounds)
        return cfg

    def _draw(self, seed):
        """Each entry's device index (into SCHEDULE_HARDWARE), client and
        wall time, as rounds x clients_per_round arrays."""
        rng = np.random.default_rng([seed, _STREAM_SCHEDULE])
        device_of_client = rng.integers(0, len(SCHEDULE_HARDWARE), size=self.pool_size)
        clients = np.stack([
            np.sort(rng.choice(self.pool_size, size=self.clients_per_round, replace=False))
            for _ in range(self.rounds)])
        devices = device_of_client[clients]
        epoch_s = np.array([h[3] for h in SCHEDULE_HARDWARE])
        wall = epoch_s[devices] * rng.lognormal(0.0, 0.25, size=clients.shape)
        return devices, clients, wall

    def generate(self, seed, directory):
        _write_json(directory / "config.json", self.config(seed))
        devices, clients, wall = self._draw(seed)
        participation = [
            {"round": r, "client": int(clients[r, i]),
             "wall_time_s": float(wall[r, i]),
             "hardware": SCHEDULE_HARDWARE[devices[r, i]][0]}
            for r in range(self.rounds) for i in range(self.clients_per_round)]
        (directory / "schedule.json").write_text(
            json.dumps({"rounds": self.rounds, "participation": participation}))

    def expectations(self, seed):
        cfg = self.config(seed)
        devices, _, wall = self._draw(seed)
        net = cfg["network"]
        flat_dev = devices.ravel()
        priced = oracle.price_schedule(
            wall.ravel(),
            np.array([h[1] for h in SCHEDULE_HARDWARE])[flat_dev],
            np.array([h[2] for h in SCHEDULE_HARDWARE])[flat_dev],
            model_size_mb=cfg["fl"]["model_size_mb"],
            download_mbps=net["download_mbps"], upload_mbps=net["upload_mbps"],
            router_power_w=net["router_power_w"],
            c_rate_kg_per_kwh=GRID_C_RATE[cfg["grid"]])
        return {"entries": self.rounds * self.clients_per_round, **priced}

    def argv(self, directory):
        return ["estimate", "--config", str(directory / "config.json"),
                "--fixtures", str(directory / "schedule.json"),
                "--out", str(directory / "report.json")]

    def input_files(self, directory):
        return [directory / "config.json", directory / "schedule.json"]

    def output_files(self, directory):
        return [directory / "report.json"]

    def _check_outputs(self, directory, expect, out):
        report = json.loads((directory / "report.json").read_text())
        for key in ("training_wh", "communication_wh", "co2e_g"):
            if not oracle.rel_close(float(report[key]), expect[key]):
                out.problems.append(f"{key} {report[key]!r} != oracle {expect[key]!r}")
        out.work_items = expect["entries"]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (OptimizeLiveGrid(), SimulateCrossDevice(), EstimateLargeSchedule())
}
