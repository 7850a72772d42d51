"""Carbon-aware ranking of federated design points.

Design points are compared by carbon cost, grams of CO2e per unit of
reached accuracy G.  grid_search treats the evaluation of one cell as a
black box, so measured result tables can stand in for live simulation.
A live cell's grams are priced from the schedule its simulation executed,
under the config's own WAN model and grid; a table cell's grams are the
ones the table recorded.

The paper's closed form F, grams of CO2e for r rounds with n clients per
round on a uniform fleet,

    F = r * c * n * (t * e + 5000 * s)   [grams CO2e]

where c is the grid intensity (kg per kWh, numerically g per Wh), t the
per-round wall time in hours, e the client draw in watts and s the model
size in GB, is what estimate_fl gives for the uniform schedule
RoundSchedule.uniform(r, n, t, hw) under the flat-rate
"legacy-5kwh-per-gb" WAN model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

from .carbon import _priced, _round_ledger
# perfbench/spans.py TARGETS still looks these two up here; ROADMAP item 1 drops them.
from .carbon import estimate_fl, schedule_prefix  # noqa: F401
from .profiles import ConfigError, ExperimentConfig, SimSetup, _finite, _integer

__all__ = [
    "CostPoint",
    "CellOutcome",
    "CellResult",
    "carbon_cost",
    "pareto_front",
    "grid_search",
    "default_grid",
    "make_simulation_runner",
    "make_table_runner",
    "table_cells",
    "table_target",
]

_REL_TOL = 1e-9


def carbon_cost(co2e_g: float, accuracy: float) -> float:
    """Grams per unit accuracy; accuracy must lie in (0, 1].  Raises
    ValueError when the ratio is not finite."""
    if not (math.isfinite(co2e_g) and co2e_g >= 0):
        raise ValueError("co2e_g must be finite and >= 0")
    if not (0.0 < accuracy <= 1.0):
        raise ValueError("accuracy must lie in (0, 1]")
    cost = co2e_g / accuracy
    if not math.isfinite(cost):
        raise ValueError("carbon cost overflows the float range")
    return cost


@dataclass(frozen=True)
class CostPoint:
    """One evaluated design point: emissions, accuracy and their ratio."""

    clients_per_round: int
    local_epochs: int
    partition_alpha: float
    rounds: int
    co2e_g: float
    accuracy: float
    carbon_cost: float

    def __post_init__(self) -> None:
        if not (0.0 < self.accuracy <= 1.0):
            raise ValueError("accuracy must lie in (0, 1]")
        if self.co2e_g < 0 or self.rounds < 0:
            raise ValueError("co2e_g and rounds must be >= 0")
        expect = self.carbon_cost * self.accuracy
        if not math.isclose(expect, self.co2e_g, rel_tol=_REL_TOL, abs_tol=1e-12):
            raise ValueError("carbon_cost * accuracy must equal co2e_g")


@dataclass(frozen=True)
class CellOutcome:
    """What a runner reports for one grid cell.

    target_* describe the first round whose accuracy reached the fixed
    target (None when it never did); stable_* describe the best accuracy
    seen over the whole round budget.
    """

    target_rounds: int | None
    target_co2e_g: float | None
    stable_rounds: int
    stable_accuracy: float
    stable_co2e_g: float


@dataclass(frozen=True)
class CellResult:
    """A grid cell with its two priced points (fixed target and stable)."""

    clients_per_round: int
    local_epochs: int
    partition_alpha: float
    at_target: CostPoint | None
    stable: CostPoint

    @property
    def reached_target(self) -> bool:
        return self.at_target is not None


def pareto_front(points: Sequence[CostPoint]) -> list[CostPoint]:
    """Non-dominated points under (lower co2e_g, higher accuracy).

    A point is dropped only if some other point is at least as good on
    both axes and strictly better on one; exact duplicates all survive.
    Input order is preserved.
    """
    out = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if j == i:
                continue
            if (q.co2e_g <= p.co2e_g and q.accuracy >= p.accuracy
                    and (q.co2e_g < p.co2e_g or q.accuracy > p.accuracy)):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out


def default_grid(max_clients: int = 10, epochs: tuple[int, ...] = (1, 5),
                 alphas: tuple[float, ...] = (1000.0, 0.1)) -> list[tuple[int, int, float]]:
    """The standard search space: n in 1..max, few/many local epochs,
    near-IID and concentrated partitions."""
    return [(n, e, a) for a in alphas for e in epochs for n in range(1, max_clients + 1)]


Runner = Callable[[int, int, float], CellOutcome]


def grid_search(cells: Iterable[tuple[int, int, float]], runner: Runner,
                target_accuracy: float) -> list[CellResult]:
    """Evaluate every cell and rank ascending by carbon cost at the target.

    Cells that never reach the target sort after all that do.  Ties break
    deterministically: fewer clients, then fewer local epochs, then lower
    alpha.
    """
    if not (0.0 < target_accuracy <= 1.0):
        raise ValueError("target_accuracy must lie in (0, 1]")
    results: list[CellResult] = []
    for n, local_epochs, alpha in cells:
        outcome = runner(n, local_epochs, alpha)

        def point(rounds: int, co2e_g: float, accuracy: float) -> CostPoint:
            return CostPoint(n, local_epochs, alpha, rounds, co2e_g, accuracy,
                             carbon_cost(co2e_g, accuracy))

        at_target = None
        if outcome.target_rounds is not None:
            if outcome.target_co2e_g is None:
                raise ValueError("a reached target needs its co2e value")
            at_target = point(outcome.target_rounds, outcome.target_co2e_g, target_accuracy)
        stable = point(outcome.stable_rounds, outcome.stable_co2e_g, outcome.stable_accuracy)
        results.append(CellResult(n, local_epochs, alpha, at_target, stable))

    def key(cell: CellResult) -> tuple:
        if cell.at_target is None:
            return (1, math.inf, cell.clients_per_round, cell.local_epochs,
                    cell.partition_alpha)
        return (0, cell.at_target.carbon_cost, cell.clients_per_round,
                cell.local_epochs, cell.partition_alpha)

    return sorted(results, key=key)


def make_simulation_runner(base: ExperimentConfig) -> Runner:
    """Runner that simulates each cell from a federated base config.

    The run always uses the full round budget (no early stop), then reads
    the fixed-target crossing and the best-accuracy round off the trace.
    Emissions come from the run's per-round ledger (carbon._round_ledger),
    built once per cell: the price through round r is row r - 1, put
    through the same EnergyBreakdown.from_parts and to_co2e calls as
    estimate_fl.  simulate lists a schedule's entries round by round, so
    that is the same bits as estimate_fl of the schedule's first r rounds
    (schedule_prefix), and a row that overflows raises the same error.
    Rounds after the priced ones are not priced, so their overflow is no
    error.

    A cell's task depends only on the seed and the 'sim' block, and its
    partition and sample shards only on alpha besides, so the runner
    builds the task once and the partition and shards once per alpha.
    Every cell runs with the seed, so the runner also draws each round's
    client selection and each client's batch orders once (a sim._Draws,
    which keeps at most sim._KEEP_BYTES of them) and every cell reads
    them.  All of it lives in the runner and goes with it; two runners
    share nothing.
    """
    # Looked up when the runner is built, not when this module is imported:
    # perfbench/spans.py and two tests replace fedcarbon.sim.simulate first,
    # and the runner must call the replacement.
    from .sim import (Federation, SimDataset, _Draws, _fl_and_sim,
                      build_federation, rounds_to_target, simulate)

    fl, sim = _fl_and_sim(base)
    rule_target = sim.target_accuracy
    task: SimDataset | None = None
    federations: dict[float, Federation] = {}
    draws = _Draws(base.seed)

    def federation(alpha: float) -> Federation:
        nonlocal task
        if alpha not in federations:
            cfg = replace(base, sim=replace(sim, alpha=alpha))
            federations[alpha] = build_federation(cfg, task)
            task = federations[alpha].dataset
        return federations[alpha]

    def run(n: int, local_epochs: int, alpha: float) -> CellOutcome:
        cfg = replace(
            base,
            fl=replace(fl, clients_per_round=n, local_epochs=local_epochs),
            sim=replace(sim, alpha=alpha, target_accuracy=1.0),
        )
        fed = federation(alpha)
        trace, schedule, _ = simulate(cfg, fed.dataset, fed.partition,
                                      shards=fed.shards, draws=draws)
        if trace.rounds == 0:
            raise ValueError("cell produced an empty run; increase fl.rounds")

        training, communication = _round_ledger(cfg, schedule)

        def co2_through(rounds: int) -> float:
            return _priced(cfg, float(training[rounds - 1]),
                           float(communication[rounds - 1]))[1]

        hit = rounds_to_target(trace, rule_target)
        target_co2 = co2_through(hit) if hit is not None else None
        best = max(trace.accuracies)
        stable_rounds = trace.accuracies.index(best) + 1
        return CellOutcome(
            target_rounds=hit,
            target_co2e_g=target_co2,
            stable_rounds=stable_rounds,
            stable_accuracy=best,
            stable_co2e_g=co2_through(stable_rounds),
        )

    return run


# The range of each results-table value, keyed by the words that state it;
# a point's rounds, co2_g and accuracy follow CostPoint's rules.
_TABLE_RULES: Mapping[str, Callable[[Any], bool]] = MappingProxyType({
    "be > 0": lambda v: v > 0,
    "be >= 0": lambda v: v >= 0,
    "be >= 1": lambda v: v >= 1,
    "lie in (0, 1]": lambda v: 0 < v <= 1,
})


def _table_value(obj: Any, key: str, kind: type, where: str, rule: str) -> Any:
    """obj[key] as kind (int or float), which must obey `rule` (a key of
    _TABLE_RULES); an integer must be a JSON integer and a float any
    finite JSON number."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"{where} must be an object with {key!r}")
    value = obj[key]
    if kind is int and not _integer(value):
        raise ConfigError(f"{where} {key!r} must be an integer, got {value!r}")
    if not _finite(value):
        raise ConfigError(f"{where} {key!r} must be a finite number, got {value!r}")
    value = kind(value)
    if not _TABLE_RULES[rule](value):
        raise ConfigError(f"{where} {key!r} must {rule}, got {value!r}")
    return value


def _table_rows(table: Any) -> list[tuple[tuple[int, int, float], CellOutcome]]:
    """Each row of a results table in file order, as ((clients,
    local_epochs, alpha), outcome); ConfigError when a block, row or
    point is missing or not a number, when a value breaks its rule in
    _TABLE_RULES, or when a cell is repeated."""
    blocks = table.get("blocks") if isinstance(table, dict) else None
    if not isinstance(blocks, list):
        raise ConfigError("results table must be an object with a 'blocks' list")
    rows = []
    first: dict[tuple[int, int, float], str] = {}
    for i, block in enumerate(blocks):
        where = f"results table block {i}"
        alpha = _table_value(block, "alpha", float, where, "be > 0")
        local_epochs = _table_value(block, "local_epochs", int, where, "be >= 1")
        if not isinstance(block.get("rows"), list):
            raise ConfigError(f"{where} must hold a 'rows' list")
        for j, row in enumerate(block["rows"]):
            where = f"results table block {i} row {j}"
            n = _table_value(row, "clients", int, where, "be >= 1")
            cell = (n, local_epochs, alpha)
            if cell in first:
                raise ConfigError(f"{where} repeats the cell of {first[cell]}: "
                                  f"(clients, local_epochs, alpha) = {cell}")
            first[cell] = f"block {i} row {j}"
            target, stable = row.get("target"), row.get("stable")
            if not isinstance(stable, dict):
                raise ConfigError(f"{where} must hold a 'stable' object")
            rows.append((cell, CellOutcome(
                target_rounds=None if target is None
                else _table_value(target, "rounds", int, f"{where} target", "be >= 0"),
                target_co2e_g=None if target is None
                else _table_value(target, "co2_g", float, f"{where} target", "be >= 0"),
                stable_rounds=_table_value(stable, "rounds", int, f"{where} stable", "be >= 0"),
                stable_accuracy=_table_value(stable, "accuracy", float, f"{where} stable",
                                             "lie in (0, 1]"),
                stable_co2e_g=_table_value(stable, "co2_g", float, f"{where} stable", "be >= 0"),
            )))
    return rows


def table_cells(table: Any) -> list[tuple[int, int, float]]:
    """The (clients, local_epochs, alpha) cells of a results table, in file order."""
    return [cell for cell, _ in _table_rows(table)]


def table_target(table: dict[str, Any],
                 default: float = SimSetup.target_accuracy) -> float:
    """A results table's declared 'target_accuracy', or `default` when it
    declares none (or 0)."""
    declared = table.get("target_accuracy", 0.0)
    if not (_finite(declared) and 0.0 <= declared <= 1.0):
        raise ConfigError("results table 'target_accuracy' must be a number in (0, 1], "
                          "or 0 for none")
    return float(declared) or default


def make_table_runner(table: Any) -> Runner:
    """Runner backed by a measured results table (see fixtures/).

    The table maps (alpha, local_epochs, clients) to the recorded rounds,
    emissions and accuracies; cells absent from the table raise KeyError.
    A table that is not shaped like one raises ConfigError.
    """
    index = {(alpha, local_epochs, n): outcome
             for (n, local_epochs, alpha), outcome in _table_rows(table)}

    def run(n: int, local_epochs: int, alpha: float) -> CellOutcome:
        return index[(float(alpha), int(local_epochs), int(n))]

    return run
