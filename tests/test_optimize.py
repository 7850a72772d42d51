"""Carbon-cost objective, Pareto filtering, and grid ranking."""

from __future__ import annotations

import copy
import math
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedcarbon import (
    CellOutcome,
    ConfigError,
    CostPoint,
    ExperimentConfig,
    FlSetup,
    GridIntensity,
    HardwareProfile,
    RoundSchedule,
    carbon_cost,
    config_from_dict,
    default_grid,
    estimate_fl,
    grid_search,
    make_simulation_runner,
    make_table_runner,
    pareto_front,
    schedule_prefix,
    table_cells,
    table_target,
)

from conftest import load_fixture

GRID_HALF = GridIntensity(region="x", c_rate_kg_per_kwh=0.5)


def point(co2: float, acc: float, n: int = 1, le: int = 1,
          alpha: float = 1000.0, rounds: int = 10) -> CostPoint:
    return CostPoint(clients_per_round=n, local_epochs=le, partition_alpha=alpha,
                     rounds=rounds, co2e_g=co2, accuracy=acc,
                     carbon_cost=co2 / acc)


def objective(rounds: int, clients_per_round: int, round_time_s: float,
              grid: GridIntensity, client_power_w: float,
              model_size_mb: float = 0.0) -> float:
    """The objective F: estimate_fl of a uniform flat-rate schedule, in g."""
    hw = HardwareProfile("client", client_power_w, 0.0, round_time_s)
    cfg = ExperimentConfig(
        mode="fl", hardware=hw, grids=(grid,),
        fl=FlSetup(pool_size=100, clients_per_round=clients_per_round,
                   rounds=rounds, local_epochs=1, model_size_mb=model_size_mb,
                   wan_model="legacy-5kwh-per-gb"))
    schedule = RoundSchedule.uniform(rounds, clients_per_round, round_time_s, hw)
    return estimate_fl(cfg, schedule).co2e_g


class TestObjective:
    def test_hand_oracle_without_transfers(self):
        # 10 rounds x 0.5 g/Wh x 4 clients x (36 s x 100 W / 3600) = 20 g
        f = objective(10, 4, 36.0, GRID_HALF, 100.0)
        assert f == pytest.approx(20.0, rel=1e-12)

    def test_hand_oracle_with_flat_rate_transfers(self):
        # per client-round: 1 Wh compute + 5000 Wh/GB x 0.002 GB (16 Mb) = 11 Wh
        f = objective(10, 4, 36.0, GRID_HALF, 100.0, model_size_mb=16.0)
        assert f == pytest.approx(220.0, rel=1e-12)

    def test_linear_in_rounds(self):
        f1 = objective(7, 3, 12.0, GRID_HALF, 55.0, model_size_mb=8.0)
        f2 = objective(14, 3, 12.0, GRID_HALF, 55.0, model_size_mb=8.0)
        assert f2 == pytest.approx(2 * f1, rel=1e-12)

    def test_zero_rounds_is_zero(self):
        assert objective(0, 5, 10.0, GRID_HALF, 10.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            objective(-1, 1, 1.0, GRID_HALF, 1.0)
        with pytest.raises(ValueError, match="clients_per_round"):
            objective(1, 0, 1.0, GRID_HALF, 1.0)
        with pytest.raises(ValueError, match="active_power_w"):
            objective(1, 1, 1.0, GRID_HALF, 0.0)


class TestCarbonCost:
    def test_published_example(self):
        # 25.78 g at 70.2% accuracy
        assert carbon_cost(25.78, 0.702) == pytest.approx(36.723646723646725,
                                                          rel=1e-12)

    def test_exact_ratio_at_the_fixed_target(self):
        assert carbon_cost(2.19, 0.6) == pytest.approx(3.65, rel=1e-12)

    def test_accuracy_domain(self):
        with pytest.raises(ValueError, match="accuracy"):
            carbon_cost(1.0, 0.0)
        with pytest.raises(ValueError, match="accuracy"):
            carbon_cost(1.0, 1.2)

    def test_overflowing_ratio_is_an_error(self):
        assert carbon_cost(1e308, 1.0) == 1e308
        with pytest.raises(ValueError, match="^carbon cost overflows the float range$"):
            carbon_cost(1e308, 1e-10)

    def test_cost_point_consistency_enforced(self):
        with pytest.raises(ValueError, match="carbon_cost"):
            CostPoint(clients_per_round=1, local_epochs=1, partition_alpha=1.0,
                      rounds=5, co2e_g=10.0, accuracy=0.5, carbon_cost=19.0)


class TestParetoFront:
    def test_hand_case(self):
        a = point(1.0, 0.90)
        b = point(2.0, 0.95)
        c = point(3.0, 0.80)  # dominated by a
        assert pareto_front([a, b, c]) == [a, b]

    def test_equal_emissions_lower_accuracy_is_dominated(self):
        a = point(1.0, 0.9)
        d = point(1.0, 0.8)
        assert pareto_front([a, d]) == [a]

    def test_exact_duplicates_all_survive(self):
        a = point(1.0, 0.9)
        b = point(1.0, 0.9)
        assert pareto_front([a, b]) == [a, b]

    def test_input_order_preserved(self):
        pts = [point(3.0, 0.99), point(1.0, 0.5), point(2.0, 0.9)]
        assert pareto_front(pts) == pts

    def test_matches_brute_force_on_random_sets(self):
        import random
        rng = random.Random(0)
        for _ in range(60):
            pts = [point(round(rng.uniform(1, 5), 1), round(rng.uniform(0.1, 0.9), 2))
                   for _ in range(rng.randint(1, 12))]
            expected = []
            for i, p in enumerate(pts):
                dominated = any(
                    j != i and q.co2e_g <= p.co2e_g and q.accuracy >= p.accuracy
                    and (q.co2e_g < p.co2e_g or q.accuracy > p.accuracy)
                    for j, q in enumerate(pts))
                if not dominated:
                    expected.append(p)
            assert pareto_front(pts) == expected

    def test_empty_input(self):
        assert pareto_front([]) == []


class TestDefaultGrid:
    def test_shape_and_contents(self):
        cells = default_grid()
        assert len(cells) == 40
        assert cells[0] == (1, 1, 1000.0)
        assert (10, 5, 0.1) in cells
        assert len(set(cells)) == 40

    def test_respects_caps(self):
        cells = default_grid(max_clients=3)
        assert cells == [(1, 1, 1000.0), (2, 1, 1000.0), (3, 1, 1000.0),
                         (1, 5, 1000.0), (2, 5, 1000.0), (3, 5, 1000.0),
                         (1, 1, 0.1), (2, 1, 0.1), (3, 1, 0.1),
                         (1, 5, 0.1), (2, 5, 0.1), (3, 5, 0.1)]


def synthetic_runner(n: int, local_epochs: int, alpha: float) -> CellOutcome:
    """Deterministic fake: cost grows with n; alpha 0.1 at 1 LE never
    reaches the target; stable accuracy dips slightly with n."""
    if alpha < 1.0 and local_epochs == 1:
        return CellOutcome(target_rounds=None, target_co2e_g=None,
                           stable_rounds=40, stable_accuracy=0.55,
                           stable_co2e_g=8.0 * n)
    return CellOutcome(target_rounds=10 + n, target_co2e_g=float(n * local_epochs),
                       stable_rounds=30, stable_accuracy=0.7 - 0.01 * n,
                       stable_co2e_g=2.0 * n * local_epochs)


class TestGridSearch:
    CELLS = default_grid(max_clients=4)

    def test_ranking_matches_independent_re_sort(self):
        ranked = grid_search(self.CELLS, synthetic_runner, target_accuracy=0.6)
        assert len(ranked) == len(self.CELLS)

        def key(c):
            if c.at_target is None:
                return (1, math.inf, c.clients_per_round, c.local_epochs,
                        c.partition_alpha)
            return (0, c.at_target.co2e_g / 0.6, c.clients_per_round,
                    c.local_epochs, c.partition_alpha)

        assert [key(c) for c in ranked] == sorted(key(c) for c in ranked)

    def test_winner_is_cheapest_reached_cell(self):
        ranked = grid_search(self.CELLS, synthetic_runner, target_accuracy=0.6)
        best = ranked[0]
        assert best.reached_target
        # n=1, 1 LE costs 1 g / 0.6; alpha tie broken toward the lower value
        assert best.clients_per_round == 1 and best.local_epochs == 1
        assert best.partition_alpha == 0.1 or best.at_target.co2e_g == 1.0

    def test_tie_breaks_prefer_fewer_clients_then_epochs_then_alpha(self):
        cells = [(2, 1, 0.1), (1, 1, 0.1), (1, 1, 1000.0), (1, 5, 0.1)]

        def flat(n, le, alpha):
            return CellOutcome(target_rounds=5, target_co2e_g=3.0,
                               stable_rounds=5, stable_accuracy=0.9,
                               stable_co2e_g=3.0)

        ranked = grid_search(cells, flat, target_accuracy=0.6)
        order = [(c.clients_per_round, c.local_epochs, c.partition_alpha)
                 for c in ranked]
        assert order == [(1, 1, 0.1), (1, 1, 1000.0), (1, 5, 0.1), (2, 1, 0.1)]

    def test_unreached_cells_sort_last_and_keep_stable_points(self):
        ranked = grid_search(self.CELLS, synthetic_runner, target_accuracy=0.6)
        tail = [c for c in ranked if not c.reached_target]
        assert len(tail) == 4  # alpha 0.1 with 1 LE, n = 1..4
        assert all(c.stable.accuracy == 0.55 for c in tail)
        assert ranked[-len(tail):] == tail

    def test_ranking_invariant_under_cost_scaling(self):
        def scaled(n, le, alpha):
            o = synthetic_runner(n, le, alpha)
            return CellOutcome(
                target_rounds=o.target_rounds,
                target_co2e_g=None if o.target_co2e_g is None else 7 * o.target_co2e_g,
                stable_rounds=o.stable_rounds,
                stable_accuracy=o.stable_accuracy,
                stable_co2e_g=7 * o.stable_co2e_g,
            )

        base = grid_search(self.CELLS, synthetic_runner, target_accuracy=0.6)
        rescaled = grid_search(self.CELLS, scaled, target_accuracy=0.6)
        ids = lambda cells: [(c.clients_per_round, c.local_epochs, c.partition_alpha)
                             for c in cells]
        assert ids(base) == ids(rescaled)

    def test_target_validation(self):
        with pytest.raises(ValueError, match="target_accuracy"):
            grid_search(self.CELLS, synthetic_runner, target_accuracy=0.0)

    def test_reached_cell_without_co2_rejected(self):
        def broken(n, le, alpha):
            return CellOutcome(target_rounds=3, target_co2e_g=None,
                               stable_rounds=3, stable_accuracy=0.7,
                               stable_co2e_g=1.0)
        with pytest.raises(ValueError, match="co2e"):
            grid_search([(1, 1, 1.0)], broken, target_accuracy=0.6)


class TestTableRunner:
    TABLE = load_fixture("cifar10_grid_results.json")

    def test_reads_recorded_cells(self):
        runner = make_table_runner(self.TABLE)
        cell = runner(1, 1, 1000.0)
        assert cell.target_rounds == 28
        assert cell.target_co2e_g == pytest.approx(2.19)
        assert cell.stable_accuracy == pytest.approx(0.702)

    def test_null_target_maps_to_unreached(self):
        runner = make_table_runner(self.TABLE)
        cell = runner(9, 1, 0.1)
        assert cell.target_rounds is None and cell.target_co2e_g is None
        assert cell.stable_accuracy == pytest.approx(0.580)

    def test_finds_every_cell_the_table_lists(self):
        runner = make_table_runner(self.TABLE)
        rows = [row for block in self.TABLE["blocks"] for row in block["rows"]]
        cells = table_cells(self.TABLE)
        assert len(cells) == len(rows) == 40
        for cell, row in zip(cells, rows):
            outcome = runner(*cell)
            stable = row["stable"]
            assert (outcome.stable_rounds, outcome.stable_accuracy, outcome.stable_co2e_g) == (
                stable["rounds"], stable["accuracy"], stable["co2_g"])

    def test_unknown_cell_raises(self):
        runner = make_table_runner(self.TABLE)
        with pytest.raises(KeyError):
            runner(11, 1, 1000.0)

    def test_stable_cost_block_minima(self):
        # best grams-per-accuracy over the full budget, per block
        runner = make_table_runner(self.TABLE)
        expected = {
            (1000.0, 5): (63.58, 7),
            (1000.0, 1): (34.17, 4),
            (0.1, 5): (87.77, 10),
            (0.1, 1): (52.62, 1),
        }
        for (alpha, le), (best_cost, best_n) in expected.items():
            costs = {n: carbon_cost(runner(n, le, alpha).stable_co2e_g,
                                    runner(n, le, alpha).stable_accuracy)
                     for n in range(1, 11)}
            n_star = min(costs, key=costs.get)
            assert n_star == best_n
            assert costs[n_star] == pytest.approx(best_cost, rel=5e-3)


class TestTableShape:
    TABLE = load_fixture("cifar10_grid_results.json")

    def test_cells_follow_file_order(self):
        cells = table_cells(self.TABLE)
        assert len(cells) == 40
        assert cells[0] == (1, 5, 1000.0) and cells[10] == (1, 1, 1000.0)
        assert cells == [(row["clients"], block["local_epochs"], block["alpha"])
                         for block in self.TABLE["blocks"] for row in block["rows"]]

    @pytest.mark.parametrize("table, message", [
        ([1, 2], "'blocks' list"),
        ({"blocks": 3}, "'blocks' list"),
        ({"blocks": [5]}, "block 0 must be an object with 'alpha'"),
        ({"blocks": [{"alpha": 1.0, "local_epochs": 1}]}, "'rows' list"),
        ({"blocks": [{"alpha": None, "local_epochs": 1, "rows": []}]}, "'alpha'"),
        ({"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [7]}]},
         "row 0 must be an object with 'clients'"),
        ({"blocks": [{"alpha": 1.0, "local_epochs": 1,
                      "rows": [{"clients": 1, "stable": 3}]}]}, "'stable' object"),
        ({"blocks": [{"alpha": 1.0, "local_epochs": 1,
                      "rows": [{"clients": 1, "target": 3,
                                "stable": {"rounds": 1, "accuracy": 0.5, "co2_g": 1.0}}]}]},
         "target must be an object with 'rounds'"),
        ({"blocks": [{"alpha": 1.0, "local_epochs": 1,
                      "rows": [{"clients": 1,
                                "stable": {"rounds": [1], "accuracy": 0.5, "co2_g": 1.0}}]}]},
         "stable 'rounds'"),
        ({"blocks": [{"alpha": 1.0, "local_epochs": float("inf"), "rows": []}]},
         "'local_epochs'"),
    ])
    def test_malformed_table_is_config_error(self, table, message):
        for parse in (make_table_runner, table_cells):
            with pytest.raises(ConfigError, match=message):
                parse(table)

    @pytest.mark.parametrize("key, value", [
        ("clients", 2.7), ("clients", True), ("clients", "3"),
        ("rounds", 4.0), ("co2_g", "1.5"), ("accuracy", False),
    ])
    def test_values_must_be_exact_json_numbers(self, key, value):
        row = {"clients": 2, "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}}
        if key == "clients":
            row[key] = value
        else:
            row["stable"][key] = value
        table = {"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [row]}]}
        for parse in (make_table_runner, table_cells):
            with pytest.raises(ConfigError, match=f"block 0 row 0.*'{key}' must be"):
                parse(table)

    @pytest.mark.parametrize("alpha, local_epochs, clients, message", [
        (-1.0, -3, -1, "block 0 'alpha' must be > 0, got -1.0"),
        (0, 1, 2, "block 0 'alpha' must be > 0, got 0.0"),
        (1.0, 0, 2, "block 0 'local_epochs' must be >= 1, got 0"),
        (1.0, -3, 2, "block 0 'local_epochs' must be >= 1, got -3"),
        (1.0, 1, 0, "block 0 row 0 'clients' must be >= 1, got 0"),
        (1.0, 1, -1, "block 0 row 0 'clients' must be >= 1, got -1"),
    ])
    def test_values_must_lie_in_range(self, alpha, local_epochs, clients, message):
        row = {"clients": clients, "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}}
        table = {"blocks": [{"alpha": alpha, "local_epochs": local_epochs, "rows": [row]}]}
        for parse in (make_table_runner, table_cells):
            with pytest.raises(ConfigError) as info:
                parse(table)
            assert str(info.value) == f"results table {message}"

    @pytest.mark.parametrize("point, key, value, message", [
        ("stable", "accuracy", 0, "stable 'accuracy' must lie in (0, 1], got 0.0"),
        ("stable", "accuracy", 1.5, "stable 'accuracy' must lie in (0, 1], got 1.5"),
        ("stable", "co2_g", -1, "stable 'co2_g' must be >= 0, got -1.0"),
        ("target", "co2_g", -1, "target 'co2_g' must be >= 0, got -1.0"),
        ("stable", "rounds", -3, "stable 'rounds' must be >= 0, got -3"),
        ("target", "rounds", -3, "target 'rounds' must be >= 0, got -3"),
    ], ids=["stable-accuracy-0", "stable-accuracy-1.5", "stable-negative-co2",
            "target-negative-co2", "stable-negative-rounds", "target-negative-rounds"])
    def test_points_follow_cost_point_rules(self, point, key, value, message):
        row = {"clients": 2, "target": {"rounds": 3, "co2_g": 1.0},
               "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}}
        row[point][key] = value
        table = {"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [row]}]}
        for parse in (make_table_runner, table_cells):
            with pytest.raises(ConfigError) as info:
                parse(table)
            assert str(info.value) == f"results table block 0 row 0 {message}"

    @pytest.mark.parametrize("declared, target", [(0.6, 0.6), (1, 1.0), (0, 0.5)])
    def test_declared_target(self, declared, target):
        assert table_target({"target_accuracy": declared, "blocks": []}) == target
        assert table_target({"blocks": []}, 0.7) == 0.7

    @pytest.mark.parametrize("declared", [1.5, -0.5, math.inf, True])
    def test_declared_target_outside_the_unit_interval_is_rejected(self, declared):
        with pytest.raises(ConfigError, match="^results table 'target_accuracy' must be a"):
            table_target({"target_accuracy": declared, "blocks": []})

    def test_repeated_cell_names_both_rows(self):
        row = {"clients": 2, "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}}
        table = {"blocks": [
            {"alpha": 1.0, "local_epochs": 1, "rows": [row]},
            {"alpha": 0.1, "local_epochs": 1, "rows": [row]},
            {"alpha": 1, "local_epochs": 1, "rows": [{**row, "clients": 3}, row]},
        ]}
        for parse in (make_table_runner, table_cells):
            with pytest.raises(ConfigError,
                               match=r"block 2 row 1 repeats the cell of block 0 row 0"):
                parse(table)


class TestSimulationRunner:
    BASE = {
        "mode": "fl",
        "hardware": "tx2-cifar10",
        "grid": "france",
        "fl": {"pool_size": 10, "clients_per_round": 2, "rounds": 5,
               "local_epochs": 1, "model_size_mb": 0.0},
        "sim": {"classes": 3, "features": 4, "n_samples": 400,
                "separation": 4.0, "target_accuracy": 0.6, "alpha": 1000.0},
        "seed": 3,
    }

    def test_single_cell_outcome_is_priced_consistently(self):
        cfg = config_from_dict(self.BASE)
        runner = make_simulation_runner(cfg)
        out = runner(2, 1, 1000.0)
        assert 1 <= out.stable_rounds <= 5
        assert 0.0 < out.stable_accuracy <= 1.0
        assert out.stable_co2e_g > 0
        if out.target_rounds is not None:
            assert out.target_rounds <= out.stable_rounds or \
                out.target_co2e_g <= out.stable_co2e_g

    def test_emissions_grow_with_the_round_budget_consumed(self):
        cfg = config_from_dict(self.BASE)
        runner = make_simulation_runner(cfg)
        out = runner(3, 1, 1000.0)
        # 3 clients x rounds x 0.8 s x 4.7 W priced on france
        per_round_g = 3 * 0.8 * 4.7 / 3600.0 * 0.0790
        assert out.stable_co2e_g == pytest.approx(out.stable_rounds * per_round_g,
                                                  rel=1e-9)

    def test_a_cell_is_priced_from_its_ledger_as_each_prefix_would_be(self, monkeypatch):
        import fedcarbon.carbon as carbon
        import fedcarbon.optimize as optimize
        import fedcarbon.sim as sim

        raw = copy.deepcopy(self.BASE)
        raw["network"] = {"download_mbps": 100.0, "upload_mbps": 40.0, "router_power_w": 10.0}
        raw["fl"].update(model_size_mb=357.0, wan_model="router")
        simulate, check = sim.simulate, carbon._check_schedule_matches
        runs, checked = [], []

        # The target (0.6) is first reached in round 2 and the best
        # accuracy in round 4, so the runner prices two inner rows.
        def recorded(cfg, *args, **kwargs):
            _, schedule, w = simulate(cfg, *args, **kwargs)
            runs.append((cfg, schedule))
            return sim.AccuracyTrace((0.1, 0.7, 0.65, 0.8, 0.3)), schedule, w

        def refuse(*args):
            raise AssertionError("the runner priced a schedule again")

        monkeypatch.setattr(sim, "simulate", recorded)
        monkeypatch.setattr(carbon, "_check_schedule_matches",
                            lambda cfg, schedule: checked.append(schedule) or check(cfg, schedule))
        for module in (carbon, optimize):
            monkeypatch.setattr(module, "estimate_fl", refuse)
            monkeypatch.setattr(module, "schedule_prefix", refuse)
        out = make_simulation_runner(config_from_dict(raw))(3, 2, 0.1)
        monkeypatch.undo()

        (cfg, schedule), = runs
        assert len(checked) == 1 and checked[0] is schedule
        assert (schedule.rounds, out.target_rounds, out.stable_rounds) == (5, 2, 4)
        for rounds, co2e_g in ((out.target_rounds, out.target_co2e_g),
                               (out.stable_rounds, out.stable_co2e_g)):
            assert co2e_g == estimate_fl(cfg, schedule_prefix(schedule, rounds)).co2e_g

    def test_a_simulate_replaced_after_the_runner_is_built_is_the_one_it_calls(
            self, monkeypatch):
        import fedcarbon.sim as sim

        runner = make_simulation_runner(config_from_dict(self.BASE))
        simulate, calls = sim.simulate, []

        def recorded(cfg, *args, **kwargs):
            calls.append(cfg.fl.clients_per_round)
            return simulate(cfg, *args, **kwargs)

        monkeypatch.setattr(sim, "simulate", recorded)
        out = runner(2, 1, 1000.0)
        assert calls == [2]
        monkeypatch.undo()
        assert runner(2, 1, 1000.0) == out and calls == [2]

    @pytest.mark.parametrize("best_round", [1, 2, 3])
    def test_only_the_priced_rounds_may_overflow(self, monkeypatch, best_round):
        # One client-epoch draws 7e307 J: the cumulative training energy
        # of rounds 1 and 2 is finite and that of round 3 overflows.  A cell
        # prices its target and best rounds only, so it fails only when one
        # of them overflows.
        import fedcarbon.sim as sim

        simulate = sim.simulate
        runs = []

        def best_at(cfg, *args, **kwargs):
            _, schedule, w = simulate(cfg, *args, **kwargs)
            runs.append((cfg, schedule))
            accuracies = [0.5] * schedule.rounds
            accuracies[best_round - 1] = 0.9
            return sim.AccuracyTrace(tuple(accuracies)), schedule, w

        monkeypatch.setattr(sim, "simulate", best_at)
        raw = copy.deepcopy(self.BASE)
        raw["hardware"] = {"name": "slow", "active_power_w": 1.0, "idle_power_w": 0.0,
                           "time_per_local_epoch_s": 7e307}
        raw["fl"]["rounds"] = 3
        raw["sim"]["separation"] = 1.0
        runner = make_simulation_runner(config_from_dict(raw))
        if best_round == 3:
            with pytest.raises(ValueError, match="^training energy overflows the float range$"):
                runner(1, 1, 1000.0)
            return
        out = runner(1, 1, 1000.0)
        (cfg, schedule), = runs
        assert schedule.rounds == 3
        with pytest.raises(ValueError, match="^training energy overflows the float range$"):
            estimate_fl(cfg, schedule)
        want = estimate_fl(cfg, schedule_prefix(schedule, best_round)).co2e_g
        assert (out.target_rounds, out.stable_rounds) == (best_round, best_round)
        assert out.target_co2e_g == out.stable_co2e_g == want
        assert want == best_round * 7e307 / 3600.0 * cfg.grid.c_rate_kg_per_kwh

    def test_grid_search_end_to_end(self):
        cfg = config_from_dict(self.BASE)
        runner = make_simulation_runner(cfg)
        ranked = grid_search([(1, 1, 1000.0), (2, 1, 1000.0), (2, 1, 0.1)],
                             runner, target_accuracy=0.6)
        assert len(ranked) == 3
        reached = [c for c in ranked if c.reached_target]
        if reached:
            costs = [c.at_target.carbon_cost for c in reached]
            assert costs == sorted(costs)

    def test_task_once_partition_once_per_alpha_and_no_shared_state(self, monkeypatch):
        import fedcarbon.sim as sim

        calls = {"make_task": 0, "lda_partition": 0, "assign_samples": 0}

        def counting(name):
            original = getattr(sim, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(sim, name, counted)

        for name in calls:
            counting(name)
        cfg = config_from_dict(self.BASE)
        cells = default_grid(max_clients=3)
        ranked = grid_search(cells, make_simulation_runner(cfg), target_accuracy=0.6)
        assert len(ranked) == len(cells) == 12
        assert calls == {"make_task": 1, "lda_partition": 2, "assign_samples": 2}

        # A second runner draws its own federation instead of reusing the
        # first one's, and sharing changes no cell's outcome.
        shared = make_simulation_runner(cfg)
        first = [shared(n, e, a) for n, e, a in cells]
        assert calls == {"make_task": 2, "lda_partition": 4, "assign_samples": 4}
        fresh = [make_simulation_runner(cfg)(n, e, a) for n, e, a in cells]
        assert first == fresh

    def test_selections_and_batch_orders_drawn_once_per_runner(self, monkeypatch):
        import fedcarbon.sim as sim

        derived_rng, select_clients = sim.derived_rng, sim.select_clients
        pcg64_starts = sim._pcg64_starts
        generators: Counter = Counter()
        selections: Counter = Counter()

        # A (round, client) is seeded by a row of a start-state pass, or
        # by derived_rng for keys beyond the uint32 words.
        def counted_starts(words):
            for _, stream, r, c in words.tolist():
                assert stream == sim._STREAM_TRAIN
                generators[r, c] += 1
            return pcg64_starts(words)

        def counted_rng(*keys):
            if keys[1] == sim._STREAM_TRAIN:
                generators[keys[2:]] += 1
            return derived_rng(*keys)

        def counted_select(pool_size, clients_per_round, round_index, seed):
            selections[(clients_per_round, round_index)] += 1
            return select_clients(pool_size, clients_per_round, round_index, seed)

        monkeypatch.setattr(sim, "_pcg64_starts", counted_starts)
        monkeypatch.setattr(sim, "derived_rng", counted_rng)
        monkeypatch.setattr(sim, "select_clients", counted_select)
        cfg = config_from_dict(self.BASE)
        cells = default_grid(max_clients=3)
        grid_search(cells, make_simulation_runner(cfg), target_accuracy=0.6)

        # 12 cells of 5 rounds: one selection per (clients per round,
        # round) and one seeding per (round, client) they selected.
        keys = {(n, r) for n in (1, 2, 3) for r in range(5)}
        trained = {(r, int(c)) for n, r in keys for c in select_clients(10, n, r, 3)}
        assert selections == Counter(dict.fromkeys(keys, 1))
        assert generators == Counter(dict.fromkeys(trained, 1))

        # A second runner draws its own.
        grid_search(cells, make_simulation_runner(cfg), target_accuracy=0.6)
        assert selections == Counter(dict.fromkeys(keys, 2))
        assert generators == Counter(dict.fromkeys(trained, 2))

    TINY = {
        "mode": "fl",
        "hardware": "tx2-cifar10",
        "grid": "france",
        "fl": {"pool_size": 4, "clients_per_round": 1, "rounds": 3,
               "local_epochs": 1, "model_size_mb": 0.0},
        "sim": {"classes": 2, "features": 3, "n_samples": 120, "batch_size": 8,
                "separation": 1.5, "target_accuracy": 0.7},
        "seed": 8,
    }

    # The TINY runner's shards hold 24 samples, so a (round, client) key
    # costs 952 + 128 bytes for its generator and block plus 24 per epoch
    # of orders, and a selection of n clients 8n + 128.  These budgets fill
    # up at the first key; after the six keys a 2-client, 1-epoch cell
    # keeps, within their orders (the example below extends them to 5
    # epochs); and after a few keys.  None is the default budget.
    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(1, 4), st.sampled_from((1, 2, 5)),
                                    st.sampled_from((1000.0, 0.1))),
                          min_size=1, max_size=4),
           keep_bytes=st.sampled_from((None, 0, 496, 7124, 4616)))
    @example(cells=[(2, 1, 1000.0), (2, 5, 1000.0), (3, 5, 0.1)], keep_bytes=None)
    @example(cells=[(2, 1, 1000.0), (2, 5, 1000.0), (3, 5, 0.1)], keep_bytes=7124)
    @example(cells=[(2, 5, 0.1), (2, 1, 0.1), (2, 1, 1000.0)], keep_bytes=None)
    @example(cells=[(4, 1, 1000.0), (4, 5, 1000.0), (4, 2, 0.1)], keep_bytes=4616)
    def test_shared_draws_leave_every_cell_as_run_alone(self, cells, keep_bytes):
        import fedcarbon.sim as sim

        simulate = sim.simulate

        def checked(*args, draws, **kwargs):
            trace, schedule, w = simulate(*args, draws=draws, **kwargs)
            # The run equals one that draws its own, to the last bit of
            # the final weights, which the outcome rounds away.
            alone = simulate(*args, **kwargs)
            assert (trace, schedule, w.tobytes()) == (alone[0], alone[1], alone[2].tobytes())
            return trace, schedule, w

        cfg = config_from_dict(self.TINY)
        draws = sim._Draws if keep_bytes is None else partial(sim._Draws, keep_bytes=keep_bytes)
        with mock.patch.object(sim, "simulate", checked), \
                mock.patch.object(sim, "_Draws", draws):
            shared = make_simulation_runner(cfg)
            for cell in cells:
                assert shared(*cell) == make_simulation_runner(cfg)(*cell)

    def test_requires_a_federated_config(self):
        cen = config_from_dict({
            "mode": "centralized", "hardware": "v100-cifar10", "grid": "france",
            "pue": 1.11, "epochs": 1, "seed": 0,
        })
        with pytest.raises(ValueError, match="federated"):
            make_simulation_runner(cen)
