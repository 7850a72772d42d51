"""End-to-end regression gate.

Every test here pins a published reference number, a closed-form
statistic, or an exact structural identity, with an explicit tolerance
chosen up front.  The expected values were derived independently of the
implementation (hand arithmetic on the fixture inputs, analytic Dirichlet
moments, central finite differences), so a pass means the library
reproduces the reference behaviour rather than its own output.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcarbon import (
    CostPoint,
    HardwareProfile,
    ModelSpec,
    RoundSchedule,
    ScheduleEntry,
    builtin_registry,
    carbon_cost,
    centralized_sgd,
    config_from_dict,
    estimate_centralized,
    estimate_fl,
    fedavg_aggregate,
    grid_search,
    lda_partition,
    load_config,
    make_table_runner,
    make_task,
    pareto_front,
    rounds_to_target,
    sample_dirichlet,
    schedule_from_dict,
    select_clients,
    simulate,
    training_energy_centralized,
    training_energy_fl,
    uniform_prior,
)
from fedcarbon.sim import DEFAULT_CLIENT_LR

from conftest import FIXTURES_DIR, load_fixture

CONFIGS = FIXTURES_DIR / "configs"
SCHEDULES = FIXTURES_DIR / "schedules"

HW = builtin_registry()


# ---------------------------------------------------------------------------
# 1. Reference fleet: 16 rounds x 5 TX2-class devices, 51.4 s/round at 10 W,
#    priced on the China grid with communication off.  Hand arithmetic:
#    16*5*51.4*10/3600 Wh * 0.9746 g/Wh = 11.132... g.
# ---------------------------------------------------------------------------

class TestReferenceFleet:
    def test_emission_matches_hand_arithmetic(self):
        cfg = load_config(CONFIGS / "fl_tx2_nominal_china.json")
        schedule = schedule_from_dict(
            load_fixture("schedules/tx2_nominal_16x5.json"))
        report = estimate_fl(cfg, schedule)
        assert report.co2e_g == pytest.approx(11.13, abs=0.01)
        assert report.energy.communication_wh == 0.0

    def test_estimate_runs_under_a_millisecond(self):
        cfg = load_config(CONFIGS / "fl_tx2_nominal_china.json")
        schedule = schedule_from_dict(
            load_fixture("schedules/tx2_nominal_16x5.json"))
        estimate_fl(cfg, schedule)  # warm-up
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            estimate_fl(cfg, schedule)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, f"best of 5 runs took {best * 1e3:.3f} ms"


# ---------------------------------------------------------------------------
# 2. Published per-device energies, recomputed from the power draws and
#    durations recorded in the measured-device table.  The printed values
#    carry one decimal (or whole Wh for the large run), so each pinned
#    tolerance covers exactly that display rounding.
# ---------------------------------------------------------------------------

class TestPublishedDeviceEnergies:
    @staticmethod
    def _row(task: str, setting: str, hardware: str) -> dict:
        table = load_fixture("device_energy_table.json")
        for row in table["rows"]:
            if (row["task"], row["setting"], row["hardware"]) == (
                    task, setting, hardware):
                return row
        raise AssertionError(f"no row for {(task, setting, hardware)}")

    def test_centralized_energies(self):
        row = self._row("cifar10", "centralized", "v100-cifar10")
        assert (row["power_w"], row["duration_s"]) == (202, 48)
        wh = training_energy_centralized(202.0, 48.0, 1.0)
        assert wh == pytest.approx(2.69, abs=0.005)
        assert round(wh, 1) == row["per_device_wh"] == 2.7

        row = self._row("imagenet", "centralized", "v100-imagenet")
        assert (row["power_w"], row["duration_s"]) == (304, 11500)
        wh = training_energy_centralized(304.0, 11500.0, 1.0)
        assert wh == pytest.approx(row["per_device_wh"], abs=1.0)  # 971 +- 1

        row = self._row("speechcommands", "centralized", "v100-speechcommands")
        assert (row["power_w"], row["duration_s"]) == (124, 312)
        wh = training_energy_centralized(124.0, 312.0, 1.0)
        assert wh == pytest.approx(row["per_device_wh"], abs=0.1)  # 10.7 +- .1

    def test_federated_per_device_energy(self):
        row = self._row("cifar10", "fedavg", "tx2-cifar10")
        assert (row["power_w"], row["duration_s"]) == (4.7, 998)
        hw = HW["hw:tx2-cifar10"]
        assert hw.active_power_w == 4.7
        schedule = RoundSchedule(
            rounds=1, participation=(ScheduleEntry(0, 0, 998.0, hw),))
        wh = training_energy_fl(schedule)
        assert wh == pytest.approx(1.30, abs=0.005)
        assert round(wh, 1) == row["per_device_wh"] == 1.3


# ---------------------------------------------------------------------------
# 3. Centralized emissions for the France and China grids, priced through
#    the full config pipeline at both datacenter efficiency scenarios.
#    Printed cells carry one decimal gram, so +-0.15 g absorbs their
#    display rounding; the large-run column prints whole grams, so those
#    four cells get +-1.0 g.  All twelve cells must price in under a second.
# ---------------------------------------------------------------------------

CENTRALIZED_EPOCHS = {"cifar10": 2, "imagenet": 8, "speechcommands": 6}

# (task, pue scenario, grid) -> (printed grams, tolerance)
PRINTED_EMISSIONS = {
    ("cifar10", "world-2019", "france"): (0.4, 0.15),
    ("cifar10", "google", "france"): (0.2, 0.15),
    ("cifar10", "world-2019", "china"): (4.4, 0.15),
    ("cifar10", "google", "china"): (2.9, 0.15),
    ("imagenet", "world-2019", "france"): (129.0, 1.0),
    ("imagenet", "google", "france"): (85.0, 1.0),
    ("imagenet", "world-2019", "china"): (1583.0, 1.0),
    ("imagenet", "google", "china"): (1052.0, 1.0),
    ("speechcommands", "world-2019", "france"): (1.4, 0.15),
    ("speechcommands", "google", "france"): (0.9, 0.15),
    ("speechcommands", "world-2019", "china"): (17.5, 0.15),
    ("speechcommands", "google", "china"): (11.6, 0.15),
}


class TestCentralizedEmissionsTable:
    def test_twelve_cells_within_rounding_in_under_a_second(self):
        assert len(PRINTED_EMISSIONS) == 12
        t0 = time.perf_counter()
        for (task, pue, grid), (printed, tol) in PRINTED_EMISSIONS.items():
            cfg = config_from_dict({
                "mode": "centralized",
                "hardware": f"v100-{task}",
                "grid": grid,
                "pue": pue,
                "epochs": CENTRALIZED_EPOCHS[task],
                "seed": 0,
            })
            report = estimate_centralized(cfg)
            assert report.co2e_g == pytest.approx(printed, abs=tol), (
                f"{task}/{pue}/{grid}: {report.co2e_g} vs printed {printed}")
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"12-cell sweep took {elapsed:.3f} s"


# ---------------------------------------------------------------------------
# 4. Grid-results table: every printed carbon cost must equal CO2e divided
#    by accuracy within 0.5% relative (printed costs carry two decimals),
#    and the search over the table must pick each block's bold winner and
#    the overall winner.
# ---------------------------------------------------------------------------

class TestGridTableCosts:
    def test_every_printed_cost_is_co2_over_accuracy(self):
        table = load_fixture("cifar10_grid_results.json")
        tacc = table["target_accuracy"]
        checked = 0
        for block in table["blocks"]:
            for row in block["rows"]:
                if row["target"] is not None:
                    got = carbon_cost(row["target"]["co2_g"], tacc)
                    assert got == pytest.approx(
                        row["target"]["carbon_cost"], rel=5e-3)
                    checked += 1
                stable = row["stable"]
                got = carbon_cost(stable["co2_g"], stable["accuracy"])
                assert got == pytest.approx(stable["carbon_cost"], rel=5e-3)
                checked += 1
        assert checked >= 40  # 4 blocks x 10 rows, some with both points

    def test_search_selects_each_block_winner(self):
        table = load_fixture("cifar10_grid_results.json")
        tacc = table["target_accuracy"]
        cells = [(row["clients"], block["local_epochs"], block["alpha"])
                 for block in table["blocks"] for row in block["rows"]]
        ranked = grid_search(cells, make_table_runner(table), tacc)

        winners = {}  # (alpha, local_epochs) -> best-ranked cell of the block
        for cell in ranked:
            key = (cell.partition_alpha, cell.local_epochs)
            if key not in winners and cell.reached_target:
                winners[key] = cell

        expected = {  # printed bold cells: (clients, cost)
            (1000.0, 5): (1, 9.11),
            (1000.0, 1): (1, 3.65),
            (0.1, 5): (2, 20.83),
            (0.1, 1): (1, 32.55),
        }
        for key, (clients, cost) in expected.items():
            cell = winners[key]
            assert cell.clients_per_round == clients
            assert cell.at_target.carbon_cost == pytest.approx(cost, rel=5e-3)

        overall = ranked[0]
        assert (overall.clients_per_round, overall.local_epochs,
                overall.partition_alpha) == (1, 1, 1000.0)
        assert overall.at_target.carbon_cost == pytest.approx(3.65, rel=5e-3)


# ---------------------------------------------------------------------------
# 5. Dirichlet sampler moments: 10^4 draws at alpha=1000 over a uniform
#    10-class prior.  Dir(alpha*p) has mean p_i and variance
#    p_i(1-p_i)/(alpha+1); the bounds below sit ~20 standard errors out,
#    so a pass is evidence about the sampler, not luck.
# ---------------------------------------------------------------------------

class TestDirichletMoments:
    def test_sample_moments_match_analytic_moments(self):
        t0 = time.perf_counter()
        part = lda_partition(uniform_prior(10), 1000.0,
                             num_clients=10_000, samples_per_client=1, seed=0)
        rows = part.per_client
        mean_dev = np.abs(rows.mean(axis=0) - 0.1).max()
        analytic_var = 0.1 * 0.9 / 1001.0
        var_dev = np.abs(rows.var(axis=0, ddof=1) - analytic_var).max()
        elapsed = time.perf_counter() - t0
        assert mean_dev < 0.002, f"worst |mean - 0.1| = {mean_dev}"
        assert var_dev < 0.1 * analytic_var, f"worst var deviation = {var_dev}"
        assert elapsed < 5.0, f"10^4 draws took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 6. Degeneracy: a one-client, full-participation federated run consumes
#    the same batch stream as plain SGD, so 20 rounds of 2 local epochs
#    must equal 20 periods of 2 epochs bit for bit.  Averaging two equal-
#    sized identical updates halves and re-adds exactly in binary floating
#    point, so aggregation must return w + delta with no rounding at all.
# ---------------------------------------------------------------------------

class TestSingleClientDegeneracy:
    def test_one_client_fl_is_plain_sgd_bit_for_bit(self):
        task = make_task(3, 4, 600, seed=11, separation=1.2)
        partition = lda_partition(uniform_prior(3), 1000.0, num_clients=1,
                                  samples_per_client=len(task.train_idx),
                                  seed=11)
        cfg = config_from_dict({
            "mode": "fl", "hardware": "tx2-nominal", "grid": "france", "seed": 11,
            "fl": {"pool_size": 1, "clients_per_round": 1, "rounds": 20,
                   "local_epochs": 2},
            "sim": {"classes": 3, "features": 4, "n_samples": 600, "separation": 1.2,
                    "samples_per_client": len(task.train_idx), "target_accuracy": 1.0},
        }, HW)
        trace, _, w_fl = simulate(cfg, task, partition)
        w_sgd, acc_sgd = centralized_sgd(task, periods=20, epochs_per_period=2,
                                         lr=DEFAULT_CLIENT_LR, batch_size=32,
                                         seed=11)
        assert trace.rounds == 20
        assert np.array_equal(w_fl, w_sgd)
        assert trace.accuracies == acc_sgd

    def test_identical_deltas_aggregate_to_w_plus_delta_exactly(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(15)
        delta = rng.standard_normal(15)
        updated = fedavg_aggregate(w, [(delta, 37), (delta, 37)])
        assert np.array_equal(updated, w + delta)


# ---------------------------------------------------------------------------
# 7. Learning dynamics: near-uniform client mixes (alpha=1000) must reach
#    90% accuracy in no more rounds than concentrated mixes (alpha=0.1)
#    on at least 8 of 10 seeds, inside a minute.  100-client pool, 10
#    sampled per round.
# ---------------------------------------------------------------------------

class TestPartitionSkewSlowsLearning:
    def test_iid_reaches_target_no_later_than_noniid(self):
        t0 = time.perf_counter()
        wins = 0
        outcomes = []
        for seed in range(10):
            task = make_task(10, 12, 5000, seed=seed, separation=4.5)
            rounds = {}
            for label, alpha in (("iid", 1000.0), ("noniid", 0.1)):
                partition = lda_partition(uniform_prior(10), alpha,
                                          num_clients=100,
                                          samples_per_client=40, seed=seed)
                cfg = config_from_dict({
                    "mode": "fl", "hardware": "tx2-nominal", "grid": "france",
                    "seed": seed,
                    "fl": {"pool_size": 100, "clients_per_round": 10, "rounds": 60,
                           "local_epochs": 1},
                    "sim": {"classes": 10, "features": 12, "n_samples": 5000,
                            "separation": 4.5, "samples_per_client": 40,
                            "target_accuracy": 0.9, "alpha": alpha},
                }, HW)
                trace, _, _ = simulate(cfg, task, partition)
                rounds[label] = rounds_to_target(trace, 0.9)
            iid_r, non_r = rounds["iid"], rounds["noniid"]
            if iid_r is not None and (non_r is None or iid_r <= non_r):
                wins += 1
            outcomes.append((iid_r, non_r))
        elapsed = time.perf_counter() - t0
        assert wins >= 8, f"IID won only {wins}/10: {outcomes}"
        assert elapsed < 60.0, f"10-seed comparison took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 8. Gradient correctness: analytic gradients against central finite
#    differences on 100 random instances, alternating the plain softmax
#    head and the one-hidden-layer variant.
# ---------------------------------------------------------------------------

class TestGradientsMatchFiniteDifferences:
    def test_hundred_random_instances_within_1e5_relative(self):
        worst = 0.0
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            classes = int(rng.integers(2, 5))
            features = int(rng.integers(2, 6))
            hidden = 0 if i % 2 == 0 else int(rng.integers(1, 4))
            spec = ModelSpec(classes, features, hidden)
            w = rng.standard_normal(spec.dim)
            batch = int(rng.integers(3, 9))
            x = rng.standard_normal((batch, features))
            y = rng.integers(0, classes, size=batch)
            _, grad = spec.loss_and_grad(w, x, y)

            step = 1e-6
            fd = np.zeros_like(w)
            for j in range(w.size):
                basis = np.zeros_like(w)
                basis[j] = step
                up, _ = spec.loss_and_grad(w + basis, x, y)
                down, _ = spec.loss_and_grad(w - basis, x, y)
                fd[j] = (up - down) / (2 * step)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
            assert rel <= 1e-5, f"instance {i}: relative error {rel}"
        assert worst > 0.0  # finite differences always carry some noise


# ---------------------------------------------------------------------------
# 9. Property suites, >= 1000 cases each: energy linearity, simplex
#    closure, seeded determinism, the Pareto front against a brute-force
#    domination oracle, and emission-report self-consistency.
# ---------------------------------------------------------------------------

_PROPERTY = settings(max_examples=1000, deadline=None)


def _flat_profile(power_w: float) -> HardwareProfile:
    return HardwareProfile(name="flat", active_power_w=power_w,
                           idle_power_w=0.0, time_per_local_epoch_s=1.0)


class TestEnergyLinearity:
    @_PROPERTY
    @given(power=st.floats(0.5, 500.0),
           duration=st.floats(0.1, 10_000.0),
           pue=st.floats(1.0, 2.5),
           times=st.lists(st.floats(0.01, 5000.0), min_size=2, max_size=6))
    def test_scaling_and_additivity(self, power, duration, pue, times):
        base = training_energy_centralized(power, duration, pue)
        assert training_energy_centralized(2 * power, duration, pue) == 2 * base
        assert training_energy_centralized(power, 2 * duration, pue) == 2 * base

        hw = _flat_profile(power)
        entries = tuple(ScheduleEntry(0, c, t, hw) for c, t in enumerate(times))
        doubled = tuple(ScheduleEntry(0, c, 2 * t, hw)
                        for c, t in enumerate(times))
        one = RoundSchedule(rounds=1, participation=entries)
        two = RoundSchedule(rounds=1, participation=doubled)
        assert training_energy_fl(two) == 2 * training_energy_fl(one)

        cut = len(times) // 2
        head = RoundSchedule(rounds=1, participation=entries[:cut] or entries[:1])
        tail = RoundSchedule(rounds=1, participation=entries[cut:] or entries[:1])
        if cut:  # split is a true partition of the entries
            assert training_energy_fl(one) == pytest.approx(
                training_energy_fl(head) + training_energy_fl(tail), rel=1e-12)


class TestSimplexClosure:
    @_PROPERTY
    @given(alpha=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_draws_are_probability_vectors(self, alpha, seed):
        q = sample_dirichlet(alpha, np.random.default_rng(seed))
        assert q.shape == (len(alpha),)
        assert np.all(q >= 0.0)
        assert abs(q.sum() - 1.0) <= 1e-9


class TestSeededDeterminism:
    @_PROPERTY
    @given(alpha=st.floats(0.01, 1000.0),
           clients=st.integers(1, 8),
           classes=st.integers(2, 6),
           pool=st.integers(1, 20),
           sampled=st.integers(1, 20),
           round_index=st.integers(0, 50),
           seed=st.integers(0, 2**31 - 1))
    def test_same_seed_same_bits(self, alpha, clients, classes, pool,
                                 sampled, round_index, seed):
        first = lda_partition(uniform_prior(classes), alpha, clients,
                              samples_per_client=5, seed=seed)
        second = lda_partition(uniform_prior(classes), alpha, clients,
                               samples_per_client=5, seed=seed)
        assert np.array_equal(first.per_client, second.per_client)

        k = min(sampled, pool)
        chosen = select_clients(pool, k, round_index, seed)
        again = select_clients(pool, k, round_index, seed)
        assert np.array_equal(chosen, again)


class TestParetoOracle:
    @_PROPERTY
    @given(raw=st.lists(st.tuples(st.floats(0.1, 1000.0),
                                  st.floats(0.01, 1.0)),
                        min_size=0, max_size=12))
    def test_front_matches_brute_force_domination(self, raw):
        points = [CostPoint(clients_per_round=1, local_epochs=1,
                            partition_alpha=1.0, rounds=1, co2e_g=co2,
                            accuracy=acc, carbon_cost=co2 / acc)
                  for co2, acc in raw]
        expected = []
        for i, p in enumerate(points):
            dominated = any(
                q.co2e_g <= p.co2e_g and q.accuracy >= p.accuracy
                and (q.co2e_g < p.co2e_g or q.accuracy > p.accuracy)
                for j, q in enumerate(points) if j != i)
            if not dominated:
                expected.append(p)
        assert pareto_front(points) == expected


class TestReportSelfConsistency:
    @_PROPERTY
    @given(rounds=st.integers(1, 4),
           clients=st.integers(1, 3),
           extra_pool=st.integers(0, 3),
           wall=st.floats(0.5, 500.0),
           payload_mb=st.floats(0.0, 20.0),
           seed=st.integers(0, 10_000))
    def test_report_totals_fraction_rate_and_digest(self, rounds, clients,
                                                    extra_pool, wall,
                                                    payload_mb, seed):
        cfg = config_from_dict({
            "mode": "fl",
            "hardware": "tx2-nominal",
            "grid": "china",
            "seed": seed,
            "fl": {
                "pool_size": clients + extra_pool,
                "clients_per_round": clients,
                "rounds": rounds,
                "local_epochs": 1,
                "model_size_mb": payload_mb,
                "wan_model": "legacy-5kwh-per-gb",
            },
        })
        schedule = RoundSchedule.uniform(rounds, clients, wall,
                                         HW["hw:tx2-nominal"])
        report = estimate_fl(cfg, schedule)
        d = report.to_json_dict()

        assert d["total_wh"] == pytest.approx(
            d["training_wh"] + d["communication_wh"], rel=1e-12)
        if d["total_wh"] > 0:
            assert d["comm_fraction"] == pytest.approx(
                d["communication_wh"] / d["total_wh"], rel=1e-12)
        else:
            assert d["comm_fraction"] == 0.0
        assert d["co2e_g"] == pytest.approx(
            d["total_wh"] * d["c_rate"], rel=1e-12)
        assert len(d["config_digest"]) == 12
        assert all(ch in "0123456789abcdef" for ch in d["config_digest"])
        assert set(d) == {"training_wh", "communication_wh", "total_wh",
                          "comm_fraction", "co2e_g", "grid_region", "c_rate",
                          "mode", "config_digest"}
