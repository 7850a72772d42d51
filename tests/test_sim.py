"""Synthetic task, local SGD, aggregation rules, and the round loop."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedcarbon.sim as sim
from fedcarbon import (
    AccuracyTrace,
    AdamState,
    ConfigError,
    ExperimentConfig,
    FlSetup,
    ModelSpec,
    SimSetup,
    build_federation,
    builtin_registry,
    centralized_sgd,
    config_from_dict,
    derived_rng,
    fedadam_aggregate,
    fedavg_aggregate,
    lda_partition,
    make_task,
    rounds_to_target,
    run_experiment,
    select_clients,
    simulate,
    train_local,
    uniform_prior,
    weighted_delta,
)

from conftest import REPO_ROOT
from cpu_class import cpu_class, weight_class

HW = builtin_registry()["hw:tx2-cifar10"]
FRANCE = builtin_registry()["grid:france"]


def finite_difference_grad(spec: ModelSpec, w: np.ndarray, x: np.ndarray,
                           y: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        lp, _ = spec.loss_and_grad(wp, x, y)
        lm, _ = spec.loss_and_grad(wm, x, y)
        grad[i] = (lp - lm) / (2 * h)
    return grad


class TestMakeTask:
    def test_shapes_split_and_balance(self):
        ds = make_task(4, 6, 200, seed=0)
        assert ds.features.shape == (200, 6)
        assert ds.labels.shape == (200,)
        assert len(ds.train_idx) == 160 and len(ds.test_idx) == 40
        assert np.intersect1d(ds.train_idx, ds.test_idx).size == 0
        assert np.array_equal(ds.train_idx, np.sort(ds.train_idx))
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_same_seed_reproduces_bitwise(self):
        a = make_task(3, 5, 100, seed=9)
        b = make_task(3, 5, 100, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_class_means_sit_separation_apart(self):
        ds = make_task(3, 8, 3000, seed=1, separation=5.0)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(means[i] - means[j])
                # empirical means of ~1000 unit-variance points wobble
                assert abs(d - 5.0) < 0.25

    def test_well_separated_task_trains_past_095(self):
        # Two classes 4 sigma apart: Bayes accuracy is Phi(2) = 0.977,
        # so plain SGD should clear 0.95 on the test split.
        ds = make_task(2, 4, 500, seed=2, separation=4.0)
        _, accs = centralized_sgd(ds, periods=5, epochs_per_period=1,
                                  lr=10.0 ** -1.5, batch_size=32, seed=2)
        assert max(accs) >= 0.95

    def test_arrays_are_read_only(self):
        ds = make_task(2, 3, 50, seed=3)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    # sha256 of the features, recorded before the task was drawn in place:
    # 20 011 rows cross several row blocks and end on a partial one, with
    # the means on coordinate axes (12 features) and on random directions
    # (4 features).
    @pytest.mark.parametrize("num_features, digest", [
        (12, "0828a1a9c5e9c47b9d8fa74b4713ca9f46997568bb4aa0cbb0f8d9aad4b5601c"),
        (4, "b0f86a8b8fd57caa7f5193243baf5a16ae8622b145638cb4f247aa2c721eac7b"),
    ])
    def test_features_reproduce_pinned_bits(self, num_features, digest):
        ds = make_task(10, num_features, 20_011, seed=5)
        assert hashlib.sha256(ds.features.tobytes()).hexdigest() == digest

    def test_features_are_drawn_in_place(self):
        tracemalloc.start()
        try:
            ds = make_task(10, 12, 200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ds.features.nbytes

    def test_validation(self):
        with pytest.raises(ValueError, match="num_classes"):
            make_task(1, 3, 100, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            make_task(2, 3, 5, seed=0)
        with pytest.raises(ValueError, match="separation"):
            make_task(2, 3, 100, seed=0, separation=0.0)


def list_path_rng(*keys) -> np.random.Generator:
    """derived_rng as it was: the keys as a list into SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


_SEED_KEYS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]),
    st.integers(0, 2**70),
    st.booleans(),
    st.builds(lambda v, t: t(v), st.integers(0, 2**32 - 1),
              st.sampled_from([np.uint32, np.int64, np.uint64])),
    st.integers(0, 2**64 - 1).map(np.uint64),
)


class TestDerivedRng:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SEED_KEYS, min_size=1, max_size=6))
    def test_state_equals_the_list_path(self, keys):
        assert derived_rng(*keys).bit_generator.state == \
            list_path_rng(*keys).bit_generator.state

    def test_no_keys_takes_the_list_path(self):
        assert derived_rng().bit_generator.state == list_path_rng().bit_generator.state

    @pytest.mark.parametrize("keys, error", [((7, -1), ValueError), ((7, 1.5), TypeError)],
                             ids=["negative", "float"])
    def test_bad_keys_raise_what_the_list_path_raises(self, keys, error):
        with pytest.raises(error):
            list_path_rng(*keys)
        with pytest.raises(error):
            derived_rng(*keys)


_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


class TestPcg64Starts:
    """_pcg64_starts restates numpy's SeedSequence and PCG64 seeding; these
    check it against numpy itself."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_WORD, _WORD, _WORD, _WORD), min_size=1, max_size=8))
    def test_starts_equal_derived_rng_states(self, keys):
        starts = sim._pcg64_starts(np.array(keys, np.uint32))
        for key, (state, inc) in zip(keys, starts, strict=True):
            assert derived_rng(*key).bit_generator.state == {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}

    def test_edge_words(self):
        keys = [(0, 0, 0, 0), (2**32 - 1,) * 4, (2**32 - 1, 15, 2**32 - 1, 2**32 - 1),
                (61, 15, 0, 9999)]
        starts = sim._pcg64_starts(np.array(keys, np.uint32))
        assert [derived_rng(*key).bit_generator.state["state"] for key in keys] == \
            [{"state": state, "inc": inc} for state, inc in starts]

    def test_no_keys_give_no_starts(self):
        assert sim._pcg64_starts(np.empty((0, 4), np.uint32)) == []


class TestModelSpec:
    def test_dim_formula(self):
        assert ModelSpec(3, 4).dim == 3 * 5
        assert ModelSpec(3, 4, hidden_units=7).dim == 7 * 5 + 3 * 8

    def test_softmax_init_is_zero(self):
        spec = ModelSpec(3, 4)
        w = spec.init_params(derived_rng(0, 13))
        assert np.array_equal(w, np.zeros(spec.dim))

    def test_hidden_init_is_deterministic_and_nonzero(self):
        spec = ModelSpec(3, 4, hidden_units=5)
        a = spec.init_params(derived_rng(1, 13))
        b = spec.init_params(derived_rng(1, 13))
        assert np.array_equal(a, b)
        assert np.any(a != 0)

    def test_zero_weights_give_log_m_loss(self):
        # uniform probabilities: -log(1/m) = log m
        spec = ModelSpec(5, 3)
        x = np.random.default_rng(0).standard_normal((12, 3))
        y = np.arange(12) % 5
        loss, _ = spec.loss_and_grad(np.zeros(spec.dim), x, y)
        assert loss == pytest.approx(math.log(5), rel=1e-12)

    def test_gradient_matches_finite_differences_softmax(self):
        spec = ModelSpec(3, 4)
        rng = np.random.default_rng(4)
        w = 0.5 * rng.standard_normal(spec.dim)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        _, g = spec.loss_and_grad(w, x, y)
        fd = finite_difference_grad(spec, w, x, y)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6

    def test_gradient_matches_finite_differences_hidden(self):
        spec = ModelSpec(3, 4, hidden_units=5)
        rng = np.random.default_rng(5)
        w = 0.5 * rng.standard_normal(spec.dim)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        _, g = spec.loss_and_grad(w, x, y)
        fd = finite_difference_grad(spec, w, x, y)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6

    def test_accuracy_on_handcrafted_weights(self):
        # one feature, two classes; class 1 wins iff x > 0
        spec = ModelSpec(2, 1)
        w = np.array([0.0, 0.0, 1.0, 0.0])  # rows: class 0 = (0,0), class 1 = (1,0)
        x = np.array([[-2.0], [3.0], [0.5]])
        assert spec.accuracy(w, x, np.array([0, 1, 1])) == 1.0

    @pytest.mark.parametrize("rows, labels, message", [
        (0, (0,), "accuracy needs at least one row"),
        (3, (1,), r"labels have shape \(1,\), but the inputs have 3 rows"),
        (3, (), r"labels have shape \(\), but the inputs have 3 rows"),
        (3, (3, 1), r"labels have shape \(3, 1\), but the inputs have 3 rows"),
        (0, (1,), r"labels have shape \(1,\), but the inputs have 0 rows"),
    ])
    def test_accuracy_rejects_labels_that_are_not_one_per_row(self, monkeypatch, rows,
                                                             labels, message):
        # Zero rows once gave nan with a RuntimeWarning, and a single label
        # broadcast against every prediction.  Both fail before predicting.
        spec = ModelSpec(2, 1)
        x, y = np.zeros((rows, 1)), np.zeros(labels, dtype=np.int64)

        def refuse(*args):
            raise AssertionError("predicted before checking the labels")

        monkeypatch.setattr(ModelSpec, "_logits", refuse)
        for accuracy, inputs in ((spec.accuracy, x), (spec._accuracy, sim._with_bias(x))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                accuracy(np.zeros(spec.dim), inputs, y)

    def test_wrong_parameter_shape_rejected(self):
        spec = ModelSpec(2, 2)
        with pytest.raises(ValueError, match="shape"):
            spec.loss_and_grad(np.zeros(5), np.zeros((1, 2)), np.array([0]))

    def test_empty_batch_rejected(self):
        spec = ModelSpec(2, 2)
        with pytest.raises(ValueError, match="non-empty"):
            spec.loss_and_grad(np.zeros(spec.dim), np.zeros((0, 2)), np.array([], dtype=int))


# Run in a child process with one BLAS thread, the only setting in which
# _accuracy splits its rows (see sim._eval_cpus).  It prints one line per
# case: the parts' logits against the whole product, and the accuracy (or
# the simulate run) against the same one forced to one CPU.
SPLIT_CHILD = """
import numpy as np
import fedcarbon.sim as sim
from fedcarbon import (ExperimentConfig, FlSetup, SimSetup, builtin_registry,
                       lda_partition, make_task, simulate, uniform_prior)

def force(cpus):
    sim._eval_cpus = lambda: cpus

rng = np.random.default_rng(26)
for n in (8191, 8192, 20483, 40000, 40001):
    for hidden in (0, 8):
        spec = sim.ModelSpec(10, 12, hidden)
        w = rng.standard_normal(spec.dim)
        xb = sim._with_bias(rng.standard_normal((n, 12)))
        y = rng.integers(0, 10, n)
        layers = spec._unpack(spec._stack(w))
        whole = spec._logits(layers, xb[np.newaxis])[0].tobytes()
        force(1)
        one = spec._accuracy(w, xb, y)
        for cpus in (1, 2, 4):
            force(cpus)
            parts = sim._eval_parts(n)
            logits = np.full((1, n, 10), np.nan)
            for rows in parts:
                spec._hits(layers, xb[rows], y[rows], logits[:, rows])
            print("logits", n, hidden, cpus, len(parts), logits.tobytes() == whole,
                  spec._accuracy(w, xb, y) == one)

registry = builtin_registry()
ds = make_task(4, 6, 50_000, seed=21, separation=3.5)
part = lda_partition(uniform_prior(4), 1000.0, 12, 40, np.random.SeedSequence([21, 11]))
for hidden in (0, 8):
    cfg = ExperimentConfig(
        mode="fl", hardware=registry["hw:tx2-cifar10"], grids=(registry["grid:france"],),
        seed=21, fl=FlSetup(pool_size=12, clients_per_round=4, rounds=3, local_epochs=2),
        sim=SimSetup(classes=4, features=6, n_samples=50_000, separation=3.5,
                     samples_per_client=40, hidden_units=hidden, target_accuracy=1.0))
    runs = []
    for cpus in (1, 2, 4):
        force(cpus)
        trace, _, w = simulate(cfg, ds, part)
        runs.append((trace.accuracies, w.tobytes()))
    print("simulate", hidden, len(ds.test_idx), len(runs[0][0]),
          all(run == runs[0] for run in runs))
"""


@pytest.fixture(scope="module")
def split_child() -> dict[tuple, list[str]]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SPLIT_CHILD], capture_output=True,
                          text=True, timeout=300, env=env, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    cases = {}
    for line in proc.stdout.splitlines():
        kind, *fields = line.split()
        if kind == "logits":
            cases[(kind, *map(int, fields[:3]))] = fields[3:]
        else:
            cases[(kind, int(fields[0]))] = fields[1:]
    return cases


def huge_rows(n: int, first_huge: int) -> np.ndarray:
    """Bias-augmented rows: zeros before row first_huge, 1e308 from it on,
    so with weights of 10 only those rows' logits overflow."""
    x = np.zeros((n, 3))
    x[first_huge:] = 1e308
    return sim._with_bias(x)


class TestSplitEvaluation:
    """Test sets of two or more 4096-row blocks are evaluated in parts, one
    thread each, with the bits of one whole evaluation."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def force(count: int) -> None:
            monkeypatch.setattr(sim, "_eval_cpus", lambda: count)
        return force

    @pytest.mark.parametrize("n", [1, 4095, 8191, 8192, 12287, 12288, 40000, 40001,
                                   1_000_007])
    def test_split_parts_are_whole_blocks(self, cpus, n):
        for count in range(1, 10):
            cpus(count)
            parts = sim._eval_parts(n)
            assert parts[0].start == 0 and parts[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
            if n < 8192 or count == 1:
                assert parts == [slice(0, n)]
                continue
            assert len(parts) == min(count, n // 4096)
            assert all(p.start % 4096 == 0 for p in parts)
            blocks = [-(-(p.stop - p.start) // 4096) for p in parts]
            assert max(blocks) - min(blocks) <= 1

    @pytest.mark.parametrize("env, split", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": " 1 "}, True),
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, True),
    ])
    def test_split_needs_one_blas_thread(self, monkeypatch, env, split):
        # Variables are read as OpenBLAS reads them: the first positive
        # count wins, and with none it runs one thread per CPU.
        for var in sim._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert sim._eval_cpus() == (3 if split else 1)

    def test_split_counts_in_threads_that_end_with_the_call(self, cpus, monkeypatch):
        spec = ModelSpec(3, 2)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(spec.dim)
        xb = sim._with_bias(rng.standard_normal((40_001, 2)))
        y = rng.integers(0, 3, 40_001)
        cpus(1)
        one = spec._accuracy(w, xb, y)
        counted = []
        hits = ModelSpec._hits

        def record(self, layers, xb, y, out=None):
            counted.append((threading.current_thread(), len(xb)))
            return hits(self, layers, xb, y, out)

        monkeypatch.setattr(ModelSpec, "_hits", record)
        before = threading.enumerate()
        cpus(4)
        assert spec._accuracy(w, xb, y) == one
        assert threading.enumerate() == before
        # Parts of 2, 3, 2 and 2 blocks (the last 3137 rows short), the
        # first counted in the calling thread and each other in its own.
        rows_by_thread = dict(counted)
        assert len(rows_by_thread) == len(counted) == 4
        assert rows_by_thread[threading.current_thread()] == 8192
        assert sorted(rows_by_thread.values()) == [8192, 8192, 11329, 12288]

    def test_split_stress_with_more_threads_than_cpus(self, cpus):
        spec = ModelSpec(10, 12)
        rng = np.random.default_rng(9)
        w = rng.standard_normal(spec.dim)
        xb = sim._with_bias(rng.standard_normal((40_001, 12)))
        y = rng.integers(0, 10, 40_001)
        cpus(1)
        one = spec._accuracy(w, xb, y)
        cpus(16)  # 9 parts, one per whole block
        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert spec._accuracy(w, xb, y) == one
        finally:
            sys.setswitchinterval(interval)
        assert threading.enumerate() == before

    def test_split_small_inputs_start_no_thread(self, cpus, monkeypatch):
        def refuse(*args):
            raise AssertionError("split an input of fewer than two blocks")

        monkeypatch.setattr(sim, "_in_threads", refuse)
        cpus(4)
        spec = ModelSpec(2, 3)
        assert spec._accuracy(np.zeros(spec.dim), huge_rows(8191, 0),
                              np.zeros(8191, dtype=np.int64)) == 1.0

    @pytest.mark.parametrize("hidden_units", [0, 8])
    def test_split_helper_runs_under_the_callers_error_state(self, cpus, monkeypatch,
                                                             hidden_units):
        # Only the rows of the helper's part overflow.  Without the
        # caller's error state the helper warns, and -W error makes that
        # an exception the test would see.
        spec = ModelSpec(2, 3, hidden_units)
        w = np.full(spec.dim, 10.0)
        xb, y = huge_rows(8192, 4096), np.zeros(8192, dtype=np.int64)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        before = threading.enumerate()
        cpus(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                assert spec._accuracy(w, xb, y) == 1.0
            with np.errstate(all="raise"), pytest.raises(FloatingPointError,
                                                         match="overflow"):
                spec._accuracy(w, xb, y)
        assert hooked == []
        assert threading.enumerate() == before

    def test_split_helper_exception_is_raised_in_the_caller(self, cpus, monkeypatch):
        def fail_past_row_0(self, layers, xb, y, out=None):
            if len(xb) != 4096:
                raise RuntimeError(f"part of {len(xb)} rows failed")
            return 0

        monkeypatch.setattr(ModelSpec, "_hits", fail_past_row_0)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        before = threading.enumerate()
        cpus(2)
        spec = ModelSpec(2, 3)
        with pytest.raises(RuntimeError, match="^part of 4097 rows failed$"):
            spec._accuracy(np.zeros(spec.dim), huge_rows(8193, 0),
                           np.zeros(8193, dtype=np.int64))
        assert hooked == []
        assert threading.enumerate() == before

    @pytest.mark.parametrize("n", [8191, 8192, 20483, 40000, 40001])
    @pytest.mark.parametrize("hidden_units", [0, 8])
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_split_logits_equal_the_whole_product(self, split_child, n, hidden_units,
                                                  count):
        parts, logits_equal, accuracy_equal = split_child[("logits", n, hidden_units,
                                                           count)]
        assert int(parts) == (1 if n < 8192 else min(count, n // 4096))
        assert logits_equal == "True"
        assert accuracy_equal == "True"

    @pytest.mark.parametrize("hidden_units", [0, 8])
    def test_split_simulate_equals_one_cpu(self, split_child, hidden_units):
        test_rows, rounds, equal = split_child[("simulate", hidden_units)]
        assert int(test_rows) >= 8192 and int(rounds) == 3
        assert equal == "True"


def sgd_alone(w: np.ndarray, x: np.ndarray, y: np.ndarray, spec: ModelSpec,
              epochs: int, lr: float, batch_size: int,
              rng: np.random.Generator) -> np.ndarray:
    """One client's local SGD as train_local runs it without a cohort: its
    batch orders from sim._draw_orders, then sim._sgd on a stack of one."""
    orders = sim._draw_orders(rng, len(y), epochs)
    return sim._sgd(spec, w, sim._with_bias(x)[np.newaxis], y[np.newaxis],
                    orders[np.newaxis], lr, batch_size)[0]


class TestSgdAndLocalTraining:
    def test_single_full_batch_step_is_one_gradient_step(self):
        spec = ModelSpec(3, 2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2))
        y = rng.integers(0, 3, size=8)
        w = rng.standard_normal(spec.dim)
        lr = 0.05
        stepped = sgd_alone(w, x, y, spec, epochs=1, lr=lr, batch_size=8,
                            rng=np.random.default_rng(0))
        _, g = spec.loss_and_grad(w, x, y)
        assert np.allclose(stepped, w - lr * g, rtol=0, atol=0)

    def test_input_weights_not_mutated(self):
        spec = ModelSpec(2, 2)
        x = np.ones((4, 2))
        y = np.array([0, 1, 0, 1])
        w = np.zeros(spec.dim)
        sgd_alone(w, x, y, spec, epochs=2, lr=0.1, batch_size=2,
                  rng=np.random.default_rng(1))
        assert np.array_equal(w, np.zeros(spec.dim))

    def test_same_rng_stream_reproduces(self):
        spec = ModelSpec(3, 3)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 3))
        y = rng.integers(0, 3, size=20)
        w = rng.standard_normal(spec.dim)
        a = sgd_alone(w, x, y, spec, 3, 0.05, 7, derived_rng(5, 15, 0, 0))
        b = sgd_alone(w, x, y, spec, 3, 0.05, 7, derived_rng(5, 15, 0, 0))
        assert np.array_equal(a, b)

    def test_short_final_batch_is_trained(self):
        # 5 samples at batch 4: the 1-sample tail must still move w.
        spec = ModelSpec(2, 1)
        x = np.array([[1.0], [1.0], [1.0], [1.0], [-5.0]])
        y = np.array([1, 1, 1, 1, 0])
        w0 = np.zeros(spec.dim)
        out = sgd_alone(w0, x, y, spec, 1, 0.5, 4, np.random.default_rng(2))
        # with batch = n the run is one step; the two-batch run differs
        one_step = sgd_alone(w0, x, y, spec, 1, 0.5, 5, np.random.default_rng(2))
        assert not np.array_equal(out, one_step)

    def test_train_local_returns_delta_and_count(self):
        ds = make_task(3, 4, 100, seed=8)
        spec = ModelSpec(3, 4)
        shard = ds.train_idx[:30]
        w = np.zeros(spec.dim)
        delta, n_k = train_local(w, ds, shard, spec, epochs=1, lr=0.05,
                                 batch_size=10, rng=derived_rng(8, 15, 0, 0))
        assert n_k == 30
        trained = sgd_alone(w, ds.features[shard], ds.labels[shard], spec,
                            1, 0.05, 10, derived_rng(8, 15, 0, 0))
        assert np.array_equal(delta, trained - w)

    def test_train_local_rejects_empty_shard(self):
        ds = make_task(2, 2, 50, seed=9)
        with pytest.raises(ValueError, match="empty shard"):
            train_local(np.zeros(6), ds, np.array([], dtype=int), ModelSpec(2, 2),
                        1, 0.1, 4, derived_rng(0))

    @pytest.mark.parametrize("epochs, lr, batch_size, n, message", [
        (0, 0.1, 4, 5, "epochs must be >= 1"),
        (-1, 0.1, 4, 5, "epochs must be >= 1"),
        (1, 0.0, 4, 5, "lr must be finite and > 0"),
        (1, math.nan, 4, 5, "lr must be finite and > 0"),
        (1, math.inf, 4, 5, "lr must be finite and > 0"),
        (1, 0.1, 0, 5, "batch_size must be >= 1"),
        (1, 0.1, 4, 0, "cannot train on an empty shard"),
    ])
    def test_bad_sgd_arguments_rejected(self, epochs, lr, batch_size, n, message):
        ds = make_task(2, 2, 50, seed=9)
        spec = ModelSpec(2, 2)
        shard = ds.train_idx[:n]
        w = np.zeros(spec.dim)
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            sgd_alone(w, ds.features[shard], ds.labels[shard], spec, epochs, lr,
                      batch_size, derived_rng(0))
        with pytest.raises(ValueError, match=exact):
            train_local(w, ds, shard, spec, epochs, lr, batch_size, derived_rng(0))


class TestClientSelection:
    def test_deterministic_sorted_no_replacement(self):
        a = select_clients(100, 10, round_index=3, seed=7)
        b = select_clients(100, 10, round_index=3, seed=7)
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.sort(a))
        assert len(np.unique(a)) == 10
        assert a.min() >= 0 and a.max() < 100

    def test_rounds_draw_different_cohorts(self):
        a = select_clients(100, 10, round_index=0, seed=7)
        b = select_clients(100, 10, round_index=1, seed=7)
        assert not np.array_equal(a, b)

    def test_full_participation_is_everyone(self):
        assert list(select_clients(5, 5, 0, seed=0)) == [0, 1, 2, 3, 4]

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError, match="pool_size"):
            select_clients(4, 5, 0, seed=0)


class TestAggregation:
    def test_weighted_delta_oracle(self):
        # weights 1/4 and 3/4 over v and 0 -> v/4
        v = np.array([4.0, -8.0, 2.0])
        avg = weighted_delta([(v, 1), (np.zeros(3), 3)])
        assert np.array_equal(avg, v / 4)

    def test_fedavg_oracle(self):
        w = np.array([1.0, 1.0, 1.0])
        v = np.array([4.0, -8.0, 2.0])
        assert np.array_equal(fedavg_aggregate(w, [(v, 1), (np.zeros(3), 3)]),
                              w + v / 4)

    def test_identical_deltas_equal_counts_exact(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal(50)
        d = rng.standard_normal(50) * 0.37
        out = fedavg_aggregate(w, [(d, 13), (d, 13)])
        assert np.array_equal(out, w + d)

    def test_weighting_follows_sample_counts(self):
        d1 = np.array([1.0])
        d2 = np.array([0.0])
        avg = weighted_delta([(d1, 9), (d2, 1)])
        assert avg[0] == pytest.approx(0.9, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            weighted_delta([])
        with pytest.raises(ValueError, match="shape"):
            weighted_delta([(np.zeros(2), 1), (np.zeros(3), 1)])
        with pytest.raises(ValueError, match="count"):
            weighted_delta([(np.zeros(2), 0)])

    @pytest.mark.parametrize("count", [True, np.True_, 2.0])
    def test_a_bool_or_float_is_no_sample_count(self, count):
        with pytest.raises(ValueError, match="^every update needs a sample count >= 1$"):
            weighted_delta([(np.ones(2), count)])

    @pytest.mark.parametrize("updates", [
        [(np.array([0.3, -1.7, 2.0]), 7)],
        [(np.array([-0.0, 0.0, -0.0]), 1)],
        [(np.array([-0.0, 1.0]), 2), (np.array([-0.0, -1.0]), 3)],
        [(np.array([5e-324, -5e-324, 1e-310]), 3), (np.array([5e-324, 0.0, -1e-310]), 1)],
        [(np.array([1.0, 2.0]), np.int64(3)), (np.array([0.1, 0.7]), np.int32(5)),
         (np.array([1e308, -3.0]), np.uint8(1))],
        [(np.arange(6.0).reshape(2, 3) / 7, 4), (-np.ones((2, 3)) / 3, 9),
         (np.full((2, 3), 0.1), 2)],
    ], ids=["one-update", "negative-zero", "zero-sum", "subnormal", "numpy-counts", "2-d"])
    def test_weighted_delta_equals_the_left_to_right_loop(self, updates):
        assert weighted_delta(updates).tobytes() == reference_weighted_delta(updates).tobytes()

    @pytest.mark.parametrize("shape", [(1,), (37,), (3, 4)])
    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    def test_random_weighted_delta_equals_the_left_to_right_loop(self, k, shape):
        # One-entry deltas catch a pairwise sum over the updates.
        rng = np.random.default_rng([k, *shape])
        updates = [(rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape),
                    int(rng.integers(1, 1000))) for _ in range(k)]
        assert weighted_delta(updates).tobytes() == reference_weighted_delta(updates).tobytes()

    def test_fedadam_two_step_hand_unroll(self):
        lr, b1, b2, tau = 0.1, 0.9, 0.99, 0.001
        w = np.array([0.0])
        state = AdamState.zeros(1)

        d1 = np.array([2.0])
        w1, s1 = fedadam_aggregate(state, w, d1, lr, b1, b2, tau)
        m1 = 0.1 * 2.0                 # 0.2
        v1 = 0.01 * 4.0                # 0.04
        assert s1.m[0] == pytest.approx(m1, rel=1e-12)
        assert s1.v[0] == pytest.approx(v1, rel=1e-12)
        assert w1[0] == pytest.approx(lr * m1 / (math.sqrt(v1) + tau), rel=1e-12)

        d2 = np.array([-1.0])
        w2, s2 = fedadam_aggregate(s1, w1, d2, lr, b1, b2, tau)
        m2 = b1 * m1 + 0.1 * (-1.0)    # 0.08
        v2 = b2 * v1 + 0.01 * 1.0      # 0.0496
        assert s2.m[0] == pytest.approx(m2, rel=1e-12)
        assert s2.v[0] == pytest.approx(v2, rel=1e-12)
        assert w2[0] == pytest.approx(w1[0] + lr * m2 / (math.sqrt(v2) + tau),
                                      rel=1e-12)

    def test_fedadam_zero_betas_degenerates_to_signed_step(self):
        d = np.array([3.0, -0.5])
        w, _ = fedadam_aggregate(AdamState.zeros(2), np.zeros(2), d,
                                 server_lr=0.2, beta1=0.0, beta2=0.0, tau=0.001)
        expected = 0.2 * d / (np.abs(d) + 0.001)
        assert np.allclose(w, expected, rtol=1e-12)

    def test_fedadam_step_bound(self):
        rng = np.random.default_rng(11)
        state = AdamState(m=rng.standard_normal(20), v=np.abs(rng.standard_normal(20)))
        w = rng.standard_normal(20)
        d = rng.standard_normal(20)
        lr, tau = 0.1, 0.001
        w2, s2 = fedadam_aggregate(state, w, d, lr, 0.9, 0.99, tau)
        assert np.all(np.abs(w2 - w) <= lr * np.abs(s2.m) / tau + 1e-15)

    def test_fedadam_validation(self):
        with pytest.raises(ValueError, match="beta"):
            fedadam_aggregate(AdamState.zeros(1), np.zeros(1), np.zeros(1),
                              0.1, 1.0, 0.99, 0.001)
        with pytest.raises(ValueError, match="tau"):
            fedadam_aggregate(AdamState.zeros(1), np.zeros(1), np.zeros(1),
                              0.1, 0.9, 0.99, 0.0)


FL_FIELDS = {f.name for f in dataclasses.fields(FlSetup)}


def small_setup(alpha: float = 1000.0, seed: int = 21, **settings):
    """A 12-client run of 8 rounds on a 4-class task, its task and its
    partition.  settings overrides any 'fl' or 'sim' field."""
    ds = make_task(4, 6, 600, seed=21, separation=3.5)
    part = lda_partition(uniform_prior(4), alpha, 12, 40,
                         np.random.SeedSequence([21, 11]))
    fl = dict(pool_size=12, clients_per_round=4, rounds=8, local_epochs=2)
    run = dict(classes=4, features=6, n_samples=600, separation=3.5,
               samples_per_client=40, alpha=alpha, target_accuracy=1.0)
    for name, value in settings.items():
        (fl if name in FL_FIELDS else run)[name] = value
    cfg = ExperimentConfig(mode="fl", hardware=HW, grids=(FRANCE,), seed=seed,
                           fl=FlSetup(**fl), sim=SimSetup(**run))
    return cfg, ds, part


# (settings it is changed under, setting, new value): every setting of a
# run that simulate reads from the config.
RUN_SETTINGS = [
    ({}, "local_epochs", 1),
    ({}, "strategy", "fedadam"),
    ({}, "client_lr", 0.05),
    ({}, "batch_size", 7),
    ({}, "hidden_units", 3),
    ({}, "seed", 22),
    ({"strategy": "fedadam"}, "server_lr", 0.2),
    ({"strategy": "fedadam"}, "beta1", 0.8),
    ({"strategy": "fedadam"}, "beta2", 0.95),
    ({"strategy": "fedadam"}, "tau", 0.01),
    ({}, "rounds", 2),
    ({}, "target_accuracy", 0.0),
]


class TestSimulateLoop:
    @pytest.mark.parametrize("under, name, value", RUN_SETTINGS,
                             ids=[name for _, name, _ in RUN_SETTINGS])
    def test_every_run_setting_reaches_simulate(self, under, name, value):
        cfg, ds, part = small_setup(**{"rounds": 3, **under})
        changed, _, _ = small_setup(**{"rounds": 3, **under, name: value})
        # One assignment for both runs, so a seed shows through its draws.
        _, shards = sim._assign(ds, part, cfg.seed)
        trace, _, w = simulate(cfg, ds, part, shards=shards)
        changed_trace, _, changed_w = simulate(changed, ds, part, shards=shards)
        if name in ("rounds", "target_accuracy"):
            assert changed_trace.rounds != trace.rounds
        else:
            assert not np.array_equal(changed_w, w)

    def test_a_config_without_sim_is_not_simulated(self):
        cfg, ds, part = small_setup()
        with pytest.raises(ValueError, match=re.escape(
                "simulation needs a federated config with 'fl' and 'sim' objects")):
            simulate(dataclasses.replace(cfg, sim=None), ds, part)

    def test_trace_and_schedule_are_consistent(self):
        cfg, ds, part = small_setup()
        trace, schedule, _ = simulate(cfg, ds, part)
        assert trace.rounds == schedule.rounds == 8
        assert len(schedule.participation) == 8 * 4
        for e in schedule.participation:
            assert e.wall_time_s == 2 * HW.time_per_local_epoch_s
            assert e.hardware == HW
        for r in range(8):
            in_round = sorted(e.client_id for e in schedule.participation
                              if e.round_index == r)
            assert in_round == list(select_clients(12, 4, r, 21))

    def test_bitwise_deterministic(self):
        cfg, ds, part = small_setup()
        t1, s1, w1 = simulate(cfg, ds, part)
        t2, s2, w2 = simulate(cfg, ds, part)
        assert t1.accuracies == t2.accuracies
        assert s1 == s2
        assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("target, executed", [(1.0, 8), (0.0, 1)])
    def test_one_sgd_call_per_round_inside_its_first_client_call(self, monkeypatch,
                                                                  target, executed):
        # The tracer counts one train_local call per client, and the whole
        # round's training inside the first; lanes trained one by one would
        # call _sgd once per client.
        events = []
        real_sgd, real_train_local = sim._sgd, sim.train_local

        def recorded_sgd(spec, w, xb, y, *rest):
            events.append(("_sgd", len(y)))
            return real_sgd(spec, w, xb, y, *rest)

        def recorded_train_local(*args, **kwargs):
            events.append("train_local")
            result = real_train_local(*args, **kwargs)
            events.append("end")
            return result

        monkeypatch.setattr(sim, "_sgd", recorded_sgd)
        monkeypatch.setattr(sim, "train_local", recorded_train_local)
        cfg, ds, part = small_setup(target_accuracy=target)
        trace, _, _ = simulate(cfg, ds, part)
        assert trace.rounds == executed
        one_round = ["train_local", ("_sgd", 4), "end"] + ["train_local", "end"] * 3
        assert events == one_round * executed

    def test_zero_target_stops_after_first_round(self):
        cfg, ds, part = small_setup(target_accuracy=0.0)
        trace, schedule, _ = simulate(cfg, ds, part)
        assert trace.rounds == 1 and schedule.rounds == 1

    def test_zero_round_budget(self):
        cfg, ds, part = small_setup(rounds=0)
        trace, schedule, _ = simulate(cfg, ds, part)
        assert trace.accuracies == () and schedule.participation == ()

    def test_round_time_overflow_is_rejected(self):
        # 2 local epochs of 1e308 s each overflow to an infinite round time
        cfg, ds, part = small_setup(local_epochs=2)
        slow = dataclasses.replace(HW, time_per_local_epoch_s=1e308)
        with pytest.raises(ConfigError, match="^fl.local_epochs x hardware.time_per_local_epoch_s "
                                              "overflows the float range$"):
            simulate(dataclasses.replace(cfg, hardware=slow), ds, part)

    def test_strategies_diverge(self):
        cfg_avg, ds, part = small_setup(strategy="fedavg")
        cfg_adam, _, _ = small_setup(strategy="fedadam")
        t_avg, _, w_avg = simulate(cfg_avg, ds, part)
        t_adam, _, w_adam = simulate(cfg_adam, ds, part)
        assert not np.array_equal(w_avg, w_adam)

    def test_partition_must_cover_pool(self):
        cfg, ds, _ = small_setup()
        small_part = lda_partition(uniform_prior(4), 1000.0, 5, 40,
                                   np.random.SeedSequence([21, 11]))
        with pytest.raises(ValueError, match="partition covers 5 clients"):
            simulate(cfg, ds, small_part)

    def test_overflowing_parameters_stop_the_run(self):
        cfg, _, part = small_setup(rounds=3)
        huge = make_task(4, 6, 600, seed=21, separation=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "round 1: training diverged: the parameters are not finite")):
                simulate(cfg, huge, part)

    def test_overflowing_fedadam_moment_stops_the_run(self):
        # One step per client from zero: the deltas are finite but their
        # squares are not, so FedAdam's step is zero and only v shows it.
        cfg, _, part = small_setup(rounds=3, local_epochs=1, batch_size=40,
                                   strategy="fedadam")
        huge = make_task(4, 6, 600, seed=21, separation=1e170)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "round 1: training diverged: FedAdam's second moment is not finite")):
                simulate(cfg, huge, part)

    def test_partition_class_count_must_match(self):
        cfg, ds, _ = small_setup()
        wrong = lda_partition(uniform_prior(3), 1000.0, 12, 40,
                              np.random.SeedSequence([21, 11]))
        with pytest.raises(ValueError, match="class count"):
            simulate(cfg, ds, wrong)

    @pytest.mark.parametrize("field, value, message", [
        ("classes", 5, "sim.classes is 5, but the dataset's class count is 4"),
        ("features", 7, "sim.features is 7, but the dataset's feature count is 6"),
        ("samples_per_client", 39,
         "sim.samples_per_client is 39, but the partition's samples per client is 40"),
    ], ids=["classes", "features", "samples_per_client"])
    def test_the_sim_block_must_describe_the_task(self, field, value, message):
        cfg, ds, part = small_setup(**{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(cfg, ds, part)

    def test_the_shard_width_must_match_a_set_samples_per_client(self):
        cfg, ds, part = small_setup(rounds=2)
        _, shards = sim._assign(ds, part, cfg.seed)
        with pytest.raises(ValueError, match=re.escape(
                "sim.samples_per_client is 40, but the shard width is 39")):
            simulate(cfg, ds, part, shards=shards[:, :39])
        # Unset, it leaves the width to the partition: the run is the same.
        unset = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim,
                                                                 samples_per_client=None))
        t1, s1, w1 = simulate(cfg, ds, part, shards=shards)
        t2, s2, w2 = simulate(unset, ds, part, shards=shards)
        assert (t1, s1) == (t2, s2) and np.array_equal(w1, w2)


# Accuracy traces of small_setup runs (6 rounds, batch 16), recorded before
# the local step was rewritten; the step and the assignment must keep
# reproducing them bit for bit.  They held on every CPU class tried.
PINNED_TRACES = {
    ('fedavg', 0, 1000.0):
        (0.9333333333333333, 0.9333333333333333, 0.9333333333333333, 0.9416666666666667, 0.95, 0.95),
    ('fedavg', 0, 0.1):
        (0.9166666666666666, 0.8916666666666667, 0.9, 0.9083333333333333, 0.9166666666666666, 0.9166666666666666),
    ('fedavg', 0, 0.01):
        (0.9333333333333333, 0.8333333333333334, 0.9083333333333333, 0.9166666666666666, 0.925, 0.9166666666666666),
    ('fedavg', 32, 1000.0):
        (0.5083333333333333, 0.7, 0.775, 0.8583333333333333, 0.9, 0.9),
    ('fedavg', 32, 0.1):
        (0.44166666666666665, 0.6583333333333333, 0.7083333333333334, 0.8333333333333334, 0.8916666666666667, 0.9),
    ('fedavg', 32, 0.01):
        (0.4583333333333333, 0.6083333333333333, 0.6916666666666667, 0.8333333333333334, 0.875, 0.9),
    ('fedadam', 0, 1000.0):
        (0.9083333333333333, 0.9166666666666666, 0.9333333333333333, 0.95, 0.9583333333333334, 0.9583333333333334),
    ('fedadam', 0, 0.1):
        (0.9416666666666667, 0.9416666666666667, 0.9166666666666666, 0.9166666666666666, 0.9166666666666666, 0.925),
    ('fedadam', 0, 0.01):
        (0.925, 0.9, 0.9083333333333333, 0.9083333333333333, 0.925, 0.925),
    ('fedadam', 32, 1000.0):
        (0.85, 0.9, 0.9166666666666666, 0.95, 0.9416666666666667, 0.9166666666666666),
    ('fedadam', 32, 0.1):
        (0.8416666666666667, 0.9166666666666666, 0.9083333333333333, 0.8916666666666667, 0.9333333333333333, 0.9333333333333333),
    ('fedadam', 32, 0.01):
        (0.85, 0.8916666666666667, 0.9, 0.9083333333333333, 0.9166666666666666, 0.9083333333333333),
}

# sha256 of each run's final weights, in sorted(PINNED_TRACES) order.  Their
# last bits follow the CPU class (tests/cpu_class.py): numpy's x86-64 level
# (X86_V4 moves exp and log) and OpenBLAS's dgemm core.  Recorded with numpy
# 2.4.6 on one AVX-512 machine; the other classes under the variables that
# the CI's CPU-variant step sets (NPY_DISABLE_CPU_FEATURES and
# OPENBLAS_CORETYPE, where Prescott names its core Katmai).  numpy's
# AVX512_ICL and AVX512_SPR targets and the BLAS thread count moved no bit.
_V4_SKYLAKEX = (
    "d4d036bab040bf0c0b42a63cad96fe435f40a7aa6149e155fd0779b8545dd730",
    "7c4217d32cee449882500078b57ea6f73bf9d6a3568a9fe555715bf5d546f4d0",
    "9b6d1198da2fe4711292df0109b070a03ff5d6073b6ff961bc1a34dbb38d6572",
    "29bfda45925fa5683eb902af1fa72e129554e5e7248188f7fc3d37eae89a008f",
    "76fbbec8351f8581f837e0ac0d8c8e17042f3dc54171b2fbac4eec1cb8cdbb30",
    "96a02b28ce44cd9eb24eec4dce522b879eaa9f1d1e40b36a325ca12817c26faf",
    "b4338a78c5a54fcc6f89fb8a39ffb443eefe57d58dd0cbcc58c5e094c2617e27",
    "c44743cc889666d5318c9aa7b9ccdaedadd65e3c5fb76afba5a8718d91e5b9ea",
    "33a7c7100c7c6fe70d94f77379492c504968e1a71f9ddfce5cdc4b721d08ea8a",
    "8762943841f13b1b53270ec7b948c5d655b5382fc45b9278c0ffcb11c146dcbd",
    "afa2328b056d1a2adfe03666a5bdabfa15a4510e8c593c8bc5538a73e59cfd09",
    "e734537bcda745f10b6bf364c39f78d299f2578edccf1511e796d1669585712b",
)
_V4_HASWELL = (
    "d4d036bab040bf0c0b42a63cad96fe435f40a7aa6149e155fd0779b8545dd730",
    "7c4217d32cee449882500078b57ea6f73bf9d6a3568a9fe555715bf5d546f4d0",
    "9b6d1198da2fe4711292df0109b070a03ff5d6073b6ff961bc1a34dbb38d6572",
    "c4c70c69883672f89d49ef415102b56c6e22d953b27336973b760e1605cb9313",
    "dca03d76b8dc1cbf7fd898a10f91bab009ff4b97c3c1e1c4103930969e99aff1",
    "86b2b8166118e71003b77f704a8e42619dec3200bb70a51a92956a0366e621fa",
    "b4338a78c5a54fcc6f89fb8a39ffb443eefe57d58dd0cbcc58c5e094c2617e27",
    "c44743cc889666d5318c9aa7b9ccdaedadd65e3c5fb76afba5a8718d91e5b9ea",
    "33a7c7100c7c6fe70d94f77379492c504968e1a71f9ddfce5cdc4b721d08ea8a",
    "1296281e42f8deb741f05d8bd953705b22ddc41c99d86693383945a5a4b8b444",
    "135cc9867a51ecc3df57f92b3bd8fe9bdf0f41d0dcf93e1f0da133831152c533",
    "96911626c11ee5b8ec3ffcc675b95ccf48c38b20f9977c07ca95530e88ca634b",
)
_V4_KATMAI = (
    "fd73ea9f71c084c654d6fde45460e0424863644010f6fea9ad5db1b780a0c571",
    "57b0b451780af83816d56d5e723e26bc3beb068b1a021078df097a08a1b3985c",
    "a5509e3d263a58fb08025461c35b10e1b901b4e33c7c5eccb5b6fcf6b965d28e",
    "f2733ce78ed8153df2d0f730e9457d4fe5ce6776f894fd1cf7d2072a223244e4",
    "f2cd15cc97ff840f18ffd0bead7c55edce69c8d04113189546212852003628cd",
    "368ec813edb7a16a8456fd0fb451cc5eea17847353ed3f3ad3ab4e37f8b4da0b",
    "32bc7bcf9169a0c4261039a7aa6a133f7f065d2645045c392898697c727270b8",
    "d38fd4780e3cf665a51c678313ab35e2df7e9794404a879b7c0a800219834f14",
    "4187cdb823b859d7c2b42e24b58e815b4081c73577c1864fdcc665b3798e525d",
    "db918fcf9a24bf8973a8d01fbe20ad2c80b2690990295d1cbfef97d86b20710a",
    "1af39c0a43ea93ef06af2a0367948690215104d7ad2d36184f24e9c7e097c940",
    "939687f597215a442d7bda6d0a359c9a57fa204100dc86a205a7d879804fe2f1",
)
_V3_SKYLAKEX = (
    "72801a5bb746435d133b121f5619881aa745823972637c39dc8a5c46319556cd",
    "7673283b4463b10dacf709d3896a5a73343ef131c6e85950c07037f09ddc69c3",
    "83b90acba10d83dea73cee53fd0424abe935e8246b48168522b77d45bcd121ad",
    "93746f2cc4e13aa52cf5efa69abc930dcd23ec65ebbe3a1abdc285b7fa673a89",
    "87288592ad6c187c51919d19cd907e1ad47dacb1ebc1b24af99a8a4a7903ddd6",
    "8b2c0682e7ee81d767eaf086b643d3057ba717df25a992e3f6ce0475c485ba7e",
    "d023fdc194d949561a00b87039512763ca911d5e4c1e68b9331ed3bf27540993",
    "0eb4ee9bcae12cfcc9ebbc6ab41feb5d413c148d0eb1e7d548b276431f765771",
    "a91812e1984564f9c0748e2de7f594e305ec0a667210f9c5dee5137f08d517ae",
    "bd7e2017351a53b1bdbc92c0cdcc31bd2c9b741b7fd6cea2eacf57164bb637d7",
    "e836280ad8ea284c29feb3665a6406afaa5780af12bc5e2663eef357d193b8c6",
    "685e32de00ec6f065d3e985eb5ab5ebdf212f50fa439b422b3b2501229394036",
)
_V3_HASWELL = (
    "72801a5bb746435d133b121f5619881aa745823972637c39dc8a5c46319556cd",
    "7673283b4463b10dacf709d3896a5a73343ef131c6e85950c07037f09ddc69c3",
    "83b90acba10d83dea73cee53fd0424abe935e8246b48168522b77d45bcd121ad",
    "6ec94ec5ea76823ca2a1b237dbe7b6d2bf6cd9c31cfed8578cbf006c279f4cd3",
    "f467cde548804a1699fe5774d1e89edd22c029f598a41cfc83ef53f316da8409",
    "bdfd59be25f7a85db2e04eb588cca49a7241857248874c918b39e33f7d6c1ba1",
    "d023fdc194d949561a00b87039512763ca911d5e4c1e68b9331ed3bf27540993",
    "0eb4ee9bcae12cfcc9ebbc6ab41feb5d413c148d0eb1e7d548b276431f765771",
    "a91812e1984564f9c0748e2de7f594e305ec0a667210f9c5dee5137f08d517ae",
    "f66ba35a01f30b0f2b3aaf1e5dd7dd11dac6b054fce99a3a66e547a63f126df9",
    "5290418e13e27e7dd5c304d295ff5b03480fe273f5c6ca440eef357e86c10386",
    "9cbc3079f529516d05b94ce6386c1fb93c58a8b9961a177150f0f309ba79a690",
)
_V3_KATMAI = (
    "e180e9a1de07686a17a5553d9a123d1ccc900f55b6d602424e60fb3d0d0617b3",
    "838db44e948d70146f93cd048eae9f63a50da7f00b886aa562dbc8d0ba87a8cf",
    "022d08251b2c7e3882a9e7c11bf5676ccd0b35e6c689908e0f9a638ff8f956bf",
    "fa13670ffea83803f55cc1e76bc25ce398fa7b3d59140ca62b517c8a75ec976b",
    "68ae94ec3983c0392a437b945e56dc2885408b49b5527eb09acac14d894ce3cd",
    "beb7fa52d72d4f8666adb8b14fcd3b579212054656a8ca950c9167ad841e6576",
    "919905222e7dcb0bc5e7ae47b6aa3a956dc9fdf8cf7116573f9e171bcc8aa914",
    "f25c179bb09eb9e78e4ca6437a64f15e11de3f340d5757979782561db0c2c07c",
    "49341fe32b3b06f5914c49774ff3e04b32056621a72d7c3962cf53055ca2146e",
    "bf2a283ad658f22d731f7eeb020956179c108bc243b47db7a764538d0b0e8e3d",
    "30cbd71b5615b5e70aca1b2dd66af63ff157ec8ad5c7c00a34d6ca4901647a48",
    "68bef95eee36509d07e527e0b78b4dd2f9e42e86c35b87c09dc5a19b87f40b35",
)
PINNED_WEIGHTS = {
    "numpy 2.4.6 X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS SkylakeX": _V4_SKYLAKEX,
    "numpy 2.4.6 X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS Haswell": _V4_HASWELL,
    "numpy 2.4.6 X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS Katmai": _V4_KATMAI,
    "numpy 2.4.6 X86_V3 X86_V4 AVX512_ICL; OpenBLAS SkylakeX": _V4_SKYLAKEX,
    "numpy 2.4.6 X86_V3 X86_V4 AVX512_ICL; OpenBLAS Haswell": _V4_HASWELL,
    "numpy 2.4.6 X86_V3 X86_V4 AVX512_ICL; OpenBLAS Katmai": _V4_KATMAI,
    "numpy 2.4.6 X86_V3 X86_V4; OpenBLAS SkylakeX": _V4_SKYLAKEX,
    "numpy 2.4.6 X86_V3 X86_V4; OpenBLAS Haswell": _V4_HASWELL,
    "numpy 2.4.6 X86_V3 X86_V4; OpenBLAS Katmai": _V4_KATMAI,
    "numpy 2.4.6 X86_V3; OpenBLAS SkylakeX": _V3_SKYLAKEX,
    "numpy 2.4.6 X86_V3; OpenBLAS Haswell": _V3_HASWELL,
    "numpy 2.4.6 X86_V3; OpenBLAS Katmai": _V3_KATMAI,
}


@pytest.mark.parametrize("strategy, hidden_units, alpha", sorted(PINNED_TRACES))
def test_simulate_reproduces_pinned_bits(strategy, hidden_units, alpha):
    case = (strategy, hidden_units, alpha)
    cfg, ds, part = small_setup(alpha, rounds=6, batch_size=16,
                                strategy=strategy, hidden_units=hidden_units)
    trace, _, w = simulate(cfg, ds, part)
    assert trace.accuracies == PINNED_TRACES[case], f"accuracy trace on {cpu_class()}"
    weights = PINNED_WEIGHTS.get(weight_class())
    if weights is None:
        pytest.fail(f"no final-weight hashes recorded for {cpu_class()}")
    digest = weights[sorted(PINNED_TRACES).index(case)]
    assert hashlib.sha256(w.tobytes()).hexdigest() == digest, f"final weights on {cpu_class()}"


def reference_grad(spec: ModelSpec, w: np.ndarray, xb: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """The unbatched step: one client's gradient on one bias-augmented batch."""
    f, m, h = spec.num_features, spec.num_classes, spec.hidden_units
    b = xb.shape[0]
    if h == 0:
        first = w.reshape(m, f + 1)
        dz = xb @ first.T
    else:
        first = w[: h * (f + 1)].reshape(h, f + 1)
        second = w[h * (f + 1):].reshape(m, h + 1)
        hb = np.hstack([np.tanh(xb @ first.T), np.ones((b, 1))])
        dz = hb @ second.T
    dz -= dz.max(axis=1, keepdims=True)
    np.exp(dz, out=dz)
    dz /= dz.sum(axis=1, keepdims=True)
    dz[np.arange(b), y] -= 1.0
    dz /= b
    if h == 0:
        return (dz.T @ xb).ravel()
    g2 = dz.T @ hb
    dh = (dz @ second[:, :-1]) * (1.0 - hb[:, :-1] ** 2)
    g1 = dh.T @ xb
    return np.concatenate([g1.ravel(), g2.ravel()])


def reference_weighted_delta(updates: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """The sample-weighted mean, added into zeros one update at a time."""
    total = sum(int(n_k) for _, n_k in updates)
    acc = np.zeros(updates[0][0].shape)
    for delta, n_k in updates:
        acc += (n_k / total) * delta
    return acc


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Class probabilities of (K, b, m) logits with each row's own max."""
    probs = logits.copy()
    probs -= probs.max(axis=2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    return probs


def reference_local_sgd(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray,
                        epochs: int, lr: float, batch_size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """One client's local SGD, batch by batch, with the unbatched step."""
    n = x.shape[0]
    xb = np.hstack([x, np.ones((n, 1))])
    out = w.copy()
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            out -= lr * reference_grad(spec, out, xb[batch], y[batch])
    return out


class TestBatchedStep:
    """The stacked kernel must equal training each client on its own, bit
    for bit; batched matmul is not guaranteed to round like per-client
    matmul, so this is checked rather than assumed."""

    @pytest.mark.parametrize("hidden_units", [0, 32])
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("batch_size", [1, 32, 200])
    @pytest.mark.parametrize("n", [16, 33, 80])
    @pytest.mark.parametrize("k", [1, 2, 7, 100])
    def test_stack_equals_per_client_loop(self, k, n, batch_size, epochs, hidden_units):
        spec = ModelSpec(4, 5, hidden_units)
        data = np.random.default_rng([k, n, batch_size, epochs, hidden_units])
        x = data.standard_normal((k, n, 5))
        y = data.integers(0, 4, size=(k, n))
        w = spec.init_params(data) if hidden_units else 0.1 * data.standard_normal(spec.dim)
        lr = 0.3
        orders = np.stack([sim._draw_orders(derived_rng(3, 15, 0, c), n, epochs)
                           for c in range(k)])
        stacked = sim._sgd(spec, w, sim._with_bias(x), y, orders, lr, batch_size)
        assert stacked.shape == (k, spec.dim)
        for c in range(k):
            alone = reference_local_sgd(spec, w, x[c], y[c], epochs, lr, batch_size,
                                        derived_rng(3, 15, 0, c))
            assert np.array_equal(stacked[c], alone)

    @pytest.mark.parametrize("n, index_type", [(200, np.uint8), (300, np.uint16),
                                               (65_537, np.uint32)])
    def test_narrow_orders_select_the_same_rows(self, n, index_type):
        spec = ModelSpec(3, 4)
        data = np.random.default_rng(n)
        k, epochs, lr, batch_size = 3, 2, 0.2, 64 if n < 1000 else 8192
        x = data.standard_normal((k, n, 4))
        y = data.integers(0, 3, size=(k, n))
        w = 0.1 * data.standard_normal(spec.dim)
        orders = np.stack([sim._draw_orders(derived_rng(4, 15, 0, c), n, epochs)
                           for c in range(k)])
        assert orders.dtype == index_type
        stacked = sim._sgd(spec, w, sim._with_bias(x), y, orders, lr, batch_size)
        for c in range(k):
            alone = reference_local_sgd(spec, w, x[c], y[c], epochs, lr, batch_size,
                                        derived_rng(4, 15, 0, c))
            assert np.array_equal(stacked[c], alone)

    _EDGE_LOGITS = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308,
                             math.inf, -math.inf, math.nan])

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("k, b", [(1, 1), (1, 16), (5, 7), (10, 16)])
    def test_softmax_equals_the_per_row_max_form(self, monkeypatch, classes, k, b):
        # Rows mixing ties, signed zeros, +-inf, +-1e308 and NaN, with the
        # logits handed straight to _softmax.
        data = np.random.default_rng([classes, k, b])
        picks = data.integers(0, len(self._EDGE_LOGITS) + 3, size=(20, k, b, classes))
        for pick in picks:
            logits = np.where(pick < len(self._EDGE_LOGITS),
                              self._EDGE_LOGITS[np.minimum(pick, len(self._EDGE_LOGITS) - 1)],
                              data.standard_normal(pick.shape))
            logits[0, 0] = logits[0, 0, 0]  # one row of ties
            monkeypatch.setattr(ModelSpec, "_logits",
                                lambda self, w, xb, logits=logits: (logits.copy(), None))
            with np.errstate(all="ignore"):
                got, _ = ModelSpec(classes, 1)._softmax(None, None)
                want = reference_softmax(logits)
            assert np.array_equal(got, want, equal_nan=True)
            numbers = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))

    @pytest.mark.parametrize("hidden_units", [0, 32])
    def test_one_client_sgd_epochs_equals_per_client_loop(self, hidden_units):
        spec = ModelSpec(3, 4, hidden_units)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((50, 4))
        y = rng.integers(0, 3, size=50)
        w = spec.init_params(rng) if hidden_units else np.zeros(spec.dim)
        got = sgd_alone(w, x, y, spec, 2, 0.2, 16, derived_rng(1, 15, 0, 0))
        want = reference_local_sgd(spec, w, x, y, 2, 0.2, 16, derived_rng(1, 15, 0, 0))
        assert np.array_equal(got, want)

    def test_augmented_accuracy_equals_public_accuracy(self):
        ds = make_task(4, 6, 300, seed=2)
        spec = ModelSpec(4, 6, 8)
        w = spec.init_params(np.random.default_rng(4))
        x, y = ds.features[ds.test_idx], ds.labels[ds.test_idx]
        assert spec._accuracy(w, sim._with_bias(x), y) == spec.accuracy(w, x, y)
        assert spec.accuracy(w, sim._with_bias(x), y) == spec.accuracy(w, x, y)

    @pytest.mark.parametrize("hidden_units", [0, 32])
    def test_cohort_lanes_equal_clients_trained_alone(self, monkeypatch, hidden_units):
        ds = make_task(3, 4, 200, seed=5)
        spec = ModelSpec(3, 4, hidden_units)
        w = spec.init_params(np.random.default_rng(6))
        shards = ds.train_idx[:120].reshape(3, 40)
        orders = np.stack([sim._draw_orders(derived_rng(5, 15, 0, c), 40, 2)
                           for c in range(3)])
        given = []
        real_sgd = sim._sgd

        def recorded_sgd(*args):
            given.append(args[4])
            return real_sgd(*args)

        monkeypatch.setattr(sim, "_sgd", recorded_sgd)
        # Built as simulate builds a round's trainer.
        cohort = functools.cache(functools.partial(
            sim._sgd, spec, w, sim._with_bias(ds.features[shards]), ds.labels[shards],
            orders, 0.1, 16))
        # Asked out of selection order: each call still gets its own lane.
        for c in (2, 0, 1):
            delta, n_k = train_local(w, ds, shards[c], spec, 2, 0.1, 16, c, cohort=cohort)
            alone, _ = train_local(w, ds, shards[c], spec, 2, 0.1, 16,
                                   derived_rng(5, 15, 0, c))
            assert n_k == 40 and np.array_equal(delta, alone)
        # The three clients trained alone ran _sgd too, one client each.
        stacked = [block for block in given if len(block) == 3]
        assert len(stacked) == 1 and stacked[0] is orders

    def test_shards_given_as_rows_rejected(self):
        cfg, ds, part = small_setup()
        _, shards = sim._assign(ds, part, cfg.seed)
        with pytest.raises(ValueError, match="2-d"):
            simulate(cfg, ds, part, shards=list(shards))

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_shards_of_non_integer_type_rejected(self, dtype):
        # Neither holds row indices: a bool block would be gathered as rows
        # 0 and 1.
        cfg, ds, part = small_setup()
        _, shards = sim._assign(ds, part, cfg.seed)
        with pytest.raises(ValueError, match=f"^shards must hold integer row indices, "
                                             f"not {np.dtype(dtype)}$"):
            simulate(cfg, ds, part, shards=shards.astype(dtype))

    def test_federation_shards_are_a_read_only_block(self):
        cfg = config_from_dict(TestRunExperiment.BASE)
        fed = build_federation(cfg)
        assert isinstance(fed.shards, np.ndarray)
        assert fed.shards.shape == (10, 32)
        assert not fed.shards.flags.writeable
        with pytest.raises(ValueError):
            fed.shards[0, 0] = 0


def per_client_orders(seed, round_index, clients, n, epochs):
    """Each client's orders drawn alone from its own derived_rng."""
    return np.stack([sim._draw_orders(derived_rng(seed, 15, round_index, c), n, epochs)
                     for c in clients])


def recorded_seedings(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """Each batch-order seeding as (path, (seed, stream, round, client)):
    a row of a _pcg64_starts pass, or a derived_rng call."""
    made: list[tuple[str, tuple[int, ...]]] = []
    starts, derived = sim._pcg64_starts, sim.derived_rng

    def recorded_starts(words):
        made.extend(("pass", tuple(key)) for key in words.tolist())
        return starts(words)

    def recorded_rng(*keys):
        made.append(("derived_rng", keys))
        return derived(*keys)

    monkeypatch.setattr(sim, "_pcg64_starts", recorded_starts)
    monkeypatch.setattr(sim, "derived_rng", recorded_rng)
    return made


class TestDraws:
    def test_orders_are_read_only_blocks_of_the_clients_permutations(self):
        draws = sim._Draws(5)
        block = draws.round_orders(0, [3], 10, 2)
        alone = derived_rng(5, 15, 0, 3)
        assert block.shape == (1, 2, 10)
        assert np.array_equal(block[0], [alone.permutation(10) for _ in range(2)])
        assert np.array_equal(draws.round_orders(0, [3], 10, 1), block[:, :1])
        assert draws.selection(12, 4, 0) is draws.selection(12, 4, 0)
        assert np.array_equal(draws.selection(12, 4, 0), select_clients(12, 4, 0, 5))
        for kept in (block, draws._orders[0, 3, 10][1], draws.selection(12, 4, 0)):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0

    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
    @pytest.mark.parametrize("keep", ["nothing", "some", "full"])
    def test_round_orders_equal_per_client_draws(self, n, epochs, keep):
        clients = [0, 3, 4, 8, 11, 12, 2**32 - 1]
        draws = sim._Draws(5, keep_bytes=0 if keep == "nothing" else sim._KEEP_BYTES)
        if keep != "nothing":
            # Clients 3 and 8 are kept one epoch in, and extended below;
            # client 8's state holds a buffered half word but at n = 1.
            draws.round_orders(2, [3, 8], n, 1)
            assert draws._orders[2, 8, n][0].bit_generator.state["has_uint32"] == (n > 1)
        if keep == "full":
            draws._room = 0
        kept = dict(draws._orders)
        states = {key: rng.bit_generator.state for key, (rng, _) in kept.items()}
        block = draws.round_orders(2, clients, n, epochs)
        assert block.dtype == np.min_scalar_type(n - 1) and not block.flags.writeable
        assert np.array_equal(block, per_client_orders(5, 2, clients, n, epochs))
        if keep == "full":
            assert draws._orders == kept
            assert {key: rng.bit_generator.state
                    for key, (rng, _) in draws._orders.items()} == states
        elif keep == "some":
            assert sorted(c for _, c, _ in draws._orders) == clients
            for (_, c, _), (kept_rng, rows) in draws._orders.items():
                rng = derived_rng(5, 15, 2, c)
                assert np.array_equal(rows, sim._draw_orders(rng, n, epochs))
                assert kept_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("fresh", [1, 4, 5, 30])
    def test_fresh_clients_are_seeded_once_each_in_one_pass(self, monkeypatch, fresh):
        made = recorded_seedings(monkeypatch)
        clients = list(range(2, 2 + 3 * fresh, 3))
        block = sim._Draws(5, keep_bytes=0).round_orders(1, clients, 10, 2)
        assert np.array_equal(block, per_client_orders(5, 1, clients, 10, 2))
        assert made == [("pass", (5, 15, 1, c)) for c in clients]

    def test_a_seed_beyond_the_words_takes_derived_rng(self, monkeypatch):
        made = recorded_seedings(monkeypatch)
        seed, clients = 2**32 + 5, list(range(6))
        block = sim._Draws(seed, keep_bytes=0).round_orders(1, clients, 10, 2)
        assert np.array_equal(block, per_client_orders(seed, 1, clients, 10, 2))
        assert made == [("derived_rng", (seed, 15, 1, c)) for c in clients]

    def test_a_longer_request_extends_the_block_from_one_generator(self, monkeypatch):
        made = recorded_seedings(monkeypatch)
        draws = sim._Draws(5)
        first = draws.round_orders(0, [4], 10, 1)
        # Here permutation(10) leaves half a 64-bit word buffered: the kept
        # state carries it, so the next row resumes from it.
        assert draws._orders[0, 4, 10][0].bit_generator.state["has_uint32"] == 1
        longer = draws.round_orders(0, [4], 10, 5)
        alone = derived_rng(5, 15, 0, 4)
        assert np.array_equal(longer[0], [alone.permutation(10) for _ in range(5)])
        assert np.array_equal(longer[:, :1], first)
        assert np.array_equal(draws.round_orders(0, [4], 10, 3), longer[:, :3])
        assert made == [("derived_rng", (5, 15, 0, 4))]
        assert len(draws._orders[0, 4, 10][1]) == 5

    def test_orders_are_kept_in_the_smallest_index_type(self):
        draws = sim._Draws(5)
        for n, dtype in ((10, np.uint8), (256, np.uint8), (257, np.uint16), (70000, np.uint32)):
            want = derived_rng(5, 15, 0, 0).permutation(n)
            for block in (draws.round_orders(0, [0], n, 1)[0],
                          sim._draw_orders(derived_rng(5, 15, 0, 0), n, 1)):
                assert block.dtype == dtype and not block.flags.writeable
                assert np.array_equal(block[0], want)

    @pytest.mark.parametrize("orders_kept", [0, 1, 2])
    def test_a_full_draws_keeps_nothing_more_and_hands_out_the_same_orders(
            self, orders_kept):
        # Room for one generator and its block (_GENERATOR_BYTES + 128) and
        # orders_kept orders of 10 samples (uint8, 10 bytes each), and
        # nothing else: with 0 the first request does not fit.
        budget = sim._GENERATOR_BYTES + sim._ARRAY_BYTES + orders_kept * 10
        draws = sim._Draws(5, keep_bytes=budget)
        draws.round_orders(0, [3], 10, max(orders_kept, 1))
        kept = draws._orders.get((0, 3, 10))
        assert (kept is None) == (orders_kept == 0)
        state = kept and kept[0].bit_generator.state
        alone = derived_rng(5, 15, 0, 3)
        want = np.array([alone.permutation(10) for _ in range(5)])
        # Full: a longer request is drawn again and the kept entry stays.
        for epochs in (5, 5, max(orders_kept, 1)):
            block = draws.round_orders(0, [3], 10, epochs)[0]
            assert np.array_equal(block, want[:epochs]) and not block.flags.writeable
            assert draws._orders.get((0, 3, 10)) is kept
        # Another client gets fresh orders.
        other = draws.round_orders(0, [4], 10, 2)[0]
        fresh = derived_rng(5, 15, 0, 4)
        assert np.array_equal(other, [fresh.permutation(10) for _ in range(2)])
        assert (0, 4, 10) not in draws._orders
        if kept:
            assert kept[0].bit_generator.state == state
            assert np.array_equal(kept[1], want[:orders_kept])
            # Not a byte is left, so no selection is kept either.
            assert draws._room == 0
            assert draws.selection(12, 4, 0) is not draws.selection(12, 4, 0)
            assert draws._selections == {}

    def test_round_orders_reject_no_epochs(self):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            sim._Draws(5).round_orders(0, [1], 10, 0)

    def test_plain_simulate_keeps_no_draws(self, monkeypatch):
        made = []

        class Recorded(sim._Draws):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(sim, "_Draws", Recorded)
        cfg, ds, part = small_setup()
        simulate(cfg, ds, part)
        assert [(d._room, d._selections, d._orders) for d in made] == [(0, {}, {})]

    def test_draws_of_another_seed_rejected(self):
        cfg, ds, part = small_setup()
        with pytest.raises(ValueError, match="draws are for seed 22, config seed is 21"):
            simulate(cfg, ds, part, draws=sim._Draws(22))


class TestRoundsToTarget:
    def test_first_crossing_is_one_based(self):
        trace = AccuracyTrace(accuracies=(0.2, 0.5, 0.7, 0.71))
        assert rounds_to_target(trace, 0.6) == 3
        assert rounds_to_target(trace, 0.2) == 1
        assert rounds_to_target(trace, 0.0) == 1

    def test_never_reached_is_none(self):
        trace = AccuracyTrace(accuracies=(0.2, 0.5))
        assert rounds_to_target(trace, 0.9) is None

    def test_target_out_of_range_rejected(self):
        trace = AccuracyTrace(accuracies=(0.2,))
        with pytest.raises(ValueError, match="target"):
            rounds_to_target(trace, 1.5)


class TestRunExperiment:
    BASE = {
        "mode": "fl",
        "hardware": "tx2-cifar10",
        "grid": "france",
        "fl": {"pool_size": 10, "clients_per_round": 3, "rounds": 6,
               "local_epochs": 1, "model_size_mb": 0.0},
        "sim": {"classes": 4, "features": 6, "n_samples": 400,
                "separation": 4.0, "target_accuracy": 1.0, "alpha": 1000.0},
        "seed": 5,
    }

    def test_pipeline_produces_priceable_schedule(self):
        cfg = config_from_dict(self.BASE)
        trace, schedule, fed = run_experiment(cfg)
        dataset = fed.dataset
        assert 1 <= trace.rounds <= 6
        assert dataset.num_classes == 4
        # default shard size is the train split spread over the pool
        assert len(dataset.train_idx) == 320
        per_round = {}
        for e in schedule.participation:
            per_round.setdefault(e.round_index, []).append(e.client_id)
        assert all(len(v) == 3 for v in per_round.values())

    def test_seed_changes_the_run(self):
        cfg_a = config_from_dict(self.BASE)
        cfg_b = config_from_dict({**self.BASE, "seed": 6})
        ta, _, _ = run_experiment(cfg_a)
        tb, _, _ = run_experiment(cfg_b)
        assert ta.accuracies != tb.accuracies

    def test_pool_larger_than_train_split_rejected(self):
        raw = {**self.BASE,
               "fl": {**self.BASE["fl"], "pool_size": 1000, "clients_per_round": 1}}
        with pytest.raises(ValueError, match="pool"):
            run_experiment(config_from_dict(raw))

    def test_centralized_config_rejected(self):
        cfg = config_from_dict({
            "mode": "centralized", "hardware": "v100-cifar10", "grid": "france",
            "pue": 1.67, "epochs": 2, "seed": 0,
        })
        with pytest.raises(ValueError, match="federated"):
            run_experiment(cfg)

    def test_given_shards_match_the_seeds_own_assignment(self):
        cfg = config_from_dict({**self.BASE, "sim": {**self.BASE["sim"], "alpha": 0.1}})
        fed = build_federation(cfg)
        assert [len(s) for s in fed.shards] == [32] * 10
        assert all(np.array_equal(s, fed.dataset.train_idx[pos])
                   for s, pos in zip(fed.shards, fed.assignment.per_client))
        t1, s1, w1 = simulate(cfg, fed.dataset, fed.partition)
        t2, s2, w2 = simulate(cfg, fed.dataset, fed.partition,
                              shards=fed.shards)
        assert (t1, s1) == (t2, s2) and np.array_equal(w1, w2)
        with pytest.raises(ValueError, match="9 shards given"):
            simulate(cfg, fed.dataset, fed.partition, shards=fed.shards[:9])

    def test_shards_are_the_train_split_indexed_by_the_assignment_block(self):
        fed = build_federation(config_from_dict(self.BASE))
        assert np.array_equal(fed.shards, fed.dataset.train_idx[fed.assignment.per_client])

    def test_reused_task_gives_the_same_federation(self):
        cfg = config_from_dict(self.BASE)
        fed = build_federation(cfg)
        again = build_federation(cfg, fed.dataset)
        assert again.dataset is fed.dataset
        assert np.array_equal(again.partition.per_client, fed.partition.per_client)
        assert all(np.array_equal(a, b) for a, b in zip(again.shards, fed.shards))

    def test_federation_needs_fl_and_sim(self):
        cfg = config_from_dict({k: v for k, v in self.BASE.items() if k != "sim"})
        with pytest.raises(ValueError, match="'fl' and 'sim'"):
            build_federation(cfg)
