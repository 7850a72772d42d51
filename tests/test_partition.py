"""Dirichlet partitioning: moments, regimes, and assignment bookkeeping.

Statistical oracles use the closed-form Dirichlet moments (mean p_i,
variance p_i(1-p_i)/(alpha+1)) with tolerances sized from the Monte
Carlo standard error of the sample in question.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedcarbon.partition as partition_module
from fedcarbon import (
    Assignment,
    ClassPrior,
    Partition,
    assign_samples,
    empirical_prior,
    lda_partition,
    sample_dirichlet,
    uniform_prior,
)


class TestPriors:
    def test_uniform_prior(self):
        p = uniform_prior(4)
        assert p.proportions == (0.25, 0.25, 0.25, 0.25)
        assert p.num_classes == 4

    def test_empirical_prior_oracle(self):
        # counts (3, 1) -> frequencies (0.75, 0.25)
        assert empirical_prior([3, 1]).proportions == (0.75, 0.25)

    def test_empirical_prior_with_zero_class(self):
        # A class with no sample would give a 0 proportion, which no
        # Dir(alpha * p) can draw from.
        with pytest.raises(ValueError, match=r"^class counts must be integers >= 1$"):
            empirical_prior([2, 0, 2])

    def test_single_class_counts_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            empirical_prior([5])

    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassPrior((0.5, 0.4))

    def test_prior_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            ClassPrior((1.0,))

    def test_negative_proportions_rejected(self):
        with pytest.raises(ValueError, match=r"^prior proportions must be finite and > 0$"):
            ClassPrior((1.2, -0.2))

    def test_zero_and_negative_proportions_share_one_wording(self):
        messages = set()
        for proportions in ((0.5, 0.5, 0.0), (1.2, -0.2), (0.0, 1.0)):
            with pytest.raises(ValueError) as info:
                ClassPrior(proportions)
            messages.add(str(info.value))
        assert messages == {"prior proportions must be finite and > 0"}


class TestDirichletSampling:
    def test_draws_lie_on_the_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = sample_dirichlet([0.3, 2.0, 5.0], rng)
            assert np.all(q >= 0)
            assert abs(q.sum() - 1.0) <= 1e-9

    def test_huge_alpha_concentrates_on_the_prior(self):
        # Dir(alpha p) -> p as alpha grows; at 1e6 the sd per component
        # is sqrt(0.25/1e6) = 5e-4, so 5 sd is 2.5e-3.
        rng = np.random.default_rng(1)
        q = sample_dirichlet([5e5, 5e5], rng)
        assert abs(q[0] - 0.5) < 2.5e-3

    def test_component_moments_match_closed_form(self):
        # mean p_i, variance p_i (1 - p_i) / (alpha + 1)
        alpha, m, draws = 50.0, 4, 4000
        rng = np.random.default_rng(2)
        qs = np.stack([sample_dirichlet(np.full(m, alpha / m), rng)
                       for _ in range(draws)])
        p = 1.0 / m
        var = p * (1 - p) / (alpha + 1.0)
        se_mean = np.sqrt(var / draws)
        assert np.all(np.abs(qs.mean(axis=0) - p) < 6 * se_mean)
        assert np.all(np.abs(qs.var(axis=0) - var) < 0.15 * var)

    def test_nonpositive_concentration_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="> 0"):
            sample_dirichlet([1.0, 0.0], rng)

    def test_needs_at_least_two_components(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="length >= 2"):
            sample_dirichlet([2.0], rng)


class TestLdaPartition:
    def test_shape_and_simplex_rows(self):
        part = lda_partition(uniform_prior(10), 0.5, 12, 30, seed=0)
        assert part.per_client.shape == (12, 10)
        assert part.num_clients == 12 and part.num_classes == 10
        assert np.all(part.per_client >= 0)
        assert np.allclose(part.per_client.sum(axis=1), 1.0, atol=1e-9)

    def test_same_seed_reproduces_bitwise(self):
        a = lda_partition(uniform_prior(5), 0.7, 8, 10, seed=42)
        b = lda_partition(uniform_prior(5), 0.7, 8, 10, seed=42)
        assert np.array_equal(a.per_client, b.per_client)

    def test_different_seeds_differ(self):
        a = lda_partition(uniform_prior(5), 0.7, 8, 10, seed=42)
        b = lda_partition(uniform_prior(5), 0.7, 8, 10, seed=43)
        assert not np.array_equal(a.per_client, b.per_client)

    def test_near_iid_regime(self):
        # alpha = 1000: per-component sd is sqrt(0.09/1001) = 0.0095,
        # so no client should sit 0.05 away from the prior.
        part = lda_partition(uniform_prior(10), 1000.0, 50, 10, seed=7)
        assert np.abs(part.per_client - 0.1).max() < 0.05

    def test_concentrated_regime(self):
        # alpha = 0.1 pushes mass onto few classes: the largest component
        # should usually dominate.
        part = lda_partition(uniform_prior(10), 0.1, 200, 10, seed=8)
        assert part.per_client.max(axis=1).mean() > 0.5

    def test_rows_are_read_only(self):
        part = lda_partition(uniform_prior(3), 1.0, 2, 5, seed=9)
        with pytest.raises(ValueError):
            part.per_client[0, 0] = 0.5

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            lda_partition(uniform_prior(3), 0.0, 2, 5, seed=0)
        with pytest.raises(ValueError, match="num_clients"):
            lda_partition(uniform_prior(3), 1.0, 0, 5, seed=0)
        with pytest.raises(ValueError, match="samples_per_client"):
            lda_partition(uniform_prior(3), 1.0, 2, 0, seed=0)

    def test_zero_prior_component_rejected(self):
        # ClassPrior refuses a 0 entry, so the concentration check is left
        # with alpha * p underflowing to 0: 5e-324 * 0.5 rounds to 0, while
        # 1e-320 * 0.5 does not.
        with pytest.raises(ValueError, match=r"^every Dirichlet concentration must be "
                                             r"finite and > 0$"):
            lda_partition(uniform_prior(2), 5e-324, 2, 5, seed=0)
        part = lda_partition(uniform_prior(2), 1e-320, 2, 5, seed=0)
        assert part.per_client.shape == (2, 2)


class TestVectorizedDraws:
    """The one-call Dirichlet draw and the cursor-based assignment give the
    same bits as the per-client loops they replaced."""

    @pytest.mark.parametrize("alpha", [1000.0, 0.1, 0.01])
    def test_partition_rows_equal_one_draw_per_client(self, alpha):
        prior = uniform_prior(10)
        part = lda_partition(prior, alpha, 300, 16, np.random.SeedSequence([7, 11]))
        rng = np.random.default_rng(np.random.SeedSequence([7, 11]))
        concentration = alpha * np.asarray(prior.proportions)
        rows = np.stack([rng.dirichlet(concentration) for _ in range(300)])
        assert np.array_equal(part.per_client, rows)

    @pytest.mark.parametrize("alpha", [1000.0, 0.1, 0.01])
    def test_assignment_equals_pop_reference(self, alpha):
        # 40 clients x 25 samples take the whole 1000-sample pool, so the
        # skewed mixes run classes dry and force redraws.
        labels = balanced_labels(10, 100, seed=19)
        part = lda_partition(uniform_prior(10), alpha, 40, 25, seed=20)
        out = assign_samples(labels, part, seed=21)
        ref_shards, ref_warnings = pop_reference_assignment(labels, part, seed=21)
        if alpha == 0.01:
            assert ref_warnings > 0
        assert out.exhaustion_warnings == ref_warnings
        assert len(out.per_client) == len(ref_shards)
        for got, want in zip(out.per_client, ref_shards):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestChunkedAssignment:
    """assign_samples draws clients in chunks, cut where a class runs out;
    every chunk size gives the bits of the client-by-client loop."""

    @pytest.mark.parametrize("chunk", [1, 3, partition_module._CHUNK])
    @settings(max_examples=100, deadline=None)
    @given(classes=st.integers(2, 40),
           alpha=st.sampled_from([0.01, 0.05, 0.5, 10.0, 1000.0]),
           clients=st.integers(1, 40),
           samples_per_client=st.integers(1, 12),
           slack=st.integers(0, 50) | st.just(0),
           seed=st.integers(0, 2**32 - 2))
    def test_equals_pop_reference(self, chunk, classes, alpha, clients,
                                  samples_per_client, slack, seed):
        # Slack 0 hands out the whole pool, so late clients find classes
        # dry: chunks are cut, redrawn, and rows take the one-client draw.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, size=clients * samples_per_client + slack)
        part = lda_partition(uniform_prior(classes), alpha, clients,
                             samples_per_client, seed=seed)
        with mock.patch.object(partition_module, "_CHUNK", chunk):
            out = assign_samples(labels, part, seed=seed + 1)
        ref_shards, ref_warnings = pop_reference_assignment(labels, part, seed=seed + 1)
        assert out.exhaustion_warnings == ref_warnings
        assert len(out.per_client) == len(ref_shards)
        for got, want in zip(out.per_client, ref_shards):
            assert np.array_equal(got, want)


def pop_reference_assignment(labels: np.ndarray, partition: Partition,
                             seed: int) -> tuple[list[np.ndarray], int]:
    """assign_samples as first written: per-class Python lists, one pop()
    per sample."""
    m = partition.num_classes
    rng = np.random.default_rng(seed)
    pools = []
    for c in range(m):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        pools.append(list(idx))
    avail = np.array([len(p) for p in pools])
    shards, warnings = [], 0
    for k in range(partition.num_clients):
        q = np.array(partition.per_client[k], dtype=float)
        alloc = np.zeros(m, dtype=int)
        need = partition.samples_per_client
        while need > 0:
            open_mask = avail > 0
            weights = np.where(open_mask, q, 0.0)
            total = weights.sum()
            if total <= 0:
                weights = open_mask.astype(float)
                total = weights.sum()
                warnings += 1
            grant = np.minimum(rng.multinomial(need, weights / total), avail)
            alloc += grant
            avail -= grant
            need -= int(grant.sum())
            if need > 0:
                warnings += 1
        taken = [pools[c].pop() for c in range(m) for _ in range(alloc[c])]
        shards.append(np.sort(np.array(taken, dtype=int)))
    return shards, warnings


def balanced_labels(num_classes: int, per_class: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    rng.shuffle(labels)
    return labels


class TestAssignSamples:
    def test_shards_are_disjoint_and_sized(self):
        labels = balanced_labels(5, 40, seed=0)  # 200 samples
        part = lda_partition(uniform_prior(5), 2.0, 8, 20, seed=1)
        out = assign_samples(labels, part, seed=2)
        assert isinstance(out, Assignment)
        assert len(out.per_client) == 8
        all_idx = np.concatenate(out.per_client)
        assert all(len(s) == 20 for s in out.per_client)
        assert len(np.unique(all_idx)) == len(all_idx)
        assert all_idx.min() >= 0 and all_idx.max() < 200

    def test_deterministic_for_fixed_seed(self):
        labels = balanced_labels(4, 30, seed=3)
        part = lda_partition(uniform_prior(4), 1.0, 5, 15, seed=4)
        a = assign_samples(labels, part, seed=5)
        b = assign_samples(labels, part, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.per_client, b.per_client))
        assert a.exhaustion_warnings == b.exhaustion_warnings

    def test_one_hot_mix_takes_only_that_class(self):
        labels = balanced_labels(3, 50, seed=6)
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rows.setflags(write=False)
        part = Partition(alpha=0.01, per_client=rows, samples_per_client=30)
        out = assign_samples(labels, part, seed=7)
        assert np.all(labels[out.per_client[0]] == 0)
        assert np.all(labels[out.per_client[1]] == 2)
        assert out.exhaustion_warnings == 0

    def test_class_frequencies_follow_the_mix(self):
        # One client draws 2000 samples at q = (0.1, 0.9).  The class-0
        # count is Binomial(2000, 0.1): sd = sqrt(2000 * .1 * .9) = 13.4,
        # so the frequency stays within (0.08, 0.12) at 3 sigma.
        labels = balanced_labels(2, 2500, seed=8)  # plenty of stock
        rows = np.array([[0.1, 0.9]])
        rows.setflags(write=False)
        part = Partition(alpha=1.0, per_client=rows, samples_per_client=2000)
        out = assign_samples(labels, part, seed=9)
        freq0 = float(np.mean(labels[out.per_client[0]] == 0))
        assert 0.08 < freq0 < 0.12
        assert out.exhaustion_warnings == 0

    def test_pool_too_small_raises_upfront(self):
        labels = balanced_labels(2, 2, seed=10)  # 4 samples
        part = lda_partition(uniform_prior(2), 1.0, 5, 2, seed=11)  # wants 10
        with pytest.raises(ValueError, match="exhausted"):
            assign_samples(labels, part, seed=12)

    def test_exhaustion_redistributes_and_warns(self):
        # Both clients want class 0 only, but class 0 has 10 samples and
        # each wants 10: the second client must spill into class 1.
        labels = np.array([0] * 10 + [1] * 10)
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        rows.setflags(write=False)
        part = Partition(alpha=0.01, per_client=rows, samples_per_client=10)
        out = assign_samples(labels, part, seed=13)
        assert out.exhaustion_warnings >= 1
        assert np.all(labels[out.per_client[0]] == 0)
        assert np.all(labels[out.per_client[1]] == 1)

    def test_labels_must_fit_class_count(self):
        part = lda_partition(uniform_prior(2), 1.0, 1, 2, seed=14)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            assign_samples(np.array([0, 1, 2, 1]), part, seed=15)

    def test_per_client_is_one_read_only_integer_block(self):
        labels = balanced_labels(3, 20, seed=16)
        part = lda_partition(uniform_prior(3), 1.0, 4, 10, seed=17)
        out = assign_samples(labels, part, seed=18)
        assert isinstance(out.per_client, np.ndarray)
        assert out.per_client.shape == (4, 10)
        assert np.issubdtype(out.per_client.dtype, np.integer)
        assert not out.per_client.flags.writeable

    def test_shards_are_read_only(self):
        labels = balanced_labels(3, 20, seed=16)
        part = lda_partition(uniform_prior(3), 1.0, 2, 10, seed=17)
        out = assign_samples(labels, part, seed=18)
        with pytest.raises(ValueError):
            out.per_client[0][0] = 99
