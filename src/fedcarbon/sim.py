"""Desk-scale federated training on a synthetic classification task.

The task is a Gaussian mixture (one spherical cluster per class) and the
model is multinomial logistic regression, optionally with one hidden tanh
layer.  Clients run mini-batch SGD locally; the server combines client
deltas either by sample-weighted averaging or by an Adam-style server
update on the averaged delta.

Every stochastic choice draws from its own stream of the seed, so runs
are bit-reproducible from it.  The task is drawn from default_rng(seed).
The class mixes, the sample assignment and the initial weights each take
a SeedSequence([seed, stream tag]), client selection one of
[seed, tag, round] and batch orders one of [seed, tag, round, client].
Plain centralized SGD draws period p's orders as client 0 of round p, so
a one-client full-participation run follows the exact same batch order
as centralized_sgd with the same seed.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .carbon import RoundSchedule
from .partition import (
    Assignment,
    ClassPrior,
    Partition,
    assign_samples,
    empirical_prior,
    lda_partition,
    uniform_prior,
)
from .profiles import (
    DEFAULT_CLIENT_LR,  # re-exported: callers import it from fedcarbon.sim
    ExperimentConfig,
    FlSetup,
    SimSetup,
    _integer,
    _training_time_s,
)

__all__ = [
    "derived_rng",
    "SimDataset",
    "ModelSpec",
    "AccuracyTrace",
    "AdamState",
    "make_task",
    "sgd_epochs",
    "train_local",
    "select_clients",
    "fedavg_aggregate",
    "fedadam_aggregate",
    "weighted_delta",
    "simulate",
    "centralized_sgd",
    "rounds_to_target",
    "Federation",
    "build_federation",
    "run_experiment",
]

# Stream tags keeping the derived generators of each stochastic choice
# disjoint.  (seed, tag, ...context) feeds a SeedSequence.
_STREAM_PARTITION = 11
_STREAM_ASSIGN = 12
_STREAM_INIT = 13
_STREAM_SELECT = 14
_STREAM_TRAIN = 15

TRAIN_FRACTION = 0.8

# Rows of the task shifted by their class means at a time: 384 KB of
# temporaries at 12 features.
_TASK_BLOCK_ROWS = 4096

# Test rows per evaluation block.  With one BLAS thread, a product of
# rows cut at multiples of 4096 has every bit of the whole product, under
# each dgemm kernel the bundled OpenBLAS offers; cuts at other rows move
# bits under its Haswell, Zen and Prescott kernels.
_EVAL_BLOCK_ROWS = 4096

# The variables numpy's bundled OpenBLAS takes its thread count from: the
# first that holds a positive count wins, and with none it runs one thread
# per CPU.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _word_keys(keys: Sequence[object]) -> bool:
    """Whether every key is a Python int in [0, 2**32): a uint32 word each."""
    return all(type(k) is int and 0 <= k < 1 << 32 for k in keys)


def derived_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator for a tuple of integer keys: PCG64 seeded by
    SeedSequence(list(keys)).  _Draws seeds a round's batch orders from the
    same keys, as uint32 words, in one pass (see _pcg64_starts), so those
    generators start where this one does."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier, for _pcg64_starts.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` (xor, multiply) constant pairs of a SeedSequence
    hash chain, each as a (count, 1) uint32 column."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    column = np.array(chain, np.uint32)[:, np.newaxis]
    return column[:-1], column[1:]


# mix_entropy hashes the 4 entropy words (the first 4 links of hash A),
# then, for each source word in turn, hashes it once per other word (the
# next 3 links) and mixes it into that word.  generate_state(4, np.uint64)
# takes 8 links of hash B.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)
_ENTROPY_LINKS = (_HASH_A[0][:4], _HASH_A[1][:4])
_MIX_LINKS = tuple((src, np.array([d for d in range(4) if d != src]),
                    _HASH_A[0][4 + 3 * src:7 + 3 * src], _HASH_A[1][4 + 3 * src:7 + 3 * src])
                   for src in range(4))


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    value ^= value >> 16
    return value


def _pcg64_starts(words: np.ndarray) -> list[tuple[int, int]]:
    """Each row's PCG64 start (state, inc), as
    PCG64(SeedSequence(words[k])).state['state'] holds it.

    words is a (K, 4) uint32 array.  SeedSequence's pool and
    generate_state(4, np.uint64) run once over all K rows in uint32
    arithmetic, which wraps as numpy's uint32_t arithmetic does.  Then
    PCG64's seeding runs per row in Python ints mod 2**128: s is the first
    two uint64 words and i the last two, high word first, inc = 2i + 1 and
    state = (inc + s) x MULT + inc.  This restates numpy's seeding
    (numpy/random/bit_generator.pyx and pcg64.c); the tests check it
    against numpy.
    """
    pool = _hashmix(words.T, *_ENTROPY_LINKS)
    for src, into, xor, mult in _MIX_LINKS:
        hashed = _hashmix(pool[src], xor, mult)
        mixed = _MIX_MULT_L * pool[into] - _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        pool[into] = mixed
    state = _hashmix(np.concatenate([pool, pool]), *_HASH_B)
    # Little-endian pairs of uint32 words are the uint64 words, as numpy
    # forms them.
    starts = []
    for s_high, s_low, i_high, i_low in (
            np.ascontiguousarray(state.T, "<u4").view("<u8").tolist()):
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK_128
        starts.append((((s_high << 64 | s_low) + inc) * _PCG64_MULT + inc & _MASK_128, inc))
    return starts


@dataclass(frozen=True)
class SimDataset:
    """Synthetic labelled pool with a fixed train/test split."""

    features: np.ndarray  # (n, f) float64
    labels: np.ndarray    # (n,) int64
    num_classes: int
    train_idx: np.ndarray  # sorted positions into features/labels
    test_idx: np.ndarray

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    def train_labels(self) -> np.ndarray:
        return self.labels[self.train_idx]


def make_task(num_classes: int, num_features: int, n_samples: int, seed: int,
              separation: float = SimSetup.separation) -> SimDataset:
    """Gaussian mixture task: one unit-covariance cluster per class.

    With num_features >= num_classes the class means sit on scaled
    coordinate axes so every pair of means is exactly `separation` apart;
    with fewer features the means are random directions of the same radius
    and pairwise distances only approximate it.  Labels are balanced and
    the 80/20 train/test split is disjoint.

    The features are drawn in place: besides the (n, f) float64 array
    they hold, the task needs its labels, its split and temporaries of
    _TASK_BLOCK_ROWS rows, not a second (n, f) block.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if num_features < 1:
        raise ValueError("num_features must be >= 1")
    if n_samples < 10:
        raise ValueError("n_samples must be >= 10")
    if not (math.isfinite(separation) and separation > 0):
        raise ValueError("separation must be finite and > 0")

    rng = np.random.default_rng(seed)
    radius = separation / math.sqrt(2.0)
    if num_features >= num_classes:
        means = np.zeros((num_classes, num_features))
        means[np.arange(num_classes), np.arange(num_classes)] = radius
    else:
        directions = rng.standard_normal((num_classes, num_features))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = radius * directions

    # Balanced labels: class c gets ceil or floor of n/m.
    labels = np.arange(n_samples, dtype=np.int64) % num_classes
    rng.shuffle(labels)
    # Shifted by the class means one row block at a time: normal + mean
    # is mean + normal bit for bit.
    features = np.empty((n_samples, num_features))
    rng.standard_normal(out=features)
    for start in range(0, n_samples, _TASK_BLOCK_ROWS):
        rows = slice(start, start + _TASK_BLOCK_ROWS)
        features[rows] += means[labels[rows]]

    perm = rng.permutation(n_samples)
    n_train = int(TRAIN_FRACTION * n_samples)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    train_idx.sort()
    test_idx.sort()

    for arr in (features, labels, train_idx, test_idx):
        arr.setflags(write=False)
    return SimDataset(features=features, labels=labels, num_classes=num_classes,
                      train_idx=train_idx, test_idx=test_idx)


def _blas_threads() -> int | None:
    """The thread count _BLAS_THREAD_VARS set, or None when none of them
    holds a positive count."""
    for var in _BLAS_THREAD_VARS:
        count = os.environ.get(var, "").strip()
        if count.isdigit() and int(count) > 0:
            return int(count)
    return None


def _eval_cpus() -> int:
    """The CPUs an evaluation may split its rows across: those this process
    may run on when numpy's BLAS runs one thread per call, else 1.

    A multithreaded OpenBLAS keeps its workers spinning on the other CPUs
    for about 0.1 s after each large product, so helper threads would
    compete with them (an evaluation of 40 000 rows ran about 3x slower).
    """
    if _blas_threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _eval_parts(n: int) -> list[slice]:
    """The row ranges an evaluation of n rows is split into: one per CPU
    that _eval_cpus gives, at most one per whole _EVAL_BLOCK_ROWS block,
    and just [0, n) below two blocks.  Every cut is a multiple of
    _EVAL_BLOCK_ROWS and the parts differ by at most one block; the last
    also takes the rows after the last whole block."""
    # Smaller inputs skip _eval_cpus, which reads the environment.
    parts = min(_eval_cpus(), n // _EVAL_BLOCK_ROWS) if n >= 2 * _EVAL_BLOCK_ROWS else 1
    if parts < 2:
        return [slice(0, n)]
    blocks = -(-n // _EVAL_BLOCK_ROWS)
    cuts = [blocks * i // parts * _EVAL_BLOCK_ROWS for i in range(parts)] + [n]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _in_threads(fn: Callable[..., Any], calls: Sequence[tuple]) -> list[Any]:
    """fn(*args) for each args of calls: the first in this thread, the
    others in threads of their own, each under this thread's numpy error
    state.  Every thread is joined before this returns or raises; the
    first exception, in calls order, is raised here."""
    results: list[Any] = [None] * len(calls)
    errors: list[BaseException | None] = [None] * len(calls)
    state = dict(np.geterr(), call=np.geterrcall())

    def run(i: int) -> None:
        try:
            with np.errstate(**state):
                results[i] = fn(*calls[i])
        except BaseException as exc:  # handed to the calling thread
            errors[i] = exc

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, len(calls))]
    try:
        for t in helpers:
            t.start()
        run(0)
    finally:
        for t in helpers:
            if t.ident is not None:
                t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _with_bias(x: np.ndarray) -> np.ndarray:
    """x with a trailing feature column of ones (any leading axes)."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    out[..., -1] = 1.0
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the classifier: softmax head, optional hidden tanh layer.

    The private kernels (_logits, _softmax, _grad) take `layers`, the
    weight matrices _unpack returns for a stack of K parameter vectors,
    and K batches of bias-augmented inputs, shape (K, b, f+1): one batched
    matmul serves every client of a round.  _unpack returns views of the
    stack, so a caller that updates the stack in place (as _sgd does)
    unpacks it once and its layers stay current.
    """

    num_classes: int
    num_features: int
    hidden_units: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be >= 0")

    @property
    def dim(self) -> int:
        f, m, h = self.num_features, self.num_classes, self.hidden_units
        if h == 0:
            return m * (f + 1)
        return h * (f + 1) + m * (h + 1)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Zeros for the plain softmax model; scaled normals with a hidden
        layer (zero init would freeze all hidden units identically)."""
        if self.hidden_units == 0:
            return np.zeros(self.dim)
        f, m, h = self.num_features, self.num_classes, self.hidden_units
        w1 = rng.standard_normal(h * (f + 1)) / math.sqrt(f + 1)
        w2 = rng.standard_normal(m * (h + 1)) / math.sqrt(h + 1)
        return np.concatenate([w1, w2])

    def _stack(self, w: np.ndarray) -> np.ndarray:
        """One parameter vector as a stack of one."""
        if w.shape != (self.dim,):
            raise ValueError(f"parameter vector must have shape ({self.dim},)")
        return w[np.newaxis]

    def _unpack(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Views of a C-contiguous (K, dim) stack as (K, h, f+1) and
        (K, m, h+1) weight matrices, or as (K, m, f+1) and None without a
        hidden layer: the `layers` the kernels take."""
        f, m, h = self.num_features, self.num_classes, self.hidden_units
        k = w.shape[0]
        if h == 0:
            return w.reshape(k, m, f + 1), None
        split = h * (f + 1)
        return w[:, :split].reshape(k, h, f + 1), w[:, split:].reshape(k, m, h + 1)

    def _logits(self, layers: tuple[np.ndarray, np.ndarray | None], xb: np.ndarray,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
        """Logits for bias-augmented inputs (written into `out` when given),
        plus the bias-augmented hidden activations (None without a hidden
        layer)."""
        first, second = layers
        if second is None:
            x, head, hb = xb, first, None
        else:
            hb = _with_bias(np.tanh(xb @ first.transpose(0, 2, 1)))
            x, head = hb, second
        return np.matmul(x, head.transpose(0, 2, 1), out=out), hb

    def _softmax(self, layers: tuple[np.ndarray, np.ndarray | None],
                 xb: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Class probabilities for bias-augmented inputs (built in place on
        the logits), plus the augmented hidden activations.

        Each row's max is reduced across the class rows of a (classes,
        K*b) copy of the logits: one elementwise np.maximum per class
        instead of a short inner loop per row.  A max is exact in any
        order, and a signed zero or NaN it picks gives the same
        probabilities.  The row sum stays a sum along each row, since
        numpy adds a row pairwise and a sum across class rows would round
        differently.
        """
        probs, hb = self._logits(layers, xb)
        k, b, m = probs.shape
        by_class = np.ascontiguousarray(probs.transpose(2, 0, 1)).reshape(m, k * b)
        probs -= np.maximum.reduce(by_class).reshape(k, b, 1)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        return probs, hb

    def _grad(self, layers: tuple[np.ndarray, np.ndarray | None], xb: np.ndarray,
              onehot: np.ndarray) -> np.ndarray:
        """Gradient of each client's mean cross-entropy on its batch.

        layers is the _unpack of the (K, dim) stack, xb the (K, b, f+1)
        augmented batches and onehot their (K, b, m) one-hot labels;
        returns (K, dim).
        """
        k, b = xb.shape[:2]
        dz, hb = self._softmax(layers, xb)
        dz -= onehot
        dz /= b
        if hb is None:
            return (dz.transpose(0, 2, 1) @ xb).reshape(k, -1)
        second = layers[1]
        assert second is not None
        g2 = dz.transpose(0, 2, 1) @ hb
        dh = (dz @ second[:, :, :-1]) * (1.0 - hb[:, :, :-1] ** 2)
        g1 = dh.transpose(0, 2, 1) @ xb
        return np.concatenate([g1.reshape(k, -1), g2.reshape(k, -1)], axis=1)

    def _onehot(self, y: np.ndarray) -> np.ndarray:
        return np.eye(self.num_classes).take(y, axis=0)

    def loss_and_grad(self, w: np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean cross-entropy over the batch and its gradient in w."""
        b = x.shape[0]
        if b == 0:
            raise ValueError("batch must be non-empty")
        layers = self._unpack(self._stack(w))
        xb = _with_bias(x)[np.newaxis]
        probs, _ = self._softmax(layers, xb)
        loss = float(-np.mean(np.log(probs[0, np.arange(b), y] + 1e-300)))
        return loss, self._grad(layers, xb, self._onehot(y)[np.newaxis])[0]

    def _hits(self, layers: tuple[np.ndarray, np.ndarray | None], xb: np.ndarray,
              y: np.ndarray, out: np.ndarray | None = None) -> int:
        """How many rows of the bias-augmented inputs xb are predicted as y;
        their (1, rows, classes) logits go into `out` when given."""
        logits, _ = self._logits(layers, xb[np.newaxis], out)
        return int(np.count_nonzero(logits[0].argmax(axis=1) == y))

    def _accuracy(self, w: np.ndarray, xb: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on bias-augmented inputs: the share of the n rows of xb
        predicted as y, which holds one label per row.  Raises ValueError,
        before predicting, when y is not n labels or n is 0.

        The rows are counted in the parts _eval_parts gives: this thread
        counts the first, and one short-lived thread each of the others
        (numpy's matmul and argmax release the GIL).  The parts write their
        logits into one buffer.  There is more than one part only under one
        BLAS thread, where cuts at whole blocks leave those logits the bytes
        of the whole product, so the count does not depend on the CPUs.
        """
        if np.shape(y) != (len(xb),):
            raise ValueError(f"labels have shape {np.shape(y)}, "
                             f"but the inputs have {len(xb)} rows")
        if not len(xb):
            raise ValueError("accuracy needs at least one row")
        layers = self._unpack(self._stack(w))
        parts = _eval_parts(len(xb))
        if len(parts) == 1:
            hits = self._hits(layers, xb, y)
        else:
            # One buffer, allocated here: logits allocated by each part in
            # its own thread raised simulate-cross-device's peak RSS from
            # 76.5 to 77.8 MB (2 CPUs, numpy 2.4.6, glibc malloc).
            logits = np.empty((1, len(xb), self.num_classes))
            hits = sum(_in_threads(self._hits, [
                (layers, xb[rows], y[rows], logits[:, rows]) for rows in parts]))
        # The count over n is np.mean's float for any n under 2**53.
        return hits / len(xb)

    def accuracy(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        """Share of rows of x predicted as y.  x holds raw features, shape
        (n, f), or the same rows already bias-augmented, shape (n, f+1)."""
        if x.ndim == 2 and x.shape[1] == self.num_features + 1:
            return self._accuracy(w, x, y)
        return self._accuracy(w, _with_bias(x), y)


# What a _Draws may keep, in bytes: its read-only selections and order
# blocks (their data plus about 128 bytes each) and 952 bytes per client's
# generator (its derived_rng Generator, PCG64 and SeedSequence, as
# tracemalloc measured them with numpy 2.4.6).  Once full it keeps
# nothing more, so a long or large grid search holds at most this much, and
# a _Draws of 0 bytes keeps nothing.  A 40-cell grid of 10 rounds keeps
# under 1 MB; with large shards local SGD, not drawing, dominates, so the
# rest buys little.
_KEEP_BYTES = 16 << 20
_ARRAY_BYTES = 128
_GENERATOR_BYTES = 952


def _draw_orders(rng: np.random.Generator, n: int, epochs: int) -> np.ndarray:
    """The next `epochs` batch orders rng.permutation(n) gives, as a
    read-only (epochs, n) block of the smallest integer type that holds
    n - 1: indexing by it selects the same rows.  It is filled row by row,
    so no int64 block is built."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    block = np.empty((epochs, n), np.min_scalar_type(n - 1))
    for e in range(epochs):
        block[e] = rng.permutation(n)
    block.setflags(write=False)
    return block


class _Draws:
    """A seed's client selections and batch orders, each drawn once.

    Round r's clients depend only on (seed, pool size, clients per round,
    r) and client c's batch orders only on (seed, r, c, shard size), so
    runs with one seed that differ in alpha, local epochs or clients per
    round can share them.  Client c's orders in round r are those of
    derived_rng(seed, _STREAM_TRAIN, r, c).  Per (r, c, shard size) it
    keeps that generator, past the orders drawn so far, and their block:
    a run with more local epochs extends the block from the generator.
    Clients it does not keep draw through one PCG64 of the _Draws, set to
    each client's state in turn, from one _pcg64_starts pass (see _starts).
    The live optimize runner keeps one for its grid search and passes it
    to simulate (draws=).  It keeps at most keep_bytes (see _KEEP_BYTES);
    past that it hands out fresh draws, the same bits at the cost of
    drawing them again.
    """

    def __init__(self, seed: int, keep_bytes: int = _KEEP_BYTES):
        self.seed = seed
        self._room = keep_bytes
        self._selections: dict[tuple[int, int, int], np.ndarray] = {}
        self._orders: dict[tuple[int, int, int],
                           tuple[np.random.Generator, np.ndarray]] = {}
        self._rng = np.random.Generator(np.random.PCG64(0))

    def _take(self, nbytes: int) -> bool:
        """Reserve nbytes of the budget; False, reserving nothing, if full."""
        if nbytes > self._room:
            return False
        self._room -= nbytes
        return True

    def selection(self, pool_size: int, clients_per_round: int,
                  round_index: int) -> np.ndarray:
        """select_clients for this seed, read-only."""
        key = (pool_size, clients_per_round, round_index)
        chosen = self._selections.get(key)
        if chosen is None:
            chosen = select_clients(pool_size, clients_per_round, round_index, self.seed)
            chosen.setflags(write=False)
            if self._take(chosen.nbytes + _ARRAY_BYTES):
                self._selections[key] = chosen
        return chosen

    def _starts(self, round_index: int, clients: Sequence[int]) -> list[dict]:
        """Each client's fresh generator state for the round, as
        derived_rng(seed, _STREAM_TRAIN, round_index, c).bit_generator.state:
        one _pcg64_starts pass when every key is a uint32 word, else
        derived_rng itself (for a seed of 2**32 or more, say)."""
        if not clients:
            return []
        if not _word_keys((self.seed, round_index, *clients)):
            return [derived_rng(self.seed, _STREAM_TRAIN, round_index, c).bit_generator.state
                    for c in clients]
        words = np.empty((len(clients), 4), np.uint32)
        words[:] = (self.seed, _STREAM_TRAIN, round_index, 0)
        words[:, 3] = clients
        return [{"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                 "has_uint32": 0, "uinteger": 0}
                for state, inc in _pcg64_starts(words)]

    def round_orders(self, round_index: int, clients: Sequence[int], n: int,
                     epochs: int) -> np.ndarray:
        """The clients' first `epochs` batch orders of n samples, a
        read-only (K, epochs, n) block in selection order; row k is
        _draw_orders of client k's generator (the smallest index type).

        A client whose orders are kept reads its kept rows and draws any
        more from its kept generator.  A fresh client that is kept draws
        from its own derived_rng; the others draw through the shared
        PCG64, set to their start state.  A kept entry grows only while
        the budget has room; when full, the same rows are drawn from a
        copy of the kept state and the entry stays as it is.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        block = np.empty((len(clients), epochs, n), np.min_scalar_type(n - 1))
        fresh_bytes = epochs * n * block.itemsize + _ARRAY_BYTES + _GENERATOR_BYTES
        # (lane, first epoch to draw, kept generator or None, whether to
        # keep the result)
        draws: list[tuple[int, int, np.random.Generator | None, bool]] = []
        for k, client in enumerate(clients):
            kept = self._orders.get((round_index, client, n))
            if kept is None:
                draws.append((k, 0, None, self._take(fresh_bytes)))
                continue
            rng, rows = kept
            have = min(len(rows), epochs)
            block[k, :have] = rows[:have]
            if have < epochs:
                more = (epochs - have) * n * block.itemsize
                draws.append((k, have, rng, self._take(more)))
        starts = iter(self._starts(
            round_index, [clients[k] for k, _, rng, keep in draws if rng is None and not keep]))
        for k, first, rng, keep in draws:
            if rng is None and keep:
                rng = derived_rng(self.seed, _STREAM_TRAIN, round_index, clients[k])
            elif rng is None or not keep:
                state = next(starts) if rng is None else rng.bit_generator.state
                rng = self._rng
                rng.bit_generator.state = state
            for e in range(first, epochs):
                block[k, e] = rng.permutation(n)
            if keep:
                rows = block[k].copy()
                rows.setflags(write=False)
                self._orders[round_index, clients[k], n] = (rng, rows)
        block.setflags(write=False)
        return block


def _sgd(spec: ModelSpec, w: np.ndarray, xb: np.ndarray, y: np.ndarray,
         orders: np.ndarray, lr: float, batch_size: int) -> np.ndarray:
    """Mini-batch SGD of K clients from one start point, as one stack.

    xb (K, n, f+1) holds each client's bias-augmented samples, y (K, n)
    their labels and orders (K, epochs, n) their batch orders: epoch e
    reorders client k's samples by orders[k, e], then all clients
    step together over full passes, last short batch included.  Returns
    the (K, dim) trained parameters; row k equals client k trained alone.

    The samples and one-hot labels are flattened to (K*n, .) once, and
    each epoch takes its rows orders[:, e] + k*n with one ndarray.take
    per array (np.take without its Python wrapper).  That per-epoch index
    is K x n int64; the orders block stays at its 1 to 4 bytes per entry.
    The stack is unpacked into its layers once: each step subtracts in
    place (out -= step), which writes through those views, so every step
    reads the current weights.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError("lr must be finite and > 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    k, n = y.shape
    if n == 0:
        raise ValueError("cannot train on an empty shard")
    flat_xb = xb.reshape(k * n, -1)
    flat_onehot = spec._onehot(y.reshape(-1))
    first_row = np.arange(0, k * n, n)[:, np.newaxis]
    batches = [slice(start, start + batch_size) for start in range(0, n, batch_size)]
    out = np.repeat(w[np.newaxis], k, axis=0)
    layers = spec._unpack(out)
    for e in range(orders.shape[1]):
        rows = orders[:, e] + first_row
        xe, ye = flat_xb.take(rows, axis=0), flat_onehot.take(rows, axis=0)
        for batch in batches:
            step = spec._grad(layers, xe[:, batch], ye[:, batch])
            step *= lr
            out -= step
    return out


def sgd_epochs(w: np.ndarray, x: np.ndarray, y: np.ndarray, spec: ModelSpec,
               epochs: int, lr: float, batch_size: int,
               rng: np.random.Generator) -> np.ndarray:
    """Mini-batch SGD: full shuffled passes, last short batch included."""
    orders = _draw_orders(rng, len(y), epochs)
    return _sgd(spec, w, _with_bias(x)[np.newaxis], np.asarray(y)[np.newaxis],
                orders[np.newaxis], lr, batch_size)[0]


def train_local(w: np.ndarray, dataset: SimDataset, shard: np.ndarray,
                spec: ModelSpec, epochs: int, lr: float, batch_size: int,
                rng: np.random.Generator | int, *,
                cohort: Callable[[], np.ndarray] | None = None) -> tuple[np.ndarray, int]:
    """One client's local pass; returns (delta, shard size).

    rng draws each epoch's batch order (see sgd_epochs).  With `cohort`
    (simulate builds one per round), rng is instead the client's lane:
    its row of the (K, dim) stack that cohort() returns, trained from w.
    simulate caches cohort, so the round's first call trains every lane
    in one batched _sgd call and later calls read their row; the result
    equals the client trained alone.
    """
    if len(shard) == 0:
        raise ValueError("cannot train on an empty shard")
    if cohort is None:
        trained = sgd_epochs(w, dataset.features[shard], dataset.labels[shard],
                             spec, epochs, lr, batch_size, rng)
    else:
        trained = cohort()[rng]
    return trained - w, int(len(shard))


def select_clients(pool_size: int, clients_per_round: int, round_index: int,
                   seed: int) -> np.ndarray:
    """Sampling without replacement, deterministic per (seed, round)."""
    if clients_per_round > pool_size:
        raise ValueError("clients_per_round must be <= pool_size")
    if clients_per_round < 1:
        raise ValueError("clients_per_round must be >= 1")
    rng = derived_rng(seed, _STREAM_SELECT, round_index)
    chosen = rng.choice(pool_size, size=clients_per_round, replace=False)
    return np.sort(chosen)


def weighted_delta(updates: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Sample-weighted mean of client deltas, added strictly in list order.

    Each sample count is an int or numpy integer >= 1, not a bool.  Each
    (n_k / total) * delta_k is added in turn into zeros, so the mean
    starts from +0.0 (0.0 + -0.0 is +0.0).  One (K+1, *shape) block
    summed by np.add.accumulate gives the same bits but was measured
    slower at every K from 1 to 100, so the loop stays.
    """
    if not updates:
        raise ValueError("need at least one update")
    dim = updates[0][0].shape
    total = 0
    for delta, n_k in updates:
        if delta.shape != dim:
            raise ValueError("all deltas must share one shape")
        if not ((_integer(n_k) or isinstance(n_k, np.integer)) and n_k >= 1):
            raise ValueError("every update needs a sample count >= 1")
        total += int(n_k)
    acc = np.zeros(dim)
    for delta, n_k in updates:
        acc += (n_k / total) * delta
    return acc


def fedavg_aggregate(w: np.ndarray,
                     updates: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """w plus the sample-weighted mean delta."""
    avg = weighted_delta(updates)
    if avg.shape != w.shape:
        raise ValueError("delta shape must match the parameter vector")
    return w + avg


@dataclass(frozen=True)
class AdamState:
    """Server-side first and second moment accumulators."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim))


def fedadam_aggregate(state: AdamState, w: np.ndarray, delta: np.ndarray,
                      server_lr: float, beta1: float, beta2: float,
                      tau: float) -> tuple[np.ndarray, AdamState]:
    """Adam-style server step on the averaged client delta.

    m <- b1 m + (1-b1) d;  v <- b2 v + (1-b2) d^2;
    w' = w + lr * m / (sqrt(v) + tau).  No bias correction.
    """
    if delta.shape != w.shape or state.m.shape != w.shape or state.v.shape != w.shape:
        raise ValueError("state, weights and delta must share one shape")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta coefficients must lie in [0, 1)")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be finite and > 0")
    if not (math.isfinite(server_lr) and server_lr > 0):
        raise ValueError("server_lr must be finite and > 0")
    m = beta1 * state.m + (1.0 - beta1) * delta
    v = beta2 * state.v + (1.0 - beta2) * delta ** 2
    new_w = w + server_lr * m / (np.sqrt(v) + tau)
    return new_w, AdamState(m=m, v=v)


@dataclass(frozen=True)
class AccuracyTrace:
    """Per-round test accuracy."""

    accuracies: tuple[float, ...]

    @property
    def rounds(self) -> int:
        return len(self.accuracies)


def _assign(dataset: SimDataset, partition: Partition,
            seed: int) -> tuple[Assignment, np.ndarray]:
    """The seed's sample assignment and the read-only (clients, spc) block
    of each client's rows of the dataset."""
    assignment = assign_samples(dataset.train_labels(), partition,
                                np.random.SeedSequence([seed, _STREAM_ASSIGN]))
    shards = dataset.train_idx[assignment.per_client]
    shards.setflags(write=False)
    return assignment, shards


def simulate(cfg: ExperimentConfig, dataset: SimDataset, partition: Partition, *,
             shards: np.ndarray | None = None, draws: _Draws | None = None,
             ) -> tuple[AccuracyTrace, RoundSchedule, np.ndarray]:
    """Run federated rounds until the accuracy target or the round cap.

    The run is the config's: its 'fl' and 'sim' blocks (fl.rounds is the
    round cap), its seed and its hardware.  dataset and partition are the
    task it trains on, usually the ones build_federation(cfg) draws; a
    'sim' block whose classes, features or set samples_per_client differ
    from that task raises ValueError naming the field.
    Wall time per round is local_epochs times the profiled epoch time.
    The returned schedule lists exactly the clients that trained, so it
    can be priced directly; the third element is the final parameter
    vector, so degenerate runs can be compared against plain SGD.
    `shards`, a (pool_size, n) integer array whose row k holds client k's
    rows of the dataset, skips the sample assignment; pass the block
    build_federation drew for the same seed.  `draws`, a _Draws of the
    config's seed, supplies the selections and batch orders and keeps
    them for the next run; without it a _Draws of 0 bytes draws them and
    keeps nothing.

    A round's clients train as one stack (see _sgd): one train_local call
    per client, all sharing the round's one cached _sgd call.  Their batch
    orders are drawn as one (K, local_epochs, n) block (see
    _Draws.round_orders), seeded in one pass from each client's
    (seed, round, client) words, so a round holds K x local_epochs x n
    order entries of 1 to 4 bytes each, once.  Their deltas are
    aggregated in selection order, so the result equals training them one
    by one.

    A round that leaves the parameters, or FedAdam's second moment, not
    finite raises ValueError naming the round; numpy's overflow warnings
    on the way to it are silenced.
    """
    fl, sim = _fl_and_sim(cfg)
    if partition.num_clients != fl.pool_size:
        raise ValueError(
            f"partition covers {partition.num_clients} clients, "
            f"config declares {fl.pool_size}")
    if partition.num_classes != dataset.num_classes:
        raise ValueError("partition and dataset disagree on the class count")
    _check_declared(sim, "classes", dataset.num_classes, "the dataset's class count")
    _check_declared(sim, "features", dataset.num_features, "the dataset's feature count")
    _check_declared(sim, "samples_per_client", partition.samples_per_client,
                    "the partition's samples per client")
    if shards is None:
        _, shards = _assign(dataset, partition, cfg.seed)
    elif not (isinstance(shards, np.ndarray) and shards.ndim == 2):
        raise ValueError("shards must be a 2-d (clients, samples) array")
    elif shards.dtype.kind not in "iu":
        raise ValueError(f"shards must hold integer row indices, not {shards.dtype}")
    elif len(shards) != fl.pool_size:
        raise ValueError(
            f"{len(shards)} shards given, config declares {fl.pool_size} clients")
    _check_declared(sim, "samples_per_client", shards.shape[1], "the shard width")
    if draws is None:
        draws = _Draws(cfg.seed, keep_bytes=0)
    elif draws.seed != cfg.seed:
        raise ValueError(f"draws are for seed {draws.seed}, config seed is {cfg.seed}")

    spec = ModelSpec(dataset.num_classes, dataset.num_features, sim.hidden_units)
    w = spec.init_params(derived_rng(cfg.seed, _STREAM_INIT))
    adam = AdamState.zeros(spec.dim)

    xb_test = _with_bias(dataset.features[dataset.test_idx])
    y_test = dataset.labels[dataset.test_idx]
    round_time = _training_time_s(cfg)

    accuracies: list[float] = []
    clients: list[np.ndarray] = []
    with np.errstate(all="ignore"):
        for r in range(fl.rounds):
            selected = draws.selection(fl.pool_size, fl.clients_per_round, r)
            chosen = selected.tolist()
            clients.append(selected)
            rows = shards[selected]
            cohort = functools.cache(functools.partial(
                _sgd, spec, w, _with_bias(dataset.features.take(rows, axis=0)),
                dataset.labels.take(rows, axis=0),
                draws.round_orders(r, chosen, shards.shape[1], fl.local_epochs),
                sim.client_lr, sim.batch_size))
            updates = [train_local(w, dataset, shards[cid], spec, fl.local_epochs,
                                   sim.client_lr, sim.batch_size, lane,
                                   cohort=cohort)
                       for lane, cid in enumerate(chosen)]
            if fl.strategy == "fedavg":
                w = fedavg_aggregate(w, updates)
            else:
                w, adam = fedadam_aggregate(adam, w, weighted_delta(updates),
                                            sim.server_lr, sim.beta1,
                                            sim.beta2, sim.tau)
            # Overflow leaves parameters that are not finite: numpy's
            # warnings on the way are silenced and the run stops here.
            if not np.isfinite(w).all():
                raise ValueError(f"round {r + 1}: training diverged: "
                                 "the parameters are not finite")
            if not np.isfinite(adam.v).all():
                raise ValueError(f"round {r + 1}: training diverged: "
                                 "FedAdam's second moment is not finite")
            accuracies.append(spec.accuracy(w, xb_test, y_test))
            if accuracies[-1] >= sim.target_accuracy:
                break

    executed = len(accuracies)
    schedule = RoundSchedule._same_device(
        executed, np.reshape(clients, (executed, fl.clients_per_round)),
        round_time, cfg.hardware)
    return AccuracyTrace(tuple(accuracies)), schedule, w


def _check_declared(sim: SimSetup, field: str, value: int, what: str) -> None:
    """ValueError naming sim.<field> unless that field is unset (None) or
    equals `value`, which `what` names."""
    declared = getattr(sim, field)
    if declared is not None and declared != value:
        raise ValueError(f"sim.{field} is {declared}, but {what} is {value}")


def centralized_sgd(dataset: SimDataset, periods: int, epochs_per_period: int,
                    lr: float, batch_size: int, seed: int,
                    hidden_units: int = 0) -> tuple[np.ndarray, tuple[float, ...]]:
    """Plain SGD on the full train split, evaluated every few epochs.

    Batch shuffles derive from (seed, period, client 0), so a one-client
    full-participation federated run with the same seed consumes the
    identical batch sequence.
    """
    spec = ModelSpec(dataset.num_classes, dataset.num_features, hidden_units)
    w = spec.init_params(derived_rng(seed, _STREAM_INIT))
    xb_train = _with_bias(dataset.features[dataset.train_idx])[np.newaxis]
    y_train = dataset.labels[dataset.train_idx][np.newaxis]
    xb_test = _with_bias(dataset.features[dataset.test_idx])
    y_test = dataset.labels[dataset.test_idx]
    accuracies: list[float] = []
    for p in range(periods):
        orders = _draw_orders(derived_rng(seed, _STREAM_TRAIN, p, 0),
                              y_train.shape[1], epochs_per_period)
        w = _sgd(spec, w, xb_train, y_train, orders[np.newaxis], lr, batch_size)[0]
        accuracies.append(spec._accuracy(w, xb_test, y_test))
    return w, tuple(accuracies)


def rounds_to_target(trace: AccuracyTrace, target: float) -> int | None:
    """1-based first round whose accuracy reaches target, None if never."""
    if not (0.0 <= target <= 1.0):
        raise ValueError("target must lie in [0, 1]")
    for i, acc in enumerate(trace.accuracies):
        if acc >= target:
            return i + 1
    return None


def _resolve_prior(setting: str | tuple[float, ...], dataset: SimDataset) -> ClassPrior:
    if setting == "uniform":
        return uniform_prior(dataset.num_classes)
    if setting == "empirical":
        counts = np.bincount(dataset.train_labels(), minlength=dataset.num_classes)
        return empirical_prior([int(c) for c in counts])
    return ClassPrior(tuple(setting))


def _fl_and_sim(cfg: ExperimentConfig) -> tuple[FlSetup, SimSetup]:
    """The config's 'fl' and 'sim' blocks; the one check that a config can
    be simulated."""
    if cfg.fl is None or cfg.sim is None:
        raise ValueError("simulation needs a federated config with 'fl' and 'sim' objects")
    return cfg.fl, cfg.sim


@dataclass(frozen=True)
class Federation:
    """A config's task, class prior, per-client class mixes and samples.

    shards is a read-only (clients, samples_per_client) block whose row k
    holds client k's rows of dataset.features; assignment holds the same
    samples as positions into the train split.
    """

    dataset: SimDataset
    prior: ClassPrior
    partition: Partition
    assignment: Assignment
    shards: np.ndarray


def build_federation(cfg: ExperimentConfig,
                     dataset: SimDataset | None = None) -> Federation:
    """Draw the task, the partition and the sample assignment of a config.

    Pass `dataset` to reuse a task already built from the same seed and
    'sim' block (the task does not depend on alpha, the round structure
    or the target); only the partition and the assignment are drawn then.
    """
    fl, sim = _fl_and_sim(cfg)
    if dataset is None:
        dataset = make_task(sim.classes, sim.features, sim.n_samples,
                            seed=cfg.seed, separation=sim.separation)
    prior = _resolve_prior(sim.prior, dataset)
    spc = sim.samples_per_client
    if spc is None:
        spc = len(dataset.train_idx) // fl.pool_size
        if spc < 1:
            raise ValueError("pool is larger than the training split")
    partition = lda_partition(prior, sim.alpha, fl.pool_size, spc,
                              np.random.SeedSequence([cfg.seed, _STREAM_PARTITION]))
    assignment, shards = _assign(dataset, partition, cfg.seed)
    return Federation(dataset, prior, partition, assignment, shards)


def run_experiment(cfg: ExperimentConfig) -> tuple[AccuracyTrace, RoundSchedule, Federation]:
    """Wire a federated config end to end: task, partition, simulation.

    The federation the run trained on comes back with the trace and the
    schedule, so callers can read its dataset and its assignment's
    exhaustion warnings without drawing them again.
    """
    fed = build_federation(cfg)
    trace, schedule, _ = simulate(cfg, fed.dataset, fed.partition, shards=fed.shards)
    return trace, schedule, fed
