"""Dirichlet class-proportion partitioning of labelled data across clients.

Each client k receives an equal number of samples whose class mix follows
q_k ~ Dir(alpha * p), where p is a prior over classes.  Large alpha pushes
every q_k toward p (near IID shards), small alpha concentrates each q_k on
few classes.  The Dirichlet mean is p and the per-component variance is
p_i (1 - p_i) / (alpha + 1) when p sums to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ClassPrior",
    "Partition",
    "Assignment",
    "uniform_prior",
    "empirical_prior",
    "sample_dirichlet",
    "lda_partition",
    "assign_samples",
]

_SUM_TOL = 1e-9

# Most clients whose class counts assign_samples draws in one
# multinomial call; temporaries stay at (chunk, classes) scale.
_CHUNK = 512


@dataclass(frozen=True)
class ClassPrior:
    """Reference distribution over class labels: two or more classes, each
    with a finite proportion > 0 (as Dir(alpha * p) needs), summing to 1."""

    proportions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.proportions) < 2:
            raise ValueError("a class prior needs at least two classes")
        if not all(math.isfinite(p) and p > 0 for p in self.proportions):
            raise ValueError("prior proportions must be finite and > 0")
        total = sum(self.proportions)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"prior proportions must sum to 1, got {total!r}")

    @property
    def num_classes(self) -> int:
        return len(self.proportions)


def uniform_prior(num_classes: int) -> ClassPrior:
    """Equal mass 1/m on each of m classes."""
    if not (isinstance(num_classes, int) and num_classes >= 2):
        raise ValueError("num_classes must be an integer >= 2")
    return ClassPrior(tuple(1.0 / num_classes for _ in range(num_classes)))


def empirical_prior(class_counts: Sequence[int]) -> ClassPrior:
    """Class frequencies of an observed label pool, N_i / N."""
    counts = list(class_counts)
    if not all(isinstance(c, (int, np.integer)) and c >= 1 for c in counts):
        raise ValueError("class counts must be integers >= 1")
    total = sum(counts)
    return ClassPrior(tuple(c / total for c in counts))


def sample_dirichlet(alpha_vec: Sequence[float] | np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """One draw from Dir(alpha_vec); every concentration must be > 0."""
    alpha = np.asarray(alpha_vec, dtype=float)
    if alpha.ndim != 1 or alpha.size < 2:
        raise ValueError("alpha_vec must be a 1-d vector of length >= 2")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0):
        raise ValueError("every Dirichlet concentration must be finite and > 0")
    return rng.dirichlet(alpha)


@dataclass(frozen=True)
class Partition:
    """Per-client class proportions drawn for one partitioning run."""

    alpha: float
    per_client: np.ndarray  # shape (num_clients, num_classes), rows on the simplex
    samples_per_client: int

    @property
    def num_clients(self) -> int:
        return int(self.per_client.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.per_client.shape[1])


def lda_partition(prior: ClassPrior, alpha: float, num_clients: int,
                  samples_per_client: int,
                  seed: int | np.random.SeedSequence) -> Partition:
    """Draw q_k ~ Dir(alpha * prior) for each of num_clients clients."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and > 0")
    if not (isinstance(num_clients, int) and num_clients >= 1):
        raise ValueError("num_clients must be an integer >= 1")
    if not (isinstance(samples_per_client, int) and samples_per_client >= 1):
        raise ValueError("samples_per_client must be an integer >= 1")
    rng = np.random.default_rng(seed)
    concentration = alpha * np.asarray(prior.proportions, dtype=float)
    # Both factors are > 0, but a tiny alpha times a small p underflows to 0.
    if np.any(concentration <= 0):
        raise ValueError("every Dirichlet concentration must be finite and > 0")
    # One (num_clients, m) draw consumes the generator row by row, exactly
    # as num_clients single draws would.
    rows = rng.dirichlet(concentration, size=num_clients)
    rows.setflags(write=False)
    return Partition(alpha=float(alpha), per_client=rows,
                     samples_per_client=samples_per_client)


@dataclass(frozen=True)
class Assignment:
    """Concrete, disjoint per-client index sets drawn for a partition.

    per_client is a read-only (clients, samples_per_client) integer block
    whose row k holds client k's positions into the label pool, sorted.
    exhaustion_warnings counts the times a client's draw had to be
    re-spread over the classes that still had samples left.
    """

    per_client: np.ndarray
    exhaustion_warnings: int


def assign_samples(labels: Sequence[int] | np.ndarray, partition: Partition,
                   seed: int | np.random.SeedSequence) -> Assignment:
    """Map a label pool to disjoint per-client sample index sets.

    Each client draws samples_per_client labels from its q_k (as one
    multinomial) and takes that many unused samples of each class.  When a
    class runs dry the unmet remainder is redrawn from q_k renormalized
    over the classes that still have stock; each such event bumps the
    warning counter.  Raises when the whole pool cannot cover the request.

    Clients are drawn in chunks of at most _CHUNK rows.  A chunk takes the
    classes open at its start, masks its rows of q to them and draws all
    rows' class counts with one multinomial call; cumulative counts per
    class then show where a class runs out.  The chunk is cut at its first
    row that would run some class short (that row is left out) or empty a
    class exactly (that row is kept, since the next row's mask changes).
    After a cut the generator is rewound to the chunk's start and redraws
    exactly the kept rows.  Two kinds of row go through the one-client
    draw, _assign_one, which is the only place warnings are counted: a row
    that would run short, and a row whose q has no mass on an open class.
    Each later chunk holds at most twice the rows the one before it kept,
    plus one, so a nearly drained pool, which cuts often, does not draw
    whole chunks only to throw them away.

    The bits equal those of drawing client by client: a (C, m) multinomial
    call consumes the generator row by row, exactly as C one-row calls do;
    each kept row was drawn under the mask and the normalisation it would
    see on its own, since no class ran out before it in its chunk; and the
    rewind leaves the generator where the kept rows' own draws would.
    """
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError("labels must be a 1-d sequence")
    m = partition.num_classes
    if y.size and (y.min() < 0 or y.max() >= m):
        raise ValueError(f"labels must lie in [0, {m})")
    needed = partition.num_clients * partition.samples_per_client
    if needed > y.size:
        raise ValueError(
            f"label pool exhausted: {needed} samples requested, {y.size} available")

    rng = np.random.default_rng(seed)
    # Shuffled per-class stacks, laid end to end and handed out from the
    # end of each: the samples class c still has are
    # pool[start[c]:start[c] + avail[c]], so avail doubles as the cursor.
    stacks: list[np.ndarray] = []
    for c in range(m):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        stacks.append(idx)
    pool = np.concatenate(stacks)
    avail = np.array([len(s) for s in stacks])
    start = np.cumsum(avail) - avail

    # Every shard is a row of one (clients, spc) block: one allocation
    # instead of one per client keeps the heap of a 10 000-client run compact.
    n, spc = partition.num_clients, partition.samples_per_client
    block = np.empty((n, spc), dtype=int)
    warnings = 0
    k, size = 0, _CHUNK
    while k < n:
        open_mask = avail > 0
        weights = np.where(open_mask, partition.per_client[k:k + size], 0.0)
        totals = weights.sum(axis=1)
        dead = np.flatnonzero(totals <= 0)
        rows = int(dead[0]) if dead.size else len(totals)
        accepted, short = 0, False
        if rows:
            state = rng.bit_generator.state
            p = weights[:rows] / totals[:rows, None]
            draws = rng.multinomial(spc, p)
            taken = np.cumsum(draws, axis=0)
            stop = np.flatnonzero(((taken >= avail) & open_mask).any(axis=1))
            accepted = rows
            if stop.size:
                short = bool((taken[stop[0]] > avail).any())
                accepted = int(stop[0]) + (not short)
            if accepted < rows:
                rng.bit_generator.state = state
                if accepted:
                    rng.multinomial(spc, p[:accepted])
            if accepted:
                # Row i, class c takes the draws[i, c] samples just below
                # the cursor left by rows 0..i-1.
                counts = draws[:accepted].ravel()
                first = (start + avail - taken[:accepted]).ravel()
                offsets = np.cumsum(counts) - counts
                idx = np.repeat(first - offsets, counts) + np.arange(accepted * spc)
                chunk = block[k:k + accepted]
                chunk[:] = pool[idx].reshape(accepted, spc)
                chunk.sort(axis=1)
                avail -= taken[accepted - 1]
                k += accepted
        size = min(_CHUNK, 2 * accepted + 1)
        # The chunk stopped on a row that would run short or has no mass
        # on an open class: that row takes the one-client draw.
        if k < n and (short or accepted == rows < len(totals)):
            alloc, spilled = _assign_one(partition.per_client[k], avail, spc, rng)
            warnings += spilled
            taken_one = [pool[start[c] + avail[c]:start[c] + avail[c] + alloc[c]]
                         for c in np.flatnonzero(alloc)]
            np.concatenate(taken_one, out=block[k])
            block[k].sort()
            k += 1
    block.setflags(write=False)
    return Assignment(per_client=block, exhaustion_warnings=warnings)


def _assign_one(q_row: np.ndarray, avail: np.ndarray, spc: int,
                rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One client's per-class sample counts, drawn with redraws over the
    classes that still have stock; lowers avail and returns the counts and
    the number of warnings the client raised."""
    m = len(avail)
    q = np.array(q_row, dtype=float)
    alloc = np.zeros(m, dtype=int)
    warnings = 0
    need = spc
    while need > 0:
        open_mask = avail > 0
        if not open_mask.any():
            raise ValueError("label pool exhausted while assigning samples")
        weights = np.where(open_mask, q, 0.0)
        total = weights.sum()
        if total <= 0:
            # q's mass sits entirely on empty classes; fall back to
            # uniform over whatever is left.  The realized mix then
            # has nothing to do with q, which is worth a warning even
            # when the draw itself succeeds in one pass.
            weights = open_mask.astype(float)
            total = weights.sum()
            warnings += 1
        draw = rng.multinomial(need, weights / total)
        grant = np.minimum(draw, avail)
        alloc += grant
        avail -= grant
        need -= int(grant.sum())
        if need > 0:
            # Some requested class ran dry; the remainder is redrawn
            # over the classes that still have stock.
            warnings += 1
    return alloc, warnings
