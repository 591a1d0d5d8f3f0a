"""Skip-gram with negative sampling (SGNS) trained directly in numpy.

This is the word2vec objective applied to random-walk corpora: maximise
log σ(u_c · v_ctx) + Σ_neg log σ(−u_c · v_neg).  Updates are hand-derived
SGD (no autograd) because the sparse gather/scatter pattern is far more
efficient that way — exactly why gensim does the same.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence, Tuple

import numpy as np

from repro.features.node2vec.alias import AliasTable
from repro.utils.rng import SeedLike, new_rng


def _tokens(walks: Sequence[Sequence[int]]) -> np.ndarray:
    return np.fromiter(chain.from_iterable(walks), dtype=np.int64)


def build_training_pairs(
    walks: Sequence[Sequence[int]],
    window: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Extract (center, context) pairs with a per-center random window ≤ window.

    Random window shrinkage matches word2vec and downweights distant
    contexts.  Returns an array of shape (P, 2), ordered by walk, center
    position, then context position.  Each walk of two or more nodes draws
    its spans with one ``rng.integers`` call, in walk order; the pairs are
    one masked gather over a (walk, position, offset) grid.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    rng = new_rng(rng)
    lengths = np.array([len(walk) for walk in walks], dtype=np.int64)
    width = int(lengths.max(initial=0))
    grid = np.zeros((lengths.size, width), dtype=np.int64)
    grid[np.arange(width) < lengths[:, None]] = _tokens(walks)
    spans = np.zeros_like(grid)
    for row, length in enumerate(lengths.tolist()):
        if length >= 2:
            spans[row, :length] = rng.integers(1, window + 1, size=length)
    # Context slot s of the center at position i is position other[i, s].
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    other = np.arange(width)[:, None] + offsets
    inside = (other >= 0) & (other < lengths[:, None, None])
    walk, center, slot = np.nonzero(inside & (np.abs(offsets) <= spans[:, :, None]))
    return np.stack([grid[walk, center], grid[walk, other[center, slot]]], axis=1)


def unigram_table(
    walks: Sequence[Sequence[int]], num_nodes: int, power: float = 0.75
) -> AliasTable:
    """Negative-sampling distribution ∝ count(node)^power over walk tokens."""
    counts = np.bincount(_tokens(walks), minlength=num_nodes)
    if counts.size > num_nodes:
        raise ValueError(f"walk token {counts.size - 1} >= num_nodes={num_nodes}")
    weights = counts.astype(np.float64) ** power
    if weights.sum() == 0:
        weights[:] = 1.0
    return AliasTable(weights)


def _scatter_mean_update(
    table: np.ndarray, indices: np.ndarray, grads: np.ndarray, lr: float
) -> None:
    """table[i] -= lr * mean of grads rows assigned to i (in place).

    One weighted ``bincount`` over flat (row, column) cells adds each cell's
    gradients from 0.0 in occurrence order, the bits of ``np.add.at``.  Rows
    no index hits have a zero sum, so with ``lr > 0`` they subtract exactly
    +0.0 and keep their bits.
    """
    num_rows, dim = table.shape
    cells = (indices[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=grads.ravel(), minlength=num_rows * dim)
    counts = np.bincount(indices, minlength=num_rows)
    table -= lr * sums.reshape(num_rows, dim) / np.maximum(counts, 1)[:, None]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """σ(x) from one ``exp``: with e = exp(−min(|x|, 50)), 1/(1+e) for x ≥ 0
    and e/(1+e) below, which never overflows."""
    e = np.exp(-np.minimum(np.abs(x), 50.0))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sgns_loss(pos_score: np.ndarray, neg_score: np.ndarray) -> float:
    """Mean SGNS loss −log σ(x_pos) − Σ log σ(−x_neg) of a batch's σ scores."""
    eps = 1e-10
    loss = -np.log(pos_score + eps).mean() - np.log(1 - neg_score + eps).sum(
        axis=1
    ).mean()
    return float(loss)


class SkipGramModel:
    """SGNS embedding trainer over integer token ids 0..num_nodes-1."""

    def __init__(self, num_nodes: int, dim: int, rng: SeedLike = None) -> None:
        if num_nodes <= 0 or dim <= 0:
            raise ValueError("num_nodes and dim must be positive")
        rng = new_rng(rng)
        self.num_nodes = num_nodes
        self.dim = dim
        bound = 0.5 / dim
        self.w_in = rng.uniform(-bound, bound, size=(num_nodes, dim))
        self.w_out = np.zeros((num_nodes, dim))
        self._rng = rng

    def train(
        self,
        pairs: np.ndarray,
        negatives: AliasTable,
        epochs: int = 1,
        lr: float = 0.05,
        num_negative: int = 5,
        batch_size: int = 32,
    ) -> float:
        """Train over (center, context) ``pairs``; returns the final batch loss."""
        if pairs.size == 0:
            return 0.0
        if min(epochs, num_negative, lr, batch_size) <= 0:
            raise ValueError("epochs, num_negative, lr and batch_size must be positive")
        n_pairs = len(pairs)
        for epoch in range(epochs):
            shuffled = pairs[self._rng.permutation(n_pairs)]
            # Linear learning-rate decay across all epochs, as in word2vec.
            for start in range(0, n_pairs, batch_size):
                progress = (epoch * n_pairs + start) / (epochs * n_pairs)
                step = lr * max(1.0 - progress, 1e-4 / lr)
                batch = shuffled[start : start + batch_size]
                scores = self._train_batch(batch, negatives, step, num_negative)
        return sgns_loss(*scores)

    def _train_batch(
        self,
        batch: np.ndarray,
        negatives: AliasTable,
        lr: float,
        num_negative: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One SGD step on ``batch``; returns its σ scores from before the
        step, positive (B,) and negative (B, K), for :func:`sgns_loss`."""
        centers = batch[:, 0]
        contexts = batch[:, 1]
        b = len(batch)
        neg = negatives.sample(self._rng, size=b * num_negative).reshape(
            b, num_negative
        )

        v_c = self.w_in[centers]  # (B, D)
        u_pos = self.w_out[contexts]  # (B, D)
        u_neg = self.w_out[neg]  # (B, K, D)

        pos_score = _sigmoid(np.einsum("bd,bd->b", v_c, u_pos))
        neg_score = _sigmoid(np.einsum("bd,bkd->bk", v_c, u_neg))

        # Gradients of -log σ(x_pos) - Σ log σ(-x_neg).
        g_pos = pos_score - 1.0  # (B,)
        g_neg = neg_score  # (B, K)

        grad_vc = g_pos[:, None] * u_pos + np.einsum("bk,bkd->bd", g_neg, u_neg)
        grad_upos = g_pos[:, None] * v_c
        grad_uneg = g_neg[:, :, None] * v_c[:, None, :]

        # A node can occur many times within one batch (few distinct tokens,
        # many pairs).  Summing its stale gradients multiplies the effective
        # step size by its occurrence count and diverges; averaging per row
        # keeps the update equivalent to one SGD step at the row level.
        _scatter_mean_update(self.w_in, centers, grad_vc, lr)
        _scatter_mean_update(self.w_out, contexts, grad_upos, lr)
        _scatter_mean_update(
            self.w_out, neg.reshape(-1), grad_uneg.reshape(-1, self.dim), lr
        )
        return pos_score, neg_score

    @property
    def embeddings(self) -> np.ndarray:
        """The learned input embeddings (standard choice for downstream use)."""
        return self.w_in
