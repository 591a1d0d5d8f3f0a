"""Second-order biased random walks (Grover & Leskovec, 2016).

The walk from ``prev`` standing at ``cur`` chooses the next node ``x`` with
unnormalised probability w(cur, x) · bias, where bias = 1/p if x == prev,
1 if x is adjacent to prev, and 1/q otherwise.  p controls return
likelihood, q the inward/outward (BFS/DFS) balance.

All walks of a pass advance in lockstep.  Each step maps one uniform draw u
per walk to the count of its row's CDF entries ≤ u, which is exactly how
``rng.choice(candidates, p=probs)`` picks, and the draws are taken in the
order one ``choice`` per step would take them, so the walks are bit-for-bit
those of a per-step walker.  The CDF rows are built once per key: the
current node when p = q = 1 (every bias is then 1), otherwise the
(prev, cur) edge, like the reference implementation's per-edge alias
tables.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.utils.rng import SeedLike, new_rng


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``arange(start, start + size)`` for each start and size, end to end."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)


def _cdf_rows(probs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per row of ``probs`` (laid end to end): ``probs / probs.sum()``, then
    ``cumsum`` divided by its last entry -- the float ops of
    ``rng.choice(p=probs / probs.sum())``.  Rows of one length go as one
    block: a row-wise sum and cumsum give the 1-D bits.  A row whose sum is
    not finite and positive (p or q so extreme that a bias overflows)
    raises ``ValueError``."""
    cdf = np.empty_like(probs)
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes[sizes > 0]):
        cells = starts[sizes == size, None] + np.arange(size)
        block = probs[cells]
        totals = block.sum(axis=1, keepdims=True)
        if not np.all((totals > 0) & (totals < np.inf)):
            raise ValueError("a transition row's weight is not finite and positive")
        block = (block / totals).cumsum(axis=1)
        cdf[cells] = block / block[:, -1:]
    return cdf


class WalkGenerator:
    """Generates node2vec walks over a weighted undirected graph."""

    def __init__(
        self,
        graph: nx.Graph,
        p: float = 1.0,
        q: float = 1.0,
    ) -> None:
        if p <= 0 or q <= 0:
            raise ValueError(f"p and q must be positive, got p={p}, q={q}")
        if graph.is_directed():
            raise ValueError("node2vec walks need an undirected graph")
        self.p = p
        self.q = q
        self.nodes = sorted(graph.nodes)
        self._ids = np.asarray(self.nodes, dtype=np.int64)
        self._index = {node: i for i, node in enumerate(self.nodes)}

        # Adjacency in CSR form over positions in ``nodes``, each node's
        # neighbours sorted by id.
        neighbors: List[int] = []
        weights: List[float] = []
        self._degree = np.zeros(len(self.nodes), dtype=np.int64)
        for i, node in enumerate(self.nodes):
            items = sorted(graph[node].items())
            row = np.array(
                [attrs.get("weight", 1.0) for _, attrs in items], dtype=np.float64
            )
            valid = np.all(np.isfinite(row)) and np.all(row >= 0) and np.any(row > 0)
            if items and not valid:
                raise ValueError(
                    f"node {node}: edge weights must be finite, non-negative "
                    "and not all zero"
                )
            neighbors.extend(self._index[v] for v, _ in items)
            weights.extend(row)
            self._degree[i] = len(items)
        self._indptr = np.concatenate([[0], np.cumsum(self._degree)])
        self._targets = np.asarray(neighbors, dtype=np.int64)
        self._weights = np.asarray(weights, dtype=np.float64)

        # Key k < n: a first step from node k (a plain weighted choice, and
        # every step when p = q = 1).  Key n + e: a step after crossing CSR
        # edge e, over the neighbours of its target.
        self._by_edge = not (p == 1 and q == 1)
        probs, sizes = self._weights, self._degree
        if self._by_edge:
            probs, sizes = self._edge_rows()
        self._row_ptr = np.concatenate([[0], np.cumsum(sizes)])
        self._cdf = _cdf_rows(probs, sizes)

    def _edge_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Node rows followed by one biased row per directed edge."""
        n = len(self.nodes)
        sources = np.repeat(np.arange(n), self._degree)
        cur = self._targets
        sizes = self._degree[cur]
        entry = _ranges(self._indptr[cur], sizes)
        prev = np.repeat(sources, sizes)
        candidates = self._targets[entry]
        # (prev, candidate) is an edge iff its code is among the CSR codes,
        # which are sorted because sources and each row's targets are.
        codes = sources * n + self._targets
        query = prev * n + candidates
        found = np.minimum(np.searchsorted(codes, query), codes.size - 1)
        bias = np.where(
            candidates == prev,
            1.0 / self.p,
            np.where(codes[found] == query, 1.0, 1.0 / self.q),
        )
        probs = np.concatenate([self._weights, self._weights[entry] * bias])
        return probs, np.concatenate([self._degree, sizes])

    def _choose(self, keys: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per walk, the count of entries ≤ u in its key's CDF row."""
        start = self._row_ptr[keys]
        sizes = self._row_ptr[keys + 1] - start
        walk = np.repeat(np.arange(keys.size), sizes)
        below = self._cdf[_ranges(start, sizes)] <= u[walk]
        return np.bincount(walk, weights=below, minlength=keys.size).astype(np.int64)

    def _walks(
        self, starts: Sequence[int], length: int, rng: np.random.Generator
    ) -> List[List[int]]:
        """One walk per start, all advanced together.

        Walks from isolated nodes (or of length 1) stay singletons and draw
        nothing; the others draw ``length - 1`` uniforms each, walk by walk,
        from one ``rng.random`` call.  The graph is undirected and every
        row has weight, so no walk dead-ends before ``length``.
        """
        index = np.array([self._index[node] for node in starts], dtype=np.int64)
        walks = [[node] for node in starts]
        movers = np.flatnonzero(self._degree[index] > 0)
        if length <= 1 or movers.size == 0:
            return walks
        draws = rng.random(movers.size * (length - 1)).reshape(movers.size, -1)
        path = np.empty((movers.size, length), dtype=np.int64)
        path[:, 0] = keys = index[movers]
        for step in range(length - 1):
            entry = self._indptr[path[:, step]] + self._choose(keys, draws[:, step])
            path[:, step + 1] = self._targets[entry]
            keys = entry + len(self.nodes) if self._by_edge else path[:, step + 1]
        for mover, walk in zip(movers, self._ids[path].tolist()):
            walks[mover] = walk
        return walks

    def walk_from(self, start: int, length: int, rng: np.random.Generator) -> List[int]:
        """One biased walk of at most ``length`` nodes starting at ``start``."""
        if start not in self._index:
            return [start]
        return self._walks([start], length, rng)[0]

    def generate(
        self,
        num_walks: int,
        walk_length: int,
        rng: SeedLike = None,
    ) -> List[List[int]]:
        """``num_walks`` walks per node, each of length ``walk_length``.

        Node order is shuffled between passes, as in the reference
        implementation, so co-occurring pairs are not biased by node id.
        """
        if num_walks <= 0 or walk_length <= 0:
            raise ValueError("num_walks and walk_length must be positive")
        rng = new_rng(rng)
        walks: List[List[int]] = []
        nodes = list(self.nodes)
        for _ in range(num_walks):
            rng.shuffle(nodes)
            walks.extend(self._walks(nodes, walk_length, rng))
        return walks
