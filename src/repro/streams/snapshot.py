"""Accumulated graph snapshots G(n) = (V(n), E(n), Ω(n)) (paper §II-A).

A snapshot is the static weighted graph formed by all edges that have
arrived so far; SPLASH uses the training-period snapshot G(s) as the input
to positional embedding (node2vec), Eq. (1).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import networkx as nx
import numpy as np

from repro.streams.ctdg import CTDG


class GraphSnapshot:
    """Incremental weighted-graph accumulator over an edge stream."""

    def __init__(self) -> None:
        self._adjacency: Dict[int, Dict[int, float]] = {}
        self._num_edges_distinct = 0

    def observe_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        """Add ``weight`` to Ω((src, dst)); inserts endpoints as needed."""
        ends = ((src, dst),) if src == dst else ((src, dst), (dst, src))
        for a, b in ends:
            row = self._adjacency.setdefault(a, {})
            if b not in row and a <= b:
                self._num_edges_distinct += 1
            row[b] = row.get(b, 0.0) + weight

    @property
    def nodes(self) -> Set[int]:
        return set(self._adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Distinct undirected edge count |E(n)| (not multiplicities)."""
        return self._num_edges_distinct

    def weight(self, src: int, dst: int) -> float:
        """Ω((src, dst)); 0.0 for absent pairs."""
        return self._adjacency.get(src, {}).get(dst, 0.0)

    def neighbors(self, node: int) -> List[Tuple[int, float]]:
        return sorted(self._adjacency.get(node, {}).items())

    def degree(self, node: int) -> int:
        return len(self._adjacency.get(node, {}))

    def to_networkx(self) -> nx.Graph:
        """Export as an undirected weighted ``networkx`` graph."""
        graph = nx.Graph()
        graph.add_nodes_from(self._adjacency)
        for src, row in self._adjacency.items():
            for dst, weight in row.items():
                if src <= dst:
                    graph.add_edge(src, dst, weight=weight)
        return graph

    @staticmethod
    def from_ctdg(ctdg: CTDG) -> "GraphSnapshot":
        snapshot = GraphSnapshot()
        for src, dst, weight in zip(ctdg.src, ctdg.dst, ctdg.weights):
            snapshot.observe_edge(int(src), int(dst), float(weight))
        return snapshot


def snapshot_sequence(ctdg: CTDG, num_snapshots: int) -> List[nx.Graph]:
    """Split a CTDG into ``num_snapshots`` cumulative time windows.

    Returns one networkx graph per window boundary; used by the DTDG
    baselines (DIDA, SLID) which operate on discrete snapshots.
    """
    if num_snapshots <= 0:
        raise ValueError(f"num_snapshots must be positive, got {num_snapshots}")
    if ctdg.num_edges == 0:
        return [nx.Graph() for _ in range(num_snapshots)]
    boundaries = np.quantile(ctdg.times, np.linspace(0, 1, num_snapshots + 1))[1:]
    graphs: List[nx.Graph] = []
    snapshot = GraphSnapshot()
    edge_ptr = 0
    for boundary in boundaries:
        while edge_ptr < ctdg.num_edges and ctdg.times[edge_ptr] <= boundary:
            snapshot.observe_edge(
                int(ctdg.src[edge_ptr]),
                int(ctdg.dst[edge_ptr]),
                float(ctdg.weights[edge_ptr]),
            )
            edge_ptr += 1
        graphs.append(snapshot.to_networkx())
    return graphs
