"""Top-level node2vec API: graph in, embedding matrix out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np

from repro.features.node2vec.skipgram import (
    SkipGramModel,
    build_training_pairs,
    unigram_table,
)
from repro.features.node2vec.walks import WalkGenerator
from repro.utils.rng import SeedLike, new_rng


@dataclass
class Node2VecConfig:
    """Hyperparameters of node2vec (defaults follow the original paper,
    scaled down for CPU execution)."""

    dim: int = 64
    p: float = 1.0
    q: float = 1.0
    num_walks: int = 10
    walk_length: int = 20
    window: int = 5
    num_negative: int = 5
    epochs: int = 2
    lr: float = 0.05
    batch_size: int = 32


class Node2Vec:
    """Positional node embedding via biased walks + skip-gram (Eq. 1 backend)."""

    def __init__(
        self, config: Optional[Node2VecConfig] = None, rng: SeedLike = None
    ) -> None:
        self.config = config or Node2VecConfig()
        self._rng = new_rng(rng)
        self._model: Optional[SkipGramModel] = None

    def fit(self, graph: nx.Graph, num_nodes: Optional[int] = None) -> np.ndarray:
        """Learn embeddings for every node id in ``graph``.

        Returns an array of shape (num_nodes, dim); rows for node ids absent
        from the graph are zero.  ``num_nodes`` defaults to max id + 1.
        """
        cfg = self.config
        if graph.number_of_nodes() == 0:
            size = num_nodes or 0
            return np.zeros((size, cfg.dim))
        max_id = max(graph.nodes)
        size = num_nodes if num_nodes is not None else max_id + 1
        if size <= max_id:
            raise ValueError(f"num_nodes={size} too small for max node id {max_id}")

        walker = WalkGenerator(graph, p=cfg.p, q=cfg.q)
        walks = walker.generate(cfg.num_walks, cfg.walk_length, rng=self._rng)
        pairs = build_training_pairs(walks, cfg.window, rng=self._rng)
        model = SkipGramModel(size, cfg.dim, rng=self._rng)
        if pairs.size:
            table = unigram_table(walks, size)
            model.train(
                pairs,
                table,
                epochs=cfg.epochs,
                lr=cfg.lr,
                num_negative=cfg.num_negative,
                batch_size=cfg.batch_size,
            )
        self._model = model
        embeddings = model.embeddings.copy()
        # Zero rows for ids in no training pair (absent nodes, isolated nodes
        # whose walks are singletons) so they do not leak random
        # initialisation as a fake positional signal.
        trained = np.zeros(size, dtype=bool)
        trained[pairs.ravel()] = True
        embeddings[~trained] = 0.0
        return embeddings

    @property
    def model(self) -> Optional[SkipGramModel]:
        return self._model
