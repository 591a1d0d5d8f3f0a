"""node2vec's bit contract: walks, training pairs, the unigram table, the SGNS
weights and loss, and process P's table equal the arrays in
``fixtures/node2vec_parent.npz``.

The fixture was recorded from the per-step implementation (one
``rng.choice`` per walk step, one Python iteration per pair, ``np.add.at``
scatters) that the vectorised one replaced, so it pins the RNG draw order
and every float op.  Re-record it only for a deliberate change to either:

    PYTHONPATH=src python tests/features/test_node2vec_bits.py
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.datasets import email_eu_like
from repro.features import default_processes
from repro.features.node2vec import (
    Node2Vec,
    Node2VecConfig,
    SkipGramModel,
    WalkGenerator,
    build_training_pairs,
    unigram_table,
)
from repro.features.node2vec.skipgram import _scatter_mean_update, _sigmoid
from repro.nn import default_dtype

FIXTURE = Path(__file__).parent / "fixtures" / "node2vec_parent.npz"

# Non-contiguous ids, uneven weights and a leaf (131); no isolated node.
IDS = (3, 8, 9, 15, 22, 23, 40, 41, 57, 90)
EDGES = (
    "0-1 0-2 0-5 1-2 1-3 1-7 2-3 2-4 3-4 3-6 4-5 4-8 5-6 5-9 6-7 6-8 7-8 7-9 "
    "8-9 0-9 2-6 3-8"
)
NUM_NODES = 132


def weighted_graph() -> nx.Graph:
    graph = nx.Graph()
    for edge in EDGES.split():
        a, b = map(int, edge.split("-"))
        weight = 0.25 * (1 + (7 * a + 3 * b) % 11)
        graph.add_edge(IDS[a], IDS[b], weight=weight)
    graph.add_edge(90, 131, weight=0.7)
    return graph


def biased_embedding(graph: nx.Graph) -> np.ndarray:
    config = Node2VecConfig(
        dim=8,
        p=0.5,
        q=2.0,
        num_walks=3,
        walk_length=6,
        window=2,
        epochs=1,
        batch_size=16,
    )
    return Node2Vec(config, rng=17).fit(graph, num_nodes=NUM_NODES + 8)


def compute() -> dict:
    """Every pinned array, from the current code."""
    graph = weighted_graph()
    walks = WalkGenerator(graph).generate(4, 9, rng=11)
    biased = WalkGenerator(graph, p=0.5, q=2.0).generate(4, 9, rng=11)
    pairs = build_training_pairs(walks, window=3, rng=5)
    table = unigram_table(walks, NUM_NODES)
    model = SkipGramModel(NUM_NODES, 8, rng=13)
    loss = model.train(pairs, table, epochs=2, lr=0.05, num_negative=4, batch_size=16)
    dataset = email_eu_like(seed=0, num_edges=3000)
    positional = default_processes(32, seed=0)[1]
    positional.fit(dataset.ctdg, dataset.ctdg.num_nodes)
    return {
        "walks": np.asarray(walks),
        "walks_p05_q2": np.asarray(biased),
        "pairs": pairs,
        "unigram_accept": table.accept,
        "unigram_alias": table.alias,
        "w_in": model.w_in,
        "w_out": model.w_out,
        "loss": np.float64(loss),
        "embedding_p05_q2": biased_embedding(graph),
        "positional_table": positional.table,
    }


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.fixture(scope="module")
def recorded():
    with np.load(FIXTURE) as data:
        return {name: data[name] for name in data.files}


def test_fixture_covers_every_entry(computed, recorded):
    assert sorted(computed) == sorted(recorded)


@pytest.mark.parametrize(
    "name",
    [
        "walks",
        "walks_p05_q2",
        "pairs",
        "unigram_accept",
        "unigram_alias",
        "w_in",
        "w_out",
        "loss",
        "embedding_p05_q2",
        "positional_table",
    ],
)
def test_bits_equal_recorded(computed, recorded, name):
    assert computed[name].dtype == recorded[name].dtype
    assert np.array_equal(computed[name], recorded[name])


def test_float64_whatever_the_default_dtype(recorded):
    with default_dtype("float32"):
        embedding = biased_embedding(weighted_graph())
    assert np.array_equal(embedding, recorded["embedding_p05_q2"])
    assert embedding.dtype == np.float64


# The per-step references: the same draws and float ops, one step at a time.


class ReferenceWalker:
    """One ``rng.choice`` per walk step."""

    def __init__(self, graph: nx.Graph, p: float, q: float) -> None:
        self.p, self.q = p, q
        self.nodes = sorted(graph.nodes)
        self.adjacency = {}
        for node in self.nodes:
            nbrs = sorted(graph[node])
            weights = [graph[node][v].get("weight", 1.0) for v in nbrs]
            self.adjacency[node] = (np.array(nbrs, dtype=np.int64), np.array(weights))

    def walk(self, start, length, rng):
        walk = [start]
        nbrs, weights = self.adjacency[start]
        if length <= 1 or nbrs.size == 0:
            return walk
        walk.append(int(rng.choice(nbrs, p=weights / weights.sum())))
        while len(walk) < length:
            prev, cur = walk[-2], walk[-1]
            nbrs, weights = self.adjacency[cur]
            adjacent = np.isin(nbrs, self.adjacency[prev][0])
            bias = np.where(
                nbrs == prev, 1.0 / self.p, np.where(adjacent, 1.0, 1.0 / self.q)
            )
            probs = weights * bias
            probs /= probs.sum()
            walk.append(int(rng.choice(nbrs, p=probs)))
        return walk

    def generate(self, num_walks, length, rng):
        walks, nodes = [], list(self.nodes)
        for _ in range(num_walks):
            rng.shuffle(nodes)
            walks.extend(self.walk(node, length, rng) for node in nodes)
        return walks


def reference_pairs(walks, window, rng):
    pairs = []
    for walk in walks:
        if len(walk) < 2:
            continue
        spans = rng.integers(1, window + 1, size=len(walk))
        for i, center in enumerate(walk):
            lo, hi = max(0, i - spans[i]), min(len(walk), i + spans[i] + 1)
            pairs.extend((center, walk[j]) for j in range(lo, hi) if j != i)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def random_graph(seed: int) -> nx.Graph:
    """Random ids, self-loops, isolated nodes and some zero-weight edges."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(1000, size=int(rng.integers(2, 25)), replace=False))
    graph = nx.Graph()
    graph.add_nodes_from(ids.tolist())
    for _ in range(int(rng.integers(1, 3 * ids.size))):
        a, b = rng.choice(ids, size=2).tolist()
        graph.add_edge(a, b, weight=float(rng.choice([0.0, 1e-3, 0.4, 1.0, 2.5])))
    for node in graph:
        if graph[node] and all(d["weight"] == 0 for d in graph[node].values()):
            for attrs in graph[node].values():
                attrs["weight"] = 1.0
    return graph


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.25)])
def test_walks_and_pairs_match_per_step_reference(seed, p, q):
    graph = random_graph(seed)
    length = (1, 2, 7)[seed % 3]
    walks = WalkGenerator(graph, p=p, q=q).generate(3, length, rng=seed)
    reference = ReferenceWalker(graph, p, q)
    expected = reference.generate(3, length, np.random.default_rng(seed))
    assert walks == expected
    window = 1 + seed % 4
    pairs = build_training_pairs(walks, window, rng=seed)
    expected_pairs = reference_pairs(walks, window, np.random.default_rng(seed))
    assert np.array_equal(pairs, expected_pairs)


def test_walk_from_matches_reference():
    graph = weighted_graph()
    walker = WalkGenerator(graph, p=0.5, q=2.0)
    reference = ReferenceWalker(graph, 0.5, 2.0)
    for start in (3, 90, 131):
        got = walker.walk_from(start, 12, np.random.default_rng(start))
        assert got == reference.walk(start, 12, np.random.default_rng(start))


def reference_scatter_mean_update(table, indices, grads, lr):
    sums = np.zeros_like(table)
    np.add.at(sums, indices, grads)
    counts = np.bincount(indices, minlength=len(table))
    rows = counts > 0
    table[rows] -= lr * sums[rows] / counts[rows, None]


@pytest.mark.parametrize("seed", range(6))
def test_scatter_mean_update_matches_add_at(seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 12))))
    indices = rng.integers(0, len(table), size=int(rng.integers(1, 200)))
    grads = rng.normal(size=(indices.size, table.shape[1]))
    grads *= rng.choice([1.0, 0.0, -0.0, 1e-300], size=grads.shape)
    expected = table.copy()
    reference_scatter_mean_update(expected, indices, grads, 0.03)
    _scatter_mean_update(table, indices, grads, 0.03)
    assert np.array_equal(table, expected)
    assert np.array_equal(np.signbit(table), np.signbit(expected))


def test_sigmoid_matches_two_branch_form():
    rng = np.random.default_rng(0)
    samples = [rng.normal(scale=s, size=4000) for s in (1e-3, 1.0, 10.0, 100.0)]
    edges = np.array([0.0, -0.0, 50.0, -50.0, 51.0, -51.0, np.inf, -np.inf])
    x = np.concatenate(samples + [edges])
    low = np.clip(x, -50, 0)
    expected = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, 0, 50))),
        np.exp(low) / (1.0 + np.exp(low)),
    )
    assert np.array_equal(_sigmoid(x), expected)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **compute())
    print(f"wrote {FIXTURE}")
