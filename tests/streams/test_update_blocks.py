"""Block-scatter propagation: planner properties + blocked/event equivalence.

Two layers of guarantees back ``propagation="blocked"``:

* :func:`repro.streams.replay.plan_update_blocks` must produce runs that
  are endpoint-disjoint (no two *distinct* edges of a run share a node —
  the invariant that lets one numpy scatter reproduce sequential
  semantics), maximal, and order-preserving.  Property-tested under
  hypothesis over adversarial edge sequences (hubs, self-loops, dense
  repeats).
* Every consumer of the blocked pass — the batched engine, the sharded
  engine, and the serving layer's incremental ingest — must produce
  bundles bit-for-bit identical to the per-event reference, across tied
  timestamps, self-loops, the all-static and all-unseen extremes, and at
  both working precisions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.random_feat import RandomFeatureProcess
from repro.models.context import build_context_bundle
from repro.nn import default_dtype
from repro.serving.store import IncrementalContextStore, incremental_context_bundle
from repro.streams.ctdg import CTDG
from repro.streams.replay import plan_update_blocks
from repro.tasks.base import QuerySet

from tests.conftest import (
    assert_bundles_identical,
    fitted_context_processes,
    random_tied_stream,
)


# ---------------------------------------------------------------------------
# Planner properties
# ---------------------------------------------------------------------------

edge_sequences = st.lists(
    # A tiny id space maximises conflicts and self-loops.
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=0,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(edges=edge_sequences)
def test_runs_are_endpoint_disjoint_and_ordered(edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    bounds = plan_update_blocks(src, dst)

    # Concatenating the runs reproduces the input order exactly.
    assert bounds[0] == 0
    assert bounds[-1] == len(src)
    assert np.all(np.diff(bounds) >= 1) or len(src) == 0

    for lo, hi in zip(bounds[:-1], bounds[1:]):
        nodes = set()
        for e in range(lo, hi):
            s, d = int(src[e]), int(dst[e])
            # No two distinct edges of a run share an endpoint (a
            # self-loop is one edge and may sit inside a run).
            assert s not in nodes and d not in nodes, (lo, hi, e)
            nodes.update({s, d})


@settings(max_examples=200, deadline=None)
@given(edges=edge_sequences)
def test_runs_are_maximal(edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    bounds = plan_update_blocks(src, dst)
    # Each internal boundary edge must conflict with its predecessor run —
    # otherwise the run should have been extended.
    for i in range(1, len(bounds) - 1):
        lo, boundary = int(bounds[i - 1]), int(bounds[i])
        nodes = set()
        for e in range(lo, boundary):
            nodes.update({int(src[e]), int(dst[e])})
        assert int(src[boundary]) in nodes or int(dst[boundary]) in nodes


def test_planner_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        plan_update_blocks(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))


def test_planner_empty_and_selfloop_only():
    assert plan_update_blocks(np.zeros(0), np.zeros(0)).tolist() == [0]
    # A repeated self-loop on one node conflicts with itself at every step.
    loops = np.full(5, 3, dtype=np.int64)
    assert plan_update_blocks(loops, loops).tolist() == [0, 1, 2, 3, 4, 5]
    # Disjoint edges form one maximal run.
    src = np.array([0, 2, 4, 6], dtype=np.int64)
    dst = np.array([1, 3, 5, 7], dtype=np.int64)
    assert plan_update_blocks(src, dst).tolist() == [0, 4]


# ---------------------------------------------------------------------------
# Blocked vs event equivalence across every consumer
# ---------------------------------------------------------------------------

def _assert_blocked_matches_event(g, queries, processes, k=5):
    oracle = build_context_bundle(g, queries, k, processes, engine="event")
    for engine in ("batched", "sharded"):
        for propagation in ("event", "blocked"):
            bundle = build_context_bundle(
                g,
                queries,
                k,
                processes,
                engine=engine,
                propagation=propagation,
                num_shards=3,
            )
            assert_bundles_identical(oracle, bundle)
    for propagation in ("event", "blocked"):
        for ingest_batch in (None, 7):
            bundle = incremental_context_bundle(
                g,
                queries,
                k,
                processes,
                ingest_batch=ingest_batch,
                propagation=propagation,
            )
            assert_bundles_identical(oracle, bundle)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("seed", range(4))
def test_blocked_equivalence_fuzz(seed, dtype):
    """Tied timestamps, self-loops, hubs, unseen nodes — all consumers."""
    g, queries = random_tied_stream(seed, d_e=2 if seed % 2 else 0)
    processes = fitted_context_processes(g, train_fraction=0.4, seed=seed)
    with default_dtype(dtype):
        _assert_blocked_matches_event(g, queries, processes)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_blocked_equivalence_all_static(dtype):
    """Every node seen in training: the blocked pass must degrade to a
    no-op without perturbing the bundle."""
    g, queries = random_tied_stream(21, num_edges=100, num_queries=40)
    processes = fitted_context_processes(g, train_fraction=1.0, seed=21)
    with default_dtype(dtype):
        _assert_blocked_matches_event(g, queries, processes)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_blocked_equivalence_all_unseen(dtype):
    """No node seen in training: every edge takes the propagation path."""
    g, queries = random_tied_stream(22, num_edges=100, num_queries=40)
    # Fit on an empty prefix: the seen mask is all-False, so the full
    # stream propagates through unseen-node state.
    empty = g.slice(0, 0)
    process = RandomFeatureProcess(6, rng=3)
    process.fit(empty, g.num_nodes)
    with default_dtype(dtype):
        _assert_blocked_matches_event(g, queries, [process])


def test_blocked_equivalence_long_disjoint_runs():
    """Dispersed endpoints produce long runs — the pure vectorised path."""
    rng = np.random.default_rng(5)
    num_nodes, num_edges = 600, 400
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    times = np.sort(rng.uniform(0, 100, size=num_edges))
    g = CTDG(src, dst, times, num_nodes=num_nodes)
    q_times = np.sort(rng.uniform(0, 100, size=80))
    queries = QuerySet(rng.integers(0, num_nodes, size=80), q_times)
    processes = fitted_context_processes(g, train_fraction=0.2, seed=5)
    _assert_blocked_matches_event(g, queries, processes)


def test_blocked_ingest_handles_overflow_node_ids():
    """A blocked run mixing overflow ids (>= num_nodes) with in-range unseen
    endpoints must match per-event ingest instead of faulting on the dense
    gather (the overflow rows take the per-event dict path)."""
    num_nodes = 20
    base = CTDG(
        np.arange(5, dtype=np.int64),
        np.arange(5, 10, dtype=np.int64),
        np.arange(5, dtype=np.float64),
        num_nodes=num_nodes,
    )
    process = RandomFeatureProcess(4, rng=0)
    process.fit(base, num_nodes)
    # One endpoint-disjoint batch: 8 in-range unseen edges plus one edge
    # referencing id 50, outside the fitted table.
    src = np.array([10, 11, 12, 13, 14, 15, 16, 17, 18], dtype=np.int64)
    dst = np.array([0, 1, 2, 3, 4, 5, 6, 7, 50], dtype=np.int64)
    times = np.full(9, 10.0)
    stores = {}
    for propagation in ("event", "blocked"):
        store = IncrementalContextStore(
            [process], 3, num_nodes, 0, propagation=propagation
        )
        store.ingest_arrays(src, dst, times)
        stores[propagation] = store
    probe = np.array([10, 14, 18, 0], dtype=np.int64)
    for node in probe:
        left = stores["event"].stores["random"].feature_of(int(node))
        right = stores["blocked"].stores["random"].feature_of(int(node))
        np.testing.assert_array_equal(left, right)
    assert (
        stores["event"].stores["random"].propagation_degree(50)
        == stores["blocked"].stores["random"].propagation_degree(50)
        == 1
    )
    # The contexts agree too: id 50 keeps its entry in a ring row of its
    # own, past the node space, and its in-range neighbour is unaffected.
    nodes = np.array([50, 18, 10], dtype=np.int64)
    event = stores["event"].materialise(nodes, 11.0)
    blocked = stores["blocked"].materialise(nodes, 11.0)
    assert_bundles_identical(event, blocked)
    assert blocked.neighbor_nodes[:2].tolist() == [[18, -1, -1], [50, -1, -1]]
    assert blocked.mask[:2].sum() == 2


def test_propagation_knob_validation():
    g, queries = random_tied_stream(1, num_edges=20, num_queries=5)
    processes = fitted_context_processes(g, seed=1)
    with pytest.raises(ValueError, match="propagation"):
        build_context_bundle(g, queries, 5, processes, propagation="bogus")
