"""Online-vs-offline equivalence of the incremental context store.

The acceptance bar for the serving layer: for any stream (timestamp ties,
self-loops, unseen nodes, bursts beyond k) and any ingest micro-batch size
(including boundaries landing mid-tie), the incremental path must produce
contexts **bit-for-bit identical** to an offline
:func:`build_context_bundle` replay of the same prefix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.context import _QueryOutputs, build_context_bundle
from repro.serving import IncrementalContextStore, incremental_context_bundle
from repro.streams.replay import iter_interleave
from repro.tasks.base import QuerySet
from tests.conftest import (
    assert_bundles_identical,
    fitted_context_processes,
    random_tied_stream,
)

K = 5

# 1 lands every batch boundary mid-tie somewhere on the tied stream; the
# primes land them at irregular offsets; None means maximal edge runs.
INGEST_BATCHES = [1, 3, 7, 64, None]


def offline_bundle(g, queries, processes, engine="event"):
    return build_context_bundle(g, queries, K, processes, engine=engine)


class TestOnlineOfflineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("ingest_batch", INGEST_BATCHES)
    def test_fuzzed_streams_identical(self, seed, ingest_batch):
        g, queries = random_tied_stream(seed)
        offline = offline_bundle(g, queries, fitted_context_processes(g))
        online = incremental_context_bundle(
            g, queries, K, fitted_context_processes(g), ingest_batch=ingest_batch
        )
        assert_bundles_identical(offline, online)

    @pytest.mark.parametrize("ingest_batch", [1, 5, None])
    def test_edge_features_identical(self, ingest_batch):
        g, queries = random_tied_stream(3, d_e=4)
        offline = offline_bundle(g, queries, fitted_context_processes(g))
        online = incremental_context_bundle(
            g, queries, K, fitted_context_processes(g), ingest_batch=ingest_batch
        )
        assert_bundles_identical(offline, online)

    def test_matches_batched_engine_too(self):
        # The offline engines are interchangeable, so online equivalence
        # holds against all of them; spot-check the production engine.
        g, queries = random_tied_stream(11)
        offline = offline_bundle(
            g, queries, fitted_context_processes(g), engine="batched"
        )
        online = incremental_context_bundle(
            g, queries, K, fitted_context_processes(g), ingest_batch=8
        )
        assert_bundles_identical(offline, online)

    def test_heavy_ties_and_selfloops(self):
        # Every timestamp collides and a tenth of edges are self-loops:
        # the worst case for batch boundaries landing mid-tie.
        g, queries = random_tied_stream(
            23, num_edges=200, num_queries=80, selfloop_prob=0.3
        )
        offline = offline_bundle(g, queries, fitted_context_processes(g))
        for ingest_batch in (1, 2, 9):
            online = incremental_context_bundle(
                g, queries, K, fitted_context_processes(g), ingest_batch=ingest_batch
            )
            assert_bundles_identical(offline, online)

    def test_unseen_nodes_propagate_identically(self):
        # Processes fitted on a 30% prefix leave most of the stream's nodes
        # unseen — the propagated (Eqs. 4-5) snapshots must still match.
        g, queries = random_tied_stream(5)
        offline = offline_bundle(
            g, queries, fitted_context_processes(g, train_fraction=0.3)
        )
        online = incremental_context_bundle(
            g,
            queries,
            K,
            fitted_context_processes(g, train_fraction=0.3),
            ingest_batch=4,
        )
        assert_bundles_identical(offline, online)


class TestStoreApi:
    def make_store(self, g, **kwargs):
        return IncrementalContextStore(
            fitted_context_processes(g), K, g.num_nodes, g.edge_feature_dim, **kwargs
        )

    def test_materialise_before_ingest_is_empty_state(self):
        g, queries = random_tied_stream(0)
        store = self.make_store(g)
        bundle = store.materialise(queries.nodes[:4], queries.times[:4])
        assert not bundle.mask.any()
        assert (bundle.target_degrees == 0).all()

    def test_ingest_rejects_time_regression(self):
        g, _ = random_tied_stream(0)
        store = self.make_store(g)
        store.ingest(g.slice(10, 20))
        with pytest.raises(ValueError, match="out-of-order"):
            store.ingest(g.slice(0, 5))

    def test_ingest_rejects_unsorted_batch(self):
        g, _ = random_tied_stream(0)
        store = self.make_store(g)
        src = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="non-decreasing"):
            store.ingest_arrays(src, src, np.array([5.0, 1.0]))

    def test_nan_time_does_not_switch_off_the_order_check(self):
        # NaN compares False with everything: a NaN batch used to be
        # accepted, and the t = 1 batch after it too (last time NaN).
        g, _ = random_tied_stream(0)
        store = self.make_store(g)
        journal, observed = [], []
        store.attach_journal(lambda *columns: journal.append(columns))
        store.attach_monitor(
            type("Monitor", (), {"observe_edges": lambda *a: observed.append(a)})()
        )
        one = np.array([0], dtype=np.int64)
        store.ingest_arrays(one, one, np.array([5.0]))
        with pytest.raises(ValueError, match="row 0 is nan"):
            store.ingest_arrays(one, one, np.array([np.nan]))
        with pytest.raises(ValueError, match="out-of-order"):
            store.ingest_arrays(one, one, np.array([1.0]))
        assert store.edges_ingested == 1 and store.last_time == 5.0
        assert len(journal) == len(observed) == 1

    @pytest.mark.parametrize(
        "times, row",
        [
            ([6.0, np.nan, 7.0], 1),
            ([6.0, 7.0, np.nan], 2),
            ([6.0, 7.0, np.inf], 2),
            ([-np.inf, 6.0], 0),
            ([np.inf, np.inf], 0),
            ([6.0, np.nan, 5.0], 1),
        ],
    )
    def test_ingest_rejects_non_finite_times_by_row(self, times, row):
        g, _ = random_tied_stream(0)
        store = self.make_store(g)
        src = np.zeros(len(times), dtype=np.int64)
        with pytest.raises(ValueError, match=f"row {row} is .*finite"):
            store.ingest_arrays(src, src, np.array(times))
        assert store.edges_ingested == 0 and store.last_time == -np.inf

    def test_close_stops_ingestion(self):
        g, _ = random_tied_stream(0)
        store = self.make_store(g)
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.ingest(g.slice(0, 5))

    def test_edge_count_watermark(self):
        g, _ = random_tied_stream(0)
        store = self.make_store(g)
        store.ingest(g.slice(0, 30))
        assert store.edges_ingested == 30
        assert store.wait_for_edges(30, timeout=0.01)
        assert not store.wait_for_edges(31, timeout=0.01)
        store.close()
        assert not store.wait_for_edges(31, timeout=0.01)

    def test_feature_dim_mismatch_rejected(self):
        g, _ = random_tied_stream(0, d_e=4)
        store = IncrementalContextStore(
            fitted_context_processes(g), K, g.num_nodes, edge_feature_dim=0
        )
        with pytest.raises(ValueError):
            store.ingest(g.slice(0, 5))

    def test_mid_stream_materialise_matches_prefix_replay(self):
        # Answering queries halfway through ingestion must equal an offline
        # replay of exactly that prefix.
        g, queries = random_tied_stream(9)
        cut = 70
        prefix = g.slice(0, cut)
        t = float(g.times[cut - 1])
        nodes = queries.nodes[:10]
        store = self.make_store(g)
        for lo in range(0, cut, 6):
            store.ingest(g.slice(lo, min(lo + 6, cut)))
        online = store.materialise(nodes, t)

        q = QuerySet(nodes, np.full(len(nodes), t))
        offline = build_context_bundle(
            prefix, q, K, fitted_context_processes(g), engine="event"
        )
        assert_bundles_identical(offline, online)

    def test_write_queries_into_shared_block(self):
        g, queries = random_tied_stream(4)
        store = self.make_store(g)
        out = _QueryOutputs(len(queries), K, g.edge_feature_dim, store.stores)
        for kind, lo, hi in iter_interleave(g.times, queries.times, max_block=10):
            if kind == "edges":
                store.ingest(g.slice(lo, hi))
            else:
                store.write_queries(
                    out, range(lo, hi), queries.nodes[lo:hi], queries.times[lo:hi]
                )
        bundle = store.bundle_from(out, queries)
        offline = offline_bundle(g, queries, fitted_context_processes(g))
        assert_bundles_identical(offline, bundle)

    def test_bounded_memory_summary(self):
        # The buffered state obeys the paper's O(|V| * k) summary bound no
        # matter how many edges streamed through.
        g, _ = random_tied_stream(2, num_edges=400)
        store = self.make_store(g)
        store.ingest(g)
        ring = store._state.ring
        # One ring row per node, k slots each: the tables are sized to
        # the node space, and no row holds more than k entries.
        assert len(ring.head) == g.num_nodes
        assert ring.tables["neighbor"].shape == (g.num_nodes * K,)
        assert ring.count.max() <= K
        assert ring.count.sum() <= g.num_nodes * K
