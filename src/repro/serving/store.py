"""Incremental context store: live ingestion of edge streams for serving.

The offline engines replay a *complete* stream to materialise every query's
context at once.  Serving cannot wait for the stream to end: edges arrive
in micro-batches and queries must be answered from whatever prefix has
arrived.  :class:`IncrementalContextStore` maintains exactly the online
state the replay engines build — degrees (Eq. 2), the feature stores'
propagation state (Eqs. 4-5, including unseen-node snapshots), and the
k-recent neighbour tails (Eq. 6) — by driving the *same* state-update core
(:class:`repro.models.context.ReplayState`) that the per-event offline
collector uses.  Consequently :meth:`IncrementalContextStore.materialise`
is bit-for-bit identical to an offline
:func:`~repro.models.context.build_context_bundle` replay of the ingested
prefix, a property asserted under fuzzing by
``tests/serving/test_incremental_store.py`` and guarded in CI.

Memory is the paper's summary bound: a dense |V| · k neighbour ring
(:class:`repro.models.context.NeighborRing`, allocated on the first
ingest or restore) plus the per-process tables — independent of how many
edges have been ingested.

Thread-safety: ``ingest``/``materialise``/``write_queries`` serialise on an
internal condition variable, so a background ingest thread and a scoring
thread can share one store — how
:class:`repro.serving.service.PredictionService` runs its background mode
(which keeps ingest and materialisation strictly ordered on one producer
thread).  For live setups where ingestion is driven *externally*,
:meth:`wait_for_edges` additionally lets a scorer block on the edge-count
watermark until enough of the stream has arrived.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.features.base import FeatureProcess, OnlineFeatureStore
from repro.models.context import (
    _MIN_VECTOR_RUN,
    ContextBundle,
    ReplayState,
    _QueryOutputs,
    partition_processes,
)
from repro.streams.ctdg import CTDG
from repro.streams.replay import endpoint_shard, iter_interleave, plan_update_blocks
from repro.tasks.base import QuerySet


def _reject_times(times: np.ndarray) -> None:
    """Raise for the first row of a batch that breaks the time contract."""
    finite = np.isfinite(times)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(
            f"edge time at row {row} is {float(times[row])}; times must be finite"
        )
    row = 1 + int(np.argmax(np.diff(times) < 0))
    raise ValueError(
        f"edge times must be non-decreasing within a batch: row {row} "
        f"(t={float(times[row])}) follows t={float(times[row - 1])}"
    )


class IncrementalContextStore:
    """Online replay state with micro-batched ingest and O(k) query reads.

    Parameters
    ----------
    processes:
        Fitted feature processes (the SPLASH candidates, or any subset).
        Classified exactly as :func:`build_context_bundle` classifies them
        (online stores / static tables / lazy structural encoding).
    k:
        Neighbour buffer size (Eq. 6), matching the trained model's k.
    num_nodes:
        Size of the node-id space queries and edges may reference.
    edge_feature_dim:
        Dimension of per-edge features (0 for featureless streams).
    propagation:
        ``"blocked"`` (default) vectorises the hot ingest loop: each
        micro-batch is partitioned into maximal endpoint-disjoint runs
        (:func:`repro.streams.replay.plan_update_blocks`) and every run
        advances the replay state through one
        :meth:`~repro.models.context.ReplayState.apply_edge_block` scatter.
        ``"event"`` drives :meth:`~repro.models.context.ReplayState.apply_edge`
        per event (the reference).  Materialised contexts are bit-for-bit
        identical either way.
    owner:
        Optional ``(shard_index, num_shards)`` fleet-ownership spec
        (:mod:`repro.serving.fleet`).  The store still ingests *every*
        edge — global degrees and feature propagation, which any context
        may transitively depend on, must track the full stream — but the
        per-endpoint context assembly (snapshot reads and k-recent ring
        writes) runs only for nodes whose
        :func:`repro.streams.replay.endpoint_shard` equals ``shard_index``.
        Owned nodes' contexts stay bit-for-bit what an unsharded store
        produces; querying a non-owned node raises.
    """

    def __init__(
        self,
        processes: Sequence[FeatureProcess],
        k: int,
        num_nodes: int,
        edge_feature_dim: int = 0,
        propagation: str = "blocked",
        owner: Optional[tuple] = None,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        if edge_feature_dim < 0:
            raise ValueError(
                f"edge_feature_dim must be non-negative, got {edge_feature_dim}"
            )
        if propagation not in ("blocked", "event"):
            raise ValueError(
                f"unknown propagation mode {propagation!r}; use 'blocked' or 'event'"
            )
        if owner is not None:
            shard_index, num_shards = (int(owner[0]), int(owner[1]))
            if num_shards <= 0:
                raise ValueError(f"num_shards must be positive, got {num_shards}")
            if not 0 <= shard_index < num_shards:
                raise ValueError(
                    f"shard_index must be in [0, {num_shards}), got {shard_index}"
                )
            owner = (shard_index, num_shards)
        stores, structural_params, static_tables, seen_mask = partition_processes(
            processes
        )
        self.k = k
        self.num_nodes = int(num_nodes)
        self.edge_feature_dim = int(edge_feature_dim)
        self.propagation = propagation
        self.owner = owner
        owner_mask = None
        if owner is not None and num_nodes:
            owner_mask = (
                endpoint_shard(np.arange(num_nodes, dtype=np.int64), owner[1])
                == owner[0]
            )
        self._state = ReplayState(
            k,
            stores,
            self.num_nodes,
            self.edge_feature_dim,
            owner=owner,
            owner_mask=owner_mask,
        )
        self._structural_params = structural_params
        self._static_tables = static_tables
        self._seen_mask = seen_mask
        self._edges_ingested = 0
        self._last_time = -np.inf
        self._closed = False
        self._progress = threading.Condition()
        self._monitor = None
        self._journal = None

    # ------------------------------------------------------------------
    @property
    def stores(self) -> Dict[str, OnlineFeatureStore]:
        return self._state.stores

    @property
    def edges_ingested(self) -> int:
        return self._edges_ingested

    @property
    def last_time(self) -> float:
        """Timestamp of the newest ingested edge (-inf before any)."""
        return self._last_time

    @property
    def is_closed(self) -> bool:
        return self._closed

    @property
    def feature_names(self) -> list:
        """Names of the feature spaces this store can materialise."""
        names = set(self._state.stores) | set(self._static_tables)
        if self._structural_params:
            names.add("structural")
        return sorted(names)

    def feature_dim(self, name: str) -> int:
        """Width of the vectors this store materialises for ``name``."""
        if name in self._state.stores:
            return int(self._state.stores[name].dim)
        if name in self._static_tables:
            return int(self._static_tables[name].shape[1])
        if name == "structural" and self._structural_params:
            return int(self._structural_params["dim"])
        raise KeyError(f"no feature process {name!r} in this store")

    def owns(self, nodes):
        """Ownership test under this store's fleet shard spec.

        Scalar in → bool out; array in → boolean array.  Without an
        ``owner`` spec everything is owned.
        """
        if self.owner is None:
            if np.isscalar(nodes) or np.ndim(nodes) == 0:
                return True
            return np.ones(len(np.atleast_1d(nodes)), dtype=bool)
        if np.isscalar(nodes) or np.ndim(nodes) == 0:
            return self._state.owns(int(nodes))
        return self._state._owns_array(np.asarray(nodes, dtype=np.int64))

    @property
    def monitor(self):
        return self._monitor

    def attach_monitor(self, monitor) -> None:
        """Feed every subsequently ingested batch to a drift monitor.

        ``monitor`` is anything with the
        :meth:`repro.adapt.DriftMonitor.observe_edges` signature; it is
        called under the store's lock, after the replay state has
        advanced, with the exact arrays of the batch.  Keep the observer
        O(batch) cheap — it sits on the ingest hot path (the adaptation
        benchmark gates this overhead at < 10% of ingest throughput).
        """
        with self._progress:
            self._monitor = monitor

    def attach_journal(self, journal) -> None:
        """Tee every subsequently ingested batch into a durable event log.

        ``journal`` is a callable ``(src, dst, times, features, weights)``
        (typically :meth:`repro.serving.persistence.PersistenceManager.append`);
        it runs under the store's lock *after* the replay state has
        advanced, with the validated batch arrays (weights already
        defaulted), so the journal's event count tracks
        :attr:`edges_ingested` exactly.  A journal exception propagates to
        the ingest caller — state has advanced but the batch is not
        durable, which the journal's durable watermark records honestly.
        Pass ``None`` to detach.
        """
        with self._progress:
            self._journal = journal

    # ------------------------------------------------------------------
    def ingest(self, edges: CTDG) -> int:
        """Apply one micro-batch of edges; returns the count ingested."""
        return self.ingest_arrays(
            edges.src, edges.dst, edges.times, edges.edge_features, edges.weights
        )

    def ingest_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        features: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
    ) -> int:
        """Column-array variant of :meth:`ingest` (views are fine).

        Edges must continue the stream: times finite, non-decreasing within
        the batch and not before the newest edge already ingested; a batch
        that breaks this raises ``ValueError`` naming the first bad row,
        before the store, journal or drift monitor changes.  A batch
        boundary may land anywhere — including between edges sharing one
        timestamp — without affecting the materialised contexts.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        times = np.asarray(times)
        count = len(times)
        if not (len(src) == len(dst) == count):
            raise ValueError("src, dst, times must have equal length")
        # With finite ends, a NaN or infinite time inside the batch makes a
        # NaN or negative step, so these checks cover every row.
        if count and not (
            math.isfinite(times[0])
            and math.isfinite(times[-1])
            and (np.diff(times) >= 0).all()
        ):
            _reject_times(times)
        if features is None:
            if self.edge_feature_dim:
                raise ValueError(
                    f"store expects {self.edge_feature_dim}-dim edge features"
                )
        elif len(features) != count or features.shape[1] != self.edge_feature_dim:
            raise ValueError(
                f"features must be ({count}, {self.edge_feature_dim}), "
                f"got {features.shape}"
            )
        if weights is None:
            weights = np.ones(count)
        with obs.span("store.ingest", batch=count), self._progress:
            if self._closed:
                raise RuntimeError("store is closed to further ingestion")
            if count and float(times[0]) < self._last_time:
                raise ValueError(
                    f"out-of-order ingest: batch starts at t={float(times[0])} "
                    f"but the store has already seen t={self._last_time}"
                )
            base = self._edges_ingested
            apply_edge = self._state.apply_edge

            def apply_range(lo: int, hi: int) -> None:
                for offset in range(lo, hi):
                    feature = features[offset] if features is not None else None
                    apply_edge(
                        base + offset,
                        int(src[offset]),
                        int(dst[offset]),
                        float(times[offset]),
                        feature,
                        float(weights[offset]),
                    )

            if self.propagation == "blocked" and count > 1:
                indices = np.arange(base, base + count, dtype=np.int64)
                bounds = plan_update_blocks(src, dst)
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    if hi - lo < _MIN_VECTOR_RUN:
                        # Tiny runs (dense conflict regions): per-event is
                        # cheaper than the vectorised dispatch.
                        apply_range(lo, hi)
                        continue
                    self._state.apply_edge_block(
                        indices[lo:hi],
                        src[lo:hi],
                        dst[lo:hi],
                        times[lo:hi],
                        features[lo:hi] if features is not None else None,
                        weights[lo:hi],
                    )
            else:
                apply_range(0, count)
            self._edges_ingested = base + count
            if count:
                self._last_time = float(times[-1])
            if self._monitor is not None and count:
                self._monitor.observe_edges(src, dst, times, features, weights)
            if self._journal is not None and count:
                self._journal(src, dst, times, features, weights)
            self._progress.notify_all()
            ingested = self._edges_ingested
        obs.inc("store.ingest.events", count)
        obs.set_gauge("store.edges_ingested", ingested)
        return count

    def close(self) -> None:
        """Declare the stream finished; wakes any waiting scorers."""
        with self._progress:
            self._closed = True
            self._progress.notify_all()

    def wait_for_edges(self, count: int, timeout: Optional[float] = None) -> bool:
        """Block until ≥ ``count`` edges are ingested (or the store closes).

        Returns True when the watermark was reached — the edge-count
        watermark (not a time watermark) is what makes queries tied with
        in-flight edges exact: the interleave's ``cuts[q]`` says precisely
        how many edges must precede query ``q``.
        """
        with self._progress:
            reached = self._progress.wait_for(
                lambda: self._edges_ingested >= count or self._closed,
                timeout=timeout,
            )
            return bool(reached and self._edges_ingested >= count)

    # ------------------------------------------------------------------
    # Persistence (serving snapshots, repro.serving.persistence)
    # ------------------------------------------------------------------
    def export_runtime_state(self) -> tuple:
        """Everything a warm restart needs, as ``(arrays, scalars)``.

        ``arrays`` maps namespaced keys (``buffer::*``, ``degrees::*``,
        ``stores::<name>::*``) to the replay state — the k-recent
        neighbour ring as one column per field
        (:meth:`~repro.models.context.NeighborRing.export_arrays`), the
        Eq. 2 degree counts, and each online store's evolving tables.
        ``scalars`` carries the JSON-safe counters (``edges_ingested``,
        ``last_time``, schema describers) that
        :meth:`restore_runtime_state` validates against.  Every array is a
        copy taken under the store lock (stores' own exports copy too), so
        the export is a consistent cut between two micro-batches that a
        concurrent ingest cannot tear while the caller persists it.
        """
        with self._progress:
            arrays: Dict[str, np.ndarray] = {}
            for key, value in self._state.ring.export_arrays().items():
                arrays[f"buffer::{key}"] = value
            deg_nodes, deg_counts = self._state.degrees.export_arrays()
            arrays["degrees::nodes"] = deg_nodes
            arrays["degrees::counts"] = deg_counts
            for name in self._state.store_names:
                state = self._state.stores[name].export_runtime_state()
                for key, value in state.items():
                    arrays[f"stores::{name}::{key}"] = value
            scalars = {
                "edges_ingested": int(self._edges_ingested),
                "last_time": (
                    None if np.isneginf(self._last_time) else float(self._last_time)
                ),
                "closed": bool(self._closed),
                "k": int(self.k),
                "num_nodes": int(self.num_nodes),
                "edge_feature_dim": int(self.edge_feature_dim),
                "store_names": list(self._state.store_names),
                "owner": list(self.owner) if self.owner is not None else None,
            }
            return arrays, scalars

    def restore_runtime_state(self, arrays: Dict[str, np.ndarray], scalars: dict):
        """Inverse of :meth:`export_runtime_state`, applied to a fresh store.

        The store must have been built from the *same* fitted processes
        (the snapshot holds replay state, not fitted tables) and must not
        have ingested anything yet.  Schema mismatches — different ``k``,
        node space, edge-feature width, or feature-store roster — raise
        instead of resuming silently wrong, as does a ``buffer::*`` block
        the ring cannot scatter (checked before any state changes).
        """
        for field in ("k", "num_nodes", "edge_feature_dim"):
            if int(scalars[field]) != int(getattr(self, field)):
                raise ValueError(
                    f"snapshot {field}={scalars[field]} does not match this "
                    f"store's {field}={getattr(self, field)}"
                )
        if list(scalars["store_names"]) != list(self._state.store_names):
            raise ValueError(
                f"snapshot feature stores {scalars['store_names']} do not "
                f"match this store's {self._state.store_names}"
            )
        snap_owner = scalars.get("owner")
        snap_owner = tuple(snap_owner) if snap_owner is not None else None
        if snap_owner != self.owner:
            raise ValueError(
                f"snapshot owner={snap_owner} does not match this store's "
                f"owner={self.owner}; a shard snapshot only resumes into a "
                f"store with the same (shard_index, num_shards)"
            )
        with self._progress:
            if self._edges_ingested:
                raise RuntimeError(
                    "restore_runtime_state needs a fresh store; this one has "
                    f"already ingested {self._edges_ingested} edges"
                )
            self._state.ring.restore_arrays(
                {
                    key[len("buffer::"):]: value
                    for key, value in arrays.items()
                    if key.startswith("buffer::")
                }
            )
            self._state.degrees.restore_arrays(
                arrays["degrees::nodes"], arrays["degrees::counts"]
            )
            for name in self._state.store_names:
                prefix = f"stores::{name}::"
                self._state.stores[name].restore_runtime_state(
                    {
                        key[len(prefix):]: value
                        for key, value in arrays.items()
                        if key.startswith(prefix)
                    }
                )
            self._edges_ingested = int(scalars["edges_ingested"])
            self._last_time = (
                -np.inf
                if scalars["last_time"] is None
                else float(scalars["last_time"])
            )
            self._closed = bool(scalars.get("closed", False))
            self._progress.notify_all()
        return self

    # ------------------------------------------------------------------
    def write_queries(
        self,
        out: _QueryOutputs,
        rows: Iterable[int],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Materialise query rows into a caller-owned output block.

        The low-level primitive behind :meth:`materialise`; used directly
        when assembling one large bundle across many micro-batches
        (:func:`incremental_context_bundle`).
        """
        with self._progress:
            write_query = self._state.write_query
            for row, node, time in zip(rows, nodes, times):
                write_query(out, int(row), int(node), float(time), self._seen_mask)

    def materialise(
        self,
        nodes: np.ndarray,
        times: Union[np.ndarray, float],
    ) -> ContextBundle:
        """Contexts for ``nodes`` at ``times`` against the current state.

        ``times`` may be a scalar (all queries at one instant) or a
        non-decreasing array.  The caller is responsible for the §III
        prefix contract: the ingested prefix must be exactly the edges
        with t(l) ≤ each query's time — then the output equals the offline
        replay bit for bit.  Ingesting beyond a query's time would leak
        future edges into its context, exactly as it would offline.
        """
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        times = np.broadcast_to(
            np.asarray(times, dtype=np.float64), nodes.shape
        ).copy()
        queries = QuerySet(nodes, times)
        out = _QueryOutputs(len(nodes), self.k, self.edge_feature_dim, self.stores)
        self.write_queries(out, range(len(nodes)), nodes, times)
        return self.bundle_from(out, queries)

    def bundle_from(
        self,
        out: _QueryOutputs,
        queries: QuerySet,
        ctdg: Optional[CTDG] = None,
    ) -> ContextBundle:
        """Wrap a filled output block as a :class:`ContextBundle`."""
        if ctdg is None:
            empty = np.zeros(0, dtype=np.int64)
            ctdg = CTDG(empty, empty, np.zeros(0), num_nodes=self.num_nodes)
        return ContextBundle(
            ctdg=ctdg,
            queries=queries,
            k=self.k,
            neighbor_nodes=out.neighbor_nodes,
            neighbor_times=out.neighbor_times,
            neighbor_degrees=out.neighbor_degrees,
            edge_features=out.edge_features,
            edge_weights=out.edge_weights,
            mask=out.mask,
            target_degrees=out.target_degrees,
            target_last_times=out.target_last_times,
            target_seen=out.target_seen,
            target_features=out.target_features,
            neighbor_features=out.neighbor_features,
            structural_params=dict(self._structural_params),
            static_tables=dict(self._static_tables),
        )


def incremental_context_bundle(
    ctdg: CTDG,
    queries: QuerySet,
    k: int,
    processes: Sequence[FeatureProcess] = (),
    ingest_batch: Optional[int] = None,
    propagation: str = "blocked",
) -> ContextBundle:
    """Materialise a full bundle through the *incremental* path.

    Replays the edge/query interleave of ``ctdg``/``queries`` through a
    fresh :class:`IncrementalContextStore`, ingesting edges in micro-batches
    of at most ``ingest_batch`` (None = maximal runs) and answering each
    query block against the state at that point.  The result must be — and
    is tested to be — bit-for-bit identical to
    :func:`repro.models.context.build_context_bundle` with any engine;
    this function exists for exactly that equivalence check (tests, the
    serving benchmark's ``identical`` bit) and as executable documentation
    of the serving replay protocol.
    """
    store = IncrementalContextStore(
        processes, k, ctdg.num_nodes, ctdg.edge_feature_dim, propagation=propagation
    )
    out = _QueryOutputs(len(queries), k, ctdg.edge_feature_dim, store.stores)
    has_features = ctdg.edge_features is not None
    for kind, lo, hi in iter_interleave(
        ctdg.times, queries.times, max_block=ingest_batch
    ):
        if kind == "edges":
            store.ingest_arrays(
                ctdg.src[lo:hi],
                ctdg.dst[lo:hi],
                ctdg.times[lo:hi],
                ctdg.edge_features[lo:hi] if has_features else None,
                ctdg.weights[lo:hi],
            )
        else:
            store.write_queries(
                out, range(lo, hi), queries.nodes[lo:hi], queries.times[lo:hi]
            )
    return store.bundle_from(out, queries, ctdg=ctdg)
