"""Interfaces for node feature augmentation processes (paper §IV-A).

A :class:`FeatureProcess` is fitted once on the training prefix G_seen
(assigning features to seen nodes); it then spawns fresh
:class:`OnlineFeatureStore` instances that maintain time-varying features
*incrementally* while a stream is replayed — the store is where unseen-node
handling (degree encoding or feature propagation) lives.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

import numpy as np

from repro.streams.ctdg import CTDG


class OnlineFeatureStore(ABC):
    """Streaming view of one feature process: x_i(t) as t advances."""

    dim: int

    def static_node_mask(self) -> Optional[np.ndarray]:
        """Boolean mask of nodes whose features never change during replay.

        The contract backing the vectorised context collector (see
        ``repro.models.context``): for a static node ``n``,
        ``feature_of(n)`` equals ``snapshot_table()[n]`` at every point of
        the replay, and an edge whose endpoints are both static leaves the
        store's state untouched (``on_edge`` is a no-op for it).  Returning
        ``None`` (the default) declares no such nodes, which routes every
        edge through the store's per-event path.

        The batched collector additionally assumes *locality*: a node's
        feature may change only when an edge incident to that node arrives,
        and a non-static node that no edge has touched yet reads as the
        zero vector (as feature propagation's unseen nodes do, Eqs. 4-5).
        A store violating either assumption — nonzero untouched features,
        or non-local updates such as global time decay/renormalisation in
        ``on_edge`` — must be materialised with
        ``build_context_bundle(..., engine="event")``.
        """
        return None

    def snapshot_table(self) -> Optional[np.ndarray]:
        """The ``(num_nodes, dim)`` feature table backing static nodes.

        Required whenever :meth:`static_node_mask` returns a mask; rows of
        non-static nodes may hold anything.
        """
        return None

    @abstractmethod
    def on_edge(
        self,
        index: int,
        src: int,
        dst: int,
        time: float,
        feature: Optional[np.ndarray],
        weight: float,
    ) -> None:
        """Update internal state for an arriving temporal edge."""

    def on_edge_block(
        self,
        indices: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        features: Optional[np.ndarray],
        weights: np.ndarray,
    ) -> None:
        """Advance past one *endpoint-disjoint* run of temporal edges.

        Callers (the blocked propagation pass, see
        :func:`repro.streams.replay.plan_update_blocks`) guarantee that no
        two distinct edges of the run share a node, so every update reads
        state no other edge of the run writes.  Implementations may
        therefore apply the whole run as one gather + scatter from pre-run
        state; the contract is that the resulting store state is
        bit-for-bit identical to calling :meth:`on_edge` once per event in
        run order.  The default loops per event, which satisfies the
        contract for any store.

        ``features`` is ``None`` for featureless streams, else the
        ``(len(src), d_e)`` block; ``indices`` carries the global edge
        indices (the run need not be contiguous in the stream).
        """
        for offset in range(len(src)):
            feature = features[offset] if features is not None else None
            self.on_edge(
                int(indices[offset]),
                int(src[offset]),
                int(dst[offset]),
                float(times[offset]),
                feature,
                float(weights[offset]),
            )

    def on_query(self, index: int, node: int, time: float) -> None:
        """Label queries do not change feature state; provided for replay."""

    @abstractmethod
    def feature_of(self, node: int) -> np.ndarray:
        """Current feature vector x_node(t) (never None; zeros if untouched)."""

    def features_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorised lookup; default loops over :meth:`feature_of`."""
        nodes = np.asarray(nodes, dtype=np.int64)
        out = np.zeros((len(nodes), self.dim))
        for row, node in enumerate(nodes):
            out[row] = self.feature_of(int(node))
        return out

    # ------------------------------------------------------------------
    # Persistence (serving snapshots, repro.serving.persistence)
    # ------------------------------------------------------------------
    def export_runtime_state(self) -> Dict[str, np.ndarray]:
        """The store's *evolving* replay state as named arrays.

        Distinct from :meth:`FeatureProcess.export_state` (the fitted
        tables an artifact persists): this captures the state a live
        replay has accumulated — propagated unseen-node rows, streaming
        degree counts — so a serving snapshot can resume mid-stream.
        The contract mirrors ``on_edge_block``'s: restoring the exported
        arrays into a fresh store (built by the same fitted process) via
        :meth:`restore_runtime_state` must reproduce the original store's
        observable behaviour bit for bit.  Return copies, never views of
        live state: the serving layer writes them to disk after releasing
        the lock that keeps ingest out.

        There is no safe default — a store with unexported mutable state
        would silently resume wrong — so stores must opt in explicitly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support runtime-state "
            "snapshots; implement export_runtime_state/restore_runtime_state "
            "to make it persistable"
        )

    def restore_runtime_state(self, arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`export_runtime_state`, applied to a fresh store."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support runtime-state snapshots"
        )


class FeatureProcess(ABC):
    """One of the augmentation processes X ∈ {R, P, S} (and the ZF control)."""

    name: str = "abstract"

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"feature dim must be positive, got {dim}")
        self.dim = dim
        self._seen_mask: Optional[np.ndarray] = None
        self._num_nodes: Optional[int] = None

    @abstractmethod
    def fit(self, train_ctdg: CTDG, num_nodes: int) -> None:
        """Learn features for nodes seen in the training prefix.

        ``num_nodes`` is the size of the *full* node-id space (training and
        test), so stores can index any node that may later appear.
        """

    @abstractmethod
    def make_store(self) -> OnlineFeatureStore:
        """Fresh streaming state for one replay of the full stream."""

    # ------------------------------------------------------------------
    def _record_seen(self, train_ctdg: CTDG, num_nodes: int) -> None:
        if num_nodes < train_ctdg.num_nodes:
            raise ValueError(
                f"num_nodes={num_nodes} smaller than the training stream's "
                f"id space {train_ctdg.num_nodes}"
            )
        mask = np.zeros(num_nodes, dtype=bool)
        seen = train_ctdg.nodes_seen()
        mask[seen] = True
        self._seen_mask = mask
        self._num_nodes = num_nodes

    @property
    def seen_mask(self) -> np.ndarray:
        if self._seen_mask is None:
            raise RuntimeError(f"process {self.name!r} has not been fitted")
        return self._seen_mask

    @property
    def num_nodes(self) -> int:
        if self._num_nodes is None:
            raise RuntimeError(f"process {self.name!r} has not been fitted")
        return self._num_nodes

    def is_fitted(self) -> bool:
        return self._seen_mask is not None

    # ------------------------------------------------------------------
    # Persistence (SPLASH artifacts, repro.serving.artifact)
    # ------------------------------------------------------------------
    def init_params(self) -> Dict[str, object]:
        """JSON-serialisable constructor arguments that recreate this process.

        Subclasses with extra hyperparameters (e.g. structural α) extend the
        dict; everything here must be accepted by ``type(self)(**params)``.
        """
        return {"dim": self.dim}

    def export_state(self) -> Dict[str, np.ndarray]:
        """Fitted state as named arrays (the artifact's on-disk payload).

        The base implementation captures the seen-node mask; subclasses add
        their fitted tables.  Restoring via :meth:`restore_state` must yield
        a process whose :meth:`make_store` behaves identically to the
        original — bit-for-bit, since arrays round-trip ``.npz`` exactly.
        """
        if not self.is_fitted():
            raise RuntimeError(f"process {self.name!r} is not fitted")
        return {"seen_mask": self.seen_mask}

    def restore_state(self, arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`export_state`: mark fitted without refitting."""
        seen_mask = np.asarray(arrays["seen_mask"], dtype=bool)
        self._seen_mask = seen_mask
        self._num_nodes = int(len(seen_mask))


class TableStateMixin:
    """Persistence for processes whose fitted state is a ``_table`` array.

    Mix in before :class:`FeatureProcess`; the base ``export_state`` runs
    first (raising on unfitted processes), so ``_table`` is guaranteed to
    exist by the time it is read here.
    """

    def export_state(self) -> Dict[str, np.ndarray]:
        state = super().export_state()
        state["table"] = self._table
        return state

    def restore_state(self, arrays: Dict[str, np.ndarray]) -> None:
        super().restore_state(arrays)
        self._table = np.asarray(arrays["table"], dtype=np.float64)
