"""``repro.serving`` — the online serving subsystem.

Offline, this repository answers queries by rematerialising the full
context in one replay (:func:`repro.models.context.build_context_bundle`).
Serving inverts that: edges arrive in micro-batches, state is maintained
*incrementally*, and any query is answered from the current state in O(k)
— with output **bit-for-bit identical** to an offline replay of the same
edge prefix, because the live store and the offline engines share one
state-update core (:class:`repro.models.context.ReplayState`).

Three parts (see DESIGN.md §4):

* :class:`IncrementalContextStore` — ``ingest(edges)`` / ``materialise``
  over the shared replay state;
* :class:`PredictionService` — micro-batched scoring with a trained SLIM,
  background ingest overlap, and p50/p99 latency + throughput metrics;
* :mod:`repro.serving.artifact` — persistent SPLASH artifacts
  (``Splash.save`` / ``Splash.load``) so a pipeline trained once can be
  loaded into the service and hot-swapped without downtime;
* :mod:`repro.serving.persistence` — durable serving state: an
  append-only memory-mapped segment log of every ingested edge, periodic
  zero-copy store snapshots, and a manifest binding them to the artifact —
  so ``PredictionService.resume(path)`` warm-restarts in O(tail) instead
  of O(stream), bit-for-bit equal to a cold replay (DESIGN.md §6).

The drift-aware adaptation loop that keeps a long-running service
accurate under distribution shift — monitor, re-fit scheduler, shadow
gate, model registry — lives in :mod:`repro.adapt` (DESIGN.md §5) and
plugs in through two seams here: ``IncrementalContextStore.attach_monitor``
and ``PredictionService.hot_swap(model, store=...)``.
"""

from repro.serving.artifact import load_artifact, save_artifact
from repro.serving.config import ServingConfig
from repro.serving.fleet import (
    FleetRouter,
    FleetWorkerError,
    ServingClient,
    serve,
)
from repro.serving.persistence import (
    EventLog,
    PersistenceManager,
    SegmentCorruption,
    SegmentReader,
    SegmentWriter,
    SnapshotCorruption,
    SnapshotWriteError,
    load_snapshot,
    write_snapshot,
)
from repro.serving.service import PredictionService, ServiceMetrics
from repro.serving.store import IncrementalContextStore, incremental_context_bundle

__all__ = [
    "ServingConfig",
    "serve",
    "ServingClient",
    "FleetRouter",
    "FleetWorkerError",
    "IncrementalContextStore",
    "incremental_context_bundle",
    "PredictionService",
    "ServiceMetrics",
    "save_artifact",
    "load_artifact",
    "PersistenceManager",
    "EventLog",
    "SegmentWriter",
    "SegmentReader",
    "SegmentCorruption",
    "SnapshotCorruption",
    "SnapshotWriteError",
    "write_snapshot",
    "load_snapshot",
]
