"""``repro.streams`` — continuous-time dynamic graph (CTDG) substrate.

Columnar edge streams, graph snapshots, incremental degree tracking,
chronological splitting, stream replay, and file I/O.  These implement
§II-A/§II-E of the paper and are the foundation for feature augmentation
and all TGNN models.  The k-recent neighbour summary (Eq. 6) lives with
the replay state that writes it, :class:`repro.models.context.NeighborRing`.
"""

from repro.streams.batching import chronological_batches, minibatch_indices
from repro.streams.ctdg import CTDG, merge_streams
from repro.streams.degrees import DegreeTracker
from repro.streams.edge import TemporalEdge
from repro.streams.io import read_csv, read_jsonl, write_csv, write_jsonl
from repro.streams.replay import (
    BatchStreamProcessor,
    PerEventAdapter,
    StreamProcessor,
    as_batch_processor,
    plan_update_blocks,
    replay,
    replay_batched,
)
from repro.streams.snapshot import GraphSnapshot, snapshot_sequence
from repro.streams.split import (
    ChronoSplit,
    chronological_split,
    selection_split_fractions,
    split_at_fraction,
    unseen_ratio_split,
)

__all__ = [
    "CTDG",
    "merge_streams",
    "TemporalEdge",
    "DegreeTracker",
    "GraphSnapshot",
    "snapshot_sequence",
    "StreamProcessor",
    "BatchStreamProcessor",
    "PerEventAdapter",
    "as_batch_processor",
    "replay",
    "replay_batched",
    "ChronoSplit",
    "chronological_split",
    "selection_split_fractions",
    "split_at_fraction",
    "unseen_ratio_split",
    "read_csv",
    "write_csv",
    "read_jsonl",
    "write_jsonl",
    "chronological_batches",
    "minibatch_indices",
]
