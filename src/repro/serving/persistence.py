"""Zero-copy persistence for the serving layer: segment log, snapshots,
manifest — and O(1) warm restart.

A serving node that restarts without this module must re-replay its whole
ingested prefix, so recovery time grows linearly with stream length.  This
module makes restart time independent of the stream:

* **Segment log** — :class:`SegmentWriter`/:class:`SegmentReader` over an
  append-only directory of fixed-dtype binary segments (one packed record
  per temporal edge, ``.npy``-style memory-mappable layout).  Each segment
  pairs a data file with a fsynced JSON footer recording the durable event
  count and a CRC-32 of exactly those bytes; the footer — written with
  temp-file + ``os.replace`` — is the commit point.  Bytes beyond the
  footer count are a torn tail from a crash mid-append and are truncated
  on reopen; bytes *missing* against the footer count are real corruption
  and fail loudly (:class:`SegmentCorruption`).
* **Snapshots** — :func:`write_snapshot` persists one
  :meth:`IncrementalContextStore.export_runtime_state` cut as one ``.npy``
  file per array plus a ``snapshot.json`` index (sizes + CRC-32 + the
  store's scalars).  The dense working tables are contiguous, so a
  snapshot writes each table's bytes straight after its ``.npy`` header,
  checksummed from memory; :func:`load_snapshot`
  memory-maps the large ones copy-on-write, so a warm restart touches only
  the pages the resumed replay actually dirties.  Snapshot directories are
  written to a temp sibling and renamed into place — a torn snapshot is
  detected (missing/short/CRC-mismatched files) and skipped, never loaded
  silently wrong.
* **Manifest** — ``manifest.json`` at the persistence root binds the
  artifact (path + dtype/backend provenance), the store schema, the
  segment list, and the snapshot chain.  It is rewritten atomically, so a
  reader sees the previous consistent binding or the new one, never a
  torn state.

:class:`PersistenceManager` wires the three together around one live
:class:`~repro.serving.store.IncrementalContextStore`: ingest tees into
the log through :meth:`IncrementalContextStore.attach_journal`, snapshots
are cut every ``snapshot_every`` ingested edges on the ingesting thread and
written by one background writer thread, and
:meth:`PersistenceManager.resume` rebuilds the pair — load artifact, mmap
the newest valid snapshot, tail-replay only the unsnapshotted suffix —
bit-for-bit equal to a cold replay of the full log
(``tests/serving/test_persistence.py``, gated in CI by
``bench_restart.py``).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import threading
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.serving.store import IncrementalContextStore
from repro.utils.logging import get_logger

logger = get_logger("serving")

SEGMENT_FORMAT = "splash-segment"
SNAPSHOT_FORMAT = "splash-snapshot"
MANIFEST_FORMAT = "splash-persistence"
MANIFEST_VERSION = 1
MANIFEST_FILE = "manifest.json"
SEGMENTS_DIR = "segments"
SNAPSHOTS_DIR = "snapshots"
DEFAULT_SEGMENT_EVENTS = 1 << 18
DEFAULT_SNAPSHOT_EVERY = 100_000
# Arrays at least this large load memory-mapped (copy-on-write) instead of
# being read eagerly: the snapshot's dense tables resume zero-copy.
MMAP_THRESHOLD_BYTES = 1 << 20


class SegmentCorruption(RuntimeError):
    """A segment's bytes contradict its committed footer."""


class SnapshotCorruption(RuntimeError):
    """A snapshot directory is torn, truncated, or checksum-mismatched."""


class SnapshotWriteError(RuntimeError):
    """The background snapshot writer failed; ``__cause__`` holds why."""


def event_dtype(edge_feature_dim: int) -> np.dtype:
    """The fixed per-edge record layout of a segment file."""
    return np.dtype(
        [
            ("src", "<i8"),
            ("dst", "<i8"),
            ("time", "<f8"),
            ("weight", "<f8"),
            ("feat", "<f8", (int(edge_feature_dim),)),
        ]
    )


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str, payload: dict) -> None:
    """Durably replace ``path`` with ``payload``: temp file, fsync, rename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(
        directory, f".{os.path.basename(path)}.tmp-{os.getpid()}"
    )
    try:
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


# ----------------------------------------------------------------------
# Segment log
# ----------------------------------------------------------------------
def _segment_basename(start: int) -> str:
    return f"seg-{start:012d}"


class SegmentWriter:
    """Appends fixed-dtype edge records to one segment; footer is the commit.

    ``append`` buffers into the OS; :meth:`flush` fsyncs the data file and
    then atomically rewrites the footer (count + running CRC-32), making
    everything appended so far durable.  Reopening an existing segment
    truncates any un-committed tail bytes back to the footer count — the
    crash-mid-append recovery path — and resumes the CRC from the footer.
    """

    def __init__(self, directory: str, start: int, edge_feature_dim: int) -> None:
        self.start = int(start)
        self.edge_feature_dim = int(edge_feature_dim)
        self.dtype = event_dtype(edge_feature_dim)
        base = os.path.join(directory, _segment_basename(start))
        self.data_path = base + ".seg"
        self.footer_path = base + ".json"
        count, crc = 0, 0
        if os.path.exists(self.footer_path):
            footer = read_segment_footer(self.footer_path)
            if footer["start"] != self.start:
                raise SegmentCorruption(
                    f"footer start {footer['start']} does not match segment "
                    f"file {self.data_path!r}"
                )
            count, crc = footer["count"], footer["crc32"]
            need = count * self.dtype.itemsize
            have = os.path.getsize(self.data_path)
            if have < need:
                raise SegmentCorruption(
                    f"segment {self.data_path!r} holds {have} bytes but its "
                    f"footer committed {need}; refusing to resume from a "
                    "truncated segment"
                )
        need = count * self.dtype.itemsize
        if os.path.exists(self.data_path) and os.path.getsize(self.data_path) > need:
            # Torn tail from a crash between append and flush: the records
            # past the footer were never committed, so drop them.
            logger.warning(
                "truncating %d un-committed tail bytes in %s",
                os.path.getsize(self.data_path) - need,
                self.data_path,
            )
            with open(self.data_path, "r+b") as handle:
                handle.truncate(need)
        self._handle = open(self.data_path, "ab")
        self._count = count
        self._durable = count
        self._crc = crc

    @property
    def count(self) -> int:
        """Records appended (durable + not-yet-flushed)."""
        return self._count

    @property
    def durable_count(self) -> int:
        return self._durable

    def append(self, src, dst, times, features, weights) -> int:
        n = len(src)
        records = np.empty(n, dtype=self.dtype)
        records["src"] = src
        records["dst"] = dst
        records["time"] = times
        records["weight"] = weights
        if self.edge_feature_dim:
            records["feat"] = features
        payload = records.tobytes()
        self._handle.write(payload)
        self._crc = zlib.crc32(payload, self._crc)
        self._count += n
        return n

    def flush(self) -> None:
        """Make every appended record durable (fsync data, commit footer)."""
        if self._durable == self._count and os.path.exists(self.footer_path):
            return
        with obs.span("persist.fsync", segment=self.start, events=self._count):
            self._handle.flush()
            os.fsync(self._handle.fileno())
            atomic_write_json(
                self.footer_path,
                {
                    "format": SEGMENT_FORMAT,
                    "start": self.start,
                    "count": self._count,
                    "crc32": self._crc,
                    "edge_feature_dim": self.edge_feature_dim,
                    "record_bytes": self.dtype.itemsize,
                },
            )
            self._durable = self._count

    def close(self) -> None:
        self.flush()
        self._handle.close()


def read_segment_footer(path: str) -> dict:
    try:
        with open(path) as handle:
            footer = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SegmentCorruption(f"unreadable segment footer {path!r}: {error}")
    if footer.get("format") != SEGMENT_FORMAT:
        raise SegmentCorruption(
            f"not a segment footer: {path!r} (format={footer.get('format')!r})"
        )
    return {
        "start": int(footer["start"]),
        "count": int(footer["count"]),
        "crc32": int(footer["crc32"]),
        "edge_feature_dim": int(footer["edge_feature_dim"]),
        "record_bytes": int(footer["record_bytes"]),
    }


class SegmentReader:
    """Memory-mapped read access to one committed segment.

    Only the footer-committed prefix is visible; torn tail bytes past it
    are ignored.  ``verify=True`` additionally checks the committed bytes
    against the footer's CRC-32 (an O(segment) scan, used at resume).
    """

    def __init__(self, directory: str, start: int, *, verify: bool = False) -> None:
        base = os.path.join(directory, _segment_basename(start))
        self.data_path = base + ".seg"
        footer = read_segment_footer(base + ".json")
        if footer["start"] != int(start):
            raise SegmentCorruption(
                f"footer start {footer['start']} does not match segment "
                f"file {self.data_path!r}"
            )
        self.start = footer["start"]
        self.count = footer["count"]
        self.edge_feature_dim = footer["edge_feature_dim"]
        self.dtype = event_dtype(self.edge_feature_dim)
        need = self.count * self.dtype.itemsize
        have = os.path.getsize(self.data_path) if os.path.exists(self.data_path) else -1
        if have < need:
            raise SegmentCorruption(
                f"segment {self.data_path!r} holds {max(have, 0)} bytes but "
                f"its footer committed {need}; the committed tail is missing"
            )
        if self.count:
            self._records = np.memmap(
                self.data_path, dtype=self.dtype, mode="r", shape=(self.count,)
            )
        else:
            self._records = np.empty(0, dtype=self.dtype)
        if verify and self.count:
            crc = zlib.crc32(self._records.tobytes())
            if crc != footer["crc32"]:
                raise SegmentCorruption(
                    f"segment {self.data_path!r} fails its checksum "
                    f"(footer crc32={footer['crc32']}, data crc32={crc})"
                )

    def read(self, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
        """Columns for records ``[lo, hi)`` (segment-relative indices)."""
        if not 0 <= lo <= hi <= self.count:
            raise IndexError(
                f"range [{lo}, {hi}) outside segment of {self.count} records"
            )
        block = self._records[lo:hi]
        features = (
            np.array(block["feat"], dtype=np.float64)
            if self.edge_feature_dim
            else None
        )
        return (
            np.array(block["src"], dtype=np.int64),
            np.array(block["dst"], dtype=np.int64),
            np.array(block["time"], dtype=np.float64),
            features,
            np.array(block["weight"], dtype=np.float64),
        )


class EventLog:
    """Append-only CTDG event log over a directory of segments.

    Recovery at open: segments are chained by their start offsets (each
    must begin exactly where its predecessor's footer ends); a sealed
    segment with a missing or contradicted footer fails loudly, while the
    *tail* segment may carry un-committed bytes (truncated) or no footer
    at all (zero durable events — a crash before the first flush).
    """

    def __init__(
        self,
        root: str,
        edge_feature_dim: int,
        *,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
        verify: bool = False,
    ) -> None:
        if segment_events <= 0:
            raise ValueError(f"segment_events must be positive, got {segment_events}")
        self.root = root
        self.edge_feature_dim = int(edge_feature_dim)
        self.segment_events = int(segment_events)
        self._verify = verify
        os.makedirs(root, exist_ok=True)
        starts = sorted(
            int(name[len("seg-"):-len(".seg")])
            for name in os.listdir(root)
            if name.startswith("seg-") and name.endswith(".seg")
        )
        expected = 0
        for position, start in enumerate(starts):
            if start != expected:
                raise SegmentCorruption(
                    f"segment chain broken in {root!r}: expected a segment "
                    f"starting at {expected}, found {start}"
                )
            if position < len(starts) - 1:
                footer = read_segment_footer(
                    os.path.join(root, _segment_basename(start) + ".json")
                )
                expected = start + footer["count"]
            # The tail segment's durable count is resolved by its writer.
        tail_start = starts[-1] if starts else 0
        if starts and not os.path.exists(
            os.path.join(root, _segment_basename(tail_start) + ".json")
        ):
            # Crash before the tail's first flush: nothing in it is
            # durable.  Truncate it to empty and commit that explicitly.
            logger.warning(
                "tail segment at %d has no footer; recovering it as empty",
                tail_start,
            )
            with open(
                os.path.join(root, _segment_basename(tail_start) + ".seg"), "r+b"
            ) as handle:
                handle.truncate(0)
            SegmentWriter(root, tail_start, edge_feature_dim).close()
        self._writer = SegmentWriter(root, tail_start, edge_feature_dim)
        self._sealed: List[Tuple[int, int]] = []  # (start, count) of sealed segs
        for start in starts[:-1]:
            footer = read_segment_footer(
                os.path.join(root, _segment_basename(start) + ".json")
            )
            self._sealed.append((start, footer["count"]))

    # ------------------------------------------------------------------
    @property
    def appended_events(self) -> int:
        """Events written (durable or not); equals the ingested count."""
        return self._writer.start + self._writer.count

    @property
    def durable_events(self) -> int:
        """Events safe against a crash (committed by a segment footer)."""
        return self._writer.start + self._writer.durable_count

    def append(self, src, dst, times, features, weights) -> int:
        """Append one batch, rolling to new segments at the size bound."""
        total = len(src)
        lo = 0
        with obs.span("persist.append", events=total):
            while lo < total:
                room = self.segment_events - self._writer.count
                if room <= 0:
                    self._roll()
                    continue
                hi = min(total, lo + room)
                self._writer.append(
                    src[lo:hi],
                    dst[lo:hi],
                    times[lo:hi],
                    None if features is None else features[lo:hi],
                    weights[lo:hi],
                )
                lo = hi
        appended = self.appended_events
        obs.set_gauge("persist.log.appended_events", appended)
        obs.set_gauge("persist.log.bytes", appended * self._writer.dtype.itemsize)
        return total

    def _update_durable_gauge(self) -> None:
        obs.set_gauge("persist.log.durable_events", self.durable_events)

    def _roll(self) -> None:
        self._writer.close()
        self._sealed.append((self._writer.start, self._writer.count))
        self._writer = SegmentWriter(
            self.root, self.appended_events, self.edge_feature_dim
        )

    def flush(self) -> None:
        self._writer.flush()
        self._update_durable_gauge()

    def close(self) -> None:
        self._writer.close()
        self._update_durable_gauge()

    def segment_index(self) -> List[dict]:
        """Manifest-friendly listing: file, start, durable count per segment."""
        entries = [
            {
                "file": _segment_basename(start) + ".seg",
                "start": start,
                "count": count,
            }
            for start, count in self._sealed
        ]
        entries.append(
            {
                "file": _segment_basename(self._writer.start) + ".seg",
                "start": self._writer.start,
                "count": self._writer.durable_count,
            }
        )
        return entries

    def read_range(
        self, lo: int, hi: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, ...]]:
        """Yield column blocks covering global events ``[lo, hi)``.

        ``hi`` defaults to the durable watermark; reading beyond it raises
        (those records are not committed).  The flat per-segment layout
        makes this a memmap slice per overlapping segment — the tail
        replay of a warm restart.
        """
        hi = self.durable_events if hi is None else hi
        if not 0 <= lo <= hi <= self.durable_events:
            raise IndexError(
                f"range [{lo}, {hi}) outside durable log of "
                f"{self.durable_events} events"
            )
        self.flush()
        spans = self._sealed + [(self._writer.start, self._writer.durable_count)]
        for start, count in spans:
            s_lo = max(lo, start)
            s_hi = min(hi, start + count)
            if s_lo >= s_hi:
                continue
            reader = SegmentReader(self.root, start, verify=self._verify)
            yield reader.read(s_lo - start, s_hi - start)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def _snapshot_dir(snapshots_root: str, offset: int) -> str:
    """Where the snapshot cut at global log ``offset`` is written:
    ``snap-<offset>``, suffixed ``-<n>`` past directories already there."""
    name = f"snap-{int(offset):012d}"
    final = os.path.join(snapshots_root, name)
    attempt = 0
    while os.path.exists(final):
        attempt += 1
        final = os.path.join(snapshots_root, f"{name}-{attempt}")
    return final


def _write_npy(path: str, array: np.ndarray) -> Tuple[int, int]:
    """Write ``array`` with exactly ``np.save``'s bytes and fsync it.

    Returns the file's size and CRC-32, both taken from the header and
    the array's buffer in memory, so the file is never read back and the
    array is never copied.
    """
    array = np.ascontiguousarray(array)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array)
    )
    head = header.getvalue()
    body = array.reshape(-1).view(np.uint8)
    with open(path, "wb") as handle:
        handle.write(head)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    return len(head) + body.size, zlib.crc32(body, zlib.crc32(head))


def write_snapshot(
    snapshots_root: str, arrays: Dict[str, np.ndarray], scalars: dict
) -> str:
    """Persist one store cut durably; returns the snapshot directory name.

    Arrays are written one ``.npy`` file each (so large tables can be
    memory-mapped back), then ``snapshot.json`` (sizes + CRC-32 + scalars)
    inside a temp sibling directory that is fsynced and renamed into
    place: a crash at any point leaves either no snapshot or a complete
    one, and :func:`load_snapshot` detects the difference.
    """
    os.makedirs(snapshots_root, exist_ok=True)
    final = _snapshot_dir(snapshots_root, scalars["offset"])
    tmp = os.path.join(
        snapshots_root, f".{os.path.basename(final)}.tmp-{os.getpid()}"
    )
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        index = {}
        for position, key in enumerate(sorted(arrays)):
            file_name = f"a{position:05d}.npy"
            size, crc = _write_npy(os.path.join(tmp, file_name), arrays[key])
            index[key] = {"file": file_name, "bytes": size, "crc32": crc}
        atomic_write_json(
            os.path.join(tmp, "snapshot.json"),
            {
                "format": SNAPSHOT_FORMAT,
                "version": 1,
                "scalars": dict(scalars),
                "arrays": index,
            },
        )
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_dir(snapshots_root)
    return os.path.basename(final)


def load_snapshot(
    path: str, *, verify: bool = True, mmap_threshold: int = MMAP_THRESHOLD_BYTES
) -> Tuple[Dict[str, np.ndarray], dict]:
    """Load a snapshot directory, failing loudly on any tear.

    Every indexed file must exist with its recorded size (and CRC-32 when
    ``verify``); arrays at least ``mmap_threshold`` bytes come back
    memory-mapped copy-on-write — the restored store mutates them in
    memory without touching the snapshot on disk.
    """
    index_path = os.path.join(path, "snapshot.json")
    if not os.path.exists(index_path):
        raise SnapshotCorruption(
            f"{path!r} has no snapshot.json — torn or incomplete snapshot"
        )
    try:
        with open(index_path) as handle:
            index = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotCorruption(f"unreadable snapshot index {index_path!r}: {error}")
    if index.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotCorruption(
            f"not a snapshot: {path!r} (format={index.get('format')!r})"
        )
    arrays: Dict[str, np.ndarray] = {}
    for key, entry in index["arrays"].items():
        file_path = os.path.join(path, entry["file"])
        if not os.path.exists(file_path):
            raise SnapshotCorruption(
                f"snapshot {path!r} is missing array file {entry['file']!r}"
            )
        size = os.path.getsize(file_path)
        if size != int(entry["bytes"]):
            raise SnapshotCorruption(
                f"snapshot array {file_path!r} holds {size} bytes, index "
                f"records {entry['bytes']} — torn snapshot"
            )
        if verify:
            with open(file_path, "rb") as handle:
                crc = zlib.crc32(handle.read())
            if crc != int(entry["crc32"]):
                raise SnapshotCorruption(
                    f"snapshot array {file_path!r} fails its checksum"
                )
        if size >= mmap_threshold:
            arrays[key] = np.load(file_path, mmap_mode="c")
        else:
            arrays[key] = np.load(file_path)
    return arrays, index["scalars"]


# ----------------------------------------------------------------------
# Manifest + manager
# ----------------------------------------------------------------------
class PersistenceManager:
    """Binds one live store to a persistence root (log + snapshots + manifest).

    Create one per serving process with :meth:`create` (fresh root, saves
    the artifact, attaches the ingest journal) or :meth:`resume` (rebuilds
    artifact + store from the newest valid snapshot plus a tail replay).
    ``snapshot_every`` bounds the tail a restart must replay; the
    adaptation loop re-binds a promoted artifact + warmed store through
    :meth:`rebind` so checkpoints follow hot swaps.

    A snapshot is cut on the calling thread and written by one background
    writer thread, at most one write in flight (see :meth:`snapshot`).
    The next cut, :meth:`flush`, :meth:`close`, :meth:`rebind` and
    :attr:`snapshots` wait for that write first; once a write has failed,
    they and :meth:`maybe_snapshot` raise :class:`SnapshotWriteError`.
    """

    def __init__(
        self,
        root: str,
        store: IncrementalContextStore,
        log: EventLog,
        *,
        artifact_info: dict,
        base_offset: int = 0,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        keep_snapshots: int = 2,
        snapshots: Optional[List[str]] = None,
        last_snapshot_position: int = 0,
    ) -> None:
        if snapshot_every <= 0:
            raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
        if keep_snapshots < 1:
            raise ValueError(f"keep_snapshots must be >= 1, got {keep_snapshots}")
        self.root = root
        self.store = store
        self.snapshot_every = int(snapshot_every)
        self.keep_snapshots = int(keep_snapshots)
        self._log = log
        self._artifact_info = dict(artifact_info)
        self._base_offset = int(base_offset)
        self._snapshots = list(snapshots or [])
        self._last_snapshot_position = int(last_snapshot_position)
        self._lock = threading.RLock()
        self._writer: Optional[threading.Thread] = None
        self._write_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str,
        splash,
        store: IncrementalContextStore,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
        keep_snapshots: int = 2,
    ) -> "PersistenceManager":
        """Initialise a fresh persistence root around an un-started store."""
        if os.path.exists(os.path.join(root, MANIFEST_FILE)):
            raise FileExistsError(
                f"{root!r} already holds a persistence manifest; use resume()"
            )
        if store.edges_ingested:
            raise RuntimeError(
                "persistence must start on a fresh store (this one has "
                f"already ingested {store.edges_ingested} edges); resume() "
                "rebuilds mid-stream state instead"
            )
        os.makedirs(root, exist_ok=True)
        artifact_rel = "artifact-0001"
        splash.save(os.path.join(root, artifact_rel))
        log = EventLog(
            os.path.join(root, SEGMENTS_DIR),
            store.edge_feature_dim,
            segment_events=segment_events,
        )
        manager = cls(
            root,
            store,
            log,
            artifact_info=_artifact_info(artifact_rel, splash),
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
        )
        manager._write_manifest(log.segment_index(), [])
        store.attach_journal(manager.append)
        return manager

    @classmethod
    def resume(
        cls,
        root: str,
        *,
        verify: bool = True,
        snapshot_every: Optional[int] = None,
        keep_snapshots: int = 2,
    ):
        """Warm-restart a serving pair from ``root``.

        Returns ``(splash, store, manager)``: the manifest's artifact
        reloaded, a store restored from the newest *valid* snapshot (torn
        or checksum-failed snapshots are skipped with a warning, falling
        back to older ones and ultimately to a full log replay), and the
        tail of the durable log replayed on top — so the result is
        bit-for-bit the state a never-restarted store would hold over the
        same durable prefix.
        """
        with obs.span("persist.resume", root=root):
            return cls._resume(
                root,
                verify=verify,
                snapshot_every=snapshot_every,
                keep_snapshots=keep_snapshots,
            )

    @classmethod
    def _resume(
        cls,
        root: str,
        *,
        verify: bool,
        snapshot_every: Optional[int],
        keep_snapshots: int,
    ):
        from repro.pipeline.splash import Splash

        manifest_path = os.path.join(root, MANIFEST_FILE)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"no persistence manifest at {root!r}")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"not a persistence manifest: format={manifest.get('format')!r}"
            )
        if int(manifest.get("version", -1)) > MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {manifest['version']} is newer than this "
                f"reader ({MANIFEST_VERSION})"
            )
        splash = Splash.load(os.path.join(root, manifest["artifact"]["path"]))
        store_cfg = manifest["store"]
        log = EventLog(
            os.path.join(root, SEGMENTS_DIR),
            store_cfg["edge_feature_dim"],
            segment_events=manifest.get("segment_events", DEFAULT_SEGMENT_EVENTS),
            verify=verify,
        )
        try:
            owner = store_cfg.get("owner")
            store = IncrementalContextStore(
                splash.processes,
                store_cfg["k"],
                store_cfg["num_nodes"],
                store_cfg["edge_feature_dim"],
                propagation=store_cfg.get("propagation", "blocked"),
                owner=tuple(owner) if owner is not None else None,
            )
            base_offset = int(manifest.get("base_offset", 0))
            usable: List[str] = []
            restored_position = 0
            for rel in manifest.get("snapshots", []):
                if os.path.isdir(os.path.join(root, rel)):
                    usable.append(rel)
            for rel in reversed(usable):
                try:
                    arrays, scalars = load_snapshot(
                        os.path.join(root, rel), verify=verify
                    )
                    offset = base_offset + int(scalars["edges_ingested"])
                    if offset > log.durable_events:
                        logger.warning(
                            "snapshot %s is ahead of the durable log "
                            "(%d > %d); skipping it",
                            rel,
                            offset,
                            log.durable_events,
                        )
                        continue
                    store.restore_runtime_state(arrays, scalars)
                    restored_position = int(scalars["edges_ingested"])
                    break
                except SnapshotCorruption as error:
                    logger.warning("skipping unusable snapshot %s: %s", rel, error)
            for block in log.read_range(base_offset + store.edges_ingested):
                store.ingest_arrays(*block)
            manager = cls(
                root,
                store,
                log,
                artifact_info=dict(manifest["artifact"]),
                base_offset=base_offset,
                snapshot_every=(
                    snapshot_every
                    if snapshot_every is not None
                    else manifest.get("snapshot_every", DEFAULT_SNAPSHOT_EVERY)
                ),
                keep_snapshots=keep_snapshots,
                snapshots=usable,
                last_snapshot_position=restored_position,
            )
        except BaseException:
            log.close()
            raise
        store.attach_journal(manager.append)
        return splash, store, manager

    # ------------------------------------------------------------------
    @property
    def durable_events(self) -> int:
        return self._log.durable_events

    @property
    def base_offset(self) -> int:
        """Global log offset of the bound store's event 0 (nonzero after
        an adaptation rebind: the promoted store was warmed on a window,
        not on the full log)."""
        return self._base_offset

    @property
    def snapshots(self) -> List[str]:
        """Snapshot directories the manifest names, once the write in
        flight has landed."""
        with self._lock:
            self._join_writer()
            return list(self._snapshots)

    @property
    def log(self) -> EventLog:
        return self._log

    def append(self, src, dst, times, features, weights) -> int:
        """The ingest tee (runs under the store lock; see attach_journal)."""
        return self._log.append(src, dst, times, features, weights)

    def flush(self) -> None:
        """Land the snapshot write in flight, then make the log durable.

        The log is flushed even when the write failed; the failure is
        raised afterwards as :class:`SnapshotWriteError`.
        """
        with self._lock:
            try:
                self._join_writer()
            finally:
                self._log.flush()

    def close(self) -> None:
        """Land the snapshot write in flight, then flush and close the log
        (closed even when the write failed, which is raised afterwards)."""
        with self._lock:
            try:
                self._join_writer()
            finally:
                self._log.close()

    # ------------------------------------------------------------------
    def _join_writer(self) -> None:
        """Wait for the snapshot write in flight; raise if any write failed."""
        if self._writer is not None:
            self._writer.join()
            self._writer = None
        self._raise_write_error()

    def _raise_write_error(self) -> None:
        if self._write_error is not None:
            raise SnapshotWriteError(
                "a background snapshot write failed; the manifest names only "
                "complete snapshots, so resume() replays the durable log past "
                "the last of them"
            ) from self._write_error

    def maybe_snapshot(self) -> Optional[str]:
        """Snapshot when ``snapshot_every`` edges have passed since the last
        cut.  Raises :class:`SnapshotWriteError` once a write has failed."""
        self._raise_write_error()
        due = (
            self.store.edges_ingested - self._last_snapshot_position
            >= self.snapshot_every
        )
        if not due:
            return None
        return self.snapshot()

    def snapshot(self) -> str:
        """Cut one consistent store state and hand it to the writer thread.

        On the calling thread: wait for the previous write, copy the store
        state under its lock, flush the log the cut depends on and capture
        the segment index.  The writer thread then writes the snapshot
        directory, re-points the manifest at it and removes snapshots past
        ``keep_snapshots``.  Returns the directory the snapshot lands in;
        it exists once :meth:`flush` (or the next cut) has waited for the
        write.
        """
        with obs.span(
            "persist.snapshot", edges=self.store.edges_ingested
        ), self._lock:
            self._join_writer()
            arrays, scalars = self.store.export_runtime_state()
            scalars["offset"] = self._base_offset + scalars["edges_ingested"]
            # Journal appends run under the same store lock as the state
            # advance, so everything the cut includes is already in the
            # log; flushing makes it durable before the snapshot that
            # depends on it exists.
            self._log.flush()
            segments = self._log.segment_index()
            self._last_snapshot_position = int(scalars["edges_ingested"])
            path = _snapshot_dir(
                os.path.join(self.root, SNAPSHOTS_DIR), scalars["offset"]
            )
            writer = threading.Thread(
                target=self._write,
                args=(arrays, scalars, segments),
                name="snapshot-writer",
                # Interpreter exit waits for the write to land.
                daemon=False,
            )
            writer.start()
            self._writer = writer
            return path

    def _write(
        self, arrays: Dict[str, np.ndarray], scalars: dict, segments: List[dict]
    ) -> None:
        """The writer thread's half of :meth:`snapshot`.

        It touches no state the calling thread changes before joining it,
        and its failure is raised on the calling thread.
        """
        try:
            with obs.span("persist.snapshot.write", offset=scalars["offset"]):
                rel = os.path.join(
                    SNAPSHOTS_DIR,
                    write_snapshot(
                        os.path.join(self.root, SNAPSHOTS_DIR), arrays, scalars
                    ),
                )
                snapshots = self._snapshots + [rel]
                kept = snapshots[-self.keep_snapshots:]
                try:
                    self._write_manifest(segments, kept)
                except BaseException:
                    # No manifest names the new directory: drop it.
                    shutil.rmtree(os.path.join(self.root, rel), ignore_errors=True)
                    raise
                self._snapshots = kept
                for old in snapshots[: -self.keep_snapshots]:
                    shutil.rmtree(os.path.join(self.root, old), ignore_errors=True)
            obs.inc("persist.snapshots")
            logger.info("snapshot %s at offset %d", rel, scalars["offset"])
        except BaseException as error:  # raised as SnapshotWriteError
            obs.record_crash("snapshot-writer", error)
            self._write_error = error

    def rebind(self, splash, store: IncrementalContextStore, note: str = "") -> None:
        """Re-point persistence at a promoted artifact + warmed store pair.

        Called by the adaptation loop after a hot swap: the new store was
        warmed on the re-fit window (whose edges are the durable log's
        most recent suffix), so its event 0 sits ``store.edges_ingested``
        events before the current end of the log — recorded as the new
        ``base_offset``.  The candidate artifact is saved under a fresh
        versioned directory, the manifest is atomically re-bound, and an
        immediate snapshot makes the swap restart-visible.  A crash
        anywhere before the manifest rewrite leaves the previous binding
        intact (resume then reconstructs the pre-swap pair at the current
        stream position — stale but consistent, exactly what the old pair
        would have served).
        """
        with self._lock:
            self._join_writer()
            self.store.attach_journal(None)
            self._log.flush()
            number = 1 + _artifact_number(self._artifact_info["path"])
            artifact_rel = f"artifact-{number:04d}"
            splash.save(os.path.join(self.root, artifact_rel))
            old_snapshots = self._snapshots
            self._artifact_info = _artifact_info(artifact_rel, splash, note=note)
            self.store = store
            self._base_offset = self._log.durable_events - store.edges_ingested
            self._snapshots = []
            self._last_snapshot_position = store.edges_ingested
            store.attach_journal(self.append)
            self._write_manifest(self._log.segment_index(), [])
            for old in old_snapshots:
                shutil.rmtree(os.path.join(self.root, old), ignore_errors=True)
            self.snapshot()

    # ------------------------------------------------------------------
    def _write_manifest(self, segments: List[dict], snapshots: List[str]) -> None:
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "artifact": dict(self._artifact_info),
            "store": {
                "k": int(self.store.k),
                "num_nodes": int(self.store.num_nodes),
                "edge_feature_dim": int(self.store.edge_feature_dim),
                "propagation": self.store.propagation,
                # Fleet shard stores record their (shard_index, num_shards)
                # so resume rebuilds the same ownership partition — a
                # snapshot of one shard must never warm-start another.
                "owner": (
                    list(self.store.owner)
                    if self.store.owner is not None
                    else None
                ),
            },
            "base_offset": self._base_offset,
            "segment_events": self._log.segment_events,
            "snapshot_every": self.snapshot_every,
            "segments": [
                {**entry, "file": os.path.join(SEGMENTS_DIR, entry["file"])}
                for entry in segments
            ],
            "snapshots": list(snapshots),
        }
        atomic_write_json(os.path.join(self.root, MANIFEST_FILE), payload)


def _artifact_number(artifact_rel: str) -> int:
    try:
        return int(artifact_rel.rsplit("-", 1)[-1])
    except ValueError:
        return 0


def _artifact_info(artifact_rel: str, splash, note: str = "") -> dict:
    from repro.serving.artifact import ARTIFACT_VERSION

    info = {
        "path": artifact_rel,
        "version": ARTIFACT_VERSION,
        "dtype": (
            np.dtype(splash.fit_dtype).name if splash.fit_dtype is not None else None
        ),
        "backend": splash.fit_backend,
    }
    if note:
        info["note"] = note
    return info
