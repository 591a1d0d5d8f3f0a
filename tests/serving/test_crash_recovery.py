"""Crash-safety drills: every torn write is either recovered or refused.

The invariant: after any simulated crash — a torn segment tail, a segment
missing its committed bytes, a half-written snapshot, a kill mid
artifact save — the system either resumes a *provably consistent* state
(the durable prefix, bit-for-bit) or fails loudly.  Silently loading
wrong state is the one outcome none of these drills may produce.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import threading

import numpy as np
import pytest

from repro.datasets import email_eu_like
from repro.models import ModelConfig
from repro.pipeline import Splash, SplashConfig
from repro.serving import (
    EventLog,
    PredictionService,
    SegmentCorruption,
    SegmentReader,
    SegmentWriter,
    ServingConfig,
    SnapshotCorruption,
    SnapshotWriteError,
    load_artifact,
    load_snapshot,
)
from repro.serving.persistence import MANIFEST_FILE, SEGMENTS_DIR, SNAPSHOTS_DIR
from repro.serving.store import IncrementalContextStore

from tests.conftest import assert_bundles_identical, random_tied_stream

FAST_MODEL = ModelConfig(
    hidden_dim=16, epochs=4, batch_size=64, patience=3, time_dim=8, seed=0
)


@pytest.fixture(scope="module")
def dataset():
    return email_eu_like(seed=1, num_edges=900)


@pytest.fixture(scope="module")
def fitted(dataset):
    splash = Splash(SplashConfig(feature_dim=10, k=6, model=FAST_MODEL, seed=0))
    splash.fit(dataset)
    return splash


def persisted_service(fitted, dataset, persist, *, snapshot_every=300, stop=None):
    service = PredictionService.from_splash(
        fitted,
        num_nodes=dataset.ctdg.num_nodes,
        edge_feature_dim=dataset.ctdg.edge_feature_dim,
        task=dataset.task,
        config=ServingConfig(persist_path=persist, snapshot_every=snapshot_every),
    )
    g = dataset.ctdg
    stop = g.num_edges if stop is None else stop
    for lo in range(0, stop, 100):
        hi = min(lo + 100, stop)
        service._ingest_arrays(
            g.src[lo:hi],
            g.dst[lo:hi],
            g.times[lo:hi],
            g.edge_features[lo:hi] if g.edge_features is not None else None,
            g.weights[lo:hi],
        )
    service.persistence.flush()
    return service


def _fill_log(tmp_path, segment_events=64, num_edges=200, d_e=3):
    g, _ = random_tied_stream(5, num_nodes=40, num_edges=num_edges, d_e=d_e)
    log = EventLog(str(tmp_path), d_e, segment_events=segment_events)
    log.append(g.src, g.dst, g.times, g.edge_features, g.weights)
    log.close()
    return g


# ======================================================================
# Segment-level crashes
# ======================================================================
class TestSegmentCrashes:
    def test_torn_tail_bytes_truncated_on_reopen(self, tmp_path):
        _fill_log(tmp_path, segment_events=1000)
        data_path = os.path.join(str(tmp_path), "seg-000000000000.seg")
        committed = os.path.getsize(data_path)
        # Crash mid-append: a partial record landed past the footer.
        with open(data_path, "ab") as handle:
            handle.write(b"\x07" * 33)
        log = EventLog(str(tmp_path), 3, segment_events=1000)
        assert log.durable_events == 200
        assert os.path.getsize(data_path) == committed
        log.close()

    def test_committed_bytes_missing_fails_loudly(self, tmp_path):
        _fill_log(tmp_path, segment_events=1000)
        data_path = os.path.join(str(tmp_path), "seg-000000000000.seg")
        with open(data_path, "r+b") as handle:
            handle.truncate(os.path.getsize(data_path) - 1)
        with pytest.raises(SegmentCorruption, match="footer committed"):
            SegmentReader(str(tmp_path), 0)
        with pytest.raises(SegmentCorruption, match="truncated segment"):
            EventLog(str(tmp_path), 3, segment_events=1000)

    def test_bit_flip_in_committed_region_fails_checksum(self, tmp_path):
        _fill_log(tmp_path, segment_events=1000)
        data_path = os.path.join(str(tmp_path), "seg-000000000000.seg")
        with open(data_path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0xFF]))
        SegmentReader(str(tmp_path), 0)  # size check alone cannot see it
        with pytest.raises(SegmentCorruption, match="checksum"):
            SegmentReader(str(tmp_path), 0, verify=True)

    def test_tail_without_footer_recovers_empty(self, tmp_path):
        g = _fill_log(tmp_path, segment_events=64)
        # Crash after the tail data file was created but before its first
        # flush: data bytes may exist, the footer (commit point) does not.
        os.unlink(os.path.join(str(tmp_path), "seg-000000000192.json"))
        log = EventLog(str(tmp_path), 3, segment_events=64)
        assert log.durable_events == 192  # sealed segments intact
        blocks = list(log.read_range(0, 192))
        np.testing.assert_array_equal(
            np.concatenate([b[0] for b in blocks]), g.src[:192]
        )
        log.close()

    def test_sealed_segment_without_footer_fails_loudly(self, tmp_path):
        _fill_log(tmp_path, segment_events=64)
        os.unlink(os.path.join(str(tmp_path), "seg-000000000064.json"))
        with pytest.raises(SegmentCorruption):
            EventLog(str(tmp_path), 3, segment_events=64)

    def test_missing_segment_breaks_the_chain(self, tmp_path):
        _fill_log(tmp_path, segment_events=64)
        for suffix in (".seg", ".json"):
            os.unlink(os.path.join(str(tmp_path), "seg-000000000064" + suffix))
        with pytest.raises(SegmentCorruption, match="chain broken"):
            EventLog(str(tmp_path), 3, segment_events=64)


# ======================================================================
# Snapshot-level crashes
# ======================================================================
class TestSnapshotCrashes:
    def _latest_snapshot_dir(self, persist, manager):
        return os.path.join(persist, manager.snapshots[-1])

    def test_torn_snapshot_detected(self, fitted, dataset, tmp_path, closing):
        persist = str(tmp_path / "persist")
        service = closing.enter_context(persisted_service(fitted, dataset, persist))
        snap_dir = self._latest_snapshot_dir(persist, service.persistence)
        os.unlink(os.path.join(snap_dir, "snapshot.json"))
        with pytest.raises(SnapshotCorruption, match="torn or incomplete"):
            load_snapshot(snap_dir)

    def test_resume_falls_back_past_torn_snapshot(
        self, fitted, dataset, tmp_path, closing
    ):
        persist = str(tmp_path / "persist")
        service = closing.enter_context(persisted_service(fitted, dataset, persist))
        nodes = np.arange(64, dtype=np.int64) % dataset.ctdg.num_nodes
        times = np.full(64, float(dataset.ctdg.times[-1]) + 1.0)
        expected = service.store.materialise(nodes, times)

        # Tear the newest snapshot three different ways across three
        # resumes: missing index, truncated array file, flipped bit.
        snap_dir = self._latest_snapshot_dir(persist, service.persistence)
        with open(os.path.join(snap_dir, "snapshot.json")) as handle:
            index = json.load(handle)
        array_file = os.path.join(snap_dir, index["arrays"]["degrees::nodes"]["file"])
        with open(array_file, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with PredictionService.resume(persist, task=dataset.task) as resumed:
            assert resumed.store.edges_ingested == dataset.ctdg.num_edges
            assert_bundles_identical(expected, resumed.store.materialise(nodes, times))

        with open(array_file, "r+b") as handle:
            handle.truncate(10)
        with PredictionService.resume(persist, task=dataset.task) as resumed:
            assert_bundles_identical(expected, resumed.store.materialise(nodes, times))

        os.unlink(os.path.join(snap_dir, "snapshot.json"))
        with PredictionService.resume(persist, task=dataset.task) as resumed:
            assert_bundles_identical(expected, resumed.store.materialise(nodes, times))

    def test_resume_survives_all_snapshots_lost(
        self, fitted, dataset, tmp_path, closing
    ):
        persist = str(tmp_path / "persist")
        service = closing.enter_context(persisted_service(fitted, dataset, persist))
        shutil.rmtree(os.path.join(persist, SNAPSHOTS_DIR))
        resumed = closing.enter_context(
            PredictionService.resume(persist, task=dataset.task)
        )
        assert resumed.store.edges_ingested == dataset.ctdg.num_edges
        nodes = np.arange(64, dtype=np.int64) % dataset.ctdg.num_nodes
        times = np.full(64, float(dataset.ctdg.times[-1]) + 1.0)
        assert_bundles_identical(
            service.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_corrupt_log_tail_fails_resume_loudly(self, fitted, dataset, tmp_path):
        persist = str(tmp_path / "persist")
        # 900 edges at cadence 400 → last snapshot at offset 800, so the
        # resume must replay (and therefore checksum) the 100-edge tail.
        persisted_service(fitted, dataset, persist, snapshot_every=400).close()
        seg_dir = os.path.join(persist, SEGMENTS_DIR)
        seg = sorted(n for n in os.listdir(seg_dir) if n.endswith(".seg"))[-1]
        path = os.path.join(seg_dir, seg)
        with open(path, "r+b") as handle:
            handle.seek(-50, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-50, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # The flipped byte sits in the replay tail; verify=True refuses to
        # serve state derived from it.
        with pytest.raises(SegmentCorruption, match="checksum"):
            PredictionService.resume(persist, task=dataset.task)


# ======================================================================
# Snapshot writer faults (the background writer thread)
# ======================================================================
def _on_writer(fail, real):
    """Wrap an ``os`` call to run ``fail`` first, on the writer thread only."""

    def call(*args, **kwargs):
        if threading.current_thread().name == "snapshot-writer":
            fail(*args)
        return real(*args, **kwargs)

    return call


def _fsync_fails_mid_snapshot(monkeypatch):
    calls = []

    def fail(fd):
        calls.append(fd)
        if len(calls) == 3:  # the third array file of the snapshot
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", _on_writer(fail, os.fsync))


def _manifest_replace_fails(monkeypatch):
    def fail(src, dst):
        if os.path.basename(dst) == MANIFEST_FILE:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "replace", _on_writer(fail, os.replace))


def _join_writer_threads():
    for thread in threading.enumerate():
        if thread.name == "snapshot-writer":
            thread.join(timeout=30)
            assert not thread.is_alive()


class TestSnapshotWriterFaults:
    @pytest.mark.parametrize(
        "inject, cause",
        [
            (_fsync_fails_mid_snapshot, errno.ENOSPC),
            (_manifest_replace_fails, errno.EIO),
        ],
        ids=["fsync-enospc-mid-snapshot", "replace-eio-mid-manifest"],
    )
    def test_writer_failure_is_raised_and_never_named(
        self, fitted, dataset, tmp_path, monkeypatch, inject, cause
    ):
        persist = str(tmp_path / "persist")
        g = dataset.ctdg
        # The snapshot at 300 lands; the one cut at 600 fails on the writer.
        service = persisted_service(fitted, dataset, persist, stop=300)
        inject(monkeypatch)

        def ingest(lo, hi):
            service._ingest_arrays(
                g.src[lo:hi],
                g.dst[lo:hi],
                g.times[lo:hi],
                g.edge_features[lo:hi] if g.edge_features is not None else None,
                g.weights[lo:hi],
            )

        for lo in range(300, 600, 100):
            ingest(lo, lo + 100)
        _join_writer_threads()

        for surface in (
            lambda: ingest(600, 700),
            service.persistence.flush,
            service.close,
        ):
            with pytest.raises(SnapshotWriteError) as raised:
                surface()
            assert isinstance(raised.value.__cause__, OSError)
            assert raised.value.__cause__.errno == cause
        service.close()  # a second close does nothing
        # The failed write still let close() shut the log and the store.
        assert service.persistence.log._writer._handle.closed
        assert service.store.is_closed
        monkeypatch.undo()

        # The manifest names only the complete snapshot, and nothing else
        # (no temp directory, no unnamed snapshot) is left on disk.
        with open(os.path.join(persist, MANIFEST_FILE)) as handle:
            named = json.load(handle)["snapshots"]
        assert named == [os.path.join(SNAPSHOTS_DIR, "snap-000000000300")]
        load_snapshot(os.path.join(persist, named[0]))
        assert os.listdir(os.path.join(persist, SNAPSHOTS_DIR)) == [
            "snap-000000000300"
        ]

        # The failed batch was journalled and flushed: resume holds all
        # 700 edges, bit-equal to a cold replay of the durable log.
        log = EventLog(os.path.join(persist, SEGMENTS_DIR), g.edge_feature_dim)
        cold = IncrementalContextStore(
            fitted.processes, fitted.config.k, g.num_nodes, g.edge_feature_dim
        )
        for block in log.read_range(0):
            cold.ingest_arrays(*block)
        log.close()
        assert cold.edges_ingested == 700
        with PredictionService.resume(persist, task=dataset.task) as resumed:
            assert resumed.store.edges_ingested == 700
            nodes = np.arange(g.num_nodes, dtype=np.int64)
            times = np.full(g.num_nodes, float(g.times[699]) + 0.5)
            assert_bundles_identical(
                cold.materialise(nodes, times),
                resumed.store.materialise(nodes, times),
            )


# ======================================================================
# Artifact-level crashes (atomic save_artifact)
# ======================================================================
class TestArtifactCrashes:
    def test_kill_mid_save_leaves_no_artifact(self, fitted, tmp_path, monkeypatch):
        import repro.serving.artifact as artifact_mod

        target = str(tmp_path / "artifact")

        def die(*args, **kwargs):
            raise KeyboardInterrupt("kill -9 simulation")

        monkeypatch.setattr(artifact_mod, "save_state_dict", die)
        with pytest.raises(KeyboardInterrupt):
            fitted.save(target)
        assert not os.path.exists(target)
        assert [n for n in os.listdir(str(tmp_path)) if n.startswith(".")] == []
        with pytest.raises(FileNotFoundError):
            load_artifact(target)

    def test_kill_mid_overwrite_preserves_previous_artifact(
        self, fitted, dataset, tmp_path, monkeypatch
    ):
        import repro.serving.artifact as artifact_mod

        target = str(tmp_path / "artifact")
        fitted.save(target)
        baseline = load_artifact(target)

        calls = {"n": 0}
        real_savez = np.savez

        def die_late(*args, **kwargs):
            calls["n"] += 1
            raise OSError("disk died mid-write")

        monkeypatch.setattr(artifact_mod.np, "savez", die_late)
        with pytest.raises(OSError):
            fitted.save(target)
        assert calls["n"] == 1
        monkeypatch.setattr(artifact_mod.np, "savez", real_savez)

        # The previous artifact is fully intact — loadable and identical.
        survivor = load_artifact(target)
        assert survivor.model.feature_name == baseline.model.feature_name
        for name, array in baseline.model.state_dict().items():
            np.testing.assert_array_equal(
                array, survivor.model.state_dict()[name]
            )

    def test_successful_overwrite_replaces_cleanly(self, fitted, tmp_path):
        target = str(tmp_path / "artifact")
        fitted.save(target)
        fitted.save(target)  # overwrite path: rename-aside + rename-in
        load_artifact(target)
        assert [n for n in os.listdir(str(tmp_path)) if n.startswith(".")] == []
