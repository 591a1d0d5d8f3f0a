"""Zero-copy persistence: segment log, snapshots, manifest, warm restart.

The contract under test is the serving invariant extended across process
death: a resumed store must materialise **bit-for-bit** what a
never-restarted store holding the same durable prefix would — snapshots
and tail replay are an implementation detail the outputs must not betray.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.datasets import email_eu_like
from repro.features.random_feat import RandomFeatureProcess
from repro.models import ModelConfig
from repro.pipeline import Splash, SplashConfig
from repro.serving import (
    EventLog,
    PredictionService,
    SegmentReader,
    SegmentWriter,
    ServingConfig,
    load_snapshot,
    write_snapshot,
)
from repro.serving.persistence import (
    DEFAULT_SNAPSHOT_EVERY,
    MANIFEST_FILE,
    SNAPSHOT_FORMAT,
    PersistenceManager,
    SNAPSHOTS_DIR,
    atomic_write_json,
)
from repro.serving.store import IncrementalContextStore
from repro.streams.ctdg import CTDG

from tests.conftest import (
    assert_bundles_identical,
    fitted_context_processes,
    random_tied_stream,
)

FAST_MODEL = ModelConfig(
    hidden_dim=16, epochs=4, batch_size=64, patience=3, time_dim=8, seed=0
)


@pytest.fixture(scope="module")
def dataset():
    return email_eu_like(seed=1, num_edges=900)


@pytest.fixture(scope="module")
def fitted(dataset):
    config = SplashConfig(feature_dim=10, k=6, model=FAST_MODEL, seed=0)
    splash = Splash(config)
    splash.fit(dataset)
    return splash


def make_service(splash, dataset, **kwargs):
    kwargs.setdefault("task", dataset.task)
    return PredictionService.from_splash(
        splash,
        num_nodes=dataset.ctdg.num_nodes,
        edge_feature_dim=dataset.ctdg.edge_feature_dim,
        **kwargs,
    )


def ingest_stream(service, ctdg, batch=100, stop=None, start=None):
    stop = ctdg.num_edges if stop is None else stop
    start = service.store.edges_ingested if start is None else start
    has_features = ctdg.edge_features is not None
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        service._ingest_arrays(
            ctdg.src[lo:hi],
            ctdg.dst[lo:hi],
            ctdg.times[lo:hi],
            ctdg.edge_features[lo:hi] if has_features else None,
            ctdg.weights[lo:hi],
        )


def probe_queries(ctdg, count=64):
    nodes = np.arange(count, dtype=np.int64) % ctdg.num_nodes
    times = np.full(count, float(ctdg.times[-1]) + 1.0)
    return nodes, times


# ======================================================================
# Segment log
# ======================================================================
def _stream_columns(seed=3, num_edges=200, d_e=3):
    g, _ = random_tied_stream(
        seed, num_nodes=40, num_edges=num_edges, num_queries=1, d_e=d_e
    )
    return g.src, g.dst, g.times, g.edge_features, g.weights


class TestSegmentLog:
    def test_writer_reader_round_trip(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        writer = SegmentWriter(str(tmp_path), 0, 3)
        writer.append(src[:120], dst[:120], times[:120], features[:120], weights[:120])
        writer.append(src[120:], dst[120:], times[120:], features[120:], weights[120:])
        writer.close()

        reader = SegmentReader(str(tmp_path), 0, verify=True)
        assert reader.count == 200
        r_src, r_dst, r_times, r_features, r_weights = reader.read(0, 200)
        np.testing.assert_array_equal(r_src, src)
        np.testing.assert_array_equal(r_dst, dst)
        np.testing.assert_array_equal(r_times, times)
        np.testing.assert_array_equal(r_features, features)
        np.testing.assert_array_equal(r_weights, weights)

    def test_featureless_round_trip(self, tmp_path):
        src, dst, times, features, weights = _stream_columns(d_e=0)
        assert features is None
        writer = SegmentWriter(str(tmp_path), 0, 0)
        writer.append(src, dst, times, None, weights)
        writer.close()
        r_src, _, _, r_features, _ = SegmentReader(str(tmp_path), 0).read(0, 200)
        np.testing.assert_array_equal(r_src, src)
        assert r_features is None

    def test_reader_sees_only_flushed_records(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        writer = SegmentWriter(str(tmp_path), 0, 3)
        writer.append(src[:50], dst[:50], times[:50], features[:50], weights[:50])
        writer.flush()
        writer.append(src[50:], dst[50:], times[50:], features[50:], weights[50:])
        writer._handle.flush()  # bytes reach the OS, footer does not move
        assert writer.count == 200
        assert writer.durable_count == 50
        assert SegmentReader(str(tmp_path), 0, verify=True).count == 50
        writer.close()

    def test_log_rolls_segments_and_reads_back(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        for lo in range(0, 200, 37):  # batch size not aligned to segments
            hi = min(lo + 37, 200)
            log.append(
                src[lo:hi], dst[lo:hi], times[lo:hi], features[lo:hi], weights[lo:hi]
            )
        log.flush()
        assert log.durable_events == 200
        index = log.segment_index()
        assert [entry["start"] for entry in index] == [0, 64, 128, 192]
        assert sum(entry["count"] for entry in index) == 200

        blocks = list(log.read_range(0, 200))
        np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), src)
        np.testing.assert_array_equal(np.concatenate([b[2] for b in blocks]), times)
        np.testing.assert_array_equal(np.concatenate([b[3] for b in blocks]), features)
        log.close()

    def test_read_range_spans_segment_boundaries(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        log.append(src, dst, times, features, weights)
        log.flush()
        blocks = list(log.read_range(40, 150))
        np.testing.assert_array_equal(
            np.concatenate([b[0] for b in blocks]), src[40:150]
        )
        np.testing.assert_array_equal(
            np.concatenate([b[4] for b in blocks]), weights[40:150]
        )
        log.close()

    def test_read_beyond_durable_raises(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3)
        log.append(src, dst, times, features, weights)
        log.flush()
        with pytest.raises(IndexError):
            list(log.read_range(0, 201))
        log.close()

    def test_reopen_resumes_crc_chain(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        log.append(src[:100], dst[:100], times[:100], features[:100], weights[:100])
        log.close()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        assert log.durable_events == 100
        log.append(src[100:], dst[100:], times[100:], features[100:], weights[100:])
        log.flush()
        # verify=True recomputes every CRC: the chain written across two
        # writer lifetimes must validate end to end.
        reader = EventLog(str(tmp_path), 3, verify=True)
        blocks = list(reader.read_range(0, 200))
        np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), src)
        reader.close()
        log.close()


# ======================================================================
# Snapshots
# ======================================================================
class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "big::table": rng.normal(size=(600, 256)),  # above mmap threshold
            "small::counts": np.arange(17, dtype=np.int64),
        }
        scalars = {"edges_ingested": 41, "offset": 41, "last_time": 3.5}
        name = write_snapshot(str(tmp_path), arrays, scalars)
        loaded, got_scalars = load_snapshot(os.path.join(str(tmp_path), name))
        assert got_scalars == scalars
        np.testing.assert_array_equal(loaded["big::table"], arrays["big::table"])
        np.testing.assert_array_equal(
            loaded["small::counts"], arrays["small::counts"]
        )
        # The big table comes back memory-mapped copy-on-write: writable,
        # but writes never reach the file.
        assert isinstance(loaded["big::table"], np.memmap)
        loaded["big::table"][0, 0] += 1.0
        again, _ = load_snapshot(os.path.join(str(tmp_path), name))
        np.testing.assert_array_equal(again["big::table"], arrays["big::table"])

    def test_same_offset_twice_gets_distinct_names(self, tmp_path):
        arrays = {"a": np.arange(4)}
        scalars = {"edges_ingested": 7, "offset": 7}
        first = write_snapshot(str(tmp_path), arrays, scalars)
        second = write_snapshot(str(tmp_path), arrays, scalars)
        assert first != second
        for name in (first, second):
            load_snapshot(os.path.join(str(tmp_path), name))

    @staticmethod
    def _read_back_snapshot(directory, arrays, scalars):
        """The reference writer: ``np.save`` each array, then read the file
        back for its CRC-32 (what ``write_snapshot`` did before taking the
        CRC from memory)."""
        os.makedirs(directory)
        index = {}
        for position, key in enumerate(sorted(arrays)):
            file_name = f"a{position:05d}.npy"
            path = os.path.join(directory, file_name)
            np.save(path, np.ascontiguousarray(arrays[key]))
            with open(path, "rb") as handle:
                payload = handle.read()
            index[key] = {
                "file": file_name,
                "bytes": len(payload),
                "crc32": zlib.crc32(payload),
            }
        atomic_write_json(
            os.path.join(directory, "snapshot.json"),
            {
                "format": SNAPSHOT_FORMAT,
                "version": 1,
                "scalars": dict(scalars),
                "arrays": index,
            },
        )

    def test_bytes_equal_the_read_back_writer(self, tmp_path):
        # A live store's cut plus the array shapes np.save special-cases:
        # every file, and the index with its CRCs, must be byte-identical
        # to what np.save and a CRC of the file read back produce.
        g, _ = random_tied_stream(11, num_nodes=30, num_edges=400, d_e=2)
        store = IncrementalContextStore(
            fitted_context_processes(g, dim=6, seed=4), 5, g.num_nodes, 2
        )
        store.ingest(g.slice(0, 250))
        arrays, scalars = store.export_runtime_state()
        rng = np.random.default_rng(0)
        arrays.update(
            {
                "odd::bool": rng.random(17) > 0.5,
                "odd::empty": np.zeros((0, 4)),
                "odd::empty_int": np.zeros(0, dtype=np.int64),
                "odd::float32": rng.normal(size=(3, 4, 5)).astype(np.float32),
                "odd::strided": np.arange(24, dtype=np.int32)[::3],
                "odd::transposed": rng.normal(size=(6, 9)).T,
            }
        )
        scalars["offset"] = scalars["edges_ingested"]
        name = write_snapshot(str(tmp_path / "written"), arrays, scalars)
        written = os.path.join(str(tmp_path / "written"), name)
        reference = str(tmp_path / "reference")
        self._read_back_snapshot(reference, arrays, scalars)

        assert sorted(os.listdir(written)) == sorted(os.listdir(reference))
        for file_name in os.listdir(reference):
            with open(os.path.join(written, file_name), "rb") as handle:
                got = handle.read()
            with open(os.path.join(reference, file_name), "rb") as handle:
                assert got == handle.read(), file_name


# ======================================================================
# Store runtime state
# ======================================================================
class TestStoreRuntimeState:
    def _fresh_store(self, g, processes, k=5):
        return IncrementalContextStore(
            processes, k, g.num_nodes, g.edge_feature_dim
        )

    def test_mid_stream_round_trip_bit_identical(self):
        g, queries = random_tied_stream(11, num_nodes=30, num_edges=400, d_e=2)
        processes = fitted_context_processes(g, dim=6, seed=4)
        live = self._fresh_store(g, processes)
        live.ingest(g.slice(0, 250))

        arrays, scalars = live.export_runtime_state()
        restored = self._fresh_store(g, processes).restore_runtime_state(
            arrays, scalars
        )
        assert restored.edges_ingested == 250
        assert restored.last_time == live.last_time

        # Both continue ingesting the same suffix; contexts must stay
        # bit-for-bit equal (the restore kept *evolving* state exact, not
        # just a frozen read model).
        live.ingest(g.slice(250, g.num_edges))
        restored.ingest(g.slice(250, g.num_edges))
        times = np.full(len(queries.nodes), float(g.times[-1]) + 1.0)
        assert_bundles_identical(
            live.materialise(queries.nodes, times),
            restored.materialise(queries.nodes, times),
        )

    @staticmethod
    def _pinned_store(propagation="blocked"):
        # k=2 over five nodes: node 0 wraps (three edges), node 3 gives a
        # self-loop two slots and then wraps, node 4 is never touched.
        g = CTDG(
            np.array([0, 0, 3, 0]),
            np.array([1, 2, 3, 3]),
            np.array([1.0, 2.0, 3.0, 4.0]),
            np.array([[0.5], [1.5], [2.5], [3.5]]),
            np.array([1.0, 2.0, 0.5, 1.5]),
            num_nodes=5,
        )
        process = RandomFeatureProcess(3, rng=0)
        process.fit(g, g.num_nodes)  # nodes 0-3 seen: snapshots are table rows
        store = IncrementalContextStore(
            [process], 2, g.num_nodes, 1, propagation=propagation
        )
        return g, process, store

    @staticmethod
    def _buffer(arrays):
        return {
            key[len("buffer::"):]: value
            for key, value in arrays.items()
            if key.startswith("buffer::")
        }

    @pytest.mark.parametrize("propagation", ["event", "blocked"])
    def test_snapshot_buffer_layout_is_pinned(self, propagation):
        # Entries grouped by ascending node, oldest to newest within a
        # node: the layout snapshots on disk already use, so they resume.
        g, process, live = self._pinned_store(propagation)
        live.ingest(g)
        arrays, scalars = live.export_runtime_state()
        neighbor = np.array([2, 3, 0, 0, 3, 0])
        expected = {
            "entry_node": np.array([0, 0, 1, 2, 3, 3]),
            "neighbor": neighbor,
            "time": np.array([2.0, 4.0, 1.0, 2.0, 3.0, 4.0]),
            "edge_index": np.array([1, 3, 0, 1, 2, 3]),
            "weight": np.array([2.0, 1.5, 1.0, 2.0, 0.5, 1.5]),
            "neighbor_degree": np.array([1, 3, 1, 2, 2, 3]),
            "edge_features": np.array([[1.5], [3.5], [0.5], [1.5], [2.5], [3.5]]),
            "snap00": process.table[neighbor],
        }
        buffer = self._buffer(arrays)
        assert sorted(buffer) == sorted(expected)
        for key, value in expected.items():
            assert buffer[key].dtype == value.dtype, key
            np.testing.assert_array_equal(buffer[key], value, err_msg=key)

        restored = self._pinned_store(propagation)[2]
        restored.restore_runtime_state(arrays, scalars)
        again = self._buffer(restored.export_runtime_state()[0])
        for key, value in expected.items():
            np.testing.assert_array_equal(again[key], value, err_msg=key)
        nodes = np.arange(g.num_nodes)
        assert_bundles_identical(
            live.materialise(nodes, 5.0), restored.materialise(nodes, 5.0)
        )

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda b: b.update(time=b["time"][:-1]), "shape"),
            (lambda b: b.update(entry_node=b["entry_node"][::-1]), "non-decreasing"),
            (
                lambda b: b.update(
                    {key: np.concatenate([col[:1], col]) for key, col in b.items()}
                ),
                "more than k",
            ),
        ],
        ids=["unequal-lengths", "decreasing-nodes", "over-k"],
    )
    def test_restore_rejects_unscatterable_buffer(self, corrupt, match):
        g, _, live = self._pinned_store()
        live.ingest(g)
        arrays, scalars = live.export_runtime_state()
        buffer = self._buffer(arrays)
        corrupt(buffer)
        arrays.update({f"buffer::{key}": value for key, value in buffer.items()})
        fresh = self._pinned_store()[2]
        before = fresh.export_runtime_state()
        with pytest.raises(ValueError, match=match):
            fresh.restore_runtime_state(arrays, scalars)
        # Nothing was touched: the store still exports its fresh state.
        after = fresh.export_runtime_state()
        assert after[1] == before[1]
        assert sorted(after[0]) == sorted(before[0])
        for key, value in before[0].items():
            np.testing.assert_array_equal(after[0][key], value)
        assert fresh._state.ring.tables == {}

    def test_restore_validates_schema(self):
        g, _ = random_tied_stream(11, num_nodes=30, num_edges=120, d_e=2)
        processes = fitted_context_processes(g, dim=6, seed=4)
        live = self._fresh_store(g, processes)
        live.ingest(g)
        arrays, scalars = live.export_runtime_state()
        wrong_k = self._fresh_store(g, processes, k=7)
        with pytest.raises(ValueError, match="k="):
            wrong_k.restore_runtime_state(arrays, scalars)

    def test_restore_needs_fresh_store(self):
        g, _ = random_tied_stream(11, num_nodes=30, num_edges=120, d_e=2)
        processes = fitted_context_processes(g, dim=6, seed=4)
        live = self._fresh_store(g, processes)
        live.ingest(g)
        arrays, scalars = live.export_runtime_state()
        with pytest.raises(RuntimeError, match="fresh store"):
            live.restore_runtime_state(arrays, scalars)


# ======================================================================
# Manager + service: warm restart end to end
# ======================================================================
class TestWarmRestart:
    def test_resume_equals_live_bit_for_bit(self, fitted, dataset, tmp_path, closing):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=300),
        )
        closing.enter_context(service)
        ingest_stream(service, dataset.ctdg)
        service.persistence.flush()
        nodes, times = probe_queries(dataset.ctdg)
        expected = service.store.materialise(nodes, times)

        resumed = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(resumed)
        assert resumed.store.edges_ingested == dataset.ctdg.num_edges
        assert_bundles_identical(
            expected, resumed.store.materialise(nodes, times)
        )
        np.testing.assert_array_equal(
            service.predict(nodes, times), resumed.predict(nodes, times)
        )

    def test_resume_without_snapshot_cold_replays(
        self, fitted, dataset, tmp_path, closing
    ):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, config=ServingConfig(persist_path=persist)
        )
        closing.enter_context(service)
        assert service.persistence.snapshot_every == DEFAULT_SNAPSHOT_EVERY
        ingest_stream(service, dataset.ctdg, stop=500)
        service.persistence.flush()
        assert service.persistence.snapshots == []  # never hit the cadence

        resumed = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(resumed)
        assert resumed.store.edges_ingested == 500
        nodes, times = probe_queries(dataset.ctdg)
        assert_bundles_identical(
            service.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_unflushed_tail_resumes_at_durable_watermark(
        self, fitted, dataset, tmp_path, closing
    ):
        # A crash loses the un-fsynced suffix; resume must come back at
        # the durable watermark (honest loss), not a torn in-between.
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=10_000),
        )
        closing.enter_context(service)
        ingest_stream(service, dataset.ctdg, stop=400)
        service.persistence.flush()
        durable = service.persistence.durable_events
        ingest_stream(service, dataset.ctdg, batch=50, stop=600)
        # No flush for edges 400..600 — simulate the crash by resuming
        # from disk as-is (the OS may or may not have the tail bytes; the
        # footer, the commit point, was never moved).
        assert service.persistence.durable_events == durable == 400

        resumed = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(resumed)
        assert resumed.store.edges_ingested == 400

        reference = make_service(fitted, dataset)
        ingest_stream(reference, dataset.ctdg, stop=400)
        nodes = np.arange(64, dtype=np.int64) % dataset.ctdg.num_nodes
        times = np.full(64, float(dataset.ctdg.times[399]) + 0.5)
        assert_bundles_identical(
            reference.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_resumed_service_continues_the_stream(
        self, fitted, dataset, tmp_path, closing
    ):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=200),
        )
        ingest_stream(service, dataset.ctdg, stop=450)
        service.close()

        resumed = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(resumed)
        ingest_stream(resumed, dataset.ctdg, stop=None)
        # Restored mid-stream + live suffix == one uninterrupted replay.
        reference = make_service(fitted, dataset)
        ingest_stream(reference, dataset.ctdg)
        nodes, times = probe_queries(dataset.ctdg)
        assert_bundles_identical(
            reference.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )
        # ...and the continuation was journalled: a second restart lands
        # at the full stream.
        resumed.close()
        second = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(second)
        assert second.store.edges_ingested == dataset.ctdg.num_edges

    def test_ingest_during_snapshot_write_does_not_tear_the_cut(
        self, fitted, dataset, tmp_path, monkeypatch, closing
    ):
        # The snapshot's arrays are written on the writer thread after the
        # store lock is released, so the service may ingest meanwhile.  The
        # cut must stay the state at its own edges_ingested: resume replays
        # the concurrent batch from the log, and a cut holding live tables
        # would apply it twice.
        import repro.serving.persistence as persistence

        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=10**6),
        )
        closing.enter_context(service)
        cut = 600
        ingest_stream(service, dataset.ctdg, stop=cut)
        write_snapshot = persistence.write_snapshot

        def write_while_ingesting(root, arrays, scalars):
            ingest_stream(service, dataset.ctdg, start=cut)
            return write_snapshot(root, arrays, scalars)

        monkeypatch.setattr(persistence, "write_snapshot", write_while_ingesting)
        path = service.persistence.snapshot()
        # The patched write runs on the writer thread: land it before the
        # patch is undone, or the concurrent ingest may never happen.
        service.persistence.flush()
        monkeypatch.undo()
        assert service.store.edges_ingested == dataset.ctdg.num_edges
        assert load_snapshot(path)[1]["edges_ingested"] == cut

        resumed = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(resumed)
        assert resumed.store.edges_ingested == dataset.ctdg.num_edges
        reference = make_service(fitted, dataset)
        ingest_stream(reference, dataset.ctdg)
        nodes, times = probe_queries(dataset.ctdg, count=dataset.ctdg.num_nodes)
        assert_bundles_identical(
            reference.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_snapshot_gc_keeps_last_two(self, fitted, dataset, tmp_path, closing):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=100),
        )
        closing.enter_context(service)
        ingest_stream(service, dataset.ctdg)
        assert len(service.persistence.snapshots) == 2
        on_disk = [
            name
            for name in os.listdir(os.path.join(persist, SNAPSHOTS_DIR))
            if not name.startswith(".")
        ]
        assert len(on_disk) == 2

    def test_create_rejects_used_store_and_existing_root(
        self, fitted, dataset, tmp_path, closing
    ):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, config=ServingConfig(persist_path=persist)
        )
        closing.enter_context(service)
        ingest_stream(service, dataset.ctdg, stop=100)
        with pytest.raises(FileExistsError):
            PersistenceManager.create(persist, fitted, service.store)
        with pytest.raises(RuntimeError, match="fresh store"):
            PersistenceManager.create(
                str(tmp_path / "other"), fitted, service.store
            )

    def test_manifest_binds_provenance(self, fitted, dataset, tmp_path, closing):
        import json

        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=300),
        )
        closing.enter_context(service)
        ingest_stream(service, dataset.ctdg)
        service.persistence.flush()
        with open(os.path.join(persist, MANIFEST_FILE)) as handle:
            manifest = json.load(handle)
        assert manifest["artifact"]["path"] == "artifact-0001"
        assert manifest["artifact"]["dtype"] == np.dtype(fitted.fit_dtype).name
        assert manifest["artifact"]["backend"] == fitted.fit_backend
        assert manifest["store"]["k"] == fitted.config.k
        assert sum(s["count"] for s in manifest["segments"]) == dataset.ctdg.num_edges
        assert manifest["snapshots"] == service.persistence.snapshots


# ======================================================================
# The background snapshot writer
# ======================================================================
class TestSnapshotWriter:
    def _cadence_run(self, fitted, dataset, persist, monkeypatch, block):
        """Ingest the stream at cadence 200; with ``block``, hold the first
        write until after the caller has ingested and predicted past it."""
        import repro.serving.persistence as persistence

        write_snapshot = persistence.write_snapshot
        cuts, in_flight, most_in_flight = [], [0], [0]
        entered, release = threading.Event(), threading.Event()

        def held_write(root, arrays, scalars):
            in_flight[0] += 1
            most_in_flight[0] = max(most_in_flight[0], in_flight[0])
            cuts.append(scalars["edges_ingested"])
            if block and len(cuts) == 1:
                entered.set()
                assert release.wait(timeout=30), "the write was never released"
            try:
                return write_snapshot(root, arrays, scalars)
            finally:
                in_flight[0] -= 1

        monkeypatch.setattr(persistence, "write_snapshot", held_write)
        with make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=200),
        ) as service:
            ingest_stream(service, dataset.ctdg, stop=200)
            if block:
                assert entered.wait(timeout=30)
                ingest_stream(service, dataset.ctdg, stop=300)
                service.predict(*probe_queries(dataset.ctdg))
                # Both went ahead while the first write was still held.
                assert cuts == [200] and not release.is_set()
                assert service.store.edges_ingested == 300
                # The cut due at 400 must wait for the held write.
                threading.Timer(0.2, release.set).start()
            ingest_stream(service, dataset.ctdg)
            service.persistence.flush()
            snapshots = service.persistence.snapshots
        monkeypatch.undo()
        return cuts, most_in_flight[0], snapshots

    def test_due_cut_waits_for_the_write_in_flight(
        self, fitted, dataset, tmp_path, monkeypatch
    ):
        free = self._cadence_run(
            fitted, dataset, str(tmp_path / "free"), monkeypatch, block=False
        )
        held = self._cadence_run(
            fitted, dataset, str(tmp_path / "held"), monkeypatch, block=True
        )
        # Cut positions are a function of the ingested edge count alone:
        # the held write delays the next cut, never moves or skips it.
        assert free[0] == held[0] == [200, 400, 600, 800]
        assert free[1] == held[1] == 1  # at most one write in flight
        assert free[2] == held[2]

    def test_flushes_racing_the_writer_keep_the_manifest_whole(
        self, fitted, dataset, tmp_path, closing
    ):
        # A second thread lands writes (flush, snapshots) while the service
        # cuts every 50 edges, with thread switches forced often.
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=50),
        )
        closing.enter_context(service)
        stop, seen = threading.Event(), []

        def flusher():
            while not stop.is_set():
                service.persistence.flush()
                seen.append(len(service.persistence.snapshots))

        thread = threading.Thread(target=flusher)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            ingest_stream(service, dataset.ctdg, batch=7)
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and seen
        service.persistence.flush()
        snapshots = service.persistence.snapshots
        with open(os.path.join(persist, MANIFEST_FILE)) as handle:
            assert json.load(handle)["snapshots"] == snapshots
        on_disk = sorted(os.listdir(os.path.join(persist, SNAPSHOTS_DIR)))
        assert on_disk == sorted(os.path.basename(rel) for rel in snapshots)
        with PredictionService.resume(persist, task=dataset.task) as resumed:
            nodes, times = probe_queries(dataset.ctdg)
            assert_bundles_identical(
                service.store.materialise(nodes, times),
                resumed.store.materialise(nodes, times),
            )


# ======================================================================
# Adaptation re-bind: checkpoints follow hot swaps
# ======================================================================
class TestRebind:
    def test_rebind_then_resume_serves_the_promoted_pair(
        self, fitted, dataset, tmp_path, closing
    ):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted,
            dataset,
            config=ServingConfig(persist_path=persist, snapshot_every=250),
        )
        closing.enter_context(service)
        ingest_stream(service, dataset.ctdg)
        service.persistence.flush()

        # A "promoted" store warmed on the stream's trailing window only —
        # the shape AdaptiveService hands rebind after a hot swap.
        window = 300
        g = dataset.ctdg
        candidate_store = IncrementalContextStore(
            fitted.processes, fitted.config.k, g.num_nodes, g.edge_feature_dim
        )
        candidate_store.ingest(g.slice(g.num_edges - window, g.num_edges))
        service.hot_swap(fitted.model, store=candidate_store)
        service.persistence.rebind(fitted, candidate_store, note="test swap")

        assert service.persistence.base_offset == g.num_edges - window
        assert os.path.isdir(os.path.join(persist, "artifact-0002"))
        service.persistence.flush()

        resumed = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(resumed)
        assert resumed.store.edges_ingested == window
        nodes, times = probe_queries(g)
        assert_bundles_identical(
            candidate_store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_adaptive_service_checkpoints_through_manifest(self, tmp_path, closing):
        from repro.adapt import AdaptationConfig, AdaptiveService
        from repro.datasets import scheduled_shift_stream

        dataset = scheduled_shift_stream(
            shift_at=0.5, intensity=85, seed=0, num_edges=2600
        )
        config = SplashConfig(
            feature_dim=12,
            k=8,
            model=ModelConfig(
                hidden_dim=24, epochs=6, patience=3, batch_size=128,
                lr=3e-3, seed=0,
            ),
            split_fractions=[0.5, 0.7],
            seed=0,
        )
        splash = Splash(config)
        splash.fit(dataset)
        persist = str(tmp_path / "persist")
        adaptive = AdaptiveService(
            splash,
            dataset.ctdg.num_nodes,
            config=AdaptationConfig(
                window_edges=900,
                window_queries=700,
                check_every=150,
                threshold=0.12,
                min_window_queries=80,
                background=False,
            ),
            persist_path=persist,
            snapshot_every=500,
        )
        closing.enter_context(adaptive.service)
        adaptive.serve_labeled_stream(
            dataset.ctdg,
            dataset.queries.nodes,
            dataset.queries.times,
            dataset.task.labels,
            ingest_batch=200,
        )
        assert adaptive.summary()["promotions"] >= 1
        manager = adaptive.service.persistence
        assert manager.store is adaptive.service.store  # followed the swap
        assert manager.base_offset > 0
        manager.flush()

        resumed = PredictionService.resume(persist, task=dataset.task)
        closing.enter_context(resumed)
        live_store = adaptive.service.store
        assert resumed.store.edges_ingested == live_store.edges_ingested
        assert resumed.model.feature_name == adaptive.splash.model.feature_name
        nodes = np.arange(64, dtype=np.int64) % dataset.ctdg.num_nodes
        times = np.full(64, float(dataset.ctdg.times[-1]) + 1.0)
        assert_bundles_identical(
            live_store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )
