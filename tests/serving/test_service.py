"""PredictionService behaviour: micro-batching, background ingest, hot swap."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.datasets import email_eu_like
from repro.models import ModelConfig
from repro.models.slim import SLIM
from repro.nn.tensor import Tensor
from repro.pipeline import ExecutionConfig, Splash, SplashConfig
from repro.serving import PredictionService, ServingConfig

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


class TestServeStream:
    def test_background_equals_synchronous(self, fitted, dataset):
        args = (dataset.ctdg, dataset.queries.nodes, dataset.queries.times)
        sync = make_service(fitted, dataset).serve_stream(*args, background=False)
        back = make_service(fitted, dataset).serve_stream(*args, background=True)
        np.testing.assert_array_equal(sync, back)

    def test_scores_match_offline_evaluator(self, fitted, dataset):
        service = make_service(fitted, dataset)
        scores = service.serve_stream(
            dataset.ctdg, dataset.queries.nodes, dataset.queries.times
        )
        offline = fitted.predict_scores(np.arange(len(dataset.queries)))
        # Contexts are bit-identical; forward-pass batch boundaries differ,
        # so scores agree to floating-point rounding.
        np.testing.assert_allclose(scores, offline, rtol=1e-9, atol=1e-12)
        idx = fitted.split.test_idx
        served_metric = dataset.task.evaluate(scores[idx], idx)
        assert served_metric == pytest.approx(fitted.evaluate(), abs=1e-12)

    def test_ingest_batch_size_invariance(self, fitted, dataset):
        args = (dataset.ctdg, dataset.queries.nodes, dataset.queries.times)
        small = make_service(fitted, dataset).serve_stream(*args, ingest_batch=17)
        large = make_service(fitted, dataset).serve_stream(*args, ingest_batch=4096)
        np.testing.assert_array_equal(small, large)

    def test_metrics_populated(self, fitted, dataset):
        service = make_service(fitted, dataset)
        service.serve_stream(
            dataset.ctdg, dataset.queries.nodes, dataset.queries.times
        )
        metrics = service.metrics
        assert metrics.ingest_events == dataset.ctdg.num_edges
        assert metrics.query_count == len(dataset.queries)
        assert metrics.p50_ms > 0
        assert metrics.p99_ms >= metrics.p50_ms
        assert metrics.ingest_events_per_sec > 0
        summary = metrics.summary()
        assert summary["query_p99_ms"] >= summary["query_p50_ms"]

    def test_consumer_errors_do_not_strand_producer(self, fitted, dataset, monkeypatch):
        # If *scoring* fails, the background producer must notice the dead
        # consumer and exit instead of blocking forever on the full queue.
        import time

        service = make_service(
            fitted, dataset, config=ServingConfig(micro_batch_size=4)
        )

        def boom(bundle):
            raise RuntimeError("scoring failure")

        monkeypatch.setattr(service, "_score_bundle", boom)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="scoring failure"):
            service.serve_stream(
                dataset.ctdg,
                dataset.queries.nodes,
                dataset.queries.times,
                background=True,
                prefetch_depth=1,
            )
        assert time.perf_counter() - start < 10.0  # no 30s join stall

    def test_ingest_errors_surface_without_stranding_consumer(
        self, fitted, dataset, monkeypatch
    ):
        # Regression: an exception raised by *ingest* on the background
        # producer thread (e.g. a failing journal write) used to be easy
        # to conflate with materialise failures; it must reach the caller
        # promptly — never leave the consumer blocked on an empty queue
        # behind a dead "serving-ingest" thread.
        import time

        service = make_service(fitted, dataset)

        def boom(*args, **kwargs):
            raise OSError("journal write failed")

        monkeypatch.setattr(service.store, "ingest_arrays", boom)
        start = time.perf_counter()
        with pytest.raises(OSError, match="journal write failed"):
            service.serve_stream(
                dataset.ctdg,
                dataset.queries.nodes,
                dataset.queries.times,
                background=True,
            )
        assert time.perf_counter() - start < 10.0

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_producer_without_exception_detected(
        self, fitted, dataset, monkeypatch
    ):
        # Worst case: the producer dies so abruptly it cannot even offer
        # its exception to the queue.  The consumer's bounded wait must
        # notice the dead thread and raise instead of blocking forever.
        import time

        service = make_service(fitted, dataset)

        def vanish(*args, **kwargs):
            raise SystemExit  # kills the thread; offer() is never reached

        monkeypatch.setattr(service, "_ingest_arrays", vanish)
        # Break the error relay too, so only the liveness check remains.
        import repro.serving.service as service_mod

        class MuteQueue(service_mod.queue_mod.Queue):
            def put(self, item, *args, **kwargs):
                if isinstance(item, BaseException):
                    raise SystemExit
                super().put(item, *args, **kwargs)

        monkeypatch.setattr(service_mod.queue_mod, "Queue", MuteQueue)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="producer thread died"):
            service.serve_stream(
                dataset.ctdg,
                dataset.queries.nodes,
                dataset.queries.times,
                background=True,
            )
        assert time.perf_counter() - start < 10.0

    def test_producer_errors_surface(self, fitted, dataset, monkeypatch):
        # A failure on the background ingest/materialise thread must reach
        # the caller, not hang the consumer loop.
        service = make_service(fitted, dataset)

        def boom(*args, **kwargs):
            raise RuntimeError("ingest thread failure")

        monkeypatch.setattr(service.store, "materialise", boom)
        with pytest.raises(RuntimeError, match="ingest thread failure"):
            service.serve_stream(
                dataset.ctdg,
                dataset.queries.nodes,
                dataset.queries.times,
                background=True,
            )


class TestPredict:
    def test_predict_after_full_ingest(self, fitted, dataset):
        service = make_service(fitted, dataset)
        service.ingest(dataset.ctdg)
        end = dataset.ctdg.end_time
        nodes = dataset.queries.nodes[-20:]
        scores = service.predict(nodes, end)
        assert scores.shape[0] == 20
        assert service.metrics.query_count == 20

    def test_empty_predict(self, fitted, dataset):
        service = make_service(fitted, dataset)
        scores = service.predict(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert scores.shape[0] == 0

    def test_micro_batch_validation(self, fitted, dataset):
        with pytest.raises(ValueError, match="micro_batch_size"):
            make_service(fitted, dataset, config=ServingConfig(micro_batch_size=0))


class TestTapeFreeScoring:
    """SLIM scores without building a graph or touching grad mode."""

    def test_scoring_builds_no_tensors(self, fitted, dataset, monkeypatch):
        args = (dataset.ctdg, dataset.queries.nodes, dataset.queries.times)
        reference = make_service(fitted, dataset).serve_stream(*args)
        sync, overlapped, direct = (make_service(fitted, dataset) for _ in range(3))

        def refuse(self, *args, **kwargs):
            raise AssertionError("a Tensor was built while scoring")

        monkeypatch.setattr(Tensor, "__init__", refuse)
        for service, background in ((sync, False), (overlapped, True)):
            scores = service.serve_stream(*args, background=background)
            np.testing.assert_array_equal(scores, reference)
        direct.ingest(dataset.ctdg)
        nodes = dataset.queries.nodes[-40:]
        assert len(direct.predict(nodes, dataset.ctdg.end_time)) == 40
        idx = np.arange(len(dataset.queries))
        assert len(fitted.predict_scores(idx)) == len(idx)

    def test_scoring_does_not_race_a_training_thread(self, fitted, dataset):
        # Grad mode is process-global: scoring under no_grad() on one thread
        # used to make training steps on another build no graph, so their
        # parameters got no gradient.
        split = fitted.split
        idx = np.arange(len(dataset.queries))

        def train():
            model = SLIM(
                fitted.model.feature_name,
                fitted.model.feature_dim,
                fitted.model.edge_feature_dim,
                ModelConfig(hidden_dim=16, epochs=3, batch_size=32, seed=3),
            )
            model.fit(fitted.bundle, dataset.task, split.train_idx, split.val_idx)
            return model.state_dict()

        alone = train()
        stop = threading.Event()
        errors = []

        def score():
            try:
                while not stop.is_set():
                    fitted.model.predict_scores(fitted.bundle, idx)
            except Exception as error:  # reported on the main thread
                errors.append(error)

        # Two scorers and the trainer: more threads than a 2-core machine has.
        scorers = [
            threading.Thread(target=score, name=f"scorer-{i}", daemon=True)
            for i in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for scorer in scorers:
                scorer.start()
            raced = train()
        finally:
            stop.set()
            for scorer in scorers:
                scorer.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(scorer.is_alive() for scorer in scorers) and not errors
        assert sorted(raced) == sorted(alone)
        for name, weights in alone.items():
            assert raced[name].tobytes() == weights.tobytes(), name


class TestHotSwap:
    def test_swap_changes_scores_without_downtime(self, fitted, dataset):
        service = make_service(fitted, dataset)
        service.ingest(dataset.ctdg)
        nodes = dataset.queries.nodes[-32:]
        end = dataset.ctdg.end_time
        before = service.predict(nodes, end)

        # A differently-initialised model over the same feature space.
        replacement = SLIM(
            feature_name=fitted.model.feature_name,
            feature_dim=fitted.model.feature_dim,
            edge_feature_dim=fitted.model.edge_feature_dim,
            config=ModelConfig(
                hidden_dim=16, epochs=4, batch_size=64, time_dim=8, seed=99
            ),
        )
        service.hot_swap(replacement)
        after = service.predict(nodes, end)
        assert after.shape == before.shape
        assert not np.array_equal(before, after)

    def test_swap_rejects_mismatched_feature_space(self, fitted, dataset):
        service = make_service(fitted, dataset)
        wrong = SLIM(
            feature_name=fitted.model.feature_name,
            feature_dim=fitted.model.feature_dim + 1,
            edge_feature_dim=fitted.model.edge_feature_dim,
            config=FAST_MODEL,
        )
        with pytest.raises(ValueError, match="feature_dim"):
            service.hot_swap(wrong)

    def test_swap_rejects_mismatched_output_dim(self, fitted, dataset):
        service = make_service(fitted, dataset)
        wrong = SLIM(
            feature_name=fitted.model.feature_name,
            feature_dim=fitted.model.feature_dim,
            edge_feature_dim=fitted.model.edge_feature_dim,
            config=FAST_MODEL,
        )
        wrong.decoder = wrong.build_decoder(dataset.task.output_dim + 1)
        with pytest.raises(ValueError, match="output_dim"):
            service.hot_swap(wrong)

    def test_from_splash_defaults_edge_feature_dim(self, fitted):
        # The store must inherit the trained edge-feature width by default.
        service = PredictionService.from_splash(fitted, num_nodes=10)
        assert service.store.edge_feature_dim == fitted.model.edge_feature_dim

    def test_swap_loaded_artifact(self, fitted, dataset, tmp_path):
        service = make_service(fitted, dataset)
        service.ingest(dataset.ctdg)
        loaded = Splash.load(fitted.save(str(tmp_path / "artifact")))
        service.hot_swap(loaded.model, dtype=loaded.fit_dtype)
        nodes = dataset.queries.nodes[-16:]
        scores = service.predict(nodes, dataset.ctdg.end_time)
        assert scores.shape[0] == 16


class TestFromSplash:
    def test_requires_fitted_pipeline(self, dataset):
        with pytest.raises(RuntimeError, match="fit"):
            PredictionService.from_splash(
                Splash(SplashConfig()), num_nodes=dataset.ctdg.num_nodes
            )

    def test_inherits_fit_dtype(self, dataset):
        config = SplashConfig(
            feature_dim=10, k=6, model=FAST_MODEL,
            execution=ExecutionConfig(dtype="float32"), seed=0,
        )
        splash = Splash(config)
        splash.fit(dataset)
        service = make_service(splash, dataset)
        assert service._dtype == "float32"
        scores = service.serve_stream(
            dataset.ctdg, dataset.queries.nodes[:50], dataset.queries.times[:50]
        )
        assert scores.dtype == np.float32
