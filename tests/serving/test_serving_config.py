"""ServingConfig: validation, the flat-kwarg deprecation path, resume rules.

The config consolidation is an API contract: flat ``from_splash`` keywords
still work but warn exactly once per process, mixing them with an explicit
``config=`` is an error, and unknown keywords are rejected with a message
naming the valid options (the bugfix ride-along — they used to fall
through ``**kwargs`` and surface as an opaque ``TypeError``).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.datasets import email_eu_like
from repro.models import ModelConfig
from repro.pipeline import Splash, SplashConfig
from repro.serving import PredictionService, ServingConfig
from repro.serving.config import (
    _reset_flat_kwarg_warnings,
    resolve_serving_config,
)

FAST_MODEL = ModelConfig(
    hidden_dim=16, epochs=3, batch_size=64, patience=3, time_dim=8, seed=0
)


@pytest.fixture(scope="module")
def dataset():
    return email_eu_like(seed=4, num_edges=600)


@pytest.fixture(scope="module")
def fitted(dataset):
    splash = Splash(SplashConfig(feature_dim=8, k=5, model=FAST_MODEL, seed=0))
    splash.fit(dataset)
    return splash


class TestServingConfigValidation:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.num_shards == 0
        assert config.persist_path is None
        assert config.telemetry_port is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"micro_batch_size": 0}, "micro_batch_size"),
            ({"micro_batch_size": True}, "micro_batch_size"),
            ({"micro_batch_size": 2.5}, "micro_batch_size"),
            ({"dtype": "float16"}, "dtype"),
            ({"num_shards": -1}, "num_shards"),
            ({"num_shards": 2.0}, "num_shards"),
            ({"snapshot_every": 0}, "snapshot_every"),
            ({"telemetry_port": 70000}, "telemetry_port"),
            ({"slo_interval": 0.0}, "slo_interval"),
            ({"catchup_ring": -1}, "catchup_ring"),
        ],
    )
    def test_invalid_values_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServingConfig(**kwargs)

    def test_unknown_backend_raises_at_construction(self):
        with pytest.raises(ValueError, match="no-such-backend"):
            ServingConfig(backend="no-such-backend")


class TestFlatKwargDeprecation:
    def test_flat_kwarg_warns_once_per_process(self):
        _reset_flat_kwarg_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_serving_config(None, {"micro_batch_size": 32})
            resolve_serving_config(None, {"micro_batch_size": 64})
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "micro_batch_size" in str(deprecations[0].message)
        assert "ServingConfig" in str(deprecations[0].message)

    def test_each_flat_kwarg_warns_independently(self):
        _reset_flat_kwarg_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_serving_config(
                None, {"micro_batch_size": 32, "dtype": "float64"}
            )
        names = sorted(
            str(w.message).split("=")[0].split()[-1]
            for w in caught
            if issubclass(w.category, DeprecationWarning)
        )
        assert names == ["dtype", "micro_batch_size"]

    def test_flat_kwargs_fold_into_config(self):
        _reset_flat_kwarg_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            config = resolve_serving_config(
                None, {"dtype": "float32", "snapshot_every": 10}
            )
        assert config == ServingConfig(dtype="float32", snapshot_every=10)

    def test_mixing_flat_and_config_raises(self):
        with pytest.raises(ValueError, match="not both"):
            resolve_serving_config(ServingConfig(), {"dtype": "float32"})

    def test_none_valued_flat_kwargs_do_not_conflict(self):
        # Explicit None means "unset" — the historical default — so it
        # neither warns nor clashes with config=.
        config = ServingConfig(micro_batch_size=16)
        assert resolve_serving_config(config, {"dtype": None}) is config

    def test_unknown_kwarg_rejected_with_valid_options(self):
        # Regression test for the ride-along bugfix: unrecognised keywords
        # used to fall through **kwargs as an opaque TypeError.
        with pytest.raises(ValueError) as excinfo:
            resolve_serving_config(None, {"snapshot_evry": 10})
        message = str(excinfo.value)
        assert "snapshot_evry" in message
        assert "snapshot_every" in message  # the valid options are named

    def test_non_config_object_rejected(self):
        with pytest.raises(ValueError, match="ServingConfig"):
            resolve_serving_config({"micro_batch_size": 4}, {})


class TestServiceConstructorContracts:
    def test_from_splash_rejects_unknown_kwarg(self, fitted, dataset):
        with pytest.raises(ValueError, match="micro_batchsize"):
            PredictionService.from_splash(
                fitted, dataset.ctdg.num_nodes, micro_batchsize=8
            )

    def test_from_splash_flat_kwarg_still_works(self, fitted, dataset):
        _reset_flat_kwarg_warnings()
        with pytest.warns(DeprecationWarning, match="micro_batch_size"):
            service = PredictionService.from_splash(
                fitted, dataset.ctdg.num_nodes, micro_batch_size=8
            )
        assert service.micro_batch_size == 8

    def test_from_splash_config_equals_flat(self, fitted, dataset):
        g = dataset.ctdg
        _reset_flat_kwarg_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            old = PredictionService.from_splash(
                fitted, g.num_nodes, micro_batch_size=16, dtype="float64"
            )
        new = PredictionService.from_splash(
            fitted,
            g.num_nodes,
            config=ServingConfig(micro_batch_size=16, dtype="float64"),
        )
        for service in (old, new):
            service._ingest_arrays(
                g.src[:200], g.dst[:200], g.times[:200],
                g.edge_features[:200] if g.edge_features is not None else None,
                g.weights[:200],
            )
        nodes = np.arange(g.num_nodes)
        at = float(g.times[199])
        assert np.array_equal(old.predict(nodes, at), new.predict(nodes, at))

    def test_snapshot_cadence_without_root_warns(self, fitted, dataset):
        with pytest.warns(UserWarning, match="persist_path"):
            PredictionService.from_splash(
                fitted,
                dataset.ctdg.num_nodes,
                config=ServingConfig(snapshot_every=100),
            )

    def test_resume_rejects_persist_path_in_config(self, fitted, tmp_path):
        with pytest.raises(ValueError, match="positional"):
            PredictionService.resume(
                str(tmp_path), config=ServingConfig(persist_path=str(tmp_path))
            )

    def test_resume_roundtrip_with_config(self, fitted, dataset, tmp_path):
        g = dataset.ctdg
        root = str(tmp_path / "svc")
        service = PredictionService.from_splash(
            fitted,
            g.num_nodes,
            config=ServingConfig(persist_path=root, snapshot_every=100),
            task=dataset.task,
        )
        service._ingest_arrays(
            g.src[:300], g.dst[:300], g.times[:300],
            g.edge_features[:300] if g.edge_features is not None else None,
            g.weights[:300],
        )
        nodes = np.arange(g.num_nodes)
        at = float(g.times[299])
        expected = service.predict(nodes, at)
        service.close()
        with PredictionService.resume(
            root, config=ServingConfig(snapshot_every=100), task=dataset.task
        ) as resumed:
            assert resumed.store.edges_ingested == 300
            assert np.array_equal(resumed.predict(nodes, at), expected)
