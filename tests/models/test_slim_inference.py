"""SLIM scores without the autodiff tape and returns the tape's bits.

``predict_logits``, ``predict_scores`` and ``representations`` reach SLIM's
ndarray forward through the per-chunk hooks.  Every case here compares it
with ``forward_queries(...).data`` (or ``encode``) under ``no_grad``, chunk
by chunk, by ``tobytes()``.
"""

import numpy as np
import pytest

from repro.features import default_processes
from repro.models import SLIM, ModelConfig
from repro.models.base import ContextModel
from repro.models.context import build_context_bundle
from repro.models.graphmixer import GraphMixer
from repro.nn import default_dtype, no_grad
from repro.streams.ctdg import CTDG
from repro.tasks.base import QuerySet
from repro.tasks.classification import ClassificationTask
from tests.conftest import toy_ctdg

DIM = 6
K = 4
BATCH = 128
NUM_QUERIES = 300
# (build dtype, score dtype)
PRECISIONS = [
    ("float64", "float64"),
    ("float32", "float32"),
    ("float64", "float32"),
    ("float32", "float64"),
]


def make_bundle(d_e):
    toy = toy_ctdg(num_nodes=12, num_edges=240, seed=3, d_e=d_e)
    rng = np.random.default_rng(4)
    # Edge weights that float32 cannot hold exactly (Eq. 16's w_ij).
    weights = rng.uniform(0.5, 2.0, size=toy.num_edges)
    g = CTDG(toy.src, toy.dst, toy.times, toy.edge_features, weights, toy.num_nodes)
    # Some queries come before any edge: rows with no neighbours.
    times = np.sort(rng.uniform(g.start_time - 20.0, g.end_time, NUM_QUERIES))
    queries = QuerySet(rng.integers(0, g.num_nodes, NUM_QUERIES), times)
    processes = default_processes(DIM, seed=0)
    train = g.prefix_until(g.times[120])
    for process in processes:
        process.fit(train, g.num_nodes)
    return build_context_bundle(g, queries, K, processes)


@pytest.fixture(scope="module")
def bundles():
    return {d_e: make_bundle(d_e) for d_e in (0, 2)}


def make_slim(bundle, build, feature="random", num_layers=2, dropout=0.1):
    config = ModelConfig(
        hidden_dim=16,
        num_layers=num_layers,
        dropout=dropout,
        batch_size=BATCH,
        seed=5,
        skip_weight=0.3,
    )
    with default_dtype(build):
        model = SLIM(
            feature, bundle.feature_dim(feature), bundle.edge_feature_dim, config
        )
        model.bind_task(ClassificationTask(np.zeros(NUM_QUERIES, dtype=int), 3))
        rng = np.random.default_rng(6)
        for param in model.parameters():
            noise = rng.normal(scale=0.3, size=param.shape)
            param.data = (param.data + noise).astype(param.data.dtype)
    return model


def tape(model, bundle, idx, forward):
    """The Tensor forward, chunked as the predict methods chunk."""
    model.eval()
    with no_grad():
        chunks = [
            forward(bundle, idx[lo : lo + BATCH]).data
            for lo in range(0, len(idx), BATCH)
        ]
    return np.concatenate(chunks, axis=0)


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_scores_like_tape(model, bundle, idx, score):
    with default_dtype(score):
        expected = tape(model, bundle, idx, model.forward_queries)
        model.train()  # predict switches to eval mode itself
        assert_same_bits(model.predict_logits(bundle, idx), expected)
        assert_same_bits(model.predict_scores(bundle, idx), expected)
        reps = tape(model, bundle, idx, model.encode)
        assert_same_bits(model.representations(bundle, idx), reps)
        assert expected.dtype == np.dtype(score)


@pytest.mark.parametrize("build, score", PRECISIONS)
@pytest.mark.parametrize("num_queries", [1, 2, 7, 128, 129, 300])
def test_query_counts_across_the_chunk_boundary(bundles, build, score, num_queries):
    bundle = bundles[2]
    model = make_slim(bundle, build)
    idx = np.arange(NUM_QUERIES - num_queries, NUM_QUERIES)
    assert_scores_like_tape(model, bundle, idx, score)


@pytest.mark.parametrize("build, score", PRECISIONS)
@pytest.mark.parametrize("feature", ["random", "positional", "structural", "joint"])
@pytest.mark.parametrize("d_e", [0, 2])
def test_features_and_edge_features(bundles, build, score, feature, d_e):
    bundle = bundles[d_e]
    model = make_slim(bundle, build, feature=feature)
    assert_scores_like_tape(model, bundle, np.arange(NUM_QUERIES), score)


@pytest.mark.parametrize("build, score", PRECISIONS)
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_depth_and_dropout(bundles, build, score, num_layers, dropout):
    bundle = bundles[2]
    model = make_slim(bundle, build, num_layers=num_layers, dropout=dropout)
    assert_scores_like_tape(model, bundle, np.arange(150), score)


@pytest.mark.parametrize("build, score", PRECISIONS)
def test_rows_without_neighbours(bundles, build, score):
    bundle = bundles[2]
    empty = np.flatnonzero(~bundle.mask.any(axis=1))
    assert len(empty) >= 3
    model = make_slim(bundle, build)
    assert_scores_like_tape(model, bundle, empty, score)
    # Mixed with full rows, out of order.
    mixed = np.concatenate([empty[::-1], np.arange(NUM_QUERIES - 20, NUM_QUERIES)])
    assert_scores_like_tape(model, bundle, mixed, score)


def test_a_trained_slim_scores_like_its_tape(bundles):
    bundle = bundles[2]
    labels = np.random.default_rng(0).integers(0, 3, size=NUM_QUERIES)
    task = ClassificationTask(labels, 3)
    model = SLIM("random", DIM, 2, ModelConfig(hidden_dim=16, epochs=3, seed=1))
    model.fit(bundle, task, np.arange(150), np.arange(150, 200))
    assert_scores_like_tape(model, bundle, np.arange(200, 300), "float64")


def test_slim_keeps_the_shared_predict_methods():
    # Profilers wrap ContextModel.predict_*; an override would hide SLIM.
    for name in ("predict_logits", "predict_scores", "representations"):
        assert name not in vars(SLIM)
        assert getattr(SLIM, name) is getattr(ContextModel, name)


class TestEmptyIndex:
    """The predict methods return zero rows of the right width."""

    @pytest.fixture(params=["slim", "graphmixer"])
    def model(self, request, bundles):
        bundle = bundles[2]
        if request.param == "slim":
            return make_slim(bundle, "float64")
        config = ModelConfig(hidden_dim=16, epochs=1, seed=0)
        model = GraphMixer("random", DIM, 2, K, config)
        model.bind_task(ClassificationTask(np.zeros(NUM_QUERIES, dtype=int), 3))
        return model

    def test_predict_logits(self, model, bundles):
        out = model.predict_logits(bundles[2], np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 3) and out.dtype == np.float64

    def test_predict_scores(self, model, bundles):
        out = model.predict_scores(bundles[2], np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 3)

    def test_representations(self, model, bundles):
        with default_dtype("float32"):
            out = model.representations(bundles[2], [])
        assert out.shape == (0, 16) and out.dtype == np.float32
