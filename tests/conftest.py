"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.streams.ctdg import CTDG
from repro.tasks.base import QuerySet


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def closing():
    """An ``ExitStack`` unwound after the test, pass or fail: register what
    a test opens (``closing.enter_context(service)``) to have it closed."""
    with contextlib.ExitStack() as stack:
        yield stack


def random_tied_stream(
    seed: int,
    num_nodes: int = 20,
    num_edges: int = 150,
    num_queries: int = 60,
    d_e: int = 0,
    selfloop_prob: float = 0.1,
    quantize: bool = True,
    hub_prob: float = 0.3,
):
    """A randomised edge/query stream exercising every replay-engine hazard.

    Timestamps are quantised to half-units so edges tie with each other
    *and* with queries (the §III inclusive-time rule); a fraction of edges
    are self-loops; a hub node keeps ~``hub_prob`` of all edges so bursts
    exceed any small k.  Returns ``(CTDG, QuerySet)``.  This is the shared
    generator behind the engine-equivalence harness
    (``tests/streams/test_engine_equivalence.py``) — reuse it via the
    ``tied_stream_factory`` fixture or a direct import.
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    loops = rng.random(num_edges) < selfloop_prob
    dst[loops] = src[loops]
    hub_rows = rng.random(num_edges) < hub_prob
    src[hub_rows] = 0
    times = rng.uniform(0, 50, size=num_edges)
    if quantize:
        times = np.round(times * 2) / 2.0  # force many equal timestamps
    times = np.sort(times)
    features = rng.normal(size=(num_edges, d_e)) if d_e else None
    weights = rng.uniform(0.5, 2.0, size=num_edges)
    g = CTDG(
        src, dst, times, edge_features=features, weights=weights, num_nodes=num_nodes
    )
    q_times = rng.uniform(0, 50, size=num_queries)
    if quantize:
        q_times = np.round(q_times * 2) / 2.0  # collide with edge times
    q_times = np.sort(q_times)
    q_nodes = rng.integers(0, num_nodes, size=num_queries)
    return g, QuerySet(q_nodes, q_times)


@pytest.fixture
def tied_stream_factory():
    """The :func:`random_tied_stream` generator as a reusable fixture."""
    return random_tied_stream


def fitted_context_processes(
    g: CTDG, train_fraction: float = 0.6, dim: int = 6, seed: int = 0
):
    """R + fresh-random + zero + structural processes fitted on a stream prefix,
    so the suffix contains genuinely unseen nodes (propagation, Eqs. 4-5)."""
    from repro.features.random_feat import (
        FreshRandomFeatureProcess,
        RandomFeatureProcess,
        ZeroFeatureProcess,
    )
    from repro.features.structural import StructuralFeatureProcess

    stop = int(g.num_edges * train_fraction)
    train = g.slice(0, stop)
    processes = [
        RandomFeatureProcess(dim, rng=seed),  # propagated (dynamic) store
        FreshRandomFeatureProcess(dim, rng=seed + 1),  # static table
        ZeroFeatureProcess(dim),  # static zeros
        StructuralFeatureProcess(dim),  # lazy (degree-based)
    ]
    for process in processes:
        process.fit(train, g.num_nodes)
    return processes


BUNDLE_ARRAYS = [
    "neighbor_nodes",
    "neighbor_times",
    "neighbor_degrees",
    "edge_features",
    "edge_weights",
    "mask",
    "target_degrees",
    "target_last_times",
    "target_seen",
]


def assert_bundles_identical(a, b) -> None:
    """Bit-for-bit equality of every array a :class:`ContextBundle` carries."""
    for name in BUNDLE_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert np.array_equal(left, right), f"bundle field {name} differs"
    assert set(a.target_features) == set(b.target_features)
    assert set(a.neighbor_features) == set(b.neighbor_features)
    for name in a.target_features:
        assert np.array_equal(
            a.target_features[name], b.target_features[name]
        ), f"target_features[{name}] differs"
        assert np.array_equal(
            a.neighbor_features[name], b.neighbor_features[name]
        ), f"neighbor_features[{name}] differs"
    assert a.structural_params == b.structural_params
    assert set(a.static_tables) == set(b.static_tables)
    for name in a.static_tables:
        assert np.array_equal(a.static_tables[name], b.static_tables[name])


def numerical_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar ``fn()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = fn()
        array[index] = original - eps
        minus = fn()
        array[index] = original
        grad[index] = (plus - minus) / (2 * eps)
        iterator.iternext()
    return grad


def toy_ctdg(
    num_nodes: int = 8, num_edges: int = 40, seed: int = 0, d_e: int = 0
) -> CTDG:
    """A small random CTDG for unit tests."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, size=num_edges)) % num_nodes
    times = np.sort(rng.uniform(0, 100, size=num_edges))
    features = rng.normal(size=(num_edges, d_e)) if d_e else None
    return CTDG(src, dst, times, edge_features=features, num_nodes=num_nodes)


def toy_queries(ctdg: CTDG, num_queries: int = 20, seed: int = 1) -> QuerySet:
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(ctdg.start_time, ctdg.end_time, size=num_queries))
    nodes = rng.integers(0, ctdg.num_nodes, size=num_queries)
    return QuerySet(nodes, times)
