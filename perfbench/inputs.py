"""Seeded inputs for the benchmark workloads.

Everything here is input preparation: it runs before any timed operation
and is never part of a reported number.  The same seed always yields the
same arrays.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import email_eu_like
from repro.features.random_feat import RandomFeatureProcess
from repro.features.structural import StructuralFeatureProcess
from repro.models import ModelConfig
from repro.models.slim import SLIM
from repro.nn.backend import active_backend
from repro.nn.tensor import get_default_dtype
from repro.pipeline import Splash, SplashConfig
from repro.streams.ctdg import CTDG

# The serving reference stream (ROADMAP baseline): a wide node space with
# uniform endpoints, 4-dim edge features and one query per ~20 edges, so
# the interleave leaves ~21 edges and ~1 query per block.
NUM_NODES = 8192
EDGE_FEATURE_DIM = 4
FEATURE_DIM = 32
K = 10
MICRO_BATCH = 256
# Prefix the served pipeline's feature processes are fitted on.
FIT_PREFIX_EDGES = 5_000

# The benches' training configuration (hidden 48, 25 epochs, patience 6).
MODEL = ModelConfig(
    hidden_dim=48,
    epochs=25,
    batch_size=128,
    patience=6,
    time_dim=8,
    lr=3e-3,
    seed=0,
)


def uniform_traffic(num_edges: int, num_queries: int, seed: int):
    """Poisson edge arrivals between uniform endpoints, plus uniform queries.

    Returns ``(ctdg, query_nodes, query_times)``.  Times are in stream units
    with a mean gap of 1.0 between edges.
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, size=num_edges)
    dst = rng.integers(0, NUM_NODES, size=num_edges)
    times = np.cumsum(rng.exponential(1.0, size=num_edges))
    features = rng.standard_normal((num_edges, EDGE_FEATURE_DIM))
    weights = rng.uniform(0.5, 1.5, size=num_edges)
    query_times = np.sort(rng.uniform(times[0], times[-1], size=num_queries))
    query_nodes = rng.integers(0, NUM_NODES, size=num_queries)
    ctdg = CTDG(src, dst, times, features, weights, num_nodes=NUM_NODES)
    return ctdg, query_nodes, query_times


def email_dataset(num_edges: int, seed: int):
    """The paper's Email-EU stand-in, where feature augmentation decides F1."""
    return email_eu_like(seed=seed, num_edges=num_edges)


def splash_config() -> SplashConfig:
    return SplashConfig(feature_dim=FEATURE_DIM, k=K, model=MODEL)


def servable_splash(ctdg: CTDG) -> Splash:
    """A servable pipeline for the synthetic stream, which has no labels.

    Fitted R and S processes plus an untrained SLIM over ``random``: the
    same arrays, shapes and per-query work as a trained model, without a
    training phase (training is the ``fit`` workload's job).
    """
    splash = Splash(splash_config())
    splash.processes = [
        RandomFeatureProcess(FEATURE_DIM, rng=0),
        StructuralFeatureProcess(FEATURE_DIM),
    ]
    prefix = ctdg.slice(0, FIT_PREFIX_EDGES)
    for process in splash.processes:
        process.fit(prefix, NUM_NODES)
    model = SLIM(
        feature_name="random",
        feature_dim=FEATURE_DIM,
        edge_feature_dim=EDGE_FEATURE_DIM,
        config=MODEL,
    )
    model.decoder = model.build_decoder(1)
    model.eval()
    splash.model = model
    splash._fit_dtype = np.dtype(get_default_dtype()).name
    splash._fit_backend = active_backend().name
    return splash
