"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of the layers named in
``LAYERS`` while it is installed, and restores the originals when it is
removed; the program's own code is never edited.  Each wrapped call is a
span.  A span's *self* time is its duration minus the durations of the
wrapped spans it encloses, so the self times of a root span and of
everything inside it add up to the root's wall-clock.  Spans are kept as
in-memory aggregates and read when the benchmark ends.

All traced calls run on the benchmark's main thread (the workloads drive
the service synchronously), so one span stack suffices.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.pipeline.splash as splash_module
import repro.selection.selector as selector_module
import repro.serving.persistence as persistence_module
from repro.features.positional import PositionalFeatureProcess
from repro.features.random_feat import RandomFeatureProcess
from repro.features.structural import StructuralFeatureProcess
from repro.models.base import ContextModel
from repro.models.slim import SLIM
from repro.pipeline import Splash
from repro.selection.linear_model import LinearRiskModel
from repro.selection.selector import FeatureSelector
from repro.serving.persistence import EventLog, PersistenceManager
from repro.serving.service import PredictionService
from repro.serving.store import IncrementalContextStore

_MISSING = object()


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "self_s", "durations", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.durations = []
        self.items = 0


def _len_arg(position):
    return lambda args, result: len(args[position])


def _snapshot_bytes(args, result):
    total = 0
    for directory, _, files in os.walk(result):
        total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total


def _feature_span(tracer, args):
    return f"features.{args[0].name}.fit"


def _ingest_span(tracer, args):
    # The tail replay inside a resume is the resume's own layer.
    return "persist.resume.tail" if tracer.is_open("persist.resume") else "store.ingest"


def _flush_span(tracer, args):
    # Resume flushes an already-durable log (a no-op commit); it belongs to
    # the resume's unattributed remainder, not to the fsync layer.
    return None if tracer.is_open("persist.resume") else "persist.flush"


# (owner, attribute, span name or name function, item counter or None).
# An item counter maps (args, result) to the units of work the call did.
LAYERS = [
    (RandomFeatureProcess, "fit", _feature_span, None),
    (PositionalFeatureProcess, "fit", _feature_span, None),
    (StructuralFeatureProcess, "fit", _feature_span, None),
    (splash_module, "build_context_bundle", "context.build",
     lambda args, result: args[0].num_edges),
    (FeatureSelector, "select", "selection.select", None),
    (selector_module, "node_encodings", "selection.encode", None),
    (LinearRiskModel, "fit", "selection.probe", None),
    (SLIM, "fit", "slim.train", lambda args, result: len(result.train_losses)),
    (ContextModel, "predict_scores", "slim.score", _len_arg(2)),
    (ContextModel, "predict_logits", "slim.score", _len_arg(2)),
    (IncrementalContextStore, "ingest_arrays", _ingest_span, _len_arg(1)),
    (IncrementalContextStore, "materialise", "store.materialise", _len_arg(1)),
    (EventLog, "append", "persist.append", _len_arg(1)),
    (EventLog, "flush", _flush_span, None),
    (PersistenceManager, "snapshot", "persist.snapshot", _snapshot_bytes),
    (PredictionService, "resume", "persist.resume", None),
    (Splash, "load", "persist.resume.artifact", None),
    (persistence_module, "load_snapshot", "persist.resume.snapshot", None),
    (IncrementalContextStore, "restore_runtime_state", "persist.resume.restore",
     None),
]


class Tracer:
    """Installs span wrappers around ``LAYERS`` and aggregates per name.

    The results of calls whose span name is in ``keep`` are kept, in call
    order, in ``kept[name]``.
    """

    def __init__(self, keep=()) -> None:
        self.keep = frozenset(keep)
        self.kept = defaultdict(list)
        self.stats = defaultdict(SpanStats)
        self._stack = []  # open spans: [name, seconds spent in child spans]
        self._open = defaultdict(int)
        self._saved = []

    # -- spans ---------------------------------------------------------
    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list, elapsed: float) -> SpanStats:
        self._stack.pop()
        self._open[frame[0]] -= 1
        if self._stack:
            self._stack[-1][1] += elapsed
        stats = self.stats[frame[0]]
        stats.calls += 1
        stats.self_s += elapsed - frame[1]
        stats.durations.append(elapsed)
        return stats

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a root around a job)."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - start)

    def _wrap(self, function, name, count):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(tracer, args) if callable(name) else name
            if span_name is None:
                return function(*args, **kwargs)
            frame = tracer._enter(span_name)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                stats = tracer._exit(frame, time.perf_counter() - start)
            if count is not None:
                stats.items += count(args, result)
            if span_name in tracer.keep:
                tracer.kept[span_name].append(result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, name, count in LAYERS:
            original = owner.__dict__.get(attribute, _MISSING)
            self._saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, count))
            else:
                # Inherited methods are wrapped on the class named in LAYERS
                # and removed again on uninstall.
                wrapped = self._wrap(getattr(owner, attribute), name, count)
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
