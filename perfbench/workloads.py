"""The benchmark's three workloads: ``fit``, ``stream`` and ``live``.

Each workload function takes ``(seed, seconds, trace, workdir)`` and
returns a :class:`Outcome`.  A workload repeats its timed *unit* until
``seconds`` have passed (at least ``MIN_UNITS`` times) and reports medians,
so one slow repeat cannot move a number.  With ``trace`` the units
alternate untraced and traced (at least ``TRACE_PAIRS`` pairs): the
tracing overhead is the median ratio over adjacent pairs, per-layer
numbers come from the traced units only.

All clocks are the benchmark's own ``time.perf_counter`` pairs around
public calls; nothing reads the program's internal timers or metrics.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.models.context import build_context_bundle
from repro.pipeline import Splash
from repro.serving import PredictionService, ServingConfig, serve
from repro.tasks.base import QuerySet

from inputs import (
    EDGE_FEATURE_DIM,
    K,
    MICRO_BATCH,
    NUM_NODES,
    email_dataset,
    servable_splash,
    splash_config,
    uniform_traffic,
)
from tracer import Tracer

# One set-up takes 15-70 us on fit and stream and ~5 ms on live, too short
# for one timer pair on a box whose speed swings from second to second.
# So set-up is timed in blocks of at least SETUP_BLOCK_S, each divided by
# its count, and SETUP_BLOCKS_PER_UNIT blocks are taken before every unit:
# the reported median samples the whole run, as the units do.
SETUP_BLOCK_S = 0.03
SETUP_BLOCKS_PER_UNIT = 5
MIN_UNITS = 3
TRACE_PAIRS = 3

# fit: Email-EU stand-in at 50k edges (~30k queries): ~6-9 s per fit on a
# shared 2-CPU box, so a 20 s run takes a median over 3-4 fits.
FIT_EDGES = 50_000
FIT_ORACLE_EDGES = 5_000  # prefix replayed by the engine="event" oracle
FIT_MIN_TEST_SCORE = 0.9  # weighted F1; the seed commit scores ~0.96-0.98
# Test phase: the ~24k held-out queries in micro-batches of 32 (~750
# sub-millisecond calls), scored TEST_PASSES times per fit.  The latency
# percentiles pool every call of the run, so the p99 rests on ~70 calls.
TEST_BATCH = 32
TEST_PASSES = 3

BUNDLE_FIELDS = (
    "neighbor_nodes",
    "neighbor_times",
    "neighbor_degrees",
    "edge_features",
    "edge_weights",
    "mask",
    "target_degrees",
    "target_last_times",
    "target_seen",
)
FEATURE_GROUPS = ("target_features", "neighbor_features")

# stream: the ROADMAP reference interleave (~21 edges and ~1 query per
# block), cut from 120k to 40k edges so that a replay takes ~2 s and a 20 s
# run takes its median over ~9 replays: the box's speed swings by up to a
# third within seconds, and the median of 3 long replays kept that noise.
STREAM_EDGES = 40_000
STREAM_QUERIES = 2_000
STREAM_CHECK_EDGES = 12_000  # prefix whose materialised contexts are compared
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12

# live: open loop at a fixed offered rate that the seed commit sustains
# with room to spare: at 4k edges/s it is busy ~55% of the time.  The
# open loop's capacity is far below the closed loop's (~22k edges/s),
# because arrivals leave ~2-3 edges per ingest call and every call pays a
# fixed cost; at 8k edges/s the seed is ~80% busy and its p50 doubles
# whenever the box is slightly slower.
LIVE_RATE = 4_000  # edges per second of wall-clock
LIVE_EDGES_PER_QUERY = 20
LIVE_SNAPSHOTS = 5.5  # snapshots per run: the resume tail is ~half a cadence
LIVE_SEED_OFFSET = 1_000_003
LIVE_PROBES = 256
LIVE_WINDOWS = 4
RESUME_REPEATS = 15


@dataclass
class Outcome:
    metrics: dict  # end-to-end name -> value
    layers: dict  # per-layer name -> value (traced runs only)
    attempted: int
    failed: int
    notes: list = field(default_factory=list)


def _ms_percentiles(groups):
    """Median over ``groups`` of each group's per-query p50 and p99 (ms).

    A group is one replay, one live window or a whole fit run, as
    ``(latencies_s, weights)``; a call's latency counts once per query it
    answered.  Taking the percentiles per group and then the median keeps
    one burst of interference from a co-tenant out of the reported tail.
    """
    p50s, p99s = [], []
    for latencies, weights in groups:
        values = np.repeat(np.asarray(latencies, dtype=np.float64), weights) * 1000.0
        p50s.append(np.percentile(values, 50))
        p99s.append(np.percentile(values, 99))
    return float(np.median(p50s)), float(np.median(p99s))


def _rounded(seconds):
    return [round(value, 3) for value in seconds]


def _p99_ms(durations):
    return float(np.percentile(durations, 99)) * 1000.0 if durations else 0.0


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _settle():
    """Start a timed region from the same heap state every time.

    The serving store keeps ~10^6 small Python objects, so a full
    collection triggered by the previous unit's garbage can cost half a
    second inside the next unit.  Collecting here, untimed, keeps that
    cost where the unit's own allocations put it.
    """
    gc.collect()


class _SetupClock:
    """Seconds per ``set_up()`` call, timed in blocks (see SETUP_BLOCK_S).

    ``tear_down`` receives a block's results after its clock has stopped.
    """

    def __init__(self, set_up, tear_down=None):
        self.set_up = set_up
        self.tear_down = tear_down
        self.per_call = []

    def blocks(self, count=SETUP_BLOCKS_PER_UNIT):
        for _ in range(count):
            results = []
            start = time.perf_counter()
            while True:
                results.append(self.set_up())
                elapsed = time.perf_counter() - start
                if elapsed >= SETUP_BLOCK_S:
                    break
            self.per_call.append(elapsed / len(results))
            if self.tear_down is not None:
                self.tear_down(results)

    def median(self):
        return float(np.median(self.per_call))


def _units(seconds, trace, setup_clock):
    """Yield (index, traced) until the budget is spent.

    At least ``MIN_UNITS`` units run, or ``TRACE_PAIRS`` untraced/traced
    pairs with ``trace``.  Set-up blocks are taken before every unit.
    """
    least = 2 * TRACE_PAIRS if trace else MIN_UNITS
    start = time.perf_counter()
    index = 0
    while index < least or time.perf_counter() - start < seconds:
        setup_clock.blocks()
        _settle()
        yield index, bool(trace) and index % 2 == 1
        index += 1


def _overhead(seconds):
    """Median traced/untraced ratio over adjacent unit pairs."""
    pairs = len(seconds[True])
    return float(np.median(np.divide(seconds[True], seconds[False][:pairs])))


def _bundle_rows(bundle, hi):
    """The first ``hi`` query rows of a bundle, as plain arrays."""
    rows = {name: getattr(bundle, name)[:hi] for name in BUNDLE_FIELDS}
    for group in FEATURE_GROUPS:
        rows[group] = {n: v[:hi] for n, v in getattr(bundle, group).items()}
    return rows


def _concat_bundles(bundles):
    """Row-concatenate materialised micro-batch bundles into plain arrays."""
    rows = {
        name: np.concatenate([getattr(b, name) for b in bundles])
        for name in BUNDLE_FIELDS
    }
    for group in FEATURE_GROUPS:
        rows[group] = {
            n: np.concatenate([getattr(b, group)[n] for b in bundles])
            for n in getattr(bundles[0], group)
        }
    return rows


def _bundle_rows_equal(rows, offline, lo, hi):
    """``rows`` == offline bundle rows [lo, hi), bit for bit."""
    for name in BUNDLE_FIELDS:
        if not np.array_equal(rows[name], getattr(offline, name)[lo:hi]):
            return False
    for group in FEATURE_GROUPS:
        mine, theirs = rows[group], getattr(offline, group)
        if set(mine) != set(theirs):
            return False
        if not all(np.array_equal(mine[n], theirs[n][lo:hi]) for n in mine):
            return False
    return True


def _layer_stats(tracer, units):
    """Per-unit view of the traced spans: (self seconds, calls, items, p99)."""
    stats = tracer.stats

    def busy(name):
        return stats[name].self_s / units if name in stats else 0.0

    def calls(name):
        return stats[name].calls / units if name in stats else 0.0

    def items(name):
        return stats[name].items / units if name in stats else 0.0

    def p99(name):
        return _p99_ms(stats[name].durations) if name in stats else 0.0

    return busy, calls, items, p99


def serving_layers(tracer, units, service_root="service"):
    """Serving and persistence per-layer metrics (zero where unused)."""
    busy, calls, items, p99 = _layer_stats(tracer, units)
    stats = tracer.stats
    ingest_calls = calls("store.ingest")
    score_calls = calls("slim.score")
    snapshot = stats.get("persist.snapshot")
    return {
        "store.ingest.calls": ingest_calls,
        "store.ingest.busy_s": busy("store.ingest"),
        "store.ingest.edges_per_call": (
            items("store.ingest") / ingest_calls if ingest_calls else 0.0
        ),
        "store.ingest.p99_ms": p99("store.ingest"),
        "store.materialise.calls": calls("store.materialise"),
        "store.materialise.busy_s": busy("store.materialise"),
        "store.materialise.p99_ms": p99("store.materialise"),
        "slim.score.calls": score_calls,
        "slim.score.busy_s": busy("slim.score"),
        "slim.score.queries_per_call": (
            items("slim.score") / score_calls if score_calls else 0.0
        ),
        "slim.score.fill": (
            items("slim.score") / score_calls / MICRO_BATCH if score_calls else 0.0
        ),
        "slim.score.p99_ms": p99("slim.score"),
        "service.self_s": busy(service_root),
        "persist.append.calls": calls("persist.append"),
        "persist.append.busy_s": busy("persist.append"),
        "persist.flush.calls": calls("persist.flush"),
        "persist.flush.busy_s": busy("persist.flush"),
        "persist.flush.p99_ms": p99("persist.flush"),
        "persist.snapshot.calls": calls("persist.snapshot"),
        "persist.snapshot.busy_s": busy("persist.snapshot"),
        "persist.snapshot.max_ms": (
            max(snapshot.durations) * 1000.0 if snapshot else 0.0
        ),
        "persist.snapshot.bytes": (
            snapshot.items / snapshot.calls if snapshot else 0.0
        ),
    }


def resume_layers(tracer):
    """The resume's own split, per resume call (zero where unused)."""
    resumes = tracer.stats.get("persist.resume")
    count = resumes.calls if resumes else 0
    busy, _, items, _ = _layer_stats(tracer, count or 1)
    return {
        "persist.resume.artifact_s": busy("persist.resume.artifact"),
        "persist.resume.snapshot_s": busy("persist.resume.snapshot"),
        "persist.resume.restore_s": busy("persist.resume.restore"),
        "persist.resume.tail_s": busy("persist.resume.tail"),
        "persist.resume.tail_edges": items("persist.resume.tail"),
        "persist.resume.other_s": busy("persist.resume"),
    }


def traced_layers(tracer, units, **measured):
    """Every per-layer metric: span-derived ones from ``tracer`` (zero for
    layers this workload never called) plus the workload's ``measured``
    ones (zero when the workload has no such quantity)."""
    layers = dict.fromkeys(
        (
            "fit.test_score",
            "live.wait_p99_ms",
            "live.service_p99_ms",
            "live.ingest_p99_ms",
            "live.backlog_max",
            "live.final_lag_s",
        ),
        0.0,
    )
    layers.update(fit_layers(tracer, units))
    layers.update(serving_layers(tracer, units))
    layers.update(resume_layers(tracer))
    layers.update(measured)
    return layers


def fit_layers(tracer, units):
    busy, calls, items, _ = _layer_stats(tracer, units)
    train_s = busy("slim.train")
    epochs = items("slim.train")
    build_s = busy("context.build")
    return {
        "features.random.fit_s": busy("features.random.fit"),
        "features.positional.fit_s": busy("features.positional.fit"),
        "features.structural.fit_s": busy("features.structural.fit"),
        "context.build_s": build_s,
        "context.edges_per_s": items("context.build") / build_s if build_s else 0.0,
        "selection.select_s": busy("selection.select"),
        "selection.encode_s": busy("selection.encode"),
        "selection.probe.calls": calls("selection.probe"),
        "selection.probe_s": busy("selection.probe"),
        "slim.train_s": train_s,
        "slim.epochs": epochs,
        "slim.epoch_s": train_s / epochs if epochs else 0.0,
        "fit.other_s": busy("fit"),
    }


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
def run_fit(seed, seconds, trace, workdir):
    dataset = email_dataset(FIT_EDGES, seed)
    cut = FIT_ORACLE_EDGES
    prefix_queries = int(
        np.searchsorted(dataset.queries.times, dataset.ctdg.times[cut], side="left")
    )

    def set_up():
        Splash(splash_config())
        dataset.split()

    setup = _SetupClock(set_up)
    tracer = Tracer()
    fit_s = {False: [], True: []}
    latencies, weights = [], []
    attempted = failed = 0
    notes = []
    oracle = None
    reference_scores = None
    test_score = None
    selected = None
    for _, traced in _units(seconds, trace, setup):
        attempted += 1
        splash = Splash(splash_config())
        split = dataset.split()
        start = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("fit"):
                splash.fit(dataset, split=split)
        else:
            splash.fit(dataset, split=split)
        fit_s[traced].append(time.perf_counter() - start)

        # The paper's test phase: score the held-out queries in micro-batches.
        passes = []
        for _ in range(TEST_PASSES):
            scores = []
            for lo in range(0, len(split.test_idx), TEST_BATCH):
                chunk = split.test_idx[lo : lo + TEST_BATCH]
                start = time.perf_counter()
                scores.append(splash.predict_scores(chunk))
                latencies.append(time.perf_counter() - start)
                weights.append(len(chunk))
            passes.append(np.concatenate(scores))
        scores = passes[0]

        problems = []
        if not all(np.array_equal(again, scores) for again in passes[1:]):
            problems.append("a repeated test pass scored differently")
        selected = splash.selected_process
        if selected != "positional":
            problems.append(f"selected {selected!r}, not 'positional'")
        if oracle is None:
            oracle = build_context_bundle(
                dataset.ctdg.slice(0, cut),
                QuerySet(
                    dataset.queries.nodes[:prefix_queries],
                    dataset.queries.times[:prefix_queries],
                ),
                splash.config.k,
                splash.processes,
                engine="event",
            )
        if not _bundle_rows_equal(
            _bundle_rows(splash.bundle, prefix_queries), oracle, 0, prefix_queries
        ):
            problems.append("bundle differs from the engine='event' oracle prefix")
        if reference_scores is None:
            # Later fits must score bit-identically, so one evaluation
            # stands for all of them.
            reference_scores = scores
            test_score = float(splash.evaluate())
            if test_score < FIT_MIN_TEST_SCORE:
                problems.append(f"test score {test_score:.4f} < {FIT_MIN_TEST_SCORE}")
        elif not np.array_equal(scores, reference_scores):
            problems.append("a repeated fit scored the test queries differently")
        if problems:
            failed += 1
            notes.extend(problems)
        splash = scores = passes = None  # the next unit starts without them

    p50, p99 = _ms_percentiles([(latencies, weights)])
    metrics = {
        "setup_s": setup.median(),
        "peak_rss_mb": _peak_rss_mb(),
        "job_s": float(np.median(fit_s[False])),
        "query_p50_ms": p50,
        "query_p99_ms": p99,
    }
    layers = {}
    if trace:
        layers = traced_layers(
            tracer,
            len(fit_s[True]),
            **{
                "fit.test_score": test_score,
                "trace.overhead_frac": _overhead(fit_s),
            },
        )
    notes.append(
        f"fit: {len(dataset.ctdg.src)} edges, {len(dataset.queries)} queries, "
        f"selected {selected}, test F1 {test_score:.4f}; {len(latencies)} "
        f"test-phase calls; fit seconds untraced {_rounded(fit_s[False])} "
        f"traced {_rounded(fit_s[True])}"
    )
    return Outcome(metrics, layers, attempted, failed, notes)


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
class _Stamps:
    """An identity ``scores_fn`` that timestamps every scored micro-batch."""

    def __init__(self):
        self.times = []
        self.sizes = []

    def __call__(self, logits):
        self.times.append(time.perf_counter())
        self.sizes.append(len(logits))
        return logits


def run_stream(seed, seconds, trace, workdir):
    ctdg, q_nodes, q_times = uniform_traffic(STREAM_EDGES, STREAM_QUERIES, seed)
    splash = servable_splash(ctdg)
    config = ServingConfig(micro_batch_size=MICRO_BATCH)

    setup = _SetupClock(
        lambda: PredictionService.from_splash(
            splash, NUM_NODES, EDGE_FEATURE_DIM, config=config
        )
    )
    tracer = Tracer()
    stream_s = {False: [], True: []}
    latency_groups = []
    outputs = []
    for _, traced in _units(seconds, trace, setup):
        stamps = _Stamps()
        service = PredictionService.from_splash(
            splash, NUM_NODES, EDGE_FEATURE_DIM, config=config, scores_fn=stamps
        )
        start = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("service"):
                scores = service.serve_stream(
                    ctdg, q_nodes, q_times, background=False
                )
        else:
            scores = service.serve_stream(ctdg, q_nodes, q_times, background=False)
        stream_s[traced].append(time.perf_counter() - start)
        if not traced:
            # Closed loop: each micro-batch's response time runs from the
            # previous answer (when the replay moved on) to its own.
            answered = np.asarray(stamps.times)
            latency_groups.append((np.diff(answered, prepend=start), stamps.sizes))
        outputs.append(scores)
        service = None  # the next unit starts without this one's store

    # Output checks: offline replay + offline scoring of every query, and
    # the online contexts of a prefix sample bit for bit.
    queries = QuerySet(q_nodes, q_times)
    offline = build_context_bundle(ctdg, queries, K, splash.processes)
    expected = splash.model.predict_logits(offline, np.arange(len(q_nodes)))
    bad = np.zeros(len(q_nodes), dtype=bool)
    for scores in outputs:
        bad |= ~np.isclose(scores, expected, rtol=SCORE_RTOL, atol=SCORE_ATOL).all(
            axis=1
        )
    cut = STREAM_CHECK_EDGES
    sample = int(np.searchsorted(q_times, ctdg.times[cut], side="left"))
    checker = PredictionService.from_splash(
        splash, NUM_NODES, EDGE_FEATURE_DIM, config=config
    )
    capture = Tracer(keep=("store.materialise",))
    with capture.installed():
        checker.serve_stream(
            ctdg.slice(0, cut), q_nodes[:sample], q_times[:sample], background=False
        )
    bundles = capture.kept["store.materialise"]
    notes = []
    if not _bundle_rows_equal(_concat_bundles(bundles), offline, 0, sample):
        bad[:sample] = True
        notes.append("online contexts differ from the offline bundle")
    if bad.any():
        notes.append(f"{int(bad.sum())} queries failed the output check")

    p50, p99 = _ms_percentiles(latency_groups)
    metrics = {
        "setup_s": setup.median(),
        "peak_rss_mb": _peak_rss_mb(),
        "job_s": float(np.median(stream_s[False])),
        "query_p50_ms": p50,
        "query_p99_ms": p99,
    }
    layers = {}
    if trace:
        layers = traced_layers(
            tracer,
            len(stream_s[True]),
            **{"trace.overhead_frac": _overhead(stream_s)},
        )
    notes.append(
        f"stream: {STREAM_EDGES} edges, {STREAM_QUERIES} queries; replay seconds "
        f"untraced {_rounded(stream_s[False])} traced {_rounded(stream_s[True])}"
    )
    return Outcome(metrics, layers, len(q_nodes), int(bad.sum()), notes)


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------
@dataclass
class _LiveRun:
    query_due: np.ndarray
    query_latency: np.ndarray
    query_wait: np.ndarray
    ingest_latency: np.ndarray
    busy_s: float
    window_busy_s: np.ndarray  # service busy seconds per LIVE_WINDOWS window
    backlog_max: int
    final_lag_s: float
    unanswered: int
    probe_scores: np.ndarray


def _open_loop(client, ctdg, q_nodes, q_times, tracer=None):
    """Deliver the stream on its own schedule, scaled to ``LIVE_RATE``.

    One thread: everything due is delivered in stream order (edges win
    ties) — due edges as one ``ingest`` call, due queries that see the same
    edge prefix as one ``predict`` call — then the loop sleeps until the
    next item is due.  Latencies run from each item's due time, so a stall
    delays every item that falls due during it.
    """
    origin = ctdg.times[0]
    edge_due = (ctdg.times - origin) / LIVE_RATE
    query_due = (q_times - origin) / LIVE_RATE
    cuts = np.searchsorted(ctdg.times, q_times, side="right")
    num_edges, num_queries = len(edge_due), len(query_due)
    edge_done = np.full(num_edges, np.nan)
    query_start = np.full(num_queries, np.nan)
    query_done = np.full(num_queries, np.nan)
    span = tracer.span if tracer is not None else None
    call_begin, call_end = [], []
    backlog_max = 0

    def call(function, *args):
        begin = time.perf_counter()
        if span is None:
            function(*args)
        else:
            with span("service"):
                function(*args)
        end = time.perf_counter()
        call_begin.append(begin - t0)
        call_end.append(end - t0)
        return begin - t0, end - t0

    def ingest(lo, hi):
        _, end = call(
            client.ingest,
            ctdg.src[lo:hi],
            ctdg.dst[lo:hi],
            ctdg.times[lo:hi],
            ctdg.edge_features[lo:hi],
            ctdg.weights[lo:hi],
        )
        edge_done[lo:hi] = end

    def predict(lo, hi):
        begin, end = call(client.predict, q_nodes[lo:hi], q_times[lo:hi])
        query_start[lo:hi] = begin
        query_done[lo:hi] = end

    edge_next = query_next = 0
    t0 = time.perf_counter()
    while edge_next < num_edges or query_next < num_queries:
        now = time.perf_counter() - t0
        edges_due = int(np.searchsorted(edge_due, now, side="right"))
        queries_due = int(np.searchsorted(query_due, now, side="right"))
        if edges_due == edge_next and queries_due == query_next:
            upcoming = min(
                edge_due[edge_next] if edge_next < num_edges else np.inf,
                query_due[query_next] if query_next < num_queries else np.inf,
            )
            time.sleep(max(0.0, upcoming - now))
            continue
        backlog_max = max(
            backlog_max, edges_due - edge_next + queries_due - query_next
        )
        while query_next < queries_due:
            cut = int(cuts[query_next])
            if edge_next < cut:
                ingest(edge_next, cut)
                edge_next = cut
            same = query_next + int(
                np.searchsorted(cuts[query_next:queries_due], cut, side="right")
            )
            predict(query_next, same)
            query_next = same
        if edge_next < edges_due:
            ingest(edge_next, edges_due)
            edge_next = edges_due
    finished = time.perf_counter() - t0
    last_due = max(edge_due[-1], query_due[-1] if num_queries else 0.0)
    call_begin, call_end = np.asarray(call_begin), np.asarray(call_end)
    window = np.minimum(
        (call_begin / last_due * LIVE_WINDOWS).astype(np.int64), LIVE_WINDOWS - 1
    )

    probe_nodes = np.linspace(0, NUM_NODES - 1, LIVE_PROBES).astype(np.int64)
    probe_scores = client.predict(probe_nodes, np.full(LIVE_PROBES, ctdg.times[-1]))
    return _LiveRun(
        query_due=query_due,
        query_latency=query_done - query_due,
        query_wait=query_start - query_due,
        ingest_latency=edge_done - edge_due,
        busy_s=float((call_end - call_begin).sum()),
        window_busy_s=np.bincount(
            window, weights=call_end - call_begin, minlength=LIVE_WINDOWS
        ),
        backlog_max=backlog_max,
        final_lag_s=finished - last_due,
        unanswered=int(np.isnan(query_done).sum()),
        probe_scores=probe_scores,
    )


def _live_config(root, num_edges):
    return ServingConfig(
        micro_batch_size=MICRO_BATCH,
        persist_path=root,
        snapshot_every=int(num_edges / LIVE_SNAPSHOTS),
    )


def _live_serve(splash, root, num_edges):
    return serve(
        splash,
        _live_config(root, num_edges),
        num_nodes=NUM_NODES,
        edge_feature_dim=EDGE_FEATURE_DIM,
    )


def _live_setup_clock(splash, workdir, num_edges):
    """Durable ``serve()`` set-ups, each on a fresh root removed afterwards."""
    roots = itertools.count()

    def set_up():
        root = os.path.join(workdir, f"setup-{next(roots)}")
        return root, _live_serve(splash, root, num_edges)

    def tear_down(results):
        for root, client in results:
            client.shutdown()
            shutil.rmtree(root)

    return _SetupClock(set_up, tear_down)


def _resume_all(root, expected_edges, probe_scores, probe_time, tracer, setup):
    """Resume ``RESUME_REPEATS`` times; returns (seconds list, failures).

    Each resumed service must hold every edge and answer the probe queries
    bit for bit as the service did before shutdown.  A set-up block (when
    ``setup`` is given) runs before each resume.
    """
    probe_nodes = np.linspace(0, NUM_NODES - 1, LIVE_PROBES).astype(np.int64)
    seconds, failures = [], []
    for _ in range(RESUME_REPEATS):
        service = None  # a restart starts from an empty process heap
        if setup is not None:
            setup.blocks(1)
        _settle()
        start = time.perf_counter()
        if tracer is not None:
            with tracer.installed():
                service = PredictionService.resume(
                    root, config=ServingConfig(micro_batch_size=MICRO_BATCH)
                )
        else:
            service = PredictionService.resume(
                root, config=ServingConfig(micro_batch_size=MICRO_BATCH)
            )
        seconds.append(time.perf_counter() - start)
        try:
            if service.store.edges_ingested != expected_edges:
                failures.append(
                    f"resumed {service.store.edges_ingested} of {expected_edges} edges"
                )
            again = service.predict(probe_nodes, np.full(LIVE_PROBES, probe_time))
            if not np.array_equal(again, probe_scores):
                failures.append("resumed predictions differ from pre-shutdown ones")
        finally:
            service.persistence.close()
            service.store.close()
    return seconds, failures


def _live_unit(ctdg, q_nodes, q_times, splash, root, tracer=None, setup=None):
    """Run the open loop on a durable service, shut down, resume."""
    client = _live_serve(splash, root, len(ctdg.src))
    _settle()
    if tracer is not None:
        with tracer.installed():
            run = _open_loop(client, ctdg, q_nodes, q_times, tracer)
            client.shutdown()
    else:
        run = _open_loop(client, ctdg, q_nodes, q_times)
        client.shutdown()
    client = None
    resume_s, failures = _resume_all(
        root, len(ctdg.src), run.probe_scores, ctdg.times[-1], tracer, setup
    )
    return run, resume_s, failures


def run_live(seed, seconds, trace, workdir):
    num_edges = int(LIVE_RATE * seconds)
    ctdg, q_nodes, q_times = uniform_traffic(
        num_edges, num_edges // LIVE_EDGES_PER_QUERY, seed + LIVE_SEED_OFFSET
    )
    splash = servable_splash(ctdg)

    setup = _live_setup_clock(splash, workdir, num_edges)
    setup.blocks()
    run, resume_s, failures = _live_unit(
        ctdg,
        q_nodes,
        q_times,
        splash,
        os.path.join(workdir, "untraced"),
        setup=setup,
    )
    notes = list(failures)
    if run.unanswered:
        notes.append(f"{run.unanswered} queries never answered")
    failed = run.unanswered + len(failures)
    attempted = len(q_nodes) + RESUME_REPEATS

    # Percentiles per quarter of the run (each holds one or two snapshots),
    # then the median quarter.
    quarter = np.minimum(
        (run.query_due / run.query_due[-1] * LIVE_WINDOWS).astype(np.int64),
        LIVE_WINDOWS - 1,
    )
    p50, p99 = _ms_percentiles(
        (run.query_latency[quarter == w], np.ones(int((quarter == w).sum()), int))
        for w in range(LIVE_WINDOWS)
    )
    metrics = {
        "setup_s": setup.median(),
        "peak_rss_mb": _peak_rss_mb(),
        "job_s": float(np.median(resume_s)),
        "query_p50_ms": p50,
        "query_p99_ms": p99,
    }
    layers = {}
    if trace:
        tracer = Tracer()
        traced_run, traced_resume, traced_failures = _live_unit(
            ctdg, q_nodes, q_times, splash, os.path.join(workdir, "traced"), tracer
        )
        failed += traced_run.unanswered + len(traced_failures)
        attempted += len(q_nodes) + RESUME_REPEATS
        notes.extend(traced_failures)
        # The same work traced and untraced: each window of the open loop
        # (same arrivals) and each resume of the same root.
        ratios = np.concatenate(
            [
                traced_run.window_busy_s / run.window_busy_s,
                np.divide(traced_resume, resume_s),
            ]
        )
        layers = traced_layers(
            tracer,
            1,
            **{
                "live.wait_p99_ms": float(np.percentile(run.query_wait, 99)) * 1000,
                "live.service_p99_ms": float(
                    np.percentile(run.query_latency - run.query_wait, 99)
                )
                * 1000,
                "live.ingest_p99_ms": float(np.percentile(run.ingest_latency, 99))
                * 1000,
                "live.backlog_max": float(run.backlog_max),
                "live.final_lag_s": run.final_lag_s,
                "trace.overhead_frac": float(np.median(ratios)),
            }
        )
    notes.append(
        f"live: {num_edges} edges, {len(q_nodes)} queries at {LIVE_RATE} edges/s; "
        f"busy {run.busy_s:.2f}s, backlog max {run.backlog_max}, "
        f"final lag {run.final_lag_s:.3f}s, ingest p99 "
        f"{float(np.percentile(run.ingest_latency, 99)) * 1000:.1f}ms; "
        f"resume seconds {_rounded(resume_s)}"
    )
    return Outcome(metrics, layers, attempted, failed, notes)


WORKLOADS = {"fit": run_fit, "stream": run_stream, "live": run_live}


def clean(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
