"""Extra experiment E10: chunked hot-path pipeline vs per-event dispatch.

The ROADMAP's two hot-loop items ("push the fast kernel further",
"scale the hot loop further") meet here: one thread-churn monitoring
configuration - mechanisms growing their clocks *and* a timestamping
stage actually minting a stamp per event per mechanism - is executed
two ways over the same stream:

* ``per-event`` - the classic loop: one Python call per event per layer;
* ``batched`` - runs of consecutive inserts flow through
  ``observe_batch`` / ``advance_batch`` with the slot-delta kernel loop.

Assertions, in CI via ``--smoke``:

* both variants produce the *identical* fingerprint - including the
  per-label stamp digests, so the two pipelines provably mint the same
  timestamps;
* the chunked pipeline is never slower than per-event dispatch.  On this
  merge-heavy stream (random thread/object pairing defeats the
  slot-delta fast paths, so an O(k) element-wise max per event remains)
  that is the whole claim: the chunked loop removes dispatch overhead,
  not the merge itself.

A second test crosses ``{per-event, batched} x --workers {1, N}`` on a
small engine run (offline optimum included) and asserts one fingerprint
for all combinations.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import EngineConfig, run_engine
from repro.engine.results import EngineResult
from repro.engine.runner import run_shard
from repro.obs import MetricsRegistry, install
from repro.obs.exporters import metrics_document

from _common import (
    PIPELINE_CHUNK,
    PIPELINE_EVENTS,
    PIPELINE_MATRIX_EVENTS,
    PIPELINE_MATRIX_WORKERS,
    PIPELINE_NODES,
)

#: The mechanism labels of the head-to-head: the paper's deterministic
#: baseline, its popularity policy and the hybrid recipe - three clocks
#: to grow and three timestamping streams to mint per event.
MECHANISMS = ("naive", "popularity", "hybrid")

BASE = dict(
    scenario="thread-churn",
    num_threads=PIPELINE_NODES,
    num_objects=PIPELINE_NODES,
    density=0.1,
    num_events=PIPELINE_EVENTS,
    seed=10_500,
    num_shards=1,
    chunk_size=PIPELINE_CHUNK,
    mechanisms=MECHANISMS,
    include_offline=False,
    timestamps=True,
)

PIPELINES = ("per-event", "batched")


def _single_shard_result(config: EngineConfig):
    """Run the one-shard config and wrap the partial for fingerprinting."""
    partial = run_shard(config, 0)
    return EngineResult(
        scenario=config.scenario,
        num_shards=config.num_shards,
        strategy=config.strategy,
        seed=config.seed,
        window=config.window,
        chunk_size=config.chunk_size,
        mechanisms=config.mechanisms,
        partial=partial,
    )


@pytest.mark.benchmark(group="batched-pipeline")
def test_batched_pipeline_speedup(benchmark, record_table, record_json):
    def run_all():
        runs = []
        for pipeline in PIPELINES:
            config = EngineConfig(pipeline=pipeline, **BASE)
            start = time.perf_counter()
            result = _single_shard_result(config)
            runs.append((pipeline, time.perf_counter() - start, result))
        return runs

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    fingerprints = {result.fingerprint() for _, _, result in runs}
    assert len(fingerprints) == 1, (
        "the pipeline changed the merged metrics or stamp digests"
    )
    reference = runs[0][2]
    assert reference.inserts == PIPELINE_EVENTS
    for label in MECHANISMS:
        for (_, lbl), fragment in reference.partial.series.items():
            if lbl == label:
                assert fragment.stamp_digest, "timestamping stage did not run"

    total_events = reference.inserts + reference.expires
    rates = {pipeline: total_events / elapsed for pipeline, elapsed, _ in runs}
    per_event_rate = rates["per-event"]
    chunked_rate = rates["batched"]

    # The chunked pipeline must at least match per-event dispatch (0.95
    # allows scheduler noise on shared CI cores; measured ~1.4x with the
    # run-chunked sharder).
    assert chunked_rate >= per_event_rate * 0.95, (
        f"chunked pipeline slower than per-event: "
        f"{chunked_rate:,.0f} vs {per_event_rate:,.0f} events/s"
    )

    lines = [
        f"scenario: thread-churn  inserts: {PIPELINE_EVENTS:,}  "
        f"nodes: {PIPELINE_NODES}+{PIPELINE_NODES}  "
        f"mechanisms: {','.join(MECHANISMS)}  timestamps: on",
        f"fingerprint (identical for every variant): "
        f"{reference.fingerprint()[:16]}...",
        "",
        f"{'pipeline':>10}  {'seconds':>8}  {'events/s':>10}  {'speedup':>7}",
    ]
    for pipeline, elapsed, _ in runs:
        rate = rates[pipeline]
        lines.append(
            f"{pipeline:>10}  {elapsed:>8.2f}  "
            f"{rate:>10,.0f}  {rate / per_event_rate:>6.2f}x"
        )
    record_table("batched_pipeline", "\n".join(lines))

    # Untimed third pass: the chunked variant again, this time with the
    # telemetry registry installed.  The timed legs above stay
    # telemetry-free (the published rates are the product); this pass
    # proves at benchmark scale that instrumentation does not move the
    # fingerprint, and harvests the engine counters (batch-size
    # distribution, spans) into the schema-v3 envelope's ``metrics``
    # block.
    registry = MetricsRegistry(origin="bench")
    previous = install(registry)
    try:
        instrumented = _single_shard_result(
            EngineConfig(pipeline="batched", **BASE)
        )
    finally:
        install(previous)
    assert instrumented.fingerprint() == reference.fingerprint(), (
        "telemetry-instrumented run changed the fingerprint"
    )

    record_json(
        "batched_pipeline",
        {
            "scenario": "thread-churn",
            "inserts": PIPELINE_EVENTS,
            "total_events": total_events,
            "nodes": PIPELINE_NODES,
            "mechanisms": list(MECHANISMS),
            "events_per_second": dict(rates),
            "speedup_vs_per_event": {
                pipeline: rate / per_event_rate for pipeline, rate in rates.items()
            },
            "chunked_speedup": chunked_rate / per_event_rate,
            "fingerprint": reference.fingerprint(),
        },
        metrics=metrics_document(registry),
    )


@pytest.mark.benchmark(group="batched-pipeline")
def test_pipeline_fingerprint_matrix(record_json):
    """{per-event, batched} x --workers: one fingerprint."""
    matrix = {}
    for pipeline in PIPELINES:
        for workers in PIPELINE_MATRIX_WORKERS:
            config = EngineConfig(
                scenario="thread-churn",
                num_threads=40,
                num_objects=40,
                density=0.15,
                num_events=PIPELINE_MATRIX_EVENTS,
                seed=10_501,
                num_shards=4,
                chunk_size=max(1, PIPELINE_MATRIX_EVENTS // 8),
                mechanisms=("naive", "popularity"),
                include_offline=True,
                timestamps=True,
                pipeline=pipeline,
                workers=workers,
            )
            matrix[(pipeline, workers)] = run_engine(config).fingerprint()
    assert len(set(matrix.values())) == 1, matrix
    record_json(
        "pipeline_fingerprint_matrix",
        {
            "events": PIPELINE_MATRIX_EVENTS,
            "combinations": [
                {"pipeline": p, "workers": w, "fingerprint": fp}
                for (p, w), fp in sorted(matrix.items())
            ],
            "identical": True,
        },
    )
