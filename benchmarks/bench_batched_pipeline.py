"""Extra experiment E10: the engine's run-batched hot loop on one shard.

One thread-churn monitoring configuration - mechanisms growing their
clocks *and* a timestamping stage actually minting a stamp per event per
mechanism - runs through the engine's one event loop, where runs of
consecutive inserts flow through ``observe_batch`` / ``advance_batch``
with the slot-delta kernel loop.  The published number is its event
rate on this merge-heavy stream (random thread/object pairing defeats
the slot-delta fast paths, so an O(k) element-wise max per event
remains).  End-to-end throughput is gated by ``perfbench/``, not here.

Assertions, in CI via ``--smoke``:

* every mechanism label carries a stamp digest, so the timestamping
  stage really ran;
* a telemetry-instrumented rerun produces the identical fingerprint.

A second test runs a small engine configuration (offline optimum
included) at ``--workers {1, N}`` and asserts one fingerprint for both.
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
def test_batched_pipeline_throughput(benchmark, record_table, record_json):
    config = EngineConfig(**BASE)

    def run_once():
        start = time.perf_counter()
        result = _single_shard_result(config)
        return time.perf_counter() - start, result

    elapsed, reference = benchmark.pedantic(run_once, rounds=1, iterations=1)

    assert reference.inserts == PIPELINE_EVENTS
    for label in MECHANISMS:
        for (_, lbl), fragment in reference.partial.series.items():
            if lbl == label:
                assert fragment.stamp_digest, "timestamping stage did not run"

    total_events = reference.inserts + reference.expires
    rate = total_events / elapsed
    record_table(
        "batched_pipeline",
        "\n".join(
            [
                f"scenario: thread-churn  inserts: {PIPELINE_EVENTS:,}  "
                f"nodes: {PIPELINE_NODES}+{PIPELINE_NODES}  "
                f"mechanisms: {','.join(MECHANISMS)}  timestamps: on",
                f"fingerprint: {reference.fingerprint()[:16]}...",
                "",
                f"{'seconds':>8}  {'events/s':>10}",
                f"{elapsed:>8.2f}  {rate:>10,.0f}",
            ]
        ),
    )

    # Untimed second pass with the telemetry registry installed.  The
    # timed leg above stays telemetry-free (the published rate is the
    # product); this pass proves at benchmark scale that instrumentation
    # does not move the fingerprint, and harvests the engine counters
    # (batch-size distribution, spans) into the schema-v3 envelope's
    # ``metrics`` block.
    registry = MetricsRegistry(origin="bench")
    previous = install(registry)
    try:
        instrumented = _single_shard_result(config)
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
            "events_per_second": rate,
            "fingerprint": reference.fingerprint(),
        },
        metrics=metrics_document(registry),
    )


@pytest.mark.benchmark(group="batched-pipeline")
def test_pipeline_fingerprint_matrix(record_json):
    """--workers {1, N}: one fingerprint."""
    matrix = {}
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
            workers=workers,
        )
        matrix[workers] = run_engine(config).fingerprint()
    assert len(set(matrix.values())) == 1, matrix
    record_json(
        "pipeline_fingerprint_matrix",
        {
            "events": PIPELINE_MATRIX_EVENTS,
            "combinations": [
                {"workers": w, "fingerprint": fp}
                for w, fp in sorted(matrix.items())
            ],
            "identical": True,
        },
    )
