"""Extra experiment E9: sharded engine throughput vs worker-pool size.

The ROADMAP's scaling item asks for a benchmark that pushes the dynamic
streaming machinery to millions of events; this is it.  One thread-churn
configuration (1.2M inserts in the full run, shrunken under ``--smoke``)
is executed serially one shard at a time (:func:`run_shard` per shard
plus :func:`merge_partials`, which regenerates the stream once per
*shard*) and then at increasing ``workers`` pool sizes (one shard group
and one stream pass per *worker*); the table reports events/sec per leg
plus the speedup over serial.

Two properties are asserted while the numbers are collected:

* every leg - serial and every ``workers`` value - produces a
  bit-identical merged result (the engine's central determinism
  contract; the fingerprint is the proof);
* above :data:`SPEEDUP_ASSERT_FLOOR` inserts per shard, the best
  ``workers`` leg must clear :data:`MIN_WORKER_SPEEDUP` (2x serial) -
  and :data:`MIN_WORKER_SPEEDUP_MULTICORE` (3x) when the machine has
  four or more cores.  This is the real scaling assertion that replaced
  the old ``spawn_dominated`` skip: the spawn-per-task backend could
  only ever *lose* to serial on small runs, so the best this benchmark
  could do was refuse to assert; the pooled engine is expected to win.

Where the speedup comes from
----------------------------
Serial pays the fixed per-pass cost (stream generation + routing) once
per shard - eight passes for the standard eight-shard run.  A ``workers``
leg pays it once per worker: ``workers=1`` runs all eight shards down
ONE pass in-process (no spawn at all), and larger pools trade extra
passes for actual CPU parallelism.  On a single-core machine the whole
win is pass elimination, so ``workers=1`` is typically the best leg; on
multi-core machines the pool legs stack parallel speedup on top, which
is what the 3x multicore bar checks.

Below :data:`SPEEDUP_ASSERT_FLOOR` inserts per shard (the smoke run),
fixed costs dominate whatever mode runs, so the leg records
``spawn_dominated: true`` in its JSON (the perf-trajectory collector
drops such runs from speedup plots) and only the fingerprint assertion
runs - which is all a smoke pass is for.

The ``metrics`` block of ``BENCH_engine_scaling.json`` comes from one
extra instrumented pass at the best pool size: per-worker stream
generation time (``engine.stream_gen_s``), task queue wait
(``pool.task_wait_s``), spawn latency (``pool.worker_spawn_s``) and the
final task distribution (``pool.tasks_per_worker``), so the spawn
amortisation that motivated the pool is visible in the artifact, not
just in this docstring.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.engine import (
    EngineConfig,
    EngineResult,
    merge_partials,
    run_engine,
    run_shard,
)
from repro.obs.exporters import metrics_document
from repro.obs.registry import MetricsRegistry, install as obs_install

from _common import (
    ENGINE_CHUNK,
    ENGINE_EVENTS,
    ENGINE_NODES,
    ENGINE_SHARDS,
    ENGINE_WORKERS,
)

#: Minimum inserts per shard for speedup numbers to mean anything: below
#: this, worker spawn + the per-pass fixed cost exceed the clock work
#: itself, so the ratio measures overhead, not scaling.  The floor is
#: deliberately far above the smoke scale (2k/4 shards = 500) and far
#: below the full scale (1.2M/8 = 150k).
SPEEDUP_ASSERT_FLOOR = 10_000

#: The scaling bar asserted on the best ``workers`` leg of a
#: full-scale run: one stream pass per worker must beat the
#: one-pass-per-shard serial baseline by at least this much.
MIN_WORKER_SPEEDUP = 2.0

#: The stricter bar when real parallelism is available (>= 4 cores):
#: pass elimination plus concurrent shard groups.
MIN_WORKER_SPEEDUP_MULTICORE = 3.0

CONFIG = EngineConfig(
    scenario="thread-churn",
    num_threads=ENGINE_NODES,
    num_objects=2 * ENGINE_NODES,
    density=0.1,
    num_events=ENGINE_EVENTS,
    seed=9_200,
    num_shards=ENGINE_SHARDS,
    chunk_size=ENGINE_CHUNK,
)


def _per_shard_serial(config):
    """The serial baseline: one :func:`run_shard` pass per shard, merged."""
    partials = [run_shard(config, shard) for shard in range(config.num_shards)]
    return EngineResult(
        scenario=config.scenario,
        num_shards=config.num_shards,
        strategy=config.strategy,
        seed=config.seed,
        window=config.window,
        chunk_size=config.chunk_size,
        mechanisms=config.mechanisms,
        partial=merge_partials(partials),
    )


def _timed_leg(label, run):
    start = time.perf_counter()
    result = run()
    return label, time.perf_counter() - start, result


def _instrumented_metrics(workers: int) -> dict:
    """One extra pass with telemetry installed; its metrics document.

    Separate from the timed legs on purpose: the published rates stay
    telemetry-free, and the instrumented pass exists only to capture the
    pool/stream observations (spawn latency, queue wait, per-worker
    stream-generation time) into the JSON artifact.
    """
    registry = MetricsRegistry(origin="bench-engine-scaling")
    previous = obs_install(registry)
    try:
        run_engine(replace(CONFIG, workers=workers))
    finally:
        obs_install(previous)
    return metrics_document(registry)


@pytest.mark.benchmark(group="engine-scaling")
def test_engine_scaling_events_per_second(benchmark, record_table, record_json):
    def run_all():
        runs = [_timed_leg("serial", lambda: _per_shard_serial(CONFIG))]
        for workers in ENGINE_WORKERS:
            config = replace(CONFIG, workers=workers)
            runs.append(
                _timed_leg(f"workers={workers}", lambda: run_engine(config))
            )
        return runs

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    fingerprints = {result.fingerprint() for _, _, result in runs}
    assert len(fingerprints) == 1, "scheduling mode changed the merged metrics"

    reference = runs[0][2]
    assert reference.inserts == ENGINE_EVENTS
    for label in CONFIG.mechanisms:
        pooled = reference.pooled_ratios(label)
        assert pooled.count == sum(
            fragment.ratios.count
            for (_, lbl), fragment in reference.partial.series.items()
            if lbl == label
        )
        assert pooled.minimum >= 1.0 - 1e-9  # online never beats the optimum
        for shard in reference.partial.shard_ids():
            assert reference.partial.fragment(shard, label).samples

    serial_elapsed = runs[0][1]
    per_shard_inserts = ENGINE_EVENTS // ENGINE_SHARDS
    spawn_dominated = per_shard_inserts < SPEEDUP_ASSERT_FLOOR
    cpu_count = os.cpu_count() or 1
    lines = [
        f"scenario: thread-churn  inserts: {ENGINE_EVENTS:,}  "
        f"shards: {ENGINE_SHARDS}  chunk: {ENGINE_CHUNK:,}  "
        f"nodes: {ENGINE_NODES}+{2 * ENGINE_NODES}  cpus: {cpu_count}"
        + ("  [spawn-dominated: speedups are overhead]" if spawn_dominated else ""),
        f"fingerprint (identical for every leg): "
        f"{reference.fingerprint()[:16]}...",
        "",
        f"{'leg':>10}  {'seconds':>8}  {'events/s':>10}  {'speedup':>7}",
    ]
    total_events = reference.inserts + reference.expires
    for label, elapsed, _ in runs:
        rate = total_events / elapsed if elapsed else float("inf")
        lines.append(
            f"{label:>10}  {elapsed:>8.2f}  {rate:>10,.0f}  "
            f"{serial_elapsed / elapsed if elapsed else float('inf'):>6.2f}x"
        )
    record_table("engine_scaling", "\n".join(lines))
    speedups = {
        label: (serial_elapsed / elapsed if elapsed else None)
        for label, elapsed, _ in runs
    }
    worker_speedups = {
        workers: speedups[f"workers={workers}"] for workers in ENGINE_WORKERS
    }
    best_workers = max(worker_speedups, key=lambda w: worker_speedups[w])
    # Instrument the best *pooled* leg (workers > 1) even when workers=1
    # won the race: the metrics block exists to expose the pool's spawn
    # amortisation, and an in-process pass has no pool to observe.
    pooled = [workers for workers in ENGINE_WORKERS if workers > 1]
    metrics_workers = (
        max(pooled, key=lambda w: worker_speedups[w]) if pooled else best_workers
    )
    metrics = _instrumented_metrics(metrics_workers)
    record_json(
        "engine_scaling",
        {
            "scenario": "thread-churn",
            "inserts": ENGINE_EVENTS,
            "total_events": total_events,
            "shards": ENGINE_SHARDS,
            "per_shard_inserts": per_shard_inserts,
            "spawn_dominated": spawn_dominated,
            "workers_swept": list(ENGINE_WORKERS),
            "best_workers": best_workers,
            "metrics_workers": metrics_workers,
            "events_per_second": {
                label: (total_events / elapsed if elapsed else None)
                for label, elapsed, _ in runs
            },
            "speedup_vs_serial": speedups,
            "fingerprint": reference.fingerprint(),
        },
        metrics=metrics,
    )
    if not spawn_dominated:
        best = worker_speedups[best_workers]
        floor = (
            MIN_WORKER_SPEEDUP_MULTICORE
            if cpu_count >= 4
            else MIN_WORKER_SPEEDUP
        )
        assert best >= floor, (
            f"best workers leg (workers={best_workers}) reached only "
            f"{best:.2f}x serial on a run large enough "
            f"({per_shard_inserts:,} inserts/shard) for speedups to be "
            f"real; the pooled one-pass-per-worker engine must clear "
            f"{floor}x on a {cpu_count}-core machine"
        )
