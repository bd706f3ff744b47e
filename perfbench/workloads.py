"""The benchmark's workloads: three engine runs that stress different layers.

Every workload is shaped like the default ``engine run`` - 200 threads,
200 objects, density 0.1, 8 shards, hash routing - and runs with
``workers=1``: one process, one stream pass over all eight shards, the
single-pass group path.  Only the scenario and the consumer set differ,
which is what moves the load between layers (see ``LAYERS`` in
``perfbench/layers.py`` for which layer each workload exercises or
bypasses).

This module imports nothing from ``repro`` so the parent process can
read the definitions without paying the library's import.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional

#: The shape every workload shares with the default engine run.
SHAPE: Dict[str, Any] = {
    "num_threads": 200,
    "num_objects": 200,
    "density": 0.1,
    "num_shards": 8,
    "strategy": "hash",
    "workers": 1,
}


class Workload(NamedTuple):
    name: str
    why: str
    #: ``EngineConfig`` fields on top of :data:`SHAPE` (seed excluded).
    config: Dict[str, Any]
    #: Whether every timed repetition needs a fresh checkpoint directory.
    checkpoints: bool


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="churn-full",
            why=(
                "thread churn with timestamps, offline optimum and per-chunk "
                "checkpoints: every layer at once, short routed runs"
            ),
            config={
                "scenario": "thread-churn",
                "num_events": 50_000,
                "chunk_size": 2_500,
                "timestamps": True,
            },
            checkpoints=True,
        ),
        Workload(
            name="drift-stamp",
            why=(
                "append-only hot-object drift, timestamps on, optimum off: "
                "generation and kernel stamping in runs of up to 4096 inserts"
            ),
            config={
                "scenario": "hot-object-drift",
                "num_events": 80_000,
                "timestamps": True,
                "include_offline": False,
            },
            checkpoints=False,
        ),
        Workload(
            name="phase-window",
            why=(
                "phase changes under an imposed window with epochs: per-event "
                "loop, an expire per insert, window-aware mechanisms"
            ),
            config={
                "scenario": "phase-change",
                "num_events": 50_000,
                "window": 2_000,
                "epoch_every": 2_500,
                "mechanisms": ("popularity", "adaptive-popularity", "epoch-hybrid"),
            },
            checkpoints=False,
        ),
    )
}


def engine_kwargs(
    workload: Workload,
    seed: int,
    num_events: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``EngineConfig`` keyword arguments of one run of ``workload``."""
    kwargs = dict(SHAPE)
    kwargs.update(workload.config)
    kwargs["seed"] = seed
    if num_events is not None:
        kwargs["num_events"] = num_events
    kwargs["checkpoint_dir"] = checkpoint_dir
    return kwargs
