"""Correctness checks of an engine result, computed outside the engine.

The oracle regenerates the stream from the registry with the engine's
own seed path, routes it with a fresh ``StreamSharder.shard_of``, and
replays the lifecycle per shard - scenario expires and the imposed
sliding window - to rebuild each shard's live graph.  The engine's final
offline size must equal the static König optimum (Hopcroft-Karp, not the
engine's ``DynamicMatching``) of the live graph right after the shard's
last insert, and no mechanism's final clock may be smaller than the
optimum of the shard's final live graph.

The offline series, like the reference simulator's
(``compare_mechanisms_on_stream``, whose offline ``final_size`` is the
last per-insert sample), is sampled at inserts: expires that follow a
shard's last insert shrink the live graph but not the reported offline
size.  Mechanisms do apply those expires, so their lower bound is the
optimum after them.  The report records each shard's trailing expires
and both optima.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, NamedTuple, Tuple

from repro.computation.registry import REGISTRY, STREAM
from repro.engine import OFFLINE_LABEL, EngineConfig, EngineResult, StreamSharder
from repro.graph.bipartite import BipartiteGraph
from repro.offline.algorithm import optimal_clock_size
from repro.seeds import derive_seed


class Expected(NamedTuple):
    inserts: int
    expires: int
    epochs: int
    shard_inserts: Dict[int, int]
    #: Optimum of each shard's live graph right after its last insert.
    optimum_at_last_insert: Dict[int, int]
    #: Optimum of each shard's final live graph (after trailing expires).
    optimum: Dict[int, int]
    #: Expires each shard received after its last insert.
    trailing_expires: Dict[int, int]


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def expected_result(config: EngineConfig) -> Expected:
    """What a correct run of ``config`` must report, from first principles."""
    scenario = REGISTRY.get(config.scenario, kind=STREAM)
    stream = scenario.build(
        config.num_threads,
        config.num_objects,
        config.density,
        config.num_events,
        seed=derive_seed(config.seed, config.scenario, "stream"),
    )
    sharder = StreamSharder(config.num_shards, config.strategy)
    shards = range(config.num_shards)
    live: Dict[int, Counter] = {shard: Counter() for shard in shards}
    windows = (
        {shard: deque() for shard in shards}
        if config.window is not None and not scenario.expires
        else None
    )
    shard_inserts = {shard: 0 for shard in shards}
    trailing: Dict[int, Counter] = {shard: Counter() for shard in shards}
    expires = 0
    markers = 0
    for event in stream:
        if event.is_epoch:
            markers += 1
            continue
        shard = sharder.shard_of(event.thread)
        edges = live[shard]
        if event.is_expire:
            edges[event.pair] -= 1
            trailing[shard][event.pair] += 1
            expires += 1
            continue
        trailing[shard].clear()
        if windows is not None:
            window = windows[shard]
            if len(window) == config.window:
                edges[window.popleft()] -= 1
                expires += 1
            window.append(event.pair)
        edges[event.pair] += 1
        shard_inserts[shard] += 1
    epochs = markers * config.num_shards
    if config.epoch_every is not None:
        epochs += sum(count // config.epoch_every for count in shard_inserts.values())
    optimum = {shard: _optimum(live[shard]) for shard in shards}
    optimum_at_last_insert = {
        shard: _optimum(live[shard] + trailing[shard]) if trailing[shard]
        else optimum[shard]
        for shard in shards
    }
    return Expected(
        inserts=sum(shard_inserts.values()),
        expires=expires,
        epochs=epochs,
        shard_inserts=shard_inserts,
        optimum_at_last_insert=optimum_at_last_insert,
        optimum=optimum,
        trailing_expires={
            shard: sum(trailing[shard].values()) for shard in shards
        },
    )


def _optimum(edges: Counter) -> int:
    """Static König optimum of the live edges (multiplicity > 0)."""
    return optimal_clock_size(
        BipartiteGraph(edges=(pair for pair, count in edges.items() if count > 0))
    )


def check_result(
    config: EngineConfig, result: EngineResult, expected: Expected
) -> List[Check]:
    """Every oracle check of one run; a failed check has ``ok=False``."""
    checks = [
        Check(
            "inserts == requested",
            result.inserts == config.num_events == expected.inserts,
            f"engine {result.inserts}, requested {config.num_events}, "
            f"oracle {expected.inserts}",
        ),
        Check(
            "expires == oracle",
            result.expires == expected.expires,
            f"engine {result.expires}, oracle {expected.expires}",
        ),
        Check(
            "epochs == oracle",
            result.epochs == expected.epochs,
            f"engine {result.epochs}, oracle {expected.epochs}",
        ),
        Check(
            "shard loads == oracle routing",
            result.shard_loads() == expected.shard_inserts,
            f"engine {result.shard_loads()}, oracle {expected.shard_inserts}",
        ),
    ]
    if config.include_offline:
        offline = result.final_sizes(OFFLINE_LABEL)
        for shard, optimum in sorted(expected.optimum_at_last_insert.items()):
            checks.append(Check(
                f"shard {shard} offline == König optimum at last insert",
                offline.get(shard) == optimum,
                f"engine {offline.get(shard)}, optimum {optimum} "
                f"({expected.trailing_expires[shard]} trailing expires, "
                f"final-graph optimum {expected.optimum[shard]})",
            ))
    for label in config.mechanisms:
        finals = result.final_sizes(label)
        for shard, optimum in sorted(expected.optimum.items()):
            size = finals.get(shard)
            checks.append(Check(
                f"shard {shard} {label} >= König optimum",
                size is not None and size >= optimum,
                f"{label} {size}, optimum {optimum}",
            ))
    return checks


def fingerprint_check(name: str, fingerprints: List[str]) -> Check:
    """All ``fingerprints`` identical (one run's repetitions, or traced vs not)."""
    distinct: Tuple[str, ...] = tuple(sorted(set(fingerprints)))
    return Check(
        name,
        len(distinct) == 1,
        f"{len(fingerprints)} runs, distinct fingerprints {[d[:16] for d in distinct]}",
    )
