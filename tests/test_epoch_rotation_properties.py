"""Property tests for the incremental epoch-rotation paths.

Three families of randomized evidence back the delta-rotation and
cover-repair fast paths:

* **delta == replay** - on arbitrary churn streams the ``"delta"``
  rotation strategy issues the same tokens and answers every causality
  query identically to the ``"replay"`` strategy (and to the
  ``check_invariant=True`` oracle, which replays *and* proves the
  re-timestamping invariant before committing).  Stamp values are
  allowed to differ only in representation (lazy projection chains vs
  eagerly replayed tuples) - their *verdicts* may not.
* **interrupt/resume** - pickling a delta-rotating driver mid-stream
  (while live stamps still hold unmaterialised projection chains) and
  resuming from the pickle changes nothing: the resumed run issues the
  same tokens and verdicts as the uninterrupted replay baseline.
* **repaired covers == from-scratch covers** - under random interleaved
  add/remove churn (duplicate edges and multiplicity deletion included),
  the persistent :class:`DynamicMatching`'s incrementally repaired
  König cover is *set-equal* to the from-scratch König construction on
  the same graph and matching, and stays a minimum cover.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.graph.bipartite import BipartiteGraph
from repro.graph.incremental import DynamicMatching
from repro.graph.matching import maximum_matching
from repro.graph.vertex_cover import konig_vertex_cover, validate_vertex_cover
from repro.online.adaptive import LifecycleClockDriver, WindowedPopularityMechanism

SETTINGS = settings(max_examples=25, deadline=None)

#: Small ID spaces with a short window: expiries quickly kill endpoints,
#: so retirement-triggered (pure-subset, delta-eligible) rotations fire
#: on nearly every generated stream.
THREADS = ["T0", "T1", "T2", "T3", "T4", "T5"]
OBJECTS = ["O0", "O1", "O2", "O3", "O4", "O5"]

churn_streams = st.lists(
    st.tuples(st.sampled_from(THREADS), st.sampled_from(OBJECTS)),
    min_size=4,
    max_size=60,
)

windows = st.integers(min_value=2, max_value=8)


def drive(pairs, window, rotation, pickle_at=None):
    """Run one lifecycle driver over a sliding-window churn stream.

    Returns ``(event tokens, verdict trace)`` where the verdict trace
    snapshots, after every event, the relation of each live-token pair -
    the full causality surface a monitor could query at that point.
    ``pickle_at`` round-trips the driver through ``pickle`` after that
    many events, which is exactly what an engine checkpoint does to a
    kernel holding unmaterialised projection chains.
    """
    driver = LifecycleClockDriver(
        WindowedPopularityMechanism(), rotation=rotation
    )
    live = []
    tokens = []
    verdicts = []
    for step, pair in enumerate(pairs):
        if pickle_at is not None and step == pickle_at:
            driver = pickle.loads(pickle.dumps(driver))
        tokens.append(driver.observe(*pair))
        live.append(pair)
        if len(live) > window:
            driver.expire(*live.pop(0))
        alive = driver.live_tokens()
        verdicts.append(
            tuple(
                driver.relation(a, b)
                for i, a in enumerate(alive)
                for b in alive[i + 1 :]
            )
        )
    return tokens, verdicts


@SETTINGS
@given(churn_streams, windows)
def test_delta_rotation_matches_replay_and_oracle(pairs, window):
    delta = drive(pairs, window, "delta")
    replay = drive(pairs, window, "replay")
    assert delta == replay
    # The invariant-checking oracle replays and verifies every rotation.
    oracle = LifecycleClockDriver(
        WindowedPopularityMechanism(), check_invariant=True
    )
    live = []
    for step, pair in enumerate(pairs):
        assert oracle.observe(*pair) == delta[0][step]
        live.append(pair)
        if len(live) > window:
            oracle.expire(*live.pop(0))


@SETTINGS
@given(churn_streams, windows, st.data())
def test_delta_rotation_survives_interrupt_resume(pairs, window, data):
    """Pickling mid-stream (chains unmaterialised) changes no verdict."""
    pickle_at = data.draw(
        st.integers(min_value=1, max_value=len(pairs)), label="pickle_at"
    )
    reference = drive(pairs, window, "replay")
    assert drive(pairs, window, "delta", pickle_at=pickle_at) == reference


matching_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sampled_from(THREADS),
        st.sampled_from(OBJECTS),
    ),
    min_size=1,
    max_size=80,
)


@SETTINGS
@given(matching_ops)
def test_repaired_cover_equals_from_scratch_cover(ops):
    """Incremental König repair == from-scratch construction, every step.

    The from-scratch oracle runs Algorithm 1's reachability sweep on the
    *same* graph and matching the persistent structure maintains, so the
    comparison is exact set equality, not just size equality; a second
    oracle (a fresh Hopcroft-Karp matching) pins minimality.
    """
    live = DynamicMatching(record_trajectory=False)
    for op, thread, obj in ops:
        if op == "add":
            live.add_edge(thread, obj)
        elif live.multiplicity(thread, obj):
            live.remove_edge(thread, obj)
        else:
            continue
        cover = live.vertex_cover()
        graph = live.graph
        assert cover == konig_vertex_cover(graph, live.matching())
        validate_vertex_cover(graph, cover)
        assert len(cover) == len(maximum_matching(graph))


def test_cover_repair_is_incremental_after_churn():
    """The steady-state cover path repairs instead of rebuilding.

    Deterministic companion to the property test: after warm-up, edge
    churn that stays away from the matching structure must be answered
    by the incremental reachability repair (cheap) rather than the full
    from-scratch sweep - the behaviour the rotation benchmark's >=5x
    boundary-pause assertion leans on.
    """
    from repro.obs.registry import MetricsRegistry, install as obs_install

    live = DynamicMatching(record_trajectory=False)
    for index in range(6):
        live.add_edge(f"T{index}", f"O{index}")
    live.vertex_cover()
    registry = MetricsRegistry(origin="test-cover-repair")
    previous = obs_install(registry)
    try:
        for index in range(6):
            live.add_edge(f"T{index}", f"O{(index + 1) % 6}")
            live.vertex_cover()
    finally:
        obs_install(previous)
    counters = dict(registry.counters())
    assert counters.get("matching.cover.repairs", 0) > 0
    assert counters.get("matching.cover.rebuilds", 0) == 0
