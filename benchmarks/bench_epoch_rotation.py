"""Extra experiment E10: incremental epoch rotation vs the replay baseline.

The driver's boundary cost, measured head-to-head.  Two legs:

* **rotation latency** - one rotation-heavy churn stream (ID space far
  above the sliding window, so nearly every expiry retires its dead
  endpoints and triggers a pure-subset rotation) driven twice: once
  through :class:`LifecycleClockDriver`, whose clock takes the delta
  path on every pure retirement (live stamps projected by dropping
  retired slots), and once through :class:`ReplayBaselineDriver`, the
  replay baseline built here from the public API (at each rotation a
  fresh :class:`EpochClock` over the mechanism's new set re-observes
  the whole live window in stream order).  ``driver.rotation_s``
  p50/p95/p99 and stream events/sec are recorded per arm; the full run
  asserts delta p99 at least :data:`ROTATION_P99_BAR` times lower and
  throughput no worse.
* **cover boundary pause** - the persistent :class:`DynamicMatching`'s
  incrementally repaired König cover vs the pre-PR-10 behaviour (a
  fresh matching rebuilt from every live edge at every epoch boundary),
  on one interleaved add/expire churn stream; the full run asserts the
  repaired boundary *median* at least :data:`COVER_P50_BAR` times
  lower (the tail percentiles are recorded as data - a few hundred
  boundary samples make the p99 a noisy near-max).

The timed legs install a metrics registry on purpose - the rotation
histogram *is* the measurement - but both arms run under identical
instrumentation and time their rotations the same way, so the
head-to-head stays fair, and the cyclic GC is disabled around each
measured stream (standard latency isolation; both arms get the same
treatment).

Full-scale footprint: the delta arm keeps lazy projection/extension
wrappers alive for the whole window (reclaimed on read or expiry), so
the rotation leg peaks around ~2 GB RSS at the full 32k-ID/4k-window
scale; the smoke run is a few hundred kilobytes.  Under ``--smoke``
the perf bars are skipped (the scales are too small for stable tail
percentiles - the precedent bench_engine_scaling set) and the leg
instead asserts the structural facts: every driver rotation took the
delta path, and both arms agree on rotations, retirements, final clock
size and a sampled causality surface.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque

import pytest

from repro.computation.streams import as_stream_event, sliding_window
from repro.core.timestamping import EpochClock
from repro.graph.incremental import DynamicMatching
from repro.graph.vertex_cover import validate_vertex_cover
from repro.obs.exporters import metrics_document
from repro.obs.registry import (
    MetricsRegistry,
    active as obs_active,
    install as obs_install,
)
from repro.online.adaptive import LifecycleClockDriver, WindowedPopularityMechanism

from _common import (
    ROTATION_COVER_BOUNDARY,
    ROTATION_COVER_EVENTS,
    ROTATION_COVER_IDS,
    ROTATION_COVER_WINDOW,
    ROTATION_EVENTS,
    ROTATION_IDS,
    ROTATION_WINDOW,
    SMOKE,
)

#: The acceptance bar on the full-scale run: delta rotation's p99 must be
#: at least this many times below the replay baseline's.  Measured ~12x
#: at the full scale (delta p99 ~22ms vs replay ~261ms; the gap grows
#: with the clock dimension, because replay pays O(window * k) while the
#: delta projection pays O(live) wrapper creation).
ROTATION_P99_BAR = 5.0

#: The bar on the cover leg: the repaired boundary *median* pause vs
#: the fresh from-scratch rebuild's.  Measured ~5x at the full scale
#: (repair p50 ~1.0ms - one alternating-reachability sweep at worst -
#: vs rebuild ~5.1ms re-matching 2k live edges; p99 ratio ~3.5x, but
#: over ~440 boundary samples the p99 is a near-max and too noisy to
#: gate on).  The rotation leg above carries the issue's >=5x p99 bar.
COVER_P50_BAR = 3.0

#: Stream seed (shared by both arms - same events, same order).
STREAM_SEED = 20_190_707

#: Relation samples drawn from the final live window per arm; the
#: sampled verdict surface must match across arms exactly.
VERDICT_SAMPLES = 200


class ReplayBaselineDriver:
    """The whole-window replay baseline, from the public API alone.

    Forwards each tick to the mechanism exactly as
    :class:`LifecycleClockDriver` does (extensions extend the clock in
    place), but answers every rotation by building a fresh
    :class:`EpochClock` over the mechanism's new component set and
    re-observing the live pairs in stream order: ``O(window)``
    update-rule applications per rotation.  The rebuild is timed into
    the same ``driver.rotation_s`` histogram, with the same
    ``driver.rotations`` / ``driver.retirements`` counters, that the
    driver's own rotation funnel feeds.  Expiries must be FIFO (the
    sliding window's contract), so the live pairs are a deque.
    """

    def __init__(self, mechanism):
        self._mechanism = mechanism
        self._clock = EpochClock(mechanism.components())
        self._live = deque()

    @property
    def clock_size(self):
        return self._mechanism.clock_size

    def live_tokens(self):
        return self._clock.live_tokens()

    def relation(self, token_a, token_b):
        return self._clock.relation(token_a, token_b)

    def observe(self, thread, obj):
        added = self._mechanism.observe(thread, obj)
        if added is not None:
            if added in self._mechanism.thread_components:
                self._clock.extend(thread_components=(added,))
            else:
                self._clock.extend(object_components=(added,))
        self._live.append((thread, obj))
        return self._clock.observe(thread, obj)

    def expire(self, thread, obj):
        retired_before = self._mechanism.retired_total
        self._mechanism.expire(thread, obj)
        if self._live.popleft() != (thread, obj):
            raise ValueError("the replay baseline needs FIFO expiries")
        token = self._clock.expire(thread, obj)
        retired_now = self._mechanism.retired_total
        if retired_now != retired_before:
            registry = obs_active()
            registry.add("driver.retirements", retired_now - retired_before)
            began = time.perf_counter()
            clock = EpochClock(self._mechanism.components())
            for pair in self._live:
                clock.observe(*pair)
            self._clock = clock
            registry.add("driver.rotations")
            registry.observe("driver.rotation_s", time.perf_counter() - began)
        return token


def _churn_events(ids, count, tag):
    rng = random.Random(STREAM_SEED + tag)
    return [
        (f"t{rng.randrange(ids)}", f"o{rng.randrange(ids)}")
        for _ in range(count)
    ]


def _percentile(samples, pct):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


#: The two arms of the rotation leg: the driver (delta wherever the
#: rotation is a pure retirement) and the replay baseline.
ROTATION_ARMS = {"delta": LifecycleClockDriver, "replay": ReplayBaselineDriver}


def _run_rotation_leg(arm):
    """One instrumented pass of the churn stream through one arm."""
    events = _churn_events(ROTATION_IDS, ROTATION_EVENTS, tag=0)
    registry = MetricsRegistry(origin=f"bench-epoch-rotation-{arm}")
    previous = obs_install(registry)
    gc.collect()
    gc.disable()
    try:
        driver = ROTATION_ARMS[arm](WindowedPopularityMechanism())
        start = time.perf_counter()
        for item in sliding_window(events, ROTATION_WINDOW):
            event = as_stream_event(item)
            if event.is_insert:
                driver.observe(event.thread, event.obj)
            else:
                driver.expire(event.thread, event.obj)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
        obs_install(previous)
    # The verdict surface is sampled *after* the timed region (reading a
    # relation materialises the delta arm's lazy projection chains).
    # Positions, not tokens: the baseline's rebuilt clocks re-number
    # their tokens, but both arms list the live window in stream order.
    alive = driver.live_tokens()
    rng = random.Random(STREAM_SEED)
    positions = [
        sorted(rng.sample(range(len(alive)), 2)) for _ in range(VERDICT_SAMPLES)
    ]
    verdicts = tuple(driver.relation(alive[i], alive[j]) for i, j in positions)
    histogram = dict(registry.histograms())["driver.rotation_s"]
    counters = dict(registry.counters())
    total_events = 2 * ROTATION_EVENTS - ROTATION_WINDOW
    return {
        "arm": arm,
        "elapsed_s": elapsed,
        "events_per_second": total_events / elapsed,
        "rotations": counters.get("driver.rotations", 0),
        "retirements": counters.get("driver.retirements", 0),
        "delta_rotations": counters.get("clock.rotation.delta", 0),
        "replay_rotations": counters.get("clock.rotation.replay", 0),
        "rotation_p50_s": histogram.percentile(50),
        "rotation_p95_s": histogram.percentile(95),
        "rotation_p99_s": histogram.percentile(99),
        "clock_size": driver.clock_size,
        "verdicts": verdicts,
        "registry": registry,
    }


@pytest.mark.benchmark(group="epoch-rotation")
def test_rotation_latency_delta_vs_replay(benchmark, record_table, record_json):
    legs = benchmark.pedantic(
        lambda: [_run_rotation_leg("replay"), _run_rotation_leg("delta")],
        rounds=1,
        iterations=1,
    )
    replay, delta = legs

    # Determinism across arms: same rotations, same retirements, same
    # final clock, same sampled causality verdicts.
    for key in ("rotations", "retirements", "clock_size", "verdicts"):
        assert delta[key] == replay[key], key
    # Every driver rotation was a pure retirement and took the delta
    # path; the baseline rebuilds clocks and never calls rotate.
    assert delta["delta_rotations"] == delta["rotations"] > 0
    assert delta["replay_rotations"] == 0
    assert replay["delta_rotations"] == replay["replay_rotations"] == 0

    lines = [
        f"churn stream: ids={ROTATION_IDS:,}  window={ROTATION_WINDOW:,}  "
        f"inserts={ROTATION_EVENTS:,}  rotations={delta['rotations']}  "
        f"final clock k={delta['clock_size']}",
        f"{'arm':>8}  {'p50':>9}  {'p95':>9}  {'p99':>9}  "
        f"{'events/s':>9}",
    ]
    for leg in (replay, delta):
        lines.append(
            f"{leg['arm']:>8}  "
            f"{leg['rotation_p50_s'] * 1e3:>7.1f}ms  "
            f"{leg['rotation_p95_s'] * 1e3:>7.1f}ms  "
            f"{leg['rotation_p99_s'] * 1e3:>7.1f}ms  "
            f"{leg['events_per_second']:>9,.0f}"
        )
    p99_ratio = replay["rotation_p99_s"] / delta["rotation_p99_s"]
    lines.append(f"p99 ratio (replay / delta): {p99_ratio:.1f}x")
    record_table("epoch_rotation", "\n".join(lines))
    record_json(
        "epoch_rotation",
        {
            "ids": ROTATION_IDS,
            "window": ROTATION_WINDOW,
            "inserts": ROTATION_EVENTS,
            "rotations": delta["rotations"],
            "clock_size": delta["clock_size"],
            "p99_ratio": p99_ratio,
            "arms": {
                leg["arm"]: {
                    key: leg[key]
                    for key in (
                        "elapsed_s",
                        "events_per_second",
                        "rotation_p50_s",
                        "rotation_p95_s",
                        "rotation_p99_s",
                        "delta_rotations",
                        "replay_rotations",
                    )
                }
                for leg in legs
            },
        },
        metrics=metrics_document(delta["registry"]),
    )
    if not SMOKE:
        assert p99_ratio >= ROTATION_P99_BAR, (
            f"delta rotation p99 ({delta['rotation_p99_s'] * 1e3:.1f}ms) is "
            f"only {p99_ratio:.1f}x below the replay baseline "
            f"({replay['rotation_p99_s'] * 1e3:.1f}ms); the incremental "
            f"path must clear {ROTATION_P99_BAR}x"
        )
        assert delta["events_per_second"] >= replay["events_per_second"], (
            "the delta path must not cost stream throughput"
        )


def _run_cover_leg(mode):
    """One pass of the edge-churn stream; boundary cover pauses in seconds.

    ``"repair"`` queries the persistent matching (the landed behaviour:
    per-event add/remove upkeep, incremental König reachability repair at
    the boundary); ``"scratch"`` re-creates the pre-PR-10 boundary (a
    fresh :class:`DynamicMatching` rebuilt from every live edge, then the
    cover).  Cover sizes must agree - both are minimum covers of the same
    live graph - and every cover is validated outside the timed region.
    """
    rng = random.Random(STREAM_SEED)
    live = []
    persistent = DynamicMatching(record_trajectory=False)
    registry = MetricsRegistry(origin=f"bench-cover-{mode}")
    previous = obs_install(registry)
    samples = []
    sizes = []
    checked = []
    gc.collect()
    gc.disable()
    try:
        for step in range(ROTATION_COVER_EVENTS):
            pair = (
                f"t{rng.randrange(ROTATION_COVER_IDS)}",
                f"o{rng.randrange(ROTATION_COVER_IDS)}",
            )
            live.append(pair)
            persistent.add_edge(*pair)
            if len(live) > ROTATION_COVER_WINDOW:
                persistent.remove_edge(*live.pop(0))
            if (
                step >= ROTATION_COVER_WINDOW
                and step % ROTATION_COVER_BOUNDARY == 0
            ):
                start = time.perf_counter()
                if mode == "repair":
                    cover = persistent.vertex_cover()
                else:
                    fresh = DynamicMatching(record_trajectory=False)
                    fresh.add_edges(live)
                    cover = fresh.vertex_cover()
                samples.append(time.perf_counter() - start)
                sizes.append(len(cover))
                # Validated between boundaries (outside the timed pause;
                # the live graph mutates, so it cannot wait for the end).
                validate_vertex_cover(persistent.graph, cover)
    finally:
        gc.enable()
        obs_install(previous)
    counters = dict(registry.counters())
    return {
        "mode": mode,
        "boundaries": len(samples),
        "cover_sizes": sizes,
        "pause_p50_s": _percentile(samples, 50),
        "pause_p95_s": _percentile(samples, 95),
        "pause_p99_s": _percentile(samples, 99),
        "repairs": counters.get("matching.cover.repairs", 0),
        "rebuilds": counters.get("matching.cover.rebuilds", 0),
    }


@pytest.mark.benchmark(group="epoch-rotation")
def test_cover_repair_vs_from_scratch(benchmark, record_table, record_json):
    legs = benchmark.pedantic(
        lambda: [_run_cover_leg("scratch"), _run_cover_leg("repair")],
        rounds=1,
        iterations=1,
    )
    scratch, repair = legs
    assert repair["boundaries"] == scratch["boundaries"] > 0
    # Both are minimum covers of the same live graph at every boundary.
    assert repair["cover_sizes"] == scratch["cover_sizes"]
    # Every boundary query went through the incremental structure (one
    # counter tick per uncached cover query).  The repairs/rebuilds split
    # is recorded as data, not asserted: at this churn intensity nearly
    # every inter-boundary gap moves a matched edge, which (by the
    # documented invariant) dirties the reachability sets, so the
    # boundary query is one alternating-reachability sweep - still far
    # cheaper than the from-scratch re-matching, which is the point.
    # The exact-repair path itself is pinned deterministically by
    # tests/test_epoch_rotation_properties.py.
    assert repair["repairs"] + repair["rebuilds"] == repair["boundaries"]

    p50_ratio = scratch["pause_p50_s"] / repair["pause_p50_s"]
    p99_ratio = scratch["pause_p99_s"] / repair["pause_p99_s"]
    lines = [
        f"edge churn: ids={ROTATION_COVER_IDS:,}  "
        f"window={ROTATION_COVER_WINDOW:,}  "
        f"boundary every {ROTATION_COVER_BOUNDARY} events  "
        f"boundaries={repair['boundaries']}",
        f"{'mode':>8}  {'p50':>9}  {'p95':>9}  {'p99':>9}",
    ]
    for leg in (scratch, repair):
        lines.append(
            f"{leg['mode']:>8}  "
            f"{leg['pause_p50_s'] * 1e3:>7.2f}ms  "
            f"{leg['pause_p95_s'] * 1e3:>7.2f}ms  "
            f"{leg['pause_p99_s'] * 1e3:>7.2f}ms"
        )
    lines.append(
        f"ratio (scratch / repair): p50 {p50_ratio:.1f}x  "
        f"p99 {p99_ratio:.1f}x"
    )
    record_table("epoch_rotation_cover", "\n".join(lines))
    record_json(
        "epoch_rotation_cover",
        {
            "ids": ROTATION_COVER_IDS,
            "window": ROTATION_COVER_WINDOW,
            "boundary_every": ROTATION_COVER_BOUNDARY,
            "boundaries": repair["boundaries"],
            "p50_ratio": p50_ratio,
            "p99_ratio": p99_ratio,
            "modes": {
                leg["mode"]: {
                    key: leg[key]
                    for key in (
                        "pause_p50_s",
                        "pause_p95_s",
                        "pause_p99_s",
                        "repairs",
                        "rebuilds",
                    )
                }
                for leg in legs
            },
        },
    )
    if not SMOKE:
        assert p50_ratio >= COVER_P50_BAR, (
            f"repaired cover boundary median "
            f"({repair['pause_p50_s'] * 1e3:.2f}ms) is only "
            f"{p50_ratio:.1f}x below the from-scratch rebuild "
            f"({scratch['pause_p50_s'] * 1e3:.2f}ms); persistent repair "
            f"must clear {COVER_P50_BAR}x"
        )
