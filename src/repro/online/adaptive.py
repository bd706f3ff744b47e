"""Window-aware adaptive mechanisms: online clocks that shrink again.

Every mechanism of Section IV is append-only: a component, once adopted,
is kept forever.  Under the sliding-window streams of the monitoring
regime that is exactly wrong - the offline optimum tracks the *live*
window and dips back down as events expire, so an append-only clock's
steady-state competitive ratio degrades monotonically (visible in
``python -m repro sweep ratio``).  The two mechanisms here close that gap
through the lifecycle protocol of :class:`~repro.online.base.OnlineMechanism`
(``observe`` / ``expire`` / ``end_epoch``):

* :class:`WindowedPopularityMechanism` - the paper's Popularity policy
  for the per-event choice, plus *retirement*: it counts, per component,
  the live events the component's vertex participates in, and gives the
  slot back once the count hits zero.  *When* a dead slot is reclaimed
  is a policy (``retirement=``): ``"eager"`` retires on the expire tick
  that kills the last live event, ``"epoch"`` defers to the next epoch
  sweep, and ``"cost"`` holds a dead slot while its expected re-add cost
  (a decayed per-vertex re-add counter) still beats the rent the slot
  has accrued since death - cutting rotation *frequency* under thrashing
  vertices, not just rotation cost.  All three retire only endpoint-dead
  components, which is what keeps re-timestamping sound: a live event
  blocks the retirement of both its endpoints, so every live event keeps
  a live incrementing component and all live-pair causal verdicts
  survive the slot compaction (the invariant
  :func:`~repro.core.timestamping.verify_retimestamping` checks) - and
  what keeps every rotation this mechanism triggers a *pure retirement*,
  eligible for the :class:`~repro.core.timestamping.EpochClock`'s delta
  (projection) rotation path.

* :class:`EpochRotatingHybridMechanism` - the adaptive sibling of
  :class:`~repro.online.hybrid.HybridMechanism`.  Between boundaries it
  runs the hybrid policy on the *live* graph (Popularity while the live
  graph is small and sparse, a fixed side once thresholds are crossed);
  at each ``end_epoch`` it rebuilds its component set wholesale from the
  live window's König cover (maintained incrementally by
  :class:`~repro.graph.incremental.DynamicMatching`), so right after a
  boundary its clock is *optimal for the live window* and the hybrid
  switch restarts from the Popularity phase.

:class:`LifecycleClockDriver` is the timestamping tie-in: it couples any
lifecycle mechanism with an :class:`~repro.core.timestamping.EpochClock`,
extending the kernel when the mechanism appends a component and rotating
the epoch (delta projection or replay; the clock picks which) whenever
the mechanism retires or rebuilds.  The property-test suite drives it to
prove that adaptive mechanisms preserve happened-before / concurrent
verdicts for every live-window event pair across retirements and
rotations.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.timestamping import EpochClock
from repro.exceptions import OnlineMechanismError
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.incremental import DynamicMatching
from repro.obs.registry import active as _metrics_active
from repro.online.base import (
    OBJECT,
    THREAD,
    OnlineMechanism,
    popularity_choice,
)


def _canonical_key(vertex: Vertex) -> Tuple[str, str]:
    """The ``(type name, repr)`` ordering key shared with the simulator."""
    return (type(vertex).__name__, repr(vertex))


# -- retirement policies ------------------------------------------------------
#: Retire a dead component on the expire tick that killed its last event.
EAGER_RETIREMENT = "eager"
#: Let dead components linger until the next ``end_epoch`` sweep.
EPOCH_RETIREMENT = "epoch"
#: Epoch-sweep retirement gated by the re-add cost model (see
#: :class:`WindowedPopularityMechanism`).
COST_RETIREMENT = "cost"

#: Policies :class:`WindowedPopularityMechanism` accepts.
RETIREMENT_POLICIES = (EAGER_RETIREMENT, EPOCH_RETIREMENT, COST_RETIREMENT)

#: Per-tick decay of the re-add score (half-life of ~138 lifecycle ticks).
_COST_DECAY = 0.995
#: Rent (lifecycle ticks dead) one unit of re-add score excuses a slot
#: from paying before it is reclaimed.
_COST_GRACE_TICKS = 256.0
#: Scores decayed below this are forgotten at the next epoch sweep, so
#: the score table stays proportional to recently thrashing vertices.
_COST_SCORE_FLOOR = 1e-3
#: Minimum ticks a score ledger line survives untouched before it may be
#: pruned - long enough for a fresh retiree's zero-score line to witness
#: the re-add that would earn it a score.
_COST_TTL_TICKS = 2048


def _decay_factor(ticks: int) -> float:
    """``_COST_DECAY ** ticks`` by binary exponentiation.

    Repeated IEEE multiplication instead of ``math.pow``: the cost
    policy feeds retirement decisions, which feed component sets, which
    feed fingerprints, so the arithmetic must not depend on the
    platform's libm.
    """
    result = 1.0
    base = _COST_DECAY
    while ticks:
        if ticks & 1:
            result *= base
        base *= base
        ticks >>= 1
    return result


class WindowedPopularityMechanism(OnlineMechanism):
    """Popularity's choice policy plus retirement of window-dead components.

    Parameters
    ----------
    tie_break:
        Popularity tie side, as in
        :class:`~repro.online.popularity.PopularityMechanism` (the choice
        policy is identical on purpose, so comparing this mechanism with
        plain Popularity isolates the effect of retirement).
    eager:
        When ``True`` (default) a component is retired by the expire tick
        that kills its last live event; when ``False`` dead components
        linger until the next ``end_epoch`` sweep.  Legacy switch kept
        for callers predating ``retirement``; ignored when ``retirement``
        is given explicitly.
    retirement:
        Retirement policy: ``"eager"`` / ``"epoch"`` (the two regimes
        ``eager`` selects between) or ``"cost"``.  Under ``"cost"`` a
        dead component is only reclaimed at an epoch sweep once the rent
        it has accrued (lifecycle ticks since its last live event died)
        exceeds the grace its *re-add score* buys: a per-vertex counter
        bumped each time a previously retired vertex is adopted again,
        decayed by :data:`_COST_DECAY` per tick.  A vertex that keeps
        bouncing back earns score, so its slot survives quiet spells and
        the retire-rotate / re-add-extend churn it would otherwise cause
        disappears; a vertex that never returns has score zero and is
        reclaimed at the first sweep after death, like ``"epoch"``.  The
        policy is deterministic (pure integer tick arithmetic plus
        fixed-sequence float multiplication) and keyed into
        :meth:`summary` as ``"retirement"``.  Registered as
        ``adaptive-popularity-cost``.
    windowed_degrees:
        **Off by default** (the append-only revealed-graph policy of the
        paper).  When ``True``, the per-event choice compares *windowed*
        degree estimates instead: the number of live (non-expired) events
        each endpoint currently participates in - the degree, with
        multiplicity, of the endpoint in the live multigraph the
        retirement bookkeeping already maintains.  The append-only
        revealed graph never forgets, so under drift it keeps voting for
        endpoints whose popularity died windows ago; the windowed counter
        decays with the window and tracks the regime that is actually
        live.  Registered as ``adaptive-popularity-windowed``.
    """

    name = "adaptive-popularity"
    window_aware = True

    def __init__(
        self,
        tie_break: str = THREAD,
        eager: bool = True,
        windowed_degrees: bool = False,
        retirement: Optional[str] = None,
    ) -> None:
        super().__init__()
        if tie_break not in (THREAD, OBJECT):
            raise OnlineMechanismError(
                f"tie_break must be {THREAD!r} or {OBJECT!r}, got {tie_break!r}"
            )
        if retirement is None:
            retirement = EAGER_RETIREMENT if eager else EPOCH_RETIREMENT
        if retirement not in RETIREMENT_POLICIES:
            raise OnlineMechanismError(
                f"retirement must be one of {RETIREMENT_POLICIES}, "
                f"got {retirement!r}"
            )
        self._tie_break = tie_break
        self._retirement = retirement
        self._eager = retirement == EAGER_RETIREMENT
        self._windowed_degrees = windowed_degrees
        if windowed_degrees:
            self.name = "adaptive-popularity-windowed"
        elif retirement == COST_RETIREMENT:
            self.name = "adaptive-popularity-cost"
        # Live events per endpoint vertex.  A vertex may only be retired
        # while its count is zero: that is the condition under which slot
        # compaction preserves every live-pair verdict.
        self._live_by_thread: Dict[Vertex, int] = {}
        self._live_by_object: Dict[Vertex, int] = {}
        # Cost-policy state: the tick each currently dead component's
        # vertex went dead, and the decayed re-add score per vertex as a
        # ``(score, tick-of-last-touch)`` pair (decay applied lazily).
        self._dead_thread_since: Dict[Vertex, int] = {}
        self._dead_object_since: Dict[Vertex, int] = {}
        self._readd_score: Dict[Vertex, Tuple[float, int]] = {}

    @property
    def windowed_degrees(self) -> bool:
        return self._windowed_degrees

    @property
    def retirement(self) -> str:
        """The retirement policy in force (``eager`` / ``epoch`` / ``cost``)."""
        return self._retirement

    def _tick(self) -> int:
        """The lifecycle clock the cost model meters rent in.

        Observes plus expires: a slot's rent must keep accruing while
        the stream drains (expire-heavy phases), not only while it
        grows.
        """
        return self.events_seen + self.expires_seen

    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        if self._windowed_degrees:
            # Windowed popularity: live-event counts per endpoint (the
            # hook _on_observe has already counted the current event, so
            # both sides see it - mirroring how the revealed-graph policy
            # sees the just-added edge).  Shared denominator again, so
            # the comparison reduces to the counters.
            thread_live = self._live_by_thread.get(thread, 0)
            object_live = self._live_by_object.get(obj, 0)
            if thread_live > object_live:
                choice = THREAD
            elif object_live > thread_live:
                choice = OBJECT
            else:
                choice = self._tie_break
        else:
            # Same policy as PopularityMechanism: degrees in the revealed
            # (append-only) graph, which observe() has already updated.
            choice = popularity_choice(
                self.revealed_graph, thread, obj, self._tie_break
            )
        if self._retirement == COST_RETIREMENT:
            # _choose only runs for uncovered events, and the chosen side
            # is adopted immediately after it returns - so this is
            # exactly the re-add moment for a vertex with score history.
            vertex = thread if choice == THREAD else obj
            entry = self._readd_score.get(vertex)
            if entry is not None:
                score, touched = entry
                tick = self._tick()
                self._readd_score[vertex] = (
                    score * _decay_factor(tick - touched) + 1.0,
                    tick,
                )
        return choice

    # -- lifecycle hooks ----------------------------------------------------
    def _on_observe(self, thread: Vertex, obj: Vertex) -> None:
        self._live_by_thread[thread] = self._live_by_thread.get(thread, 0) + 1
        self._live_by_object[obj] = self._live_by_object.get(obj, 0) + 1
        if self._retirement == COST_RETIREMENT:
            # A dead component's vertex came back to life: it stops
            # accruing rent (and stops being a retirement candidate).
            self._dead_thread_since.pop(thread, None)
            self._dead_object_since.pop(obj, None)

    def _on_expire(self, thread: Vertex, obj: Vertex) -> None:
        for counts, vertex in (
            (self._live_by_thread, thread),
            (self._live_by_object, obj),
        ):
            count = counts.get(vertex, 0)
            if count <= 0:
                raise OnlineMechanismError(
                    f"expire of ({thread!r}, {obj!r}) retracts an occurrence "
                    f"that was never observed"
                )
            if count == 1:
                del counts[vertex]
            else:
                counts[vertex] = count - 1
        if self._eager:
            if thread not in self._live_by_thread and thread in self._thread_components:
                self._retire_component(thread)
            if obj not in self._live_by_object and obj in self._object_components:
                self._retire_component(obj)
        elif self._retirement == COST_RETIREMENT:
            # Start the rent meter; retirement itself waits for a sweep.
            tick = self._tick()
            if thread not in self._live_by_thread and thread in self._thread_components:
                self._dead_thread_since.setdefault(thread, tick)
            if obj not in self._live_by_object and obj in self._object_components:
                self._dead_object_since.setdefault(obj, tick)

    def _cost_due(self, tick: int) -> List[Vertex]:
        """Dead components whose accrued rent beats their re-add grace."""
        due = []
        for kind, component in self._component_order:
            since = (
                self._dead_thread_since if kind == THREAD
                else self._dead_object_since
            ).get(component)
            if since is None:
                continue
            entry = self._readd_score.get(component)
            if entry is not None:
                score, touched = entry
                grace = score * _decay_factor(tick - touched) * _COST_GRACE_TICKS
            else:
                grace = 0.0
            if tick - since >= grace:
                due.append(component)
        return due

    def _on_end_epoch(self) -> Tuple[Vertex, ...]:
        # With eager retirement this sweep is a no-op; with the epoch
        # policy it reclaims every dead component; with the cost policy
        # it reclaims the dead components whose rent has run out and
        # remembers them in the re-add score table.
        if self._retirement == COST_RETIREMENT:
            tick = self._tick()
            dead = self._cost_due(tick)
            dead.sort(key=_canonical_key)
            for component in dead:
                self._retire_component(component)
                self._dead_thread_since.pop(component, None)
                self._dead_object_since.pop(component, None)
                entry = self._readd_score.get(component)
                if entry is None:
                    # Open a ledger line so a future re-adoption of this
                    # vertex is recognised and scored in _choose.
                    self._readd_score[component] = (0.0, tick)
            # Forget ledger lines that have sat untouched past the TTL
            # with their score decayed to noise and no dead slot waiting,
            # so the table tracks recent thrashers instead of every
            # vertex ever retired.
            stale = [
                vertex
                for vertex, (score, touched) in self._readd_score.items()
                if tick - touched >= _COST_TTL_TICKS
                and score * _decay_factor(tick - touched) < _COST_SCORE_FLOOR
                and vertex not in self._dead_thread_since
                and vertex not in self._dead_object_since
            ]
            for vertex in stale:
                del self._readd_score[vertex]
            return tuple(dead)
        dead = [
            component
            for kind, component in self._component_order
            if (
                component not in self._live_by_thread
                if kind == THREAD
                else component not in self._live_by_object
            )
        ]
        dead.sort(key=_canonical_key)
        for component in dead:
            self._retire_component(component)
        return tuple(dead)

    def summary(self) -> Dict[str, object]:
        data = super().summary()
        data["retirement"] = self._retirement
        return data


class EpochRotatingHybridMechanism(OnlineMechanism):
    """Hybrid policy on the live graph, König-cover rebuild at epochs.

    Parameters mirror :class:`~repro.online.hybrid.HybridMechanism`
    (thresholds evaluated against the *live* graph) - except that the
    switch to the Naive side resets at every epoch boundary, because the
    rebuild restores an optimal-for-the-window component set and the
    Popularity phase is the right regime for a small live cover.
    """

    name = "epoch-hybrid"
    window_aware = True

    def __init__(
        self,
        density_threshold: float = 0.15,
        node_threshold: int = 140,
        naive_side: str = THREAD,
        warmup_edges: int = 30,
    ) -> None:
        super().__init__()
        if density_threshold < 0.0:
            raise OnlineMechanismError("density_threshold must be non-negative")
        if node_threshold < 0:
            raise OnlineMechanismError("node_threshold must be non-negative")
        if warmup_edges < 0:
            raise OnlineMechanismError("warmup_edges must be non-negative")
        if naive_side not in (THREAD, OBJECT):
            raise OnlineMechanismError(
                f"naive_side must be {THREAD!r} or {OBJECT!r}, got {naive_side!r}"
            )
        self._density_threshold = density_threshold
        self._node_threshold = node_threshold
        self._naive_side = naive_side
        self._warmup_edges = warmup_edges
        self._switched_at: Optional[int] = None
        # The live window's graph and its maximum matching / König cover,
        # maintained across inserts and expiries.
        self._live = DynamicMatching(record_trajectory=False)

    # -- introspection ------------------------------------------------------
    @property
    def live_graph(self) -> BipartiteGraph:
        """The live (non-expired) thread-object graph."""
        return self._live.graph

    @property
    def live_optimum(self) -> int:
        """Minimum vertex cover size of the live graph (the rebuild target)."""
        return self._live.cover_size

    @property
    def switched_at(self) -> Optional[int]:
        """Event index of the current epoch's switch to Naive, if any."""
        return self._switched_at

    # -- policy -------------------------------------------------------------
    def _exceeds_thresholds(self) -> bool:
        graph = self._live.graph
        density_exceeded = (
            graph.num_edges >= self._warmup_edges
            and graph.density() > self._density_threshold
        )
        return density_exceeded or graph.num_vertices > self._node_threshold

    def _choose(self, thread: Vertex, obj: Vertex) -> str:
        if self._switched_at is None and self._exceeds_thresholds():
            self._switched_at = self.events_seen - 1
        if self._switched_at is not None:
            return self._naive_side
        return popularity_choice(self._live.graph, thread, obj, THREAD)

    # -- lifecycle hooks ----------------------------------------------------
    def _on_observe(self, thread: Vertex, obj: Vertex) -> None:
        self._live.add_edge(thread, obj)

    def _on_expire(self, thread: Vertex, obj: Vertex) -> None:
        self._live.remove_edge(thread, obj)

    def _on_end_epoch(self) -> Tuple[Vertex, ...]:
        cover = self._live.vertex_cover()
        live_graph = self._live.graph
        want_threads = {v for v in cover if live_graph.has_thread(v)}
        want_objects = {v for v in cover if live_graph.has_object(v)}
        retired = [
            component
            for kind, component in self._component_order
            if component not in (want_threads if kind == THREAD else want_objects)
        ]
        retired.sort(key=_canonical_key)
        for component in retired:
            self._retire_component(component)
        for vertex in sorted(want_threads, key=_canonical_key):
            self._add_component(THREAD, vertex)
        for vertex in sorted(want_objects, key=_canonical_key):
            self._add_component(OBJECT, vertex)
        # A fresh, window-optimal cover restarts the hybrid schedule.
        self._switched_at = None
        return tuple(retired)


class LifecycleClockDriver:
    """Issue real timestamps while a lifecycle mechanism shapes the clock.

    The driver forwards each lifecycle tick to the mechanism first, then
    mirrors the resulting component-set change onto an
    :class:`~repro.core.timestamping.EpochClock`:

    * a component *appended* by ``observe`` extends the kernel in place
      (no epoch change - existing timestamps just gain a zero slot);
    * any *retirement or rebuild* (from an expire tick or an epoch
      boundary) rotates the kernel to the mechanism's new component set,
      re-stamping the live window in the new epoch's basis - by slot
      projection when the rotation is a pure retirement, by replay
      otherwise (see :meth:`EpochClock.rotate
      <repro.core.timestamping.EpochClock.rotate>`).

    With ``check_invariant=True`` every rotation replays and proves the
    re-timestamping invariant (verdict preservation over all live pairs)
    before committing - the property the test suite leans on.
    """

    def __init__(
        self,
        mechanism: OnlineMechanism,
        check_invariant: bool = False,
    ) -> None:
        if mechanism.events_seen:
            raise OnlineMechanismError(
                "mechanism has already observed events; use a fresh one"
            )
        self._mechanism = mechanism
        self._clock = EpochClock(
            mechanism.components(), check_invariant=check_invariant
        )

    # -- introspection ------------------------------------------------------
    @property
    def mechanism(self) -> OnlineMechanism:
        return self._mechanism

    @property
    def clock(self) -> EpochClock:
        return self._clock

    @property
    def clock_size(self) -> int:
        return self._mechanism.clock_size

    def live_tokens(self) -> Tuple[int, ...]:
        return self._clock.live_tokens()

    def _rotate(self, components) -> None:
        """Rotate the clock, observing the latency when telemetry is on.

        Rotation re-stamps the live window - ``O(live)`` projection on
        the delta path, an ``O(window)`` replay otherwise - and is the
        driver's dominant boundary cost (``bench_epoch_rotation.py``
        gates its p99), so every rotation goes through this one timed
        funnel; the ``clock.rotation.delta`` / ``clock.rotation.replay``
        counters say which path each rotation took.  The measurement changes
        nothing the clock computes: the registry, when installed, only
        *receives* the duration.
        """
        registry = _metrics_active()
        if registry is None:
            self._clock.rotate(components)
            return
        began = perf_counter()
        self._clock.rotate(components)
        registry.add("driver.rotations")
        registry.observe("driver.rotation_s", perf_counter() - began)

    # -- lifecycle ----------------------------------------------------------
    def observe(self, thread: Vertex, obj: Vertex) -> int:
        """Reveal one event; returns its :class:`EpochClock` token."""
        retired_before = self._mechanism.retired_total
        added = self._mechanism.observe(thread, obj)
        if self._mechanism.retired_total != retired_before:
            # No current mechanism retires on observe, but the protocol
            # does not forbid it; fall back to a full rotation.
            self._rotate(self._mechanism.components())
        elif added is not None:
            if added in self._mechanism.thread_components:
                self._clock.extend(thread_components=(added,))
            else:
                self._clock.extend(object_components=(added,))
            registry = _metrics_active()
            if registry is not None:
                registry.add("driver.extensions")
        return self._clock.observe(thread, obj)

    def expire(self, thread: Vertex, obj: Vertex) -> int:
        """Expire one live occurrence; returns the expired token."""
        retired_before = self._mechanism.retired_total
        self._mechanism.expire(thread, obj)
        token = self._clock.expire(thread, obj)
        retired_now = self._mechanism.retired_total
        if retired_now != retired_before:
            registry = _metrics_active()
            if registry is not None:
                registry.add("driver.retirements", retired_now - retired_before)
            self._rotate(self._mechanism.components())
        return token

    def end_epoch(self) -> Tuple[Vertex, ...]:
        """Deliver an epoch boundary; rotates the clock if the set changed."""
        before = self._mechanism.components()
        registry = _metrics_active()
        began = perf_counter() if registry is not None else 0.0
        retired = self._mechanism.end_epoch()
        after = self._mechanism.components()
        if after != before:
            self._rotate(after)
        if registry is not None:
            registry.observe("driver.end_epoch_s", perf_counter() - began)
            if retired:
                registry.add("driver.retirements", len(retired))
        return retired

    # -- causality queries --------------------------------------------------
    def timestamp(self, token: int):
        return self._clock.timestamp(token)

    def relation(self, token_a: int, token_b: int) -> str:
        return self._clock.relation(token_a, token_b)

    def happened_before(self, token_a: int, token_b: int) -> bool:
        return self._clock.happened_before(token_a, token_b)

    def concurrent(self, token_a: int, token_b: int) -> bool:
        return self._clock.concurrent(token_a, token_b)
