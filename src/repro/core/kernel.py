"""Array-backed mutable clock kernel: the timestamping hot path.

The immutable :class:`~repro.core.clock.Timestamp` API is the right
interface for applications, but deriving every event timestamp through
``merged()`` + ``incremented()`` costs two to three :class:`Timestamp`
constructions per event, each of which re-validates its values slot by
slot.  At the scales the paper targets (Theorem 3 only pays off when the
thread/object counts are large) that interpreter overhead dwarfs the
``O(k)`` work the paper analyses.

:class:`ClockKernel` is the engine behind
:class:`~repro.core.timestamping.VectorClockProtocol`: it applies the
Section III-C update rule

    ``e.v = max(p.v, q.v); e.v[q] += 1 if q ∈ C; e.v[p] += 1 if p ∈ C``

on plain integer arrays (Python lists, i.e. contiguous pointer arrays) and
mints exactly one immutable :class:`Timestamp` per event through the
trusted constructor, skipping re-validation.  The resulting timestamps are
bit-identical to the ones the naive ``merged``/``incremented`` derivation
produces; the property test suite asserts this on random computations.

The kernel is also the mutable substrate of the *lifecycle-aware* clock
protocols (sliding-window monitoring): its component set can grow
(:meth:`ClockKernel.extend_components` - the online setting appends
components as uncovered events arrive) and can be *rotated*
(:meth:`ClockKernel.rotate_epoch` - a new epoch begins over a new
component set, retired components' slots are compacted away, and the
caller replays the live window so every surviving event is re-timestamped
in the new epoch's basis).  Timestamps minted in an epoch reference only
that epoch's components; :class:`~repro.core.timestamping.EpochClock`
wraps the replay and proves verdict preservation with the
re-timestamping invariant check.  For the pure-retirement case - the new
set is a subset of the old and no retired component touches a live
event - :meth:`ClockKernel.rotate_epoch_delta` replaces the replay with
an ``O(live)`` slot *projection* of the surviving clock vectors;
``EpochClock.rotate`` owns the applicability gate and the fallback.

Batch entry points
------------------
Per-event :meth:`ClockKernel.observe` pays Python-interpreter overhead
per event no matter how lean the update rule is, so the kernel also has
*batch* entry points - :meth:`ClockKernel.timestamp_batch` (mint one
timestamp per event) and :meth:`ClockKernel.advance_batch` (advance the
clocks and fold a digest, minting nothing).  Their loops hoist the
attribute lookups out of the per-event body and apply *slot-delta*
derivation on the hot path: whenever one operand of the merge is absent
or the two endpoints already share one stamp, the new vector is a
C-speed copy of the previous one with the one or two incremented slots
bumped, skipping the ``O(k)`` Python-level element-wise maximum
entirely.  Both are bit-identical to a sequential :meth:`observe` loop;
the property-test suite asserts that identity on random computations.
"""

from __future__ import annotations

from operator import itemgetter
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.clock import Timestamp
from repro.core.components import ClockComponents
from repro.exceptions import ComponentError
from repro.graph.bipartite import Vertex

# Telemetry write handle (stdlib-only import; repro.obs deliberately
# imports nothing back from the core).  Every use below follows the
# batch-granularity pattern: fetch once, guard on ``is not None``, so
# the disabled cost never lands on a per-event path.
from repro.obs.registry import active as _metrics_active

#: 64-bit mixing constants of the stamp-digest fold (FNV prime / Knuth).
_FOLD_MASK = (1 << 64) - 1
_FOLD_PRIME = 0x100000001B3


def fold_stamp_values(fold: int, thread_value: int, object_value: int) -> int:
    """Fold one event's incremented slot values into a running 64-bit digest.

    The digest is an order-sensitive projection of the timestamp stream:
    for every stamped event it absorbs the post-increment values of the
    event's thread and object slots (0 for an absent side).  Any
    divergence in the clock state propagates into some later event's
    incremented slots, so any two runs (worker layouts, batch cuts) that
    disagree on any stamp disagree on the digest.  Pure ints, cheap, and
    picklable - the property that lets the sharded engine carry it
    through checkpoints.
    """
    return (
        (fold ^ (thread_value * 2654435761 + object_value * 40503 + 1))
        * _FOLD_PRIME
    ) & _FOLD_MASK


def _values_gather(indices: Sequence[int]):
    """A C-level tuple gather: ``values -> tuple(values[i] for i in indices)``.

    ``operator.itemgetter`` runs the whole gather inside the interpreter
    core, which is what keeps epoch-rotation projection ``O(live)`` with
    a memcpy-class constant instead of a bytecode-per-slot one.  The
    zero- and one-index cases are special-cased because ``itemgetter``
    changes shape there (no arguments is an error, one argument returns
    a bare value).
    """
    if not indices:
        return lambda values: ()
    if len(indices) == 1:
        index = indices[0]
        return lambda values: (values[index],)
    return itemgetter(*indices)


class _ProjectedStamp(Timestamp):
    """A lazily materialised re-layout of another stamp.

    Epoch rotation's slot projection and component extension's zero-pad
    share this one wrapper: ``_relayout`` maps the *source* stamp's
    value tuple into this stamp's component layout and runs on first
    ``_values`` access only, so a stamp that expires before anyone
    compares or folds it never pays the gather at all - the mechanism
    that turns an ``O(live · k)`` rotation spike into ``O(live)``
    wrapper allocations plus read-amortised slot work.

    ``_relayout`` is ``(gather, absent, threads)``: the compiled
    :func:`_values_gather` into the wrap-time basis, that basis's size
    (doubling as the absent-reads-zero sentinel - application appends
    one ``0`` so sentinel indices land on it, which is
    :func:`rebase_timestamp`'s rule without per-slot dict probes), and
    its thread-block length.  The source may sit in any *append
    ancestor* of that basis - the only stale shape lazy extension
    produces inside an epoch - and materialisation lifts it by counts
    alone (two zero pads at the block boundaries), so one relayout per
    rotation serves every live stamp regardless of when each was last
    touched.

    Re-wrapping an unmaterialised wrapper *chains*: the new wrapper's
    source is the old wrapper, and materialisation walks the chain
    iteratively, newest-in, oldest-out.  A chain link costs nothing
    until somebody reads the stamp, and most ledger stamps are never
    read - they expire out of the window - so the gathers a rotation
    defers are mostly never paid at all, not merely paid later.
    The chain's memory is proportional to steps survived unread (a
    constant-size link per rotation or extension), reclaimed wholesale
    when the stamp expires or materialises.  Bounding it tighter was
    tried and rejected: any depth cap must resolve the capped links
    (composing index maps costs the same ``O(k)`` per link as gathering
    values), and collapse cohorts are too small to amortise it, so a
    cap just smears the eager-rotation bill the chain exists to avoid.
    The wrapper *is* a :class:`Timestamp` (same comparisons, same
    accessors) and pickles as the plain
    materialised stamp it stands for.
    """

    __slots__ = ("_source", "_relayout")

    @classmethod
    def _make(
        cls, components: ClockComponents, source: Timestamp, relayout: tuple
    ) -> "_ProjectedStamp":
        stamp = object.__new__(cls)
        stamp._components = components
        stamp._source = source
        stamp._relayout = relayout
        return stamp

    def __getattr__(self, name: str):
        # Only the _values slot is lazy; anything else genuinely absent.
        if name != "_values":
            raise AttributeError(name)
        # Collect the unmaterialised chain iteratively: attribute-driven
        # recursion would hit the interpreter's recursion limit on a
        # stamp that survived a thousand rotations unread.
        pending = [self]
        source = self._source
        while type(source) is _ProjectedStamp and source._source is not None:
            pending.append(source)
            source = source._source
        registry = _metrics_active()
        if registry is not None:
            registry.add("kernel.lazy_stamps.materialised", len(pending))
        values = source._values
        for node in reversed(pending):
            gather, absent, threads = node._relayout
            if len(values) != absent:
                # The source sits in a strict append ancestor of the
                # wrap-time basis: lift it by inserting zero pads after
                # its thread block and at its end.  Count-based - the
                # within-epoch invariant (rotation re-wraps every live
                # stamp, extension only appends) guarantees the shape.
                block = len(node._source._components.thread_components)
                values = (
                    values[:block]
                    + (0,) * (threads - block)
                    + values[block:]
                    + (0,) * (absent - threads - (len(values) - block))
                )
            values = gather(values + (0,))
            node._values = values
            # Release the chain link: a materialised wrapper no longer
            # pins its source (or the rotation's shared relayout).
            node._source = None
            node._relayout = None
        return values

    def __reduce__(self):
        # Checkpoints and cross-process transfers serialise the plain
        # materialised stamp, never the lazy structure.
        return (Timestamp._from_trusted, (self._components, self._values))


def rebase_timestamp(
    stamp: Timestamp, new_components: ClockComponents
) -> Timestamp:
    """Re-express ``stamp`` over ``new_components`` by component identity.

    Components present in both sets keep their values (whatever their
    slot index becomes); components only in the new set read zero - the
    value they would have carried had they existed when the stamp was
    minted.  :meth:`EpochClock.timestamp
    <repro.core.timestamping.EpochClock.timestamp>` applies it on first
    read to live-ledger stamps minted before a component extension.
    """
    old_index = stamp.components._index
    values = tuple(
        stamp._values[old_index[c]] if c in old_index else 0
        for c in new_components.ordered
    )
    return Timestamp._from_trusted(new_components, values)


def _write_back_lists(components, thread_work, object_work,
                      thread_stamps, object_stamps) -> None:
    """Mint one Timestamp per unique working vector and store it.

    The identity cache preserves stamp *sharing*: when a thread and an
    object ended the batch on the same vector (they were endpoints of
    the same last event), they get the same Timestamp instance, which is
    what the ``object_stamp is thread_stamp`` per-event fast path and
    the rebase cache key on.  Working vectors stay referenced by the
    work dicts until this completes, so ``id`` keys cannot be recycled.
    """
    minted: Dict[int, Timestamp] = {}
    from_trusted = Timestamp._from_trusted
    for vertex, values in thread_work.items():
        key = id(values)
        stamp = minted.get(key)
        if stamp is None:
            stamp = from_trusted(components, tuple(values))
            minted[key] = stamp
        thread_stamps[vertex] = stamp
    for vertex, values in object_work.items():
        key = id(values)
        stamp = minted.get(key)
        if stamp is None:
            stamp = from_trusted(components, tuple(values))
            minted[key] = stamp
        object_stamps[vertex] = stamp


class ClockKernel:
    """Mutable per-thread / per-object clock state for one protocol run.

    Parameters
    ----------
    components:
        The clock's component set; fixes the vector dimension and the slot
        index of every component.
    strict:
        When ``True`` (the default), observing an operation whose thread
        and object are both outside the component set raises
        :class:`ComponentError`; when ``False`` the operation is merged but
        not incremented (see ``VectorClockProtocol`` for why that loses the
        vector clock property).
    """

    __slots__ = (
        "_components",
        "_strict",
        "_zero",
        "_thread_slot",
        "_object_slot",
        "_thread_stamps",
        "_object_stamps",
        "_epoch",
        "_retired_total",
    )

    def __init__(self, components: ClockComponents, strict: bool = True) -> None:
        self._strict = strict
        self._epoch = 0
        self._retired_total = 0
        self._thread_stamps: Dict[Vertex, Timestamp] = {}
        self._object_stamps: Dict[Vertex, Timestamp] = {}
        self._bind_components(components)

    def _bind_components(self, components: ClockComponents) -> None:
        """Point the kernel at ``components``: slot maps and the zero stamp."""
        self._components = components
        self._zero = Timestamp.zero(components)
        thread_set = components.thread_components
        object_set = components.object_components
        self._thread_slot: Dict[Vertex, int] = {
            c: i for i, c in enumerate(components.ordered) if c in thread_set
        }
        self._object_slot: Dict[Vertex, int] = {
            c: i for i, c in enumerate(components.ordered) if c in object_set
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def components(self) -> ClockComponents:
        return self._components

    @property
    def epoch(self) -> int:
        """How many times :meth:`rotate_epoch` has been applied."""
        return self._epoch

    @property
    def retired_total(self) -> int:
        """Total components retired across all epoch rotations so far."""
        return self._retired_total

    def thread_stamp(self, thread: Vertex) -> Timestamp:
        """Current clock of ``thread`` as an immutable timestamp."""
        return self._thread_stamps.get(thread, self._zero)

    def object_stamp(self, obj: Vertex) -> Timestamp:
        """Current clock of ``obj`` as an immutable timestamp."""
        return self._object_stamps.get(obj, self._zero)

    # ------------------------------------------------------------------
    # The update rule
    # ------------------------------------------------------------------
    def observe(self, thread: Vertex, obj: Vertex) -> Timestamp:
        """Apply the update rule for one operation and return its timestamp.

        One list, one tuple and one :class:`Timestamp` are allocated per
        covered event; nothing is re-validated.
        """
        thread_stamp = self._thread_stamps.get(thread)
        object_stamp = self._object_stamps.get(obj)
        object_slot = self._object_slot.get(obj)
        thread_slot = self._thread_slot.get(thread)

        if thread_slot is None and object_slot is None:
            if self._strict:
                raise ComponentError(
                    f"operation ({thread!r}, {obj!r}) is not covered by the "
                    f"clock components"
                )
            # Merge-only (no increment): the degenerate non-strict path.
            stamp = self._merge_only(thread_stamp, object_stamp)
            self._thread_stamps[thread] = stamp
            self._object_stamps[obj] = stamp
            return stamp

        if thread_stamp is None:
            values = list(object_stamp._values) if object_stamp is not None else [
                0
            ] * self._components.size
        elif object_stamp is None or object_stamp is thread_stamp:
            values = list(thread_stamp._values)
        else:
            values = [
                a if a >= b else b
                for a, b in zip(thread_stamp._values, object_stamp._values)
            ]
        if object_slot is not None:
            values[object_slot] += 1
        if thread_slot is not None:
            values[thread_slot] += 1
        stamp = Timestamp._from_trusted(self._components, tuple(values))
        self._thread_stamps[thread] = stamp
        self._object_stamps[obj] = stamp
        return stamp

    def timestamp_batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]]
    ) -> List[Timestamp]:
        """Apply the update rule to a whole chunk; one timestamp per event.

        Bit-identical to calling :meth:`observe` per pair (the property
        tests assert it), but slot lookups and stamp allocation are
        amortised over the batch instead of being re-paid per Python
        call: this is :meth:`observe` with the attribute lookups hoisted
        out of the loop and the slot-delta fast paths applied to the
        tuples.  The minted stamps themselves are the working state,
        since minting needs a fresh tuple per event anyway.  On a
        strict-mode coverage error the events preceding the offender are
        applied, exactly as a sequential loop would have left them.
        """
        components = self._components
        size = components.size
        thread_slots = self._thread_slot
        object_slots = self._object_slot
        thread_stamps = self._thread_stamps
        object_stamps = self._object_stamps
        from_trusted = Timestamp._from_trusted
        stamps: List[Timestamp] = []
        append = stamps.append
        for thread, obj in pairs:
            thread_stamp = thread_stamps.get(thread)
            object_stamp = object_stamps.get(obj)
            object_slot = object_slots.get(obj)
            thread_slot = thread_slots.get(thread)
            if thread_slot is None and object_slot is None:
                if self._strict:
                    raise ComponentError(
                        f"operation ({thread!r}, {obj!r}) is not covered by "
                        f"the clock components"
                    )
                stamp = self._merge_only(thread_stamp, object_stamp)
                thread_stamps[thread] = stamp
                object_stamps[obj] = stamp
                append(stamp)
                continue
            if thread_stamp is None:
                values = (
                    list(object_stamp._values)
                    if object_stamp is not None
                    else [0] * size
                )
            elif object_stamp is None or object_stamp is thread_stamp:
                values = list(thread_stamp._values)
            else:
                a = thread_stamp._values
                b = object_stamp._values
                values = [x if x >= y else y for x, y in zip(a, b)]
            if object_slot is not None:
                values[object_slot] += 1
            if thread_slot is not None:
                values[thread_slot] += 1
            stamp = from_trusted(components, tuple(values))
            thread_stamps[thread] = stamp
            object_stamps[obj] = stamp
            append(stamp)
        return stamps

    def advance_batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]], fold: int = 0
    ) -> int:
        """Advance the clocks over a chunk without minting timestamps.

        The engine's hot path: per-thread/object clock state ends up
        exactly as after :meth:`timestamp_batch`, but no per-event
        :class:`Timestamp` is materialised - the returned value is
        ``fold`` advanced by :func:`fold_stamp_values` for every event,
        the digest the sharded engine carries into its fingerprint.

        The loop keeps working vectors as plain lists (frozen by
        convention once shared) and mints stamps for the touched
        entities once, at the batch boundary, preserving the
        thread/object stamp *sharing* the per-event fast path depends
        on - also on a strict-mode error, which leaves the events before
        the offender applied.
        """
        components = self._components
        size = components.size
        thread_slots = self._thread_slot
        object_slots = self._object_slot
        thread_stamps = self._thread_stamps
        object_stamps = self._object_stamps
        thread_work: Dict[Vertex, list] = {}
        object_work: Dict[Vertex, list] = {}
        try:
            for thread, obj in pairs:
                thread_values = thread_work.get(thread)
                if thread_values is None:
                    stamp = thread_stamps.get(thread)
                    if stamp is not None:
                        thread_values = list(stamp._values)
                object_values = object_work.get(obj)
                if object_values is None:
                    stamp = object_stamps.get(obj)
                    if stamp is not None:
                        object_values = list(stamp._values)
                object_slot = object_slots.get(obj)
                thread_slot = thread_slots.get(thread)
                if thread_slot is None and object_slot is None:
                    if self._strict:
                        raise ComponentError(
                            f"operation ({thread!r}, {obj!r}) is not covered "
                            f"by the clock components"
                        )
                    # Merge-only: no increment, digest sees (0, 0).
                    if thread_values is None:
                        values = (
                            object_values
                            if object_values is not None
                            else [0] * size
                        )
                    elif (
                        object_values is None or object_values is thread_values
                    ):
                        values = thread_values
                    else:
                        values = [
                            x if x >= y else y
                            for x, y in zip(thread_values, object_values)
                        ]
                    thread_work[thread] = values
                    object_work[obj] = values
                    fold = (
                        (fold ^ 1) * _FOLD_PRIME
                    ) & _FOLD_MASK
                    continue
                # Slot-delta fast paths: copy + bump instead of an O(k)
                # Python-level element-wise max whenever one operand is
                # absent or both endpoints already share one vector.
                if thread_values is None:
                    values = (
                        object_values.copy()
                        if object_values is not None
                        else [0] * size
                    )
                elif object_values is None or object_values is thread_values:
                    values = thread_values.copy()
                else:
                    values = [
                        x if x >= y else y
                        for x, y in zip(thread_values, object_values)
                    ]
                if object_slot is not None:
                    values[object_slot] += 1
                if thread_slot is not None:
                    values[thread_slot] += 1
                thread_work[thread] = values
                object_work[obj] = values
                fold = (
                    (
                        fold
                        ^ (
                            (values[thread_slot] if thread_slot is not None else 0)
                            * 2654435761
                            + (values[object_slot] if object_slot is not None else 0)
                            * 40503
                            + 1
                        )
                    )
                    * _FOLD_PRIME
                ) & _FOLD_MASK
        finally:
            _write_back_lists(
                components, thread_work, object_work, thread_stamps, object_stamps
            )
        return fold

    def fold_event(
        self, fold: int, stamp: Timestamp, thread: Vertex, obj: Vertex
    ) -> int:
        """Fold one minted stamp into the digest.

        The per-event counterpart of :meth:`advance_batch`'s internal
        fold: both absorb the post-increment thread/object slot values,
        so ``observe`` + ``fold_event`` and ``advance_batch`` produce the
        same digest for the same stream.
        """
        thread_slot = self._thread_slot.get(thread)
        object_slot = self._object_slot.get(obj)
        values = stamp._values
        return fold_stamp_values(
            fold,
            values[thread_slot] if thread_slot is not None else 0,
            values[object_slot] if object_slot is not None else 0,
        )

    def _merge_only(
        self, thread_stamp: Optional[Timestamp], object_stamp: Optional[Timestamp]
    ) -> Timestamp:
        """Bare merge for an uncovered event (non-strict mode only)."""
        if thread_stamp is None and object_stamp is None:
            return self._zero
        if thread_stamp is None:
            return object_stamp
        if object_stamp is None or object_stamp is thread_stamp:
            return thread_stamp
        return thread_stamp.merged(object_stamp)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def extend_components(
        self,
        thread_components: Iterable[Vertex] = (),
        object_components: Iterable[Vertex] = (),
    ) -> ClockComponents:
        """Grow the component set in place (the online append-only step).

        Every stored thread/object clock is re-based onto the extended
        set by component *identity*: existing components keep their
        values (their slot index may move - thread slots precede object
        slots by convention), new components start at zero everywhere,
        which is exactly the value they would have had from the start.
        Returns the new component set.
        """
        extended = self._components.extended(thread_components, object_components)
        if extended.size != self._components.size:
            self._rebase_stamps(extended)
            self._bind_components(extended)
        return self._components

    def rotate_epoch(self, new_components: ClockComponents) -> int:
        """Begin a new epoch over ``new_components``; returns #retired.

        All per-thread / per-object clock state is discarded: the caller
        must replay the events that are still live (in their original
        order) through :meth:`observe` so every surviving event - and the
        thread/object clocks future events merge from - is re-timestamped
        in the new epoch's basis.  Components of the old set absent from
        the new one are *retired*: their slots are compacted away and no
        timestamp minted in the new epoch references them.
        :class:`~repro.core.timestamping.EpochClock` packages the replay
        and the re-timestamping invariant check.
        """
        old = self._components
        retired = len(old.thread_components - new_components.thread_components)
        retired += len(old.object_components - new_components.object_components)
        self._retired_total += retired
        self._epoch += 1
        self._thread_stamps.clear()
        self._object_stamps.clear()
        self._bind_components(new_components)
        return retired

    def rotate_epoch_delta(
        self,
        new_components: ClockComponents,
        live_threads: AbstractSet[Vertex],
        live_objects: AbstractSet[Vertex],
        live_stamps: Sequence[Timestamp],
    ) -> List[Timestamp]:
        """Begin a new epoch by *projection*; returns the re-based stamps.

        The incremental counterpart of :meth:`rotate_epoch` for the
        pure-retirement case: ``new_components`` must be a subset of the
        current set (retired slots drop, no additions).  Instead of
        discarding all clock state and replaying the live window, every
        surviving clock vector is *projected* - surviving slots gathered
        into the new order, retired slots dropped - in ``O(live)`` slot
        moves with no per-event update-rule work.  Thread/object clocks
        outside ``live_threads`` / ``live_objects`` are dropped: an
        endpoint with no live event contributes nothing to future merges
        that a replay would have kept.

        ``live_stamps`` run through the same identity-keyed projection
        cache as the endpoint clocks, preserving the instance sharing
        between the caller's ledger and the stamp dicts that the
        slot-delta fast paths rely on.  Returns the projections of
        ``live_stamps`` in input order.  The epoch / retired-total
        counters advance exactly as :meth:`rotate_epoch` would.

        When projection preserves causal verdicts - and the fallback to
        :meth:`rotate_epoch` + replay when it would not - is owned by
        :meth:`EpochClock.rotate
        <repro.core.timestamping.EpochClock.rotate>`'s applicability
        gate; this method trusts its caller on that.
        """
        old = self._components
        retired = len(old.thread_components - new_components.thread_components)
        retired += len(old.object_components - new_components.object_components)
        self._retired_total += retired
        self._epoch += 1
        project = self._project_stamps(
            new_components, live_threads, live_objects
        )
        stamps = [project(stamp) for stamp in live_stamps]
        self._bind_components(new_components)
        return stamps

    def _project_stamps(
        self,
        new_components: ClockComponents,
        live_threads: AbstractSet[Vertex],
        live_objects: AbstractSet[Vertex],
    ):
        """Project the endpoint clock dicts onto a subset of the layout.

        Prunes each stamp dict to its live endpoints, re-expresses every
        kept vector over ``new_components`` by gathering the surviving
        slots, and returns the projection function so the caller can run
        its own stamps through the same identity-keyed cache (see
        :meth:`_rebase_stamps` for why the cache is keyed by ``id`` and
        why ``keep`` pins the inputs).

        Every stamp - plain stamps, stale ledger entries lazy extension left in an
        append ancestor, wrappers from earlier rotations, materialised
        or not - takes one uniform path: wrap in a
        :class:`_ProjectedStamp` around the stamp *as is*, sharing the
        single relayout built here.  No per-stamp slot work, no
        per-basis map builds, no composition: count-based padding at
        materialisation absorbs stale bases, and chaining absorbs
        prior wrappers.  That uniformity is what flattens rotation p99
        - the rotation itself is ``O(live)`` constant-size allocations
        plus one ``O(k)`` gather compile, and deferred gathers are paid
        only for stamps somebody actually reads again (for ledger
        stamps, usually nobody does).
        """
        old = self._components
        old_index = old._index
        old_threads = len(old.thread_components)
        old_size = old.size
        gather = [old_index[c] for c in new_components.ordered]
        relayout = (_values_gather(gather), old_size, old_threads)
        projected: Dict[int, Timestamp] = {}
        keep: List[Timestamp] = []
        make = _ProjectedStamp._make

        def project(stamp: Timestamp) -> Timestamp:
            cached = projected.get(id(stamp))
            if cached is None:
                cached = make(new_components, stamp, relayout)
                projected[id(stamp)] = cached
                keep.append(stamp)
            return cached

        self._thread_stamps = {
            vertex: project(stamp)
            for vertex, stamp in self._thread_stamps.items()
            if vertex in live_threads
        }
        self._object_stamps = {
            vertex: project(stamp)
            for vertex, stamp in self._object_stamps.items()
            if vertex in live_objects
        }
        return project

    def _rebase_stamps(self, new_components: ClockComponents) -> None:
        """Re-express every stored clock over an append of the current set.

        ``new_components`` must be what :meth:`ClockComponents.extended`
        produces: new threads after the old thread block, new objects at
        the end, relative order preserved.  The rebase is then three
        slices and two zero pads per stored vector instead of a per-slot
        identity lookup - the difference between component growth being
        free and it dominating the online warm-up phase.

        Threads and objects frequently share one stamp object (the
        kernel stores the same instance for both endpoints of an event),
        so rebased results are cached per input stamp to preserve that
        sharing - the ``object_stamp is thread_stamp`` fast path in
        :meth:`observe` depends on it.  The cache is keyed by stamp
        *identity* (``id``), not value: hashing a ``k``-slot tuple per
        stored stamp would cost more than the rebase itself, and
        identity is exactly what the cache must preserve.  The input
        stamps stay referenced by the two stamp dicts (and ``keep``) for
        the duration, so ids cannot be recycled mid-rebase.
        """
        old = self._components
        old_threads = len(old.thread_components)
        old_size = old.size
        added_threads = len(new_components.thread_components) - old_threads
        thread_pad = (0,) * added_threads
        object_pad = (0,) * (new_components.size - old_size - added_threads)
        rebased: Dict[int, Timestamp] = {}
        keep: List[Timestamp] = []
        # The pad as a relayout (sentinel old_size reads zero), for
        # re-wrapping unmaterialised projections; built lazily since most
        # extensions never meet one.
        pad_relayout: List[Optional[tuple]] = [None]

        def rebase(stamp: Timestamp) -> Timestamp:
            cached = rebased.get(id(stamp))
            if cached is None:
                if type(stamp) is _ProjectedStamp and stamp._source is not None:
                    # An unmaterialised projection stays lazy: an eager pad
                    # here would force it and hand the rotation's deferred
                    # gather bill to the very next component extension.
                    # Chaining keeps the extension O(1) per wrapper.
                    if pad_relayout[0] is None:
                        pad_relayout[0] = (
                            _values_gather(
                                tuple(range(old_threads))
                                + (old_size,) * added_threads
                                + tuple(range(old_threads, old_size))
                                + (old_size,) * len(object_pad)
                            ),
                            old_size,
                            old_threads,
                        )
                    cached = _ProjectedStamp._make(
                        new_components, stamp, pad_relayout[0]
                    )
                else:
                    values = stamp._values
                    cached = Timestamp._from_trusted(
                        new_components,
                        values[:old_threads]
                        + thread_pad
                        + values[old_threads:]
                        + object_pad,
                    )
                rebased[id(stamp)] = cached
                keep.append(stamp)
            return cached

        for vertex, stamp in self._thread_stamps.items():
            self._thread_stamps[vertex] = rebase(stamp)
        for vertex, stamp in self._object_stamps.items():
            self._object_stamps[vertex] = rebase(stamp)

    def reset(self) -> None:
        """Forget all clock state."""
        self._thread_stamps.clear()
        self._object_stamps.clear()
