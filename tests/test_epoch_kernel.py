"""The epoch-rotating clock kernel and the lifecycle-aware EpochClock.

Covers the three new kernel capabilities - append-only component growth
(``extend_components``), epoch rotation with slot compaction
(``rotate_epoch``), and the re-timestamping invariant check - plus the
EpochClock ledger semantics (FIFO expiry per pair, stable tokens across
rotations, causality queries on live events), and the batch entry
points at those lifecycle edges (growth and rotation between batches,
stamp sharing at write-back, pickle round-trips mid-stream), and the
rotation path (delta or replay) the clock picks for each rotation.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClockComponents, ClockKernel, EpochClock, Timestamp, ordering
from repro.core.timestamping import verify_retimestamping
from repro.exceptions import ClockError, ComponentError, RetimestampingError
from repro.obs.registry import MetricsRegistry, install as obs_install
from repro.online.adaptive import LifecycleClockDriver, WindowedPopularityMechanism


class TestKernelExtension:
    def test_extension_appends_zero_slots(self):
        kernel = ClockKernel(ClockComponents(thread_components=["T1"]))
        first = kernel.observe("T1", "O1")
        assert first.values == (1,)
        kernel.extend_components(object_components=["O2"])
        assert kernel.components.size == 2
        # The pre-extension clock is re-based: old value kept, new slot zero.
        assert kernel.thread_stamp("T1").values == (1, 0)
        second = kernel.observe("T1", "O2")
        assert second.values == (2, 1)

    def test_extension_matches_from_scratch_when_new_component_was_unused(self):
        """Extending before a component's first event == having it all along."""
        events = [("T1", "O1"), ("T1", "O2"), ("T2", "O2")]
        later = [("T2", "O3"), ("T1", "O3")]
        grown = ClockKernel(ClockComponents(thread_components=["T1", "T2"]))
        for thread, obj in events:
            grown.observe(thread, obj)
        grown.extend_components(object_components=["O3"])
        fresh = ClockKernel(
            ClockComponents(thread_components=["T1", "T2"], object_components=["O3"])
        )
        for thread, obj in events:
            fresh.observe(thread, obj)
        grown_tail = [grown.observe(t, o) for t, o in later]
        fresh_tail = [fresh.observe(t, o) for t, o in later]
        for grown_stamp, fresh_stamp in zip(grown_tail, fresh_tail):
            assert grown_stamp.as_dict() == fresh_stamp.as_dict()

    def test_extension_is_noop_for_known_components(self):
        kernel = ClockKernel(ClockComponents(thread_components=["T1"]))
        components = kernel.components
        assert kernel.extend_components(thread_components=["T1"]) is components

    def test_thread_slots_precede_object_slots_after_extension(self):
        kernel = ClockKernel(ClockComponents(object_components=["O1"]))
        kernel.observe("T1", "O1")
        kernel.extend_components(thread_components=["T2"])
        # Convention: threads first; O1's old value must follow T2's zero.
        assert kernel.components.ordered == ("T2", "O1")
        assert kernel.object_stamp("O1").values == (0, 1)


class TestKernelRotation:
    def test_rotation_counts_retirements_and_resets_state(self):
        kernel = ClockKernel(
            ClockComponents(thread_components=["T1", "T2"], object_components=["O1"])
        )
        kernel.observe("T1", "O1")
        retired = kernel.rotate_epoch(ClockComponents(thread_components=["T1"]))
        assert retired == 2  # T2 and O1
        assert kernel.epoch == 1
        assert kernel.retired_total == 2
        assert kernel.components.size == 1
        # All clock state is discarded; the caller replays the live window.
        assert kernel.thread_stamp("T1").values == (0,)

    def test_rotation_to_superset_retires_nothing(self):
        kernel = ClockKernel(ClockComponents(thread_components=["T1"]))
        retired = kernel.rotate_epoch(
            ClockComponents(thread_components=["T1", "T2"])
        )
        assert retired == 0
        assert kernel.retired_total == 0
        assert kernel.epoch == 1


THREAD_COMPS = [f"T{i}" for i in range(30)]
OBJECT_COMPS = [f"O{i}" for i in range(20)]


def wide_components():
    return ClockComponents(THREAD_COMPS, OBJECT_COMPS)


@st.composite
def batched_pairs(draw, batches=4, batch_size=24):
    """A list of insert batches over the wide component set."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    return [
        [
            (
                f"T{rng.randrange(len(THREAD_COMPS))}",
                f"O{rng.randrange(len(OBJECT_COMPS))}",
            )
            for _ in range(batch_size)
        ]
        for _ in range(draw(st.integers(min_value=2, max_value=batches)))
    ]


def drive_batches(kernel, batches):
    """Timestamp every batch; returns the stamp values."""
    out = []
    for batch in batches:
        out.extend(stamp.values for stamp in kernel.timestamp_batch(batch))
    return out


def drive_per_event(kernel, batches):
    return [kernel.observe(t, o).values for batch in batches for t, o in batch]


def assert_same_clocks(kernel, reference):
    for thread in THREAD_COMPS:
        assert (
            kernel.thread_stamp(thread).values
            == reference.thread_stamp(thread).values
        ), thread
    for obj in OBJECT_COMPS:
        assert (
            kernel.object_stamp(obj).values
            == reference.object_stamp(obj).values
        ), obj


class TestBatchLifecycleEdges:
    """The batch loops agree with per-event ``observe`` across lifecycle edges."""

    @settings(max_examples=25, deadline=None)
    @given(batches=batched_pairs(), grow_at=st.integers(0, 3))
    def test_extend_components_between_batches(self, batches, grow_at):
        batched = ClockKernel(wide_components())
        reference = ClockKernel(wide_components())
        batched_values, reference_values = [], []
        for index, batch in enumerate(batches):
            if index == min(grow_at, len(batches) - 1):
                for kernel in (batched, reference):
                    kernel.extend_components(
                        thread_components=("T90",), object_components=("O90",)
                    )
            batched_values.extend(drive_batches(batched, [batch]))
            reference_values.extend(drive_per_event(reference, [batch]))
        assert batched_values == reference_values
        assert_same_clocks(batched, reference)

    @settings(max_examples=25, deadline=None)
    @given(batches=batched_pairs())
    def test_rotate_epoch_between_batches(self, batches):
        """Nothing of the old epoch's clocks leaks past a rotation."""
        kernel = ClockKernel(wide_components())
        drive_batches(kernel, batches[:1])
        kernel.rotate_epoch(wide_components())
        fresh = ClockKernel(wide_components())
        assert drive_batches(kernel, batches) == drive_per_event(fresh, batches)
        assert_same_clocks(kernel, fresh)

    @settings(max_examples=25, deadline=None)
    @given(batches=batched_pairs())
    def test_pickle_round_trip_continues_identically(self, batches):
        """A kernel resumed from its pickle stamps exactly like the original."""
        kernel = ClockKernel(wide_components())
        fold = kernel.advance_batch(batches[0])
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.components.ordered == kernel.components.ordered
        assert clone.advance_batch(batches[1], fold) == kernel.advance_batch(
            batches[1], fold
        )
        assert drive_batches(clone, batches[2:]) == drive_batches(
            kernel, batches[2:]
        )
        assert_same_clocks(clone, kernel)

    def test_batch_write_back_shares_endpoint_stamps(self):
        """Both endpoints of an entity's last event hold one stamp instance.

        The per-event slot-delta fast path keys on that identity
        (``object_stamp is thread_stamp``), so the batch write-back and
        a pickle round-trip must both preserve it.
        """
        for batch in (ClockKernel.timestamp_batch, ClockKernel.advance_batch):
            kernel = ClockKernel(wide_components())
            batch(kernel, [("T0", "O0"), ("T1", "O1"), ("T0", "O1")])
            assert kernel.thread_stamp("T0") is kernel.object_stamp("O1")
            assert kernel.object_stamp("O0") is not kernel.thread_stamp("T0")
            clone = pickle.loads(pickle.dumps(kernel))
            assert clone.thread_stamp("T0") is clone.object_stamp("O1")
            assert clone.thread_stamp("T0").values == (
                kernel.thread_stamp("T0").values
            )


class TestVerifyRetimestamping:
    def test_accepts_identical_verdicts(self):
        components = ClockComponents(thread_components=["T1", "T2"])
        a1 = Timestamp(components, [1, 0])
        b1 = Timestamp(components, [0, 1])
        verify_retimestamping([a1, b1], [a1, b1], components)

    def test_rejects_length_mismatch(self):
        components = ClockComponents(thread_components=["T1"])
        stamp = Timestamp(components, [1])
        with pytest.raises(RetimestampingError):
            verify_retimestamping([stamp, stamp], [stamp], components)

    def test_rejects_foreign_component_set(self):
        components = ClockComponents(thread_components=["T1"])
        other = ClockComponents(thread_components=["T1"])
        stamp = Timestamp(other, [1])
        with pytest.raises(RetimestampingError):
            verify_retimestamping([stamp], [stamp], components)

    def test_rejects_verdict_flip(self):
        before_components = ClockComponents(thread_components=["T1", "T2"])
        concurrent_a = Timestamp(before_components, [1, 0])
        concurrent_b = Timestamp(before_components, [0, 1])
        after_components = ClockComponents(thread_components=["T1"])
        ordered_a = Timestamp(after_components, [1])
        ordered_b = Timestamp(after_components, [2])
        assert ordering(concurrent_a, concurrent_b) == "concurrent"
        with pytest.raises(RetimestampingError):
            verify_retimestamping(
                [concurrent_a, concurrent_b],
                [ordered_a, ordered_b],
                after_components,
            )


class TestEpochClock:
    def test_observe_requires_coverage(self):
        clock = EpochClock()
        with pytest.raises(ComponentError):
            clock.observe("T1", "O1")

    def test_tokens_are_stable_across_rotation(self):
        clock = EpochClock(
            ClockComponents(thread_components=["T1", "T2"]), check_invariant=True
        )
        first = clock.observe("T1", "O1")
        second = clock.observe("T2", "O2")
        third = clock.observe("T1", "O2")
        assert clock.relation(first, third) == "before"  # same thread
        assert clock.relation(second, third) == "before"  # same object
        assert clock.relation(first, second) == "concurrent"
        clock.expire("T1", "O1")
        retired = clock.rotate(
            ClockComponents(thread_components=["T1", "T2"], object_components=["O2"])
        )
        assert retired == 0
        assert clock.live_tokens() == (second, third)
        assert clock.relation(second, third) == "before"
        with pytest.raises(ClockError):
            clock.timestamp(first)

    def test_expire_is_fifo_per_pair(self):
        clock = EpochClock(ClockComponents(thread_components=["T1"]))
        first = clock.observe("T1", "O1")
        second = clock.observe("T1", "O1")
        assert clock.expire("T1", "O1") == first
        assert clock.expire("T1", "O1") == second
        with pytest.raises(ClockError):
            clock.expire("T1", "O1")

    def test_rotation_compacts_retired_slots(self):
        clock = EpochClock(
            ClockComponents(thread_components=["T1", "T2"]), check_invariant=True
        )
        token = clock.observe("T1", "O1")
        clock.observe("T2", "O2")
        clock.expire("T2", "O2")
        retired = clock.rotate(ClockComponents(thread_components=["T1"]))
        assert retired == 1
        assert clock.size == 1
        assert clock.retired_total == 1
        assert clock.epoch == 1
        # The surviving event's stamp lives in the compacted basis.
        assert clock.timestamp(token).components.size == 1

    def test_rotation_without_coverage_raises(self):
        clock = EpochClock(ClockComponents(thread_components=["T1"]))
        clock.observe("T1", "O1")
        with pytest.raises(ComponentError):
            clock.rotate(ClockComponents(thread_components=["T9"]))

    def test_extension_preserves_live_verdicts(self):
        clock = EpochClock(ClockComponents(thread_components=["T1", "T2"]))
        a = clock.observe("T1", "O1")
        b = clock.observe("T2", "O1")
        before = clock.relation(a, b)
        clock.extend(object_components=("O1",))
        assert clock.size == 3
        assert clock.relation(a, b) == before
        c = clock.observe("T3", "O1")  # covered by the new object component
        assert clock.relation(b, c) == "before"


class TestRotationPathChoice:
    """The clock picks delta or replay from the rotation alone.

    The ``clock.rotation.delta`` / ``clock.rotation.replay`` counters
    are the observable record of which path ran, so a gate that sent
    every rotation to replay (or projected a rotation it must replay)
    fails here rather than only in the benchmark harness.
    """

    @staticmethod
    def counted(run):
        registry = MetricsRegistry(origin="test-rotation-path")
        previous = obs_install(registry)
        try:
            run()
        finally:
            obs_install(previous)
        counters = dict(registry.counters())
        return (
            counters.get("clock.rotation.delta", 0),
            counters.get("clock.rotation.replay", 0),
        )

    @staticmethod
    def churn(check_invariant):
        """A windowed-popularity churn stream: ID space far above the
        window, so expiries retire dead endpoints (pure retirements)."""
        rng = random.Random(20_190_707)
        driver = LifecycleClockDriver(
            WindowedPopularityMechanism(), check_invariant=check_invariant
        )
        live = []
        for _ in range(120):
            pair = (f"t{rng.randrange(40)}", f"o{rng.randrange(40)}")
            driver.observe(*pair)
            live.append(pair)
            if len(live) > 8:
                driver.expire(*live.pop(0))

    def test_pure_retirements_take_the_delta_path(self):
        delta, replay = self.counted(lambda: self.churn(False))
        assert delta > 0
        assert replay == 0

    def test_check_invariant_replays_every_rotation(self):
        delta, replay = self.counted(lambda: self.churn(True))
        assert delta == 0
        assert replay > 0
        # Same stream, same rotations: only the path differs.
        assert replay == self.counted(lambda: self.churn(False))[0]

    @pytest.mark.parametrize(
        "new_threads",
        [["T1", "T3"], ["T2"]],
        ids=["adds-component", "retires-live-endpoint"],
    )
    def test_other_rotations_replay(self, new_threads):
        clock = EpochClock(ClockComponents(["T1", "T2"], ["O1"]))
        clock.observe("T1", "O1")
        clock.observe("T2", "O1")
        new_components = ClockComponents(new_threads, ["O1"])
        assert self.counted(lambda: clock.rotate(new_components)) == (0, 1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EpochClock(ClockComponents(["T1"]), rotation="delta"),
            lambda: EpochClock(ClockComponents(["T1"]), strict=False),
        ],
        ids=["clock-rotation", "clock-strict"],
    )
    def test_clock_takes_no_path_knobs(self, build):
        with pytest.raises(TypeError):
            build()

    def test_driver_takes_no_rotation_knob(self):
        with pytest.raises(TypeError):
            LifecycleClockDriver(WindowedPopularityMechanism(), rotation="replay")
