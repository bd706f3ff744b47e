"""The batched hot-path pipeline: bit-identity and resume.

Three layers of the chunked execution path are pinned down here:

* **mechanisms** - hypothesis property: for every registered mechanism,
  driving a random lifecycle stream (inserts, multiset-consistent
  expires, epoch markers) through ``observe_batch`` chunks of random
  sizes leaves *identical* state - decisions, component order, revealed
  graph, counters - to per-event ``observe``/``expire``/``end_epoch``;
* **kernel** - ``timestamp_batch`` / ``advance_batch`` mint/fold exactly
  what per-event ``observe`` does, across random chunkings and
  mid-stream component extensions;
* **engine** - the run-batched loop carries per-label stamp digests
  under the fingerprint through interrupt/resume mid-run and
  checkpointed restarts (its sample-for-sample agreement with the
  simulator's per-event loop is checked in ``test_engine_lifecycle``).
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import EXTENDED_MECHANISMS
from repro.cli import main
from repro.core.components import ClockComponents
from repro.core.kernel import ClockKernel, fold_stamp_values
from repro.engine import EngineCheckpointManager, EngineConfig, run_engine
from repro.engine.runner import EngineInterrupted
from repro.exceptions import EngineError
from repro.online.adaptive import WindowedPopularityMechanism


# ---------------------------------------------------------------------------
# Strategies: lifecycle op sequences and chunkings
# ---------------------------------------------------------------------------
@st.composite
def lifecycle_ops(draw, max_ops=120, threads=6, objects=6):
    """A random op list: ("insert", t, o) / ("expire", t, o) / ("epoch",).

    Expires are drawn from the current live multiset, so the stream
    contract (never more expires than inserts per pair) holds by
    construction - the adaptive mechanisms enforce it.
    """
    count = draw(st.integers(min_value=1, max_value=max_ops))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    live = []
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.12 and live:
            pair = live.pop(rng.randrange(len(live)))
            ops.append(("expire",) + pair)
        elif roll < 0.18:
            ops.append(("epoch",))
        else:
            pair = (f"T{rng.randrange(threads)}", f"O{rng.randrange(objects)}")
            live.append(pair)
            ops.append(("insert",) + pair)
    return ops


def drive_per_event(mechanism, ops):
    sizes = []
    for op in ops:
        if op[0] == "insert":
            mechanism.observe(op[1], op[2])
            sizes.append(mechanism.clock_size)
        elif op[0] == "expire":
            mechanism.expire(op[1], op[2])
        else:
            mechanism.end_epoch()
    return sizes


def drive_batched(mechanism, ops, chunk_rng):
    """Feed insert runs through observe_batch, chopped at random sizes."""
    sizes = []
    run = []

    def flush():
        while run:
            cut = chunk_rng.randint(1, len(run))
            sizes.extend(mechanism.observe_batch(run[:cut]))
            del run[:cut]

    for op in ops:
        if op[0] == "insert":
            run.append((op[1], op[2]))
        elif op[0] == "expire":
            flush()
            mechanism.expire(op[1], op[2])
        else:
            flush()
            mechanism.end_epoch()
    flush()
    return sizes


def mechanism_state(mechanism):
    return (
        mechanism.decisions,
        mechanism.retirements,
        mechanism.components().ordered,
        mechanism.summary(),
        sorted(map(str, mechanism.revealed_graph.edges())),
    )


class TestObserveBatchBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(ops=lifecycle_ops(), chunk_seed=st.integers(0, 2**16))
    def test_all_registered_mechanisms(self, ops, chunk_seed):
        for label, factory in EXTENDED_MECHANISMS.items():
            reference = factory(11)
            batched = factory(11)
            ref_sizes = drive_per_event(reference, ops)
            batch_sizes = drive_batched(
                batched, ops, random.Random(chunk_seed)
            )
            assert ref_sizes == batch_sizes, label
            assert mechanism_state(reference) == mechanism_state(batched), label

    def test_base_fallback_when_hooks_overridden(self):
        """A subclass with a lifecycle hook must not take the fast path."""
        from repro.online.naive import NaiveMechanism

        seen = []

        class Hooked(NaiveMechanism):
            def _on_observe(self, thread, obj):
                seen.append((thread, obj))

        mechanism = Hooked()
        mechanism.observe_batch([("T0", "O0"), ("T1", "O0")])
        assert seen == [("T0", "O0"), ("T1", "O0")]

    def test_base_fallback_when_observe_overridden(self):
        """Overriding observe() itself also disables every fast path."""
        from repro.online.hybrid import HybridMechanism
        from repro.online.naive import NaiveMechanism
        from repro.online.popularity import PopularityMechanism

        for base in (NaiveMechanism, PopularityMechanism, HybridMechanism):
            calls = []

            class Audited(base):
                def observe(self, thread, obj):
                    calls.append((thread, obj))
                    return super().observe(thread, obj)

            mechanism = Audited()
            mechanism.observe_batch([("T0", "O0"), ("T1", "O0")])
            assert calls == [("T0", "O0"), ("T1", "O0")], base.__name__

    def test_decision_accessors(self):
        from repro.online.naive import NaiveMechanism

        mechanism = NaiveMechanism()
        mechanism.observe_batch([("T0", "O0"), ("T0", "O1"), ("T1", "O0")])
        assert mechanism.decision_count == 2
        assert mechanism.decisions_since(1) == mechanism.decisions[1:]


# ---------------------------------------------------------------------------
# Kernel batch entry points
# ---------------------------------------------------------------------------
@st.composite
def kernel_runs(draw):
    """(components, pair sequence, extension points) for kernel replays."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    threads = [f"T{i}" for i in range(8)]
    objects = [f"O{i}" for i in range(8)]
    thread_comps = [t for t in threads[:5]]
    object_comps = [o for o in objects[:4]]
    count = draw(st.integers(min_value=1, max_value=80))
    pairs = [
        (rng.choice(threads[:6]), rng.choice(objects))
        for _ in range(count)
    ]
    # Guarantee coverage under strict mode: each pair needs a component
    # endpoint; force the thread side into the covered prefix when the
    # object missed the component set.
    covered = []
    for thread, obj in pairs:
        if thread not in thread_comps and obj not in object_comps:
            covered.append((rng.choice(thread_comps), obj))
        else:
            covered.append((thread, obj))
    extension_at = draw(st.integers(min_value=0, max_value=count))
    return ClockComponents(thread_comps, object_comps), covered, extension_at


class TestKernelBatchBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(run=kernel_runs(), chunk_seed=st.integers(0, 2**16))
    def test_timestamp_batch_matches_observe(self, run, chunk_seed):
        components, pairs, extension_at = run
        reference = ClockKernel(components)
        ref_stamps = []
        for index, (thread, obj) in enumerate(pairs):
            if index == extension_at:
                reference.extend_components(thread_components=("T6",))
            ref_stamps.append(reference.observe(thread, obj))
        if extension_at == len(pairs):
            reference.extend_components(thread_components=("T6",))
        kernel = ClockKernel(components)
        stamps = []
        rng = random.Random(chunk_seed)
        cursor = 0
        extended = False
        while cursor < len(pairs):
            if not extended and cursor >= extension_at:
                kernel.extend_components(thread_components=("T6",))
                extended = True
            boundary = len(pairs) if extended else extension_at
            cut = min(cursor + rng.randint(1, 17), boundary)
            stamps.extend(kernel.timestamp_batch(pairs[cursor:cut]))
            cursor = cut
        if not extended:
            kernel.extend_components(thread_components=("T6",))
        assert [s.values for s in stamps] == [s.values for s in ref_stamps]
        # The stored per-entity clocks agree too (value-wise).
        for thread, _ in pairs:
            assert (
                kernel.thread_stamp(thread).values
                == reference.thread_stamp(thread).values
            )

    @settings(max_examples=40, deadline=None)
    @given(run=kernel_runs(), chunk_seed=st.integers(0, 2**16))
    def test_advance_batch_matches_fold_event(self, run, chunk_seed):
        components, pairs, _ = run
        reference = ClockKernel(components)
        fold = 0
        for thread, obj in pairs:
            stamp = reference.observe(thread, obj)
            fold = reference.fold_event(fold, stamp, thread, obj)
        kernel = ClockKernel(components)
        batched_fold = 0
        rng = random.Random(chunk_seed)
        cursor = 0
        while cursor < len(pairs):
            cut = min(cursor + rng.randint(1, 17), len(pairs))
            batched_fold = kernel.advance_batch(pairs[cursor:cut], batched_fold)
            cursor = cut
        assert batched_fold == fold
        for thread, _ in pairs:
            assert (
                kernel.thread_stamp(thread).values
                == reference.thread_stamp(thread).values
            )

    def test_strict_batch_raises_and_applies_prefix(self):
        components = ClockComponents(thread_components=["T0"])
        pairs = [("T0", "O0"), ("T1", "O1"), ("T0", "O2")]
        for batch in (ClockKernel.timestamp_batch, ClockKernel.advance_batch):
            kernel = ClockKernel(components)
            with pytest.raises(Exception) as excinfo:
                batch(kernel, pairs)
            assert "not covered" in str(excinfo.value)
            # The covered prefix was applied, like a sequential loop.
            assert kernel.thread_stamp("T0").values == (1,)

    def test_non_strict_batch_merge_only(self):
        components = ClockComponents(thread_components=["T0"])
        pairs = [("T0", "O0"), ("T1", "O0"), ("T0", "O1")]
        reference = ClockKernel(components, strict=False)
        expected = [reference.observe(t, o).values for t, o in pairs]
        kernel = ClockKernel(components, strict=False)
        stamps = kernel.timestamp_batch(pairs)
        assert [s.values for s in stamps] == expected

    def test_fold_is_order_sensitive(self):
        a = fold_stamp_values(fold_stamp_values(0, 1, 2), 3, 4)
        b = fold_stamp_values(fold_stamp_values(0, 3, 4), 1, 2)
        assert a != b


# ---------------------------------------------------------------------------
# Engine stamp digests
# ---------------------------------------------------------------------------
MATRIX_CONFIG = dict(
    scenario="thread-churn",
    num_threads=25,
    num_objects=25,
    density=0.2,
    num_events=900,
    seed=77,
    num_shards=3,
    chunk_size=120,
    mechanisms=("naive", "popularity"),
    include_offline=True,
    timestamps=True,
)


class TestEnginePipelines:
    def test_stamp_digests_present_and_carried(self):
        result = run_engine(EngineConfig(**MATRIX_CONFIG))
        labels = {label for _, label in result.partial.series}
        assert "offline" in labels
        for (shard, label), fragment in result.partial.series.items():
            if label == "offline":
                assert fragment.stamp_digest is None
            else:
                assert fragment.stamp_digest

    def test_timestamps_off_keeps_digest_out_of_fingerprint(self):
        config = EngineConfig(
            **{**MATRIX_CONFIG, "timestamps": False}
        )
        result = run_engine(config)
        assert all(
            fragment.stamp_digest is None
            for fragment in result.partial.series.values()
        )
        assert "stamps=" not in "\n".join(result._canonical_lines())

    def test_timestamps_reject_window_aware_mechanisms(self):
        config = EngineConfig(
            scenario="thread-churn",
            mechanisms=("naive", "adaptive-popularity"),
            timestamps=True,
        )
        with pytest.raises(EngineError, match="append-only"):
            config.validate()

    def test_interrupt_resume_mid_chunk_batched(self, tmp_path):
        reference = run_engine(EngineConfig(**MATRIX_CONFIG))
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        with pytest.raises(EngineInterrupted):
            run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
        resumed = run_engine(config)
        assert resumed.fingerprint() == reference.fingerprint()

    def test_timestamps_key_absent_from_default_signature(self):
        """Pre-existing (timestamp-less) checkpoint dirs stay resumable."""
        config = EngineConfig(**{**MATRIX_CONFIG, "timestamps": False})
        assert "timestamps" not in config.signature()
        assert EngineConfig(**MATRIX_CONFIG).signature()["timestamps"] is True

    def test_timestamps_part_of_signature(self, tmp_path):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        run_engine(config)
        with pytest.raises(EngineError, match="different run configuration"):
            run_engine(dataclasses.replace(config, timestamps=False))


# ---------------------------------------------------------------------------
# Windowed degree estimates (the drift bugfix, flagged)
# ---------------------------------------------------------------------------
class TestWindowedDegrees:
    def test_registered_label(self):
        mechanism = EXTENDED_MECHANISMS["adaptive-popularity-windowed"](0)
        assert isinstance(mechanism, WindowedPopularityMechanism)
        assert mechanism.windowed_degrees
        assert mechanism.name == "adaptive-popularity-windowed"
        assert not EXTENDED_MECHANISMS["adaptive-popularity"](0).windowed_degrees

    def test_windowed_choice_ignores_expired_popularity(self):
        """After a hot object's events expire, its dead degree stops winning.

        Build history where object O-hot accumulates high append-only
        degree, then expire all its events; a fresh uncovered event
        ``(T-new, O-hot)`` must pick the thread side under windowed
        degrees (the object has no live events beyond the current one)
        while the append-only policy still picks the object.
        """

        def history(mechanism):
            for i in range(5):
                mechanism.observe(f"T{i}", "O-hot")
            for i in range(5):
                mechanism.expire(f"T{i}", "O-hot")
            # Give the new thread one live event so its windowed count
            # ties/beats the dead object's.
            mechanism.observe("T-new", "O-fresh")
            return mechanism

        append_only = history(WindowedPopularityMechanism())
        windowed = history(
            WindowedPopularityMechanism(windowed_degrees=True)
        )
        # Un-cover the endpoints under test: retire any component that
        # would cover the probe event.  (The probe pair is chosen so
        # neither mechanism covers it: T-probe never appeared, O-stale
        # accumulated degree but was retired when its events expired.)
        probe = ("T-probe", "O-hot")
        for mechanism in (append_only, windowed):
            assert not mechanism.covers(*probe)
        added_append = append_only.observe(*probe)
        added_windowed = windowed.observe(*probe)
        # Append-only popularity: O-hot has revealed degree 6 vs thread
        # degree 1 -> picks the (dead) object.
        assert added_append == "O-hot"
        # Windowed: O-hot has 1 live event (this one), T-probe has 1 ->
        # tie falls to the thread side, tracking the live regime.
        assert added_windowed == "T-probe"


# ---------------------------------------------------------------------------
# Checkpoint age-based pruning
# ---------------------------------------------------------------------------
class TestMaxAgePrune:
    def _aged_checkpoint_dir(self, tmp_path):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        run_engine(config)
        return config

    def test_prune_max_age_removes_stale_shards(self, tmp_path):
        config = self._aged_checkpoint_dir(tmp_path)
        manager = EngineCheckpointManager.open(config.checkpoint_dir)
        files = manager.shard_files()
        assert files
        stale = files[0]
        old = time.time() - 3600
        os.utime(stale, (old, old))
        removed = manager.prune(max_age=600)
        assert stale in removed
        # Fresh shards and the manifest survive.
        assert set(manager.shard_files()) == set(files) - {0}
        assert (manager.directory / "manifest.json").exists()
        # The pruned shard is simply recomputed: the resumed run still
        # matches a fresh one bit for bit.
        resumed = run_engine(config)
        assert resumed.fingerprint() == run_engine(
            EngineConfig(**MATRIX_CONFIG)
        ).fingerprint()

    def test_prune_without_age_keeps_referenced(self, tmp_path):
        config = self._aged_checkpoint_dir(tmp_path)
        manager = EngineCheckpointManager.open(config.checkpoint_dir)
        count = len(manager.shard_files())
        assert manager.prune() == []
        assert len(manager.shard_files()) == count

    def test_negative_age_rejected(self, tmp_path):
        config = self._aged_checkpoint_dir(tmp_path)
        manager = EngineCheckpointManager.open(config.checkpoint_dir)
        with pytest.raises(EngineError):
            manager.prune(max_age=-1)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCli:
    def test_engine_run_pipeline_timestamps(self, capsys):
        code = main(
            [
                "engine", "run", "--scenario", "thread-churn",
                "--events", "400", "--nodes", "15", "--shards", "2",
                "--chunk-size", "100", "--mechanisms", "naive",
                "--timestamps",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        expected = run_engine(
            EngineConfig(
                scenario="thread-churn", num_threads=15, num_objects=15,
                num_events=400, num_shards=2, chunk_size=100,
                mechanisms=("naive",), timestamps=True,
            )
        ).fingerprint()
        assert f"fingerprint: {expected}" in out.splitlines()

    @pytest.mark.parametrize(
        "argv",
        [
            ["engine", "run", "--scenario", "thread-churn", "--backend", "python"],
            ["engine", "run", "--scenario", "thread-churn", "--rotation", "delta"],
            ["sweep", "ratio", "--scenario", "thread-churn", "--backend", "python"],
            ["engine", "run", "--scenario", "thread-churn", "--pipeline", "batched"],
            ["sweep", "ratio", "--scenario", "thread-churn", "--batch", "64"],
        ],
        ids=[
            "engine-backend", "engine-rotation", "sweep-backend",
            "engine-pipeline", "sweep-batch",
        ],
    )
    def test_kernel_path_options_do_not_exist(self, argv, capsys):
        # One kernel loop, one event loop per driver, and rotation
        # paths the clock picks itself: nothing to select.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_engine_clean_max_age(self, tmp_path, capsys):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), **MATRIX_CONFIG
        )
        run_engine(config)
        for path in EngineCheckpointManager.open(
            config.checkpoint_dir
        ).shard_files().values():
            old = time.time() - 7200
            os.utime(path, (old, old))
        code = main(
            ["engine", "clean", config.checkpoint_dir, "--max-age", "3600"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 3 unreferenced/stale file(s)" in out
