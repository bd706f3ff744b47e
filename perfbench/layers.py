"""Outside-in layer tracing: class-level wrappers with a span stack.

The traced run wraps each layer's public entry points from here, never
from inside ``src/``: a wrapper replaces the method on the class that
defines it, records one span per call (or per generator resume), and
restores the original on exit.  Spans nest on one stack, so a layer's
*self* time is its span time minus the time its child spans cover -
``epoch-hybrid`` calling ``DynamicMatching`` inside ``observe`` lands in
``incremental.*``, not in ``online.*``.

A wrapper costs time of its own.  :func:`calibrate` measures that cost
on an empty wrapped two-argument method (shaped like ``observe(thread,
obj)``) and an empty wrapped generator, split into the part that lands
inside the span and the part that lands in its caller,
and :func:`layer_metrics` subtracts ``calls x cost`` from each span's
and each caller's self time.  ``runner.self_s`` is what remains of the
traced wall time, which is the engine driver's own loop.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

CALL = "call"
GEN = "gen"
ROOT = "runner"


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: The end-to-end metric a change to this layer should move.
    moves: str
    #: Which workloads exercise the layer and which bypass it.
    where: str


_RATE = "norm_events_per_s"
_RSS = "peak_rss_mb"
_ALL = "all workloads"
_NO_DRIFT = "churn-full, phase-window; bypassed by drift-stamp"
_NO_PHASE = "churn-full, drift-stamp; bypassed by phase-window"
_BATCHED = "churn-full, drift-stamp; bypassed by phase-window (per-event loop)"
_PER_EVENT = "phase-window; inside observe_batch for random elsewhere"
_CHURN = "churn-full only"
_PHASE = "phase-window only"
_TRACE = "none (tracing cost)"

#: Every per-layer metric the traced run reports, in report order.
LAYERS: Tuple[LayerMetric, ...] = (
    LayerMetric("streams.gen_s", "s", "lower", _RATE, _ALL),
    LayerMetric("streams.events", "count", "lower", _RATE, _ALL),
    LayerMetric("sharding.route_s", "s", "lower", _RATE, _ALL),
    LayerMetric("sharding.items", "count", "lower", _RATE, _ALL),
    LayerMetric("sharding.mean_run_len", "events", "higher", _RATE,
                "short in churn-full, up to 4096 in drift-stamp, 1 in phase-window"),
    LayerMetric("online.observe_batch_s", "s", "lower", _RATE, _BATCHED),
    LayerMetric("online.observe_batch.calls", "count", "lower", _RATE, _BATCHED),
    LayerMetric("online.observe_s", "s", "lower", _RATE, _PER_EVENT),
    LayerMetric("online.observe.calls", "count", "lower", _RATE, _PER_EVENT),
    LayerMetric("online.expire_s", "s", "lower", _RATE, _NO_DRIFT),
    LayerMetric("online.expire.calls", "count", "lower", _RATE, _NO_DRIFT),
    LayerMetric("online.end_epoch_s", "s", "lower", _RATE, _PHASE),
    LayerMetric("online.end_epoch.calls", "count", "lower", _RATE, _PHASE),
    LayerMetric("online.decisions", "count", "lower", _RATE, _ALL),
    LayerMetric("online.retired", "count", "lower", _RATE, _PHASE),
    LayerMetric("incremental.add_s", "s", "lower", _RATE, _NO_DRIFT),
    LayerMetric("incremental.add.calls", "count", "lower", _RATE, _NO_DRIFT),
    LayerMetric("incremental.remove_s", "s", "lower", _RATE, _NO_DRIFT),
    LayerMetric("incremental.remove.calls", "count", "lower", _RATE, _NO_DRIFT),
    LayerMetric("metrics.sketch_s", "s", "lower", _RATE, _NO_DRIFT),
    LayerMetric("metrics.stats_s", "s", "lower", _RATE, _NO_DRIFT),
    LayerMetric("metrics.updates", "count", "lower", _RATE, _NO_DRIFT),
    LayerMetric("kernel.advance_s", "s", "lower", _RATE, _NO_PHASE),
    LayerMetric("kernel.advance.calls", "count", "lower", _RATE, _NO_PHASE),
    LayerMetric("kernel.events", "count", "lower", _RATE, _NO_PHASE),
    LayerMetric("kernel.mean_dim", "components", "lower", _RSS, _NO_PHASE),
    LayerMetric("kernel.extend_s", "s", "lower", _RATE, _NO_PHASE),
    LayerMetric("kernel.extend.calls", "count", "lower", _RATE, _NO_PHASE),
    LayerMetric("checkpoint.save_s", "s", "lower", _RATE, _CHURN),
    LayerMetric("checkpoint.save.calls", "count", "lower", _RATE, _CHURN),
    LayerMetric("checkpoint.load_s", "s", "lower", _RATE, _CHURN),
    LayerMetric("checkpoint.bytes", "bytes", "lower", _RSS, _CHURN),
    LayerMetric("results.merge_s", "s", "lower", _RATE, _ALL),
    LayerMetric("results.merge.calls", "count", "lower", _RATE, _ALL),
    LayerMetric("runner.self_s", "s", "lower", _RATE, _ALL),
    LayerMetric("trace.overhead_s", "s", "lower", _TRACE, _ALL),
    LayerMetric("trace.residual_s", "s", "lower", _TRACE, _ALL),
    LayerMetric("trace.calls", "count", "lower", _TRACE, _ALL),
)


class Tracer:
    """Per-layer totals and the span stack of one traced run.

    A stack frame is ``[key, child_elapsed, child_calls, child_resumes]``:
    a plain list, because the wrappers touch it on every call.
    """

    def __init__(self) -> None:
        self.root: List[Any] = [ROOT, 0.0, 0, 0]
        self.stack: List[List[Any]] = [self.root]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.kid_calls: Dict[str, int] = defaultdict(int)
        self.kid_resumes: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.kinds: Dict[str, str] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.mechanisms: List[Any] = []

    def wrap_call(
        self,
        key: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with one ``key`` span per call.

        A call made while ``key`` is already the innermost span is passed
        straight through: that is a ``super()`` delegation inside one
        layer, not a second call into it.  ``before(tracer, args)`` and
        ``after(tracer, args)`` run outside the span, for counters.
        """
        self.kinds[key] = CALL
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        kid_calls = self.kid_calls
        kid_resumes = self.kid_resumes

        def wrapper(*args, **kwargs):
            if stack[-1][0] == key:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            frame = [key, 0.0, 0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[key] += elapsed - frame[1]
                calls[key] += 1
                kid_calls[key] += frame[2]
                kid_resumes[key] += frame[3]
                parent = stack[-1]
                parent[1] += elapsed
                parent[2] += 1
                if after is not None:
                    after(self, args)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_gen(
        self,
        key: str,
        fn: Callable,
        on_item: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` (returning an iterator) with one ``key`` span per resume."""

        def wrapper(*args, **kwargs):
            return self.traced_iter(key, fn(*args, **kwargs), on_item)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def traced_iter(
        self, key: str, iterator: Iterator, on_item: Optional[Callable] = None
    ) -> Iterator:
        self.kinds[key] = GEN
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        items = self.items
        kid_calls = self.kid_calls
        kid_resumes = self.kid_resumes
        advance = iterator.__next__
        try:
            while True:
                frame = [key, 0.0, 0, 0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = advance()
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    self_s[key] += elapsed - frame[1]
                    calls[key] += 1
                    kid_calls[key] += frame[2]
                    kid_resumes[key] += frame[3]
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[3] += 1
                items[key] += 1
                if on_item is not None:
                    on_item(self, item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


# ---------------------------------------------------------------------------
# Counter hooks (run outside the spans)
# ---------------------------------------------------------------------------
def _count_group_item(tracer: Tracer, item) -> None:
    # split_runs_group yields (shard, consumed, run | event | None).
    payload = item[2]
    if type(payload) is list:
        tracer.counters["runs"] += 1
        tracer.counters["run_events"] += len(payload)


def _count_split_item(tracer: Tracer, item) -> None:
    # split yields (shard, event); the per-event loop feeds each insert alone.
    if item[1].is_insert:
        tracer.counters["runs"] += 1
        tracer.counters["run_events"] += 1


def _count_advance(tracer: Tracer, args) -> None:
    kernel, pairs = args[0], args[1]
    tracer.counters["kernel_events"] += len(pairs)
    tracer.counters["kernel_dims"] += kernel.components.size


def _count_saved_bytes(tracer: Tracer, args) -> None:
    manager, checkpoint = args[0], args[1]
    path = manager.directory / f"shard-{checkpoint.shard_id}.pickle"
    tracer.counters["checkpoint_bytes"] += path.stat().st_size


#: (layer key, module, class, method, kind, hook) for every wrapped entry
#: point that is not a mechanism method.
_TARGETS = (
    ("streams.gen", "repro.computation.registry", "Scenario", "build", GEN, None),
    ("sharding.route", "repro.engine.sharding", "StreamSharder",
     "split_runs_group", GEN, _count_group_item),
    ("sharding.route", "repro.engine.sharding", "StreamSharder", "split", GEN,
     _count_split_item),
    ("incremental.add", "repro.graph.incremental", "DynamicMatching", "add_edge",
     CALL, None),
    ("incremental.remove", "repro.graph.incremental", "DynamicMatching",
     "remove_edge", CALL, None),
    ("metrics.sketch", "repro.analysis.metrics", "QuantileSketch", "update", CALL,
     None),
    ("metrics.stats", "repro.analysis.metrics", "RunningStats", "update", CALL, None),
    ("kernel.advance", "repro.core.kernel", "ClockKernel", "advance_batch", CALL,
     ("before", _count_advance)),
    ("kernel.extend", "repro.core.kernel", "ClockKernel", "extend_components", CALL,
     None),
    ("checkpoint.save", "repro.engine.checkpoint", "EngineCheckpointManager", "save",
     CALL, ("after", _count_saved_bytes)),
    ("checkpoint.load", "repro.engine.checkpoint", "EngineCheckpointManager", "load",
     CALL, None),
    ("results.merge", "repro.engine.results", "PartialResult", "merge", CALL, None),
)

#: Mechanism methods, wrapped on whichever class in the hierarchy defines them.
_MECHANISM_METHODS = ("observe_batch", "observe", "expire", "end_epoch")


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


@contextmanager
def traced(tracer: Tracer):
    """Install every layer wrapper for the duration of the block.

    Each wrapper replaces the attribute on the class that *defines* it,
    so identity checks such as ``cls.observe is not
    OnlineMechanism.observe`` (the mechanisms' fast-path guards) still
    compare equal objects and the same code paths run as untraced.
    """
    importlib.import_module("repro.analysis.experiments")  # every mechanism
    from repro.online.base import OnlineMechanism

    saved: List[Tuple[type, str, Any]] = []

    def replace(owner: type, name: str, wrapper: Callable) -> None:
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    try:
        for key, module, cls_name, method, kind, hook in _TARGETS:
            owner = getattr(importlib.import_module(module), cls_name)
            original = owner.__dict__[method]
            if kind == GEN:
                wrapper = tracer.wrap_gen(key, original, hook)
            elif hook is None:
                wrapper = tracer.wrap_call(key, original)
            elif hook[0] == "before":
                wrapper = tracer.wrap_call(key, original, before=hook[1])
            else:
                wrapper = tracer.wrap_call(key, original, after=hook[1])
            replace(owner, method, wrapper)
        for owner in _subclasses(OnlineMechanism):
            for method in _MECHANISM_METHODS:
                if method in owner.__dict__:
                    replace(owner, method, tracer.wrap_call(
                        f"online.{method}", owner.__dict__[method]
                    ))
        original_init = OnlineMechanism.__dict__["__init__"]

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            tracer.mechanisms.append(self)

        replace(OnlineMechanism, "__init__", tracking_init)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# Wrapper-cost calibration
# ---------------------------------------------------------------------------
class Calibration(NamedTuple):
    """Seconds a wrapper adds per call, split by where they land."""

    call_inner: float
    call_outer: float
    gen_inner: float
    gen_outer: float

    def inner(self, kind: str) -> float:
        return self.call_inner if kind == CALL else self.gen_inner

    def per_call(self, kind: str) -> float:
        if kind == CALL:
            return self.call_inner + self.call_outer
        return self.gen_inner + self.gen_outer


class _Target:
    """A method shaped like the wrapped ones: ``observe(thread, obj)``."""

    def noop(self, first, second):
        return first


def _count_up(limit):
    for value in range(limit):
        yield value


def _calibrate_once(count: int) -> Tuple[float, float, float, float]:
    loop = range(count)
    start = perf_counter()
    for value in loop:
        pass
    empty = perf_counter() - start

    target = _Target()
    start = perf_counter()
    for value in loop:
        target.noop(value, value)
    bare_call = perf_counter() - start

    tracer = Tracer()
    _Target.noop = tracer.wrap_call("calibrate", _Target.__dict__["noop"])
    try:
        start = perf_counter()
        for value in loop:
            target.noop(value, value)
        wrapped_call = perf_counter() - start
    finally:
        _Target.noop = _Target.noop.__wrapped__
    call_total = (wrapped_call - bare_call) / count
    call_inner = (tracer.self_s["calibrate"] - (bare_call - empty)) / count

    start = perf_counter()
    for value in _count_up(count):
        pass
    bare_gen = perf_counter() - start

    tracer = Tracer()
    start = perf_counter()
    for value in tracer.traced_iter("calibrate", _count_up(count)):
        pass
    wrapped_gen = perf_counter() - start
    gen_total = (wrapped_gen - bare_gen) / count
    gen_inner = (tracer.self_s["calibrate"] - (bare_gen - empty)) / count
    return call_inner, call_total - call_inner, gen_inner, gen_total - gen_inner


def calibrate(count: int = 100_000, trials: int = 7) -> Calibration:
    """Median wrapper cost over ``trials`` timings of ``count`` empty calls."""
    samples = [_calibrate_once(count) for _ in range(trials)]
    return Calibration(*(
        max(0.0, statistics.median(column)) for column in zip(*samples)
    ))


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced run
# ---------------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    calibration: Calibration,
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every :data:`LAYERS` metric, with wrapper cost subtracted."""
    kinds = tracer.kinds

    def self_time(key: str) -> float:
        if key not in tracer.calls:
            return 0.0
        return (
            tracer.self_s[key]
            - tracer.calls[key] * calibration.inner(kinds[key])
            - tracer.kid_calls[key] * calibration.call_outer
            - tracer.kid_resumes[key] * calibration.gen_outer
        )

    root = tracer.root
    runner_self = (
        traced_wall
        - root[1]
        - root[2] * calibration.call_outer
        - root[3] * calibration.gen_outer
    )
    total_calls = sum(tracer.calls.values())
    wrapper_cost = sum(
        count * calibration.per_call(kinds[key])
        for key, count in tracer.calls.items()
    )
    counters = tracer.counters
    advance_calls = tracer.calls.get("kernel.advance", 0)
    metrics = {
        "streams.gen_s": self_time("streams.gen"),
        "streams.events": tracer.items.get("streams.gen", 0),
        "sharding.route_s": self_time("sharding.route"),
        "sharding.items": tracer.items.get("sharding.route", 0),
        "sharding.mean_run_len": (
            counters["run_events"] / counters["runs"] if counters["runs"] else 0.0
        ),
        "online.decisions": sum(m.decision_count for m in tracer.mechanisms),
        "online.retired": sum(m.retired_total for m in tracer.mechanisms),
        "metrics.sketch_s": self_time("metrics.sketch"),
        "metrics.stats_s": self_time("metrics.stats"),
        "metrics.updates": tracer.calls.get("metrics.stats", 0),
        "kernel.events": counters["kernel_events"],
        "kernel.mean_dim": (
            counters["kernel_dims"] / advance_calls if advance_calls else 0.0
        ),
        "checkpoint.load_s": self_time("checkpoint.load"),
        "checkpoint.bytes": counters["checkpoint_bytes"],
        "runner.self_s": runner_self,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.residual_s": traced_wall - wrapper_cost - untraced_wall,
        "trace.calls": total_calls,
    }
    for key in (
        "online.observe_batch", "online.observe", "online.expire",
        "online.end_epoch", "incremental.add", "incremental.remove",
        "kernel.advance", "kernel.extend", "checkpoint.save", "results.merge",
    ):
        metrics[f"{key}_s"] = self_time(key)
        metrics[f"{key}.calls"] = tracer.calls.get(key, 0)
    return {layer.name: metrics[layer.name] for layer in LAYERS}
