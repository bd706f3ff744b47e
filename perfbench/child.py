"""One fresh interpreter: set up, print ``READY``, then run a workload.

``perfbench/run.py`` starts this script once per set-up probe
(``--mode setup``) and once per measured run (``--mode run``).  The
``READY`` line carries the CPU seconds the child has used since it
started, which covers interpreter start, ``import repro``, registry
population and ``EngineConfig.validate()``; the parent also times the
wall interval to that line.  A set-up probe then times one calibration
loop and exits.

In ``--mode run`` the child times repetitions of the workload through
``repro.engine.run_engine``, checks every result against the oracle and
prints one JSON line with the timings, checks and fingerprints.  With
``--trace 1`` it first times untraced repetitions, then calibrates the
wrappers and times traced repetitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

from workloads import WORKLOADS, engine_kwargs

from repro.engine import EngineConfig, run_engine

#: Hard cap on repetitions per phase, whatever ``--seconds`` allows.
MAX_REPS = 200

#: The fixed pure-Python loop timed (in CPU time) before and after each
#: repetition.  It runs no library code, so its time tracks the machine's
#: speed and never the code under test; ``run.py`` rescales throughput
#: by it (see ``CALIBRATION_NOMINAL_S`` there).
CALIBRATION_LOOP = 600_000


def calibration_loop_s() -> float:
    start = process_time()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value % 7
    return process_time() - start


def cpu_time_s() -> float:
    """CPU seconds of this process and its waited-for children.

    ``process_time`` has nanosecond resolution; ``os.times`` counts in
    clock ticks (10 ms), which would quantise a two-second repetition.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _one_rep(workload, seed: int, work_dir: Path, tag: str, num_events=None):
    """One timed ``run_engine`` call; the checkpoint directory is fresh.

    Returns the config, the result, the wall time and the process CPU time.
    """
    checkpoint_dir = None
    if workload.checkpoints:
        checkpoint_dir = work_dir / f"checkpoints-{tag}"
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    config = EngineConfig(**engine_kwargs(
        workload, seed, num_events,
        str(checkpoint_dir) if checkpoint_dir is not None else None,
    ))
    cpu_start = cpu_time_s()
    start = perf_counter()
    result = run_engine(config)
    wall = perf_counter() - start
    cpu = cpu_time_s() - cpu_start
    if checkpoint_dir is not None:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return config, result, wall, cpu


def _timed_reps(workload, seed, size, work_dir, seconds, minimum, tag, runs):
    """Repetitions for ``seconds`` (at least ``minimum``); appends to ``runs``."""
    reps = []
    deadline = perf_counter() + seconds
    while len(reps) < minimum or (perf_counter() < deadline and len(reps) < MAX_REPS):
        gc.collect()
        calib_before = calibration_loop_s()
        config, result, wall, cpu = _one_rep(
            workload, seed, work_dir, f"{tag}{len(reps)}", size
        )
        calib_after = calibration_loop_s()
        reps.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "events": result.inserts + result.expires,
            "calib_s": [calib_before, calib_after],
            "fingerprint": result.fingerprint(),
        })
        runs.append((config, result))
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    size = max(1, round(workload.config["num_events"] * args.scale))
    EngineConfig(**engine_kwargs(workload, args.seed, size)).validate()
    print(f"READY {process_time()!r}", flush=True)
    if args.mode == "setup":
        print(json.dumps({"calib_s": calibration_loop_s()}), flush=True)
        return 0

    from oracle import check_result, expected_result, fingerprint_check

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    checks = []
    # Warm-up at a tenth of the size: first-call costs stay out of the timings.
    _one_rep(workload, args.seed, work_dir, "warmup", max(1, size // 10))

    report = {}
    if args.trace == 0:
        reps = _timed_reps(
            workload, args.seed, size, work_dir, args.seconds, 2, "u", runs
        )
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        checks.append(fingerprint_check(
            "fingerprint identical across repetitions",
            [rep["fingerprint"] for rep in reps],
        ))
        report["reps"] = reps
    else:
        from layers import Tracer, calibrate, layer_metrics, traced

        untraced = _timed_reps(
            workload, args.seed, size, work_dir, args.seconds / 3.0, 1, "u", runs
        )
        untraced_wall = statistics.median(rep["wall_s"] for rep in untraced)
        calibration = calibrate()
        traced_reps = []
        layer_runs = []
        deadline = perf_counter() + args.seconds * 2.0 / 3.0
        while not traced_reps or (
            perf_counter() < deadline and len(traced_reps) < MAX_REPS
        ):
            gc.collect()
            tracer = Tracer()
            with traced(tracer):
                config, result, wall, _ = _one_rep(
                    workload, args.seed, work_dir, f"t{len(traced_reps)}", size
                )
            runs.append((config, result))
            traced_reps.append({"wall_s": wall, "fingerprint": result.fingerprint()})
            layer_runs.append(layer_metrics(tracer, calibration, wall, untraced_wall))
        checks.append(fingerprint_check(
            "fingerprint identical traced and untraced",
            [rep["fingerprint"] for rep in untraced + traced_reps],
        ))
        report["reps"] = untraced
        report["traced_reps"] = traced_reps
        report["wrapper_cost_ns"] = {
            field: value * 1e9 for field, value in calibration._asdict().items()
        }
        report["layers"] = {
            name: statistics.median(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
    # The oracle runs after the peak-RSS reading, so its memory is not counted.
    expected = expected_result(EngineConfig(**engine_kwargs(workload, args.seed, size)))
    for config, result in runs:
        checks.extend(check_result(config, result, expected))
    report["checks"] = [check._asdict() for check in checks]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
