"""End-to-end engine benchmark: one workload, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn-full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (``norm_events_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` reports the per-layer
metrics of a traced run (see ``perfbench/layers.py``).  Every run checks
its results against an oracle computed outside the engine
(``perfbench/oracle.py``) and exits non-zero when a check fails.

Standard output ends with two JSON lines: a report (environment block,
per-repetition timings, every check) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  A readable summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from layers import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold starts timed for ``setup_s`` per run, after one untimed start
#: that fills the bytecode cache.
SETUP_PROBES = 9

#: Each child must finish within this many seconds.
CHILD_TIMEOUT_S = 170.0

#: The calibration loop's CPU time on the machine ``norm_events_per_s``
#: is rescaled to (its median on a shared 2-core x86-64 container).
CALIBRATION_NOMINAL_S = 0.070

END_TO_END = {
    "norm_events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (not a failed correctness check)."""


def _child_env(seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The engine's results are independent of the hash seed by contract;
    # tying it to --seed keeps a run reproducible and varies it across seeds.
    env["PYTHONHASHSEED"] = str(seed % 4_294_967_296)
    return env


def _start_child(args: List[str], seed: int, deadline: float):
    """Start ``child.py`` and wait for ``READY``.

    Returns the process, the wall seconds from start to ``READY`` and the
    CPU seconds the child had used by then (it prints them on that line).
    """
    started = perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")] + args,
        cwd=str(ROOT),
        env=_child_env(seed),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        readable, _, _ = select.select(
            [process.stdout], [], [], max(1.0, deadline - perf_counter())
        )
        if not readable:
            raise BenchError("child timed out during set-up")
        line = process.stdout.readline().split()
        ready = perf_counter() - started
        if len(line) != 2 or line[0] != "READY":
            process.wait(timeout=max(1.0, deadline - perf_counter()))
            raise BenchError(
                f"child failed during set-up (exit {process.returncode})"
            )
    except BaseException:
        _stop(process)
        raise
    return process, ready, float(line[1])


def _stop(process) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


def _finish_child(process, deadline: float) -> str:
    """Wait for the child; its standard output after ``READY``."""
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out") from None
    finally:
        _stop(process)
    if process.returncode != 0:
        raise BenchError(f"child exited with {process.returncode}")
    return output


def _environment() -> dict:
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: int, scale: float = 1.0
) -> dict:
    """Measure one workload in fresh child interpreters; the full report.

    ``scale`` shrinks or grows the workload's insert count (the self-test
    runs at smoke size); the benchmark proper always runs at 1.0.
    """
    deadline = perf_counter() + CHILD_TIMEOUT_S
    environment = _environment()
    child_args = ["--workload", name, "--seed", str(seed), "--scale", str(scale)]
    setup_walls = []
    setup_samples = []
    for probe in range(SETUP_PROBES + 1):
        process, ready, ready_cpu = _start_child(
            child_args + ["--mode", "setup"], seed, deadline
        )
        output = _finish_child(process, deadline)
        if probe:
            setup_walls.append(ready)
            # The probe's CPU time to ready, at the machine speed the
            # calibration loop it ran right after ``READY`` measured,
            # rescaled like ``norm_events_per_s``: the host's speed
            # drifts by a third over minutes, the import does not.
            calibration = json.loads(output)["calib_s"]
            setup_samples.append(ready_cpu * calibration / CALIBRATION_NOMINAL_S)
    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        process, ready, _ = _start_child(
            child_args + [
                "--mode", "run", "--seconds", str(seconds),
                "--trace", str(trace), "--work-dir", str(work_dir),
            ],
            seed,
            deadline,
        )
        setup_walls.append(ready)
        output = _finish_child(process, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        raise BenchError("workload child printed no report")
    child = json.loads(lines[-1])
    environment["loadavg_end"] = list(os.getloadavg())
    calibration_s = statistics.median(
        value for rep in child["reps"] for value in rep["calib_s"]
    )
    environment["calibration_loop_s"] = calibration_s
    rates = [rep["events"] / rep["cpu_s"] for rep in child["reps"]]
    wall_rates = [rep["events"] / rep["wall_s"] for rep in child["reps"]]
    # Each repetition's throughput at the machine speed its own two
    # calibration loops measured, rescaled to the nominal machine: the
    # host's speed changes within seconds, so each rate is paired with
    # the loops timed right beside it.  Drift in the machine's speed
    # cancels, a change in the code does not.
    norm_rates = [
        rate * statistics.fmean(rep["calib_s"]) / CALIBRATION_NOMINAL_S
        for rate, rep in zip(rates, child["reps"])
    ]
    metrics = {
        "norm_events_per_s": statistics.median(norm_rates),
        "setup_s": statistics.median(setup_samples),
    }
    if "peak_rss_mb" in child:
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
    checks = child["checks"]
    failed = sum(1 for check in checks if not check["ok"])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment,
        "end_to_end": metrics,
        "failed_share": failed / len(checks) if checks else 1.0,
        "attempted": len(checks),
        "failed": failed,
        "repetitions": len(child["reps"]),
        "events_per_cpu_s": statistics.median(rates),
        "events_per_cpu_s_all": rates,
        "norm_events_per_s_all": norm_rates,
        # Wall-clock rates include time the host did not run this process.
        "events_per_wall_s_all": wall_rates,
        "events_per_wall_s": statistics.median(wall_rates),
        "setup_s_all": setup_samples,
        # Wall seconds to ready, the probes' and then the workload child's.
        "setup_wall_s_all": setup_walls,
        "layers": child.get("layers"),
        "wrapper_cost_ns": child.get("wrapper_cost_ns"),
        "traced_reps": child.get("traced_reps"),
        "reps": child["reps"],
        "checks": checks,
    }


def result_object(report: dict) -> dict:
    """The contract's last line for one workload's report."""
    if report["trace"]:
        metrics = {
            layer.name: {"value": report["layers"][layer.name], "unit": layer.unit}
            for layer in LAYERS
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _summary(report: dict) -> str:
    lines = [
        f"== {report['workload']} seed={report['seed']} "
        f"trace={report['trace']} repetitions={report['repetitions']}",
    ]
    for name, unit in END_TO_END.items():
        if name in report["end_to_end"]:
            lines.append(f"  {name:<16} {report['end_to_end'][name]:>14.4f} {unit}")
    for name in ("events_per_cpu_s", "events_per_wall_s"):
        lines.append(f"  {name:<16} {report[name]:>14.4f} 1/s")
    lines.append(
        f"  {'failed_share':<16} {report['failed_share']:>14.4f} "
        f"({report['failed']} of {report['attempted']} checks)"
    )
    for check in report["checks"]:
        if not check["ok"]:
            lines.append(f"  FAILED {check['name']}: {check['detail']}")
    if report["layers"]:
        for layer in LAYERS:
            lines.append(
                f"  {layer.name:<28} {report['layers'][layer.name]:>14.4f} "
                f"{layer.unit:<10} moves {layer.moves}"
            )
    env = report["environment"]
    lines.append(
        f"  env: python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
        f"load {env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f} "
        f"calibration loop {env['calibration_loop_s'] * 1000:.1f} ms"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated benchmark still stops its children (the ``finally``
    # blocks around every child run on SystemExit).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace)
            print(_summary(report), file=sys.stderr, flush=True)
            reports.append(report)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if len(reports) == 1:
        print(json.dumps({"report": reports[0]}))
        result = result_object(reports[0])
    else:
        print(json.dumps({"reports": reports}))
        results = {report["workload"]: result_object(report) for report in reports}
        result = {
            "correct": all(item["correct"] for item in results.values()),
            "attempted": sum(item["attempted"] for item in results.values()),
            "failed": sum(item["failed"] for item in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, item in results.items()
                for metric, value in item["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
