"""Smoke-size self-test of the benchmark harness.

Runs every workload at a twentieth of its size, untraced and traced, and
checks what the harness promises: metric names and units as declared in
``BENCHMARK.json``, a result line of the contract's shape, every oracle
check passing, and equal fingerprints across repetitions and between
the traced and untraced runs.  From the root of a checkout::

    python3 perfbench/selftest.py [--seed N]

Exits 0 when every check holds and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from layers import LAYERS
from run import END_TO_END, ROOT, result_object, run_workload
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SCALE = 0.05


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec[section]}


def check_result_line(result: dict, declared: dict, problems: list, where: str):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']!r}")
    if set(result["metrics"]) != set(declared):
        problems.append(
            f"{where}: metrics {sorted(result['metrics'])} != declared "
            f"{sorted(declared)}"
        )
    for name, metric in result["metrics"].items():
        if not NAME.match(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if not UNIT.match(metric["unit"]):
            problems.append(f"{where}: bad unit {metric['unit']!r} of {name}")
        if name in declared and metric["unit"] != declared[name]["unit"]:
            problems.append(
                f"{where}: {name} unit {metric['unit']!r} != declared "
                f"{declared[name]['unit']!r}"
            )
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} value {metric['value']!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    end_to_end = _declared("end_to_end")
    per_layer = _declared("per_layer")
    if set(end_to_end) != set(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {sorted(end_to_end)}")
    if list(per_layer) != [layer.name for layer in LAYERS]:
        problems.append("BENCHMARK.json per_layer differs from layers.LAYERS")
    for layer in LAYERS:
        if layer.name in per_layer and per_layer[layer.name]["unit"] != layer.unit:
            problems.append(f"BENCHMARK.json unit of {layer.name}")

    for name in sorted(WORKLOADS):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            where = f"{name} trace={trace}"
            report = run_workload(name, args.seed, 0.5, trace, SMOKE_SCALE)
            check_result_line(result_object(report), declared, problems, where)
            for check in report["checks"]:
                if not check["ok"]:
                    problems.append(f"{where}: {check['name']}: {check['detail']}")
            wanted = (
                "fingerprint identical traced and untraced" if trace
                else "fingerprint identical across repetitions"
            )
            if not any(check["name"] == wanted for check in report["checks"]):
                problems.append(f"{where}: no {wanted!r} check")
            print(f"{where}: {report['attempted']} checks, "
                  f"{report['failed']} failed", file=sys.stderr)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
