"""Measure the tree with perfbench, the one source of perf numbers.

``BENCHMARK.json`` at the repository root declares everything a
measurement needs: the command, the run length, the workloads, and
every metric's unit, better direction and (for the end-to-end metrics)
regression bound.  :func:`run_perfbench` runs the command once per
workload untraced (``--trace 0``, the end-to-end metrics) and once
traced (``--trace 1``, the per-layer metrics), one run after another so
no run disturbs another's timing.  Each value becomes a
``perfbench.<workload>.<metric>`` :class:`Metric`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, Mapping

from repro.perf.profile import Metric

BENCHMARK_FILE = "BENCHMARK.json"
PREFIX = "perfbench."
SEED = 1
CHECK_FAILED = "perfbench: check failed:"


class PerfbenchFailed(RuntimeError):
    """A run exited non-zero or reported ``correct: false``."""


def load_benchmark(root: str = ".") -> dict:
    path = os.path.join(root, BENCHMARK_FILE)
    if not os.path.isfile(path):
        raise SystemExit(f"no {BENCHMARK_FILE} under {root!r}: run from "
                         f"the repository root")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def e2e_bounds(benchmark: Mapping) -> Dict[str, float]:
    """End-to-end metric name -> allowed fractional degradation."""
    return {spec["name"]: float(spec["bound"])
            for spec in benchmark["end_to_end"]}


def run_perfbench(benchmark: Mapping, root: str = ".") -> Dict[str, Metric]:
    """Every workload's end-to-end and per-layer metrics.

    Raises :class:`PerfbenchFailed` naming the workload and the run's
    ``perfbench: check failed:`` lines (or its stderr tail) when a run
    exits non-zero or reports ``correct: false``.
    """
    declared = {spec["name"]: spec for spec in
                list(benchmark["end_to_end"]) + list(benchmark["per_layer"])}
    metrics: Dict[str, Metric] = {}
    for workload in (spec["name"] for spec in benchmark["workloads"]):
        for trace in (0, 1):
            argv = [*benchmark["command"], "--workload", workload,
                    "--seed", str(SEED),
                    "--seconds", str(benchmark["run_seconds"]),
                    "--trace", str(trace)]
            print(f"perf: {' '.join(argv)}", file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=root, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            if done.returncode != 0 or result.get("correct") is not True:
                errors = done.stderr.strip().splitlines()
                checks = [line for line in errors
                          if line.startswith(CHECK_FAILED)]
                raise PerfbenchFailed("\n".join(
                    [f"perfbench {workload} --trace {trace}: exit "
                     f"{done.returncode}, correct="
                     f"{result.get('correct')}"] + (checks or errors[-5:])))
            for name, entry in result["metrics"].items():
                spec = declared[name]
                metrics[f"{PREFIX}{workload}.{name}"] = Metric(
                    float(entry["value"]), unit=spec["unit"], rounds=1,
                    direction=spec["better"])
    return metrics
