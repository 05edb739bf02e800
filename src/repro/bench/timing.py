"""Wall-clock instrumentation for the experiment pipeline.

``python -m repro.bench`` wraps each experiment in a
:class:`PipelineTimer` phase and writes the result to
``BENCH_pipeline.json`` at the repo root, so the pipeline's own
performance (interpreter fast path, run-result cache, ``--jobs``
fan-out) is visible next to the paper's numbers.

The JSON report records per-phase seconds, the total, the job count and
cache statistics of the run, and the measured seed-baseline wall time
(:data:`SEED_SERIAL_SECONDS`) the speedup is computed against.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

#: Measured wall time of the full serial, uncached ``python -m
#: repro.bench`` at the seed commit (b7c76a3) on the reference CI
#: machine — the denominator for the tracked speedup.
SEED_SERIAL_SECONDS = 79.8


class PipelineTimer:
    """Accumulates named wall-clock phases."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def report(self, jobs: int, cache_stats: Optional[dict] = None) -> dict:
        """The ``BENCH_pipeline.json`` payload."""
        total = self.total
        return {
            "pipeline": "python -m repro.bench",
            "jobs": jobs,
            "phases_seconds": {name: round(secs, 3)
                               for name, secs in self.phases.items()},
            "total_seconds": round(total, 3),
            "seed_serial_seconds": SEED_SERIAL_SECONDS,
            "speedup_vs_seed": round(SEED_SERIAL_SECONDS / total, 2)
            if total > 0 else None,
            "cache": cache_stats or {},
        }

    def write(self, path: str, jobs: int,
              cache_stats: Optional[dict] = None) -> dict:
        payload = self.report(jobs, cache_stats)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        return payload


# ---------------------------------------------------------------------------
# Shared measurement harness
# ---------------------------------------------------------------------------
#
# Every timing CLI in this package (msgpath, interp) uses the same
# defence against scheduler noise; it lives here once.

def best_of(rounds: int, fn: Callable[[], Dict[str, object]], *,
            key: str = "msgs_per_sec") -> Dict[str, object]:
    """Run ``fn`` up to ``rounds`` times; keep the result dict with the
    highest value under ``key``, annotated with the round count — the
    standard defence against scheduler noise when timing sub-second
    loops."""
    rounds = max(1, rounds)
    best: Optional[Dict[str, object]] = None
    for _ in range(rounds):
        result = fn()
        if best is None or float(result[key]) > float(best[key]):
            best = result
    assert best is not None
    best["rounds"] = rounds
    return best
