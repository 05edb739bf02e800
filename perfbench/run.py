"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` next to this directory; nothing
is installed or cached.  With ``--trace 0`` the run reports the
end-to-end metrics, measured with no tracing.  With ``--trace 1`` it
times a few untraced passes, then traced passes with every layer's
entry point wrapped (see ``spans.py``), and reports the per-layer
metrics; the spans are written to ``.perfbench/``.  Every run checks
each operation's result against ``reference.json`` and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans, workloads  # noqa: E402
from perfbench.workloads import Input  # noqa: E402

#: (name, unit, better) of the end-to-end metrics, reported by ``--trace 0``.
END_TO_END = [
    ("work_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

PASS_CLASSES = ("CFIInitialLoweringPass", "DevirtualizationPass",
                "StoreToLoadForwardingPass", "MessageElisionPass",
                "CFIFinalLoweringPass", "ReturnPointerPass",
                "SyscallSyncPass")
CHANNEL_CLASSES = ("AppendWriteUArch", "AppendWriteModel")
#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
TIMED_LAYERS = (
    ["compiler", "compiler.analysis.uses_of", "sim.lower", "sim.exec",
     "core.runtime"]
    + [f"ipc.{side}.{cls}" for side in ("send", "receive")
       for cls in CHANNEL_CLASSES]
    + ["core.verifier", "core.shard_verifier", "sim.process",
       "sim.memory.map_region", "sim.kernel.syscall", "sim.kernel.barrier",
       "sim.kernel.admission", "sim.loader", "core.framework",
       "traffic.engine"])


def _per_layer_table():
    table = []
    for layer in TIMED_LAYERS:
        table.append((f"{layer}.calls", "count", "lower"))
        table.append((f"{layer}.self_s", "s", "lower"))
        if layer == "compiler":
            table += [(f"compiler.pass.{cls}.self_s", "s", "lower")
                      for cls in PASS_CLASSES]
    table += [
        ("sim.lower.reject_ratio", "ratio", "lower"),
        ("sim.exec.steps", "steps", "higher"),
        ("ipc.receive.nonempty_ratio", "ratio", "higher"),
        ("ipc.receive.msgs_per_batch", "msgs", "higher"),
        ("core.verifier.msgs", "msgs", "higher"),
        ("core.verifier.useful_poll_ratio", "ratio", "higher"),
        ("core.verifier.backlog_max", "msgs", "lower"),
        ("core.verifier.validation_lag_p99", "msgs", "lower"),
        ("core.shard_verifier.msgs", "msgs", "higher"),
        ("sim.kernel.admission.admit_ratio", "ratio", "higher"),
        ("sim.kernel.barrier_wait_ticks_p99", "ticks", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return table


#: (name, unit, better) of the per-layer metrics, reported by ``--trace 1``.
PER_LAYER = _per_layer_table()

#: Child processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Share of a ``--trace 1`` run spent on untraced passes (the overhead base).
UNTRACED_SHARE = 1 / 3
#: The trace must attribute this close to all of the traced wall time.
COVERAGE_TOLERANCE = 0.05


class Op(NamedTuple):
    """One timed operation and what checking its result found."""

    seconds: float     # host wall time
    scaled: float      # the same, in reference-speed seconds (SpeedProbe)
    units: float       # work done: programs, simulated steps or sessions
    attempted: int
    failed: int
    error: Optional[str]


def import_program():
    """Put ``src/`` first on the path and check ``repro`` comes from it.

    Also clears the environment settings the program reads, which would
    otherwise pick the interpreter tier, observability or a worker pool
    behind the benchmark's back (child processes inherit the clean
    environment).
    """
    for variable in ("REPRO_INTERP_TIER", "REPRO_OBS", "REPRO_JOBS"):
        os.environ.pop(variable, None)
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not {package}")


def _reference_loop(n: int = 10_000) -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(n):
        key = i & 255
        total += table.get(key, i) * 3 % 7
        table[key] = total & 0xFFFF
    return total


class SpeedProbe:
    """How fast the host runs Python right now, from a fixed loop.

    The machine this benchmark was built on shares its cores: the speed
    of the same pure-Python loop drifts by +-20% over seconds, and one
    run can sit in a slow stretch for its whole length.  So each
    operation is bracketed by probes of a fixed reference loop, and its
    time is rescaled to *reference-speed seconds*: the time it would
    take if the probe ran at ``NOMINAL_S`` (about its uncontended speed
    on a 2-core Xeon VM).  A change to the program moves the operation
    and not the probe, so it shows in full; host drift moves both and
    cancels.  Each probe is the median of three loops, which drops a
    loop that was preempted.
    """

    NOMINAL_S = 0.0013

    def __init__(self) -> None:
        self.last = self.measure()

    @staticmethod
    def measure() -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    def scale(self) -> float:
        """Factor to reference speed for what ran since the last probe."""
        before, self.last = self.last, self.measure()
        return self.NOMINAL_S / ((before + self.last) / 2)


# -- workloads -------------------------------------------------------------------

class ProgramBench:
    """corpus and steady: one cold ``run_program`` call per operation."""

    def __init__(self, workload: str, seed: int, reference: Dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.inputs: List[Input] = (workloads.corpus_inputs(seed)
                                    if workload == "corpus"
                                    else workloads.steady_inputs(seed))
        self.reference = reference
        self.count_steps = workload == "steady"

    def prepare(self) -> None:
        pass

    def build_inputs(self) -> list:
        return [workloads.build(inp) for inp in self.inputs]

    def run_pass(self, wrap_root: Callable) -> List[Op]:
        from repro.core.framework import run_program
        run = wrap_root(run_program)
        ops = []
        probe = SpeedProbe()
        for inp in self.inputs:
            module = workloads.build(inp)
            start = time.perf_counter()
            result = workloads.run_input(run, module, inp, self.seed)
            seconds = time.perf_counter() - start
            scaled = seconds * probe.scale()
            error = self._check(inp, result)
            ops.append(Op(seconds, scaled,
                          result.steps if self.count_steps else 1,
                          1, int(error is not None), error))
        return ops

    def _check(self, inp: Input, result, tier: str = "vm") -> Optional[str]:
        digest = workloads.result_digest(result)
        expected = self.reference.get(inp.name)
        if digest != expected:
            return (f"{inp.name} ({tier} tier): digest {digest} != "
                    f"reference {expected} (outcome {result.outcome})")
        return None

    def extra_checks(self) -> List[str]:
        """The closure interpreter tier must reproduce a sample of inputs."""
        if self.workload != "corpus":
            return []
        from repro.core.framework import run_program
        errors = []
        for inp in Random(self.seed).sample(self.inputs,
                                            workloads.CLOSURE_SAMPLE):
            result = workloads.run_input(
                run_program, workloads.build(inp), inp, self.seed,
                exec_option_overrides={"interp_tier": "closure"})
            error = self._check(inp, result, tier="closure")
            if error is not None:
                errors.append(error)
        return errors


class SoakBench:
    """soak: one ``run_traffic`` call per operation."""

    workload = "soak"

    def __init__(self, seed: int, reference: Dict[str, str]):
        self.seed = seed
        self.traffic_seeds = workloads.soak_seeds(seed)
        self.expected = {s: reference.get(str(s)) for s in self.traffic_seeds}
        self.last_reports: List[Dict] = []

    def prepare(self) -> None:
        from repro.traffic.engine import run_traffic
        for traffic_seed, digest in self.expected.items():
            if digest is None:
                # No recorded digest for this seed: at this load the
                # sharded verifier must produce the identical report, so
                # it serves as the reference (untimed, before the passes).
                self.expected[traffic_seed] = workloads.soak_digest(
                    run_traffic(workloads.soak_config(traffic_seed, shards=2)))

    def build_inputs(self):
        from repro.traffic.engine import TrafficEngine
        TrafficEngine(workloads.soak_config(self.traffic_seeds[0])).close()

    def run_pass(self, wrap_root: Callable) -> List[Op]:
        from repro.traffic.engine import run_traffic
        run = wrap_root(run_traffic)
        ops = []
        self.last_reports = []
        probe = SpeedProbe()
        for traffic_seed in self.traffic_seeds:
            config = workloads.soak_config(traffic_seed)
            start = time.perf_counter()
            report = run(config)
            seconds = time.perf_counter() - start
            scaled = seconds * probe.scale()
            self.last_reports.append(report)
            offered = report["totals"]["offered"]
            errors = workloads.soak_invariant_errors(report)
            digest = workloads.soak_digest(report)
            if digest != self.expected[traffic_seed]:
                errors.append(f"soak traffic seed {traffic_seed}: digest "
                              f"{digest} != reference "
                              f"{self.expected[traffic_seed]}")
            failed = offered if errors else workloads.soak_failures(report)
            ops.append(Op(seconds, scaled, offered, offered, failed,
                          "; ".join(errors) or None))
        return ops

    def extra_checks(self) -> List[str]:
        return []


def make_bench(workload: str, seed: int):
    reference = workloads.load_reference(HERE / "reference.json")[workload]
    if workload == "soak":
        return SoakBench(seed, reference)
    return ProgramBench(workload, seed, reference)


# -- measurement --------------------------------------------------------------------

def _untraced(fn: Callable) -> Callable:
    return fn


def timed_passes(bench, seconds: float,
                 wrap_root: Callable = _untraced) -> List[List[Op]]:
    """Repeat whole passes for about ``seconds`` of wall time.

    Another pass starts only if it is due to end before the deadline
    plus half a pass, so runs overshoot and undershoot alike.
    """
    start = time.perf_counter()
    passes: List[List[Op]] = []
    while True:
        gc.collect()
        passes.append(bench.run_pass(wrap_root))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 0.5) / len(passes) >= seconds:
            return passes


def pass_seconds(ops: List[Op], scaled: bool = True) -> float:
    return sum(op.scaled if scaled else op.seconds for op in ops)


def end_to_end_metrics(passes: List[List[Op]]) -> Dict[str, float]:
    """Every end-to-end metric but ``setup_s``, read right after timing."""
    op_ms = [op.scaled * 1e3 for ops in passes for op in ops]
    deciles = statistics.quantiles(op_ms, n=10) if len(op_ms) > 1 else op_ms * 9
    return {
        "work_per_s": (sum(op.units for ops in passes for op in ops)
                       / sum(pass_seconds(ops) for ops in passes)),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import and build inputs."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    times = []
    probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                       cwd=ROOT, timeout=120)
        times.append((time.perf_counter() - start) * probe.scale())
    return statistics.median(times)


def per_layer_metrics(tracer: spans.Tracer, traced: List[List[Op]],
                      untraced: List[List[Op]],
                      soak_reports: List[Dict]) -> Dict[str, float]:
    from repro.core.messages import MESSAGE_WORDS
    totals = tracer.layer_totals()
    counters = tracer.counters
    n = len(traced)

    def calls(layer: str) -> float:
        return totals.get(layer, (0, 0, 0))[0]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = calls(layer) / n
        elif field == "self_s":
            metrics[name] = totals.get(layer, (0, 0, 0))[2] / 1e9 / n
    receives = sum(calls(f"ipc.receive.{cls}") for cls in CHANNEL_CLASSES)
    nonempty = counters.get("ipc.receive.nonempty", 0)

    def worst_slo(key: str) -> float:
        return max((report["slo"][key] for report in soak_reports),
                   default=0.0)

    traced_ns = sum(pass_seconds(ops, scaled=False) for ops in traced) * 1e9
    metrics.update({
        "sim.lower.reject_ratio": ratio(counters.get("sim.lower.rejected", 0),
                                        calls("sim.lower")),
        "sim.exec.steps": counters.get("sim.exec.steps", 0) / n,
        "ipc.receive.nonempty_ratio": ratio(nonempty, receives),
        "ipc.receive.msgs_per_batch": ratio(
            counters.get("ipc.receive.words", 0) / MESSAGE_WORDS, nonempty),
        "core.verifier.msgs": counters.get("core.verifier.msgs", 0) / n,
        "core.verifier.useful_poll_ratio": ratio(
            counters.get("core.verifier.useful", 0), calls("core.verifier")),
        "core.verifier.backlog_max": counters.get("core.verifier.backlog_max", 0),
        "core.verifier.validation_lag_p99": worst_slo("validation_lag_p99"),
        "core.shard_verifier.msgs":
            counters.get("core.shard_verifier.msgs", 0) / n,
        "sim.kernel.admission.admit_ratio": ratio(
            counters.get("sim.kernel.admission.admitted", 0),
            calls("sim.kernel.admission")),
        "sim.kernel.barrier_wait_ticks_p99":
            worst_slo("barrier_wait_ticks_p99"),
        "trace.coverage": ratio(tracer.self_ns_sum(), traced_ns),
        "trace.overhead_ratio": ratio(
            statistics.median(pass_seconds(ops) for ops in traced),
            statistics.median(pass_seconds(ops) for ops in untraced)),
    })
    return metrics


def traced_run(bench, seconds: float):
    """Untraced passes, then traced passes with every layer wrapped."""
    untraced = timed_passes(bench, seconds * UNTRACED_SHARE)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        root = tracer.wrap("core.framework" if bench.workload != "soak"
                           else "traffic.engine", root=True)
        traced = timed_passes(bench, seconds * (1 - UNTRACED_SHARE), root)
    finally:
        patches.undo()
    return tracer, untraced, traced


def stop_helper_processes() -> None:
    """Stop the shared-memory resource tracker sharded runs started."""
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    import_program()
    bench = make_bench(workload, seed)
    metrics: Dict[str, float]
    try:
        bench.prepare()
        if trace:
            tracer, untraced, passes = traced_run(bench, seconds)
            metrics = per_layer_metrics(
                tracer, passes, untraced,
                getattr(bench, "last_reports", []))
            trace_dir = ROOT / ".perfbench"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"trace-{workload}-seed{seed}.json")
            passes = untraced + passes
        else:
            passes = timed_passes(bench, seconds)
            metrics = end_to_end_metrics(passes)
        errors = [op.error for ops in passes for op in ops if op.error]
        errors += bench.extra_checks()
        if not trace:
            metrics["setup_s"] = measure_setup(workload, seed)
        elif abs(metrics["trace.coverage"] - 1) > COVERAGE_TOLERANCE:
            errors.append(f"trace covers {metrics['trace.coverage']:.3f} "
                          f"of traced wall time")
    finally:
        stop_helper_processes()
    table = PER_LAYER if trace else END_TO_END
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    for name, unit, _better in table:
        print(f"{workload} {name} = {metrics[name]:.6g} {unit}")
    if not trace:
        raw = (sum(op.units for ops in passes for op in ops)
               / sum(pass_seconds(ops, scaled=False) for ops in passes))
        print(f"{workload} work_per_s in unscaled host time = {raw:.6g} 1/s")
    return {
        "correct": not errors,
        "attempted": sum(op.attempted for ops in passes for op in ops),
        "failed": sum(op.failed for ops in passes for op in ops),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better in table},
    }


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh process pays before its first operation."""
    import_program()
    bench = make_bench(workload, seed)
    try:
        bench.build_inputs()
    finally:
        stop_helper_processes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
