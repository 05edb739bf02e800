"""The HerQules framework: compile, wire up, and run a monitored program.

This is the top-level public API.  :func:`run_program` takes a program
module (built with :class:`repro.compiler.builder.IRBuilder` or a
workload generator), a design name, and an IPC primitive; it runs the
full lifecycle of Figure 1 — compiler instrumentation, process startup
and registration, concurrent message verification, bounded asynchronous
validation at system calls — and returns a :class:`RunResult` with
outcome, cycle accounting, violations, and statistics.

Typical use::

    from repro.core.framework import run_program
    result = run_program(build_my_module(), design="hq-sfestk",
                         channel="model")
    assert result.ok
    print(result.cycles["user"], result.messages_sent)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.cfi.ccfi import CompilationError
from repro.cfi.designs import get_design
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.compiler import ir
from repro.compiler.passes.base import PassManager
from repro.core.policy import Policy, Violation
from repro.core.runtime import HQRuntime
from repro.core.stack import MonitoredStack
from repro.sim.cpu import (
    ExecutionLimitExceeded,
    Interpreter,
    PolicyViolationError,
    ProcessKilledError,
    ProgramCrash,
)
from repro.sim.cycles import AccountingMode
from repro.sim.kernel import Kernel
from repro.sim.loader import Image
from repro.sim.memory import SegmentationFault
from repro.sim.process import HeapError, Process


@dataclass
class RunResult:
    """Outcome of one monitored (or baseline) program execution."""

    design: str
    channel: Optional[str]
    #: "ok", "compile-error", "crash", "hang", "violation" (in-process
    #: abort), or "killed" (verifier-signalled kill).
    outcome: str
    exit_status: Optional[int] = None
    detail: str = ""
    #: Cycle buckets (user/ipc/syscall/wait/detail).
    cycles: Dict[str, object] = field(default_factory=dict)
    #: Program stdout (words written via SYS_WRITE).
    output: List[int] = field(default_factory=list)
    #: Verifier-recorded violations (HQ designs only).
    violations: List[Violation] = field(default_factory=list)
    messages_sent: int = 0
    hijacks: int = 0
    #: Whether the attack marker syscall executed (attack experiments).
    win_executed: bool = False
    #: Per-pass instrumentation statistics.
    pass_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Peak verifier metadata entries (section 5.4 metric).
    max_entries: int = 0
    steps: int = 0
    #: Violations recorded by in-process runtimes (Clang CFI / CCFI) in
    #: continue-after-violation mode.
    runtime_violations: int = 0
    #: Per-run observability report (``run_program(observe=...)`` only;
    #: None when observability is disabled).  JSON-serializable, so it
    #: pickles through the bench run-result cache with the rest of the
    #: result.
    obs_report: Optional[Dict] = None
    #: Happens-before races found on the shard rings
    #: (``run_program(race_check=True)`` with ``shards >= 2`` only;
    #: None when race checking is disabled, empty list = clean).
    races: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def total_cycles(self, mode: AccountingMode = AccountingMode.MODEL) -> float:
        buckets = self.cycles
        if not buckets:
            return 0.0
        if mode is AccountingMode.SIM:
            return float(buckets["user"]) + float(buckets["ipc"])
        return (float(buckets["user"]) + float(buckets["ipc"])
                + float(buckets["syscall"]) + float(buckets["wait"]))


def run_program(module: ir.Module,
                design: str = "hq-sfestk",
                channel: str = "model",
                entry: str = "main",
                entry_args: Optional[Sequence[int]] = None,
                policy_factory: Callable[[], Policy] = HQCFIPolicy,
                kill_on_violation: bool = True,
                sync_exempt_syscalls: Optional[Set[int]] = None,
                max_steps: int = 5_000_000,
                aslr: bool = True,
                seed: int = 1,
                inlined_runtime: bool = True,
                channel_kwargs: Optional[dict] = None,
                exec_option_overrides: Optional[dict] = None,
                pre_run: Optional[Callable[[Image, Interpreter], None]] = None,
                passes_override: Optional[list] = None,
                naive_synchronization: bool = False,
                fault_injector=None,
                observe=None,
                shards: Optional[int] = None,
                race_check: bool = False) -> RunResult:
    """Compile ``module`` under ``design`` and execute it end to end.

    ``module`` is mutated by the instrumentation passes; build a fresh
    module per run (workload generators do).  For HQ designs,
    ``channel`` selects the IPC primitive (``model``, ``sim``, ``fpga``,
    ``mq``, ...); it is ignored for in-process designs.
    ``kill_on_violation=False`` is the continue-after-violation mode the
    paper uses for performance runs (section 5).

    ``pre_run`` is invoked with the loaded image and interpreter just
    before execution; the attack suite uses it to plant attacker input
    in memory (data that arrives at runtime, opaque to the compiler).

    ``fault_injector`` (a :class:`repro.faults.FaultInjector` or
    anything with the same ``wrap_verifier`` / ``wrap_channel`` /
    ``configure_kernel`` surface) interposes deterministic faults on
    the verifier, the message channel, and the kernel module (epoch
    timer, restart budget) — the chaos harness uses it to prove the
    fail-closed invariant.

    ``observe`` enables the observability layer: pass ``True`` for a
    fresh :class:`repro.obs.Observer` or an existing instance to reuse
    its tracer/registry.  The run's metrics report lands in
    ``result.obs_report``; the default (None) keeps every instrumented
    path to a single disabled-predicate check.

    ``shards`` (>= 2) replaces the single verifier with the sharded
    runtime (:class:`repro.core.shard_verifier.ShardedVerifier`): pids
    partition across that many verifier shards, each draining its own
    shared-memory SPSC ring.  Verdicts are identical to the
    single-verifier path — sharding is a throughput structure, not a
    semantic one.  The default (None or 1) keeps the plain verifier.

    ``race_check`` (sharded runs only) attaches a happens-before probe
    (:mod:`repro.mc.race`) to every shard ring and, after the run,
    replays the recorded shared accesses through FastTrack-style
    vector-clock analysis; flagged races land in ``result.races``
    (empty list = this execution was provably race-free).  The chaos
    harness turns this on with ``--race``.
    """
    config = get_design(design)

    observer = None
    if observe:
        from repro.obs.observer import Observer
        observer = observe if isinstance(observe, Observer) else Observer()
        observer.meta.setdefault("design", design)
        observer.meta.setdefault("channel",
                                 channel if config.monitored else None)
        observer.meta.setdefault("module", module.name)
        observer.meta.setdefault("seed", seed)

    # 1. Compiler instrumentation.  ``passes_override`` substitutes a
    # custom pipeline (the optimization-ablation benchmarks use it).
    passes = passes_override if passes_override is not None \
        else config.passes()
    manager = PassManager(passes)
    try:
        pass_stats = manager.run(module)
    except CompilationError as error:
        return RunResult(design=design, channel=None,
                         outcome="compile-error", detail=str(error))

    # 2. Process / kernel / verifier wiring (Figure 1).
    process = Process(name=module.name)
    if observer is not None:
        # Timestamps derive from this process's cycle totals: monotonic
        # sim time, deterministic across same-seed runs.
        observer.bind_clock(process)
    stack = None
    if config.monitored:
        stack = MonitoredStack(
            policy_factory, shards=shards, race_check=race_check,
            observer=observer, fault_injector=fault_injector,
            kill_on_violation=kill_on_violation,
            sync_exempt_syscalls=sync_exempt_syscalls,
            force_round_trip=naive_synchronization)
    try:
        if stack is None:
            kernel, verifier, hq_channel = Kernel(), None, None
            kernel.attach(process)
        else:
            kernel, verifier = stack.kernel, stack.verifier
            hq_channel = stack.add_channel(channel, **(channel_kwargs or {}))
            stack.enable(process)
        runtime = config.runtime(hq_channel)
        if isinstance(runtime, HQRuntime):
            runtime.inlined = inlined_runtime
            if stack is not None:
                stack.attach_runtime(runtime)
        if hasattr(runtime, "abort_on_violation"):
            # In-process designs mirror the continue-after-violation
            # mode the paper uses for correctness/performance runs
            # (section 5).
            runtime.abort_on_violation = kill_on_violation
        options = config.exec_options(max_steps=max_steps, aslr=aslr,
                                      seed=seed,
                                      **(exec_option_overrides or {}))
        interpreter = Interpreter(
            Image(module, process), runtime, options, kernel.syscall,
            on_step=(verifier.poll if verifier is not None else None),
            observer=observer)

        # 3. Execute, then drain the verifier and fill the result.
        result = RunResult(design=design,
                           channel=channel if config.monitored else None,
                           outcome="ok", pass_stats=pass_stats)
        if observer is not None:
            observer.run_start(design, result.channel)
        execute(result, interpreter, kernel, verifier, entry, entry_args,
                pre_run)
        if stack is not None:
            result.races = stack.races()
        if observer is not None:
            observer.finalize_run(
                steps=interpreter.steps,
                runtime=runtime if isinstance(runtime, HQRuntime) else None,
                channel=hq_channel, verifier=verifier,
                outcome=result.outcome)
            result.obs_report = observer.report()
        return result
    finally:
        # 4. Release OS resources even when an exception unwinds
        # mid-run: SPSC rings hold real /dev/shm segments, and an
        # aborted sharded run must not leak them.
        if stack is not None:
            stack.close()


def execute(result: RunResult, interpreter: Interpreter, kernel: Kernel,
            verifier=None, entry: str = "main",
            entry_args: Optional[Sequence[int]] = None,
            pre_run: Optional[Callable[[Image, Interpreter], None]] = None
            ) -> RunResult:
    """Run ``interpreter`` to completion and fill ``result`` in place.

    Maps the way execution ended to ``result.outcome``, gives
    ``verifier`` (None for in-process designs) a final poll for the
    messages still in flight, and copies the process's verdicts,
    output and accounting into ``result``.  :func:`run_program` and
    :meth:`repro.core.session.HQSession.run` both end here.
    """
    process = interpreter.process
    try:
        if pre_run is not None:
            pre_run(interpreter.image, interpreter)
        result.exit_status = interpreter.run(entry, list(entry_args or []))
    except ProcessKilledError as error:
        result.outcome = "killed"
        result.detail = error.reason
    except PolicyViolationError as error:
        result.outcome = "violation"
        result.detail = str(error)
    except ExecutionLimitExceeded as error:
        result.outcome = "hang"
        result.detail = str(error)
    except (ProgramCrash, SegmentationFault, HeapError) as error:
        result.outcome = "crash"
        result.detail = str(error)

    if verifier is not None:
        verifier.poll()
        result.violations = verifier.all_violations(process.pid)
        stats = verifier.stats.get(process.pid)
        if stats is not None:
            result.max_entries = stats.max_entries
    runtime = interpreter.runtime
    if isinstance(runtime, HQRuntime):
        result.messages_sent = runtime.messages_sent
    result.runtime_violations = getattr(runtime, "violations", 0)
    result.cycles = process.cycles.snapshot()
    result.output = list(kernel.stdout.get(process.pid, []))
    result.hijacks = len(interpreter.hijacks)
    result.win_executed = process.pid in kernel.win_executed
    result.steps = interpreter.steps
    return result
