"""Multi-process HerQules sessions.

:func:`repro.core.framework.run_program` builds a private monitored
stack per run — convenient for experiments, but the deployed system has
**one** verifier serving **many** monitored programs (Figure 1), each
with its own per-core AMR (section 2.3.2), with policy contexts keyed
by pid and copied on fork.  :class:`HQSession` models that deployment
on one :class:`~repro.core.stack.MonitoredStack`:

* one :class:`~repro.sim.kernel.Kernel` + HQ kernel module,
* one :class:`~repro.core.verifier.Verifier` with a policy context per
  monitored pid,
* one AppendWrite channel per monitored program
  (:meth:`~repro.core.stack.MonitoredStack.add_channel`), all drained by
  the single verifier (the one-reader/many-AMRs pattern).

Programs run one at a time (the simulation is single-threaded) but
share all verifier and kernel state, so cross-process isolation
properties — a violation in one program never affects another's context
— are real and tested.  A program's runtime is wired exactly as in
``run_program``: channel-full backoff drains the verifier, a fail-closed
kill is recorded with the kernel module, and every outcome (an
in-process violation included) maps to a :class:`RunResult` through the
same :func:`~repro.core.framework.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cfi.designs import get_design
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.compiler import ir
from repro.compiler.passes.base import PassManager
from repro.core.framework import RunResult, execute
from repro.core.policy import Policy
from repro.core.runtime import HQRuntime
from repro.core.stack import MonitoredStack
from repro.ipc.base import Channel
from repro.sim.cpu import Interpreter
from repro.sim.loader import Image
from repro.sim.process import Process


@dataclass
class MonitoredProgram:
    """One registered program and its per-process plumbing."""

    name: str
    process: Process
    channel: Channel
    interpreter: Interpreter
    result: Optional[RunResult] = None


class HQSession:
    """A long-lived verifier + kernel serving multiple programs.

    Typical use::

        session = HQSession(design="hq-sfestk")
        a = session.register(build_module(profile_a))
        b = session.register(build_module(profile_b))
        session.run(a)
        session.run(b)
        session.verifier.total_messages()
    """

    def __init__(self, design: str = "hq-sfestk", channel: str = "model",
                 policy_factory: Callable[[], Policy] = HQCFIPolicy,
                 kill_on_violation: bool = True,
                 channel_kwargs: Optional[dict] = None) -> None:
        config = get_design(design)
        if not config.monitored:
            raise ValueError(
                f"design {design!r} does not use the verifier; sessions "
                f"only make sense for monitored (HQ) designs")
        self.config = config
        self.channel_kind = channel
        self.channel_kwargs = channel_kwargs or {}
        self.stack = MonitoredStack(policy_factory,
                                    kill_on_violation=kill_on_violation)
        self.verifier = self.stack.verifier
        self.hq_module = self.stack.hq
        self.kernel = self.stack.kernel
        self.programs: Dict[int, MonitoredProgram] = {}

    # -- lifecycle -------------------------------------------------------------

    def register(self, module: ir.Module,
                 name: Optional[str] = None) -> MonitoredProgram:
        """Compile and register a program; returns its handle.

        Mirrors Figure 1's steps 1a/1b: the program enables HerQules,
        the kernel registers it with the verifier, and a fresh
        AppendWrite channel (its per-core AMR) is attached.
        """
        PassManager(self.config.passes()).run(module)
        process = Process(name=name or module.name)
        channel = self.stack.add_channel(self.channel_kind,
                                         **self.channel_kwargs)
        self.stack.enable(process)

        runtime = self.config.runtime(channel)
        if isinstance(runtime, HQRuntime):
            self.stack.attach_runtime(runtime)
        interpreter = Interpreter(Image(module, process), runtime,
                                  self.config.exec_options(),
                                  self.kernel.syscall,
                                  on_step=self.verifier.poll)
        program = MonitoredProgram(process.name, process, channel,
                                   interpreter)
        self.programs[process.pid] = program
        return program

    def run(self, program: MonitoredProgram, entry: str = "main",
            entry_args: Optional[Sequence[int]] = None) -> RunResult:
        """Execute one registered program to completion."""
        program.result = execute(
            RunResult(design=self.config.name, channel=self.channel_kind,
                      outcome="ok"),
            program.interpreter, self.kernel, self.verifier, entry,
            entry_args)
        return program.result
    def run_all(self) -> List[RunResult]:
        """Run every registered program that has not run yet."""
        return [self.run(program) for program in self.programs.values()
                if program.result is None]

    # -- session-level introspection ----------------------------------------------

    def violations_by_pid(self) -> Dict[int, int]:
        """How many violations each monitored pid accumulated."""
        return {pid: len(self.verifier.all_violations(pid))
                for pid in self.programs}

    def total_messages(self) -> int:
        return self.verifier.total_messages()
