"""Outside-in layer tracing: wall-clock spans around public entry points.

The benchmark measures end-to-end numbers with no tracing at all.  A
separate traced pass wraps each layer's public entry point *from the
benchmark's own files* (nothing under ``src/`` knows it is traced),
records where the wall time went, and removes every wrapper afterwards.

Accounting rules:

* A layer's **self time** is its span's duration minus the part of that
  interval covered by its child spans.  Calls are strictly nested (one
  thread), so "covered" is the sum of the children's durations.
* **Re-entry counts once.**  A call into a layer that already has an
  open span (the same layer reached again further down the stack) runs
  untraced: no second span, no second call count, no double time.
* **Coarse vs fine.**  Layers called a bounded number of times per
  program run (``COARSE``) get one span record per call.  Per-message
  and per-session layers (runtime sends, channel ops, verifier polls,
  syscalls, process setup) are aggregated into their enclosing coarse
  span as ``(layer, pid) -> [calls, total_ns, self_ns]`` instead, which
  keeps tracing overhead bounded on message-dense workloads.
* Spans of one program run (one ``run_program`` / ``run_traffic`` call)
  share a run id; calls that carry a process are tagged with its pid.

Everything stays in memory until :meth:`Tracer.write` at the end.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers recorded as one span per call; every other layer is
#: aggregated into its nearest enclosing coarse span.
COARSE_PREFIXES = ("core.framework", "traffic.engine", "compiler",
                   "sim.lower", "sim.exec", "sim.loader")
#: ...except this one, which is called per query inside compiler passes.
FINE_EXCEPTIONS = ("compiler.analysis.",)


def is_coarse(layer: str) -> bool:
    return (layer.startswith(COARSE_PREFIXES)
            and not layer.startswith(FINE_EXCEPTIONS))


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: Finished coarse spans, in completion order.
        self.spans: List[dict] = []
        #: Fine-layer calls made outside any coarse span.
        self.orphans: Dict[Tuple[str, Optional[int]], List[int]] = {}
        #: Extra per-layer counts the after-hooks maintain.
        self.counters: Dict[str, float] = {}
        self.run_id = 0
        self._next_span = 1
        self._stack: List[list] = []       # open frames, innermost last
        self._open_spans: List[dict] = []  # open coarse spans
        self._open_groups: set = set()     # re-entry guard

    # -- recording ---------------------------------------------------------

    def wrap(self, layer, group: Optional[str] = None, root: bool = False,
             pid: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Decorator recording each call of ``fn`` as a ``layer`` span.

        ``layer`` is a name or a function of the call's positional
        arguments (per-class channel layers).  ``group`` names the layer
        for the re-entry guard (default: the layer itself).  ``root``
        starts a new run id.  ``pid(args)`` tags the span with a pid,
        evaluated when the call returns.  ``after(counters, args,
        result)`` updates extra counts; ``result`` is None when the call
        raised.
        """
        fixed = isinstance(layer, str)
        coarse = is_coarse(layer) if fixed else False
        open_groups = self._open_groups
        stack = self._stack
        open_spans = self._open_spans
        counters = self.counters
        clock = self.clock

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                name = layer if fixed else layer(args)
                guard = group or name
                if guard in open_groups:
                    return fn(*args, **kwargs)
                if root:
                    self.run_id += 1
                span = None
                if coarse or (not fixed and is_coarse(name)):
                    span = self._open_span(name)
                open_groups.add(guard)
                frame = [0, clock()]  # [child_ns, start_ns]
                stack.append(frame)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    open_groups.discard(guard)
                    duration = end - frame[1]
                    self_ns = duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                    tag = pid(args) if pid is not None else None
                    if span is not None:
                        open_spans.pop()
                        span.update(start_ns=frame[1], end_ns=end,
                                    self_ns=self_ns, pid=tag)
                        self.spans.append(span)
                    else:
                        agg = open_spans[-1]["agg"] if open_spans \
                            else self.orphans
                        entry = agg.get((name, tag))
                        if entry is None:
                            agg[(name, tag)] = [1, duration, self_ns]
                        else:
                            entry[0] += 1
                            entry[1] += duration
                            entry[2] += self_ns
                    if after is not None:
                        after(counters, args, result)
            return traced
        return decorate

    def _open_span(self, name: str) -> dict:
        parent = self._open_spans[-1]["id"] if self._open_spans else None
        span = {"id": self._next_span, "parent": parent, "run": self.run_id,
                "layer": name, "agg": {}}
        self._next_span += 1
        self._open_spans.append(span)
        return span

    # -- reading -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, List[int]]:
        """``layer -> [calls, total_ns, self_ns]`` over everything recorded."""
        totals: Dict[str, List[int]] = {}

        def add(name: str, calls: int, total: int, self_ns: int) -> None:
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_ns

        for span in self.spans:
            add(span["layer"], 1, span["end_ns"] - span["start_ns"],
                span["self_ns"])
            for (name, _pid), (calls, total, self_ns) in span["agg"].items():
                add(name, calls, total, self_ns)
        for (name, _pid), (calls, total, self_ns) in self.orphans.items():
            add(name, calls, total, self_ns)
        return totals

    def self_ns_sum(self) -> int:
        return sum(entry[2] for entry in self.layer_totals().values())

    def write(self, path) -> None:
        """Write every span (aggregates flattened) as one JSON document."""
        def flatten(agg):
            return [{"layer": name, "pid": pid, "calls": calls,
                     "total_ns": total, "self_ns": self_ns}
                    for (name, pid), (calls, total, self_ns) in agg.items()]

        spans = [dict(span, agg=flatten(span["agg"])) for span in self.spans]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "orphans": flatten(self.orphans),
                       "counters": self.counters}, handle)


class Patches:
    """Attribute replacements on classes/modules, undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, name: str, wrapper_factory: Callable) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, wrapper_factory(original))
        self._undo.append((owner, name, original))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# -- after-hooks: counts measured where the work happens ----------------------

def _bump(counters: Dict[str, float], key: str, amount: float = 1) -> None:
    counters[key] = counters.get(key, 0) + amount


def _lowered(counters, args, result) -> None:
    if result is None:
        _bump(counters, "sim.lower.rejected")


def _executed(counters, args, result) -> None:
    _bump(counters, "sim.exec.steps", args[0].steps)


def _received(counters, args, result) -> None:
    if result:
        _bump(counters, "ipc.receive.nonempty")
        _bump(counters, "ipc.receive.words", len(result))


def _polled(counters, args, result) -> None:
    if result:
        _bump(counters, "core.verifier.msgs", result)
        _bump(counters, "core.verifier.useful")
    backlog = args[0].backlog_size()
    if backlog > counters.get("core.verifier.backlog_max", 0):
        counters["core.verifier.backlog_max"] = backlog


def _shard_polled(counters, args, result) -> None:
    if result:
        _bump(counters, "core.shard_verifier.msgs", result)


def _admitted(counters, args, result) -> None:
    from repro.sim.kernel import ADMIT
    if result == ADMIT:
        _bump(counters, "sim.kernel.admission.admitted")


def _process_pid(args) -> int:
    return args[0].pid


def _sender_pid(args) -> int:
    return args[1].pid


def _runtime_pid(args) -> int:
    return args[0].interpreter.process.pid


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer's entry point; returns the undo handle."""
    from repro.cfi.designs import get_design
    from repro.compiler import analysis
    from repro.compiler.passes.base import PassManager
    from repro.core.runtime import HQRuntime
    from repro.core.shard_verifier import ShardedVerifier
    from repro.core.verifier import Verifier
    from repro.ipc.appendwrite import AppendWriteModel, AppendWriteUArch
    from repro.ipc.base import Channel
    from repro.sim import lower
    from repro.sim.cpu import Interpreter
    from repro.sim.kernel import HQKernelModule, Kernel
    from repro.sim.loader import Image
    from repro.sim.memory import Memory
    from repro.sim.process import Process

    wrap = tracer.wrap
    patches = Patches()
    try:
        patches.replace(PassManager, "run", wrap("compiler"))
        for pass_ in get_design("hq-retptr").passes():
            cls = type(pass_)
            patches.replace(cls, "run", wrap(f"compiler.pass.{cls.__name__}"))
        patches.replace(analysis, "uses_of", wrap("compiler.analysis.uses_of"))
        patches.replace(lower, "lower_function",
                        wrap("sim.lower", after=_lowered))
        patches.replace(Interpreter, "run", wrap("sim.exec", after=_executed))
        patches.replace(Image, "__init__", wrap("sim.loader"))
        patches.replace(HQRuntime, "call",
                        wrap("core.runtime", pid=_runtime_pid))
        for cls in (AppendWriteUArch, AppendWriteModel):
            patches.replace(cls, "send_raw",
                            wrap(f"ipc.send.{cls.__name__}", group="ipc.send",
                                 pid=_sender_pid))
        patches.replace(Channel, "receive_words",
                        wrap(lambda args: f"ipc.receive.{type(args[0]).__name__}",
                             group="ipc.receive", after=_received))
        patches.replace(Verifier, "poll", wrap("core.verifier", after=_polled))
        patches.replace(ShardedVerifier, "poll",
                        wrap("core.shard_verifier", after=_shard_polled))
        patches.replace(Process, "__init__",
                        wrap("sim.process", pid=_process_pid))
        patches.replace(Memory, "map_region", wrap("sim.memory.map_region"))
        patches.replace(Kernel, "syscall",
                        wrap("sim.kernel.syscall", pid=_sender_pid))
        patches.replace(HQKernelModule, "before_syscall",
                        wrap("sim.kernel.barrier", pid=_sender_pid))
        patches.replace(HQKernelModule, "try_enable",
                        wrap("sim.kernel.admission", pid=_sender_pid,
                             after=_admitted))
    except BaseException:
        patches.undo()
        raise
    return patches
