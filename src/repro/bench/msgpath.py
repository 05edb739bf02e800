"""Message-path microbenchmark CLI: ``python -m repro.bench.msgpath``.

Measures messages/second through the HerQules message path at two
levels, writing ``BENCH_msgpath.json`` next to ``BENCH_pipeline.json``:

* ``channel:<primitive>`` — raw transport throughput: send + periodic
  receive-side drain for each Table 2 primitive, no verifier attached.
* ``policy:<name>`` — verifier throughput: a violation-free
  representative op stream is sent over an AppendWrite-uarch channel
  and drained through :meth:`Verifier.poll`, exercising counter
  validation, batch dispatch, and the policy's checks.  The
  ``policy:hq-cfi`` entry is the paper's hot path (define/check
  pointer-integrity traffic) and the configuration the ≥5x acceptance
  target is measured on.

Whole-program throughput is perfbench's business (``BENCHMARK.json``),
not this microbenchmark's.

The harness is *feature-detecting*: it drives ``Channel.send_raw`` /
``receive_words`` (the flat packed word-stream path) when the running
tree provides them and falls back to ``Message`` objects +
``receive_all`` otherwise — so the very same file measures a pre-change
checkout, which is how the committed baseline in ``BENCH_msgpath.json``
was produced.

Flags:

* ``--quick`` — smaller message counts (CI-sized).
* ``--json`` — machine-readable output on stdout.
* ``--messages N`` — override the per-benchmark message count.
* ``--out PATH`` — where to write the JSON report ('-' to skip).
* ``--rounds N`` — timing repeats per benchmark (best round kept).
* ``--baseline PATH`` — embed a previously captured report as the
  comparison baseline and compute per-benchmark speedups.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.timing import best_of
from repro.core.messages import Message, Op
from repro.core.verifier import Verifier
from repro.ipc.registry import create_channel
from repro.sim.process import Process

#: Every Table 2 primitive (``sim`` is an alias of ``uarch``).
CHANNEL_PRIMITIVES = ("mq", "pipe", "socket", "shm", "lwc", "fpga",
                      "uarch", "model")

#: Messages sent between receive-side drains, well below every
#: channel's default capacity so full-buffer handling never triggers.
DRAIN_EVERY = 2048

#: The acceptance-criteria benchmark key (hq_cfi + uarch).
HOT_PATH = "policy:hq-cfi"

#: Timing repeats per channel/policy benchmark: the best of N rounds is
#: reported — the standard defence against scheduler noise when timing
#: sub-second loops.
ROUNDS = 3

#: Default message counts.
FULL_MESSAGES = 200_000
QUICK_MESSAGES = 20_000

_OP_BY_VALUE = {int(op): op for op in Op}

# Flat (op, arg0, arg1, aux) event tuples; streams below are built from
# these so both the word path and the legacy Message path replay the
# exact same traffic.
Event = Tuple[int, int, int, int]

_DEFINE = int(Op.POINTER_DEFINE)
_CHECK = int(Op.POINTER_CHECK)
_SYSCALL = int(Op.SYSCALL)
_EVENT = int(Op.EVENT)
_ALLOC_CREATE = int(Op.ALLOCATION_CREATE)
_ALLOC_CHECK = int(Op.ALLOCATION_CHECK)
_ALLOC_CHECK_BASE = int(Op.ALLOCATION_CHECK_BASE)
_ALLOC_DESTROY = int(Op.ALLOCATION_DESTROY)


# ---------------------------------------------------------------------------
# Representative, violation-free policy streams
# ---------------------------------------------------------------------------

def _with_syscalls(events: List[Event], every: int = 64) -> List[Event]:
    """Interleave SYSCALL sync markers like instrumented programs do."""
    out: List[Event] = []
    for i, event in enumerate(events):
        out.append(event)
        if (i + 1) % every == 0:
            out.append((_SYSCALL, 1, 0, 0))
    return out


def _cfi_stream(n: int) -> List[Event]:
    """The paper's dominant traffic: 1 define : 3 checks, 256 hot slots."""
    out: List[Event] = []
    i = 0
    while len(out) < n:
        slot = i % 256
        address = 0x1000 + slot * 8
        value = 0x40_0000 + i
        out.append((_DEFINE, address, value, 0))
        out.append((_CHECK, address, value, 0))
        out.append((_CHECK, address, value, 0))
        out.append((_CHECK, address, value, 0))
        i += 1
    return _with_syscalls(out[:n])


def _memory_safety_stream(n: int) -> List[Event]:
    out: List[Event] = []
    i = 0
    while len(out) < n:
        base = 0x10_0000 + (i % 512) * 256
        out.append((_ALLOC_CREATE, base, 64, 0))
        out.append((_ALLOC_CHECK, base + 8, 0, 0))
        out.append((_ALLOC_CHECK_BASE, base + 8, base + 16, 0))
        out.append((_ALLOC_DESTROY, base, 0, 0))
        i += 1
    return _with_syscalls(out[:n])


def _call_counter_stream(n: int) -> List[Event]:
    return _with_syscalls([(_EVENT, 1, 1, 0)] * n)


def _dfi_stream(n: int) -> List[Event]:
    out: List[Event] = []
    i = 0
    while len(out) < n:
        address = 0x2000 + (i % 256) * 8
        out.append((_EVENT, 20, address, 5))   # DFI_STORE, def id 5
        out.append((_EVENT, 22, address, 1))   # DFI_CHECK, set id 1
        i += 1
    return _with_syscalls(out[:n])


def _taint_stream(n: int) -> List[Event]:
    out: List[Event] = []
    i = 0
    while len(out) < n:
        address = 0x3000 + (i % 256) * 8
        out.append((_EVENT, 10, address, 0))   # TAINT_SOURCE
        out.append((_EVENT, 12, address, 0))   # TAINT_CLEAR
        out.append((_EVENT, 11, address, 0))   # TAINT_SINK (clean)
        i += 1
    return _with_syscalls(out[:n])


def _watchdog_stream(n: int) -> List[Event]:
    return _with_syscalls([(_EVENT, 2, seq, 0) for seq in range(1, n + 1)])


def _policy_factories() -> Dict[str, Tuple[Callable, Callable[[int], List[Event]]]]:
    from repro.cfi.hq_cfi import HQCFIPolicy
    from repro.policies.call_counter import CallCounterPolicy
    from repro.policies.dfi import DFIPolicy
    from repro.policies.memory_safety import MemorySafetyPolicy
    from repro.policies.taint import TaintPolicy
    from repro.policies.watchdog import WatchdogPolicy
    return {
        "hq-cfi": (HQCFIPolicy, _cfi_stream),
        "memory-safety": (MemorySafetyPolicy, _memory_safety_stream),
        "call-counter": (CallCounterPolicy, _call_counter_stream),
        "dfi": (lambda: DFIPolicy({1: frozenset({0, 5})}), _dfi_stream),
        "taint": (TaintPolicy, _taint_stream),
        "watchdog": (WatchdogPolicy, _watchdog_stream),
    }


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def bench_channel(primitive: str, n: int) -> Dict[str, object]:
    """Transport throughput: send ``n`` messages with periodic drains."""
    channel = create_channel(primitive)
    process = Process(name="msgpath-bench")
    send_raw = getattr(channel, "send_raw", None)
    receive = getattr(channel, "receive_words", None) or channel.receive_all
    start = time.perf_counter()
    sent = 0
    if send_raw is not None:
        while sent < n:
            burst = min(DRAIN_EVERY, n - sent)
            for _ in range(burst):
                send_raw(process, _DEFINE, 0x1000, 0x40_0000, 0)
            receive()
            sent += burst
    else:
        define = Op.POINTER_DEFINE
        while sent < n:
            burst = min(DRAIN_EVERY, n - sent)
            for _ in range(burst):
                channel.send(process, Message(define, 0x1000, 0x40_0000))
            receive()
            sent += burst
    elapsed = time.perf_counter() - start
    return {"messages": n, "elapsed_s": elapsed,
            "msgs_per_sec": n / elapsed if elapsed else 0.0,
            "path": "words" if send_raw is not None else "objects"}


def bench_policy(name: str, factory: Callable,
                 stream: List[Event], n: int) -> Dict[str, object]:
    """Verifier throughput over an AppendWrite-uarch channel."""
    verifier = Verifier(factory)
    channel = create_channel("uarch", capacity=1 << 14)
    verifier.attach_channel(channel)
    process = Process(name="msgpath-bench")
    verifier.register_process(process.pid)
    send_raw = getattr(channel, "send_raw", None)
    start = time.perf_counter()
    if send_raw is not None:
        for base in range(0, len(stream), DRAIN_EVERY):
            for op, arg0, arg1, aux in stream[base:base + DRAIN_EVERY]:
                send_raw(process, op, arg0, arg1, aux)
            verifier.poll()
    else:
        ops = _OP_BY_VALUE
        for base in range(0, len(stream), DRAIN_EVERY):
            for op, arg0, arg1, aux in stream[base:base + DRAIN_EVERY]:
                channel.send(process, Message(ops[op], arg0, arg1, aux))
            verifier.poll()
    verifier.poll()
    elapsed = time.perf_counter() - start
    stats = verifier.stats.get(process.pid)
    return {"messages": len(stream), "elapsed_s": elapsed,
            "msgs_per_sec": len(stream) / elapsed if elapsed else 0.0,
            "processed": stats.messages_processed if stats else 0,
            "violations": stats.violations if stats else 0,
            "path": "words" if send_raw is not None else "objects"}


def run_suite(messages: int,
              rounds: int = ROUNDS) -> Dict[str, Dict[str, object]]:
    benchmarks: Dict[str, Dict[str, object]] = {}
    channel_messages = max(1, messages // 2)
    for primitive in CHANNEL_PRIMITIVES:
        benchmarks[f"channel:{primitive}"] = best_of(
            rounds, lambda p=primitive: bench_channel(p, channel_messages))
    for name, (factory, stream_fn) in _policy_factories().items():
        stream = stream_fn(messages)
        benchmarks[f"policy:{name}"] = best_of(
            rounds, lambda n=name, f=factory, s=stream: bench_policy(
                n, f, s, messages))
    return benchmarks


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def build_report(benchmarks: Dict[str, Dict[str, object]], messages: int,
                 quick: bool,
                 baseline: Optional[dict] = None) -> dict:
    report = {
        "harness": "repro.bench.msgpath",
        "quick": quick,
        "messages": messages,
        "hot_path": HOT_PATH,
        "benchmarks": benchmarks,
    }
    if baseline is not None:
        base_benchmarks = baseline.get("benchmarks", {})
        speedup = {}
        for key, current in benchmarks.items():
            before = base_benchmarks.get(key, {}).get("msgs_per_sec")
            if before:
                speedup[key] = round(
                    float(current["msgs_per_sec"]) / float(before), 2)
        report["baseline"] = {
            "note": baseline.get("note",
                                 "same harness on the pre-change tree"),
            "benchmarks": base_benchmarks,
        }
        report["speedup_vs_baseline"] = speedup
    return report


def format_human(report: dict) -> str:
    lines = ["message-path throughput (msgs/sec)", ""]
    speedups = report.get("speedup_vs_baseline", {})
    width = max(len(key) for key in report["benchmarks"])
    for key, entry in report["benchmarks"].items():
        extra = ""
        if key in speedups:
            extra = f"   {speedups[key]:.2f}x vs baseline"
        marker = "  <- hot path" if key == report["hot_path"] else ""
        lines.append(f"  {key:<{width}}  {entry['msgs_per_sec']:>12,.0f}"
                     f"{extra}{marker}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.msgpath",
        description="Benchmark the HerQules message path (msgs/sec).")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI-sized run ({QUICK_MESSAGES} messages per "
                             f"benchmark instead of {FULL_MESSAGES})")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report on stdout")
    parser.add_argument("--messages", type=int, default=None,
                        help="override the per-benchmark message count")
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="timing repeats per benchmark; the best "
                             "round is reported (default: %(default)s)")
    parser.add_argument("--out", default="BENCH_msgpath.json",
                        help="report path (default: %(default)s; '-' skips)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="embed PATH (a previous report) as the "
                             "comparison baseline")
    args = parser.parse_args(argv)

    messages = args.messages or (QUICK_MESSAGES if args.quick
                                 else FULL_MESSAGES)
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    benchmarks = run_suite(messages, rounds=args.rounds)
    report = build_report(benchmarks, messages, args.quick, baseline)

    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(format_human(report))

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
