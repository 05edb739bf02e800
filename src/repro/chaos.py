"""Chaos runner: prove the fail-closed invariant under injected faults.

Sweeps ``seeds × fault matrix × channel types × workloads``, running
each cell under a deterministic :class:`repro.faults.FaultPlan`, and
classifies every run against its fault-free baseline:

* ``tolerated`` — the run completed and its output (and exit status)
  is byte-identical to the fault-free run: the fault was absorbed.
* ``detected-kill`` — the fault was detected and the monitored program
  was killed (policy violation, integrity gap, epoch timeout, channel
  exhaustion, or verifier termination), with a recorded reason.

Anything else breaks the paper's security argument (sections 2.2 and
3.4) and fails the sweep:

* ``silent-bypass`` — the run "succeeded" but its output diverged:
  a fault changed behaviour without detection.
* ``hang`` — the run exhausted its step budget.
* ``uncaught`` — an exception escaped the framework.

Usage::

    python -m repro.chaos                       # default sweep
    python -m repro.chaos --seeds 50            # acceptance sweep
    python -m repro.chaos --seeds 20 --quick    # CI job
    python -m repro.chaos --faults drop,corrupt --channels model,mq
    python -m repro.chaos --json report.json --jobs 4
    python -m repro.chaos --observe             # per-verdict obs counters
    python -m repro.chaos --race                # HB-check shard rings

Every verdict is replayable: the runner re-executes a sample of cases
(``--replay-check``) and fails if any verdict is not reproduced.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.types import I64, func, ptr
from repro.core.framework import RunResult, run_program
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.sim.cpu import SYS_FORK
from repro.workloads import webserver
from repro.workloads.generator import build_module
from repro.workloads.profiles import get_profile

#: Verdicts that satisfy the fail-closed invariant.
OK_VERDICTS = ("tolerated", "detected-kill")
BAD_VERDICTS = ("silent-bypass", "hang", "uncaught", "error")

#: Channel types in the default sweep (the Table 2 spread: software
#: model, simulated AMR, FPGA ring, kernel-mediated queue, raw shm).
DEFAULT_CHANNELS = ("model", "sim", "fpga", "mq", "shm")
QUICK_CHANNELS = ("model", "sim", "mq")

DEFAULT_DESIGN = "hq-sfestk"

#: Process-wide observability switch, set by ``--observe``.  A module
#: global (not a parameter threaded through the case tuples) so replay
#: determinism is trivial and fork-started pool workers inherit it.
_OBSERVE = False

#: Process-wide race-check switch, set by ``--race``: sharded cells
#: additionally run happens-before detection over their ring traces
#: (``repro.mc.race``) and any flagged race fails the sweep.  Same
#: module-global pattern as ``_OBSERVE``, for the same replay reasons.
_RACE = False


# ---------------------------------------------------------------------------
# Workload corpus
# ---------------------------------------------------------------------------

def _build_forker() -> ir.Module:
    """A monitored program that forks, then keeps serving.

    Exercises the HQContext copy-on-fork path (section 3.3) under
    faults: the child context must be registered with both the module
    and the verifier even while messages are being dropped.
    """
    module = ir.Module("forker")
    sig = func(I64, [I64])
    worker = module.add_function("worker", sig)
    wb = IRBuilder(worker.add_block("entry"))
    wb.ret(wb.add(worker.params[0], wb.const(7)))
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    b.syscall(SYS_FORK, [], "child")
    slot = b.alloca(ptr(sig))
    b.store(ir.FunctionRef(worker), slot)
    total = b.const(0)
    for round_no in range(4):
        value = b.icall(b.load(slot), [b.const(round_no)], sig)
        b.syscall(1, [b.const(1), value, b.const(8)])
        total = b.add(total, value)
    # Note: the child pid never reaches the output — pids are allocated
    # from a process-global counter, so they differ run to run.
    b.ret(total)
    module.verify()
    return module


def _workloads() -> Dict[str, Tuple[Callable[[], ir.Module],
                                    Optional[Callable]]]:
    """name → (fresh-module factory, pre_run hook)."""
    trace = webserver.benign_trace(6)
    return {
        "webserver": (
            lambda: webserver.build_server(max_requests=len(trace)),
            lambda image, interp: webserver.plant_trace(image, trace)),
        "bzip2-train": (
            lambda: build_module(get_profile("401.bzip2"), dataset="train"),
            None),
        "forker": (_build_forker, None),
    }


WORKLOADS = _workloads()
QUICK_WORKLOADS = ("webserver", "forker")


# ---------------------------------------------------------------------------
# Case execution and classification
# ---------------------------------------------------------------------------

@dataclass
class ChaosRecord:
    """One classified chaos run."""

    workload: str
    channel: str
    fault: str
    seed: int
    verdict: str
    outcome: str
    detail: str
    output_len: int
    messages_sent: int
    verifier_polls: int
    verifier_crashes: int
    verifier_restarts: int
    injected_full: int
    delay_episodes: int
    #: Shard-crash cells only (``shard-crash`` runs use the sharded
    #: runtime): injections performed, and kills that were *not* scoped
    #: to the dead shard's pids — any nonzero mis-scope fails the sweep.
    shard_crashes: int = 0
    mis_scoped_kills: int = 0
    #: Races flagged by the happens-before detector (``--race`` sharded
    #: cells only); any nonzero count is an ``error`` verdict.
    races: int = 0
    #: Observability counter snapshot (``--observe`` runs only): the
    #: run's ``obs_report`` counters, fully deterministic per case, so
    #: replay equality covers them too.
    obs: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return self.verdict in OK_VERDICTS

    def key(self) -> Tuple[str, str, str, int]:
        return (self.workload, self.channel, self.fault, self.seed)


#: Fault-free reference runs, keyed by (workload, channel).  Computed
#: lazily so multiprocessing workers fill their own cache on demand.
_BASELINES: Dict[Tuple[str, str], RunResult] = {}


def _run_workload(workload: str, channel: str,
                  injector: Optional[FaultInjector],
                  observe: bool = False,
                  shards: Optional[int] = None) -> RunResult:
    factory, pre_run = WORKLOADS[workload]
    return run_program(factory(), design=DEFAULT_DESIGN, channel=channel,
                       pre_run=pre_run, fault_injector=injector,
                       max_steps=2_000_000, observe=observe, shards=shards,
                       race_check=_RACE and shards is not None)


def baseline_for(workload: str, channel: str) -> RunResult:
    key = (workload, channel)
    if key not in _BASELINES:
        result = _run_workload(workload, channel, None)
        if not result.ok:
            raise RuntimeError(
                f"fault-free baseline for {workload}/{channel} is not ok: "
                f"{result.outcome} ({result.detail})")
        _BASELINES[key] = result
    return _BASELINES[key]


def make_plan(workload: str, channel: str, fault: FaultKind,
              seed: int) -> FaultPlan:
    kinds = () if fault is FaultKind.NONE else (fault,)
    return FaultPlan(seed, kinds, scope=f"{workload}:{channel}:{fault.value}")


def classify(result: RunResult, baseline: RunResult) -> str:
    if result.outcome == "ok":
        if (result.output == baseline.output
                and result.exit_status == baseline.exit_status):
            return "tolerated"
        return "silent-bypass"
    if result.outcome in ("killed", "violation"):
        return "detected-kill"
    if result.outcome == "hang":
        return "hang"
    return "error"


#: Shard count used for ``shard-crash`` sweep cells: enough shards that
#: the root pid usually survives the crash (tolerated) but sometimes
#: does not (detected-kill), so both arms of the scoping argument are
#: exercised across seeds.
SHARD_CRASH_SHARDS = 3


def run_case(workload: str, channel: str, fault: FaultKind,
             seed: int) -> ChaosRecord:
    """Execute and classify one cell of the sweep."""
    baseline = baseline_for(workload, channel)
    injector = FaultInjector(make_plan(workload, channel, fault, seed))
    obs_counters: Optional[Dict[str, int]] = None
    shards = SHARD_CRASH_SHARDS if fault is FaultKind.SHARD_CRASH else None
    mis_scoped = 0
    races = 0
    try:
        result = _run_workload(workload, channel, injector,
                               observe=_OBSERVE, shards=shards)
        verdict = classify(result, baseline)
        outcome, detail = result.outcome, result.detail
        output_len = len(result.output)
        messages = result.messages_sent
        if (fault is FaultKind.SHARD_CRASH and outcome == "killed"
                and detail == "verifier-terminated"):
            # Scoping audit: a shard-death kill is legitimate only for a
            # pid the dead shard owned — crash_shard records a
            # ``shard-terminated`` violation for exactly those pids, so
            # its absence means a surviving shard's pid was killed.
            if not any(v.kind == "shard-terminated"
                       for v in result.violations):
                mis_scoped = 1
                verdict = "error"
                detail += " [mis-scoped: killed pid not on dead shard]"
        if result.races:
            # The run's verdict may be fine, but an unsynchronized ring
            # access means the transport only *happened* to be correct.
            races = len(result.races)
            verdict = "error"
            detail = (detail + " " if detail else "") + \
                f"[races: {result.races[0]}]"
        if _OBSERVE and result.obs_report is not None:
            obs_counters = dict(result.obs_report["metrics"]["counters"])
    except Exception as error:  # the invariant says this must not happen
        verdict, outcome = "uncaught", "exception"
        detail = f"{type(error).__name__}: {error}"
        output_len = messages = 0
    faulty_verifier = injector.verifier
    faulty_channel = injector.channel
    return ChaosRecord(
        workload=workload, channel=channel, fault=fault.value, seed=seed,
        verdict=verdict, outcome=outcome, detail=detail,
        output_len=output_len, messages_sent=messages,
        verifier_polls=faulty_verifier.polls if faulty_verifier else 0,
        verifier_crashes=faulty_verifier.crashes if faulty_verifier else 0,
        verifier_restarts=faulty_verifier.restarts if faulty_verifier else 0,
        injected_full=faulty_channel.injected_full if faulty_channel else 0,
        delay_episodes=faulty_channel.delay_episodes if faulty_channel else 0,
        shard_crashes=(faulty_verifier.shard_crashes
                       if faulty_verifier else 0),
        mis_scoped_kills=mis_scoped,
        races=races,
        obs=obs_counters)


def _run_case_tuple(case: Tuple[str, str, str, int]) -> ChaosRecord:
    workload, channel, fault, seed = case
    return run_case(workload, channel, FaultKind.parse(fault), seed)


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def build_matrix(workloads, channels, faults, seeds,
                 seed_base: int = 0) -> List[Tuple[str, str, str, int]]:
    return [(w, c, f.value, seed_base + s)
            for w in workloads
            for c in channels
            for f in faults
            for s in range(seeds)]


def run_sweep(cases: List[Tuple[str, str, str, int]],
              jobs: int = 1) -> List[ChaosRecord]:
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(_run_case_tuple, cases, chunksize=8)
    return [_run_case_tuple(case) for case in cases]


def replay_check(records: List[ChaosRecord],
                 samples: int) -> List[Tuple[ChaosRecord, ChaosRecord]]:
    """Re-run a deterministic sample; return (original, replay) mismatches.

    Bad-verdict cases are always replayed (a non-reproducible failure
    is its own bug class); the rest of the budget samples evenly.
    """
    if not records or samples <= 0:
        return []
    chosen = [r for r in records if not r.ok]
    stride = max(1, len(records) // max(1, samples))
    chosen.extend(records[::stride][:samples])
    mismatches = []
    for original in chosen:
        again = _run_case_tuple(original.key())
        if again != original:
            mismatches.append((original, again))
    return mismatches


def summarize(records: List[ChaosRecord]) -> Dict[str, Dict[str, int]]:
    table: Dict[str, Dict[str, int]] = {}
    for record in records:
        row = table.setdefault(record.fault, {})
        row[record.verdict] = row.get(record.verdict, 0) + 1
    return table


def render_summary(records: List[ChaosRecord]) -> str:
    table = summarize(records)
    verdicts = list(OK_VERDICTS) + [v for v in BAD_VERDICTS
                                    if any(v in row for row in table.values())]
    width = max(len(f) for f in table) if table else 8
    lines = ["chaos sweep: %d runs" % len(records),
             "  %-*s  %s" % (width, "fault", "  ".join(
                 "%14s" % v for v in verdicts))]
    for fault in sorted(table):
        row = table[fault]
        lines.append("  %-*s  %s" % (width, fault, "  ".join(
            "%14d" % row.get(v, 0) for v in verdicts)))
    bad = [r for r in records if not r.ok]
    if bad:
        lines.append("")
        lines.append("INVARIANT VIOLATIONS (%d):" % len(bad))
        for record in bad[:20]:
            lines.append("  %s/%s/%s seed=%d: %s — %s (%s)" % (
                record.workload, record.channel, record.fault, record.seed,
                record.verdict, record.outcome, record.detail[:120]))
        if len(bad) > 20:
            lines.append("  ... and %d more" % (len(bad) - 20))
    return "\n".join(lines)


def obs_by_verdict(records: List[ChaosRecord]
                   ) -> Dict[str, Dict[str, int]]:
    """Sum each observability counter per verdict (``--observe`` runs)."""
    table: Dict[str, Dict[str, int]] = {}
    for record in records:
        if record.obs is None:
            continue
        row = table.setdefault(record.verdict, {})
        for name, value in record.obs.items():
            row[name] = row.get(name, 0) + value
    return table


def render_obs_summary(records: List[ChaosRecord]) -> str:
    """Per-verdict counter totals — which layers fired on which verdicts.

    Only nonzero counters are shown; e.g. ``detected-kill`` rows carry
    ``kernel.kills`` / ``verifier.violations`` while ``tolerated`` rows
    must not.
    """
    table = obs_by_verdict(records)
    if not table:
        return "obs: no observed records"
    lines = ["obs counters by verdict:"]
    for verdict in sorted(table):
        row = table[verdict]
        lines.append(f"  [{verdict}]")
        for name in sorted(row):
            if row[name]:
                lines.append(f"    {name}  {row[name]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault-injection sweep asserting the "
                    "fail-closed invariant (tolerated or detected-kill, "
                    "never hang / silent bypass / uncaught exception).")
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per (workload, channel, fault) cell")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed value (default 0)")
    parser.add_argument("--quick", action="store_true",
                        help="trimmed matrix for CI (fewer channels, "
                             "workloads, and fault kinds)")
    parser.add_argument("--channels", type=_csv, default=None,
                        help="comma-separated channel types")
    parser.add_argument("--faults", type=_csv, default=None,
                        help="comma-separated fault kinds (see --list)")
    parser.add_argument("--workloads", type=_csv, default=None,
                        help="comma-separated workload names")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--replay-check", type=int, default=3,
                        help="cases to re-run verifying verdict "
                             "reproducibility (0 disables)")
    parser.add_argument("--json", metavar="PATH",
                        help="write all records as JSON ('-' for stdout)")
    parser.add_argument("--observe", action="store_true",
                        help="attach the observability layer to every "
                             "fault run and report per-verdict counter "
                             "totals (baselines stay unobserved)")
    parser.add_argument("--race", action="store_true",
                        help="run happens-before race detection over the "
                             "shard rings of sharded cells; a flagged "
                             "race fails the sweep")
    parser.add_argument("--list", action="store_true",
                        help="list workloads, channels, and fault kinds")
    args = parser.parse_args(argv)

    if args.observe:
        global _OBSERVE
        _OBSERVE = True
    if args.race:
        global _RACE
        _RACE = True

    all_faults = [k for k in FaultKind]
    if args.list:
        print("workloads:", ", ".join(sorted(WORKLOADS)))
        print("channels: ", ", ".join(DEFAULT_CHANNELS))
        print("faults:   ", ", ".join(k.value for k in all_faults))
        return 0

    if args.quick:
        faults = [FaultKind.NONE, FaultKind.DROP, FaultKind.CORRUPT,
                  FaultKind.DELAY, FaultKind.FORCED_FULL_PERSISTENT,
                  FaultKind.VERIFIER_CRASH_RESTART, FaultKind.SLOW_VERIFIER,
                  FaultKind.SHARD_CRASH]
        channels: Tuple[str, ...] = QUICK_CHANNELS
        workloads: Tuple[str, ...] = QUICK_WORKLOADS
    else:
        faults = all_faults
        channels = DEFAULT_CHANNELS
        workloads = tuple(sorted(WORKLOADS))
    if args.faults is not None:
        try:
            faults = [FaultKind.parse(name) for name in args.faults]
        except ValueError as error:
            parser.error(str(error))
    if args.channels is not None:
        channels = tuple(args.channels)
    if args.workloads is not None:
        workloads = tuple(args.workloads)
        for name in workloads:
            if name not in WORKLOADS:
                parser.error(f"unknown workload {name!r}; "
                             f"choose from {sorted(WORKLOADS)}")

    cases = build_matrix(workloads, channels, faults, args.seeds,
                         args.seed_base)
    records = run_sweep(cases, jobs=args.jobs)
    print(render_summary(records))
    if args.observe:
        print()
        print(render_obs_summary(records))

    mismatches = replay_check(records, args.replay_check)
    if mismatches:
        print("\nDETERMINISM FAILURES (%d):" % len(mismatches))
        for original, again in mismatches[:10]:
            print("  %s: %s -> %s" % (original.key(), original.verdict,
                                      again.verdict))
    elif args.replay_check:
        print("\ndeterminism: %d sampled case(s) reproduced identically"
              % min(len(records), max(args.replay_check,
                                      len([r for r in records if not r.ok]))))

    if args.json:
        payload = json.dumps([asdict(r) for r in records], indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")

    bad = [r for r in records if not r.ok]
    if bad or mismatches:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
