"""CLI for the production traffic tier.

Examples::

    # Default phased run (warmup, steady, surge, drain), inline verifier.
    PYTHONPATH=src python -m repro.traffic

    # The CI soak: 5000 sessions over 4 verifier shards, JSON report.
    PYTHONPATH=src python -m repro.traffic --sessions 5000 --shards 4 \\
        --json BENCH_traffic.json

    # Quick smoke with SLO gates (what the CI traffic job runs).
    PYTHONPATH=src python -m repro.traffic --quick --json traffic_report.json

    # Chaos mid-churn: crash the verifier at tick 120, a shard at 260.
    PYTHONPATH=src python -m repro.traffic --shards 4 \\
        --faults verifier-crash:120,shard-crash:260

Exit status is non-zero when an SLO gate fails: p99 validation lag
above ``--max-p99-lag``, any leaked per-pid verifier entry after GC,
any leaked shared-memory segment, or any attack session that escaped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Tuple

from repro.ipc.shared_memory import owned_segment_names
from repro.traffic.engine import TrafficConfig, run_traffic
from repro.traffic.sessions import DEFAULT_PHASES, PRESETS

FAULT_KINDS = ("verifier-crash", "shard-crash", "channel-corrupt")


def parse_faults(spec: str) -> List[Tuple[int, str]]:
    """Parse ``kind:tick[,kind:tick...]`` into (tick, kind) pairs."""
    faults: List[Tuple[int, str]] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, tick = token.partition(":")
        if kind not in FAULT_KINDS:
            raise SystemExit(f"unknown fault {kind!r}; "
                             f"choose from {FAULT_KINDS}")
        faults.append((int(tick or 0), kind))
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traffic",
        description="multi-tenant traffic soak for the HerQules monitor")
    parser.add_argument("--sessions", type=int, default=500,
                        help="total sessions to offer (default 500)")
    parser.add_argument("--duration", type=int, default=0,
                        help="hard tick cap (default: derived from phases)")
    parser.add_argument("--phases", default=DEFAULT_PHASES,
                        help=f"phase list, e.g. 'steady:300,surge:100' "
                             f"(presets: {','.join(sorted(PRESETS))})")
    parser.add_argument("--shards", type=int, default=None,
                        help="verifier shards (default: inline single)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--faults", default="",
                        help="injected faults, kind:tick list "
                             "(verifier-crash, shard-crash, channel-corrupt)")
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the SLO report to PATH")
    parser.add_argument("--max-p99-lag", type=float, default=1024.0,
                        help="SLO gate: max p99 barrier-entry validation "
                             "lag, in messages (default 1024, under the "
                             "barrier_timeout_ticks*poll_budget kill "
                             "ceiling — above it admission failed to "
                             "shed before sessions started dying)")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the observability layer")
    args = parser.parse_args(argv)

    sessions = args.sessions
    phases = args.phases
    if args.quick:
        sessions = min(sessions, 400)
        if args.phases == DEFAULT_PHASES:
            # Shorter steady state, longer surge: the quick run must
            # still push traffic into the defer/shed watermarks.
            phases = "warmup:20,steady:60,surge:80,drain:40"

    config = TrafficConfig(
        sessions=sessions,
        duration=args.duration,
        phases=phases,
        shards=args.shards,
        seed=args.seed,
        faults=tuple(parse_faults(args.faults)),
        observe=not args.no_obs)

    start = time.perf_counter()
    report = run_traffic(config)
    wall_s = time.perf_counter() - start
    leaked_segments = sorted(owned_segment_names())
    report["leaks"]["shm_segments"] = len(leaked_segments)
    report["wall_s"] = round(wall_s, 3)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    totals = report["totals"]
    slo = report["slo"]
    gc = report["gc"]
    print(f"traffic: {totals['offered']} offered / "
          f"{totals['completed']} completed / {totals['killed']} killed / "
          f"{totals['shed']} shed ({totals['forks']} forks) "
          f"in {slo['ticks']} ticks [{wall_s:.2f}s wall]")
    print(f"  lag p50/p99/max: {slo['validation_lag_p50']:.0f}/"
          f"{slo['validation_lag_p99']:.0f}/{slo['validation_lag_max']:.0f} "
          f"msgs; kills/sec {slo['kills_per_sec']}; "
          f"shed/sec {slo['shed_per_sec']}")
    print(f"  attacks: {totals['attacks']['offered']} offered, "
          f"{totals['attacks']['detected']} detected, "
          f"{totals['attacks']['escaped']} escaped, "
          f"{totals['attacks']['wins']} wins")
    print(f"  gc: {gc['reclaimed_pids']} pids reclaimed, peak table "
          f"{gc['peak_pid_table']}, final {gc['final_pid_table']}; "
          f"restarts {totals['verifier_restarts']}; "
          f"faults {totals['faults_fired'] or 'none'}")

    failures: List[str] = []
    if slo["validation_lag_p99"] > args.max_p99_lag:
        failures.append(f"p99 validation lag {slo['validation_lag_p99']} "
                        f"> {args.max_p99_lag}")
    if report["leaks"]["pid_entries"]:
        failures.append(f"{report['leaks']['pid_entries']} leaked per-pid "
                        f"verifier entries after GC")
    if report["leaks"]["kernel_processes"]:
        failures.append(f"{report['leaks']['kernel_processes']} unreaped "
                        f"kernel processes")
    if leaked_segments:
        failures.append(f"leaked shm segments: {leaked_segments}")
    if totals["attacks"]["escaped"] or totals["attacks"]["wins"]:
        failures.append("attack sessions escaped enforcement")
    if totals["duration_capped"]:
        failures.append("run hit the duration cap with sessions pending")
    if failures:
        for failure in failures:
            print(f"SLO FAIL: {failure}", file=sys.stderr)
        return 1
    print("  SLO: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
