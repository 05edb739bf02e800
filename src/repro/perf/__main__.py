"""Command-line entry point: ``python -m repro.perf <subcommand>``.

Subcommands:

* ``record`` -- measure this tree with perfbench (every workload in
  ``BENCHMARK.json``, untraced then traced) and append the profile to
  ``perf_history/`` as this commit's entry.
* ``log`` -- list the recorded history; ``--metric NAME`` prints one
  metric's per-commit trajectory.
* ``diff`` -- deterministic metric-level diff between two history
  entries (by index or commit prefix) or profile files.
* ``check`` -- the CI perf gate: measure with perfbench, compare against
  a baseline (``--against`` a profile file or a history index/commit
  prefix; default the newest history entry) under the ``BENCHMARK.json``
  bounds, and run the degradation detectors over the ``perf_history/``
  trajectory; non-zero exit on any failure, naming the metric, the
  magnitude, the layer that grew most, and the first degraded commit.

Run from the repository root (``BENCHMARK.json`` and ``perf_history/``
are read from the working directory).  ``--report PATH`` substitutes a
``repro.perf/1`` profile for the perfbench measurement.

Examples::

    # Record this commit's history entry (about 3.5 minutes).
    python -m repro.perf record

    # The CI gate.
    python -m repro.perf check --history perf_history \\
        --profile-out perf_profile.json --markdown "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.perf import gate, runner, store
from repro.perf import profile as profile_mod
from repro.perf.profile import Metric


def _build_profile(args: argparse.Namespace) -> Optional[dict]:
    """The current profile: perfbench's numbers, or ``--report``'s.
    ``None`` (after saying why) when a perfbench run failed."""
    if args.report:
        metrics = profile_mod.metrics_of(profile_mod.load(args.report))
        sources = {"report": {"path": args.report}}
    else:
        benchmark = runner.load_benchmark()
        try:
            metrics = runner.run_perfbench(benchmark)
        except runner.PerfbenchFailed as error:
            print(f"perf {args.command}: {error}\n"
                  f"perf {args.command}: nothing written", file=sys.stderr)
            return None
        sources = {"perfbench": {"command": benchmark["command"],
                                 "seed": runner.SEED,
                                 "run_seconds": benchmark["run_seconds"]}}
    from repro.bench.table6 import source_lines
    # Informational: non-comment source lines of the package.
    metrics["code.sloc"] = Metric(float(source_lines()), unit="lines",
                                  direction=profile_mod.LOWER)
    prof = profile_mod.new_profile(
        metrics, env=profile_mod.environment(commit=args.commit))
    prof["sources"] = sources
    return prof


def cmd_record(args: argparse.Namespace) -> int:
    prof = _build_profile(args)
    if prof is None:
        return 1
    path = store.record(prof, history_dir=args.history,
                        commit=args.commit)
    count = len(prof["metrics"])
    print(f"recorded {count} metrics -> {path}")
    return 0


def cmd_log(args: argparse.Namespace) -> int:
    history = store.entries(args.history)
    if not history:
        print(f"no history under {args.history!r}")
        return 0
    if args.json:
        print(json.dumps([{"index": e.index, "commit": e.commit,
                           "quick": e.quick,
                           "metrics": len(e.metrics)}
                          for e in history], indent=2))
        return 0
    for line in store.log_lines(history, metric=args.metric):
        print(line)
    return 0


def _resolve(ref: str, history: List[store.Entry]
             ) -> tuple[Dict[str, Metric], str]:
    """A profile path, or a history entry by index or commit prefix."""
    if os.path.isfile(ref):
        return (profile_mod.metrics_of(profile_mod.load(ref)),
                f"profile {ref!r}")
    entry = store.resolve_entry(history, ref)
    return entry.metrics, f"history entry {entry.index:04d} ({entry.commit})"


def cmd_diff(args: argparse.Namespace) -> int:
    history = store.entries(args.history)
    old, _ = _resolve(args.old, history)
    new, _ = _resolve(args.new, history)
    lines = store.diff_lines(old, new)
    if not lines:
        print(f"no metric differences ({args.old} vs {args.new})")
        return 0
    for line in lines:
        print(line)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    bounds = runner.e2e_bounds(runner.load_benchmark())
    history = store.entries(args.history)
    try:
        if args.against is None and not history:
            raise KeyError(f"{args.history!r} holds no entry")
        baseline, desc = _resolve(args.against or str(history[-1].index),
                                  history)
    except KeyError as error:
        print(f"perf check: no baseline: {error}", file=sys.stderr)
        return 2
    prof = _build_profile(args)
    if prof is None:
        return 1
    current = profile_mod.metrics_of(prof)
    commit = str(prof["environment"].get("commit", "worktree"))
    result = gate.run_gate(current, baseline, desc, history,
                           bounds=bounds, current_commit=commit[:12])

    if args.profile_out:
        profile_mod.dump(prof, args.profile_out)
    if args.markdown:
        with open(args.markdown, "a", encoding="utf-8") as handle:
            handle.write(gate.format_markdown(result))
    if args.json:
        payload = {
            "ok": result.ok,
            "baseline": result.baseline_desc,
            "failures": result.failures,
            "warnings": result.warnings,
            "rows": [vars(row) for row in result.rows],
            "verdicts": [vars(v) for v in result.verdicts],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(gate.format_text(result))
    return 0 if result.ok else 1


def _add_current_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="use this repro.perf/1 profile instead of "
                             "measuring with perfbench")
    parser.add_argument("--commit", default=None, metavar="SHA",
                        help="commit sha to stamp (default: git HEAD)")
    parser.add_argument("--history", default=store.DEFAULT_DIR,
                        metavar="DIR",
                        help="history store (default: %(default)s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Performance history: record per-commit profiles, "
                    "inspect the trajectory, and run the unified CI "
                    "perf gate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser(
        "record", help="measure with perfbench and record the profile "
                       "into perf_history/")
    _add_current_args(p_record)
    p_record.set_defaults(func=cmd_record)

    p_log = sub.add_parser("log", help="list recorded history entries")
    p_log.add_argument("--history", default=store.DEFAULT_DIR,
                       metavar="DIR")
    p_log.add_argument("--metric", default=None, metavar="NAME",
                       help="print one metric's per-commit trajectory")
    p_log.add_argument("--json", action="store_true")
    p_log.set_defaults(func=cmd_log)

    p_diff = sub.add_parser(
        "diff", help="metric-level diff between two entries or profiles")
    p_diff.add_argument("old", help="history index/commit or profile path")
    p_diff.add_argument("new", help="history index/commit or profile path")
    p_diff.add_argument("--history", default=store.DEFAULT_DIR,
                        metavar="DIR")
    p_diff.set_defaults(func=cmd_diff)

    p_check = sub.add_parser(
        "check", help="the unified perf gate (non-zero exit on "
                      "regression)")
    _add_current_args(p_check)
    p_check.add_argument("--against", default=None, metavar="REF",
                         help="baseline: a profile file, or a history "
                              "index or commit prefix (default: the "
                              "newest history entry)")
    p_check.add_argument("--profile-out", default=None, metavar="PATH",
                         help="also write the current unified profile")
    p_check.add_argument("--markdown", default=None, metavar="PATH",
                         help="append a markdown summary table "
                              "(e.g. $GITHUB_STEP_SUMMARY)")
    p_check.add_argument("--json", default=None, metavar="PATH",
                         help="write the machine-readable gate result")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
