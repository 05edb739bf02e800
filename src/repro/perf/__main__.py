"""Command-line entry point: ``python -m repro.perf <subcommand>``.

Subcommands:

* ``record`` — build a unified profile from bench report files (or the
  committed ``BENCH_*.json`` snapshots) and append it to
  ``perf_history/`` as this commit's entry.
* ``log`` — list the recorded history; ``--metric NAME`` prints one
  metric's per-commit trajectory.
* ``diff`` — deterministic metric-level diff between two history
  entries (by index or commit prefix) or arbitrary report files.
* ``check`` — the CI perf gate: compare the current reports against a
  baseline (``--against`` a git ref, a profile file, or a directory of
  committed snapshots) under the tolerance policy, run the obs
  exact-diff contract, and run the degradation detectors over the
  ``perf_history/`` trajectory; non-zero exit on any failure, naming
  the metric, the magnitude, and the first degraded commit.

Examples::

    # Record the committed snapshots as this commit's history entry.
    python -m repro.perf record --from-committed

    # Record a nightly full-bench run from its report files.
    python -m repro.perf record --report msgpath_report.json \\
        --report sharding_report.json --report obs_report.json

    # The CI gate (quick mode, artifacts downloaded into artifacts/).
    python -m repro.perf check --quick \\
        --report artifacts/msgpath_report.json ... \\
        --against . --history perf_history \\
        --profile-out perf_profile.json --markdown "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.perf import gate, snapshots, store
from repro.perf import profile as profile_mod
from repro.perf.profile import Metric


def _load_reports(paths: List[str], quick: bool
                  ) -> tuple[Dict[str, Metric], Dict[str, dict]]:
    """Merged metrics + raw payloads (keyed by sniffed source)."""
    metrics: Dict[str, Metric] = {}
    raw: Dict[str, dict] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        source, _adapter = snapshots.sniff(payload)
        raw[source] = payload
        metrics.update(snapshots.metrics_from_payload(payload,
                                                      quick=quick))
    return metrics, raw


def _build_profile(args: argparse.Namespace
                   ) -> tuple[dict, Dict[str, dict]]:
    """The current profile from ``--report``s / committed snapshots."""
    if args.report:
        metrics, raw = _load_reports(args.report, args.quick)
    else:
        metrics, raw = snapshots.collect_committed(".", quick=args.quick)
    if not metrics:
        raise SystemExit("no metrics found: pass --report PATH (a bench "
                         "report or profile) or run from a repo root "
                         "with committed BENCH_*.json snapshots")
    from repro.bench.table6 import source_lines
    # Informational: non-comment source lines of the package.
    metrics["code.sloc"] = Metric(float(source_lines()), unit="lines",
                                  direction=profile_mod.LOWER)
    env = profile_mod.environment(commit=args.commit, quick=args.quick)
    prof = profile_mod.new_profile(metrics, env=env)
    prof["sources"] = {source: {"format": "report"} for source in raw}
    return prof, raw


def cmd_record(args: argparse.Namespace) -> int:
    prof, _raw = _build_profile(args)
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


def cmd_diff(args: argparse.Namespace) -> int:
    import os
    history = store.entries(args.history)

    def resolve(ref: str) -> Dict[str, Metric]:
        if os.path.exists(ref):
            return snapshots.load_report(ref, quick=args.quick)
        return store.resolve_entry(history, ref).metrics

    old = resolve(args.old)
    new = resolve(args.new)
    lines = store.diff_lines(old, new)
    if not lines:
        print(f"no metric differences ({args.old} vs {args.new})")
        return 0
    for line in lines:
        print(line)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    prof, current_raw = _build_profile(args)
    current = profile_mod.metrics_of(prof)
    try:
        baseline, baseline_raw, desc = snapshots.resolve_baseline(
            args.against, quick=args.quick)
    except FileNotFoundError as error:
        print(f"perf check: {error}", file=sys.stderr)
        return 2
    history = store.entries(args.history)
    commit = str(prof["environment"].get("commit", "worktree"))
    result = gate.run_gate(
        current, baseline, desc, history,
        quick=args.quick, current_commit=commit[:12],
        baseline_raw=baseline_raw, current_raw=current_raw)

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
    parser.add_argument("--report", action="append", default=[],
                        metavar="PATH",
                        help="a bench report or profile contributing "
                             "current metrics (repeatable; sniffed by "
                             "format)")
    parser.add_argument("--from-committed", action="store_true",
                        default=None,
                        help="build the current profile from the "
                             "committed BENCH_*.json snapshots "
                             "(default when no --report is given)")
    parser.add_argument("--quick", action="store_true",
                        help="quick-mode run: compare against committed "
                             "quick_benchmarks sections and quick "
                             "history entries only")
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
        "record", help="record a profile into perf_history/")
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
        "diff", help="metric-level diff between two entries or reports")
    p_diff.add_argument("old", help="history index/commit or report path")
    p_diff.add_argument("new", help="history index/commit or report path")
    p_diff.add_argument("--history", default=store.DEFAULT_DIR,
                        metavar="DIR")
    p_diff.add_argument("--quick", action="store_true")
    p_diff.set_defaults(func=cmd_diff)

    p_check = sub.add_parser(
        "check", help="the unified perf gate (non-zero exit on "
                      "regression)")
    _add_current_args(p_check)
    p_check.add_argument("--against", default=".", metavar="REF",
                         help="baseline: a git ref, a profile file, or "
                              "a directory with committed BENCH_*.json "
                              "snapshots (default: '.')")
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
