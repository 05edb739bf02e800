"""Command-line entry point: ``python -m repro.obs <subcommand>``.

Subcommands:

* ``summary`` — run one observed benchmark and print a per-layer
  metrics breakdown (counters, gauges, histograms).
* ``export`` — run one observed benchmark and write its metrics report
  (and optionally the Chrome trace) as JSON; the committed
  ``BENCH_obs.json`` reference is produced by ``export`` with default
  arguments.
* ``diff`` — compare two metric reports with tolerances (counters and
  gauges exact, timing histograms within ``--tolerance``); exits
  non-zero on mismatch, which is CI's obs gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

#: Defaults chosen to be fast (train dataset) and to exercise every
#: layer: an indirect-call-heavy workload under a monitored hq design
#: over the software-model channel.
DEFAULT_PROFILE = "403.gcc"
DEFAULT_DATASET = "train"
DEFAULT_DESIGN = "hq-sfestk"
DEFAULT_CHANNEL = "model"


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default=DEFAULT_PROFILE,
                        help="workload profile (default: %(default)s)")
    parser.add_argument("--dataset", default=DEFAULT_DATASET,
                        choices=("train", "ref"),
                        help="input dataset (default: %(default)s)")
    parser.add_argument("--design", default=DEFAULT_DESIGN,
                        help="CFI design (default: %(default)s)")
    parser.add_argument("--channel", default=DEFAULT_CHANNEL,
                        help="IPC primitive (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="ASLR seed (default: %(default)s)")
    parser.add_argument("--shards", type=int, default=None,
                        help="run under the sharded verifier runtime "
                             "with this many shards; the summary then "
                             "includes per-shard [shard] rows "
                             "(default: unsharded)")


def _observed_run(args: argparse.Namespace):
    """Execute the requested benchmark under observation."""
    from repro.core.framework import run_program
    from repro.obs.observer import Observer
    from repro.workloads.generator import build_module
    from repro.workloads.profiles import get_profile

    observer = Observer()
    observer.meta["profile"] = args.profile
    observer.meta["dataset"] = args.dataset
    shards = getattr(args, "shards", None)
    if shards:
        observer.meta["shards"] = shards
    module = build_module(get_profile(args.profile), dataset=args.dataset)
    result = run_program(module, design=args.design, channel=args.channel,
                         kill_on_violation=False, seed=args.seed,
                         max_steps=10_000_000, observe=observer,
                         shards=shards)
    return observer, result


def _render_histogram(name: str, data: dict) -> List[str]:
    buckets = []
    edges = data["edges"]
    for i, count in enumerate(data["counts"]):
        if not count:
            continue
        label = f"<={edges[i]:g}" if i < len(edges) else f">{edges[-1]:g}"
        buckets.append(f"{label}:{count}")
    lines = [f"    {name}  count={data['count']} sum={data['sum']:g}"
             + (f" min={data['min']:g} max={data['max']:g}"
                if data["min"] is not None else "")]
    if buckets:
        lines.append("      buckets  " + "  ".join(buckets))
    return lines


def render_summary(report: dict) -> str:
    """Per-layer breakdown of one metrics report."""
    metrics = report["metrics"]
    names = (list(metrics["counters"]) + list(metrics["gauges"])
             + list(metrics["histograms"]))
    layers = sorted({name.split(".", 1)[0] for name in names})
    meta = report.get("meta", {})
    lines = ["observability summary (" + ", ".join(
        f"{k}={v}" for k, v in sorted(meta.items())) + ")",
        f"layers: {len(layers)} ({', '.join(layers)})"]
    for layer in layers:
        lines.append(f"  [{layer}]")
        for name, value in metrics["counters"].items():
            if name.startswith(layer + "."):
                lines.append(f"    {name}  {value}")
        for name, value in metrics["gauges"].items():
            if name.startswith(layer + "."):
                lines.append(f"    {name}  {value:g}")
        for name, data in metrics["histograms"].items():
            if name.startswith(layer + "."):
                lines.extend(_render_histogram(name, data))
    trace = report.get("trace", {})
    lines.append(f"trace: {trace.get('events', 0)} events "
                 f"({trace.get('dropped', 0)} dropped, "
                 f"capacity {trace.get('capacity', 0)})")
    return "\n".join(lines)


def cmd_summary(args: argparse.Namespace) -> int:
    observer, result = _observed_run(args)
    report = observer.report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_summary(report))
        print(f"run: outcome={result.outcome} steps={result.steps} "
              f"messages={result.messages_sent}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.obs.export import chrome_trace

    observer, _result = _observed_run(args)
    report = observer.report()
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w") as handle:
            handle.write(payload)
        print(f"metrics report: {args.out}")
    if args.trace:
        with open(args.trace, "w") as handle:
            json.dump(chrome_trace(observer.tracer), handle, indent=1)
            handle.write("\n")
        print(f"chrome trace: {args.trace} "
              f"(open in chrome://tracing or Perfetto)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_reports

    with open(args.reference) as handle:
        reference = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    problems = diff_reports(reference, new, tolerance=args.tolerance)
    if problems:
        print(f"obs diff: {len(problems)} mismatch(es) "
              f"({args.reference} vs {args.new}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"obs diff: reports match ({args.reference} vs {args.new}, "
          f"tolerance {args.tolerance})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability CLI: summarize, export, and diff "
                    "per-run metric reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary",
                               help="run one benchmark and print "
                                    "per-layer metrics")
    _add_run_args(p_summary)
    p_summary.add_argument("--json", action="store_true",
                           help="print the raw report as JSON")
    p_summary.set_defaults(func=cmd_summary)

    p_export = sub.add_parser("export",
                              help="run one benchmark and write its "
                                   "metrics report (and Chrome trace)")
    _add_run_args(p_export)
    p_export.add_argument("--out", default="obs_report.json",
                          help="metrics report path ('-' for stdout; "
                               "default: %(default)s)")
    p_export.add_argument("--trace", default=None, metavar="PATH",
                          help="also write a Chrome trace_event JSON")
    p_export.set_defaults(func=cmd_export)

    p_diff = sub.add_parser("diff",
                            help="compare two metric reports "
                                 "(non-zero exit on mismatch)")
    p_diff.add_argument("reference", help="reference report JSON")
    p_diff.add_argument("new", help="new report JSON")
    p_diff.add_argument("--tolerance", type=float, default=0.1,
                        help="relative tolerance for timing histograms "
                             "(default: %(default)s)")
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
