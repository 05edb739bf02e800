"""The CI perf gate: ``python -m repro.perf check``.

The current profile comes from perfbench (:mod:`repro.perf.runner`);
the baseline is a ``perf_history/`` entry or a profile file.  Two
passes:

1. **Baseline comparison** -- every current metric is compared against
   the baseline.  A ``perfbench.<workload>.<metric>`` end-to-end metric
   gates at its ``BENCHMARK.json`` bound; a degradation beyond it fails
   with the metric, the magnitude, and the workload's layer whose
   ``self_s`` grew the most.  Per-layer metrics and ``code.*`` are
   informational.  Improvements never fail.
2. **History detectors** -- every gated metric's per-commit trajectory
   from ``perf_history/``, extended with the current value, runs
   through the trend and mean-shift detectors, so a 5%-per-PR bleed
   that passes every per-step bound still fails here, naming the first
   degraded commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.perf import store
from repro.perf.detect import Point, Verdict, run_detectors
from repro.perf.profile import HIGHER, Metric
from repro.perf.runner import PREFIX

#: Families that are reported but never gate, in either pass: source
#: size is not performance.
REPORT_ONLY = ("code.",)

#: Tolerance for metrics outside perfbench and ``REPORT_ONLY``.
DEFAULT_TOLERANCE = 0.30


def tolerance_for(metric: str,
                  bounds: Optional[Mapping[str, float]] = None
                  ) -> Optional[float]:
    """Allowed fractional degradation; ``None`` = informational.

    ``bounds`` maps end-to-end metric names to their ``BENCHMARK.json``
    bound and is required for ``perfbench.*`` names: a per-layer metric
    (any name not in ``bounds``) is informational.
    """
    if metric.startswith(REPORT_ONLY):
        return None
    if metric.startswith(PREFIX):
        if bounds is None:
            raise ValueError(f"{metric}: perfbench metrics need the "
                             f"BENCHMARK.json bounds")
        return bounds.get(metric.split(".", 2)[2])
    return DEFAULT_TOLERANCE


@dataclass
class Row:
    """One metric's baseline comparison."""

    metric: str
    unit: str
    baseline: Optional[float]
    current: Optional[float]
    #: Signed relative change (positive = value went up).
    delta: Optional[float]
    #: Positive = degradation in the metric's bad direction.
    bad: Optional[float]
    tolerance: Optional[float]
    status: str  # ok | improved | FAIL | info | new | missing


@dataclass
class GateResult:
    baseline_desc: str = ""
    rows: List[Row] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _bad_fraction(delta: float, direction: str) -> float:
    return -delta if direction == HIGHER else delta


def grown_layer(name: str, current: Mapping[str, Metric],
                baseline: Mapping[str, Metric]) -> str:
    """Name the ``*.self_s`` sibling of ``name`` (same
    ``perfbench.<workload>.`` prefix) with the largest relative growth
    over the baseline: the layer to look at first when ``name`` fails.
    ``""`` when no layer is comparable."""
    prefix = name.rsplit(".", 1)[0] + "."
    growth = {}
    for layer, cur in current.items():
        base = baseline.get(layer)
        if (layer.startswith(prefix) and layer.endswith(".self_s")
                and base is not None and base.value > 0):
            growth[layer] = (cur.value - base.value) / base.value
    if not growth:
        return ""
    layer = max(sorted(growth), key=growth.__getitem__)
    return f"; layer self_s grew most: {layer} {growth[layer]:+.1%}"


def compare_to_baseline(current: Mapping[str, Metric],
                        baseline: Mapping[str, Metric],
                        result: GateResult,
                        bounds: Optional[Mapping[str, float]] = None
                        ) -> None:
    """Tolerance-band comparison; appends rows/failures to ``result``."""
    for name in sorted(set(current) | set(baseline)):
        cur = current.get(name)
        base = baseline.get(name)
        tol = tolerance_for(name, bounds)
        if cur is None:
            result.rows.append(Row(name, base.unit, base.value, None,
                                   None, None, tol, "missing"))
            if tol is not None:
                result.warnings.append(
                    f"{name}: in baseline but not measured by this run")
            continue
        if base is None:
            result.rows.append(Row(name, cur.unit, None, cur.value,
                                   None, None, tol, "new"))
            continue
        if base.value == 0:
            delta = 0.0 if cur.value == 0 else float("inf")
        else:
            delta = (cur.value - base.value) / abs(base.value)
        bad = _bad_fraction(delta, cur.direction)
        if tol is None:
            status = "info"
        elif bad > tol:
            status = "FAIL"
            result.failures.append(
                f"{name}: {cur.value:,.2f} {cur.unit} degraded "
                f"{bad:.1%} vs baseline {base.value:,.2f} "
                f"(tolerance {tol:.0%})"
                + grown_layer(name, current, baseline))
        elif bad < 0:
            status = "improved"
        else:
            status = "ok"
        result.rows.append(Row(name, cur.unit, base.value, cur.value,
                               delta, bad, tol, status))


def check_history(current: Mapping[str, Metric],
                  history: Sequence[store.Entry],
                  result: GateResult, *,
                  quick: bool = False,
                  current_commit: str = "worktree",
                  bounds: Optional[Mapping[str, float]] = None) -> None:
    """Detector pass over history + the current point per gated metric."""
    for name in sorted(current):
        if tolerance_for(name, bounds) is None:
            continue
        metric = current[name]
        points = store.trajectory(history, name, quick=quick)
        points.append(Point(commit=current_commit, value=metric.value,
                            rounds=metric.rounds))
        for verdict in run_detectors(name, points, metric.direction):
            if verdict.degraded:
                result.verdicts.append(verdict)
                result.failures.append(
                    f"{name}: {verdict.detector} detector flags "
                    f"{verdict.magnitude:.1%} degradation over "
                    f"{len(points)} commits; first degraded commit "
                    f"{verdict.first_bad_commit} "
                    f"({verdict.details})")


def run_gate(current: Mapping[str, Metric],
             baseline: Mapping[str, Metric],
             baseline_desc: str,
             history: Sequence[store.Entry] = (), *,
             bounds: Optional[Mapping[str, float]] = None,
             current_commit: str = "worktree") -> GateResult:
    result = GateResult(baseline_desc=baseline_desc)
    compare_to_baseline(current, baseline, result, bounds)
    check_history(current, history, result,
                  current_commit=current_commit, bounds=bounds)
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:,.3g}"


def format_text(result: GateResult) -> str:
    lines = [f"perf gate vs {result.baseline_desc}"]
    width = max((len(row.metric) for row in result.rows), default=10)
    for row in result.rows:
        delta = f"{row.delta:+.1%}" if row.delta is not None else "-"
        tol = f"{row.tolerance:.0%}" if row.tolerance is not None \
            else "info"
        lines.append(f"  {row.metric:<{width}}  "
                     f"{_fmt(row.baseline):>14} -> {_fmt(row.current):>14}"
                     f"  {delta:>8}  [{tol}] {row.status}")
    for verdict in result.verdicts:
        lines.append(f"  trajectory {verdict.metric}: "
                     f"{verdict.detector} -> degraded "
                     f"{verdict.magnitude:.1%}, first bad commit "
                     f"{verdict.first_bad_commit} ({verdict.details})")
    for warning in result.warnings:
        lines.append(f"  warning: {warning}")
    if result.failures:
        lines.append("")
        lines.append(f"PERF GATE FAILED ({len(result.failures)}):")
        lines.extend(f"  - {failure}" for failure in result.failures)
    else:
        lines.append("perf gate: ok")
    return "\n".join(lines)


def format_markdown(result: GateResult) -> str:
    """A ``$GITHUB_STEP_SUMMARY`` table of deltas vs the baseline."""
    lines = ["## Perf gate",
             f"Baseline: {result.baseline_desc}",
             "",
             "| metric | baseline | current | Δ | tolerance | status |",
             "|---|---:|---:|---:|---:|---|"]
    for row in result.rows:
        delta = f"{row.delta:+.1%}" if row.delta is not None else "—"
        tol = (f"{row.tolerance:.0%}" if row.tolerance is not None
               else "info")
        status = {"FAIL": "❌ FAIL", "ok": "✅ ok",
                  "improved": "✅ improved", "info": "ℹ️ info",
                  "new": "new", "missing": "⚠️ missing"}.get(
                      row.status, row.status)
        unit = f" {row.unit}" if row.unit else ""

        def cell(value: Optional[float]) -> str:
            return "—" if value is None else f"{_fmt(value)}{unit}"

        lines.append(f"| `{row.metric}` | {cell(row.baseline)} | "
                     f"{cell(row.current)} | {delta} | {tol} | "
                     f"{status} |")
    if result.verdicts:
        lines.append("")
        lines.append("### Trajectory detectors")
        for verdict in result.verdicts:
            lines.append(f"- ❌ `{verdict.metric}` — {verdict.detector} "
                         f"detector: {verdict.magnitude:.1%} degradation,"
                         f" first bad commit `{verdict.first_bad_commit}`"
                         f" ({verdict.details})")
    if result.warnings:
        lines.append("")
        for warning in result.warnings:
            lines.append(f"- ⚠️ {warning}")
    lines.append("")
    lines.append("**FAILED**" if result.failures else "**ok**")
    lines.append("")
    return "\n".join(lines)
