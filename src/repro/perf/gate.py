"""The unified CI perf gate: ``python -m repro.perf check``.

One invocation replaces the five scattered ``--check``/``--tolerance``
calls CI used to make (msgpath 30%, interp 30%, sharding 35%, obs 10%,
traffic SLO band):

1. **Baseline comparison** — every current metric is compared against
   the resolved ``--against`` baseline under a per-family tolerance
   policy; a degradation beyond tolerance fails with the metric name
   and magnitude.  Improvements never fail.  Families whose tolerance
   is ``None`` (pipeline wall times, traffic wall time) are reported
   but never gate: wall-clock on shared runners is information, not a
   contract.
2. **Obs exactness** — when both sides provide a raw obs report, the
   established :func:`repro.obs.diff.diff_reports` contract (exact
   counters/gauges, 10% timing histograms) runs inside this same gate.
3. **History detectors** — every current metric's per-commit trajectory
   from ``perf_history/`` (same quick/full mode only), extended with
   the current value, runs through the trend and mean-shift detectors,
   so a 5%-per-PR bleed that passes every per-step tolerance still
   fails here, naming the first degraded commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.perf import store
from repro.perf.detect import Point, Verdict, run_detectors
from repro.perf.profile import HIGHER, Metric

#: Longest-prefix tolerance policy: fraction of allowed degradation per
#: metric family, ``None`` = informational (never gates).  These carry
#: the tolerances the five per-job checks used to enforce.
TOLERANCES: Tuple[Tuple[str, Optional[float]], ...] = (
    ("msgpath.", 0.30),
    ("interp.speedup", 0.35),
    ("interp.", 0.30),
    ("sharding.scaling.", 0.25),
    ("sharding.", 0.35),
    ("obs.", 0.10),
    ("traffic.wall_s", None),
    ("traffic.", 0.50),
    ("pipeline.", None),
    ("code.", None),
)

#: Families that are reported but never run through the history
#: detectors either: source size is not performance.
REPORT_ONLY: Tuple[str, ...] = ("code.",)

#: Tolerance for families not named above.
DEFAULT_TOLERANCE = 0.30


def tolerance_for(metric: str) -> Optional[float]:
    best: Optional[Tuple[str, Optional[float]]] = None
    for prefix, tol in TOLERANCES:
        if metric.startswith(prefix):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, tol)
    return best[1] if best is not None else DEFAULT_TOLERANCE


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


def compare_to_baseline(current: Mapping[str, Metric],
                        baseline: Mapping[str, Metric],
                        result: GateResult) -> None:
    """Tolerance-band comparison; appends rows/failures to ``result``."""
    for name in sorted(set(current) | set(baseline)):
        cur = current.get(name)
        base = baseline.get(name)
        tol = tolerance_for(name)
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
                f"(tolerance {tol:.0%})")
        elif bad < 0:
            status = "improved"
        else:
            status = "ok"
        result.rows.append(Row(name, cur.unit, base.value, cur.value,
                               delta, bad, tol, status))


def check_obs_exact(baseline_raw: Mapping[str, dict],
                    current_raw: Mapping[str, dict],
                    result: GateResult,
                    tolerance: float = 0.10) -> None:
    """Run the obs exact-diff contract when both sides carry it."""
    ref = baseline_raw.get("obs")
    new = current_raw.get("obs")
    if not ref or not new:
        return
    from repro.obs.diff import diff_reports
    for problem in diff_reports(ref, new, tolerance=tolerance):
        result.failures.append(f"obs-exact: {problem}")


def check_history(current: Mapping[str, Metric],
                  history: Sequence[store.Entry],
                  result: GateResult, *,
                  quick: bool,
                  current_commit: str = "worktree") -> None:
    """Detector pass over history + the current point per metric."""
    for name in sorted(current):
        if name.startswith(REPORT_ONLY):
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
             quick: bool = False,
             current_commit: str = "worktree",
             baseline_raw: Optional[Mapping[str, dict]] = None,
             current_raw: Optional[Mapping[str, dict]] = None
             ) -> GateResult:
    result = GateResult(baseline_desc=baseline_desc)
    compare_to_baseline(current, baseline, result)
    check_obs_exact(baseline_raw or {}, current_raw or {}, result)
    check_history(current, history, result, quick=quick,
                  current_commit=current_commit)
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
