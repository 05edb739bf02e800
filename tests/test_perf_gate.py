"""Tests for the unified CI perf gate (repro.perf.gate + the CLI).

The load-bearing properties:

* the longest-prefix tolerance policy carries the five per-job bands
  the gate replaced, and ``None`` families never gate;
* baseline comparison fails on degradation beyond tolerance with the
  metric and magnitude, and improvements never fail;
* the acceptance scenario: a 5%-per-commit bleed whose every step
  passes the 30% band is caught by the history detectors, and the
  failure names the first degraded commit;
* the ``python -m repro.perf`` CLI round-trips record → log → diff →
  check with the documented exit codes (0 ok, 1 regression, 2 bad
  baseline).
"""

import json

import pytest

from repro.perf import gate, profile, store
from repro.perf.__main__ import main
from repro.perf.profile import HIGHER, LOWER, Metric


def make_profile(value, commit, quick=False, metric="bench.rate",
                 rounds=3, unit="msgs/s"):
    env = profile.environment(commit=commit, quick=quick,
                              timestamp=False)
    return profile.new_profile(
        {metric: Metric(value=value, unit=unit, rounds=rounds)},
        env=env)


# ---------------------------------------------------------------------------
# Tolerance policy
# ---------------------------------------------------------------------------

class TestTolerancePolicy:
    def test_carried_bands(self):
        """The policy carries the tolerances the per-job checks used."""
        assert gate.tolerance_for("msgpath.policy:dfi.msgs_per_sec") \
            == 0.30
        assert gate.tolerance_for("interp.vm_steps_per_sec") == 0.30
        assert gate.tolerance_for("sharding.shards:2.msgs_per_sec") \
            == 0.35
        assert gate.tolerance_for("obs.kernel.barrier_wait_ns.sum") \
            == 0.10
        assert gate.tolerance_for("traffic.validation_lag_p99") == 0.50

    def test_longest_prefix_wins(self):
        assert gate.tolerance_for("interp.speedup") == 0.35
        assert gate.tolerance_for("sharding.scaling.shards:2") == 0.25
        assert gate.tolerance_for("traffic.wall_s") is None

    def test_wall_clock_is_informational(self):
        assert gate.tolerance_for("pipeline.total_seconds") is None
        assert gate.tolerance_for("pipeline.phase:table4.seconds") \
            is None

    def test_source_size_is_informational(self):
        assert gate.tolerance_for("code.sloc") is None

    def test_unknown_family_gets_default(self):
        assert gate.tolerance_for("novel.metric") \
            == gate.DEFAULT_TOLERANCE


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------

class TestCompare:
    def run(self, current, baseline):
        result = gate.GateResult(baseline_desc="test")
        gate.compare_to_baseline(current, baseline, result)
        return result

    def test_degradation_beyond_tolerance_fails(self):
        result = self.run({"msgpath.x.msgs_per_sec": Metric(60.0)},
                          {"msgpath.x.msgs_per_sec": Metric(100.0)})
        assert not result.ok
        assert "msgpath.x.msgs_per_sec" in result.failures[0]
        assert "40.0%" in result.failures[0]

    def test_degradation_inside_tolerance_passes(self):
        result = self.run({"msgpath.x.msgs_per_sec": Metric(75.0)},
                          {"msgpath.x.msgs_per_sec": Metric(100.0)})
        assert result.ok
        assert result.rows[0].status == "ok"

    def test_improvement_never_fails(self):
        result = self.run({"msgpath.x.msgs_per_sec": Metric(500.0)},
                          {"msgpath.x.msgs_per_sec": Metric(100.0)})
        assert result.ok
        assert result.rows[0].status == "improved"

    def test_lower_is_better_direction(self):
        up = {"obs.t.sum": Metric(200.0, direction=LOWER)}
        base = {"obs.t.sum": Metric(100.0, direction=LOWER)}
        result = self.run(up, base)
        assert not result.ok
        down = {"obs.t.sum": Metric(50.0, direction=LOWER)}
        assert self.run(down, base).ok

    def test_informational_family_never_fails(self):
        result = self.run(
            {"pipeline.total_seconds": Metric(90.0, direction=LOWER)},
            {"pipeline.total_seconds": Metric(10.0, direction=LOWER)})
        assert result.ok
        assert result.rows[0].status == "info"

    def test_new_metric_is_reported_not_failed(self):
        result = self.run({"msgpath.new.msgs_per_sec": Metric(1.0)}, {})
        assert result.ok
        assert result.rows[0].status == "new"

    def test_missing_metric_warns(self):
        result = self.run({}, {"msgpath.gone.msgs_per_sec":
                               Metric(1.0)})
        assert result.ok
        assert result.rows[0].status == "missing"
        assert result.warnings

    def test_zero_baseline(self):
        result = self.run({"obs.t.sum": Metric(0.0, direction=LOWER)},
                          {"obs.t.sum": Metric(0.0, direction=LOWER)})
        assert result.ok


class TestObsExact:
    def report(self, sends):
        return {"metrics": {"counters": {"ipc.sends": sends},
                            "gauges": {}, "histograms": {}}}

    def test_counter_drift_fails(self):
        result = gate.GateResult()
        gate.check_obs_exact({"obs": self.report(100)},
                             {"obs": self.report(101)}, result)
        assert not result.ok
        assert "obs-exact" in result.failures[0]

    def test_matching_reports_pass(self):
        result = gate.GateResult()
        gate.check_obs_exact({"obs": self.report(100)},
                             {"obs": self.report(100)}, result)
        assert result.ok

    def test_absent_side_skips(self):
        result = gate.GateResult()
        gate.check_obs_exact({}, {"obs": self.report(100)}, result)
        assert result.ok


# ---------------------------------------------------------------------------
# History detectors inside the gate
# ---------------------------------------------------------------------------

def bleed_history(tmp_path, per_commit=0.95, commits=6, start=100000.0,
                  quick=False):
    """A history where every step passes the 30% band but the
    trajectory bleeds ``1 - per_commit`` per commit."""
    hist = str(tmp_path / "hist")
    value = start
    for i in range(commits):
        store.record(make_profile(value, f"{i:04d}beefcafe",
                                  quick=quick), hist)
        value *= per_commit
    return hist, value


class TestHistoryGate:
    def test_slow_bleed_fails_with_first_commit(self, tmp_path):
        hist, next_value = bleed_history(tmp_path)
        history = store.entries(hist)
        current = {"bench.rate": Metric(next_value, "msgs/s",
                                        rounds=3)}
        result = gate.GateResult()
        gate.check_history(current, history, result, quick=False,
                           current_commit="currenthead")
        assert not result.ok
        failure = result.failures[0]
        assert "bench.rate" in failure
        assert "first degraded commit" in failure
        # The named commit is a real early history entry, not the tip.
        named = [v.first_bad_commit for v in result.verdicts]
        assert any(c and c.endswith("beefcafe") for c in named)

    def test_flat_history_passes(self, tmp_path):
        hist = str(tmp_path / "hist")
        for i in range(6):
            store.record(make_profile(100000.0, f"{i:04d}beefcafe"),
                         hist)
        result = gate.GateResult()
        gate.check_history({"bench.rate": Metric(100000.0, "msgs/s",
                                                 rounds=3)},
                           store.entries(hist), result, quick=False)
        assert result.ok

    def test_improving_history_passes(self, tmp_path):
        hist = str(tmp_path / "hist")
        value = 100000.0
        for i in range(6):
            store.record(make_profile(value, f"{i:04d}beefcafe"), hist)
            value *= 1.05
        result = gate.GateResult()
        gate.check_history({"bench.rate": Metric(value, "msgs/s",
                                                 rounds=3)},
                           store.entries(hist), result, quick=False)
        assert result.ok

    def test_growing_source_size_never_fails(self, tmp_path):
        hist = str(tmp_path / "hist")
        value = 10000.0
        for i in range(6):
            store.record(make_profile(value, f"{i:04d}beefcafe",
                                      metric="code.sloc", rounds=1,
                                      unit="lines"), hist)
            value *= 1.10
        result = gate.GateResult()
        gate.check_history({"code.sloc": Metric(value, "lines",
                                                direction=LOWER)},
                           store.entries(hist), result, quick=False)
        assert result.ok and not result.verdicts

    def test_mode_mismatch_is_ignored(self, tmp_path):
        """A quick gate never judges against full-size history."""
        hist, next_value = bleed_history(tmp_path, quick=False)
        result = gate.GateResult()
        gate.check_history({"bench.rate": Metric(next_value, "msgs/s",
                                                 rounds=3)},
                           store.entries(hist), result, quick=True)
        assert result.ok


# ---------------------------------------------------------------------------
# CLI: the acceptance scenario and exit codes
# ---------------------------------------------------------------------------

class TestCli:
    def test_bleed_acceptance(self, tmp_path, capsys):
        """The ISSUE acceptance criterion: a 5%-per-commit bleed over a
        6-commit history, current commit another 5% down.  Every single
        step passes the 30% band — the flat comparison says ok — but
        ``check`` exits 1 and names the metric, the magnitude, and the
        first degraded commit."""
        hist, next_value = bleed_history(tmp_path)
        current_value = next_value  # already one step below the last
        baseline = tmp_path / "baseline.json"
        profile.dump(make_profile(current_value / 0.95,
                                  "0005beefcafe"), str(baseline))
        report = tmp_path / "current.json"
        profile.dump(make_profile(current_value, "currenthead"),
                     str(report))
        rc = main(["check", "--report", str(report),
                   "--against", str(baseline), "--history", hist,
                   "--commit", "currenthead"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PERF GATE FAILED" in out
        assert "bench.rate" in out
        assert "first degraded commit" in out
        assert "beefcafe" in out
        # The per-step comparison itself was within tolerance.
        assert "-5.0%" in out

    def test_check_ok_exit_zero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        profile.dump(make_profile(100.0, "aaaa"), str(baseline))
        report = tmp_path / "current.json"
        profile.dump(make_profile(99.0, "bbbb"), str(report))
        rc = main(["check", "--report", str(report),
                   "--against", str(baseline),
                   "--history", str(tmp_path / "nohist")])
        assert rc == 0
        assert "perf gate: ok" in capsys.readouterr().out

    def test_check_bad_baseline_exit_two(self, tmp_path, capsys):
        report = tmp_path / "current.json"
        profile.dump(make_profile(99.0, "bbbb"), str(report))
        rc = main(["check", "--report", str(report),
                   "--against", str(tmp_path / "no-such-baseline"),
                   "--history", str(tmp_path / "nohist")])
        assert rc == 2

    def test_check_writes_profile_and_markdown(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        profile.dump(make_profile(100.0, "aaaa"), str(baseline))
        report = tmp_path / "current.json"
        profile.dump(make_profile(104.0, "bbbb"), str(report))
        out_profile = tmp_path / "perf_profile.json"
        summary = tmp_path / "summary.md"
        rc = main(["check", "--report", str(report),
                   "--against", str(baseline),
                   "--history", str(tmp_path / "nohist"),
                   "--profile-out", str(out_profile),
                   "--markdown", str(summary)])
        assert rc == 0
        emitted = profile.load(str(out_profile))
        assert "bench.rate" in emitted["metrics"]
        sloc = profile.metrics_of(emitted)["code.sloc"]
        assert sloc.value > 0 and sloc.direction == LOWER
        text = summary.read_text()
        assert "| metric |" in text
        assert "`bench.rate`" in text
        assert "improved" in text

    def test_record_then_log_then_diff(self, tmp_path, capsys):
        hist = str(tmp_path / "hist")
        for value, sha in ((100.0, "aaaa1111"), (120.0, "bbbb2222")):
            report = tmp_path / f"r-{sha}.json"
            profile.dump(make_profile(value, sha), str(report))
            rc = main(["record", "--report", str(report),
                       "--commit", sha, "--history", hist])
            assert rc == 0
        capsys.readouterr()

        rc = main(["log", "--history", hist])
        out = capsys.readouterr().out
        assert rc == 0
        assert "aaaa1111" in out and "bbbb2222" in out

        rc = main(["log", "--history", hist, "--metric", "bench.rate"])
        out = capsys.readouterr().out
        assert "100.00" in out and "120.00" in out

        rc = main(["diff", "1", "2", "--history", hist])
        first = capsys.readouterr().out
        assert rc == 0
        assert "bench.rate" in first and "+20.0%" in first
        main(["diff", "1", "2", "--history", hist])
        assert capsys.readouterr().out == first  # deterministic

    def test_check_without_metrics_errors(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["check", "--against", str(tmp_path)])

    def test_markdown_escapes_missing_cells(self, tmp_path):
        """Missing sides render as an em dash, not a dangling unit."""
        result = gate.GateResult(baseline_desc="test")
        gate.compare_to_baseline(
            {}, {"msgpath.gone.msgs_per_sec": Metric(5.0, "msgs/s")},
            result)
        text = gate.format_markdown(result)
        assert "| — |" in text
        assert "- msgs/s" not in text
