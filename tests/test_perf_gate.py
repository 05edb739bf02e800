"""Tests for the CI perf gate (repro.perf.gate, runner + the CLI).

The load-bearing properties:

* perfbench end-to-end metrics gate at their ``BENCHMARK.json``
  bounds, per-layer metrics and ``code.*`` never gate;
* the runner names metrics ``perfbench.<workload>.<metric>`` with the
  unit and direction ``BENCHMARK.json`` declares, and a run that is
  incorrect or exits non-zero fails ``record``/``check`` before
  anything is written (tested with a fake perfbench command);
* baseline comparison fails on degradation beyond tolerance with the
  metric and magnitude (and, for perfbench, the layer whose ``self_s``
  grew most), and improvements never fail;
* the acceptance scenario: a 5%-per-commit bleed whose every step
  passes the 30% band is caught by the history detectors, and the
  failure names the first degraded commit;
* the ``python -m repro.perf`` CLI round-trips record → log → diff →
  check with the documented exit codes (0 ok, 1 regression, 2 bad
  baseline).
"""

import json
import pathlib
import sys

import pytest

from repro.perf import gate, profile, runner, store
from repro.perf.__main__ import main
from repro.perf.profile import HIGHER, LOWER, Metric

#: Repo root: ``BENCHMARK.json`` lives here.
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = runner.e2e_bounds(BENCHMARK)


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
        """Every workload's end-to-end metrics gate at the bound
        BENCHMARK.json declares for them."""
        for workload in BENCHMARK["workloads"]:
            for spec in BENCHMARK["end_to_end"]:
                name = f"perfbench.{workload['name']}.{spec['name']}"
                assert gate.tolerance_for(name, BOUNDS) == spec["bound"]
        assert gate.tolerance_for("perfbench.soak.work_per_s",
                                  BOUNDS) == 0.25
        assert gate.tolerance_for("perfbench.corpus.peak_rss_mb",
                                  BOUNDS) == 0.15

    def test_longest_prefix_wins(self):
        """The whole metric name picks the rule: an end-to-end metric
        gets its own bound (not its siblings' or the default), a longer
        per-layer name under the same workload is informational."""
        assert gate.tolerance_for("perfbench.steady.peak_rss_mb",
                                  BOUNDS) == 0.15
        assert gate.tolerance_for("perfbench.steady.setup_s",
                                  BOUNDS) == 0.25
        assert gate.tolerance_for("perfbench.steady.core.verifier.msgs",
                                  BOUNDS) is None

    def test_wall_clock_is_informational(self):
        """Per-layer wall-clock seconds explain a failure; they never
        gate on their own."""
        assert gate.tolerance_for("perfbench.corpus.compiler.self_s",
                                  BOUNDS) is None
        assert gate.tolerance_for(
            "perfbench.soak.sim.kernel.barrier.self_s", BOUNDS) is None

    def test_source_size_is_informational(self):
        assert gate.tolerance_for("code.sloc") is None

    def test_unknown_family_gets_default(self):
        assert gate.tolerance_for("novel.metric") \
            == gate.DEFAULT_TOLERANCE

    def test_perfbench_metric_needs_bounds(self):
        """Without the BENCHMARK.json bounds a perfbench metric is an
        error, never silently informational."""
        with pytest.raises(ValueError):
            gate.tolerance_for("perfbench.soak.work_per_s")


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
        result = gate.GateResult(baseline_desc="test")
        gate.compare_to_baseline(
            {"perfbench.corpus.compiler.self_s":
             Metric(90.0, direction=LOWER)},
            {"perfbench.corpus.compiler.self_s":
             Metric(10.0, direction=LOWER)}, result, BOUNDS)
        assert result.ok
        assert result.rows[0].status == "info"

    def test_failing_e2e_row_names_grown_layer(self):
        """A failing perfbench end-to-end row names the same workload's
        layer whose self_s grew the most over the baseline."""
        def layers(compiler, verifier, barrier):
            return {
                "perfbench.soak.compiler.self_s": Metric(compiler, "s"),
                "perfbench.soak.core.verifier.self_s": Metric(verifier,
                                                              "s"),
                "perfbench.soak.sim.kernel.barrier.self_s":
                    Metric(barrier, "s"),
                # Another workload's growth is not this row's cause.
                "perfbench.corpus.sim.lower.self_s": Metric(
                    verifier * 10, "s"),
            }
        baseline = {"perfbench.soak.work_per_s": Metric(3000.0, "1/s"),
                    **layers(1.0, 1.0, 1.0)}
        baseline["perfbench.corpus.sim.lower.self_s"] = Metric(1.0, "s")
        current = {"perfbench.soak.work_per_s": Metric(2000.0, "1/s"),
                   **layers(1.1, 1.6, 1.2)}
        result = gate.GateResult(baseline_desc="test")
        gate.compare_to_baseline(current, baseline, result, BOUNDS)
        assert not result.ok
        [failure] = result.failures
        assert failure.startswith("perfbench.soak.work_per_s")
        assert "tolerance 25%" in failure
        assert "perfbench.soak.core.verifier.self_s +60.0%" in failure

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

    def test_check_empty_history_without_against_exit_two(self, tmp_path,
                                                          capsys):
        """The default baseline is the newest history entry; with none
        the gate refuses before measuring anything."""
        report = tmp_path / "current.json"
        profile.dump(make_profile(99.0, "bbbb"), str(report))
        rc = main(["check", "--report", str(report),
                   "--history", str(tmp_path / "nohist")])
        assert rc == 2
        assert "no baseline" in capsys.readouterr().err

    def test_check_defaults_to_newest_entry(self, tmp_path, capsys):
        hist = str(tmp_path / "hist")
        store.record(make_profile(1000.0, "aaaa1111"), hist)
        store.record(make_profile(100.0, "bbbb2222"), hist)
        report = tmp_path / "current.json"
        profile.dump(make_profile(99.0, "cccc"), str(report))
        rc = main(["check", "--report", str(report), "--history", hist])
        out = capsys.readouterr().out
        assert rc == 0
        assert "history entry 0002 (bbbb2222)" in out

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


# ---------------------------------------------------------------------------
# The perfbench runner, driven by a fake perfbench command
# ---------------------------------------------------------------------------

FAKE_PERFBENCH = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("runs.log", "a") as log:
    log.write(" ".join(sys.argv[1:]) + "\\n")
correct = {correct!r}
if not correct:
    print("perfbench: check failed: digest 1 != reference 2",
          file=sys.stderr)
metrics = ({{"work_per_s": 100.0, "peak_rss_mb": 50.0}}
           if args["--trace"] == "0" else {{"compiler.self_s": 0.5}})
print("human-readable lines come first")
print(json.dumps({{"correct": correct, "attempted": 4, "failed": 0,
                  "metrics": {{name: {{"value": value, "unit": "bogus"}}
                              for name, value in metrics.items()}}}}))
sys.exit({exit_code})
'''


def fake_benchmark(root, correct=True, exit_code=0):
    """A BENCHMARK.json mapping whose command is a fake perfbench."""
    script = root / "fake_perfbench.py"
    script.write_text(FAKE_PERFBENCH.format(correct=correct,
                                            exit_code=exit_code))
    return {
        "command": [sys.executable, str(script)],
        "run_seconds": 0.5,
        "workloads": [{"name": "corpus"}, {"name": "soak"}],
        "end_to_end": [
            {"name": "work_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.15}],
        "per_layer": [
            {"name": "compiler.self_s", "unit": "s", "better": "lower"}],
    }


class TestRunner:
    def test_names_units_and_directions_from_benchmark(self, tmp_path):
        metrics = runner.run_perfbench(fake_benchmark(tmp_path),
                                       root=str(tmp_path))
        assert set(metrics) == {
            f"perfbench.{w}.{m}" for w in ("corpus", "soak")
            for m in ("work_per_s", "peak_rss_mb", "compiler.self_s")}
        assert metrics["perfbench.soak.work_per_s"] == Metric(
            100.0, unit="1/s", rounds=1, direction=HIGHER)
        assert metrics["perfbench.corpus.peak_rss_mb"] == Metric(
            50.0, unit="MB", rounds=1, direction=LOWER)
        assert metrics["perfbench.soak.compiler.self_s"] == Metric(
            0.5, unit="s", rounds=1, direction=LOWER)

    def test_runs_are_sequential_untraced_then_traced(self, tmp_path):
        runner.run_perfbench(fake_benchmark(tmp_path), root=str(tmp_path))
        runs = (tmp_path / "runs.log").read_text().splitlines()
        assert runs == [
            f"--workload {w} --seed 1 --seconds 0.5 --trace {t}"
            for w in ("corpus", "soak") for t in (0, 1)]

    @pytest.mark.parametrize("correct, exit_code", [(False, 0),
                                                    (True, 3)])
    def test_failed_run_raises_with_workload_and_checks(
            self, tmp_path, correct, exit_code):
        with pytest.raises(runner.PerfbenchFailed) as info:
            runner.run_perfbench(
                fake_benchmark(tmp_path, correct, exit_code),
                root=str(tmp_path))
        message = str(info.value)
        assert "perfbench corpus --trace 0" in message
        if not correct:
            assert "perfbench: check failed: digest" in message

    def test_incorrect_run_fails_record_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            fake_benchmark(tmp_path, correct=False)))
        hist = tmp_path / "hist"
        store.record(make_profile(100.0, "aaaa1111"), str(hist))
        before = {p.name: p.read_bytes() for p in hist.iterdir()}
        rc = main(["record", "--history", str(hist), "--commit",
                   "bbbb2222"])
        assert rc != 0
        assert {p.name: p.read_bytes() for p in hist.iterdir()} == before
        err = capsys.readouterr().err
        assert "corpus" in err and "check failed" in err

    def test_record_stores_perfbench_metrics(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            fake_benchmark(tmp_path)))
        hist = str(tmp_path / "hist")
        assert main(["record", "--history", hist, "--commit",
                     "cccc3333"]) == 0
        [entry] = store.entries(hist)
        assert "perfbench.soak.compiler.self_s" in entry.metrics
        assert "code.sloc" in entry.metrics
        assert not entry.quick

    def test_check_names_grown_layer(self, tmp_path, capsys):
        """check --report against a baseline whose soak throughput is
        1.5x: exit 1, naming the metric, the 25% bound and a soak
        layer."""
        current = {"perfbench.soak.work_per_s": Metric(2000.0, "1/s"),
                   "perfbench.soak.compiler.self_s": Metric(1.2, "s",
                                                            direction=LOWER)}
        baseline = dict(current)
        baseline["perfbench.soak.work_per_s"] = Metric(3000.0, "1/s")
        baseline["perfbench.soak.compiler.self_s"] = Metric(
            1.0, "s", direction=LOWER)
        for name, metrics in (("current", current),
                              ("baseline", baseline)):
            profile.dump(profile.new_profile(metrics),
                         str(tmp_path / f"{name}.json"))
        rc = main(["check", "--report", str(tmp_path / "current.json"),
                   "--against", str(tmp_path / "baseline.json"),
                   "--history", str(tmp_path / "nohist")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "perfbench.soak.work_per_s" in out
        assert "tolerance 25%" in out
        assert "perfbench.soak.compiler.self_s +20.0%" in out
