"""Tests for the perf-history subsystem (repro.perf).

The load-bearing properties:

* the profile schema round-trips, migrates the pre-versioning shape,
  and rejects unknown schemas instead of silently misreading them;
* the degradation detectors catch what the flat tolerance band cannot
  (a slow per-commit bleed, a step regression) while never flagging
  flat, noisy-but-stable, or improving trajectories;
* the ``perf_history/`` store is append-only with in-place replacement
  per commit, filters trajectories by quick/full mode, and diffs
  deterministically.
"""

import pytest

from repro.perf import detect, profile, store
from repro.perf.detect import Point
from repro.perf.profile import HIGHER, LOWER, Metric, ProfileSchemaError


# ---------------------------------------------------------------------------
# Profile schema
# ---------------------------------------------------------------------------

class TestProfileSchema:
    def test_metric_round_trip(self):
        metric = Metric(value=123.5, unit="msgs/s", rounds=3,
                        direction=LOWER)
        assert Metric.from_json(metric.to_json()) == metric

    def test_metric_defaults(self):
        metric = Metric.from_json({"value": 7})
        assert metric.unit == ""
        assert metric.rounds == 1
        assert metric.direction == HIGHER

    def test_metric_bad_direction_rejected(self):
        with pytest.raises(ProfileSchemaError):
            Metric.from_json({"value": 1.0, "direction": "sideways"})

    def test_profile_round_trip(self, tmp_path):
        metrics = {"a.x": Metric(1.0, "s", 2, LOWER),
                   "b.y": Metric(2.0, "msgs/s", 3, HIGHER)}
        prof = profile.new_profile(metrics)
        path = tmp_path / "p.json"
        profile.dump(prof, str(path))
        loaded = profile.load(str(path))
        assert loaded["schema"] == profile.SCHEMA
        assert profile.metrics_of(loaded) == metrics

    def test_v0_migration(self):
        """The pre-versioning shape (bare name → number) still loads."""
        v0 = {"metrics": {"msgpath.mq.msgs_per_sec": 1000.0}}
        migrated = profile.validate(v0)
        assert migrated["schema"] == profile.SCHEMA
        assert migrated["migrated_from"] == "repro.perf/0"
        got = profile.metrics_of(migrated)["msgpath.mq.msgs_per_sec"]
        assert got.value == 1000.0
        assert got.rounds == 1

    def test_unknown_schema_rejected(self):
        with pytest.raises(ProfileSchemaError):
            profile.validate({"schema": "repro.perf/999", "metrics": {}})

    def test_non_profile_rejected(self):
        with pytest.raises(ProfileSchemaError):
            profile.validate({"benchmarks": {}})

    def test_environment_fingerprint(self):
        env = profile.environment(commit="abc123", quick=True)
        assert env["commit"] == "abc123"
        assert env["quick"] is True
        for key in ("python", "implementation", "hostname_class",
                    "recorded_at"):
            assert env[key]


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def series(values, rounds=3, prefix="c"):
    return [Point(commit=f"{prefix}{i:04d}", value=float(v),
                  rounds=rounds)
            for i, v in enumerate(values)]


class TestTrendDetector:
    def test_flat_passes(self):
        verdict = detect.trend_detector(
            "m", series([100.0] * 8), HIGHER)
        assert not verdict.degraded

    def test_slow_bleed_flagged(self):
        """5% per commit passes any 30% per-step band but loses 26%
        over six steps — the trend detector must catch it."""
        values = [100000 * (0.95 ** i) for i in range(7)]
        verdict = detect.trend_detector("m", series(values), HIGHER)
        assert verdict.degraded
        assert verdict.magnitude > 0.20
        assert verdict.first_bad_commit is not None
        # The first named commit is early in the window, not the tip.
        assert verdict.first_bad_index < len(values) - 1

    def test_improvement_never_flagged(self):
        values = [100000 * (1.05 ** i) for i in range(7)]
        verdict = detect.trend_detector("m", series(values), HIGHER)
        assert not verdict.degraded

    def test_lower_is_better_direction(self):
        """For a latency-style metric, rising values degrade and
        falling values improve."""
        rising = [100 * (1.05 ** i) for i in range(7)]
        falling = [100 * (0.95 ** i) for i in range(7)]
        assert detect.trend_detector("m", series(rising), LOWER).degraded
        assert not detect.trend_detector(
            "m", series(falling), LOWER).degraded

    def test_noisy_stable_passes(self):
        # Deterministic +/-4% jitter around a flat level: inside the
        # noise allowance, no coherent trend.
        jitter = [1.04, 0.97, 1.01, 0.96, 1.03, 0.99, 1.02, 0.98]
        verdict = detect.trend_detector(
            "m", series([100000 * j for j in jitter]), HIGHER)
        assert not verdict.degraded

    def test_short_history_passes(self):
        verdict = detect.trend_detector(
            "m", series([100, 90, 80]), HIGHER)
        assert not verdict.degraded
        assert "not enough history" in verdict.details

    def test_rounds_tighten_the_band(self):
        """A drift inside the single-sample band but outside the
        best-of-9 band is flagged only for the well-measured series."""
        drift = detect.TREND_DRIFT + detect.BASE_NOISE / 2
        per_step = (1 - drift) ** (1 / 7)
        values = [100000 * (per_step ** i) for i in range(8)]
        loose = detect.trend_detector("m", series(values, rounds=1),
                                      HIGHER)
        tight = detect.trend_detector("m", series(values, rounds=9),
                                      HIGHER)
        assert not loose.degraded
        assert tight.degraded

    def test_noise_allowance_scaling(self):
        assert detect.noise_allowance(series([1, 1], rounds=9)) == \
            pytest.approx(detect.BASE_NOISE / 3)
        # The noisiest point bounds the series.
        mixed = series([1, 1], rounds=9) + series([1], rounds=1)
        assert detect.noise_allowance(mixed) == \
            pytest.approx(detect.BASE_NOISE)

    def test_exponential_fit_chosen_for_decay(self):
        values = [100000 * (0.90 ** i) for i in range(8)]
        kind, _fitted, r2 = detect.fit_trajectory(values)
        assert kind == "exponential"
        assert r2 > 0.99


class TestMeanShiftDetector:
    def test_step_regression_flagged(self):
        values = [100000] * 4 + [70000] * 4
        verdict = detect.mean_shift_detector(
            "m", series(values), HIGHER)
        assert verdict.degraded
        assert verdict.first_bad_index == 4
        assert verdict.first_bad_commit == "c0004"

    def test_flat_passes(self):
        verdict = detect.mean_shift_detector(
            "m", series([100000] * 8), HIGHER)
        assert not verdict.degraded

    def test_step_improvement_never_flagged(self):
        values = [100000] * 4 + [150000] * 4
        verdict = detect.mean_shift_detector(
            "m", series(values), HIGHER)
        assert not verdict.degraded

    def test_small_step_inside_band_passes(self):
        values = [100000] * 4 + [96000] * 4
        verdict = detect.mean_shift_detector(
            "m", series(values), HIGHER)
        assert not verdict.degraded

    def test_run_detectors_covers_both(self):
        verdicts = detect.run_detectors("m", series([100000] * 8),
                                        HIGHER)
        assert sorted(v.detector for v in verdicts) == \
            ["mean-shift", "trend"]


# ---------------------------------------------------------------------------
# History store
# ---------------------------------------------------------------------------

def make_profile(value, commit, quick=False, metric="bench.rate",
                 rounds=3):
    env = profile.environment(commit=commit, quick=quick,
                              timestamp=False)
    return profile.new_profile(
        {metric: Metric(value=value, unit="msgs/s", rounds=rounds)},
        env=env)


class TestStore:
    def test_record_assigns_indices(self, tmp_path):
        hist = str(tmp_path / "hist")
        store.record(make_profile(100, "aaaa1111"), hist)
        store.record(make_profile(200, "bbbb2222"), hist)
        got = store.entries(hist)
        assert [(e.index, e.commit) for e in got] == \
            [(1, "aaaa1111"), (2, "bbbb2222")]

    def test_record_same_commit_replaces(self, tmp_path):
        hist = str(tmp_path / "hist")
        store.record(make_profile(100, "aaaa1111"), hist)
        store.record(make_profile(150, "aaaa1111"), hist)
        got = store.entries(hist)
        assert len(got) == 1
        assert got[0].metrics["bench.rate"].value == 150

    def test_trajectory_filters_by_mode(self, tmp_path):
        hist = str(tmp_path / "hist")
        store.record(make_profile(100, "aaaa1111", quick=True), hist)
        store.record(make_profile(5000, "bbbb2222", quick=False), hist)
        store.record(make_profile(110, "cccc3333", quick=True), hist)
        quick = store.trajectory(store.entries(hist), "bench.rate",
                                 quick=True)
        assert [p.value for p in quick] == [100, 110]
        full = store.trajectory(store.entries(hist), "bench.rate",
                                quick=False)
        assert [p.value for p in full] == [5000]

    def test_trajectory_carries_rounds(self, tmp_path):
        hist = str(tmp_path / "hist")
        store.record(make_profile(100, "aaaa1111", rounds=7), hist)
        points = store.trajectory(store.entries(hist), "bench.rate")
        assert points[0].rounds == 7

    def test_missing_dir_is_empty(self, tmp_path):
        assert store.entries(str(tmp_path / "nope")) == []

    def test_resolve_entry(self, tmp_path):
        hist = str(tmp_path / "hist")
        store.record(make_profile(100, "aaaa1111"), hist)
        store.record(make_profile(200, "bbbb2222"), hist)
        history = store.entries(hist)
        assert store.resolve_entry(history, "2").commit == "bbbb2222"
        assert store.resolve_entry(history, "aaaa").commit == "aaaa1111"
        with pytest.raises(KeyError):
            store.resolve_entry(history, "ffff")

    def test_diff_lines_deterministic(self):
        old = {"b.y": Metric(2.0), "a.x": Metric(1.0),
               "gone": Metric(5.0)}
        new = {"a.x": Metric(1.5), "b.y": Metric(2.0),
               "fresh": Metric(9.0)}
        first = store.diff_lines(old, new)
        second = store.diff_lines(dict(reversed(list(old.items()))),
                                  dict(reversed(list(new.items()))))
        assert first == second
        assert [line[0] for line in first] == ["~", "+", "-"]

    def test_diff_lines_empty_on_equal(self):
        metrics = {"a.x": Metric(1.0)}
        assert store.diff_lines(metrics, dict(metrics)) == []
