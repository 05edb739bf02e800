"""Integration tests for the chaos harness (repro.chaos): the
fail-closed invariant holds end to end under injected faults."""

import pytest

from repro import chaos
from repro.chaos import (
    OK_VERDICTS,
    baseline_for,
    classify,
    make_plan,
    run_case,
    _run_workload,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan


class TestBaselines:
    @pytest.mark.parametrize("workload", sorted(chaos.WORKLOADS))
    def test_fault_free_baseline_is_ok(self, workload):
        result = baseline_for(workload, "model")
        assert result.ok and result.output

    def test_none_fault_matches_baseline(self):
        record = run_case("webserver", "model", FaultKind.NONE, 0)
        assert record.verdict == "tolerated"


class TestClassification:
    def test_output_divergence_is_silent_bypass(self):
        baseline = baseline_for("webserver", "model")
        import copy
        diverged = copy.copy(baseline)
        diverged.output = list(baseline.output) + [0xBAD]
        assert classify(diverged, baseline) == "silent-bypass"

    def test_kill_is_detected(self):
        baseline = baseline_for("webserver", "model")
        killed = type(baseline)(design=baseline.design, channel="model",
                                outcome="killed", detail="epoch timeout")
        assert classify(killed, baseline) == "detected-kill"


class TestInvariantUnderFaults:
    @pytest.mark.parametrize("kind", [
        FaultKind.DROP, FaultKind.CORRUPT, FaultKind.DUPLICATE,
        FaultKind.REORDER, FaultKind.DELAY, FaultKind.FORCED_FULL,
        FaultKind.FORCED_FULL_PERSISTENT, FaultKind.VERIFIER_CRASH,
        FaultKind.VERIFIER_CRASH_RESTART, FaultKind.SLOW_VERIFIER,
        FaultKind.EPOCH_JITTER,
    ])
    def test_webserver_never_hangs_or_bypasses(self, kind):
        for seed in range(3):
            record = run_case("webserver", "model", kind, seed)
            assert record.verdict in OK_VERDICTS, record

    def test_fork_child_context_survives_drops(self):
        for seed in range(5):
            record = run_case("forker", "sim", FaultKind.DROP, seed)
            assert record.verdict in OK_VERDICTS, record

    def test_persistent_full_fails_closed(self):
        plan = FaultPlan(1, [FaultKind.FORCED_FULL_PERSISTENT],
                         scope="t", rate=1.0)
        injector = FaultInjector(plan)
        result = _run_workload("webserver", "model", injector)
        assert result.outcome == "killed"
        assert "channel full" in result.detail
        assert "fail closed" in result.detail

    def test_verifier_crash_kills_with_reason(self):
        plan = FaultPlan(1, [FaultKind.VERIFIER_CRASH], scope="t",
                         crash_poll_range=(3, 3))
        injector = FaultInjector(plan)
        result = _run_workload("webserver", "model", injector)
        assert result.outcome == "killed"
        assert result.detail == "verifier-terminated"
        assert injector.verifier.crashes == 1

    def test_verifier_crash_restart_recovers_or_kills(self):
        plan = FaultPlan(1, [FaultKind.VERIFIER_CRASH_RESTART], scope="t",
                         crash_poll_range=(3, 3))
        injector = FaultInjector(plan)
        result = _run_workload("webserver", "model", injector)
        verdict = classify(result, baseline_for("webserver", "model"))
        assert verdict in OK_VERDICTS
        assert injector.verifier.crashes == 1
        assert injector.verifier.restarts == 1


class TestDeterminism:
    @pytest.mark.parametrize("kind", [FaultKind.DROP,
                                      FaultKind.VERIFIER_CRASH,
                                      FaultKind.FORCED_FULL])
    def test_fixed_seed_reproduces_record(self, kind):
        first = run_case("webserver", "mq", kind, 42)
        second = run_case("webserver", "mq", kind, 42)
        assert first == second

    def test_different_seeds_differ_somewhere(self):
        verdicts = {run_case("webserver", "model", FaultKind.DROP, s).verdict
                    for s in range(8)}
        assert len(verdicts) > 1  # drops sometimes tolerated, sometimes kill

    def test_plan_scope_isolates_cells(self):
        one = make_plan("webserver", "model", FaultKind.DROP, 1)
        other = make_plan("webserver", "mq", FaultKind.DROP, 1)
        from repro.core import messages as msg
        stream = [msg.pointer_define(i, i) for i in range(50)]
        assert one.mutate(list(stream)) != other.mutate(list(stream))


class TestCLI:
    def test_quick_sweep_exits_zero(self, capsys):
        code = chaos.main(["--seeds", "1", "--quick",
                           "--workloads", "webserver",
                           "--channels", "model",
                           "--faults", "none,drop,forced-full-persistent",
                           "--replay-check", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos sweep: 3 runs" in out
        assert "reproduced identically" in out

    def test_list_flag(self, capsys):
        assert chaos.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "webserver" in out and "forced-full" in out

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = chaos.main(["--seeds", "1", "--workloads", "forker",
                           "--channels", "model", "--faults", "drop",
                           "--replay-check", "0", "--json", str(report)])
        capsys.readouterr()
        assert code == 0
        import json
        records = json.loads(report.read_text())
        assert records and records[0]["fault"] == "drop"
        assert records[0]["verdict"] in OK_VERDICTS


class TestTrafficMidChurn:
    """Chaos faults injected into the multi-tenant traffic engine while
    sessions fork and exit (satellite of the production-traffic tier):
    every fault must end tolerated or detected-kill — never a hang, an
    uncaught exception, or a silent bypass."""

    def _run(self, **overrides):
        from repro.traffic import TrafficConfig, run_traffic
        config = TrafficConfig(
            sessions=60, phases="age:50,drain:60", seed=13, **overrides)
        report = run_traffic(config)
        totals = report["totals"]
        # Bounded: the run ended on its own, with every session
        # accounted for and every per-pid row reclaimed.
        assert not totals["duration_capped"], "engine hung past its cap"
        assert (totals["completed"] + totals["killed"]
                == totals["admitted"] + totals["forks"])
        assert report["leaks"]["pid_entries"] == 0
        assert report["leaks"]["kernel_processes"] == 0
        # Never a silent bypass.
        assert totals["attacks"]["escaped"] == 0
        assert totals["attacks"]["wins"] == 0
        return report

    def test_verifier_crash_mid_churn_recovers(self):
        report = self._run(faults=((20, "verifier-crash"),))
        totals = report["totals"]
        assert totals["faults_fired"] == ["21:verifier-crash"]
        # The kernel barrier brought up a replacement verifier; pids
        # with in-flight messages at the crash died conservatively.
        assert totals["verifier_restarts"] == 1
        assert totals["completed"] > 0

    def test_verifier_crash_without_restart_budget_fails_closed(self):
        report = self._run(faults=((20, "verifier-crash"),),
                           restart_budget=0)
        totals = report["totals"]
        assert totals["verifier_restarts"] == 0
        # No replacement verifier: every in-flight session dies with
        # the verifier-terminated reason, none keeps running unchecked.
        assert totals["kill_reasons"].get("verifier-terminated", 0) > 0

    def test_shard_crash_mid_churn_is_scoped(self):
        report = self._run(shards=3, faults=((20, "shard-crash"),))
        totals = report["totals"]
        assert totals["faults_fired"] == ["21:shard-crash"]
        # The dead shard's pids fail closed; survivors keep completing.
        assert totals["kill_reasons"].get("verifier-terminated", 0) > 0
        assert totals["completed"] > 0

    def test_channel_corrupt_mid_churn_condemns_live_pids(self):
        report = self._run(faults=((20, "channel-corrupt"),))
        totals = report["totals"]
        # An undecodable opcode on the shared channel is a transport
        # integrity loss: every live pid is condemned, later sessions
        # (arriving on the resynchronized stream) still complete.
        assert totals["kill_reasons"].get("policy violation", 0) > 0
        assert totals["completed"] > 0

    def test_mid_churn_faults_replay_identically(self):
        from repro.traffic import TrafficConfig, run_traffic
        config = TrafficConfig(sessions=40, phases="age:40,drain:50",
                               seed=7, shards=2,
                               faults=((15, "shard-crash"),))
        assert run_traffic(config) == run_traffic(config)
