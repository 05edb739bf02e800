"""Tests for the fault-injection engine (repro.faults) and the
fail-closed hardening it exercises in the channel, runtime, kernel,
and verifier layers."""

import pytest

from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core import messages as msg
from repro.core.runtime import HQRuntime
from repro.core.verifier import Verifier
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultyChannel,
    FaultyVerifier,
)
from repro.ipc.appendwrite import AppendWriteModel, AppendWriteUArch
from repro.ipc.base import ChannelFullError, ChannelIntegrityError
from repro.ipc.registry import create_channel
from repro.sim.cpu import ProcessKilledError, SYS_WRITE
from repro.sim.kernel import HQKernelModule, Kernel
from repro.sim.process import Process


def make_plan(kinds, seed=7, **kwargs):
    return FaultPlan(seed, kinds, scope="test", **kwargs)


class TestFaultPlan:
    def test_parse_accepts_value_name_and_instance(self):
        assert FaultKind.parse("drop") is FaultKind.DROP
        assert FaultKind.parse("FORCED_FULL") is FaultKind.FORCED_FULL
        assert FaultKind.parse(FaultKind.DELAY) is FaultKind.DELAY
        with pytest.raises(ValueError):
            FaultKind.parse("meteor-strike")

    def test_none_plan_is_transparent(self):
        plan = make_plan([])
        stream = [msg.pointer_define(i, i) for i in range(5)]
        assert plan.mutate(stream) == stream
        assert not plan.forced_full()
        assert plan.delay_rounds() == 0
        assert plan.epoch_jitter() == 0
        assert plan.verifier_crash_at is None
        assert plan.poll_limit is None

    def test_same_seed_same_decisions(self):
        stream = [msg.pointer_define(i, i) for i in range(40)]
        plans = [make_plan([FaultKind.DROP, FaultKind.CORRUPT], seed=3)
                 for _ in range(2)]
        assert plans[0].mutate(list(stream)) == plans[1].mutate(list(stream))
        jitter = [make_plan([FaultKind.EPOCH_JITTER], seed=3)
                  for _ in range(2)]
        assert [jitter[0].epoch_jitter() for _ in range(20)] \
            == [jitter[1].epoch_jitter() for _ in range(20)]

    def test_scope_and_seed_decorrelate_streams(self):
        stream = [msg.pointer_define(i, i) for i in range(60)]
        base = make_plan([FaultKind.DROP], seed=1).mutate(list(stream))
        other_seed = make_plan([FaultKind.DROP], seed=2).mutate(list(stream))
        other_scope = FaultPlan(1, [FaultKind.DROP],
                                scope="elsewhere").mutate(list(stream))
        assert base != other_seed
        assert base != other_scope

    def test_crash_and_poll_limit_configured_once(self):
        plan = make_plan([FaultKind.VERIFIER_CRASH], crash_poll_range=(9, 9))
        assert plan.verifier_crash_at == 9
        assert not plan.verifier_restartable
        plan = make_plan([FaultKind.VERIFIER_CRASH_RESTART])
        assert plan.verifier_crash_at is not None
        assert plan.verifier_restartable
        plan = make_plan([FaultKind.SLOW_VERIFIER], poll_limit_range=(2, 2))
        assert plan.poll_limit == 2

    def test_forced_full_persistent_never_recovers(self):
        plan = make_plan([FaultKind.FORCED_FULL_PERSISTENT], rate=1.0)
        assert all(plan.forced_full() for _ in range(50))

    def test_forced_full_transient_recovers_and_replays(self):
        plan = make_plan([FaultKind.FORCED_FULL], rate=0.2,
                         forced_full_burst=2)
        answers = [plan.forced_full() for _ in range(300)]
        # Bursts happen but the channel always comes back (unlike the
        # persistent variant) — and the schedule replays exactly.
        assert any(answers) and not all(answers)
        replay = make_plan([FaultKind.FORCED_FULL], rate=0.2,
                           forced_full_burst=2)
        assert [replay.forced_full() for _ in range(300)] == answers


class TestFaultyChannelStream:
    def _feed(self, kinds, count=30, rate=1.0, channel=None, **kwargs):
        inner = channel or create_channel("mq")
        faulty = FaultyChannel(inner, make_plan(kinds, rate=rate, **kwargs))
        process = Process()
        for i in range(count):
            faulty.send(process, msg.pointer_define(0x100 + i, i))
        return faulty, process

    def test_drop_all_messages(self):
        faulty, _ = self._feed([FaultKind.DROP])
        assert faulty.receive_all() == []

    def test_duplicate_doubles_stream(self):
        faulty, _ = self._feed([FaultKind.DUPLICATE], count=4)
        received = faulty.receive_all()
        assert len(received) == 8
        assert received[0] == received[1]

    def test_reorder_swaps_adjacent(self):
        faulty, _ = self._feed([FaultKind.REORDER], count=4)
        received = faulty.receive_all()
        assert [m.arg1 for m in received] == [1, 0, 3, 2]

    def test_corrupt_mutates_messages(self):
        faulty, _ = self._feed([FaultKind.CORRUPT], count=10)
        original = [msg.pointer_define(0x100 + i, i) for i in range(10)]
        received = faulty.receive_all()
        assert len(received) == 10
        assert received != original

    def test_delay_holds_then_releases_in_order(self):
        faulty, process = self._feed([FaultKind.DELAY], count=3,
                                     delay_rounds_range=(2, 2))
        # Script one two-round episode, then quiescence (rate=1.0 would
        # chain episodes forever, which only resync may interrupt).
        episodes = iter([2, 0, 0, 0])
        faulty.plan.delay_rounds = lambda: next(episodes)
        assert faulty.receive_all() == []          # episode starts
        assert faulty.pending() == 3
        faulty.send(process, msg.pointer_define(0x200, 99))
        assert faulty.receive_all() == []          # still held
        released = faulty.receive_all()
        assert [m.arg0 for m in released] == [0x100, 0x101, 0x102, 0x200]

    def test_resync_surrenders_held_messages(self):
        faulty, _ = self._feed([FaultKind.DELAY], count=3,
                               delay_rounds_range=(5, 5))
        assert faulty.receive_all() == []
        assert len(faulty.resync()) == 3
        assert faulty.pending() == 0

    def test_forced_full_raises_and_counts(self):
        inner = create_channel("model")
        faulty = FaultyChannel(
            inner, make_plan([FaultKind.FORCED_FULL_PERSISTENT], rate=1.0))
        with pytest.raises(ChannelFullError):
            faulty.send(Process(), msg.pointer_define(1, 2))
        assert faulty.injected_full == 1
        assert inner.pending() == 0

    def test_drop_trips_inner_counter_check(self):
        # On a counter-checked AppendWrite channel an injected drop must
        # surface as a real integrity gap, not vanish silently.
        inner = AppendWriteModel()
        faulty = FaultyChannel(inner, make_plan([FaultKind.DROP], rate=0.5,
                                                seed=11))
        process = Process()
        for i in range(20):
            faulty.send(process, msg.pointer_define(0x100 + i, i))
        with pytest.raises(ChannelIntegrityError):
            faulty.receive_all()

    def test_stat_counters_mirror_inner(self):
        inner = create_channel("mq")
        faulty = FaultyChannel(inner, make_plan([]))
        faulty.send(Process(), msg.pointer_define(1, 2))
        assert faulty.sent_total == inner.sent_total == 1


@pytest.mark.parametrize("kind", ["model", "sim", "fpga", "mq", "shm"])
class TestFaultyChannelAcrossPrimitives:
    def test_clean_plan_is_transparent(self, kind):
        inner = create_channel(kind)
        faulty = FaultyChannel(inner, make_plan([]))
        process = Process()
        for i in range(5):
            faulty.send(process, msg.pointer_define(0x10 + i, i))
        assert [m.arg1 for m in faulty.receive_all()] == list(range(5))

    def test_drop_never_escapes_validation_silently(self, kind):
        # Either the inner primitive detects the gap (counter-checked
        # AppendWrite) or the survivors arrive intact (kernel queues,
        # whose losses the verifier catches at the policy layer).
        inner = create_channel(kind)
        faulty = FaultyChannel(inner, make_plan([FaultKind.DROP], rate=0.5,
                                                seed=11))
        process = Process()
        for i in range(20):
            faulty.send(process, msg.pointer_define(0x100 + i, i))
        try:
            received = faulty.receive_all()
        except ChannelIntegrityError:
            return
        assert len(received) < 20


class TestFaultyVerifier:
    def _stack(self, kinds, **kwargs):
        verifier = Verifier(HQCFIPolicy)
        channel = create_channel("mq")
        verifier.attach_channel(channel)
        faulty = FaultyVerifier(verifier, make_plan(kinds, **kwargs))
        process = Process()
        verifier.register_process(process.pid)
        return faulty, verifier, channel, process

    def test_crash_is_abrupt(self):
        faulty, inner, channel, process = self._stack(
            [FaultKind.VERIFIER_CRASH], crash_poll_range=(2, 2))
        channel.send(process, msg.pointer_define(1, 2))
        assert faulty.poll() == 1
        assert not inner.terminated
        assert faulty.poll() == 0
        assert inner.terminated and faulty.crashes == 1

    def test_slow_poll_builds_backlog(self):
        faulty, inner, channel, process = self._stack(
            [FaultKind.SLOW_VERIFIER], poll_limit_range=(1, 1))
        for i in range(4):
            channel.send(process, msg.pointer_define(0x10 + i, i))
        assert faulty.poll() == 1
        assert inner.backlog_size() == 3
        assert sum(faulty.poll() for _ in range(3)) == 3
        assert inner.backlog_size() == 0

    def _module(self, faulty):
        module = HQKernelModule(faulty)
        FaultInjector(faulty.plan).configure_kernel(module)
        return module

    def test_restart_denied_without_plan(self):
        faulty, inner, channel, process = self._stack(
            [FaultKind.VERIFIER_CRASH], crash_poll_range=(1, 1))
        faulty.poll()
        module = self._module(faulty)
        assert module.restart_budget == 0
        assert module.restart_verifier() is False

    def test_restart_granted_once(self):
        faulty, inner, channel, process = self._stack(
            [FaultKind.VERIFIER_CRASH_RESTART], crash_poll_range=(1, 1))
        module = self._module(faulty)
        module.enable(process)
        faulty.poll()
        assert inner.terminated
        assert module.restart_verifier() is True
        assert not inner.terminated
        assert inner.restarts == 1
        assert process.pid in inner.contexts
        # A second crash stays down.
        inner.terminated = True
        assert module.restart_verifier() is False


class TestVerifierRestart:
    def test_lost_messages_kill_their_pid(self):
        verifier = Verifier(HQCFIPolicy)
        channel = create_channel("mq")
        verifier.attach_channel(channel)
        process = Process()
        verifier.register_process(process.pid)
        channel.send(process, msg.pointer_define(1, 2))  # in flight
        killed = verifier.restart([process.pid])
        assert killed == [process.pid]
        assert verifier.has_violation(process.pid)
        assert verifier.restarts == 1
        assert verifier.violations[process.pid][-1].kind == "verifier-restart"

    def test_restart_resets_policy_state(self):
        verifier = Verifier(HQCFIPolicy)
        channel = create_channel("mq")
        verifier.attach_channel(channel)
        process = Process()
        verifier.register_process(process.pid)
        channel.send(process, msg.pointer_define(0x10, 0x20))
        verifier.poll()
        assert verifier.restart([process.pid]) == []
        # The define above died with the old instance: a stale check is
        # now a violation (conservative fail-closed).
        channel.send(process, msg.pointer_check(0x10, 0x20))
        verifier.poll()
        assert verifier.has_violation(process.pid)


class TestKernelFailClosed:
    def _stack(self, verifier=None):
        verifier = verifier or Verifier(HQCFIPolicy)
        channel = AppendWriteUArch()
        verifier.attach_channel(channel)
        hq = HQKernelModule(verifier)
        kernel = Kernel(hq)
        process = Process()
        kernel.attach(process)
        hq.enable(process)
        return kernel, hq, verifier, channel, process

    def test_dead_verifier_kills_instead_of_deadlocking(self):
        kernel, hq, verifier, channel, process = self._stack()
        verifier.terminated = True
        channel.send(process, msg.syscall_message(SYS_WRITE))
        with pytest.raises(ProcessKilledError):
            kernel.syscall(process, SYS_WRITE, [1, 2, 8])
        assert hq.contexts[process.pid].kill_reason == "verifier-terminated"
        assert process.killed_reason == "verifier-terminated"

    def test_restart_at_barrier_conservatively_kills_lost_pid(self):
        # The crash eats the in-flight sync message; the restarted
        # verifier cannot prove it was ever sent, so the pid dies with
        # a recorded violation rather than resuming unchecked.
        inner = Verifier(HQCFIPolicy)
        plan = make_plan([FaultKind.VERIFIER_CRASH_RESTART],
                         crash_poll_range=(1, 1))
        faulty = FaultyVerifier(inner, plan)
        channel = AppendWriteUArch()
        inner.attach_channel(channel)
        hq = HQKernelModule(faulty)
        FaultInjector(plan).configure_kernel(hq)
        kernel = Kernel(hq)
        process = Process()
        kernel.attach(process)
        hq.enable(process)
        channel.send(process, msg.syscall_message(SYS_WRITE))
        with pytest.raises(ProcessKilledError):
            kernel.syscall(process, SYS_WRITE, [1, 2, 8])
        assert faulty.crashes == 1
        assert hq.verifier_restarts == 1
        assert inner.restarts == 1
        assert any(v.kind == "verifier-restart"
                   for v in inner.violations[process.pid])

    def test_restart_with_empty_channel_loses_nothing(self):
        inner = Verifier(HQCFIPolicy)
        plan = make_plan([FaultKind.VERIFIER_CRASH_RESTART],
                         crash_poll_range=(1, 1))
        faulty = FaultyVerifier(inner, plan)
        channel = AppendWriteUArch()
        inner.attach_channel(channel)
        hq = HQKernelModule(faulty)
        FaultInjector(plan).configure_kernel(hq)
        process = Process()
        hq.enable(process)
        faulty.poll()                              # crash, nothing in flight
        assert inner.terminated
        assert hq.restart_verifier() is True
        assert not inner.has_violation(process.pid)
        assert process.pid in inner.contexts

    def test_epoch_jitter_shrinks_budget_but_floors_at_one(self):
        kernel, hq, verifier, channel, process = self._stack()
        hq.epoch_jitter = lambda: -100
        assert hq._epoch_budget() == 1
        hq.epoch_jitter = lambda: 2
        assert hq._epoch_budget() == hq.epoch_polls + 2

    def test_record_fail_closed_marks_context(self):
        kernel, hq, verifier, channel, process = self._stack()
        hq.record_fail_closed(process.pid, "channel full")
        context = hq.contexts[process.pid]
        assert context.killed and context.kill_reason == "channel full"
        assert any("channel full" in entry for entry in hq.violations_seen)


class TestRuntimeRetry:
    class _Interp:
        def __init__(self, process):
            self.process = process

    def test_bounded_retry_then_fail_closed(self):
        inner = create_channel("model")
        plan = make_plan([FaultKind.FORCED_FULL_PERSISTENT], rate=1.0)
        faulty = FaultyChannel(inner, plan)
        runtime = HQRuntime(faulty)
        process = Process()
        runtime.interpreter = self._Interp(process)
        drains, kills = [], []
        runtime.drain_hook = lambda: drains.append(1)
        runtime.on_fail_closed = lambda pid, reason: kills.append((pid, reason))
        with pytest.raises(ProcessKilledError) as info:
            runtime._send(msg.pointer_define(1, 2))
        assert "fail closed" in str(info.value)
        assert runtime.full_retries == runtime.SEND_RETRY_BUDGET + 1
        assert len(drains) == runtime.SEND_RETRY_BUDGET + 1
        assert kills and kills[0][0] == process.pid
        assert process.exited and "channel full" in process.killed_reason
        wait = process.cycles.snapshot()["wait"]
        assert wait > 0

    def test_transient_full_is_absorbed(self):
        inner = create_channel("model")
        calls = {"n": 0}

        class OneBounce(FaultyChannel):
            def send(self, sender, message):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ChannelFullError("transient")
                self.inner.send(sender, message)

        runtime = HQRuntime(OneBounce(inner, make_plan([])))
        process = Process()
        runtime.interpreter = self._Interp(process)
        runtime._send(msg.pointer_define(1, 2))
        assert runtime.messages_sent == 1
        assert runtime.full_retries == 1
        assert inner.pending() == 1


class TestInjector:
    def test_wraps_and_configures(self):
        injector = FaultInjector(make_plan([FaultKind.EPOCH_JITTER]))
        verifier = Verifier(HQCFIPolicy)
        wrapped_verifier = injector.wrap_verifier(verifier)
        assert isinstance(wrapped_verifier, FaultyVerifier)
        channel = create_channel("mq")
        wrapped_channel = injector.wrap_channel(channel)
        assert isinstance(wrapped_channel, FaultyChannel)
        hq = HQKernelModule(wrapped_verifier)
        injector.configure_kernel(hq)
        assert hq.epoch_jitter == injector.plan.epoch_jitter
        assert "epoch-jitter" in injector.describe()
