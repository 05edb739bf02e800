"""Tests for the verifier process model (repro.core.verifier)."""

import inspect
from collections import Counter

import pytest

from repro.bench.sharding import pack_stream
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core import messages as msg
from repro.core.messages import Op
from repro.core.policy import PolicyStats
from repro.core.shard_verifier import ShardedVerifier
from repro.core.verifier import Verifier
from repro.faults import FaultPlan, FaultyVerifier
from repro.ipc.appendwrite import AppendWriteFPGA, AppendWriteUArch
from repro.sim.kernel import VerifierLiaison
from repro.sim.process import Process
from tests.test_sharding import _StubChannel


@pytest.fixture
def kind():
    """The front :func:`setup` builds (see :func:`_front`); a test
    covering several fronts parametrizes it."""
    return "verifier"


@pytest.fixture
def setup(kind):
    verifier = _front(kind)
    channel = AppendWriteUArch()
    verifier.attach_channel(channel)
    process = Process()
    verifier.register_process(process.pid)
    yield verifier, channel, process
    verifier.close()


#: The two fronts that own per-pid tables: a single verifier and the
#: sharded coordinator, which inherits every table-facing member.
EVERY_FRONT = pytest.mark.parametrize("kind", ["verifier", "sharded"])


def _pid_on_another_shard(front, pid):
    """A pid the front routes to a different shard than ``pid`` (the
    next pid, for a single verifier)."""
    other = pid + 1
    if isinstance(front, ShardedVerifier):
        while front.shard_of(other) == front.shard_of(pid):
            other += 1
    return other


class TestLifecycle:
    def test_register_creates_context(self, setup):
        verifier, _, process = setup
        assert process.pid in verifier.contexts
        assert not verifier.has_violation(process.pid)

    def test_unregister_drops_context(self, setup):
        verifier, _, process = setup
        verifier.unregister_process(process.pid)
        assert process.pid not in verifier.contexts

    def test_fork_copies_policy_context(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        verifier.poll()
        verifier.fork_process(process.pid, 4242)
        # The child's context knows the parent's pointers.
        child = verifier.contexts[4242]
        assert child.table.check(0x10, 0x20) is None

    @EVERY_FRONT
    def test_fork_across_shards_clones_parent_context(self, setup, kind):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        verifier.poll()
        child = _pid_on_another_shard(verifier, process.pid)
        verifier.fork_process(process.pid, child)
        clone = verifier.contexts[child]
        assert clone is not verifier.contexts[process.pid]
        assert clone.table.check(0x10, 0x20) is None

    def test_fork_of_unknown_parent_gets_fresh_context(self):
        verifier = Verifier(HQCFIPolicy)
        verifier.fork_process(999, 1000)
        assert 1000 in verifier.contexts


class TestDispatch:
    def test_poll_processes_messages(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        channel.send(process, msg.pointer_check(0x10, 0x20))
        assert verifier.poll() == 2
        assert not verifier.has_violation(process.pid)

    def test_violation_recorded_and_flagged(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_check(0x10, 0x999))
        verifier.poll()
        assert verifier.has_violation(process.pid)
        assert len(verifier.all_violations(process.pid)) == 1

    def test_acknowledge_clears_pending_flag(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_check(0x10, 0x999))
        verifier.poll()
        verifier.acknowledge_violation(process.pid)
        assert not verifier.has_violation(process.pid)
        # The historical record stays.
        assert verifier.all_violations(process.pid)

    @EVERY_FRONT
    def test_acknowledged_violation_continues(self, setup, kind):
        """Continue-on-violation: after the kernel acknowledges, the
        pid's later messages are still checked and re-raise the flag."""
        verifier, channel, process = setup
        channel.send(process, msg.pointer_check(0x10, 0x999))
        verifier.poll()
        verifier.acknowledge_violation(process.pid)
        assert not verifier.has_violation(process.pid)
        channel.send(process, msg.pointer_define(0x10, 0x20))
        channel.send(process, msg.pointer_check(0x18, 0x20))
        assert verifier.poll() == 2
        assert verifier.has_violation(process.pid)
        assert len(verifier.all_violations(process.pid)) == 2

    def test_unknown_pid_messages_ignored(self, setup):
        verifier, channel, _ = setup
        stranger = Process()
        channel.send(stranger, msg.pointer_check(0x10, 0x20))
        verifier.poll()  # must not raise
        assert verifier.total_messages() == 0

    def test_multiple_channels_drained(self):
        verifier = Verifier(HQCFIPolicy)
        first, second = AppendWriteUArch(), AppendWriteUArch()
        verifier.attach_channel(first)
        verifier.attach_channel(second)
        p1, p2 = Process(), Process()
        verifier.register_process(p1.pid)
        verifier.register_process(p2.pid)
        first.send(p1, msg.pointer_define(1, 2))
        second.send(p2, msg.pointer_define(3, 4))
        assert verifier.poll() == 2

    def test_stats_track_messages_and_entries(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        channel.send(process, msg.pointer_define(0x18, 0x20))
        verifier.poll()
        stats = verifier.stats[process.pid]
        assert stats.messages_processed == 2
        assert stats.max_entries == 2


class TestSyscallTokens:
    def test_syscall_message_yields_token(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.syscall_message(1))
        verifier.poll()
        assert verifier.consume_syscall_token(process.pid)
        assert not verifier.consume_syscall_token(process.pid)

    def test_tokens_accumulate(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.syscall_message(1))
        channel.send(process, msg.syscall_message(2))
        verifier.poll()
        assert verifier.consume_syscall_token(process.pid)
        assert verifier.consume_syscall_token(process.pid)
        assert not verifier.consume_syscall_token(process.pid)

    @EVERY_FRONT
    def test_probe_does_not_consume(self, setup, kind):
        verifier, channel, process = setup
        assert not verifier.has_syscall_token(process.pid)
        channel.send(process, msg.syscall_message(1))
        verifier.poll()
        assert verifier.has_syscall_token(process.pid)
        assert verifier.has_syscall_token(process.pid)
        assert verifier.consume_syscall_token(process.pid)
        assert not verifier.has_syscall_token(process.pid)
        assert not verifier.consume_syscall_token(process.pid)

    def test_ordering_guarantee(self, setup):
        """A SYSCALL token implies all earlier messages were processed
        (channel FIFO + single poll loop)."""
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        channel.send(process, msg.syscall_message(1))
        verifier.poll()
        assert verifier.consume_syscall_token(process.pid)
        context = verifier.contexts[process.pid]
        assert context.table.check(0x10, 0x20) is None


class TestCorruptBatch:
    """A batch with an unknown opcode dispatches its valid prefix, then
    fails closed — identically for every runtime and every budget."""

    @pytest.mark.parametrize("budget", [None, 1, 2, 10 ** 9])
    @pytest.mark.parametrize("kind", ["verifier", "sharded"])
    def test_valid_prefix_dispatched_under_any_budget(self, kind, budget):
        pid = 21
        liaison = (Verifier(HQCFIPolicy) if kind == "verifier"
                   else ShardedVerifier(HQCFIPolicy, 2))
        channel = _StubChannel()
        liaison.attach_channel(channel)
        liaison.register_process(pid)
        channel.push(pack_stream(pid, [
            (int(Op.POINTER_DEFINE), 0x10, 0x20, 0),
            (int(Op.POINTER_CHECK), 0x10, 0x666, 0),
            (int(Op.SYSCALL), 0, 0, 0),
            (0xBEEF, 0, 0, 0),
        ]))
        try:
            processed = liaison.poll(budget)
            while liaison.backlog_size():
                processed += liaison.poll(budget)
            kinds = Counter(v.kind for v in liaison.all_violations(pid))
            assert kinds == Counter(["cfi-pointer-integrity",
                                     "message-integrity"])
            assert processed == 3
            assert liaison.stats[pid] == PolicyStats(
                messages_processed=3, violations=1, max_entries=1,
                by_op={"POINTER_DEFINE": 1, "POINTER_CHECK": 1,
                       "SYSCALL": 1})
            assert liaison._syscall_tokens[pid] == 1
        finally:
            if kind == "sharded":
                liaison.close()


class TestRestartWithBacklog:
    def test_condemns_exactly_live_pids_with_backlogged_messages(self):
        verifier = Verifier(HQCFIPolicy)
        channel = _StubChannel()
        verifier.attach_channel(channel)
        for pid in (1, 2, 3, 4):
            verifier.register_process(pid)
        define = (int(Op.POINTER_DEFINE), 0x10, 0x20, 0)
        # Pid 1's first message is dispatched; the rest of the batch
        # (pid 1's second message, pid 2, pid 4) and the whole second
        # batch (pid 3) wait in the backlog.
        channel.push(pack_stream(1, [define, define])
                     + pack_stream(2, [define])
                     + pack_stream(4, [define]))
        assert verifier.poll(1) == 1
        channel.push(pack_stream(3, [define]))
        assert verifier.poll(0) == 0
        assert verifier.backlog_size() == 4
        verifier.unregister_process(4)  # exited between crash and restart

        killed = verifier.restart(live_pids=[1, 2, 3, 5])

        assert killed == [1, 2, 3]
        assert verifier.backlog_size() == 0
        for pid in (1, 2, 3):
            assert [v.kind for v in verifier.all_violations(pid)] == \
                ["verifier-restart"]
            assert verifier.has_violation(pid)
        assert not verifier.all_violations(5)
        assert not verifier.has_violation(5)
        assert not verifier.all_violations(4)


class TestIntegrity:
    def test_dropped_messages_flag_every_process(self):
        verifier = Verifier(HQCFIPolicy)
        channel = AppendWriteFPGA(capacity=1)
        verifier.attach_channel(channel)
        process = Process()
        verifier.register_process(process.pid)
        channel.send(process, msg.pointer_define(1, 2))
        channel.send(process, msg.pointer_define(3, 4))  # dropped
        verifier.poll()
        channel.send(process, msg.pointer_define(5, 6))  # exposes gap
        verifier.poll()
        assert verifier.has_violation(process.pid)
        assert verifier.integrity_failures

    def test_kill_callback_invoked(self):
        killed = []
        verifier = Verifier(HQCFIPolicy, kill_callback=killed.append)
        channel = AppendWriteUArch()
        verifier.attach_channel(channel)
        process = Process()
        verifier.register_process(process.pid)
        channel.send(process, msg.pointer_check(1, 2))
        verifier.poll()
        assert killed == [process.pid]

    def test_terminated_verifier_flags_everything(self, setup):
        verifier, channel, process = setup
        verifier.terminate()
        assert verifier.has_violation(process.pid)
        assert verifier.poll() == 0

    @EVERY_FRONT
    def test_terminate_flags_every_registered_pid(self, setup, kind):
        verifier, _, process = setup
        other = _pid_on_another_shard(verifier, process.pid)
        verifier.register_process(other)
        assert not verifier.has_violation(other)
        verifier.terminate()
        assert verifier.has_violation(process.pid)
        assert verifier.has_violation(other)


def _front(kind):
    """A kernel-facing verifier front of the given kind."""
    if kind == "sharded":
        return ShardedVerifier(HQCFIPolicy, 2)
    if kind == "faulty":
        return FaultyVerifier(Verifier(HQCFIPolicy), FaultPlan(1))
    return Verifier(HQCFIPolicy)


class TestLiaisonProtocol:
    @pytest.mark.parametrize("kind", ["verifier", "sharded", "faulty"])
    def test_front_satisfies_the_protocol(self, kind):
        # Checked member by member rather than with isinstance: the
        # fault wrapper forwards through __getattr__, which runtime
        # protocol checks stop consulting in Python 3.12.
        front = _front(kind)
        try:
            for name in VerifierLiaison.__annotations__:
                assert hasattr(front, name), name
            for name, member in vars(VerifierLiaison).items():
                if name.startswith("_") or not callable(member):
                    continue
                declared = list(inspect.signature(member).parameters)[1:]
                actual = list(inspect.signature(getattr(front, name))
                              .parameters)
                assert actual == declared, name
        finally:
            front.close()


class TestEpochGC:
    @pytest.mark.parametrize("kind", ["verifier", "sharded"])
    def test_fork_into_recycled_pid_cancels_its_reclamation(self, kind):
        front = _front(kind)
        channel = _StubChannel()
        front.attach_channel(channel)
        front.gc_epochs = 1
        try:
            front.register_process(10)
            front.register_process(5)
            front.unregister_process(5)
            front.fork_process(10, 5)  # pid 5 is recycled for the child
            front.advance_epoch()
            assert 5 in front.contexts
            # The live child's messages are still checked, not ignored.
            channel.push(pack_stream(5, [
                (int(Op.POINTER_CHECK), 0x10, 0x666, 0)]))
            front.poll()
            assert [v.kind for v in front.all_violations(5)] == [
                "cfi-pointer-integrity"]
        finally:
            front.close()

    @EVERY_FRONT
    def test_totals_include_reclaimed_pids(self, kind):
        front = _front(kind)
        channel = _StubChannel()
        front.attach_channel(channel)
        front.gc_epochs = 1
        try:
            front.register_process(10)
            other = _pid_on_another_shard(front, 10)
            front.register_process(other)
            define = (int(Op.POINTER_DEFINE), 0x10, 0x20, 0)
            channel.push(pack_stream(10, [define]) + pack_stream(other, [
                define, (int(Op.POINTER_CHECK), 0x10, 0x666, 0)]))
            assert front.poll() == 3
            front.unregister_process(other)
            assert front.pid_table_size() == 2
            assert front.advance_epoch() == [other]
            assert front.pid_table_size() == 1
            assert front.total_messages() == 3
            assert (front.reclaimed_pids, front.reclaimed_messages,
                    front.reclaimed_violations) == (1, 2, 1)
        finally:
            front.close()
