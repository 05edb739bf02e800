"""Tests for multi-process sessions (repro.core.session)."""

import pytest

from repro.core.framework import run_program
from repro.core.session import HQSession
from repro.attacks.ripe import Attack, build_victim
from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.types import I64, func, ptr


def small_clean_program(name="clean"):
    module = ir.Module(name)
    sig = func(I64, [I64])
    handler = module.add_function("handler", sig)
    b = IRBuilder(handler.add_block("entry"))
    b.ret(b.mul(handler.params[0], b.const(2)))
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    slot = b.alloca(ptr(sig))
    b.store(ir.FunctionRef(handler), slot)
    b.call(handler, [b.const(1)], "warm")
    result = b.icall(b.load(slot), [b.const(5)], sig)
    b.syscall(1, [b.const(1), result, b.const(8)])
    b.ret(result)
    return module


def uaf_program(name="buggy"):
    module = ir.Module(name)
    sig = func(I64, [I64])
    handler = module.add_function("handler", sig)
    b = IRBuilder(handler.add_block("entry"))
    b.ret(handler.params[0])
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    obj = b.malloc(b.const(16))
    typed = b.cast(obj, ptr(ptr(sig)))
    b.store(ir.FunctionRef(handler), typed)
    b.free(obj)
    stale = b.load(typed)
    result = b.icall(stale, [b.const(3)], sig)
    b.syscall(1, [b.const(1), result, b.const(8)])
    b.ret(result)
    return module


def guard_reentry_program(name="reentry"):
    """Enters the same store-to-load forwarding guard twice: the HQ
    runtime aborts the program in-process."""
    module = ir.Module(name)
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    for _ in range(2):
        b._emit(ir.RuntimeCall("hq_stlf_guard_enter", [b.const(7)]))
    b.ret(b.const(0))
    return module


class TestSessionBasics:
    def test_rejects_unmonitored_designs(self):
        with pytest.raises(ValueError):
            HQSession(design="clang-cfi")

    def test_single_program_round_trip(self):
        session = HQSession()
        program = session.register(small_clean_program())
        result = session.run(program)
        assert result.ok and result.exit_status == 10
        assert result.messages_sent > 0

    def test_one_verifier_many_programs(self):
        session = HQSession()
        handles = [session.register(small_clean_program(f"p{i}"))
                   for i in range(3)]
        results = session.run_all()
        assert all(r.ok for r in results)
        # Three distinct pids with three distinct policy contexts.
        assert len(session.verifier.contexts) == 3
        assert len({h.process.pid for h in handles}) == 3
        assert session.total_messages() >= sum(r.messages_sent
                                               for r in results)

    def test_interp_tier_env_reaches_sessions(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTERP_TIER", "closure")
        session = HQSession()
        program = session.register(small_clean_program())
        result = session.run(program)
        assert result.ok and result.exit_status == 10
        assert program.interpreter.options.interp_tier == "closure"
        assert program.interpreter.compiled_functions == 0

    def test_explicit_interp_tier_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTERP_TIER", "closure")
        options = HQSession().config.exec_options(interp_tier="vm")
        assert options.interp_tier == "vm"

    def test_per_program_channels(self):
        session = HQSession()
        a = session.register(small_clean_program("a"))
        b = session.register(small_clean_program("b"))
        assert a.channel is not b.channel
        assert len(session.verifier.channels) == 2


class TestCrossProcessIsolation:
    def test_violation_confined_to_offending_pid(self):
        session = HQSession(kill_on_violation=False)
        clean = session.register(small_clean_program("clean"))
        buggy = session.register(uaf_program("buggy"))
        clean_result = session.run(clean)
        buggy_result = session.run(buggy)
        assert clean_result.ok and buggy_result.ok
        counts = session.violations_by_pid()
        assert counts[buggy.process.pid] >= 1
        assert counts[clean.process.pid] == 0

    def test_kill_one_program_not_the_other(self):
        session = HQSession(kill_on_violation=True)
        buggy = session.register(uaf_program("buggy"))
        clean = session.register(small_clean_program("clean"))
        buggy_result = session.run(buggy)
        clean_result = session.run(clean)
        assert buggy_result.outcome == "killed"
        assert clean_result.ok

    def test_attack_on_one_program_spares_others(self):
        """A full exploit against one tenant: detected and killed;
        the other tenant's run and context are untouched."""
        session = HQSession(kill_on_violation=True)
        victim_module, pre_run = build_victim(
            Attack("fp-direct", "noclass", "heap"))
        victim = session.register(victim_module, name="victim")
        clean = session.register(small_clean_program("bystander"))

        # The session API has no pre_run; plant the attack directly.
        pre_run(victim.interpreter.image, victim.interpreter)
        # The RIPE victim needs ASLR off for address prediction —
        # the fp-direct heap attack doesn't, so run as-is.
        victim_result = session.run(victim)
        clean_result = session.run(clean)
        assert victim_result.outcome == "killed"
        assert not victim_result.win_executed
        assert clean_result.ok

    def test_pointer_tables_are_disjoint(self):
        session = HQSession()
        a = session.register(small_clean_program("a"))
        b = session.register(small_clean_program("b"))
        session.run_all()
        table_a = session.verifier.contexts[a.process.pid].table
        table_b = session.verifier.contexts[b.process.pid].table
        # Same program shape, but each context tracked only its own
        # process's addresses — mutating one never touches the other.
        table_a.define(0xDEAD, 1)
        assert 0xDEAD not in table_b


class TestSameWiringAsRunProgram:
    def test_in_process_violation_is_an_outcome(self):
        expected = run_program(guard_reentry_program())
        session = HQSession()
        result = session.run(session.register(guard_reentry_program()))
        assert expected.outcome == result.outcome == "violation"
        assert result.detail == expected.detail

    def test_channel_full_kill_recorded_with_kernel_module(self):
        session = HQSession(channel_kwargs={"capacity": 1})
        program = session.register(small_clean_program())
        session.verifier.terminated = True  # nothing drains the channel
        result = session.run(program)
        assert result.outcome == "killed" and "fail closed" in result.detail
        pid = program.process.pid
        assert session.hq_module.contexts[pid].kill_reason == result.detail
        assert session.hq_module.violations_seen == [
            f"pid {pid}: {result.detail}"]
