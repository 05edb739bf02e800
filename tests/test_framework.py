"""End-to-end tests of the framework (repro.core.framework)."""

import pytest

from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.types import F64, I64, func, ptr
from repro.core.framework import run_program
from repro.cfi.designs import DESIGNS, get_design
from repro.sim.cycles import AccountingMode


def fnptr_program():
    """A small program exercising define/check/icall and a syscall."""
    module = ir.Module("e2e")
    sig = func(I64, [I64])
    target = module.add_function("target", sig)
    tb = IRBuilder(target.add_block("entry"))
    tb.ret(tb.mul(target.params[0], tb.const(2)))
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    slot = b.alloca(ptr(sig))
    b.store(ir.FunctionRef(target), slot)
    result = b.icall(b.load(slot), [b.const(21)], sig)
    b.syscall(1, [b.const(1), result, b.const(8)])
    b.ret(result)
    return module


class TestDesignCatalogue:
    def test_all_designs_listed(self):
        assert set(DESIGNS) == {"baseline", "hq-sfestk", "hq-retptr",
                                "clang-cfi", "ccfi", "cpi", "arm-pa"}

    def test_get_design_case_insensitive(self):
        assert get_design("HQ-SfeStk").name == "hq-sfestk"

    def test_unknown_design_raises(self):
        with pytest.raises(KeyError):
            get_design("nonexistent")

    def test_monitored_flags(self):
        assert get_design("hq-sfestk").monitored
        assert get_design("hq-retptr").monitored
        assert not get_design("clang-cfi").monitored

    def test_uaf_detection_column(self):
        """Table 3's use-after-free column."""
        assert get_design("hq-sfestk").detects_use_after_free
        assert get_design("hq-retptr").detects_use_after_free
        for name in ("clang-cfi", "ccfi", "cpi"):
            assert not get_design(name).detects_use_after_free

    def test_exec_options_reflect_design(self):
        options = get_design("clang-cfi").exec_options()
        assert options.safe_stack and options.safe_stack_guard
        options = get_design("cpi").exec_options()
        assert options.safe_stack_adjacent
        options = get_design("ccfi").exec_options()
        assert options.fp_precision_loss
        assert options.register_pressure_factor > 1.0

    def test_exec_option_overrides(self):
        options = get_design("baseline").exec_options(max_steps=123)
        assert options.max_steps == 123


class TestRunProgram:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_every_design_runs_clean_program(self, design):
        result = run_program(fnptr_program(), design=design)
        assert result.ok, result.detail
        assert result.exit_status == 42
        assert result.output == [42]

    def test_hq_design_sends_messages(self):
        result = run_program(fnptr_program(), design="hq-sfestk")
        assert result.messages_sent > 0
        assert result.violations == []

    def test_baseline_sends_no_messages(self):
        result = run_program(fnptr_program(), design="baseline")
        assert result.messages_sent == 0

    def test_cycles_recorded(self):
        result = run_program(fnptr_program(), design="hq-sfestk")
        assert result.total_cycles(AccountingMode.MODEL) > \
            result.total_cycles(AccountingMode.SIM)

    def test_pass_stats_surfaced(self):
        result = run_program(fnptr_program(), design="hq-sfestk")
        assert result.pass_stats["cfi-initial"]["defines"] >= 1

    def test_channel_selection(self):
        for channel in ("model", "sim", "fpga", "mq"):
            result = run_program(fnptr_program(), design="hq-sfestk",
                                 channel=channel)
            assert result.ok
            assert result.channel == channel

    def test_pre_run_hook_invoked(self):
        seen = {}

        def hook(image, interpreter):
            seen["image"] = image

        run_program(fnptr_program(), design="baseline", pre_run=hook)
        assert "image" in seen

    def test_compile_error_result(self):
        """CCFI rejects functions with too many float arguments."""
        module = ir.Module()
        heavy = module.add_function("heavy", func(I64, [F64] * 6))
        b = IRBuilder(heavy.add_block("entry"))
        b.ret(b.const(0))
        mainf = module.add_function("main", func(I64, []))
        IRBuilder(mainf.add_block("entry")).ret(ir.Constant(0))
        result = run_program(module, design="ccfi")
        assert result.outcome == "compile-error"
        assert "XMM" in result.detail

    def test_entry_args_forwarded(self):
        module = ir.Module()
        mainf = module.add_function("main", func(I64, [I64]))
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.add(mainf.params[0], b.const(1)))
        result = run_program(module, design="baseline", entry_args=[41])
        assert result.exit_status == 42

    def test_crash_outcome(self):
        module = ir.Module()
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.binop("div", b.const(1), b.const(0)))
        result = run_program(module, design="baseline")
        assert result.outcome == "crash"

    def test_hang_outcome(self):
        module = ir.Module()
        mainf = module.add_function("main", func(I64, []))
        entry = mainf.add_block("entry")
        loop = mainf.add_block("loop")
        IRBuilder(entry).br(loop)
        IRBuilder(loop).br(loop)
        result = run_program(module, design="baseline", max_steps=500)
        assert result.outcome == "hang"


class TestViolationHandling:
    def _uaf_program(self):
        """Genuine use-after-free on a control-flow pointer."""
        module = ir.Module("uaf")
        sig = func(I64, [I64])
        target = module.add_function("target", sig)
        tb = IRBuilder(target.add_block("entry"))
        tb.ret(target.params[0])
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        obj = b.malloc(b.const(16))
        typed = b.cast(obj, ptr(ptr(sig)))
        b.store(ir.FunctionRef(target), typed)
        b.free(obj)
        stale = b.load(typed)
        result = b.icall(stale, [b.const(5)], sig)
        b.syscall(1, [b.const(1), result, b.const(8)])
        b.ret(result)
        return module

    def test_hq_detects_uaf_and_kills(self):
        result = run_program(self._uaf_program(), design="hq-sfestk",
                             kill_on_violation=True)
        assert result.outcome == "killed"
        assert result.violations

    def test_continue_mode_records_but_proceeds(self):
        result = run_program(self._uaf_program(), design="hq-sfestk",
                             kill_on_violation=False)
        assert result.ok
        assert result.violations
        assert result.output == [5]

    def test_other_designs_miss_the_uaf(self):
        """Table 3: only HQ-CFI detects use-after-free."""
        for design in ("clang-cfi", "ccfi", "cpi"):
            result = run_program(self._uaf_program(), design=design)
            assert result.ok, f"{design}: {result.detail}"
            assert result.runtime_violations == 0

    def test_clang_false_positive_on_type_cast(self):
        module = ir.Module()
        sig_a = func(I64, [I64])
        sig_b = func(I64, [I64, I64])
        target = module.add_function("target", sig_a)
        tb = IRBuilder(target.add_block("entry"))
        tb.ret(target.params[0])
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        slot = b.alloca(ptr(sig_a))
        b.store(ir.FunctionRef(target), slot)
        alias = b.cast(slot, ptr(ptr(sig_b)))
        loaded = b.load(alias)
        b.ret(b.icall(loaded, [b.const(1), b.const(2)], sig_b))
        result = run_program(module, design="clang-cfi",
                             kill_on_violation=True)
        assert result.outcome == "violation"  # benign call rejected


class TestAbortedRunResourceRelease:
    """Regression: an exception mid-``run_program(shards=N)`` must not
    leak the shard rings' shared-memory segments (or the channel): the
    components are parked on the kernel as soon as they exist and a
    ``finally`` in ``run_program`` releases them on every exit path."""

    def test_aborted_sharded_run_releases_segments(self):
        from repro.ipc.shared_memory import owned_segment_names
        before = set(owned_segment_names())
        live_at_abort = []

        def boom(image, interpreter):
            live_at_abort.extend(owned_segment_names())
            raise RuntimeError("injected abort mid-run")

        with pytest.raises(RuntimeError, match="injected abort"):
            run_program(fnptr_program(), design="hq-sfestk",
                        channel="model", shards=2, pre_run=boom)
        # The shard rings were live when the abort fired...
        assert len(live_at_abort) > len(before)
        # ...and every one of them was released on the way out.
        assert set(owned_segment_names()) == before

    def test_aborted_plain_run_releases_channel(self):
        def boom(image, interpreter):
            raise RuntimeError("injected abort mid-run")

        with pytest.raises(RuntimeError, match="injected abort"):
            run_program(fnptr_program(), design="hq-sfestk",
                        channel="model", pre_run=boom)
        # And the abort path leaves the next run fully functional.
        result = run_program(fnptr_program(), design="hq-sfestk",
                             channel="model")
        assert result.ok


class TestAMRExhaustion:
    """A tiny AMR fills many times per run.  The kernel handler wired by
    ``run_program`` drains the verifier and rewinds the registers, so
    the verdict is the same as with the default capacity."""

    @staticmethod
    def run(profile, capacity):
        from repro.workloads.generator import build_module
        from repro.workloads.profiles import get_profile
        return run_program(
            build_module(get_profile(profile)), channel="uarch",
            channel_kwargs=None if capacity is None
            else {"capacity": capacity},
            observe=True)

    @pytest.mark.parametrize("profile", ["453.povray", "403.gcc"])
    def test_small_amr_gives_same_verdict(self, profile, monkeypatch):
        from repro.ipc.appendwrite import AppendWriteUArch
        reference = self.run(profile, None)
        counters = reference.obs_report["metrics"]["counters"]
        assert counters["ipc.amr_faults"] == 0
        # The channel's own fallback recovery must never run: the kernel
        # handler has to make room on every fault.
        fallbacks = []
        monkeypatch.setattr(AppendWriteUArch, "_drain_to_staging",
                            lambda channel: fallbacks.append(channel))
        for capacity in (4, 1):
            result = self.run(profile, capacity)
            assert result.outcome == reference.outcome
            assert result.violations == reference.violations
            assert result.output == reference.output
            assert result.messages_sent == reference.messages_sent
            assert result.steps == reference.steps
            faulted = result.obs_report["metrics"]["counters"]
            assert faulted["ipc.amr_faults"] > 0
            # Every message still reaches the verifier.
            assert faulted["ipc.messages_received"] == \
                counters["ipc.messages_received"]
        assert fallbacks == []
