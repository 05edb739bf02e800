"""Tests for compiler analyses (repro.compiler.analysis)."""

import pytest

from repro.cfi.designs import DESIGNS
from repro.compiler import ir
from repro.compiler.analysis import (
    DefUseIndex,
    EscapeAnalysis,
    address_taken_functions,
    always_tail_called,
    has_stack_allocations,
    is_function_pointer_value,
    known_to_return,
    may_write_memory,
    needs_return_pointer_protection,
    pointer_feeds_icall,
    store_defines_function_pointer,
    uses_of,
    value_recast_to_function_pointer,
)
from repro.compiler.builder import IRBuilder
from repro.compiler.passes.devirtualize import DevirtualizationPass
from repro.compiler.passes.inliner import InlinerPass
from repro.compiler.types import I64, func, ptr
from repro.workloads.generator import build_module
from repro.workloads.profiles import get_profile

SIG = func(I64, [I64])


def fresh(params=(I64,)):
    module = ir.Module()
    target = module.add_function("target", SIG)
    tb = IRBuilder(target.add_block("entry"))
    tb.ret(target.params[0])
    f = module.add_function("f", func(I64, list(params)))
    return module, target, f, IRBuilder(f.add_block("entry"))


class TestFunctionPointerDetection:
    def test_direct_function_ref(self):
        module, target, f, b = fresh()
        assert is_function_pointer_value(ir.FunctionRef(target))

    def test_through_cast(self):
        """Rule 1: defined from a fn-ptr value via pointer casts."""
        module, target, f, b = fresh()
        laundered = b.cast(ir.FunctionRef(target), ptr(I64))
        assert is_function_pointer_value(laundered)

    def test_through_phi(self):
        """Rule 1: ... including via phi-nodes."""
        module, target, f, b = fresh()
        phi = ir.Phi(ptr(I64))
        phi.add_incoming(b.cast(ir.FunctionRef(target), ptr(I64)),
                         f.entry)
        assert is_function_pointer_value(phi)

    def test_through_select(self):
        module, target, f, b = fresh()
        sel = b.select(f.params[0], ir.FunctionRef(target),
                       ir.FunctionRef(target))
        assert is_function_pointer_value(sel)

    def test_plain_int_is_not(self):
        module, target, f, b = fresh()
        assert not is_function_pointer_value(b.const(42))
        assert not is_function_pointer_value(f.params[0])

    def test_recast_rule(self):
        """Rule 2: other uses of the value are cast to fn-ptr type."""
        module, target, f, b = fresh()
        value = b.add(f.params[0], b.const(0))
        b.cast(value, ptr(SIG))  # some other use recasts it
        assert value_recast_to_function_pointer(DefUseIndex(f), value)

    def test_store_defines_function_pointer(self):
        module, target, f, b = fresh()
        slot = b.alloca(ptr(SIG))
        store = ir.Store(ir.FunctionRef(target), slot)
        f.entry.append(store)
        assert store_defines_function_pointer(DefUseIndex(f), store)

    def test_opaque_store_not_detected(self):
        """An attacker-style write of a plain integer is invisible."""
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        store = ir.Store(f.params[0], slot)
        f.entry.append(store)
        assert not store_defines_function_pointer(DefUseIndex(f), store)

    def test_pointer_feeds_icall_direct(self):
        module, target, f, b = fresh()
        slot = b.alloca(ptr(SIG))
        loaded = b.load(slot)
        b.icall(loaded, [b.const(1)], SIG)
        b.ret(b.const(0))
        assert pointer_feeds_icall(DefUseIndex(f), loaded)

    def test_pointer_feeds_icall_through_cast(self):
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        loaded = b.load(slot)
        casted = b.cast(loaded, ptr(SIG))
        b.icall(casted, [b.const(1)], SIG)
        b.ret(b.const(0))
        assert pointer_feeds_icall(DefUseIndex(f), loaded)

    def test_unrelated_load_does_not_feed(self):
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        loaded = b.load(slot)
        b.ret(loaded)
        assert not pointer_feeds_icall(DefUseIndex(f), loaded)


class TestEscapeAnalysis:
    def test_local_only_slot_does_not_escape(self):
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        b.store(b.const(1), slot)
        b.ret(b.load(slot))
        assert not EscapeAnalysis(f).may_escape(slot)

    def test_address_passed_to_call_escapes(self):
        module, target, f, b = fresh()
        callee = module.add_function("callee", func(I64, [ptr(I64)]))
        slot = b.alloca(I64)
        b.call(callee, [slot])
        b.ret(b.const(0))
        assert EscapeAnalysis(f).may_escape(slot)

    def test_address_stored_to_memory_escapes(self):
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        holder = b.alloca(ptr(I64))
        b.store(slot, holder)
        b.ret(b.const(0))
        assert EscapeAnalysis(f).may_escape(slot)

    def test_escape_through_gep_alias(self):
        from repro.compiler.types import ArrayType
        module, target, f, b = fresh()
        arr = b.alloca(ArrayType(I64, 4))
        element = b.gep_index(arr, b.const(1))
        callee = module.add_function("callee", func(I64, [ptr(I64)]))
        b.call(callee, [element])
        b.ret(b.const(0))
        assert EscapeAnalysis(f).may_escape(arr)

    def test_memcpy_argument_escapes(self):
        from repro.compiler.types import ArrayType
        module, target, f, b = fresh()
        buf = b.alloca(ArrayType(I64, 4))
        other = b.alloca(ArrayType(I64, 4))
        b.memcpy(buf, other, b.const(32))
        b.ret(b.const(0))
        analysis = EscapeAnalysis(f)
        assert analysis.may_escape(buf)
        assert analysis.may_escape(other)

    def test_returned_address_escapes(self):
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        b.ret(b.cast(slot, I64))
        assert EscapeAnalysis(f).may_escape(slot)

    def test_select_of_two_slots_escapes_both(self):
        """A derived pointer with two roots charges both of them."""
        module, target, f, b = fresh()
        callee = module.add_function("callee", func(I64, [ptr(I64)]))
        first = b.alloca(I64)
        second = b.alloca(I64)
        b.call(callee, [b.select(f.params[0], first, second)])
        b.ret(b.const(0))
        analysis = EscapeAnalysis(f)
        assert analysis.may_escape(first)
        assert analysis.may_escape(second)

    def test_phi_of_two_slots_escapes_both(self):
        module, target, f, b = fresh()
        callee = module.add_function("callee", func(I64, [ptr(I64)]))
        first = b.alloca(I64)
        second = b.alloca(I64)
        left, right, join = (f.add_block(n) for n in ("left", "right", "join"))
        b.cond_br(f.params[0], left, right)
        IRBuilder(left).br(join)
        IRBuilder(right).br(join)
        b.position_at_end(join)
        merged = b.phi(ptr(I64))
        merged.add_incoming(first, left)
        merged.add_incoming(second, right)
        b.call(callee, [b.gep_index(merged, b.const(0))])
        b.ret(b.const(0))
        analysis = EscapeAnalysis(f)
        assert analysis.may_escape(first)
        assert analysis.may_escape(second)


class TestFunctionAttributes:
    def test_may_write_memory(self):
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        b.store(b.const(1), slot)
        b.ret(b.const(0))
        assert may_write_memory(f)

    def test_pure_function_does_not_write(self):
        module, target, f, b = fresh()
        b.ret(b.add(f.params[0], b.const(1)))
        assert not may_write_memory(f)

    def test_has_stack_allocations(self):
        module, target, f, b = fresh()
        b.alloca(I64)
        b.ret(b.const(0))
        assert has_stack_allocations(f)

    def test_known_to_return(self):
        module, target, f, b = fresh()
        b.ret(b.const(0))
        assert known_to_return(f)
        f.no_return = True
        assert not known_to_return(f)

    def test_always_tail_called(self):
        module, target, f, b = fresh()
        b.ret(b.const(0))
        caller = module.add_function("caller", func(I64, []))
        cb = IRBuilder(caller.add_block("entry"))
        cb.ret(cb.call(f, [cb.const(1)], tail=True))
        assert always_tail_called(f)

    def test_mixed_call_sites_not_always_tail(self):
        module, target, f, b = fresh()
        b.ret(b.const(0))
        caller = module.add_function("caller", func(I64, []))
        cb = IRBuilder(caller.add_block("entry"))
        cb.call(f, [cb.const(1)], tail=True)
        cb.call(f, [cb.const(2)])
        cb.ret(cb.const(0))
        assert not always_tail_called(f)

    def test_retptr_predicate_requires_all_conditions(self):
        # Satisfies everything: writes memory, allocates, returns.
        module, target, f, b = fresh()
        slot = b.alloca(I64)
        b.store(b.const(1), slot)
        b.ret(b.load(slot))
        assert needs_return_pointer_protection(f)
        # A pure leaf (no allocas, no writes) does not qualify.
        g = module.add_function("g", SIG)
        gb = IRBuilder(g.add_block("entry"))
        gb.ret(g.params[0])
        assert not needs_return_pointer_protection(g)

    def test_declarations_never_protected(self):
        module = ir.Module()
        decl = module.add_function("decl", SIG)
        assert not needs_return_pointer_protection(decl)


class TestAddressTaken:
    def test_ref_in_instruction_operand(self):
        module, target, f, b = fresh()
        slot = b.alloca(ptr(SIG))
        b.store(ir.FunctionRef(target), slot)
        b.ret(b.const(0))
        assert "target" in address_taken_functions(module)
        assert "f" not in address_taken_functions(module)

    def test_ref_in_global_initializer(self):
        module, target, f, b = fresh()
        b.ret(b.const(0))
        module.add_global("table", ptr(SIG),
                          initializer=[ir.FunctionRef(target)])
        assert "target" in address_taken_functions(module)

    def test_explicit_flag(self):
        module, target, f, b = fresh()
        b.ret(b.const(0))
        f.address_taken = True
        assert "f" in address_taken_functions(module)


# -- def-use index -------------------------------------------------------------

def brute_users(function, value):
    """Every instruction using ``value``, by scanning the whole function."""
    return [instruction for instruction in function.instructions()
            if any(op is value for op in instruction.operands)]


def all_values(function):
    """Parameters, instructions and every operand of ``function``."""
    values = {id(p): p for p in function.params}
    for instruction in function.instructions():
        values[id(instruction)] = instruction
        for operand in instruction.operands:
            values[id(operand)] = operand
    return list(values.values())


def escape_oracle(function):
    """Set-of-roots fixpoint: every alloca each derived pointer may
    address, then the roots of every escaping operand."""
    roots = {}
    for instruction in function.instructions():
        if isinstance(instruction, ir.Alloca):
            roots[instruction] = {instruction}
    changed = True
    while changed:
        changed = False
        for instruction in function.instructions():
            if isinstance(instruction, (ir.Cast, ir.Gep, ir.Phi, ir.Select)):
                reached = set(roots.get(instruction, ()))
                for operand in instruction.operands:
                    reached |= roots.get(operand, set())
                if reached != roots.get(instruction, set()):
                    roots[instruction] = reached
                    changed = True
    escaped = set()
    for instruction in function.instructions():
        if isinstance(instruction, (ir.Call, ir.ICall)):
            escaping = instruction.args
        elif isinstance(instruction, ir.Store):
            escaping = [instruction.value]
        elif isinstance(instruction, ir.Ret) and instruction.value is not None:
            escaping = [instruction.value]
        elif isinstance(instruction, (ir.MemCopy, ir.MemSet)):
            escaping = instruction.operands
        else:
            continue
        for operand in escaping:
            escaped |= roots.get(operand, set())
    return escaped


def check_index_exact(function, index, ordered=True):
    """``index`` lists, for every value, exactly the brute-force users."""
    scan = [(instruction, {id(op) for op in instruction.operands})
            for instruction in function.instructions()]
    for value in all_values(function):
        expected = [instruction for instruction, ids in scan if id(value) in ids]
        if ordered:
            assert index.users(value) == expected, value
        else:
            assert set(index.users(value)) == set(expected), value
            assert len(index.users(value)) == len(expected), value


class TestDefUseIndex:
    def test_users_in_block_order_each_once(self):
        module, target, f, b = fresh()
        x = f.params[0]
        first = b.add(x, x)
        b.select(x, first, x)
        b.ret(b.mul(first, b.const(2)))
        index = DefUseIndex(f)
        check_index_exact(f, index)
        assert len(index.users(x)) == 2
        assert index.users(b.const(7)) == []

    def test_uses_of_matches_index(self):
        module, target, f, b = fresh()
        value = b.add(f.params[0], b.const(1))
        b.cast(value, ptr(SIG))
        b.ret(value)
        assert uses_of(f, value) == DefUseIndex(f).users(value) \
            == brute_users(f, value)

    def test_replace_all_uses_keeps_index_exact(self):
        module, target, f, b = fresh()
        old = b.add(f.params[0], b.const(1))
        new = b.add(f.params[0], b.const(2))
        b.add(new, old)
        b.ret(old)
        index = DefUseIndex(f)
        index.replace_all_uses(old, new)
        assert index.users(old) == []
        check_index_exact(f, index, ordered=False)

    def test_add_and_remove_keep_index_exact(self):
        module, target, f, b = fresh()
        value = b.add(f.params[0], b.const(1))
        ret = b.ret(value)
        index = DefUseIndex(f)
        cast = ir.Cast(value, ptr(SIG))
        f.entry.insert_before(ret, cast)
        index.add(cast)
        check_index_exact(f, index, ordered=False)
        f.entry.remove(cast)
        index.remove(cast)
        check_index_exact(f, index)


#: Generator profiles spanning C and C++, type-cast and int-roundtrip
#: function pointers, decayed block operations and a server workload.
ORACLE_PROFILES = ("403.gcc", "429.mcf", "447.dealII", "483.xalancbmk", "nginx")
PIPELINES = {name: design.passes for name, design in DESIGNS.items()}
PIPELINES["inliner+hq-retptr"] = lambda: [InlinerPass()] + DESIGNS["hq-retptr"].passes()


@pytest.fixture
def checked_rauw(monkeypatch):
    """Assert the walk's index stays exact after every RAUW a pass makes."""
    original = DefUseIndex.replace_all_uses
    calls = []

    def replace_all_uses(self, old, new):
        original(self, old, new)
        check_index_exact(self.function, self, ordered=False)
        calls.append(old)

    monkeypatch.setattr(DefUseIndex, "replace_all_uses", replace_all_uses)
    return calls


class TestAnalysesAgainstOracles:
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("profile", ORACLE_PROFILES)
    def test_after_every_pass(self, profile, pipeline, checked_rauw):
        module = build_module(get_profile(profile), "train")
        for pass_ in PIPELINES[pipeline]():
            pass_.run(module)
            for function in module.functions.values():
                if function.is_declaration:
                    continue
                check_index_exact(function, DefUseIndex(function))
                assert EscapeAnalysis(function).escaped \
                    == escape_oracle(function), (pass_.name, function.name)
        if pipeline.startswith("inliner"):
            assert checked_rauw


def live_references_to(module, removed):
    return [instruction for instruction in module.all_instructions()
            if any(op is gone for op in instruction.operands for gone in removed)]


class TestDevirtualizationRewrite:
    def _devirtualize(self, module):
        removed = [i for i in module.all_instructions() if isinstance(i, ir.ICall)]
        pass_ = DevirtualizationPass()
        pass_.run(module)
        removed = [i for i in removed if i.block is None
                   or i not in i.block.instructions]
        return pass_, removed

    def test_result_feeding_phi(self):
        module, target, f, b = fresh()
        left, join = f.add_block("left"), f.add_block("join")
        result = b.icall(ir.FunctionRef(target), [b.const(1)], SIG)
        b.cond_br(f.params[0], left, join)
        IRBuilder(left).br(join)
        b.position_at_end(join)
        merged = b.phi(I64)
        merged.add_incoming(result, f.entry)
        merged.add_incoming(b.const(0), left)
        b.ret(merged)
        pass_, removed = self._devirtualize(module)
        assert removed == [result]
        assert not live_references_to(module, removed)
        assert isinstance(merged.incoming[0][0], ir.Call)

    def test_result_feeding_later_icall_target(self):
        module, target, f, b = fresh()
        result = b.icall(ir.FunctionRef(target), [b.const(1)], SIG)
        pointer = b.cast(result, ptr(SIG))
        later = b.icall(pointer, [result], SIG)
        b.ret(later)
        pass_, removed = self._devirtualize(module)
        assert removed == [result]
        assert not live_references_to(module, removed)
        assert isinstance(pointer.value, ir.Call)
        assert isinstance(later.args[0], ir.Call)

    def test_user_devirtualized_before_its_operand(self, checked_rauw):
        """Block order need not follow dominance: a devirtualized user
        listed before its (also devirtualized) operand is rewritten."""
        module, target, f, b = fresh()
        use_block, def_block = f.add_block("use"), f.add_block("def")
        b.br(def_block)
        defined = IRBuilder(def_block).icall(
            ir.FunctionRef(target), [b.const(1)], SIG)
        IRBuilder(def_block).br(use_block)
        user = IRBuilder(use_block).icall(ir.FunctionRef(target), [defined], SIG)
        IRBuilder(use_block).ret(user)
        pass_, removed = self._devirtualize(module)
        assert pass_.stats["calls-devirtualized"] == 2
        assert not live_references_to(module, removed)
        assert len(checked_rauw) == 2
