"""Compiler analyses backing the instrumentation passes.

Implements the paper's section 4.1.4 analyses:

* **Function-pointer detection**: a pointer slot is treated as holding a
  function pointer if (1) it is ever defined from a value of function
  pointer type, *including via pointer casts and φ-nodes*, or (2) other
  uses of its original value are ever cast to function-pointer type.
  This avoids false negatives from type casting/decay.
* **Escape analysis**: decides whether a stack slot's address escapes
  the defining function (passed to a call, stored to memory, returned),
  bounding where the store-to-load-forwarding and message-elision
  optimizations are sound.
* **Function attributes** used by the backward-edge pass (section
  4.1.6): may-write-memory, known-to-return, has-stack-allocations,
  always-tail-called.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.compiler import ir
from repro.compiler.types import is_function_pointer, is_vtable_pointer


def _value_sources(value: ir.Value, seen: Set[int]) -> Iterable[ir.Value]:
    """Transitive data sources of ``value`` through casts/φ/selects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, ir.Cast):
        yield from _value_sources(value.value, seen)
    elif isinstance(value, ir.Phi):
        for incoming, _ in value.incoming:
            yield from _value_sources(incoming, seen)
    elif isinstance(value, ir.Select):
        yield from _value_sources(value.if_true, seen)
        yield from _value_sources(value.if_false, seen)


def is_function_pointer_value(value: ir.Value) -> bool:
    """Whether ``value`` may carry a function pointer at runtime.

    Looks through casts, φ-nodes, and selects so that a decayed
    ``void *`` whose origin is a :class:`~repro.compiler.ir.FunctionRef`
    is still recognized (detection rule 1 of section 4.1.4).
    """
    for source in _value_sources(value, set()):
        if is_function_pointer(source.type) or is_vtable_pointer(source.type):
            return True
        if isinstance(source, ir.FunctionRef):
            return True
    return False


class DefUseIndex:
    """The users of every value of one function, built in one scan.

    Keyed by the values themselves (they hash by identity); users in block
    order, each once (:meth:`add` and RAUW append).  Lives for one pass's
    walk over one function: the IR has no mutation hooks to keep a cache exact.
    """

    def __init__(self, function: ir.Function) -> None:
        self.function = function
        self._users: Dict[ir.Value, Dict[ir.Instruction, None]] = {}
        users_of_operand = self._users.setdefault
        for block in function.blocks:
            for instruction in block.instructions:
                for operand in instruction.operands:
                    users_of_operand(operand, {})[instruction] = None

    def users(self, value: ir.Value) -> List[ir.Instruction]:
        return list(self._users.get(value, ()))

    def add(self, instruction: ir.Instruction) -> None:
        for operand in instruction.operands:
            self._users.setdefault(operand, {})[instruction] = None

    def remove(self, instruction: ir.Instruction) -> None:
        for operand in instruction.operands:
            self._users.get(operand, {}).pop(instruction, None)

    def replace_all_uses(self, old: ir.Value, new: ir.Value) -> None:
        """RAUW: rewrite every user of ``old`` to use ``new``."""
        users = self._users.pop(old, {})
        for user in users:
            user.replace_operand(old, new)
        self._users.setdefault(new, {}).update(users)


def uses_of(function: ir.Function, value: ir.Value,
            index: Optional[DefUseIndex] = None) -> List[ir.Instruction]:
    """Users of ``value`` in ``function``, from the walk's ``index`` if given."""
    return (index or DefUseIndex(function)).users(value)


def value_recast_to_function_pointer(index: DefUseIndex, value: ir.Value) -> bool:
    """Detection rule 2: some *other* use of ``value`` casts it to a
    function-pointer type, implying the slot may hold code addresses."""
    for use in uses_of(index.function, value, index):
        if isinstance(use, ir.Cast) and is_function_pointer(use.type):
            return True
    return False


def store_defines_function_pointer(index: DefUseIndex, store: ir.Store) -> bool:
    """Whether a store writes a (possibly laundered) function pointer."""
    if is_function_pointer_value(store.value):
        return True
    return value_recast_to_function_pointer(index, store.value)


def pointer_feeds_icall(index: DefUseIndex, value: ir.Value) -> bool:
    """Whether ``value`` reaches an indirect call through casts/φ/selects."""
    worklist, seen = [value], {value}
    while worklist:
        current = worklist.pop()
        for use in uses_of(index.function, current, index):
            if isinstance(use, ir.ICall) and use.target is current:
                return True
            if isinstance(use, (ir.Cast, ir.Phi, ir.Select)) and use not in seen:
                seen.add(use)
                worklist.append(use)
    return False


def load_needs_check(index: DefUseIndex, load: ir.Load) -> bool:
    """Whether a loaded value may be an icall target: always for function-pointer
    types (it may escape to a call we cannot see), else if it reaches one."""
    return is_function_pointer(load.type) or pointer_feeds_icall(index, load)


def alloca_root(pointer: ir.Value) -> Optional[ir.Alloca]:
    """The alloca ``pointer`` addresses through geps and casts, if any."""
    while isinstance(pointer, (ir.Gep, ir.Cast)):
        pointer = pointer.pointer if isinstance(pointer, ir.Gep) else pointer.value
    return pointer if isinstance(pointer, ir.Alloca) else None


class EscapeAnalysis:
    """Per-function escape analysis over ``alloca`` slots.

    A slot *escapes* if its address is passed to any call, stored into
    memory, returned, or flows into a value that does any of those.  The
    paper notes its escape analysis "is more precise than the built-in
    fast-but-conservative alias analysis"; ours walks each slot forward
    through its cast/gep/φ/select users (flow-insensitive), so a pointer
    derived from several slots (``select(c, &a, &b)``) charges them all.
    """

    def __init__(self, function: ir.Function,
                 index: Optional[DefUseIndex] = None) -> None:
        self.function = function
        index = index or DefUseIndex(function)
        self.escaped: Set[ir.Instruction] = {
            value for value in index._users
            if isinstance(value, ir.Alloca) and self._address_escapes(index, value)}

    @staticmethod
    def _address_escapes(index: DefUseIndex, alloca: ir.Alloca) -> bool:
        derived, worklist = {alloca}, [alloca]
        while worklist:
            current = worklist.pop()
            for use in index.users(current):
                # RuntimeCall is deliberately excluded: instrumentation
                # passes slots to the trusted runtime, which neither
                # retains nor writes through them — counting those as
                # escapes would defeat the very optimizations that prune
                # instrumentation.
                if isinstance(use, (ir.Call, ir.ICall)):
                    if any(arg is current for arg in use.args):
                        return True
                elif isinstance(use, ir.Store):
                    # Storing the *address* (not storing through it) escapes.
                    if use.value is current:
                        return True
                elif isinstance(use, (ir.Ret, ir.MemCopy, ir.MemSet)):
                    return True
                elif isinstance(use, (ir.Cast, ir.Gep, ir.Phi, ir.Select)) \
                        and use not in derived:
                    derived.add(use)
                    worklist.append(use)
        return False

    def may_escape(self, alloca: ir.Instruction) -> bool:
        """Whether the slot's address may be visible outside the function."""
        return alloca in self.escaped


def may_write_memory(function: ir.Function) -> bool:
    """Whether the function (conservatively) writes memory."""
    for instruction in function.instructions():
        if isinstance(instruction, (ir.Store, ir.MemCopy, ir.MemSet,
                                    ir.Malloc, ir.Free, ir.Realloc,
                                    ir.Call, ir.ICall, ir.Syscall)):
            return True
    return False


def has_stack_allocations(function: ir.Function) -> bool:
    """Whether the function allocates stack memory (``alloca``)."""
    return any(isinstance(i, ir.Alloca) for i in function.instructions())


def known_to_return(function: ir.Function) -> bool:
    """Whether some path reaches a ``ret`` (and not marked noreturn)."""
    if function.no_return:
        return False
    return any(isinstance(i, ir.Ret) for i in function.instructions())


def always_tail_called(function: ir.Function) -> bool:
    """Whether every call site of ``function`` in the module is a tail
    call (its frame never outlives the caller's return pointer)."""
    sites = [instruction for instruction in function.module.all_instructions()
             if isinstance(instruction, ir.Call) and instruction.callee is function]
    return bool(sites) and all(site.tail for site in sites)


def needs_return_pointer_protection(function: ir.Function) -> bool:
    """Section 4.1.6 predicate: the backward-edge pass instruments
    functions that may write to memory, are known to return, contain
    stack allocations, and are not always tail called."""
    if function.is_declaration:
        return False
    return (may_write_memory(function)
            and known_to_return(function)
            and has_stack_allocations(function)
            and not always_tail_called(function))


def address_taken_functions(module: ir.Module) -> Set[str]:
    """Functions whose address is taken anywhere in the module.

    This is the single coarse equivalence class used by designs like
    Microsoft CFG, and the starting point for Clang/LLVM CFI's
    type-based classes (section 6.3.1).
    """
    taken: Set[str] = set()
    for function in module.functions.values():
        if function.address_taken:
            taken.add(function.name)
    for instruction in module.all_instructions():
        for operand in instruction.operands:
            if isinstance(operand, ir.FunctionRef):
                taken.add(operand.function.name)
    for variable in module.globals.values():
        for value in variable.initializer or []:
            if isinstance(value, ir.FunctionRef):
                taken.add(value.function.name)
    return taken
