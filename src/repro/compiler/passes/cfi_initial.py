"""Initial lowering: insert control-flow-pointer messaging (section 4.1.4).

Runs before program optimization.  Walks every operation in the IR and
inserts runtime messaging calls:

* a ``Pointer-Define`` after every store of a (possibly laundered)
  function pointer, vtable pointer, or vtable-table pointer;
* a ``Pointer-Check`` after every load whose value may be used as an
  indirect-call target;
* lifetime management: ``Pointer-Block-Invalidate`` for stack slots
  that held control-flow pointers, at every function exit;
* ``jmp_buf`` handling: the internal pointer stored by ``setjmp`` is
  defined on creation and checked by ``longjmp`` (section 4.1.3 lists
  it among protected function pointers).

Function-pointer detection follows the paper's two rules (implemented
in :mod:`repro.compiler.analysis`): a pointer is treated as a function
pointer if it is ever defined from a function-pointer-typed value —
including through casts and φ-nodes — or if other uses of its original
value are cast to function-pointer type.
"""

from __future__ import annotations

from typing import Set

from repro.compiler import ir
from repro.compiler.analysis import (DefUseIndex, alloca_root, load_needs_check,
                                     store_defines_function_pointer)
from repro.compiler.passes.base import ModulePass
from repro.compiler.types import I64


class CFIInitialLoweringPass(ModulePass):
    """Insert define/check/invalidate messaging calls."""

    name = "cfi-initial"

    def run(self, module: ir.Module) -> None:
        for function in module.functions.values():
            if function.is_declaration:
                continue
            self._run_on_function(function)

    def _run_on_function(self, function: ir.Function) -> None:
        protected_allocas: Set[ir.Alloca] = set()
        # Inserted runtime calls never match a query's cast/φ/select/icall filter.
        uses = DefUseIndex(function)
        for block in list(function.blocks):
            for instruction in list(block.instructions):
                if isinstance(instruction, ir.Store):
                    if store_defines_function_pointer(uses, instruction):
                        block.insert_after(instruction, ir.RuntimeCall(
                            "hq_pointer_define",
                            [instruction.pointer, instruction.value]))
                        self.bump("defines")
                        root = alloca_root(instruction.pointer)
                        if root is not None:
                            protected_allocas.add(root)
                elif isinstance(instruction, ir.Load):
                    if load_needs_check(uses, instruction):
                        check = ir.RuntimeCall(
                            "hq_pointer_check",
                            [instruction.pointer, instruction])
                        check.meta["checked_load"] = instruction
                        block.insert_after(instruction, check)
                        self.bump("checks")
                elif isinstance(instruction, ir.Setjmp):
                    block.insert_after(instruction, ir.RuntimeCall(
                        "hq_setjmp_hook", [instruction.buf]))
                    self.bump("setjmp-hooks")
                elif isinstance(instruction, ir.Longjmp):
                    block.insert_before(instruction, ir.RuntimeCall(
                        "hq_longjmp_hook", [instruction.buf]))
                    self.bump("longjmp-hooks")

        if protected_allocas:
            self._invalidate_on_exit(function, protected_allocas)

    def _invalidate_on_exit(self, function: ir.Function,
                            allocas: Set[ir.Alloca]) -> None:
        """Stack slots that held control-flow pointers die at returns."""
        for block in function.blocks:
            terminator = block.terminator
            if not isinstance(terminator, ir.Ret):
                continue
            for alloca in allocas:
                size = max(alloca.allocated_type.size(), 8)
                block.insert_before(terminator, ir.RuntimeCall(
                    "hq_pointer_block_invalidate",
                    [alloca, ir.Constant(size, I64)]))
                self.bump("stack-invalidates")
