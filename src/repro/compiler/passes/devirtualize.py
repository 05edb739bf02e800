"""C++ devirtualization optimizations (section 4.1.4).

Models the three LLVM passes HerQules enables — Virtual Pointer
Invariance, Whole Program Devirtualization, and Dead Virtual Function
Elimination — whose combined effect is to convert indirect calls with a
statically unique target into direct calls, which need no CFI check.

Two devirtualization opportunities are recognized:

* an indirect call whose target value traces (through casts, φ-nodes
  with a single distinct input, and loads of *constant* globals holding
  one function) to exactly one ``FunctionRef``;
* a virtual call through a vtable slot when whole-program analysis sees
  a single implementation (the workload generators mark such calls with
  ``meta["unique_target"]``, standing in for the class-hierarchy
  analysis that our IR does not carry).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.compiler import ir
from repro.compiler.analysis import DefUseIndex
from repro.compiler.passes.base import ModulePass


class DevirtualizationPass(ModulePass):
    """Convert statically-unique indirect calls into direct calls."""

    name = "devirtualize"

    def run(self, module: ir.Module) -> None:
        for function in module.functions.values():
            uses = DefUseIndex(function)
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.ICall):
                        self._try_devirtualize(module, uses, block, instruction)

    def _try_devirtualize(self, module: ir.Module, uses: DefUseIndex,
                          block: ir.BasicBlock, icall: ir.ICall) -> None:
        target = self._unique_target(module, icall)
        if target is None:
            return
        call = ir.Call(target, icall.args, icall.name)
        index = block.instructions.index(icall)
        block.instructions[index] = call
        call.block = block
        uses.remove(icall)
        uses.add(call)
        uses.replace_all_uses(icall, call)
        self.bump("calls-devirtualized")

    def _unique_target(self, module: ir.Module,
                       icall: ir.ICall) -> Optional[ir.Function]:
        marked = icall.meta.get("unique_target")
        if isinstance(marked, str) and marked in module.functions:
            return module.functions[marked]
        return self._trace(icall.target, set())

    def _trace(self, value: ir.Value, seen: Set[int]) -> Optional[ir.Function]:
        if id(value) in seen:
            return None
        seen.add(id(value))
        if isinstance(value, ir.FunctionRef):
            return value.function
        if isinstance(value, ir.Cast):
            return self._trace(value.value, seen)
        if isinstance(value, ir.Phi):
            targets = {self._trace(incoming, seen)
                       for incoming, _ in value.incoming}
            targets.discard(None)
            if len(targets) == 1:
                return targets.pop()
            return None
        if isinstance(value, ir.Load):
            pointer = value.pointer
            if isinstance(pointer, ir.GlobalVariable) and pointer.const \
                    and pointer.initializer and len(pointer.initializer) == 1:
                initializer = pointer.initializer[0]
                if isinstance(initializer, ir.FunctionRef):
                    return initializer.function
        return None
