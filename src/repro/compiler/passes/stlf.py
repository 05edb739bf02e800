"""Store-to-load forwarding over control-flow pointers (section 4.1.4).

A field-sensitive optimization: when a checked load of a control-flow
pointer is dominated by a store (or a previous checked load) of the
same location, and the location cannot have changed in between, the
later ``Pointer-Check`` is redundant — the verifier already knows the
value — and is removed.

Soundness conditions (mirroring the paper's exclusion list): the slot
must be a non-escaping ``alloca`` (escape analysis), accesses must not
be volatile or atomic, the enclosing function must not be
``returns_twice``, and no call, indirect call, or block memory
operation may intervene between the def and the use (any of those could
clobber the slot through an alias we can't see — the conservative
aliasing rule).

The inter-procedural variant the paper describes (canonical remote
checked loads) is modelled by the *recursion guard*: when a function is
optimized inter-procedurally, ``hq_stlf_guard_enter``/``exit`` runtime
calls bracket its body, and a re-entry while the guard is set
terminates the program (the static analysis assumed no mutual
recursion; section 4.1.4 notes no guard fails across all benchmarks).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.compiler import ir
from repro.compiler.analysis import EscapeAnalysis, alloca_root
from repro.compiler.cfg import DominatorTree
from repro.compiler.dataflow import may_clobber_memory, slot_key
from repro.compiler.passes.base import ModulePass

#: Back-compat aliases: the slot model and aliasing rule moved to
#: :mod:`repro.compiler.dataflow` so the elision pass and the lint
#: auditor share one definition with this pass.
_slot_key = slot_key
_clobbers = may_clobber_memory


class StoreToLoadForwardingPass(ModulePass):
    """Remove checks on loads forwardable from a dominating def."""

    name = "stlf"

    def __init__(self, interprocedural: bool = False) -> None:
        super().__init__()
        self.interprocedural = interprocedural

    def run(self, module: ir.Module) -> None:
        for function in module.functions.values():
            if function.is_declaration or function.returns_twice:
                continue
            self._run_on_function(function)

    def _run_on_function(self, function: ir.Function) -> None:
        escape = EscapeAnalysis(function)
        dom = DominatorTree(function)

        # Collect candidate defs: stores to forwardable slots, keyed by
        # slot, with their position.
        defs: Dict[Tuple, List[ir.Store]] = {}
        for block in function.blocks:
            for instruction in block.instructions:
                if isinstance(instruction, ir.Store) and not instruction.volatile \
                        and not instruction.atomic:
                    key = _slot_key(instruction.pointer)
                    if key is None:
                        continue
                    root = alloca_root(instruction.pointer)
                    if root is not None and escape.may_escape(root):
                        continue
                    defs.setdefault(key, []).append(instruction)

        # For each checked load, try to forward from a dominating store.
        for block in list(function.blocks):
            for instruction in list(block.instructions):
                if not (isinstance(instruction, ir.RuntimeCall)
                        and instruction.runtime_name == "hq_pointer_check"):
                    continue
                load = instruction.meta.get("checked_load")
                if not isinstance(load, ir.Load) or load.volatile or load.atomic:
                    continue
                key = _slot_key(load.pointer)
                if key is None or key not in defs:
                    continue
                if any(self._forwardable(dom, function, store, load)
                       for store in defs[key]):
                    block.remove(instruction)
                    self.bump("checks-forwarded")

    def _forwardable(self, dom: DominatorTree, function: ir.Function,
                     store: ir.Store, load: ir.Load) -> bool:
        """Store dominates load with no possible clobber in between."""
        sblock, lblock = store.block, load.block
        if sblock is None or lblock is None:
            return False
        if not dom.dominates(sblock, lblock):
            return False
        if sblock is lblock:
            instructions = sblock.instructions
            si, li = instructions.index(store), instructions.index(load)
            if si > li:
                return False
            return not any(_clobbers(i) for i in instructions[si + 1:li])
        # Cross-block: no clobbers after the store in its block, in the
        # load's block before the load, nor in any block on a path in
        # between (conservatively: any block dominated by the store's
        # block that reaches the load's block).
        tail = sblock.instructions[sblock.instructions.index(store) + 1:]
        head = lblock.instructions[:lblock.instructions.index(load)]
        if any(_clobbers(i) for i in tail + head):
            return False
        for block in function.blocks:
            if block in (sblock, lblock):
                continue
            if dom.dominates(sblock, block) and self._reaches(block, lblock):
                if any(_clobbers(i) for i in block.instructions):
                    return False
        return True

    def _reaches(self, source: ir.BasicBlock, target: ir.BasicBlock) -> bool:
        seen = set()
        worklist = [source]
        while worklist:
            block = worklist.pop()
            if block is target:
                return True
            if id(block) in seen:
                continue
            seen.add(id(block))
            worklist.extend(block.successors)
        return False
