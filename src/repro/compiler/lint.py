"""CFI instrumentation auditor: statically re-prove pass completeness.

HQ-CFI's security argument rests on instrumentation *completeness*
(sections 4.1.4-4.1.6): every function-pointer definition must emit a
``Pointer-Define``, every indirect call must be guarded by a check on
all paths, and every system call must be preceded by a correctly placed
``hq_syscall`` synchronization message.  The passes are trusted to
establish these properties; this module verifies them *independently*
over the final IR, using the dominator machinery of
:mod:`repro.compiler.cfg` and the dataflow engine of
:mod:`repro.compiler.dataflow` — so a miscompiling pass is caught by a
named, located diagnostic instead of by a runtime attack that happens
to slip through.

Rules
-----

``icall-unguarded`` (error)
    An indirect call's target can originate from a checked-load slot
    whose ``Pointer-Check`` neither exists nor dominates the call, and
    the elision of the check is not re-provable: the auditor accepts a
    missing check only when *every* definition reaching the load is a
    visible store (the :class:`~repro.compiler.dataflow.ReachingStores`
    re-proof of store-to-load forwarding's soundness claim).

``icall-target-opaque`` (warning)
    The target traces to a value the auditor cannot reason about
    locally (a function argument, arithmetic, a heap load through an
    untracked pointer).

``fnptr-define-missing`` (error)
    A store of a (possibly laundered) function pointer is not followed
    by a ``Pointer-Define`` of the same slot before the stale window
    becomes observable (a check of the slot, a call, a block memory
    operation, or the block end) — unless the slot is re-provably a
    never-checked, non-escaping stack slot, which is exactly
    ``MessageElisionPass``'s rule-1 soundness condition.

``syscall-sync-missing`` (error)
    A system call has no ``hq_syscall`` message that dominates it, is
    post-dominated by it, and has no intervening message-producing
    barrier — the three placement conditions of
    :class:`~repro.compiler.passes.syscall_sync.SyscallSyncPass`.

``syscall-sync-orphaned`` (warning)
    An ``hq_syscall`` message not consumed by any system call (it would
    pause the process at the next syscall with no syscall following).

Besides the findings, the auditor reports per-module *coverage
metrics* (instrumented vs. total indirect-call sites, defined vs.
total function-pointer stores, synced vs. total system calls, and the
address-taken-function count) in the style of Burow et al.'s static
CFI precision/coverage comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler import ir
from repro.compiler.analysis import (
    DefUseIndex,
    EscapeAnalysis,
    address_taken_functions,
    store_defines_function_pointer,
)
from repro.compiler.cfg import DominatorTree, PostDominatorTree
from repro.compiler.dataflow import (
    DataflowResult,
    ReachingStores,
    slot_key,
    solve,
)
from repro.compiler.diagnostics import (
    Diagnostic,
    ERROR,
    WARNING,
    sort_diagnostics,
)

#: Messaging entry points the auditor recognizes (kept in sync with the
#: instrumentation passes; the tests assert the correspondence).
DEFINE = "hq_pointer_define"
CHECK_NAMES = ("hq_pointer_check", "hq_pointer_check_invalidate")
SYNC = "hq_syscall"

#: Instructions that enqueue messages (or may, via callees): nothing of
#: this kind may sit between a sync message and its system call, and
#: any of them ends a define's permissible stale window.
_MESSAGE_BARRIERS = (ir.Call, ir.ICall, ir.RuntimeCall, ir.Syscall,
                     ir.Setjmp, ir.Longjmp)

#: Instructions after which a stale (define-less) store becomes
#: observable by the verifier — mirrors ``MessageElisionPass``'s reset
#: set, which is what makes elided intermediate defines re-provable.
_OBSERVATION_POINTS = (ir.Call, ir.ICall, ir.Syscall, ir.MemCopy, ir.MemSet)


@dataclass
class AuditResult:
    """Findings plus coverage metrics for one module."""

    module: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    coverage: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error()]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]


class _FunctionAuditor:
    """Audits one function; shares per-function analyses across rules."""

    def __init__(self, function: ir.Function) -> None:
        self.function = function
        self.dom = DominatorTree(function)
        self.pdom = PostDominatorTree(function)
        self.uses = DefUseIndex(function)
        self.escape = EscapeAnalysis(function, self.uses)
        self._positions: Dict[int, int] = {}
        for block in function.blocks:
            for index, instruction in enumerate(block.instructions):
                self._positions[id(instruction)] = index
        self._reaching: Optional[Tuple[ReachingStores, DataflowResult]] = None
        # Map each checked load to its guarding check calls.
        self.checks_by_load: Dict[int, List[ir.RuntimeCall]] = {}
        self.checked_slots: Set[Tuple] = set()
        for instruction in function.instructions():
            if isinstance(instruction, ir.RuntimeCall) \
                    and instruction.runtime_name in CHECK_NAMES:
                if instruction.args:
                    key = slot_key(instruction.args[0])
                    if key is not None:
                        self.checked_slots.add(key)
                load = instruction.meta.get("checked_load")
                if load is None and len(instruction.args) > 1:
                    load = instruction.args[1]
                if isinstance(load, ir.Load):
                    self.checks_by_load.setdefault(
                        id(load), []).append(instruction)

    # -- shared helpers -------------------------------------------------------

    def reaching_stores(self) -> Tuple[ReachingStores, DataflowResult]:
        if self._reaching is None:
            problem = ReachingStores(self.function)
            self._reaching = (problem, solve(self.function, problem))
        return self._reaching

    def _dominates_point(self, instruction: ir.Instruction,
                         use_block: ir.BasicBlock, use_index: int) -> bool:
        """Does ``instruction`` execute before (block, index) on all paths?"""
        block = instruction.block
        if block is None:
            return False
        if block is use_block:
            return self._positions[id(instruction)] < use_index
        return self.dom.dominates(block, use_block)

    # -- rule: icall guarding -------------------------------------------------

    def audit_icalls(self, diagnostics: List[Diagnostic],
                     counts: Dict[str, int]) -> None:
        for block in self.function.blocks:
            for index, instruction in enumerate(block.instructions):
                if not isinstance(instruction, ir.ICall):
                    continue
                counts["total"] += 1
                statuses = self._classify_target(
                    instruction.target, block, index, set())
                if "unguarded" in statuses:
                    counts["unguarded"] += 1
                    diagnostics.append(Diagnostic.at(
                        ERROR, "icall-unguarded", instruction,
                        "indirect call target can originate from an "
                        "unchecked load with no re-provable forwarding; "
                        "a corrupted pointer would be called without a "
                        "Pointer-Check",
                        target=getattr(instruction.target, "name", "?")))
                elif "opaque" in statuses:
                    counts["opaque"] += 1
                    diagnostics.append(Diagnostic.at(
                        WARNING, "icall-target-opaque", instruction,
                        "indirect call target is not locally analyzable "
                        "(argument or computed value); cannot audit its "
                        "check coverage",
                        target=getattr(instruction.target, "name", "?")))
                elif "checked" in statuses:
                    counts["checked"] += 1
                elif "forwarded" in statuses:
                    counts["forwarded"] += 1
                else:
                    counts["static"] += 1

    def _classify_target(self, value: ir.Value, use_block: ir.BasicBlock,
                         use_index: int, seen: Set[int]) -> Set[str]:
        """Statuses of every terminal source feeding an icall target."""
        if id(value) in seen:
            return set()
        seen.add(id(value))
        if isinstance(value, (ir.FunctionRef, ir.Constant)):
            return {"static"}
        if isinstance(value, ir.Cast):
            return self._classify_target(value.value, use_block, use_index,
                                         seen)
        if isinstance(value, ir.Select):
            return (self._classify_target(value.if_true, use_block,
                                          use_index, seen)
                    | self._classify_target(value.if_false, use_block,
                                            use_index, seen))
        if isinstance(value, ir.Phi):
            statuses: Set[str] = set()
            for incoming, pred in value.incoming:
                # The incoming value must be guarded at the matching
                # predecessor's exit — a check in one arm of a diamond
                # guards that arm's value even though it dominates
                # neither the join nor the other arm.
                statuses |= self._classify_target(
                    incoming, pred, len(pred.instructions), seen)
            return statuses
        if isinstance(value, ir.Load):
            for check in self.checks_by_load.get(id(value), []):
                if self._dominates_point(check, use_block, use_index):
                    return {"checked"}
            problem, result = self.reaching_stores()
            if problem.provably_stored(result, value):
                return {"forwarded"}
            return {"unguarded"}
        return {"opaque"}

    # -- rule: define completeness --------------------------------------------

    def audit_defines(self, diagnostics: List[Diagnostic],
                      counts: Dict[str, int]) -> None:
        for block in self.function.blocks:
            for index, instruction in enumerate(block.instructions):
                if not isinstance(instruction, ir.Store):
                    continue
                if not store_defines_function_pointer(self.uses, instruction):
                    continue
                counts["total"] += 1
                status = self._define_status(block, index, instruction)
                counts[status] += 1
                if status == "undefined":
                    key = slot_key(instruction.pointer)
                    diagnostics.append(Diagnostic.at(
                        ERROR, "fnptr-define-missing", instruction,
                        "function-pointer store has no Pointer-Define "
                        "before its value becomes observable, and the "
                        "slot is not a re-provably never-checked, "
                        "non-escaping stack slot",
                        slot=repr(key)))

    def _define_status(self, block: ir.BasicBlock, index: int,
                       store: ir.Store) -> str:
        key = slot_key(store.pointer)
        for later in block.instructions[index + 1:]:
            if isinstance(later, ir.RuntimeCall):
                if later.runtime_name == DEFINE and later.args:
                    if later.args[0] is store.pointer or (
                            key is not None
                            and slot_key(later.args[0]) == key):
                        return "defined"
                elif later.runtime_name in CHECK_NAMES and later.args \
                        and key is not None \
                        and slot_key(later.args[0]) == key:
                    break  # a check can observe the stale value
                continue  # other messages cannot observe this slot
            if isinstance(later, _OBSERVATION_POINTS):
                break
        # No define before an observation point: sound only under the
        # elision pass's rule-1 conditions, re-proved here.
        if key is not None and key not in self.checked_slots:
            root = store.pointer
            while isinstance(root, (ir.Gep, ir.Cast)):
                root = root.pointer if isinstance(root, ir.Gep) \
                    else root.value
            if isinstance(root, ir.Alloca) \
                    and not self.escape.may_escape(root):
                return "elided-sound"
        return "undefined"

    # -- rule: syscall synchronization ----------------------------------------

    def audit_syscalls(self, diagnostics: List[Diagnostic],
                       counts: Dict[str, int]) -> None:
        consumed: Set[int] = set()
        for block in self.function.blocks:
            for instruction in block.instructions:
                if not isinstance(instruction, ir.Syscall):
                    continue
                counts["total"] += 1
                sync = self._find_sync(instruction, consumed)
                if sync is None:
                    counts["unsynced"] += 1
                    diagnostics.append(Diagnostic.at(
                        ERROR, "syscall-sync-missing", instruction,
                        f"system call {instruction.number} has no "
                        "dominating, post-dominated hq_syscall message "
                        "with a barrier-free path to the call",
                        number=instruction.number))
                else:
                    counts["synced"] += 1
                    consumed.add(id(sync))
        for instruction in self.function.instructions():
            if isinstance(instruction, ir.RuntimeCall) \
                    and instruction.runtime_name == SYNC \
                    and id(instruction) not in consumed:
                diagnostics.append(Diagnostic.at(
                    WARNING, "syscall-sync-orphaned", instruction,
                    "hq_syscall message is not consumed by any system "
                    "call on the paths it dominates"))

    def _find_sync(self, syscall: ir.Syscall,
                   consumed: Set[int]) -> Optional[ir.RuntimeCall]:
        """Walk backward from ``syscall`` over barrier-free, dominating,
        post-dominated program points — the pass's placement region —
        looking for the matching sync message."""
        block = syscall.block
        assert block is not None
        limit = self._positions[id(syscall)]
        while True:
            for instruction in reversed(block.instructions[:limit]):
                if isinstance(instruction, ir.RuntimeCall) \
                        and instruction.runtime_name == SYNC \
                        and id(instruction) not in consumed:
                    args = instruction.args
                    if args and isinstance(args[0], ir.Constant) \
                            and args[0].value != syscall.number:
                        return None  # a different syscall's message
                    return instruction
                if isinstance(instruction, _MESSAGE_BARRIERS) \
                        or isinstance(instruction, ir.Phi):
                    return None
            # Block head: continue into the immediate dominator if the
            # edge is an unconditional fall-through the syscall's block
            # post-dominates (the region the pass may hoist into).
            idom = self.dom.idom.get(block)
            if idom is None or idom is block:
                return None
            if idom.successors != [block]:
                return None
            if not self.pdom.post_dominates(block, idom):
                return None
            block, limit = idom, len(idom.instructions)


def audit_function(function: ir.Function) -> AuditResult:
    """Audit a single function (useful in tests); see :func:`audit_module`."""
    result = AuditResult(module=function.module.name)
    _audit_into(function, result)
    result.diagnostics = sort_diagnostics(result.diagnostics)
    return result


def _new_counts() -> Dict[str, Dict[str, int]]:
    return {
        "indirect-calls": {"total": 0, "checked": 0, "forwarded": 0,
                           "static": 0, "unguarded": 0, "opaque": 0},
        "fnptr-stores": {"total": 0, "defined": 0, "elided-sound": 0,
                         "undefined": 0},
        "syscalls": {"total": 0, "synced": 0, "unsynced": 0},
    }


def _audit_into(function: ir.Function, result: AuditResult) -> None:
    if not result.coverage:
        result.coverage = _new_counts()
    auditor = _FunctionAuditor(function)
    auditor.audit_icalls(result.diagnostics,
                         result.coverage["indirect-calls"])
    auditor.audit_defines(result.diagnostics,
                          result.coverage["fnptr-stores"])
    auditor.audit_syscalls(result.diagnostics, result.coverage["syscalls"])


def audit_module(module: ir.Module) -> AuditResult:
    """Run every audit rule over every defined function of ``module``."""
    result = AuditResult(module=module.name, coverage=_new_counts())
    for function in module.functions.values():
        if function.is_declaration:
            continue
        _audit_into(function, result)
    result.coverage["functions"] = {
        "total": len(module.functions),
        "defined": sum(1 for f in module.functions.values()
                       if not f.is_declaration),
        "address-taken": len(address_taken_functions(module)),
    }
    result.diagnostics = sort_diagnostics(result.diagnostics)
    return result
