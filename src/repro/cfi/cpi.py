"""CPI baseline: Code-Pointer Integrity [62, 63].

CPI *relocates* control-flow pointers into an in-process *safe store*
(and return addresses onto a safe stack): indirect calls load their
target from the safe store, so corrupting the original memory slot is
harmless.  The safe region is protected by information hiding — a
hidden address in a huge sparsely-mapped region — which disclosure
attacks defeat (Table 5: 10 successful exploits per overflow origin).

The paper found the released prototype "fails to redirect all loads and
stores of each control-flow pointer to the safe store, causing infinite
loops and crashing upon execution of NULL pointers" (section 5.1).
That emerges mechanically here: the pass cannot redirect stores through
pointers it cannot track (dynamically-indexed or explicitly ``aliased``
paths), so a later safe-store load misses and yields 0 — an indirect
call to NULL.  ``fixed_bugs=False`` additionally reproduces the bugs
the authors had to fix (no safe-store update after ``realloc``/
``free``, unguarded safe-store accesses).

Use-after-free is *not* detected: the safe store never revokes entries.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler import ir
from repro.compiler.analysis import DefUseIndex, store_defines_function_pointer
from repro.compiler.passes.base import ModulePass
from repro.compiler.types import I64, is_function_pointer
from repro.sim.cpu import Runtime

#: Safe-store access: address translation into the hidden region plus a
#: load/store that typically misses cache (the 4 TB sparse region).
ACCESS_CYCLES = 8.0


def _trackable(pointer: ir.Value) -> bool:
    """Whether CPI's pointer analysis can redirect accesses via
    ``pointer`` to the safe store.  Dynamic indexing and values marked
    ``aliased`` by the front-end (standing in for may-alias results the
    prototype mishandles) are not trackable."""
    if pointer.meta.get("aliased") if isinstance(pointer, ir.Instruction) else False:
        return False
    if isinstance(pointer, ir.Gep) and pointer.index is not None \
            and not isinstance(pointer.index, ir.Constant):
        return False
    return True


class CPIPass(ModulePass):
    """Redirect function-pointer accesses to the safe store."""

    name = "cpi"

    def run(self, module: ir.Module) -> None:
        for function in module.functions.values():
            if function.is_declaration:
                continue
            uses = DefUseIndex(function)
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.Store) and \
                            store_defines_function_pointer(uses, instruction):
                        if not _trackable(instruction.pointer):
                            # The missed-redirect bug: this store never
                            # reaches the safe store.
                            self.bump("stores-missed")
                            continue
                        block.insert_after(instruction, ir.RuntimeCall(
                            "cpi_store",
                            [instruction.pointer, instruction.value]))
                        self.bump("stores-redirected")
                    elif isinstance(instruction, ir.Load) and \
                            is_function_pointer(instruction.type):
                        safe_load = ir.RuntimeCall(
                            "cpi_load", [instruction.pointer], I64,
                            name=f"{instruction.name}.safe")
                        block.insert_after(instruction, safe_load)
                        # Point indirect-call targets at the safe-store value.
                        for user in uses.users(instruction):
                            if isinstance(user, ir.ICall) and user.target is instruction:
                                uses.remove(user)
                                user.target = safe_load
                                uses.add(user)
                        self.bump("loads-redirected")
            # realloc/free must move/drop safe-store entries; the fixed
            # version hooks them (the released prototype did not).
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.Realloc):
                        block.insert_after(instruction, ir.RuntimeCall(
                            "cpi_realloc_hook",
                            [instruction.pointer, instruction,
                             instruction.size]))
                    elif isinstance(instruction, ir.Free):
                        block.insert_before(instruction, ir.RuntimeCall(
                            "cpi_free_hook", [instruction.pointer]))


class CPIRuntime(Runtime):
    """The safe store / safe stack runtime.

    ``fixed_bugs`` selects between the prototype as released (False)
    and the version with the paper's correctness fixes applied (True,
    the configuration evaluated in section 5).
    """

    name = "cpi"

    def __init__(self, fixed_bugs: bool = True) -> None:
        self.fixed_bugs = fixed_bugs
        self._safe_store: Dict[int, int] = {}
        self.violations = 0
        #: Exposed for the disclosure-attack model: the hidden region's
        #: runtime handle.  Real attackers obtain it by leaking a
        #: pointer into the region.
        self.disclosed_handle = self._safe_store

    def call(self, name: str, args: List[int]) -> int:
        process = self.interpreter.process
        process.cycles.charge_user(ACCESS_CYCLES, category="safe-store")
        if name == "cpi_store":
            self._safe_store[args[0]] = args[1]
            return 0
        if name == "cpi_load":
            value = self._safe_store.get(args[0])
            if value is None:
                # Missed redirect: the prototype returns a NULL entry,
                # and the subsequent indirect call crashes (section 5.1).
                return 0
            return value
        if name == "cpi_realloc_hook":
            old, new, size = args[0], args[1], args[2]
            if self.fixed_bugs and old != new:
                moved = {a: v for a, v in self._safe_store.items()
                         if old <= a < old + size}
                for address, value in moved.items():
                    del self._safe_store[address]
                    self._safe_store[new + (address - old)] = value
            return 0
        if name == "cpi_free_hook":
            # CPI never revokes safe-store entries on free: stale values
            # persist, which is precisely why it cannot detect
            # use-after-free on control-flow pointers (Table 3) — a
            # stale pointer keeps "working" through the safe store.
            return 0
        raise KeyError(f"unknown CPI runtime entry {name!r}")

    def on_program_start(self, image) -> None:
        """Startup redirection: relocated code pointers in writable
        globals enter the safe store (CPI instruments init arrays)."""
        for slot, value in image.initialized_code_pointers().items():
            self._safe_store[slot] = value

    def entry_count(self) -> int:
        return len(self._safe_store)
