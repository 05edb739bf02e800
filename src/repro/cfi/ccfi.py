"""CCFI baseline: Cryptographically-Enforced CFI [74].

Every control-flow pointer store computes a message authentication code
(one AES round keyed by a secret held in reserved XMM registers) over
the pointer's *address*, *value*, and *static type*; every load
recomputes and compares.  An attacker who overwrites a pointer cannot
forge its MAC without the key, so all RIPE corruptions are caught
(Table 5: zero successful exploits).  The design costs dearly, though:

* **performance** — a MAC on every pointer store and load (~49%
  relative performance in Figure 5), modelled by :data:`MAC_CYCLES`
  charged per operation;
* **false positives** — the MAC binds the *static type*, so legal type
  casts/decay change the type id between store and check and the MAC
  mismatches (29 of 48 benchmarks, Table 4);
* **compatibility** — eleven XMM registers are reserved for the key,
  breaking the platform calling convention.  Functions passing more
  than :data:`MAX_FLOAT_ARGS` floating-point arguments cannot be
  compiled (modelled as a :class:`CompilationError`), and register
  pressure forces x87 usage whose reduced precision corrupts numeric
  output (``ExecOptions.fp_precision_loss``);
* **no use-after-free detection** — MACs are never revoked, so a stale
  (address, value, type) triple still verifies after ``free``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.compiler import ir
from repro.compiler.analysis import DefUseIndex, load_needs_check, store_defines_function_pointer
from repro.compiler.passes.base import ModulePass
from repro.sim.cpu import PolicyViolationError, Runtime

#: AES-round MAC plus spill traffic from the reserved registers.
MAC_CYCLES = 95.0
#: XMM registers left for the ABI after CCFI reserves eleven.
MAX_FLOAT_ARGS = 4


class CompilationError(Exception):
    """The instrumentation pass could not compile the program."""


def _type_id(t) -> int:
    """Stable small integer for a static type."""
    return int(hashlib.sha256(repr(t).encode()).hexdigest()[:8], 16)


class CCFIPass(ModulePass):
    """Insert MAC computation/verification around pointer accesses."""

    name = "ccfi"

    def run(self, module: ir.Module) -> None:
        self._check_abi(module)
        from repro.compiler.analysis import needs_return_pointer_protection
        for function in module.functions.values():
            if function.is_declaration:
                continue
            if needs_return_pointer_protection(function):
                # CCFI MACs return addresses too, with a per-frame nonce
                # against replay [74]; define in prologue, verify in the
                # epilogue before the return uses the slot.
                entry = function.entry
                index = 0
                while index < len(entry.instructions) and \
                        isinstance(entry.instructions[index], ir.Phi):
                    index += 1
                entry.insert(index, ir.RuntimeCall("ccfi_ret_define", []))
                for block in function.blocks:
                    terminator = block.terminator
                    if isinstance(terminator, ir.Ret):
                        block.insert_before(terminator, ir.RuntimeCall(
                            "ccfi_ret_check", []))
                self.bump("ret-macs")
            uses = DefUseIndex(function)
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.Store) and \
                            store_defines_function_pointer(uses, instruction):
                        pointee = instruction.value.type
                        block.insert_after(instruction, ir.RuntimeCall(
                            "ccfi_mac_store",
                            [instruction.pointer, instruction.value,
                             ir.Constant(_type_id(pointee))]))
                        self.bump("mac-stores")
                    # A decayed load's MAC binds its *static* type: the
                    # source of CCFI's type-mismatch FPs.
                    elif isinstance(instruction, ir.Load) and \
                            load_needs_check(uses, instruction):
                        block.insert_after(instruction, ir.RuntimeCall(
                            "ccfi_mac_check",
                            [instruction.pointer, instruction,
                             ir.Constant(_type_id(instruction.type))]))
                        self.bump("mac-checks")

    def _check_abi(self, module: ir.Module) -> None:
        """Reject programs needing more XMM argument registers than the
        reserved-key scheme leaves available."""
        from repro.compiler.types import FloatType
        for function in module.functions.values():
            float_args = sum(1 for t in function.signature.params
                             if isinstance(t, FloatType))
            if float_args > MAX_FLOAT_ARGS:
                raise CompilationError(
                    f"CCFI: function {function.name} passes {float_args} "
                    f"floating-point arguments but only {MAX_FLOAT_ARGS} "
                    f"XMM registers remain after key reservation")


class CCFIRuntime(Runtime):
    """Keyed-MAC shadow table.

    The table models the in-memory adjacent MAC slots: the attacker can
    overwrite pointers but cannot compute a matching MAC without the
    XMM-resident key, and we model the key as unreachable (the threat
    model excludes register access).
    """

    name = "ccfi"

    def __init__(self, key: int = 0x5F3759DF,
                 abort_on_violation: bool = True) -> None:
        self._key = key
        self._macs: Dict[int, int] = {}
        self.abort_on_violation = abort_on_violation
        self.violations = 0

    def on_program_start(self, image) -> None:
        """Global constructors MAC the relocated code pointers in
        writable globals (matching the instrumented init arrays).

        Array-typed globals MAC each element with the *element* type —
        the type later loads of individual slots carry."""
        from repro.compiler import ir as _ir
        from repro.compiler.types import ArrayType
        from repro.sim.memory import WORD_SIZE
        for variable in image.module.globals.values():
            if variable.const or variable.initializer is None:
                continue
            value_type = variable.value_type
            slot_type = (value_type.element
                         if isinstance(value_type, ArrayType)
                         else value_type)
            for i, value in enumerate(variable.initializer):
                if isinstance(value, _ir.FunctionRef):
                    slot = (variable.address or 0) + i * WORD_SIZE
                    addr = image.function_address[value.function.name]
                    self._macs[slot] = self._mac(
                        slot, addr, _type_id(slot_type))

    def _violate(self, detail: str) -> int:
        self.violations += 1
        if self.abort_on_violation:
            raise PolicyViolationError("ccfi", detail)
        return 0

    def _mac(self, address: int, value: int, type_id: int) -> int:
        digest = hashlib.sha256(
            f"{self._key}:{address}:{value}:{type_id}".encode()).hexdigest()
        return int(digest[:16], 16)

    def call(self, name: str, args: List[int]) -> int:
        process = self.interpreter.process
        process.cycles.charge_user(MAC_CYCLES, category="mac")
        if name in ("ccfi_ret_define", "ccfi_ret_check"):
            return self._ret_mac(name)
        address, value, type_id = args[0], args[1], args[2]
        if name == "ccfi_mac_store":
            self._macs[address] = self._mac(address, value, type_id)
            return 0
        if name == "ccfi_mac_check":
            expected = self._macs.get(address)
            actual = self._mac(address, value, type_id)
            if expected is None or expected != actual:
                return self._violate(
                    f"MAC mismatch for pointer at {address:#x}")
            return 0
        raise KeyError(f"unknown CCFI runtime entry {name!r}")

    #: Type-id slot for return-address MACs (distinct from data types).
    _RET_TYPE = 0x52455430  # "RET0"

    def _ret_mac(self, name: str) -> int:
        """MAC the current frame's return-address slot."""
        interpreter = self.interpreter
        if not interpreter.call_stack:
            return 0
        slot, _ = interpreter.call_stack[-1]
        value = interpreter.process.memory.load(slot)
        if name == "ccfi_ret_define":
            self._macs[slot] = self._mac(slot, value, self._RET_TYPE)
            return 0
        expected = self._macs.get(slot)
        if expected is None or expected != self._mac(slot, value, self._RET_TYPE):
            return self._violate(f"return-address MAC mismatch at {slot:#x}")
        return 0
