"""ARM-style pointer authentication (paper section 6.2, discussion).

Apple's pointer-authentication-based CFI [75] signs pointers with a
cryptographic MAC like CCFI — but "to maximize compatibility, it omits
the address of control-flow pointers from hash computations, which
allows replay attacks.  As a workaround, it supports a separate
*discriminator* nonce; however, it uses a constant zero discriminator
for function pointers and C++ virtual table pointers."

This module implements that design so its weakness is demonstrable
next to CCFI's address-bound MACs: :class:`PointerAuthRuntime` verifies
(value, discriminator) only, so an attacker who can read one signed
pointer can *replay* it into any other slot of the same discriminator —
``tests/test_pointer_auth.py`` executes exactly that attack.  It also
cannot detect use-after-free ("due to the difficulty of hash
revocation").

The design is registered as ``arm-pa`` in the design catalogue as an
extension (it is discussed, not evaluated, in the paper).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.compiler import ir
from repro.compiler.analysis import DefUseIndex, load_needs_check, store_defines_function_pointer
from repro.compiler.passes.base import ModulePass
from repro.sim.cpu import PolicyViolationError, Runtime

#: PAC computation: one QARMA-like block-cipher invocation.
PAC_CYCLES = 8.0

#: The constant discriminator Apple uses for function pointers and C++
#: vtable pointers (the compatibility concession the paper criticizes).
ZERO_DISCRIMINATOR = 0


class PointerAuthPass(ModulePass):
    """Sign pointers at stores, authenticate at loads.

    Mirrors :class:`repro.cfi.ccfi.CCFIPass`'s insertion points, but the
    runtime entry points carry a *discriminator* instead of a type id —
    and for function pointers it is always zero.
    """

    name = "arm-pa"

    def run(self, module: ir.Module) -> None:
        for function in module.functions.values():
            if function.is_declaration:
                continue
            uses = DefUseIndex(function)
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.Store) and \
                            store_defines_function_pointer(uses, instruction):
                        block.insert_after(instruction, ir.RuntimeCall(
                            "pa_sign",
                            [instruction.pointer, instruction.value,
                             ir.Constant(ZERO_DISCRIMINATOR)]))
                        self.bump("signs")
                    elif isinstance(instruction, ir.Load) and \
                            load_needs_check(uses, instruction):
                        block.insert_after(instruction, ir.RuntimeCall(
                            "pa_auth",
                            [instruction.pointer, instruction,
                             ir.Constant(ZERO_DISCRIMINATOR)]))
                        self.bump("auths")


class PointerAuthRuntime(Runtime):
    """PAC signatures keyed on (value, discriminator) — **not** address.

    The signature travels conceptually in the pointer's unused high
    bits; we model the signed-pointer set as the collection of
    (value, discriminator) pairs ever signed.  Because the slot address
    is not bound, a valid signed pointer authenticated anywhere passes —
    the replay weakness.
    """

    name = "arm-pa"

    def __init__(self, key: int = 0x517CC1B7,
                 abort_on_violation: bool = True) -> None:
        self._key = key
        self._signed: Dict[Tuple[int, int], int] = {}
        self.abort_on_violation = abort_on_violation
        self.violations = 0

    def _pac(self, value: int, discriminator: int) -> int:
        digest = hashlib.sha256(
            f"{self._key}:{value}:{discriminator}".encode()).hexdigest()
        return int(digest[:8], 16)

    def on_program_start(self, image) -> None:
        """Init arrays sign relocated global code pointers."""
        for _, value in image.initialized_code_pointers().items():
            self._signed[(value, ZERO_DISCRIMINATOR)] = \
                self._pac(value, ZERO_DISCRIMINATOR)

    def call(self, name: str, args: List[int]) -> int:
        process = self.interpreter.process
        process.cycles.charge_user(PAC_CYCLES, category="pac")
        if name == "pa_sign":
            _, value, discriminator = args
            self._signed[(value, discriminator)] = \
                self._pac(value, discriminator)
            return 0
        if name == "pa_auth":
            _, value, discriminator = args
            expected = self._signed.get((value, discriminator))
            if expected is None or \
                    expected != self._pac(value, discriminator):
                self.violations += 1
                if self.abort_on_violation:
                    raise PolicyViolationError(
                        "arm-pa",
                        f"authentication failed for value {value:#x}")
            return 0
        raise KeyError(f"unknown pointer-auth runtime entry {name!r}")
