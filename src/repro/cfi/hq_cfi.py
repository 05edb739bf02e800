"""HQ-CFI: the paper's fine-grained pointer-integrity policy.

Verifier-side interpretation of the ``POINTER_*`` messages (sections
4.1.3/4.1.5).  Unlike equivalence-class CFI, pointer integrity is
maximally precise: a check passes only if the loaded value equals the
most recent definition for that exact address — so any corruption of a
control-flow pointer, and any use after its invalidation (use-after-
free), is a violation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.messages import Op
from repro.core.policy import Handler, Policy, Violation
from repro.cfi.pointer_table import PointerTable

_UAF_ERROR = "use of undefined or invalidated pointer (use-after-free?)"


class HQCFIPolicy(Policy):
    """Pointer-integrity policy context for one monitored process."""

    name = "hq-cfi"

    def __init__(self) -> None:
        self.table = PointerTable()
        self.checks = 0
        self.defines = 0
        self.use_after_free_hits = 0
        self._handlers: Optional[Dict[int, Handler]] = None

    def handlers(self) -> Dict[int, Handler]:
        """Per-op dispatch table with inlined define/check fast paths.

        Define and check dominate instrumented traffic (one define per
        pointer store, one check per indirect transfer), so those two
        skip the :class:`PointerTable` method-call layer and probe its
        entry dict directly.  Built lazily per instance: the closures
        bind this context's live table, so clone children build their
        own.
        """
        if self._handlers is not None:
            return self._handlers
        table = self.table
        entries = table._entries

        def define(arg0: int, arg1: int, aux: int) -> None:
            self.defines += 1
            entries[arg0] = arg1

        def check(arg0: int, arg1: int, aux: int) -> Optional[Violation]:
            self.checks += 1
            recorded = entries.get(arg0)
            if recorded == arg1 and recorded is not None:
                return None
            if recorded is None:
                self.use_after_free_hits += 1
                return Violation(0, "cfi-pointer-integrity", _UAF_ERROR)
            return Violation(0, "cfi-pointer-integrity",
                             f"pointer value mismatch: recorded "
                             f"{recorded:#x}, loaded {arg1:#x}")

        def check_invalidate(arg0: int, arg1: int,
                             aux: int) -> Optional[Violation]:
            violation = check(arg0, arg1, aux)
            if violation is None:
                del entries[arg0]
            return violation

        def invalidate(arg0: int, arg1: int, aux: int) -> None:
            entries.pop(arg0, None)

        def block_copy(arg0: int, arg1: int, aux: int) -> None:
            table.block_copy(arg0, arg1, aux)

        def block_move(arg0: int, arg1: int, aux: int) -> None:
            table.block_move(arg0, arg1, aux)

        def block_invalidate(arg0: int, arg1: int, aux: int) -> None:
            table.block_invalidate(arg0, aux)

        self._handlers = {
            int(Op.POINTER_DEFINE): define,
            int(Op.POINTER_CHECK): check,
            int(Op.POINTER_CHECK_INVALIDATE): check_invalidate,
            int(Op.POINTER_INVALIDATE): invalidate,
            int(Op.POINTER_BLOCK_COPY): block_copy,
            int(Op.POINTER_BLOCK_MOVE): block_move,
            int(Op.POINTER_BLOCK_INVALIDATE): block_invalidate,
        }
        return self._handlers

    def clone(self) -> "HQCFIPolicy":
        child = HQCFIPolicy()
        child.table = self.table.copy()
        return child

    def entry_count(self) -> int:
        return len(self.table)

    def entries_ref(self):
        return self.table._entries
