"""Reference models of the six policies and of the verifier loop.

Each ``*Reference`` class is its production policy with the
per-message ``handle`` the policy carried before its dispatch table
became its only definition: an independent, message-at-a-time
statement of the same checks over the same state.  :func:`reference_run`
is the matching message-at-a-time verifier loop.  The differential
tests drive the production dispatch routes and compare their verdicts,
stats and tokens against these models.
"""

from typing import List, Optional, Sequence, Tuple

from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core.messages import Message, Op, OP_BY_VALUE
from repro.core.policy import Policy, PolicyStats, Violation
from repro.policies.call_counter import EVENT_CALL, CallCounterPolicy
from repro.policies.dfi import (DEF_INITIAL, DFI_BLOCK_STORE, DFI_CHECK,
                                DFI_STORE, DFIPolicy)
from repro.policies.memory_safety import MemorySafetyPolicy
from repro.policies.taint import (TAINT_CLEAR, TAINT_SINK, TAINT_SOURCE,
                                  TaintPolicy)
from repro.policies.watchdog import EVENT_HEARTBEAT, WatchdogPolicy


class HQCFIReference(HQCFIPolicy):
    def handle(self, message: Message) -> Optional[Violation]:
        op = message.op
        if op is Op.POINTER_DEFINE:
            self.defines += 1
            self.table.define(message.arg0, message.arg1)
            return None
        if op is Op.POINTER_CHECK:
            self.checks += 1
            error = self.table.check(message.arg0, message.arg1)
            return self._violation(message, error)
        if op is Op.POINTER_CHECK_INVALIDATE:
            self.checks += 1
            error = self.table.check_invalidate(message.arg0, message.arg1)
            return self._violation(message, error)
        if op is Op.POINTER_INVALIDATE:
            self.table.invalidate(message.arg0)
            return None
        if op is Op.POINTER_BLOCK_COPY:
            self.table.block_copy(message.arg0, message.arg1, message.aux)
            return None
        if op is Op.POINTER_BLOCK_MOVE:
            self.table.block_move(message.arg0, message.arg1, message.aux)
            return None
        if op is Op.POINTER_BLOCK_INVALIDATE:
            self.table.block_invalidate(message.arg0, message.aux)
            return None
        return None

    def _violation(self, message: Message, error: Optional[str]) -> Optional[Violation]:
        if error is None:
            return None
        if "use-after-free" in error:
            self.use_after_free_hits += 1
        return Violation(message.pid, "cfi-pointer-integrity", error, message)


class MemorySafetyReference(MemorySafetyPolicy):
    def handle(self, message: Message) -> Optional[Violation]:
        op = message.op
        error: Optional[str] = None
        if op is Op.ALLOCATION_CREATE:
            error = self.allocations.create(message.arg0, message.arg1)
        elif op is Op.ALLOCATION_CHECK:
            self.checks += 1
            if self.allocations.containing(message.arg0) is None:
                error = (f"access at {message.arg0:#x} is out-of-bounds "
                         f"or use-after-free")
        elif op is Op.ALLOCATION_CHECK_BASE:
            self.checks += 1
            first = self.allocations.containing(message.arg0)
            second = self.allocations.containing(message.arg1)
            if first is None or second is None or first != second:
                error = (f"addresses {message.arg0:#x} and {message.arg1:#x} "
                         f"are not within the same live allocation")
        elif op is Op.ALLOCATION_EXTEND:
            error = self.allocations.extend(message.arg0, message.arg1,
                                            message.aux)
        elif op is Op.ALLOCATION_DESTROY:
            error = self.allocations.destroy(message.arg0)
        elif op is Op.ALLOCATION_DESTROY_ALL:
            error = self.allocations.destroy_all(message.arg0, message.aux)
        if error is None:
            return None
        return Violation(message.pid, "memory-safety", error, message)


class CallCounterReference(CallCounterPolicy):
    def handle(self, message: Message) -> Optional[Violation]:
        if message.op is not Op.EVENT or message.arg0 != EVENT_CALL:
            return None
        self.count += message.arg1
        if self.limit is not None and self.count > self.limit:
            return Violation(message.pid, "call-counter",
                             f"call count {self.count} exceeds limit "
                             f"{self.limit}", message)
        return None


class DFIReference(DFIPolicy):
    def handle(self, message: Message) -> Optional[Violation]:
        if message.op is not Op.EVENT:
            return None
        kind = message.arg0
        if kind == DFI_STORE:
            self.last_writer[message.arg1] = message.aux
            return None
        if kind == DFI_BLOCK_STORE:
            address, size, def_id = message.arg1, message.aux >> 16, \
                message.aux & 0xFFFF
            for offset in range(0, size, 8):
                self.last_writer[address + offset] = def_id
            return None
        if kind == DFI_CHECK:
            self.checks += 1
            address, set_id = message.arg1, message.aux
            writer = self.last_writer.get(address, DEF_INITIAL)
            allowed = self.reaching_sets.get(set_id, frozenset())
            if writer not in allowed:
                return Violation(
                    message.pid, "dfi",
                    f"load at {address:#x} saw definition {writer}, "
                    f"allowed set {set_id} is {sorted(allowed)}", message)
        return None


class TaintReference(TaintPolicy):
    def handle(self, message: Message) -> Optional[Violation]:
        if message.op is Op.POINTER_BLOCK_COPY:
            # Copies propagate taint (shared message vocabulary).
            src, dst, size = message.arg0, message.arg1, message.aux
            carried = [a for a in self.tainted if src <= a < src + size]
            for address in carried:
                self.tainted.add(dst + (address - src))
            return None
        if message.op is not Op.EVENT:
            return None
        kind, address = message.arg0, message.arg1
        if kind == TAINT_SOURCE:
            self.tainted.add(address)
        elif kind == TAINT_CLEAR:
            self.tainted.discard(address)
        elif kind == TAINT_SINK:
            self.sink_checks += 1
            if address in self.tainted:
                return Violation(message.pid, "taint",
                                 f"tainted value at {address:#x} reached "
                                 f"a security-sensitive sink", message)
        return None


class WatchdogReference(WatchdogPolicy):
    def handle(self, message: Message) -> Optional[Violation]:
        if message.op is not Op.EVENT or message.arg0 != EVENT_HEARTBEAT:
            return None
        self.beats += 1
        sequence = message.arg1
        if sequence <= self.last_sequence:
            return Violation(message.pid, "watchdog",
                             f"non-monotonic heartbeat {sequence} after "
                             f"{self.last_sequence} (replay?)", message)
        self.last_sequence = sequence
        return None


#: Reference factories, keyed like ``repro.core.shard_verifier``'s
#: ``resolve_policy`` names.
REFERENCE_FACTORIES = {
    "hq-cfi": HQCFIReference,
    "memory-safety": MemorySafetyReference,
    "call-counter": CallCounterReference,
    "dfi": lambda: DFIReference({1: frozenset({0, 5})}),
    "taint": TaintReference,
    "watchdog": WatchdogReference,
}


def _record(stats: PolicyStats, op: Op, entries: int,
            violated: bool) -> None:
    stats.messages_processed += 1
    stats.by_op[op.name] = stats.by_op.get(op.name, 0) + 1
    if violated:
        stats.violations += 1
    if entries > stats.max_entries:
        stats.max_entries = entries


def reference_run(policy: Policy, pid: int,
                  batches: Sequence[Sequence[int]]
                  ) -> Tuple[List[Violation], PolicyStats, int, List[str]]:
    """Feed packed word batches from one pid through ``policy.handle``.

    The verifier's contract, one message at a time: a truncated batch
    is refused whole; an unknown opcode ends its batch after the valid
    prefix; both are message-integrity failures.  SYSCALL messages mint
    a token and never reach the policy; a policy that raises is a
    malformed-message violation.  Returns ``(violations, stats, tokens,
    integrity details)``.
    """
    violations: List[Violation] = []
    stats = PolicyStats()
    tokens = 0
    integrity: List[str] = []

    def fail_integrity(detail: str) -> None:
        integrity.append(detail)
        violations.append(Violation(pid, "message-integrity", detail))

    for words in batches:
        if len(words) % 4:
            fail_integrity(f"undecodable message stream: truncated message "
                           f"stream: {len(words)} words is not a "
                           f"multiple of 4")
            continue
        for base in range(0, len(words), 4):
            opcode = words[base] & 0xFFFF_FFFF
            op = OP_BY_VALUE.get(opcode)
            if op is None:
                fail_integrity(f"undecodable message stream: unknown "
                               f"opcode {opcode:#x}")
                break
            if op is Op.SYSCALL:
                tokens += 1
                _record(stats, op, policy.entry_count(), False)
                continue
            message = Message(op, words[base + 1], words[base + 2],
                              words[base + 3] & 0xFFFF_FFFF, pid,
                              words[base + 3] >> 32)
            try:
                violation: Optional[Violation] = policy.handle(message)
            except Exception as error:
                violation = Violation(
                    pid, "malformed-message",
                    f"policy {policy.name} raised {error!r} while "
                    f"handling {op!r} (fail closed)")
            _record(stats, op, policy.entry_count(), violation is not None)
            if violation is not None:
                violations.append(violation)
    return violations, stats, tokens, integrity
