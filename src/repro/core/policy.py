"""Policy interface for the verifier.

A policy is the verifier-side interpretation of message semantics
(section 4): it maintains per-process context, checks each message, and
reports violations.  Policies must support copy-on-fork (the verifier
copies policy contexts when a monitored process clones, section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sized

from repro.core.messages import Message


@dataclass
class Violation:
    """One failed policy check."""

    pid: int
    kind: str
    detail: str = ""
    message: Optional[Message] = None

    def __str__(self) -> str:
        return f"[pid {self.pid}] {self.kind}: {self.detail}"


#: One entry in a policy's per-op dispatch table: called with the
#: message's ``(arg0, arg1, aux)`` payload, returns a violation or None.
Handler = Callable[[int, int, int], Optional[Violation]]


class Policy:
    """Base class for verifier-side execution policies."""

    name = "null"

    def handle(self, message: Message) -> Optional[Violation]:
        """Process one message; return a violation if the check failed.

        Runs the :meth:`handlers` entry for the message's op — the same
        code the verifier dispatches — and stamps the sender pid and the
        message on any violation, as the verifier does.
        """
        handler = self.handlers().get(int(message.op))
        if handler is None:
            return None
        violation = handler(message.arg0, message.arg1, message.aux)
        if violation is not None:
            violation.pid = message.pid
            violation.message = message
        return violation

    def handlers(self) -> Dict[int, Handler]:
        """Per-op dispatch table: the one definition of the policy.

        Contract: the returned dict maps ``int(op)`` to a callable
        taking the message payload ``(arg0, arg1, aux)`` and returning
        an optional :class:`Violation`.  The table must cover **every**
        op the policy reacts to — an op absent from the table is a
        no-op for the policy (though the verifier still counts it in
        ``PolicyStats``).  Returned violations may leave ``pid`` as 0
        and ``message`` as None; the dispatcher stamps the sender pid
        and lazily materializes the message.  Handlers are bound
        closures over live policy state, so the table must be built
        per-instance (never shared across :meth:`clone` children).
        """
        return {}

    def clone(self) -> "Policy":
        """Deep-copy the policy context for a forked child (section 3.4)."""
        raise NotImplementedError

    def entry_count(self) -> int:
        """Number of metadata entries held (the section 5.4 metric)."""
        return 0

    def entries_ref(self) -> Optional[Sized]:
        """The container whose ``len`` *is* :meth:`entry_count`, or None.

        The batch dispatcher samples the entry count once per message
        for the section 5.4 high-water mark; returning the live
        container lets it take a C-level ``len`` instead of a Python
        call.  Policies whose count is not the length of one container
        (or that rebind the container) return None and pay the
        :meth:`entry_count` call.
        """
        return None


@dataclass
class PolicyStats:
    """Aggregate message statistics the evaluation reports (section 5.4)."""

    messages_processed: int = 0
    violations: int = 0
    max_entries: int = 0
    by_op: dict = field(default_factory=dict)
