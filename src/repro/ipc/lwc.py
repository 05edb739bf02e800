"""Light-weight contexts (LWC): disjoint-address-space messaging.

Litton et al.'s light-weight contexts [70] provide isolated address spaces
within one process; switching between them reconfigures the MMU and
costs ~2010 ns per switch — and message delivery needs a switch *to*
the verifier context and another one *back* (section 2.3: the cost
"would be on the critical path, and occur both to and from the verifier
on each sent message").  Messages handed over during a switch are
append-only (the sender context cannot touch verifier memory), but the
send is fully synchronous.
"""

from __future__ import annotations

from array import array

from repro.core.messages import MESSAGE_WORDS, _MASK32, _MASK64
from repro.ipc.base import Channel, ChannelFullError
from repro.ipc.latency import send_cycles
from repro.sim.process import Process


class LightWeightContextChannel(Channel):
    """One message per pair of LWC context switches."""

    primitive = "lwc"
    append_only = True
    async_validation = False
    primary_cost = "System Call"

    #: Switches per message: one into the verifier context, one back.
    SWITCHES_PER_SEND = 2

    def __init__(self, capacity: int = 1 << 16) -> None:
        super().__init__(capacity)
        self._queue = array("Q")
        self._send_cost = send_cycles(self.primitive) * self.SWITCHES_PER_SEND
        self._capacity_words = capacity * MESSAGE_WORDS

    def send_raw(self, sender: Process, op: int, arg0: int = 0,
                 arg1: int = 0, aux: int = 0) -> None:
        if len(self._queue) >= self._capacity_words:
            # A full mailbox switches to the verifier context so it can
            # drain before the send is retried.
            self._notify_full()
        # Draining swaps the queue out, so re-read it after the hook.
        queue = self._queue
        if len(queue) >= self._capacity_words:
            raise ChannelFullError("LWC mailbox full")
        sender.cycles.charge_syscall(self._send_cost)
        counter = self._counter + 1
        self._counter = counter
        queue.append((op & _MASK32) | ((sender.pid & _MASK32) << 32))
        queue.append(arg0 & _MASK64)
        queue.append(arg1 & _MASK64)
        queue.append((aux & _MASK32) | ((counter & _MASK32) << 32))
        self.sent_total += 1

    def _receive_raw_words(self) -> array:
        words = self._queue
        self._queue = array("Q")
        return words

    def pending(self) -> int:
        return len(self._queue) // MESSAGE_WORDS
