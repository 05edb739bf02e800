"""Fault-injecting verifier decorator.

:class:`FaultyVerifier` wraps the real :class:`repro.core.verifier.
Verifier` and models the verifier *process* misbehaving:

* **crash** — after a planned number of polls the verifier dies
  mid-run.  A crash is abrupt: ``terminated`` flips with none of the
  courteous flag-sweeping of :meth:`Verifier.terminate`, which is
  exactly the case the kernel module must detect on its own (section
  3.4: kill monitored programs on unexpected verifier termination).
* **slow poll** — each time slice processes only ``plan.poll_limit``
  messages (the wrapped verifier's ``poll_budget``), building backlog
  and exercising the bounded-epoch backpressure path.

Whether a crashed verifier comes back is the kernel module's decision,
not the wrapper's: :meth:`repro.faults.FaultInjector.configure_kernel`
grants it one restart when the plan is restartable.  All other
attributes delegate to the wrapped verifier, so the kernel module,
framework, and channels interact with it unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.core.shard_verifier import ShardedVerifier
from repro.core.verifier import Verifier
from repro.faults.plan import FaultPlan


class FaultyVerifier:
    """Crash/slowdown wrapper over a real verifier."""

    def __init__(self, inner: Verifier, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.polls = 0
        self.crashes = 0
        if plan.poll_limit is not None:
            inner.poll_budget = plan.poll_limit
        #: Shard-crash injections performed / which shard died (sharded
        #: runtime only; inert against a single verifier).
        self.shard_crashes = 0
        self.crashed_shard: Optional[int] = None

    def poll(self, max_messages: Optional[int] = None) -> int:
        self.polls += 1
        if (self.plan.verifier_crash_at is not None
                and self.crashes == 0
                and self.polls >= self.plan.verifier_crash_at):
            # Hard crash: no terminate() cleanup, no pending-violation
            # sweep — the kernel must notice on its own.
            self.crashes += 1
            self.inner.terminated = True
            return 0
        if (self.plan.shard_crash_at is not None
                and self.shard_crashes == 0
                and self.polls >= self.plan.shard_crash_at):
            # Partial failure: one shard of a sharded runtime dies; the
            # coordinator and the other shards keep running.  Against a
            # single verifier the kind is inert by design (the sweep
            # asserts scoping, and there is nothing to scope to).
            if isinstance(self.inner, ShardedVerifier):
                self.shard_crashes += 1
                self.crashed_shard = self.inner.crash_shard(
                    self.plan.shard_pick)
        return self.inner.poll(max_messages)

    def __getattr__(self, name: str):
        # Everything else — register/fork/unregister, has_violation,
        # consume_syscall_token, terminated, stats, channels, ... —
        # is the inner verifier's business.
        return getattr(self.inner, name)
