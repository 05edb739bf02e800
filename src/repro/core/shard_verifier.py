"""Sharded verifier runtime: one verifier, N rings.

Monitored pids are partitioned across N *shards* by the consistent-hash
:class:`~repro.core.sharding.ShardMap`; each shard owns a lock-free
:class:`~repro.ipc.spsc_ring.SpscRing`.  Policy contexts are per-pid,
so per-pid FIFO (guaranteed by sticky routing) is the only ordering
verification needs — shards never talk to each other.

Two execution modes share the ring format and the dispatch path:

* :class:`ShardedVerifier` — the *inline coordinator*: a
  :class:`~repro.core.verifier.Verifier` whose transport is N rings.
  It owns the one set of per-pid tables and replaces only how words
  reach ``_dispatch_words`` (routed to the owning shard's ring, then
  drained shard by shard inside ``poll``) and what a shard's death
  does.  Runs stay deterministic (chaos replay, equivalence property
  tests) while exercising the real rings.
* :class:`ShardWorker` / :func:`shard_worker_main` — a real OS worker
  process per shard for the throughput bench and the torn-write tests:
  the parent publishes into the ring, the child free-runs a
  consume→dispatch loop and reports its results over a control pipe.

Failure semantics (the fail-closed story, scoped): a dead shard only
condemns *its own* pids.  :meth:`ShardedVerifier.crash_shard` marks the
shard down and records a ``shard-terminated`` violation for each pid it
owned; the kernel module's barrier asks :meth:`shard_down_for` and
kills exactly those pids with the usual ``verifier-terminated`` reason.
Pids on surviving shards keep running, their acks unaffected — the
barrier's effective epoch position is the minimum over live shards,
which is what :meth:`ack_epoch` reports.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.messages import MESSAGE_WORDS, OP_NAMES
from repro.core.policy import Policy, Violation
from repro.core.sharding import ShardMap
from repro.core.verifier import Verifier
from repro.ipc.base import ChannelIntegrityError
from repro.ipc.spsc_ring import SpscRing

_MASK32 = 0xFFFF_FFFF

#: Default per-shard ring size (words; 32k words = 8k messages).
DEFAULT_RING_WORDS = 1 << 15


def resolve_policy(name: str) -> Callable[[], Policy]:
    """Policy factory by name — the spawn-safe currency of worker
    processes (callables don't cross a ``Pipe``; names do)."""
    from repro.cfi.hq_cfi import HQCFIPolicy
    from repro.policies.call_counter import CallCounterPolicy
    from repro.policies.dfi import DFIPolicy
    from repro.policies.memory_safety import MemorySafetyPolicy
    from repro.policies.taint import TaintPolicy
    from repro.policies.watchdog import WatchdogPolicy
    factories: Dict[str, Callable[[], Policy]] = {
        "hq-cfi": HQCFIPolicy,
        "memory-safety": MemorySafetyPolicy,
        "call-counter": CallCounterPolicy,
        "dfi": lambda: DFIPolicy({1: frozenset({0, 5})}),
        "taint": TaintPolicy,
        "watchdog": WatchdogPolicy,
    }
    if name not in factories:
        raise KeyError(f"unknown policy {name!r}; "
                       f"choose from {sorted(factories)}")
    return factories[name]


class ShardEngine:
    """One shard of the inline coordinator: a ring and its liveness.

    ``overflow`` buffers word batches that arrive while the ring is
    full — the coordinator's equivalent of :class:`Verifier`'s word
    backlog.  Overflow is refilled into the ring *after* the ring's own
    content so per-pid order is preserved.
    """

    def __init__(self, shard_id: int, ring: SpscRing) -> None:
        self.shard_id = shard_id
        self.ring = ring
        self.alive = True
        self.overflow = array("Q")

    def enqueue(self, words: array) -> None:
        """Accept a whole-message word batch routed to this shard."""
        if not self.alive:
            return  # a dead shard consumes nothing; its pids die anyway
        if self.overflow:
            self.overflow += words
            return
        published = self.ring.publish_words(words)
        if published < len(words):
            self.overflow += words[published:]

    def drain(self, dispatch: Callable[[array], int],
              max_messages: Optional[int] = None) -> int:
        """Consume up to ``max_messages`` (None: all) into ``dispatch``."""
        if not self.alive:
            return 0
        ring = self.ring
        processed = 0
        while True:
            budget = None if max_messages is None else \
                (max_messages - processed) * MESSAGE_WORDS
            if budget is not None and budget <= 0:
                break
            words = ring.consume_words(budget)
            if words:
                processed += dispatch(words)
                ring.ack(ring.consumed())
            if self.overflow:
                published = ring.publish_words(self.overflow)
                if published:
                    del self.overflow[:published]
                    continue
            if not words:
                break
        return processed

    def backlog_messages(self) -> int:
        return (self.ring.occupancy_words() + len(self.overflow)) \
            // MESSAGE_WORDS


class ShardedVerifier(Verifier):
    """Inline coordinator: a :class:`Verifier` whose transport is N rings.

    The per-pid tables, the kernel-module interface, GC and reporting
    are :class:`Verifier`'s own; pids are disjoint across shards by
    routing, so one set of tables serves every shard.  Overridden here:
    how words reach dispatch (:meth:`poll`, :meth:`_route`,
    :meth:`backlog_size`), shard death (:meth:`crash_shard`,
    :meth:`shard_down_for`, :meth:`ack_epoch`), and the routing
    bookkeeping of the pid lifecycle and :meth:`restart`.
    """

    def __init__(self, policy_factory: Callable[[], Policy],
                 num_shards: int, *,
                 ring_capacity_words: int = DEFAULT_RING_WORDS,
                 vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError("need at least one verifier shard")
        super().__init__(policy_factory)
        self.shard_map = ShardMap(num_shards, vnodes)
        self.shards: List[ShardEngine] = [
            ShardEngine(i, SpscRing.create(capacity_words=ring_capacity_words))
            for i in range(num_shards)
        ]
        self._pid_engine: Dict[int, ShardEngine] = {}
        #: Pids hash into the shard map *relative to the first pid this
        #: coordinator sees*.  Simulator pids are allocated from a
        #: process-global counter, so absolute values differ run to run
        #: while the offsets within one run are deterministic — relative
        #: hashing is what makes shard placement (and therefore chaos
        #: shard-crash verdicts) replayable.
        self._pid_base: Optional[int] = None
        #: Integrity evidence found while routing; flushed after the
        #: pre-fault prefix has been dispatched, mirroring the order in
        #: which a single verifier records it.
        self._pending_integrity: List[str] = []
        self._closed = False

    # -- process lifecycle ---------------------------------------------------

    def _engine_for(self, pid: int) -> ShardEngine:
        engine = self._pid_engine.get(pid)
        if engine is None:
            if self._pid_base is None:
                self._pid_base = pid
            engine = self.shards[
                self.shard_map.assign(pid - self._pid_base)]
            self._pid_engine[pid] = engine
        return engine

    def shard_of(self, pid: int) -> int:
        """Which shard owns ``pid`` (assigning it if unseen)."""
        return self._engine_for(pid).shard_id

    def open_pid(self, pid: int, context: Policy,
                 keep_history: bool = False) -> None:
        # Every live pid has a routing entry: crash_shard and
        # shard_down_for find its shard through it.
        self._engine_for(pid)
        super().open_pid(pid, context, keep_history)

    def unregister_process(self, pid: int) -> None:
        super().unregister_process(pid)
        if self._pid_base is not None:
            self.shard_map.forget(pid - self._pid_base)

    def advance_epoch(self) -> List[int]:
        """:meth:`Verifier.advance_epoch`; reclaimed pids also drop
        their routing entry, which would otherwise grow monotonically
        under session churn."""
        reclaimed = super().advance_epoch()
        for pid in reclaimed:
            self._pid_engine.pop(pid, None)
        return reclaimed

    # -- the main loop -------------------------------------------------------

    def poll(self, max_messages: Optional[int] = None) -> int:
        """Route channel traffic to shard rings, then drain the shards.

        ``max_messages`` bounds total dispatch work across shards (the
        slow-verifier model); undrained words simply stay in the rings,
        which *are* the backlog here.
        """
        if self.terminated:
            return 0
        if max_messages is None:
            max_messages = self.poll_budget
        obs = self.observer
        start = obs.now() if obs is not None else 0.0
        for channel in self.channels:
            try:
                words = channel.receive_words()
            except ChannelIntegrityError as error:
                self._pending_integrity.append(str(error))
                continue
            if words:
                if obs is not None:
                    obs.ipc_batch(len(words) // MESSAGE_WORDS)
                self._route(words)
        dispatch = self._dispatch_words
        processed = 0
        for engine in self.shards:
            if not engine.alive:
                continue
            remaining = None if max_messages is None \
                else max_messages - processed
            if remaining is not None and remaining <= 0:
                break
            occupancy = engine.ring.occupancy_words() // MESSAGE_WORDS
            drained = engine.drain(dispatch, remaining)
            processed += drained
            if obs is not None and (drained or occupancy):
                obs.shard_drain(engine.shard_id, drained, occupancy)
        if self._pending_integrity:
            details, self._pending_integrity = self._pending_integrity, []
            for detail in details:
                self._integrity_violation(detail)
        if obs is not None:
            obs.verifier_poll_event(processed, start)
            obs.note_backlog(self.backlog_size())
        return processed

    def _route(self, words: array) -> None:
        """Split one word batch into per-pid runs and enqueue each.

        Fail-closed exactly like ``Verifier._dispatch_words``: a
        truncated batch dispatches nothing; an unknown opcode lets the
        pre-fault prefix through, then abandons the rest and (via the
        pending-integrity queue) condemns every live pid.
        """
        n = len(words)
        if n & (MESSAGE_WORDS - 1):
            self._pending_integrity.append(
                f"undecodable message stream: truncated message stream: "
                f"{n} words is not a multiple of 4")
            return
        op_names = OP_NAMES
        current_pid = -1
        engine: Optional[ShardEngine] = None
        run_start = 0
        for base in range(0, n, MESSAGE_WORDS):
            w0 = words[base]
            if (w0 & _MASK32) not in op_names:
                if engine is not None and base > run_start:
                    engine.enqueue(words[run_start:base])
                self._pending_integrity.append(
                    f"undecodable message stream: "
                    f"unknown opcode {w0 & _MASK32:#x}")
                return
            pid = w0 >> 32
            if pid != current_pid:
                if engine is not None and base > run_start:
                    engine.enqueue(words[run_start:base])
                run_start = base
                current_pid = pid
                engine = self._engine_for(pid)
        if engine is not None and n > run_start:
            engine.enqueue(words[run_start:n])

    def backlog_size(self) -> int:
        return sum(engine.backlog_messages() for engine in self.shards)

    # -- scoped shard failure ------------------------------------------------

    def crash_shard(self, pick: int) -> int:
        """Kill one shard (fault injection); returns its id.

        Only the dead shard's pids are condemned: each gets a
        ``shard-terminated`` violation on the record, and
        :meth:`shard_down_for` steers the kernel barrier to kill them
        with the standard ``verifier-terminated`` reason.  No pending
        flag is raised — surviving shards' pids are untouched.
        """
        engine = self.shards[pick % len(self.shards)]
        if not engine.alive:
            return engine.shard_id
        engine.alive = False
        pids = sorted(pid for pid in self.contexts
                      if self._pid_engine.get(pid) is engine)
        for pid in pids:
            self.violations.setdefault(pid, []).append(
                Violation(pid, "shard-terminated",
                          f"verifier shard {engine.shard_id} died; pid "
                          f"{pid} fail-closed (kill scoped to its shard)"))
        if self.observer is not None:
            self.observer.shard_down(engine.shard_id, len(pids))
        return engine.shard_id

    def shard_down_for(self, pid: int) -> bool:
        """Kernel-barrier query: is ``pid``'s shard dead?"""
        engine = self._pid_engine.get(pid)
        return engine is not None and not engine.alive

    def ack_epoch(self) -> int:
        """Aggregate ack position: min over live shards' acked words.

        A shard that lags holds the epoch back for everyone (the
        barrier cannot prove the laggard's pids innocent), which is the
        cost of the min-aggregation the kernel relies on.
        """
        live = [engine.ring.acked() for engine in self.shards
                if engine.alive]
        return min(live) if live else 0

    # -- crash recovery and lifecycle ------------------------------------------

    def restart(self, live_pids: Iterable[int],
                lost_pids: Iterable[int] = ()) -> List[int]:
        """:meth:`Verifier.restart`, with the words still in the rings
        and overflow lost too: they condemn their senders, and every
        shard comes back up empty."""
        lost = set(lost_pids)
        for engine in self.shards:
            lost.update(w0 >> 32 for w0 in
                        engine.ring.consume_words()[0::MESSAGE_WORDS])
            lost.update(w0 >> 32 for w0 in engine.overflow[0::MESSAGE_WORDS])
            del engine.overflow[:]
            engine.ring.ack(engine.ring.consumed())
            engine.alive = True
        self._pending_integrity = []
        self._pid_engine = {}
        return super().restart(live_pids, lost)

    def close(self) -> None:
        """Release every shard's ring segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for engine in self.shards:
            engine.ring.close()


# ---------------------------------------------------------------------------
# Real-process shard workers (the bench / torn-write test machinery)
# ---------------------------------------------------------------------------

#: Idle-loop backoff: spin this many empty polls (a fresh batch
#: usually lands within microseconds at bench rates), then sleep with
#: exponential backoff between these bounds.  The cap keeps worst-case
#: shutdown latency (stop flag observed) at ~2ms while an idle shard
#: costs ~500 wakeups/s instead of the old fixed 5000.
SPIN_POLLS = 64
SLEEP_MIN_S = 50e-6
SLEEP_MAX_S = 0.002


def shard_worker_main(ring_name: str, capacity_words: int,
                      policy_name: str, conn,
                      race: bool = False) -> None:
    """Worker-process entry: free-running consume→dispatch loop.

    Drains the ring through the standard ``Verifier._dispatch_words``
    path until the producer raises the stop flag and the ring is empty,
    then reports results over ``conn``.  ``busy_s`` accumulates
    ``time.process_time()`` only around non-empty consume+dispatch
    sections — the per-shard busy CPU time the bench's
    dedicated-core-per-shard throughput model is built on (idle spins
    and sleeps are the other core's problem, not this shard's).

    An empty poll spins (:data:`SPIN_POLLS` iterations), then backs off
    exponentially between :data:`SLEEP_MIN_S` and :data:`SLEEP_MAX_S`;
    any drained batch resets the backoff.  ``idle_polls`` in the report
    counts every empty poll, feeding the ``shard.{id}.idle_polls``
    observability counter parent-side.

    With ``race=True`` the consumer endpoint records its shared
    accesses through a :class:`~repro.mc.race.RingProbe` and ships the
    event log home in the report as ``race_events``, where the parent
    merges it with its producer-side log for happens-before checking.
    """
    ring = SpscRing.attach(ring_name, capacity_words)
    probe = None
    if race:
        from repro.mc.race import RingProbe
        probe = RingProbe()
        ring.attach_probe(probe)
    verifier = Verifier(resolve_policy(policy_name))
    busy_s = 0.0
    drained = 0
    batches = 0
    idle_polls = 0
    idle_streak = 0
    delay = 0.0

    def drain_once() -> bool:
        nonlocal busy_s, drained, batches
        t0 = time.process_time()
        words = ring.consume_words()
        if not words:
            return False
        verifier._dispatch_words(words)
        ring.ack(ring.consumed())
        busy_s += time.process_time() - t0
        drained += len(words) // MESSAGE_WORDS
        batches += 1
        return True

    try:
        while True:
            while conn.poll(0):
                command = conn.recv()
                kind = command[0]
                if kind == "register":
                    verifier.register_process(command[1])
                elif kind == "fork":
                    verifier.fork_process(command[1], command[2])
                elif kind == "unregister":
                    verifier.unregister_process(command[1])
            if drain_once():
                idle_streak = 0
                delay = 0.0
                continue
            if ring.stop_requested():
                # The stop flag was stored after the final publish, so
                # one more drain pass observes everything in flight.
                while drain_once():
                    pass
                break
            idle_polls += 1
            idle_streak += 1
            if idle_streak > SPIN_POLLS:
                delay = min(delay * 2 if delay else SLEEP_MIN_S,
                            SLEEP_MAX_S)
                time.sleep(delay)
        conn.send({
            "drained": drained,
            "batches": batches,
            "busy_s": busy_s,
            "idle_polls": idle_polls,
            "race_events": list(probe.events) if probe is not None else [],
            "violations": {pid: [(v.kind, v.detail) for v in violations]
                           for pid, violations in
                           verifier.violations.items() if violations},
            "stats": {pid: (s.messages_processed, s.violations,
                            s.max_entries, dict(s.by_op))
                      for pid, s in verifier.stats.items()},
            "tokens": dict(verifier._syscall_tokens),
            "entries": {pid: context.entry_count()
                        for pid, context in verifier.contexts.items()},
            "integrity": list(verifier.integrity_failures),
        })
    finally:
        ring.close()
        conn.close()


class ShardWorker:
    """Parent-side handle on one real shard worker process."""

    def __init__(self, shard_id: int, policy_name: str,
                 capacity_words: int = 1 << 16,
                 race: bool = False) -> None:
        import multiprocessing
        self.shard_id = shard_id
        self.capacity_words = capacity_words
        self.ring = SpscRing.create(capacity_words=capacity_words)
        #: Optional Observer; when set, ``stop()`` emits the worker's
        #: ``shard.{id}.idle_polls`` counter.
        self.observer = None
        self._probe = None
        if race:
            from repro.mc.race import RingProbe
            self._probe = RingProbe()
            self.ring.attach_probe(self._probe)
        self._conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=shard_worker_main,
            args=(self.ring.name, capacity_words, policy_name, child_conn,
                  race),
            daemon=True)
        self.process.start()
        child_conn.close()

    def register(self, pid: int) -> None:
        self._conn.send(("register", pid))

    def fork(self, parent_pid: int, child_pid: int) -> None:
        self._conn.send(("fork", parent_pid, child_pid))

    def publish(self, words, start: int = 0) -> int:
        return self.ring.publish_words(words, start)

    def occupancy(self) -> int:
        return self.ring.occupancy_words() // MESSAGE_WORDS

    def stop(self, timeout: float = 120.0) -> Optional[dict]:
        """Signal shutdown and collect the worker's report (None on
        timeout — the caller decides whether that is a test failure)."""
        self.ring.request_stop()
        report = self._conn.recv() if self._conn.poll(timeout) else None
        self.process.join(timeout=10.0)
        if report is not None and self.observer is not None:
            self.observer.shard_idle_polls(self.shard_id,
                                           report.get("idle_polls", 0))
        return report

    def check_races(self, report: Optional[dict]) -> List[str]:
        """Merge this side's producer log with the worker's consumer
        log (``race_events`` in the report) and run happens-before
        checking; returns the flagged races (empty = provably clean
        *for this execution*)."""
        if self._probe is None or report is None:
            return []
        from repro.mc.race import RaceDetector
        detector = RaceDetector()
        detector.feed_logs({"producer": list(self._probe.events),
                            "consumer": list(report.get("race_events", []))})
        return [str(race) for race in detector.races]

    def kill(self) -> None:
        """SIGKILL the worker mid-drain (chaos / leak regression tests)."""
        self.process.kill()
        self.process.join(timeout=10.0)

    def close(self) -> None:
        if self.process.is_alive():
            self.kill()
        self.ring.close()
        self._conn.close()
