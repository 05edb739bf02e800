"""Shard-lifecycle model: scoped death + min-over-live ack epoch.

PR 6's security argument for the sharded runtime is two sentences
long: *a dead shard condemns only its own pids*, and *the barrier's
effective ack epoch is the minimum over live shards* (a laggard holds
everyone back, because the barrier cannot prove the laggard's pids
innocent).  This model explores every interleaving of shard ack
progress, at most one shard death, and kernel barrier sweeps, and
checks exactly those two properties plus their liveness halves:

* **scoped kill** — a killed pid's owning shard is dead, always;
* **epoch bound** — after every barrier, the epoch is ≤ every live
  shard's acked position, equals their minimum, and never regresses;
* **fail-closed completeness** — at every terminal state, a dead
  shard's pids have all been killed, and no live shard's pid ever was.

Mutations (:data:`MIS_SCOPED_KILL`, :data:`EPOCH_MAX`) break one
property each; the mutation gate proves the checker notices.

:func:`conformance_check` closes the model/implementation gap: it
drives a *real* :class:`~repro.core.shard_verifier.ShardedVerifier`
(real rings, real pid routing) through every single-death scenario and
asserts that ``shard_down_for`` (the query the kernel barrier kills
on) and ``ack_epoch`` agree with the abstract model's verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.mc.explorer import Step

#: Shard-lifecycle mutant identifiers.
MIS_SCOPED_KILL = "misscoped-kill"
EPOCH_MAX = "epoch-max"

_SHARD_MUTATIONS = (MIS_SCOPED_KILL, EPOCH_MAX)


@dataclass(frozen=True)
class ShardState:
    """Acked positions, liveness, kill set, and the barrier's epoch."""

    acked: Tuple[int, ...]
    alive: Tuple[bool, ...]
    killed: Tuple[int, ...] = ()     # sorted killed pids
    epoch: int = 0
    deaths: int = 0

    def key(self):
        return (self.acked, self.alive, self.killed, self.epoch,
                self.deaths)


class ShardLifecycleModel:
    """Bounded exhaustive model of N shards under one death."""

    def __init__(self, num_shards: int = 2, pids_per_shard: int = 2,
                 ack_steps: int = 2, death_budget: int = 1,
                 mutation: Optional[str] = None) -> None:
        if num_shards < 2:
            raise ValueError("shard lifecycle needs at least two shards")
        if mutation is not None and mutation not in _SHARD_MUTATIONS:
            raise ValueError(f"unknown shard mutation {mutation!r}")
        self.num_shards = num_shards
        self.pids_per_shard = pids_per_shard
        self.ack_steps = ack_steps
        self.death_budget = death_budget
        self.mutation = mutation

    def describe(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "pids_per_shard": self.pids_per_shard,
            "ack_steps": self.ack_steps,
            "death_budget": self.death_budget,
            "mutation": self.mutation,
        }

    def owner(self, pid: int) -> int:
        return pid // self.pids_per_shard

    def pids_of(self, shard: int) -> List[int]:
        base = shard * self.pids_per_shard
        return list(range(base, base + self.pids_per_shard))

    # -- model interface -----------------------------------------------------

    def initial_state(self) -> ShardState:
        return ShardState(acked=(0,) * self.num_shards,
                          alive=(True,) * self.num_shards)

    def enabled(self, state: ShardState) -> List[Step]:
        steps: List[Step] = []
        for i in range(self.num_shards):
            if state.alive[i] and state.acked[i] < self.ack_steps:
                steps.append(Step(
                    f"ack@{i}", f"shard{i}",
                    frozenset(), frozenset({("acked", i)}),
                    lambda s, i=i: self._apply_ack(s, i)))
            if state.alive[i] and state.deaths < self.death_budget:
                steps.append(Step(
                    f"die@{i}", f"shard{i}",
                    frozenset(), frozenset({("alive", i), "death-budget"}),
                    lambda s, i=i: self._apply_die(s, i)))
        if self._barrier_would_act(state):
            every = frozenset(
                [("acked", i) for i in range(self.num_shards)]
                + [("alive", i) for i in range(self.num_shards)])
            steps.append(Step("barrier", "kernel", every,
                              frozenset({"epoch", "killed"}),
                              self._apply_barrier))
        return steps

    def _apply_ack(self, state: ShardState, i: int):
        acked = list(state.acked)
        acked[i] += 1
        return replace(state, acked=tuple(acked)), None

    def _apply_die(self, state: ShardState, i: int):
        alive = list(state.alive)
        alive[i] = False
        return replace(state, alive=tuple(alive),
                       deaths=state.deaths + 1), None

    # -- the kernel barrier --------------------------------------------------

    def _barrier_epoch(self, state: ShardState) -> int:
        live = [state.acked[i] for i in range(self.num_shards)
                if state.alive[i]]
        if not live:
            return state.epoch
        if self.mutation == EPOCH_MAX:
            return max(live)  # mutant: optimistic aggregation
        return min(live)

    def _barrier_kills(self, state: ShardState) -> List[int]:
        kills = [pid for i in range(self.num_shards) if not state.alive[i]
                 for pid in self.pids_of(i) if pid not in state.killed]
        if self.mutation == MIS_SCOPED_KILL and kills:
            # Mutant: the kill sweep leaks past the dead shard onto the
            # first live shard's first un-killed pid.
            for i in range(self.num_shards):
                if state.alive[i]:
                    for pid in self.pids_of(i):
                        if pid not in state.killed:
                            kills.append(pid)
                            break
                    break
        return kills

    def _barrier_would_act(self, state: ShardState) -> bool:
        return (self._barrier_epoch(state) != state.epoch
                or bool(self._barrier_kills(state)))

    def _apply_barrier(self, state: ShardState):
        epoch = self._barrier_epoch(state)
        kills = self._barrier_kills(state)
        child = replace(state, epoch=epoch,
                        killed=tuple(sorted(set(state.killed) | set(kills))))
        if epoch < state.epoch:
            return child, (f"ack epoch regressed: {state.epoch} -> {epoch}")
        for i in range(self.num_shards):
            if child.alive[i] and epoch > child.acked[i]:
                return child, (
                    f"ack epoch {epoch} ran ahead of live shard {i} "
                    f"(acked {child.acked[i]}): the barrier would prove "
                    f"unvalidated pids innocent")
        for pid in kills:
            if child.alive[self.owner(pid)]:
                return child, (
                    f"mis-scoped kill: pid {pid} killed while its shard "
                    f"{self.owner(pid)} is alive")
        return child, None

    def apply(self, state: ShardState, step: Step):
        return step.fn(state)

    def terminal_violation(self, state: ShardState) -> Optional[str]:
        live = [state.acked[i] for i in range(self.num_shards)
                if state.alive[i]]
        if live and state.epoch != min(live):
            return (f"terminal epoch {state.epoch} is not the minimum "
                    f"over live shards {live}")
        for i in range(self.num_shards):
            if not state.alive[i]:
                missing = [pid for pid in self.pids_of(i)
                           if pid not in state.killed]
                if missing:
                    return (f"fail-closed hole: shard {i} died but pids "
                            f"{missing} were never killed")
        for pid in state.killed:
            if state.alive[self.owner(pid)]:
                return (f"mis-scoped kill: pid {pid} dead, shard "
                        f"{self.owner(pid)} alive")
        return None


# ---------------------------------------------------------------------------
# Model ↔ implementation conformance
# ---------------------------------------------------------------------------

def conformance_check(num_shards: int = 3,
                      pids: int = 6) -> Dict[str, object]:
    """Drive a real :class:`ShardedVerifier` through every single-death
    scenario and compare its decisions with the abstract model's.

    For each choice of dead shard: register ``pids`` processes, give
    every shard a distinct acked position, crash the chosen shard, and
    check (a) ``shard_down_for`` — the one query the kernel barrier
    kills on — is true exactly for the dead shard's pids, (b)
    ``ack_epoch`` equals the minimum over *live* shards' acked
    positions, and (c) every condemned pid — and no survivor — carries
    a ``shard-terminated`` violation.

    Returns ``{"cases": n, "mismatches": [...]}``; an empty mismatch
    list is the pass condition.
    """
    from repro.core.shard_verifier import ShardedVerifier, resolve_policy

    mismatches: List[str] = []
    cases = 0
    for dead in range(num_shards):
        verifier = ShardedVerifier(resolve_policy("call-counter"),
                                   num_shards)
        try:
            pid_list = list(range(1000, 1000 + pids))
            for pid in pid_list:
                verifier.register_process(pid)
            owners = {pid: verifier.shard_of(pid) for pid in pid_list}
            # Distinct per-shard ack positions so min/max diverge.
            for engine in verifier.shards:
                engine.ring.ack(4 * (engine.shard_id + 1))
            verifier.crash_shard(dead)
            live_acked = [engine.ring.acked()
                          for engine in verifier.shards if engine.alive]
            expected_epoch = min(live_acked)
            if verifier.ack_epoch() != expected_epoch:
                mismatches.append(
                    f"dead={dead}: ack_epoch {verifier.ack_epoch()} != "
                    f"min over live {expected_epoch}")
            for pid in pid_list:
                cases += 1
                model_kill = owners[pid] == dead
                if verifier.shard_down_for(pid) != model_kill:
                    mismatches.append(
                        f"dead={dead} pid={pid}: shard_down_for "
                        f"{verifier.shard_down_for(pid)} != model "
                        f"{model_kill}")
                condemned = any(
                    v.kind == "shard-terminated"
                    for v in verifier.all_violations(pid))
                if condemned != model_kill:
                    mismatches.append(
                        f"dead={dead} pid={pid}: shard-terminated "
                        f"violation {condemned} != model {model_kill}")
        finally:
            verifier.close()
    return {"cases": cases, "mismatches": mismatches}
