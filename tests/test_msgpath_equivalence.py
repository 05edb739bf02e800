"""Property test: every verifier dispatch route agrees with the
reference models.

The verifier has one dispatch route, ``Verifier._dispatch_words``, and
each policy one definition, its ``handlers()`` table.  The routes that
reach it differ in how the work is sliced:

* **unbounded** — ``Verifier.poll()`` dispatches each batch as it
  arrives;
* **bounded** — ``Verifier.poll(max_messages=B)`` for B in 1, 7, 192
  queues what the budget leaves over and dispatches it in later polls;
* **sharded** — a 2-shard ``ShardedVerifier`` routes per-pid runs to
  shard rings and drains them.

For any stream — including batches with an unknown opcode or a
truncated tail — all routes must agree with each other and with the
legacy per-message ``handle`` bodies kept in
:mod:`tests.policy_reference` on violations (kind, detail),
:class:`PolicyStats`, syscall tokens, integrity failures and the
policy's end state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.sharding import pack_stream
from repro.core.messages import Op
from repro.core.shard_verifier import ShardedVerifier, resolve_policy
from repro.core.verifier import Verifier
from tests.policy_reference import REFERENCE_FACTORIES, reference_run
from tests.test_sharding import _StubChannel

PID = 7

#: An opcode the wire codec does not know.
_UNKNOWN_OP = 0xBEEF

#: Small pools so defines/checks (and stores/loads, sources/sinks)
#: collide often enough to exercise both accept and violate branches.
_ADDRESSES = st.sampled_from([0x10, 0x20, 0x30, 0x1000])
_VALUES = st.sampled_from([0, 1, 0x40, 0xDEAD, 2 ** 63])
_KINDS = st.sampled_from([1, 2, 10, 11, 12, 20, 21, 22])

_EVENTS = st.one_of(
    st.tuples(st.sampled_from([int(op) for op in Op
                               if op is not Op.SYSCALL]),
              _ADDRESSES, _VALUES,
              st.integers(min_value=0, max_value=2 ** 32 - 1)),
    st.tuples(st.just(int(Op.EVENT)), _KINDS, _ADDRESSES,
              st.integers(min_value=0, max_value=2 ** 20)),
    st.tuples(st.just(int(Op.SYSCALL)), st.sampled_from([0, 1, 60]),
              st.just(0), st.just(0)),
)


@st.composite
def _batches(draw, policy_ops):
    """Packed word batches of one event stream.  Some events repeat an
    earlier payload under one of the policy's own ops (define then
    check-invalidate the same pointer, store then check the same slot);
    a few batches carry an unknown opcode or lose their last word in
    transit."""
    events = draw(st.lists(_EVENTS, min_size=16, max_size=60))
    for i in range(1, len(events)):
        if draw(st.booleans()):
            _, arg0, arg1, aux = events[
                draw(st.integers(min_value=0, max_value=i - 1))]
            op = draw(st.sampled_from(policy_ops))
            if op == int(Op.EVENT):
                arg0 = draw(_KINDS)
            events[i] = (op, arg0, arg1, aux)
    cuts = sorted(draw(st.lists(st.integers(min_value=1,
                                            max_value=max(len(events), 1)),
                                max_size=6)))
    batches = []
    for start, end in zip([0] + cuts, cuts + [len(events)]):
        chunk = events[start:end]
        if not chunk:
            continue
        fault = draw(st.sampled_from(["clean"] * 6
                                     + ["unknown-opcode", "truncated"]))
        if fault == "unknown-opcode":
            at = draw(st.integers(min_value=0, max_value=len(chunk)))
            chunk = chunk[:at] + [(_UNKNOWN_OP, 0, 0, 0)] + chunk[at:]
        words = pack_stream(PID, chunk)
        if fault == "truncated":
            words = words[:-1]
        batches.append(words)
    return batches


def _snapshot(liaison):
    stats = liaison.stats[PID]
    return {
        "violations": [(v.kind, v.detail) for v in liaison.violations[PID]],
        "stats": (stats.messages_processed, stats.violations,
                  stats.max_entries, stats.by_op),
        "tokens": liaison._syscall_tokens.get(PID, 0),
        "entries": liaison.contexts[PID].entry_count(),
        "integrity": list(liaison.integrity_failures),
    }


def _unordered(snapshot):
    """Bounded and sharded routes may record an integrity failure at a
    different point relative to other verdicts (a truncated batch is
    refused on receipt, a shard's on the poll's end): compare those as
    multisets."""
    return dict(snapshot, violations=sorted(snapshot["violations"]),
                integrity=sorted(snapshot["integrity"]))


def _run_route(policy_name, batches, budget=None, shards=None):
    """Feed ``batches`` through one route; snapshot the verdicts."""
    factory = resolve_policy(policy_name)
    liaison = (Verifier(factory) if shards is None
               else ShardedVerifier(factory, shards))
    channel = _StubChannel()
    liaison.attach_channel(channel)
    liaison.register_process(PID)
    try:
        for words in batches:
            channel.push(words)
            liaison.poll(budget)
        while liaison.backlog_size():
            liaison.poll(budget)
        return _snapshot(liaison)
    finally:
        if shards is not None:
            liaison.close()


def _run_reference(policy_name, batches):
    policy = REFERENCE_FACTORIES[policy_name]()
    violations, stats, tokens, integrity = reference_run(policy, PID,
                                                         batches)
    return {
        "violations": [(v.kind, v.detail) for v in violations],
        "stats": (stats.messages_processed, stats.violations,
                  stats.max_entries, stats.by_op),
        "tokens": tokens,
        "entries": policy.entry_count(),
        "integrity": integrity,
    }


@pytest.mark.parametrize("policy_name", sorted(REFERENCE_FACTORIES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_word_path_matches_legacy_paths(policy_name, data):
    policy_ops = sorted(resolve_policy(policy_name)().handlers())
    batches = data.draw(_batches(policy_ops))
    reference = _run_reference(policy_name, batches)
    assert _run_route(policy_name, batches) == reference
    unordered = _unordered(reference)
    for budget in (1, 7, 192):
        assert _unordered(_run_route(policy_name, batches,
                                     budget=budget)) == unordered
    assert _unordered(_run_route(policy_name, batches,
                                 shards=2)) == unordered
