"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import pytest

from perfbench import run, spans, workloads
from perfbench.workloads import Input

run.import_program()

#: Two small corpus inputs, enough to drive every corpus layer.
SMALL = [Input("429.mcf", "train", "hq-sfestk"),
         Input("nginx", "train", "hq-retptr")]


class FakeClock:
    """Returns scripted timestamps, one per call."""

    def __init__(self, *ticks: int) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> int:
        return self.ticks.pop(0)


def small_bench(reference=None) -> run.ProgramBench:
    bench = run.make_bench("corpus", 1)
    bench.inputs = list(SMALL)
    if reference is not None:
        bench.reference = reference
    return bench


def test_self_time_of_nested_call_tree():
    # a [0, 100] calls b [10, 40] and c [50, 60]; b calls c [20, 30]
    # and re-enters a, which must count neither a call nor time.
    clock = FakeClock(0, 10, 20, 30, 40, 50, 60, 100)
    tracer = spans.Tracer(clock)
    a = tracer.wrap("compiler")(lambda fn: fn())
    b = tracer.wrap("core.runtime", pid=lambda args: 7)(lambda fn: fn())
    c = tracer.wrap("sim.lower")(lambda: None)

    def b_body():
        c()
        a(lambda: None)  # re-entry: untraced

    a(lambda: (b(b_body), c()))
    totals = tracer.layer_totals()
    assert totals["compiler"] == [1, 100, 60]
    assert totals["core.runtime"] == [1, 30, 20]
    assert totals["sim.lower"] == [2, 20, 20]
    assert tracer.self_ns_sum() == 100
    # Coarse spans nest by id; the fine layer is aggregated under its
    # enclosing coarse span with its pid.
    outer = next(s for s in tracer.spans if s["layer"] == "compiler")
    inner = [s for s in tracer.spans if s["layer"] == "sim.lower"]
    assert all(s["parent"] == outer["id"] for s in inner)
    assert outer["agg"] == {("core.runtime", 7): [1, 30, 20]}


def _patched_attributes():
    targets = {}
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    for owner, name, _original in patches._undo:
        targets[(owner, name)] = owner.__dict__[name]
    patches.undo()
    return targets


def test_wrappers_removed_after_traced_run():
    targets = _patched_attributes()
    originals = {key: key[0].__dict__[key[1]] for key in targets}
    assert all(targets[key] is not originals[key] for key in targets)
    tracer, untraced, traced = run.traced_run(small_bench(), 0.01)
    assert tracer.spans and untraced and traced
    for owner, name in targets:
        assert owner.__dict__[name] is originals[(owner, name)]


def test_wrappers_removed_when_a_traced_pass_raises():
    class Broken:
        workload = "corpus"

        def run_pass(self, wrap_root):
            raise RuntimeError("boom")

    targets = _patched_attributes()
    originals = {key: key[0].__dict__[key[1]] for key in targets}
    with pytest.raises(RuntimeError):
        run.traced_run(Broken(), 0.01)
    for owner, name in targets:
        assert owner.__dict__[name] is originals[(owner, name)]


def test_traced_pass_reports_every_layer_metric_and_reconciles():
    bench = small_bench()
    tracer, untraced, traced = run.traced_run(bench, 0.01)
    metrics = run.per_layer_metrics(tracer, traced, untraced, [])
    assert set(metrics) == {name for name, _unit, _better in run.PER_LAYER}
    assert abs(metrics["trace.coverage"] - 1) < run.COVERAGE_TOLERANCE
    for layer in ("compiler", "sim.lower", "sim.exec", "core.runtime",
                  "core.verifier", "sim.process", "core.framework"):
        assert metrics[f"{layer}.calls"] > 0
    assert {span["run"] for span in tracer.spans} == {1, 2}


def test_tampered_digest_counts_as_failed():
    bench = small_bench()
    assert all(op.failed == 0 for op in bench.run_pass(run._untraced))
    tampered = dict(bench.reference)
    tampered[SMALL[0].name] = "0" * 20
    ops = small_bench(tampered).run_pass(run._untraced)
    assert sum(op.failed for op in ops) == 1
    assert ops[0].error and SMALL[0].name in ops[0].error


def test_tampered_soak_reference_fails_every_session():
    bench = run.make_bench("soak", 1)
    bench.traffic_seeds = bench.traffic_seeds[:1]
    bench.expected = {bench.traffic_seeds[0]: "0" * 20}
    [op] = bench.run_pass(run._untraced)
    assert op.failed == op.attempted > 0


def test_same_seed_gives_identical_digests():
    from repro.core.framework import run_program
    from repro.traffic.engine import run_traffic

    def digests():
        return [workloads.result_digest(workloads.run_input(
            run_program, workloads.build(inp), inp, 5)) for inp in SMALL]

    assert digests() == digests()
    soak = [workloads.soak_digest(run_traffic(workloads.soak_config(5)))
            for _ in range(2)]
    assert soak[0] == soak[1]
    assert workloads.corpus_inputs(5) == workloads.corpus_inputs(5)
    assert workloads.corpus_inputs(5) != workloads.corpus_inputs(6)


def test_benchmark_json_matches_metric_tables():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        doc = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
