"""The three benchmark workloads: inputs, one timed pass, result digests.

Each workload is a list of *operations* the benchmark times one by one:

* ``corpus``: every generator profile x {train, ref} x {hq-sfestk,
  hq-retptr} on the ``uarch`` channel, one cold ``run_program`` call
  each (the paper's Figure 3-5 shape: every call pays compile and VM
  lowering, as users do).
* ``steady``: the four most message-dense profiles on the train input
  with iterations scaled up, under hq-retptr with two inline verifier
  shards, so compile time is amortised and execution, runtime sends,
  the channel and the sharded verifier dominate.
* ``soak``: one ``run_traffic`` call per operation (inline verifier,
  bounded polls of ``poll_budget`` messages per tick), so no compiler
  or interpreter runs and process setup, the bounded verifier route and
  the kernel barrier dominate.

The seed sets the ASLR seed and the program order for corpus/steady and
the ``TrafficConfig.seed`` of each soak operation.  Module building is
input generation: the benchmark does it before timing each operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from random import Random
from typing import Callable, Dict, List, NamedTuple, Optional

CORPUS_DATASETS = ("train", "ref")
CORPUS_DESIGNS = ("hq-sfestk", "hq-retptr")
STEADY_PROFILES = ("483.xalancbmk", "403.gcc", "471.omnetpp", "nginx")
#: Iteration multiplier for steady: large enough that compile and
#: lowering are a few percent of each run.
STEADY_SCALE = 15
STEADY_SHARDS = 2
#: TrafficConfig defaults, except the phase list: the default surge
#: phase deliberately sheds about a third of its sessions, and a shed
#: session is a failed operation.  Warmup then steady at two arrivals
#: per tick offers all 500 sessions below the shed watermark while the
#: verifier still drains at most ``poll_budget`` messages per tick.
SOAK_SESSIONS = 500
SOAK_PHASES = "warmup,steady:225,drain"
#: Traffic runs per soak pass, each with its own seed.  How much work
#: 500 sessions make depends on the seed (forks alone vary by +-12%),
#: so a pass sums several to keep the work per pass close across seeds.
SOAK_RUNS = 4
#: Corpus inputs re-run on the closure interpreter tier per run.
CLOSURE_SAMPLE = 6

WORKLOADS = ("corpus", "steady", "soak")


class Input(NamedTuple):
    """One program run: a profile on a dataset under a design."""

    profile: str
    dataset: str
    design: str
    scale: int = 1
    shards: Optional[int] = None

    @property
    def name(self) -> str:
        return f"{self.profile}/{self.dataset}/{self.design}"


def corpus_inputs(seed: int) -> List[Input]:
    from repro.workloads.profiles import PROFILES
    inputs = [Input(p.name, dataset, design) for p in PROFILES
              for dataset in CORPUS_DATASETS for design in CORPUS_DESIGNS]
    Random(seed).shuffle(inputs)
    return inputs


def steady_inputs(seed: int) -> List[Input]:
    inputs = [Input(name, "train", "hq-retptr", STEADY_SCALE, STEADY_SHARDS)
              for name in STEADY_PROFILES]
    Random(seed).shuffle(inputs)
    return inputs


def build(inp: Input):
    """A fresh module for ``inp`` (``run_program`` mutates its module)."""
    from repro.workloads.generator import build_module
    from repro.workloads.profiles import get_profile
    profile = get_profile(inp.profile)
    if inp.scale != 1:
        profile = dataclasses.replace(
            profile, iterations=profile.iterations * inp.scale)
    return build_module(profile, inp.dataset)


def run_input(run_program: Callable, module, inp: Input, seed: int,
              exec_option_overrides: Optional[dict] = None):
    return run_program(module, design=inp.design, channel="uarch",
                       kill_on_violation=False, seed=seed, shards=inp.shards,
                       exec_option_overrides=exec_option_overrides)


def soak_seeds(seed: int) -> List[int]:
    """The ``TrafficConfig.seed`` of each run in a soak pass."""
    return [seed * SOAK_RUNS + k for k in range(SOAK_RUNS)]


def soak_config(seed: int, shards: Optional[int] = None):
    from repro.traffic.engine import TrafficConfig
    return TrafficConfig(sessions=SOAK_SESSIONS, phases=SOAK_PHASES,
                         seed=seed, shards=shards, observe=False)


# -- digests -------------------------------------------------------------------

def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def result_digest(result) -> str:
    """Everything a program run observably produced, hashed."""
    return _digest({
        "outcome": result.outcome,
        "exit_status": result.exit_status,
        "output": list(result.output),
        "violations": [v.kind for v in result.violations],
        "messages_sent": result.messages_sent,
        "steps": result.steps,
        "cycles": result.cycles,
    })


def soak_digest(report: Dict) -> str:
    return _digest({key: report[key]
                    for key in ("totals", "slo", "gc", "leaks")})


def soak_failures(report: Dict) -> int:
    """Sessions that failed: shed, benign and killed, or escaped attacks."""
    totals = report["totals"]
    attacks = totals["attacks"]
    benign_killed = totals["killed"] - attacks["detected"]
    return totals["shed"] + benign_killed + attacks["escaped"]


def soak_invariant_errors(report: Dict) -> List[str]:
    """Fail-closed and leak invariants every soak pass must meet."""
    totals = report["totals"]
    attacks = totals["attacks"]
    errors = []
    if attacks["escaped"]:
        errors.append(f"{attacks['escaped']} attack sessions escaped")
    if attacks["wins"]:
        errors.append(f"attack marker executed {attacks['wins']} times")
    if any(report["leaks"].values()):
        errors.append(f"leaks: {report['leaks']}")
    if totals["duration_capped"]:
        errors.append("run hit the duration cap")
    return errors


def load_reference(path) -> Dict[str, Dict[str, str]]:
    with open(path) as handle:
        return json.load(handle)
