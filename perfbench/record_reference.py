"""Regenerate ``reference.json``: the digest every operation must reproduce.

Usage, from the repository root::

    python3 perfbench/record_reference.py

corpus and steady results do not depend on the seed (it moves ASLR and
the program order only), so one digest is recorded per input; the
recorder runs each input under several seeds and on both interpreter
tiers and refuses to record an input whose digest changes.  soak
results depend on the seed, so one digest is recorded per traffic seed
of the run seeds in ``SOAK_RUN_SEEDS``.  Each must equal the digest of
the same traffic on the sharded verifier, which is the reference
``run.py`` falls back on for seeds not recorded here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run, workloads  # noqa: E402

CHECK_SEEDS = (1, 2, 3)
#: Run seeds whose soak traffic seeds are recorded.
SOAK_RUN_SEEDS = range(0, 65)


def program_digests(inputs) -> dict:
    from repro.core.framework import run_program
    digests = {}
    for inp in sorted(inputs):
        seen = set()
        for seed in CHECK_SEEDS:
            for tier in ("vm", "closure"):
                result = workloads.run_input(
                    run_program, workloads.build(inp), inp, seed,
                    exec_option_overrides={"interp_tier": tier})
                if result.outcome != "ok":
                    raise SystemExit(f"{inp.name}: outcome {result.outcome}")
                seen.add(workloads.result_digest(result))
        if len(seen) != 1:
            raise SystemExit(f"{inp.name}: digest varies with seed or tier")
        digests[inp.name] = seen.pop()
    return digests


def soak_digests() -> dict:
    from repro.traffic.engine import run_traffic
    digests = {}
    for seed in (s for run_seed in SOAK_RUN_SEEDS
                 for s in workloads.soak_seeds(run_seed)):
        report = run_traffic(workloads.soak_config(seed))
        errors = workloads.soak_invariant_errors(report)
        if errors or workloads.soak_failures(report):
            raise SystemExit(f"soak seed {seed}: {errors or 'failures'}")
        digest = workloads.soak_digest(report)
        sharded = run_traffic(workloads.soak_config(seed, shards=2))
        if workloads.soak_digest(sharded) != digest:
            raise SystemExit(f"soak seed {seed}: sharded report differs")
        digests[str(seed)] = digest
    return digests


def main() -> int:
    run.import_program()
    try:
        reference = {
            "corpus": program_digests(workloads.corpus_inputs(1)),
            "steady": program_digests(workloads.steady_inputs(1)),
            "soak": soak_digests(),
        }
    finally:
        run.stop_helper_processes()
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: " + ", ".join(
        f"{len(digests)} {name}" for name, digests in reference.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
