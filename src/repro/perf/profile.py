"""Versioned performance-profile schema.

A profile holds one commit's measured metrics: what ``perf_history/``
stores per commit and what the CI perf gate compares and runs
degradation detectors over.  ``python -m repro.perf`` builds it from
perfbench's numbers (:mod:`repro.perf.runner`).

Schema (``repro.perf/1``)::

    {
      "schema": "repro.perf/1",
      "environment": {
        "python": "3.12.3",
        "implementation": "cpython",
        "hostname_class": "linux-x86_64",
        "commit": "<sha or 'worktree'>",
        "quick": false,
        "recorded_at": "2026-08-08T12:00:00Z"   # optional
      },
      "metrics": {
        "perfbench.soak.work_per_s": {
          "value": 4820.0,
          "unit": "1/s",
          "rounds": 1,            # best-of-N rounds behind the number
          "direction": "higher"   # which way is better
        },
        ...
      },
      "sources": {"perfbench": {...free-form provenance...}}
    }

``rounds`` matters: the degradation detectors scale their noise
allowance by ``1/sqrt(rounds)``, so a best-of-3 throughput number is
judged more tightly than a single wall-clock sample.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

#: Current schema tag.  Bump the integer on incompatible changes and
#: teach :func:`load` to migrate the old shape.
SCHEMA = "repro.perf/1"

#: Metric direction markers.
HIGHER = "higher"
LOWER = "lower"


class ProfileSchemaError(ValueError):
    """The payload is not a profile this code knows how to read."""


@dataclass(frozen=True)
class Metric:
    """One measured quantity inside a profile."""

    value: float
    unit: str = ""
    rounds: int = 1
    direction: str = HIGHER

    def to_json(self) -> Dict[str, object]:
        return {"value": self.value, "unit": self.unit,
                "rounds": self.rounds, "direction": self.direction}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "Metric":
        direction = str(payload.get("direction", HIGHER))
        if direction not in (HIGHER, LOWER):
            raise ProfileSchemaError(f"bad metric direction {direction!r}")
        return cls(value=float(payload["value"]),
                   unit=str(payload.get("unit", "")),
                   rounds=int(payload.get("rounds", 1)),
                   direction=direction)


def detect_commit(repo: str = ".") -> str:
    """Best-effort HEAD sha; ``'worktree'`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", repo, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "worktree"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "worktree"


def environment(commit: Optional[str] = None, quick: bool = False,
                timestamp: bool = True) -> Dict[str, object]:
    """The environment fingerprint stamped into every profile."""
    env: Dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation().lower(),
        "hostname_class": (f"{platform.system()}-{platform.machine()}"
                           .lower()),
        "commit": commit if commit is not None else detect_commit(),
        "quick": bool(quick),
    }
    if timestamp:
        env["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime())
    return env


def new_profile(metrics: Optional[Mapping[str, Metric]] = None,
                env: Optional[Mapping[str, object]] = None
                ) -> Dict[str, object]:
    """A fresh, schema-stamped profile payload."""
    return {
        "schema": SCHEMA,
        "environment": dict(env) if env is not None else environment(),
        "metrics": {name: metric.to_json()
                    for name, metric in (metrics or {}).items()},
        "sources": {},
    }


def _migrate_v0(payload: Mapping[str, object]) -> Dict[str, object]:
    """Migrate the pre-versioning shape (bare ``{"metrics": {name:
    number}}``, no schema tag) into a v1 profile."""
    metrics = {}
    for name, value in payload.get("metrics", {}).items():  # type: ignore
        if isinstance(value, Mapping):
            metrics[name] = Metric.from_json(value)
        else:
            metrics[name] = Metric(value=float(value))
    profile = new_profile(metrics,
                          env=payload.get("environment") or {})
    profile["migrated_from"] = "repro.perf/0"
    return profile


def validate(payload: Mapping[str, object]) -> Dict[str, object]:
    """Return ``payload`` as a v1 profile, migrating older shapes.

    Raises :class:`ProfileSchemaError` for unknown schemas or malformed
    metric entries.
    """
    schema = payload.get("schema")
    if schema is None:
        if "metrics" in payload and "benchmarks" not in payload:
            return _migrate_v0(payload)
        raise ProfileSchemaError("payload has no 'schema' tag and is not "
                                 "a v0 profile")
    if schema != SCHEMA:
        raise ProfileSchemaError(f"unsupported profile schema {schema!r} "
                                 f"(this tree reads {SCHEMA!r})")
    profile = dict(payload)
    profile["metrics"] = {
        name: Metric.from_json(entry).to_json()
        for name, entry in payload.get("metrics", {}).items()}
    profile.setdefault("environment", {})
    profile.setdefault("sources", {})
    return profile


def load(path: str) -> Dict[str, object]:
    """Load and validate the profile at ``path``."""
    with open(path, encoding="utf-8") as handle:
        return validate(json.load(handle))


def metrics_of(profile: Mapping[str, object]) -> Dict[str, Metric]:
    """The profile's metrics as :class:`Metric` objects."""
    return {name: Metric.from_json(entry)
            for name, entry in profile.get("metrics", {}).items()}


def dump(profile: Mapping[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile, handle, indent=2, sort_keys=True)
        handle.write("\n")
