"""Performance-history subsystem (``python -m repro.perf``).

Per-commit performance profiles measured by perfbench, a
``perf_history/`` store, statistical degradation detectors over the
trajectory, and the single CI perf gate.  See
:mod:`repro.perf.runner` for the measurement, :mod:`repro.perf.profile`
for the schema, :mod:`repro.perf.detect` for the detector math, and
:mod:`repro.perf.gate` for the gate contract.
"""

from repro.perf.profile import (  # noqa: F401
    HIGHER, LOWER, Metric, ProfileSchemaError, SCHEMA,
)
