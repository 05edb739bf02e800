"""Table 6: size of HerQules components in lines of code.

The paper reports the original C++/Verilog implementation at::

    FPGA  Kernel  Compiler  IPC Interfaces  Runtime  Verifier
    1250    1100      3350             900      350       750

This module measures the same breakdown over *this* reproduction by
mapping our Python modules onto the paper's components and counting
non-blank, non-comment source lines.  Absolute counts differ by
language and by what each codebase must carry (we also implement the
machine itself), but the *relative* weight — the compiler being by far
the largest component, the runtime the smallest — is the comparable
claim.
"""

from __future__ import annotations

import os
from typing import Dict, List

import repro

#: Paper component → our module paths (relative to the package root).
COMPONENT_MODULES: Dict[str, List[str]] = {
    # The FPGA AFU and the uarch datapath both live in the AppendWrite
    # implementation (plus the AMR enforcement inside the memory model).
    "fpga": ["ipc/appendwrite.py"],
    "kernel": ["sim/kernel.py"],
    "compiler": ["compiler"],
    "ipc-interfaces": ["ipc/base.py", "ipc/posix.py", "ipc/shared_memory.py",
                       "ipc/lwc.py", "ipc/registry.py", "ipc/latency.py"],
    "runtime": ["core/runtime.py"],
    "verifier": ["core/verifier.py", "core/policy.py", "cfi/hq_cfi.py",
                 "cfi/pointer_table.py"],
}

PAPER_TABLE6 = {
    "fpga": 1250, "kernel": 1100, "compiler": 3350,
    "ipc-interfaces": 900, "runtime": 350, "verifier": 750,
}


def count_source_lines(path: str) -> int:
    """Non-blank, non-comment physical lines in a Python file.

    Docstrings count as documentation, not code, and are skipped with a
    simple tracker (sufficient for this codebase's conventional style).
    """
    lines = 0
    in_doc = False
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            stripped = raw.strip()
            if not stripped:
                continue
            if in_doc:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_doc = False
                continue
            if stripped.startswith(('"""', "'''")):
                quote = stripped[:3]
                body = stripped[3:]
                if not (body.endswith(quote) and len(stripped) >= 6):
                    in_doc = True
                continue
            if stripped.startswith("#"):
                continue
            lines += 1
    return lines


def _walk(path: str) -> List[str]:
    if os.path.isfile(path):
        return [path]
    found = []
    for root, _, files in os.walk(path):
        for name in sorted(files):
            if name.endswith(".py"):
                found.append(os.path.join(root, name))
    return found


def source_lines(relpath: str = "") -> int:
    """:func:`count_source_lines` summed over a file or directory of
    the ``repro`` package (the whole package by default)."""
    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    return sum(count_source_lines(path)
               for path in _walk(os.path.join(package_root, relpath)))


def table6() -> Dict[str, int]:
    """Lines of code per paper component, measured on this repo."""
    return {component: sum(source_lines(relpath) for relpath in relpaths)
            for component, relpaths in COMPONENT_MODULES.items()}


def format_table6(counts: Dict[str, int]) -> str:
    lines = [f"{'Component':<16} {'This repo':>10} {'Paper':>8}"]
    for component, count in counts.items():
        lines.append(f"{component:<16} {count:>10} "
                     f"{PAPER_TABLE6[component]:>8}")
    return "\n".join(lines)
