"""Record the reference outputs of every workload at DEFAULT_SEED.

    python3 perfbench/record.py [workload ...]

Run from the repository root. Each op's output is first checked against the
benchmark's independent computations, so a reference is only written for
output that passes them. Rerun only when a change to the package is meant to
change its results, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS  # noqa: E402


def record(name: str) -> None:
    workload = WORKLOADS[name]()
    work = Path.cwd() / ".perfbench" / f"record-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(DEFAULT_SEED, work)
        ref: dict = {}
        for op in workload.ops():
            output = workload.run(op)
            ref.update(workload.reference_of(op, output))
            problems = workload.check(op, output)
            if problems:
                raise SystemExit(f"{name} op {op} fails its checks: {problems}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.mkdir(exist_ok=True)
    if name == "simulate-heat":
        np.savez(REFERENCES / f"{name}.npz", **ref)
    else:
        (REFERENCES / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {name}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        record(name)
