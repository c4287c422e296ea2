#!/usr/bin/env python3
"""Record ``reference.json``: the outputs the benchmark checks operation 0 against.

    python3 perfbench/record_reference.py

Run from the repository root. For each workload it makes the shortest
traced run at full scale, as ``run.py --trace 1`` does: operation 0 (the
fixed reference seed) untraced, whose comparable outputs it stores, then
traced operations, whose calls per replicate of the counted functions it
stores. Re-record only when a change is meant to alter results beyond
the checks' tolerance, and say so in the change.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile

import run  # sets OPENBLAS_NUM_THREADS before numpy loads

import numpy  # noqa: E402
import scipy  # noqa: E402

import gcm.cli  # noqa: E402  (run put src/ on the path)
from run import tracing, workloads  # noqa: E402


def main() -> int:
    outputs, per_rep = {}, {}
    os.makedirs(run.OUT, exist_ok=True)
    # results do not depend on GCM_THREADS; traced runs keep every span in this process
    os.environ["GCM_THREADS"] = "1"
    for name in workloads.NAMES:
        workload = workloads.make(name)
        work = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT)
        try:
            workload.setup(work)
            tracer = tracing.Tracer(gcm)
            # seconds=0: just the minimum traced run, starting with operation 0
            results, _ = run.run_ops(workload, gcm.cli, work, 0, 0.0, None, tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        per_rep[name], problems = run.per_rep(tracer)
        problems += [p for r in results for p in r.problems]
        if problems:
            print(f"{name}: outputs failed their checks: {problems}", file=sys.stderr)
            return 1
        outputs[name] = results[0].reference
        print(f"{name}: recorded; calls per replicate {per_rep[name]}")
    doc = {
        "recorded_with": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "per_rep": per_rep,
        "outputs": outputs,
    }
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
