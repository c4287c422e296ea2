"""The gcm call surface that the benchmark in perfbench/ pins.

The traced benchmark run wraps the functions named in perfbench/tracer.py
by module attribute, and fails when a per-replicate call count differs from
perfbench/reference.json. One small traced operation of each workload runs
here, so that a change to that surface fails in the test suite first. Names
and counts are read from perfbench/, never copied.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import gcm
import gcm.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Import perfbench/<name>.py as module perfbench_<name>, leaving sys.path alone."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracer")
# workloads.py imports its sibling as top-level `checks`: bind that name only while it loads
_saved_checks = sys.modules.get("checks")
sys.modules["checks"] = _load("checks")
try:
    workloads = _load("workloads")
finally:
    if _saved_checks is None:
        del sys.modules["checks"]
    else:
        sys.modules["checks"] = _saved_checks

SMALL = workloads.Scale(
    level_reps=3,
    consistency_reps=3,
    csv_group_size=20,
    csv_min_iterations=1,
    use_reference=False,
)


def test_traced_names_resolve_on_gcm_modules():
    for mod, fn in tracing.TRACED:
        assert callable(getattr(getattr(gcm, mod), fn, None)), f"gcm.{mod}.{fn}"


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_operation_reproduces_recorded_call_counts(name, tmp_path, monkeypatch):
    # the benchmark traces on one worker, so every span stays in this process
    monkeypatch.setenv("GCM_THREADS", "1")
    workload = workloads.make(name, SMALL)
    workload.setup(str(tmp_path))
    tracer = tracing.Tracer(gcm)
    tracer.trace_id = 1
    tracer.install()
    try:
        result = workload.run_op(gcm.cli, str(tmp_path), seed=1, index=1, reference=None)
    finally:
        tracer.uninstall()
    # statistical checks are meaningless at this scale; the commands must succeed
    assert not [p for p in result.problems if "exited with" in p], result.problems
    recorded = json.loads((PERFBENCH / "reference.json").read_text())["per_rep"][name]
    counts = tracing.per_replicate_counts(tracer)
    assert {n: sorted(set(v)) for n, v in counts.items()} == {
        n: [recorded[n]] for n in tracing.PER_REP
    }
