#!/usr/bin/env python3
"""Small-scale self-test of the benchmark itself (under a minute).

    python3 perfbench/selftest.py

Run from the repository root. It checks that:

- every workload, traced and untraced, prints every metric BENCHMARK.json
  names, with its declared unit, and passes its output checks;
- the output checks fail when a report is corrupted: a non-finite value,
  a wrong replicate count, a malformed value, an inconsistent p-value, a
  reference mismatch;
- a traced run fails when a per-replicate call count differs from the
  recorded one;
- the benchmark exits non-zero without a result line when the gcm sources
  are missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run  # sets OPENBLAS_NUM_THREADS before numpy loads

import gcm.cli  # noqa: E402  (run put src/ on the path)

import checks  # noqa: E402
from run import workloads  # noqa: E402

SMALL = workloads.Scale(
    level_reps=200,
    consistency_reps=100,
    csv_group_size=100,
    csv_min_iterations=3,
    use_reference=False,
)

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_metrics_printed() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    for name in workloads.NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run(name, seed=7, seconds=1.0, trace=trace, scale=SMALL)
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in bench[section]}
            printed = {k: v["unit"] for k, v in metrics.items()}
            finite = all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in metrics.values()
            )
            label = f"{name} trace={int(trace)}"
            expect(printed == wanted, f"{label}: every {section} metric printed with its unit")
            expect(finite, f"{label}: every value is a finite number")
            expect(result["correct"] and result["failed"] == 0, f"{label}: output checks pass")


class CorruptingCli:
    """Runs gcm.cli.main, then damages the report of one subcommand."""

    def __init__(self, command: str, corrupt):
        self.command = command
        self.corrupt = corrupt

    def main(self, argv):
        code = gcm.cli.main(argv)
        if argv[0] == self.command:
            path = os.path.join(argv[argv.index("--out") + 1], "report.json")
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.corrupt(text))
        return code


def replace_value(key: str, value: str):
    """Corruption that rewrites the first JSON value of ``key`` as ``value``."""
    def corrupt(text: str) -> str:
        start = text.index(f'"{key}": ') + len(key) + 4
        end = min(text.index(c, start) for c in ",\n" if c in text[start:])
        return text[:start] + value + text[end:]
    return corrupt


def check_corruption_detected() -> None:
    cases = {
        "level": [
            ("mc-level", replace_value("rejection_rate", "NaN"), "NaN rejection rate"),
            ("mc-level", replace_value("alt_rejection_rate", "Infinity"), "Infinity"),
        ],
        "consistency": [
            ("mc-consistency", replace_value("successes", "99"), "lost replicate"),
            ("mc-consistency", replace_value("median_h_gap", "0.5"),
             "median disagrees with dump"),
            ("mc-consistency", replace_value("median_sigma_err", '"oops"'), "malformed value"),
        ],
        "csv_fit": [
            ("test", replace_value("p_value", "0.5"), "inconsistent p-value"),
            ("estimate", replace_value("gamma_err_fro", "1.0"), "wrong truth error"),
        ],
    }
    os.environ["GCM_THREADS"] = "1"
    for name, corruptions in cases.items():
        workload = workloads.make(name, SMALL)
        work = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            workload.setup(work)
            clean = workload.run_op(gcm.cli, work, 7, 1, None)
            expect(not clean.problems, f"{name}: clean operation passes")
            for command, corrupt, what in corruptions:
                bad = workload.run_op(CorruptingCli(command, corrupt), work, 7, 1, None)
                expect(bool(bad.problems) and bad.ok == 0,
                       f"{name}: corrupted report fails ({what})")
            ref = workload.run_op(gcm.cli, work, 7, 0, None).reference
            drift = workload.run_op(gcm.cli, work, 7, 0, _perturb(ref, 1e-7))
            same = workload.run_op(gcm.cli, work, 7, 0, _perturb(ref, 1e-12))
            expect(bool(drift.problems), f"{name}: reference drift of 1e-7 fails")
            expect(not same.problems, f"{name}: reference drift of 1e-12 passes")
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _perturb(obj, rel: float):
    """Copy of ``obj`` with its first nonzero float scaled by 1 + rel."""
    done = [False]

    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in sorted(x.items())}
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, float) and x != 0.0 and not done[0]:
            done[0] = True
            return x * (1.0 + rel)
        return x

    return walk(obj)


def check_recorded_counts() -> None:
    os.environ["GCM_THREADS"] = "1"
    workload = workloads.make("level", SMALL)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        workload.setup(work)
        tracer = run.tracing.Tracer(gcm)
        results, _ = run.run_ops(workload, gcm.cli, work, 7, 0.0, None, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counts, _ = run.per_rep(tracer)
    _, same = run.per_layer(results, tracer, counts)
    expect(not same, "level: per-replicate counts equal to the recorded ones pass")
    recorded = dict(counts, **{"linalg.solve_spd": counts["linalg.solve_spd"] + 1})
    _, changed = run.per_layer(results, tracer, recorded)
    expect(bool(changed), "level: a per-replicate count other than the recorded one fails")


def check_missing_sources_fail() -> None:
    root = tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
        shutil.copytree(run.HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "level", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    expect(checks.strict_loads("[1.5]") == [1.5], "strict JSON accepts finite numbers")
    for token in ("NaN", "Infinity", "-Infinity"):
        try:
            checks.strict_loads(f"[{token}]")
            rejected = False
        except ValueError:
            rejected = True
        expect(rejected, f"strict JSON rejects {token}")
    check_corruption_detected()
    check_recorded_counts()
    check_missing_sources_fail()
    check_metrics_printed()
    print(f"{len(failures)} check(s) failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
