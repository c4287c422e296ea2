#!/usr/bin/env python3
"""gcm benchmark: run one workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload level --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark imports ``gcm`` from ``src/``
and calls ``gcm.cli.main`` in this process. With ``--trace 0`` it measures
the end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced operations and reports per-layer metrics from spans,
including the tracing overhead. Times are scaled to a reference host speed
by a calibration kernel timed between steps (see ``calibrate``). Lines
before the last one describe the environment and the run; the last line is
the result object. Metric definitions and the layer-to-metric table are in
METRICS.md.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: one BLAS thread per process. With GCM_THREADS=1 (see
# run) every timed step then runs on one core, which the calibration kernel
# around it times.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

# Set-up (fresh-interpreter import plus input writing) is repeated this many
# times in an untraced run, spread evenly over it, and the median reported.
SETUP_REPEATS = 15

# The shared host the benchmark was written on ran the same operation at
# anywhere from 1x to 2x its quiet time, for minutes on end, with CPU time
# equal to wall time, so no statistic of raw times within a run was steady.
# A fixed kernel doing what gcm does (small numpy linear algebra, float
# formatting and parsing) is timed before the first step and after every
# step, and each step's time is multiplied by CAL_REF_S over the mean of the
# two kernel times around it: reference seconds, the step's time on a host
# where the kernel takes CAL_REF_S. The kernel does not use gcm, so only a
# change to the program moves the scaled times.
CAL_REF_S = 0.04
_CAL_Y = np.random.default_rng(0).standard_normal((500, 4))
_CAL_TABLE = np.random.default_rng(1).standard_normal((500, 6)).tolist()


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now (about CAL_REF_S on a quiet host)."""
    t0 = perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(250):
        y = _CAL_Y + rng.standard_normal(_CAL_Y.shape)
        s = y.T @ y / y.shape[0]
        np.linalg.cholesky(s)
        for _ in range(6):
            np.linalg.solve(s, y[:8].T)
    for _ in range(6):
        text = "\n".join(",".join("%.17g" % v for v in row) for row in _CAL_TABLE)
        [[float(f) for f in line.split(",")] for line in text.splitlines()]
    return perf_counter() - t0


def percentile(values: list, q: int) -> float:
    """The q-th percentile of ``values`` with linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_setup(workload, work: str) -> float:
    """Seconds to import gcm in a fresh interpreter and write the workload's inputs."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import gcm"], env=dict(os.environ, PYTHONPATH=SRC),
                   check=True)
    workload.setup(work)
    return perf_counter() - t0


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the processes it starts, on one CPU only."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_ops(
    workload, cli, work, seed, seconds, reference, tracer=None, setup_times=None
) -> tuple[list, list]:
    """Run operations until the next one would end past ``seconds``.

    Without a tracer every operation is untraced. With one, even-numbered
    operations run untraced and odd-numbered ones traced. Given a
    ``setup_times`` list, set-up is timed SETUP_REPEATS times between
    operations, spread evenly over ``seconds``, and its times in reference
    seconds appended. Each result's ``scale`` turns its wall time into
    reference seconds. Returns the results and every calibration time.
    """
    min_ops = workload.min_ops if tracer is None else workload.trace_min_ops
    results, totals = [], []
    cal = [calibrate()]

    def scale() -> float:
        """Calibrate after a step; the factor to reference seconds for that step."""
        cal.append(calibrate())
        return 2.0 * CAL_REF_S / (cal[-2] + cal[-1])

    def set_up() -> None:
        # The fresh interpreter is another process: pin it and the kernel
        # around it to one CPU, so that the kernel times the core it ran on.
        with one_cpu():
            cal.append(calibrate())
            raw = time_setup(workload, work)
            setup_times.append(raw * scale())

    t0 = perf_counter()
    while True:
        i = len(results)
        traced = tracer is not None and i % 2 == 1
        if setup_times is not None and len(setup_times) < SETUP_REPEATS and (
            perf_counter() - t0 >= len(setup_times) * seconds / SETUP_REPEATS
        ):
            set_up()
        if i >= min_ops:
            same = totals if tracer is None else totals[i % 2 :: 2]
            if perf_counter() - t0 + statistics.median(same) > seconds:
                break
        start = perf_counter()
        if traced:
            tracer.trace_id = i
            tracer.install()
        try:
            results.append(workload.run_op(cli, work, seed, i, reference))
        finally:
            if traced:
                tracer.uninstall()
        results[-1].traced = traced
        results[-1].scale = scale()
        totals.append(perf_counter() - start)
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        set_up()
    return results, cal


def peak_rss_mb() -> float:
    """Peak RSS of this process; no timed step starts a process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: list, setup_s: float) -> dict:
    wall = statistics.median(r.wall_s * r.scale for r in results)
    per_op = results[0].attempted
    ok_frac = sum(r.ok for r in results) / sum(r.attempted for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "norm_wall_s": (wall, "s"),
        "norm_reps_per_s": (ok_frac * per_op / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_rep(tracer) -> tuple[dict, list]:
    """Median calls per replicate of each counted function, and a problem per varying count."""
    medians, problems = {}, []
    for name, values in tracing.per_replicate_counts(tracer).items():
        if len(set(values)) > 1:
            problems.append(f"{name} calls per replicate vary: {sorted(set(values))}")
        medians[name] = float(statistics.median(values)) if values else 0.0
    return medians, problems


def per_layer(results: list, tracer, recorded=None) -> tuple[dict, list]:
    """Per-layer metrics of a traced run; ``recorded`` holds the expected per-rep counts."""
    traced = [r for r in results if r.traced]
    untraced = [r for r in results if not r.traced]
    metrics = tracing.layer_metrics(tracer, len(traced))
    medians, problems = per_rep(tracer)
    for name, value in medians.items():
        metrics[f"{name}.per_rep"] = (value, "count")
        if recorded is not None and value != recorded[name]:
            problems.append(f"{name}: {value:g} calls per replicate, {recorded[name]:g} recorded")
    attempted = sum(r.attempted for r in results)
    metrics["mc.ok_ratio"] = (sum(r.ok for r in results) / attempted, "ratio")
    overhead = statistics.median(r.wall_s * r.scale for r in traced) / statistics.median(
        r.wall_s * r.scale for r in untraced
    ) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, problems


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "GCM_THREADS": os.environ["GCM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(name: str, seed: int, seconds: float, trace: bool, scale=workloads.FULL) -> dict:
    """Run one workload and return the result object (plus printed detail lines)."""
    workload = workloads.make(name, scale)
    # One worker process: a pool's workers run on cores the calibration kernel
    # does not time, which left the scaled times of a pool unsteady, and a
    # traced run keeps every span in this process.
    os.environ["GCM_THREADS"] = "1"
    recorded = load_reference() if scale.use_reference else None
    reference = recorded["outputs"][name] if recorded else None
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        workload.setup(work)
        import gcm.cli

        tracer = tracing.Tracer(gcm) if trace else None
        setup_times = None if trace else []
        results, cal = run_ops(
            workload, gcm.cli, work, seed, seconds, reference, tracer, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in results for p in r.problems]
    if trace:
        metrics, trace_problems = per_layer(
            results, tracer, recorded["per_rep"][name] if recorded else None)
        problems += trace_problems
        tracer.save(os.path.join(OUT, f"trace-{name}.npz"))
    else:
        metrics = end_to_end(results, statistics.median(setup_times))
    attempted = sum(r.attempted for r in results)
    failed = sum(r.attempted - r.ok for r in results)

    print("# env " + json.dumps(environment(), sort_keys=True))
    detail = {"workload": name, "seed": seed, "operations": len(results),
              "op_walls": [r.wall_s for r in results],
              "op_scales": [r.scale for r in results],
              "calibration_s": cal,
              "failed_frac": failed / attempted}
    if setup_times:
        detail["setup_ref_s"] = setup_times
    if trace:
        detail["traced_operations"] = sum(r.traced for r in results)
        detail["spans"] = len(tracer.start)
    else:
        for cmd in sorted({c for r in results for c, _ in r.calls}):
            ms = [1e3 * s for r in results for c, s in r.calls if c == cmd]
            detail[f"{cmd}_ms"] = {"n": len(ms), "p50": percentile(ms, 50),
                                   "p90": percentile(ms, 90)}
    print("# run " + json.dumps(detail, sort_keys=True))
    for p in problems[:20]:
        print(f"# check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcm", "__init__.py")):
        print(f"gcm sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
