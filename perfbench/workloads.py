"""The three benchmark workloads: ``level``, ``consistency`` and ``csv_fit``.

Each workload writes its inputs in set-up, then runs operations through
``gcm.cli.main`` in this process and checks every operation's outputs.
Operation 0 always uses the workload's fixed reference seed, so its results
can be compared with the values recorded in ``reference.json``; the other
operations take their seeds from the benchmark's ``--seed``.

Why these workloads (see METRICS.md for the layer-to-metric table):

- ``level`` is the paper's test-level check, the heaviest replicate chain
  (2 simulate, 3 sigma_hat and 18 solve_spd calls per replicate), run on one
  worker as the plain single-threaded baseline.
- ``consistency`` is the only workload on the H / pseudo-inverse route, and
  puts small-n cells, where per-call overhead dominates, beside a large-n
  cell.
- ``csv_fit`` is a closed loop of one caller doing single CSV fits; about
  90% of ``estimate`` and ``test`` is CSV parsing and the Monte Carlo
  harness never runs, so a harness optimisation must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks

SIGMA4 = [
    [1.0, 0.4, 0.16, 0.064],
    [0.4, 1.0, 0.4, 0.16],
    [0.16, 0.4, 1.0, 0.4],
    [0.064, 0.16, 0.4, 1.0],
]
SIGMA6 = [[0.4 ** abs(i - j) for j in range(6)] for i in range(6)]

# Level operations outside the reference run must fall inside this many
# binomial standard errors of alpha: at the 500 replicates of Scale.level_reps
# and alpha 0.05, the band [0.0013, 0.0987]. A 99% band would fail one
# operation in a hundred by chance under a correct program.
Z_GROSS = 5.0
# csv_fit estimates must lie within this many reported standard errors of
# the true gamma (a chance failure about once per 10^6 entries).
SE_GROSS = 6.0


@dataclass(frozen=True)
class Scale:
    """Problem sizes; the self-test shrinks them, the benchmark uses FULL."""

    level_reps: int = 500
    consistency_reps: int = 500
    csv_group_size: int = 2000
    csv_min_iterations: int = 100
    use_reference: bool = True


FULL = Scale()


@dataclass
class OpResult:
    """One workload operation: its timings, replicate counts and check failures."""

    wall_s: float
    calls: list  # (subcommand, seconds) for every gcm.cli.main call
    attempted: int
    ok: int
    problems: list
    reference: dict | None = None  # comparable outputs, for operation 0
    traced: bool = False
    scale: float = 1.0  # wall_s times this is reference seconds (see run.calibrate)


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of operation ``index``, derived from the benchmark seed only."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") >> 1


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)


def _timed_call(cli, argv: list) -> tuple[int, float]:
    t0 = perf_counter()
    code = cli.main(argv)
    return code, perf_counter() - t0


class McWorkload:
    """One ``gcm mc-*`` call per operation on a fixed scenario."""

    def __init__(self, name, scenario, sizes, reps, ref_seed, min_ops,
                 extra_args=(), alpha=None):
        self.name = name
        self.scenario = scenario
        self.sizes = sizes
        self.reps = reps
        self.ref_seed = ref_seed
        self.min_ops = min_ops
        self.trace_min_ops = 2
        self.extra_args = list(extra_args)
        self.alpha = alpha

    def setup(self, work: str) -> None:
        config = {
            "scenario": self.scenario,
            "sample_sizes": self.sizes,
            "replications": self.reps,
            "seed": self.ref_seed,
        }
        if self.alpha is not None:
            config["alpha"] = self.alpha
        _write_json(os.path.join(work, "config.json"), config)

    def run_op(self, cli, work: str, seed: int, index: int, reference) -> OpResult:
        s = self.ref_seed if index == 0 else op_seed(self.name, seed, index)
        out = os.path.join(work, "out")
        argv = [f"mc-{self.name}", "--config", os.path.join(work, "config.json"),
                "--seed", str(s), "--out", out] + self.extra_args
        code, wall = _timed_call(cli, argv)
        attempted = self.reps * len(self.sizes)
        result = OpResult(wall, [(self.name, wall)], attempted, 0, [])
        if code != 0:
            result.problems.append(f"mc-{self.name} exited with {code}")
            return result
        doc, result.problems = checks.load_report(os.path.join(out, "report.json"))
        if doc is None:
            return result
        cells = doc["results"].get("cells", [])
        result.problems += checks.guarded(self._check_cells, cells)
        if not result.problems:
            is_reference = index == 0 and reference is not None
            result.problems += checks.guarded(self.check, out, cells, is_reference)
        if index == 0:
            result.reference = {"cells": cells}
            if reference is not None:
                result.problems += checks.compare(cells, reference["cells"], "cells")
        if not result.problems:
            result.ok = sum(cell["successes"] for cell in cells)
        return result

    def _check_cells(self, cells: list) -> list:
        if [c.get("r") for c in cells] != self.sizes:
            return [f"cells cover r={[c.get('r') for c in cells]}, expected {self.sizes}"]
        problems = []
        for c in cells:
            if (c.get("replications"), c.get("successes"), c.get("failures")) != (
                self.reps, self.reps, 0
            ):
                problems.append(
                    f"r={c['r']}: replications/successes/failures "
                    f"{c.get('replications')}/{c.get('successes')}/{c.get('failures')}, "
                    f"expected {self.reps}/{self.reps}/0"
                )
        return problems


class LevelWorkload(McWorkload):
    def check(self, out: str, cells: list, is_reference: bool) -> list:
        cell = cells[0]
        rate = cell["rejection_rate"]
        problems = []
        z = checks.Z99 if is_reference else Z_GROSS
        lo, hi = checks.binomial_band(self.alpha, self.reps, z)
        if not lo <= rate <= hi:
            problems.append(f"rejection rate {rate} outside [{lo:.4f}, {hi:.4f}] (z={z})")
        if not cell["alt_rejection_rate"] > rate:
            problems.append("power at the alternative does not exceed the level")
        header, rows = checks.read_csv_table(os.path.join(out, "tables", "level.csv"))
        if header != ["alpha", "rejection_rate", "n_replicates"] or rows != [
            [self.alpha, rate, float(self.reps)]
        ]:
            problems.append("tables/level.csv does not match report.json")
        return problems


class ConsistencyWorkload(McWorkload):
    def check(self, out: str, cells: list, is_reference: bool) -> list:
        problems = []
        for name in ("sigma_err", "gamma_err", "h_gap"):
            medians = [c[f"median_{name}"] for c in cells]
            if not all(a > b for a, b in zip(medians, medians[1:])):
                problems.append(f"median {name} does not fall as r grows: {medians}")
        tables = os.path.join(out, "tables")
        header, rows = checks.read_csv_table(os.path.join(tables, "consistency.csv"))
        expected = [
            [float(c["n"]), c["median_sigma_err"], c["median_gamma_err"], c["median_h_gap"]]
            for c in cells
        ]
        if header != ["n", "median_sigma_err", "median_gamma_err", "h_gap"] or rows != expected:
            problems.append("tables/consistency.csv does not match report.json")
        for c in cells:
            problems += self._check_dump(os.path.join(tables, f"replicates_r{c['r']}.csv"), c)
        return problems

    def _check_dump(self, path: str, cell: dict) -> list:
        """Re-summarize the per-replicate dump and compare it with the cell."""
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        col = {name: data[:, j] for j, name in enumerate(header)}
        if data.shape[0] != self.reps or not np.all(col["ok"] == 1.0):
            return [f"{path}: expected {self.reps} successful replicate rows"]
        gamma_cols = [h for h in header if re.fullmatch(r"gamma_\d+_\d+", h)]
        shape = np.asarray(cell["mean_gamma"]).shape
        summary = {
            "mean_gamma": np.column_stack([col[h] for h in gamma_cols])
            .mean(axis=0).reshape(shape).tolist(),
        }
        for name in ("sigma_err", "gamma_err", "h_gap"):
            summary[f"median_{name}"] = float(np.median(col[name]))
            summary[f"mean_{name}"] = float(col[name].mean())
        expected = {key: cell[key] for key in summary}
        return checks.compare(summary, expected, os.path.basename(path))


class CsvFitWorkload:
    """Closed loop, one caller: simulate a CSV dataset, then estimate, then test."""

    name = "csv_fit"
    alpha = 0.05
    # Groups differ only in the constant term, so gamma = 0 under the
    # equality contrast and the test runs under its null.
    scenario = {
        "m": 3,
        "q": 3,
        "times": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        "theta": [[1.0, 0.5, -0.1], [2.0, 0.5, -0.1], [0.5, 0.5, -0.1]],
        "sigma": SIGMA6,
        "noise": {"family": "student_t", "df": 6.0},
        "contrast": "equality",
    }
    C = [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]
    D = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    ref_seed = 1001

    def __init__(self, scale: Scale):
        self.group_size = scale.csv_group_size
        self.min_ops = scale.csv_min_iterations
        self.trace_min_ops = 20

    def setup(self, work: str) -> None:
        _write_json(os.path.join(work, "simulate.json"),
                    {"scenario": self.scenario, "r": self.group_size})
        for name, mat in (("C.csv", self.C), ("D.csv", self.D)):
            with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
                handle.writelines(",".join(repr(v) for v in row) + "\n" for row in mat)

    def run_op(self, cli, work: str, seed: int, index: int, reference) -> OpResult:
        s = self.ref_seed if index == 0 else op_seed(self.name, seed, index)
        data = os.path.join(work, "data")
        inputs = ["--y", f"{data}/Y.csv", "--x", f"{data}/X.csv", "--z", f"{data}/Z.csv",
                  "--c", f"{work}/C.csv", "--d", f"{work}/D.csv"]
        steps = [
            ("simulate", ["simulate", "--config", f"{work}/simulate.json",
                          "--seed", str(s), "--out", data]),
            ("estimate", ["estimate", *inputs, "--truth", f"{data}/truth.json",
                          "--out", f"{work}/estimate"]),
            ("test", ["test", *inputs, "--alpha", str(self.alpha), "--out", f"{work}/test"]),
        ]
        calls, problems = [], []
        t0 = perf_counter()
        for name, argv in steps:
            code, seconds = _timed_call(cli, argv)
            calls.append((name, seconds))
            if code != 0:
                problems.append(f"{name} exited with {code}")
                break
        wall = perf_counter() - t0
        result = OpResult(wall, calls, 1, 0, problems)
        if problems:
            return result
        est, p1 = checks.load_report(f"{work}/estimate/report.json")
        tst, p2 = checks.load_report(f"{work}/test/report.json")
        result.problems += p1 + p2
        if est is None or tst is None:
            return result
        result.problems += checks.guarded(self._check, est["results"], tst["results"])
        if index == 0:
            y = np.loadtxt(f"{data}/Y.csv", delimiter=",", ndmin=2)
            result.reference = {
                "Y": {"shape": list(y.shape), "col_sum": y.sum(axis=0).tolist(),
                      "col_sumsq": (y * y).sum(axis=0).tolist()},
                "estimate": est["results"],
                "test": tst["results"],
            }
            if reference is not None:
                result.problems += checks.compare(result.reference, reference, "csv_fit")
        result.ok = 0 if result.problems else 1
        return result

    def _check(self, est: dict, tst: dict) -> list:
        problems = []
        gamma = np.asarray(est["gamma"])
        se = np.asarray(est["std_errors"])
        if gamma.shape != (2, 2) or se.shape != (2, 2) or not np.all(se > 0):
            return [f"estimate: gamma {gamma.shape} / std_errors {se.shape} malformed"]
        if np.any(np.abs(gamma) > SE_GROSS * se):
            problems.append(f"estimate: gamma {gamma.tolist()} beyond {SE_GROSS} SE of 0")
        err = est["truth_errors"]["gamma_err_fro"]
        if not checks.close(err, float(np.linalg.norm(gamma))):
            problems.append("estimate: gamma_err_fro disagrees with gamma")
        problems += checks.compare(tst["gamma"], est["gamma"], "test.gamma")
        t_stat = np.asarray(tst["t_stat"])
        chi_sq, dof = tst["chi_sq"], tst["dof"]
        if dof != 4 or not checks.close(chi_sq, float((t_stat * t_stat).sum())):
            problems.append(f"test: chi_sq {chi_sq} / dof {dof} disagree with t_stat")
        # chi-square upper tail for even dof in closed form
        half = chi_sq / 2.0
        p = math.exp(-half) * sum(half**k / math.factorial(k) for k in range(dof // 2))
        if not checks.close(tst["p_value"], p):
            problems.append(f"test: p_value {tst['p_value']} differs from {p}")
        if tst["reject"] is not (tst["p_value"] < self.alpha):
            problems.append("test: reject disagrees with p_value")
        return problems


def make(name: str, scale: Scale = FULL):
    """Build the named workload at the given scale."""
    if name == "level":
        return LevelWorkload(
            "level",
            scenario={
                "m": 2, "q": 2, "times": [1.0, 2.0, 3.0, 4.0],
                "theta": [[1.0, 0.5], [1.0, 0.5]], "sigma": SIGMA4,
                "noise": {"family": "gaussian"}, "contrast": "equality",
            },
            sizes=[250], reps=scale.level_reps, ref_seed=901, min_ops=2, alpha=0.05,
        )
    if name == "consistency":
        return ConsistencyWorkload(
            "consistency",
            scenario={
                "m": 3, "q": 2, "times": [1.0, 2.0, 3.0, 4.0],
                "theta": [[1.0, 0.5], [2.0, 0.25], [0.5, 1.5]], "sigma": SIGMA4,
                "noise": {"family": "uniform"}, "contrast": "equality",
            },
            sizes=[16, 64, 256], reps=scale.consistency_reps, ref_seed=601, min_ops=3,
            extra_args=["--dump-replicates"],
        )
    if name == "csv_fit":
        return CsvFitWorkload(scale)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("level", "consistency", "csv_fit")
