"""In-memory span tracer that wraps gcm's public functions from outside.

Installing the tracer replaces ``module.function`` attributes with wrappers
that record one span per call: its name, start, end, parent span and the
trace id of the workload operation it belongs to. The package calls these
functions through module attributes or module globals, so the wrappers
also see the calls gcm makes internally. Nothing under ``src/`` changes.

Spans stay in flat arrays until the run ends; :meth:`Tracer.save` writes
them out and :func:`layer_metrics` derives self times and counts from them.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped in the traced run, grouped by layer.
TRACED = (
    ("model", "simulate"),
    ("model", "validate"),
    ("estimators", "sigma_hat"),
    ("estimators", "_gls_theta"),
    ("estimators", "h_matrix"),
    ("estimators", "two_stage_gamma"),
    ("inference", "test_gamma_zero"),
    ("inference", "standardized_stat"),
    ("linalg", "solve_spd"),
    ("linalg", "check_spd"),
    ("linalg", "inv_sqrt_spd"),
    ("linalg", "moore_penrose"),
    ("linalg", "orth_projector"),
    ("mc", "replicate_seed"),
    ("mc", "_run_cell"),
    ("mc", "summarize_cell"),
    ("fileio", "read_matrix_csv"),
    ("fileio", "write_matrix_csv"),
    ("fileio", "write_table_csv"),
    ("fileio", "write_json"),
    ("cli", "main"),
)
MODULES = ("cli", "mc", "model", "estimators", "inference", "linalg", "fileio")

# Calls counted per replicate, as <module>.<function>.per_rep.
PER_REP = (
    "linalg.solve_spd",
    "estimators.sigma_hat",
    "model.validate",
    "linalg.moore_penrose",
)

_READS = {"fileio.read_matrix_csv"}
_WRITES = {"fileio.write_matrix_csv", "fileio.write_table_csv", "fileio.write_json"}


class Tracer:
    """Records spans of the wrapped gcm functions while installed."""

    def __init__(self, package):
        self._package = package
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.trace_id = -1
        # span index -> file size in bytes, for fileio spans
        self.nbytes = {}
        # span index -> (cell_index, rep), for mc.replicate_seed spans
        self.replicate = {}
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for nid, (mod, fn) in enumerate(TRACED):
            module = getattr(self._package, mod)
            original = getattr(module, fn)
            self._saved.append((module, fn, original))
            setattr(module, fn, self._wrap(nid, original))

    def uninstall(self) -> None:
        while self._saved:
            module, fn, original = self._saved.pop()
            setattr(module, fn, original)

    def _wrap(self, nid: int, fn):
        full = self.names[nid]
        if full in _READS or full in _WRITES:
            def after(i, args):
                self.nbytes[i] = os.path.getsize(args[0])
        elif full == "mc.replicate_seed":
            def after(i, args):
                self.replicate[i] = (args[1], args[2])
        else:
            after = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trace.append(self.trace_id)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(i, args)
            return result

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trace": np.frombuffer(self.trace, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        """Write every span, with the name table, as a compressed npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their union is the sum of their durations.
    """
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(
        spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - child


def per_replicate_counts(tracer: Tracer) -> dict:
    """Calls of each PER_REP function in every replicate; name -> list of counts.

    In a Monte Carlo run a replicate starts at the first
    ``mc.replicate_seed`` span carrying a new (cell, rep) key and runs until
    the next new key or the end of the enclosing ``mc._run_cell`` span, so
    per-cell set-up such as the true H matrix is not charged to any
    replicate. Without Monte Carlo replicates, each traced operation (one
    dataset simulated and fitted) is one replicate.
    """
    names = tracer.names
    if not tracer.replicate:
        spans = tracer.arrays()
        ops = np.unique(spans["trace"])
        return {
            n: [int(np.sum((spans["name"] == names.index(n)) & (spans["trace"] == t)))
                for t in ops]
            for n in PER_REP
        }
    wanted = {names.index(n): n for n in PER_REP}
    run_cell = names.index("mc._run_cell")
    counts = {n: [] for n in PER_REP}
    key, cell_end = None, -1.0
    for i, nid in enumerate(tracer.name):
        start = tracer.start[i]
        if nid == run_cell:
            key, cell_end = None, tracer.end[i]
            continue
        if start > cell_end:
            key = None
            continue
        rep = tracer.replicate.get(i)
        if rep is not None and rep != key:
            key = rep
            for n in PER_REP:
                counts[n].append(0)
        if key is not None and nid in wanted:
            counts[wanted[nid]][-1] += 1
    return counts


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics, as metric name -> (value, unit).

    ``calls`` and ``self_s`` are per traced workload operation; ``self_us``
    is the mean self time of one call.
    """
    spans = tracer.arrays()
    own = self_times(spans)
    n = len(tracer.names)
    calls = np.bincount(spans["name"], minlength=n)
    self_total = np.bincount(spans["name"], weights=own, minlength=n)
    out = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for nid, full in enumerate(tracer.names):
        c = int(calls[nid])
        out[f"{full}.calls"] = (c / n_ops, "count")
        out[f"{full}.self_us"] = (1e6 * self_total[nid] / c if c else 0.0, "us")
        module_self[full.split(".")[0]] += float(self_total[nid])
    for mod, total in module_self.items():
        out[f"{mod}.self_s"] = (total / n_ops, "s")
    read = sum(b for i, b in tracer.nbytes.items() if tracer.names[tracer.name[i]] in _READS)
    written = sum(tracer.nbytes.values()) - read
    out["fileio.read_bytes"] = (read / n_ops, "bytes")
    out["fileio.write_bytes"] = (written / n_ops, "bytes")
    return out
