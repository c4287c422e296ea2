"""Output checks shared by the benchmark workloads.

Every check returns a list of human-readable problems; an empty list means
the output passed. Reports are parsed strictly, so a ``NaN`` or
``Infinity`` token anywhere in a ``report.json`` is itself a problem.
"""

from __future__ import annotations

import json
import math

# Relative tolerance for floats compared against the recorded reference
# values; the same tolerance ROADMAP item 3 sets for batched vs scalar.
REL_TOL = 1e-9
# Values this close to zero are compared absolutely instead.
ABS_FLOOR = 1e-12


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_loads(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def load_report(path: str) -> tuple[dict | None, list]:
    """Strictly parse a CLI ``report.json`` and check its top-level shape."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = strict_loads(handle.read())
    except (OSError, ValueError) as exc:
        return None, [f"{path}: {exc}"]
    if not isinstance(doc, dict) or set(doc) != {"meta", "inputs", "results", "errors"}:
        return None, [f"{path}: report must have exactly meta, inputs, results, errors"]
    if not isinstance(doc["results"], dict):
        return None, [f"{path}: results must be an object"]
    if doc["errors"]:
        return doc, [f"{path}: report lists errors {doc['errors']}"]
    return doc, []


def guarded(check, *args) -> list:
    """Run ``check``; output missing a field or holding a wrong type fails it."""
    try:
        return check(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), ABS_FLOOR)


def compare(actual, expected, where: str = "") -> list:
    """Recursive comparison: ints, bools and strings exactly, floats to REL_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(expected):
            out += compare(actual[key], expected[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{where}[{i}]")
        return out
    if isinstance(expected, float):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{where}: expected a number, got {actual!r}"]
        if not (math.isfinite(actual) and close(float(actual), expected)):
            return [f"{where}: {actual!r} differs from reference {expected!r}"]
        return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} differs from reference {expected!r}"]
    return []


def binomial_band(alpha: float, n: int, z: float) -> tuple[float, float]:
    """Normal-approximation band alpha +- z * sqrt(alpha (1 - alpha) / n)."""
    half = z * math.sqrt(alpha * (1.0 - alpha) / n)
    return alpha - half, alpha + half


# Two-sided 99% normal quantile.
Z99 = 2.5758293035489004


def read_csv_table(path: str) -> tuple[list, list]:
    """Header and float rows of a small table written by the CLI."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows

