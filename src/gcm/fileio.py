"""Deterministic CSV and JSON file handling for the command-line tool.

Matrix CSVs are comma-delimited with values printed to 17 significant
digits, which round-trips float64 exactly. JSON is serialized with sorted
keys so identical inputs produce identical bytes. All writes go through a
temp-file rename, so partially written files are never observed.
"""

from __future__ import annotations

import collections
import json
import os

import numpy as np

from . import __version__
from .errors import ConfigError, MatrixParseError

_FLOAT_FMT = "%.17g"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a new temp file (mode per the current umask) and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_matrix_csv(a: np.ndarray, header: list | None = None) -> str:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    lines = []
    if header is not None:
        lines.append(",".join(header))
    # one format string per row, applied row by row: a single % over the whole
    # matrix would hold every value in one tuple
    row_fmt = ",".join([_FLOAT_FMT] * a.shape[1])
    lines.extend(row_fmt % tuple(row) for row in a.tolist())
    return "\n".join(lines) + "\n"


def write_matrix_csv(path: str, a: np.ndarray, header: list | None = None) -> None:
    atomic_write_text(path, format_matrix_csv(a, header))


def read_matrix_csv(path: str, skip_header: bool = False) -> np.ndarray:
    """Parse a rectangular CSV of floats; report failures with line numbers.

    numpy's C reader parses the common case. Anything it refuses, and any
    body with an empty line (which it would skip silently), goes to the
    line-numbered parser, which gives the same array or the error.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"not UTF-8 text: {exc}", path) from exc
    body = raw_lines[1:] if skip_header else raw_lines
    if body and "" not in body:
        try:
            return np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:
            pass
    return _parse_matrix_lines(raw_lines, path, skip_header)


def _parse_matrix_lines(raw_lines: list, path: str, skip_header: bool) -> np.ndarray:
    """Parse the lines of a matrix CSV one by one, naming the line of any fault."""
    rows = []
    width = None
    start = 1 if skip_header else 0
    if skip_header and not raw_lines:
        raise MatrixParseError("expected a header row in an empty file", path, 1)
    for lineno, line in enumerate(raw_lines[start:], start=start + 1):
        if line.strip() == "":
            raise MatrixParseError("blank line inside matrix", path, lineno)
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise MatrixParseError(
                f"expected {width} fields, found {len(fields)}", path, lineno
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise MatrixParseError(f"non-numeric field in row: {line!r}", path, lineno)
    if not rows:
        raise MatrixParseError("file contains no data rows", path, len(raw_lines) or 1)
    return np.asarray(rows, dtype=np.float64)


def write_table_csv(path: str, header: list, rows: list) -> None:
    """Write a small named-column table in the matrix format; None is written as nan.

    %.17g prints an integer below 2**53 as str does, so counts and indices
    keep their integer form.
    """
    table = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    atomic_write_text(path, format_matrix_csv(table, header))


def jsonable(v):
    """JSON-ready form of ``v``, a dict value by value: arrays become nested lists
    (at least 2-d), numpy scalars Python numbers, and non-finite floats, such as the
    standard error of a Monte Carlo cell with fewer than two successes, None (null)."""
    if isinstance(v, dict):
        return {key: jsonable(x) for key, x in v.items()}
    if isinstance(v, np.ndarray):
        return [[jsonable(float(x)) for x in row] for row in np.atleast_2d(v)]
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not np.isfinite(v):
        return None
    return v


def dumps_json(obj) -> str:
    """Sorted-key JSON; raises ValueError on NaN or Inf, which JSON cannot hold."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dumps_json(obj))


def read_json(path: str):
    """Parse a JSON file; an object that repeats a key is refused, not read as its last value."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            counts = collections.Counter(key for key, _ in pairs)
            repeated = sorted(key for key, count in counts.items() if count > 1)
            raise ConfigError(f"{path}: repeated JSON keys {repeated}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def make_report(seed, inputs: dict, results, errors: list | None = None) -> dict:
    return {
        "meta": {"version": __version__, "seed": None if seed is None else int(seed)},
        "inputs": inputs,
        "results": results,
        "errors": [] if errors is None else errors,
    }


def check_keys(d, where: str, required, optional=()) -> None:
    """Refuse ``d`` unless it is an object with every ``required`` key and no key
    outside ``required`` and ``optional``; ``where`` names it in the ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{where} is missing required key {key!r}")
