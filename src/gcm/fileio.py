"""Deterministic CSV and JSON file handling for the command-line tool.

Matrix CSVs are comma-delimited with values printed to 17 significant
digits, which round-trips float64 exactly. They are written and read in
bounded blocks of rows, so memory follows the array, not the text; only
input that numpy's parser refuses is re-read whole, by the line-numbered
parser. JSON is serialized with sorted keys so identical inputs produce
identical bytes. All writes go through a temp-file rename, so partially
written files are never observed.
"""

from __future__ import annotations

import collections
import itertools
import json
import os

import numpy as np

from . import __version__
from .errors import ConfigError, MatrixParseError, excerpt

_FLOAT_FMT = "%.17g"
# values formatted by one % (whole rows, at least one), and bytes read per
# chunk of a matrix CSV (plus the rest of the line the chunk ends in)
_BLOCK_VALUES = 1 << 12
_CHUNK_BYTES = 1 << 16


def atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` in turn to a new temp file (mode per the
    current umask), then rename it to ``path``; on any failure neither is left."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_matrix_csv(a: np.ndarray, header: list | None = None):
    """Yield the CSV text of ``a``, after its ``header`` row if one is given, in
    blocks of whole rows. Each block is one ``%`` over the block's values, so at
    most ``_BLOCK_VALUES`` values (or one row) are held as Python floats or text."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if header is not None:
        yield ",".join(header) + "\n"
    row_fmt = ",".join([_FLOAT_FMT] * a.shape[1]) + "\n"
    rows = max(1, _BLOCK_VALUES // max(1, a.shape[1]))
    for start in range(0, len(a), rows):
        block = a[start : start + rows]
        yield (row_fmt * len(block)) % tuple(block.ravel().tolist())


def write_matrix_csv(path: str, a: np.ndarray) -> None:
    atomic_write(path, format_matrix_csv(a))


def read_matrix_csv(path: str, skip_header: bool = False) -> np.ndarray:
    """Parse a rectangular CSV of floats; report failures with line numbers.

    numpy's C reader parses the common case from bounded chunks of the file.
    Anything it refuses, an empty or header-only body, any body with an empty
    line (which it would skip silently) and text that is not UTF-8 go to the
    line-numbered parser, which reads the whole file, parses each line by the
    same grammar and gives the same array or the error.
    """
    with open(path, "rb") as handle:
        try:
            body = itertools.chain.from_iterable(_body_lines(handle, skip_header))
            return _parse_numbers(body)
        except ValueError:
            # also a UnicodeDecodeError, whose position is within a chunk:
            # the whole-file read below names the position in the file
            pass
    try:
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"not UTF-8 text: {exc}", path) from exc
    return _parse_matrix_lines(raw_lines, path, skip_header)


def _body_lines(handle, skip_header: bool):
    """Lists of the lines after the optional header of a matrix CSV open in binary
    mode, split as ``str.splitlines`` splits them, read in bounded chunks. (Lists,
    so that a C iterator, not this generator, hands numpy each line.)

    A chunk is completed by ``readline``, so it ends at a ``\\n`` or at the
    end of the file: no UTF-8 character and no line break, ``\\r\\n``
    included, spans two chunks, and a chunk's ``splitlines`` are whole lines.
    ValueError is raised at an empty line (which numpy would skip) and for an
    empty body (on which it would warn).
    """
    empty = True
    while chunk := handle.read(_CHUNK_BYTES) + handle.readline():
        lines = chunk.decode("utf-8").splitlines()
        if skip_header:
            del lines[0]
            skip_header = False
        if "" in lines:
            raise ValueError("empty line")
        if lines:
            empty = False
            yield lines
    if empty:
        raise ValueError("no data rows")


def _parse_numbers(lines) -> np.ndarray:
    """Comma-separated rows of numbers by numpy's C parser: the one grammar of matrix CSVs."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _parse_matrix_lines(raw_lines: list, path: str, skip_header: bool) -> np.ndarray:
    """Parse the lines of a matrix CSV one by one, naming the line of any fault."""
    rows = []
    start = 1 if skip_header else 0
    if skip_header and not raw_lines:
        raise MatrixParseError("expected a header row in an empty file", path, 1)
    for lineno, line in enumerate(raw_lines[start:], start=start + 1):
        if line.strip() == "":
            raise MatrixParseError("blank line inside matrix", path, lineno)
        width = line.count(",") + 1
        if rows and width != rows[0].size:
            raise MatrixParseError(f"expected {rows[0].size} fields, found {width}", path, lineno)
        try:
            rows.append(_parse_numbers([line])[0])
        except ValueError:
            raise MatrixParseError(f"non-numeric field in row: {excerpt(line)}", path, lineno)
    if not rows:
        raise MatrixParseError("file contains no data rows", path, len(raw_lines) or 1)
    return np.asarray(rows, dtype=np.float64)


def write_table_csv(path: str, header: list, rows) -> None:
    """Write named columns of ``rows`` (a list of rows or an array) as a matrix CSV; None is nan.

    %.17g prints an integer below 2**53 as str does, so counts and indices
    keep their integer form.
    """
    table = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    atomic_write(path, format_matrix_csv(table, header))


def jsonable(v):
    """JSON-ready form of ``v``, a dict value by value and a list or tuple item by item:
    arrays become nested lists (at least 2-d), numpy scalars Python numbers, and
    non-finite floats, such as the standard error of a Monte Carlo cell with fewer
    than two successes, None (null)."""
    if isinstance(v, dict):
        return {key: jsonable(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
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
    atomic_write(path, (dumps_json(obj),))


def read_json(path: str):
    """Parse a JSON file; an object that repeats a key is refused, not read as its last
    value, and so is JSON the decoder cannot hold."""
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
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the decoder recurses, or an integer too long to convert
        raise ConfigError(f"{path}: JSON the decoder cannot hold: {exc}") from exc


def make_report(seed, inputs: dict, results, errors: list | None = None) -> dict:
    """The report of a run; ``inputs`` and ``results`` are made JSON-ready here, by ``jsonable``."""
    return {
        "meta": {"version": __version__, "seed": None if seed is None else int(seed)},
        "inputs": jsonable(inputs),
        "results": jsonable(results),
        "errors": [] if errors is None else errors,
    }


def check_keys(d, where: str, required, optional=()) -> None:
    """Refuse ``d`` unless it is an object with every ``required`` key and no key
    outside ``required`` and ``optional``; ``where`` names it in the ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {excerpt(sorted(unknown))}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{where} is missing required key {key!r}")
