"""Matrix CSV reader and formatter against their line-by-line references."""

import json
import os
import stat
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcm import cli, fileio
from gcm.errors import MatrixParseError
from shared import child_python

# fields the two parsers must agree on: plain, signed zero, the smallest
# subnormal (2**-1074), overflow to inf, underscores and non-ASCII digits
# (which float() reads and numpy refuses), padding, non-finite names, empty
# and non-numeric fields
_FIELDS = [
    "1", "-2.5", "0.1", "-0.0", "4.9406564584124654e-324", "1e400", "-1e400",
    "1_0", "\u0661", " 3 ", "\t4", "nan", "-nan", "inf", "-Infinity", "", "x", "1e", "+7",
]
# every break str.splitlines knows ("\n" twice, to keep it common)
_SEPARATORS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@st.composite
def _csv_text(draw):
    width = draw(st.integers(min_value=1, max_value=4))

    def row():
        # mostly rectangular; sometimes ragged, blank or with a trailing comma
        kind = draw(st.sampled_from(["row"] * 6 + ["ragged", "empty", "blank", "trailing"]))
        if kind == "empty":
            return ""
        if kind == "blank":
            return draw(st.sampled_from([" ", "\t", "  \t "]))
        n = draw(st.integers(min_value=1, max_value=5)) if kind == "ragged" else width
        fields = [draw(st.sampled_from(_FIELDS)) for _ in range(n)]
        return ",".join(fields) + ("," if kind == "trailing" else "")

    lines = [row() for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(f"c{j}" for j in range(width)))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(_SEPARATORS))
    if lines and draw(st.booleans()):
        text = text[:-1]  # no final line break (also splits a \r\n)
    return text, header


def _outcome(fn):
    try:
        a = fn()
    except MatrixParseError as exc:
        return ("error", str(exc), exc.line)
    return ("array", a.shape, a.tobytes())


@settings(max_examples=300, deadline=None)
@given(case=_csv_text())
@example(case=("1,2\n\n3,4\n", False))
@example(case=("1_0,2\n3,4\n", False))
@example(case=("a,b\n1,2\r\n3,4\x0c5,6\r", True))
@example(case=("a,b\n", True))
@example(case=("", True))
@example(case=("-0.0,4.9406564584124654e-324\n1e400,nan\n", False))
@example(case=("c0,c1,c2\x0c1,1,1\n1,1,1\n", True))
@example(case=("1,2\x0c\n3,4\n", False))
@example(case=("a,b", True))
@example(case=("", False))
def test_reader_matches_the_line_numbered_parser(tmp_path_factory, case):
    text, header = case
    path = tmp_path_factory.getbasetemp() / "reader.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    slow = _outcome(lambda: fileio._parse_matrix_lines(lines, str(path), header))
    # chunks of a few bytes put a chunk boundary inside every line;
    # no warning may escape, not even numpy's on an empty body
    for chunk_bytes in (fileio._CHUNK_BYTES, 1, 2, 5):
        with mock.patch.object(fileio, "_CHUNK_BYTES", chunk_bytes), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(lambda: fileio.read_matrix_csv(str(path), header)) == slow


@pytest.mark.parametrize("row", ["1_0,3", "\u0661,3"], ids=["underscore", "arabic-indic-digit"])
def test_fields_numpy_refuses_are_refused_at_their_line(tmp_path, capsys, row):
    # float() reads 1_0 as 10.0 and an Arabic-Indic digit one as 1.0; the
    # reader has numpy's grammar only, so the CLI names the line
    path = tmp_path / "Y.csv"
    path.write_text(f"1,2\n{row}\n", encoding="utf-8")
    with pytest.raises(MatrixParseError) as excinfo:
        fileio.read_matrix_csv(str(path))
    assert excinfo.value.line == 2
    argv = ["estimate", "--y", str(path), "--x", "X.csv", "--z", "Z.csv", "--c", "C.csv",
            "--d", "D.csv", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "MatrixParseError"
    assert error["message"].startswith(f"{path}:2: ")


def test_reader_takes_the_c_parser_for_written_matrices(tmp_path):
    # 5000 rows span several write blocks and several read chunks
    path = tmp_path / "m.csv"
    for n in (50, 5000):
        a = np.random.default_rng(3).standard_normal((n, 4))
        fileio.write_table_csv(str(path), ["a", "b", "c", "d"], a)
        with mock.patch.object(fileio, "_parse_matrix_lines", side_effect=AssertionError):
            back = fileio.read_matrix_csv(str(path), skip_header=True)
        assert back.tobytes() == a.tobytes()
    assert a.size > 2 * fileio._BLOCK_VALUES and path.stat().st_size > 2 * fileio._CHUNK_BYTES


@pytest.mark.parametrize("skip_header", [False, True])
def test_reader_refuses_non_utf8_naming_the_file(tmp_path, skip_header):
    path = tmp_path / "m.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff\n")
    with pytest.raises(MatrixParseError, match="not UTF-8") as excinfo:
        fileio.read_matrix_csv(str(path), skip_header)
    assert excinfo.value.path == str(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    # far past the first chunk the message still gives the byte's position in the file
    good = b"a,b\n" + b"1,2\n" * fileio._CHUNK_BYTES
    path.write_bytes(good + b"3,\xff\n")
    with pytest.raises(MatrixParseError, match=f"position {len(good) + 2}:"):
        fileio.read_matrix_csv(str(path), skip_header)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1e17, 2.0**53]


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from(_SPECIAL),
    ),
    header=st.booleans(),
)
@example(a=np.array([_SPECIAL]), header=True)
@example(a=np.array([_SPECIAL]).T, header=False)
def test_formatter_matches_the_per_value_format(a, header):
    names = [f"c{j}" for j in range(a.shape[1])] if header else None
    lines = [",".join(names)] if header else []
    lines += [",".join("%.17g" % v for v in row) for row in a]
    # blocks of 1-3 rows make most matrices span several blocks
    for block_values in (fileio._BLOCK_VALUES, a.shape[1], 2 * a.shape[1], 3 * a.shape[1]):
        with mock.patch.object(fileio, "_BLOCK_VALUES", block_values):
            assert "".join(fileio.format_matrix_csv(a, names)) == "\n".join(lines) + "\n"


def _per_value_table(header, rows):
    """Former table rendering: %.17g for floats, str() for every other value."""
    lines = [",".join(header)]
    for row in rows:
        fields = ["%.17g" % v if isinstance(v, (float, np.floating)) else str(v) for v in row]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def test_table_writer_keeps_the_per_value_bytes(tmp_path):
    # the rows the mc tables hold: int counts and indices beside float summaries
    header = ["n", "alpha", "rate", "coordinate"]
    rows = [
        (40, 0.05, np.float64(0.1), 0),
        (2**53 - 1, -0.0, np.float64(-2.5e-300), 7),
        (-3, 1e16, np.float64(1.0 / 3.0), np.int64(12)),
        (500, 5e-324, 1.7976931348623157e308, 3),
    ]
    path = tmp_path / "t.csv"
    fileio.write_table_csv(str(path), header, rows)
    assert path.read_text() == _per_value_table(header, rows)
    # an undefined summary is written as nan, which every CSV reader parses
    fileio.write_table_csv(str(path), ["alpha", "rejection_rate"], [(0.5, None)])
    assert path.read_text() == "alpha,rejection_rate\n0.5,nan\n"
    fileio.write_table_csv(str(path), ["coordinate"], [])
    assert path.read_text() == "coordinate\n"


@pytest.mark.parametrize("mask", [0o022, 0o077])
def test_written_files_honour_the_umask(tmp_path, mask):
    # each mask gets a fresh process, which starts under it
    code = (
        "import sys; from gcm import fileio; "
        "fileio.write_json(sys.argv[1], {}); fileio.write_matrix_csv(sys.argv[2], [[1.0]])"
    )
    paths = [tmp_path / "report.json", tmp_path / "sub" / "Y.csv"]
    old = os.umask(mask)
    try:
        proc = child_python("-c", code, *paths)
    finally:
        os.umask(old)
    assert proc.returncode == 0, proc.stderr
    for path in paths:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask, path


def test_written_files_take_the_umask_in_force_when_written(tmp_path):
    # a program that imports gcm under 022 and then sets 077 gets what open() gives it
    code = (
        "import os, sys; os.umask(0o022); from gcm import fileio; os.umask(0o077); "
        "fileio.write_json(sys.argv[1], {})"
    )
    proc = child_python("-c", code, tmp_path / "report.json")
    assert proc.returncode == 0, proc.stderr
    assert stat.S_IMODE((tmp_path / "report.json").stat().st_mode) == 0o600


def test_failed_write_leaves_no_temp_file(tmp_path):
    # a text that cannot be encoded fails inside the write; a failed rename fails after it
    with pytest.raises(UnicodeEncodeError):
        fileio.atomic_write(str(tmp_path / "a.txt"), ["\ud800"])
    with mock.patch.object(fileio.os, "replace", side_effect=OSError("rename failed")):
        with pytest.raises(OSError, match="rename failed"):
            fileio.atomic_write(str(tmp_path / "b.txt"), ["x"])
    assert list(tmp_path.iterdir()) == []

    def chunks():
        # a later block fails once earlier ones have gone to the temp file
        yield "1,2\n" * 10_000
        (part,) = tmp_path.iterdir()
        assert part.suffix == ".part" and part.stat().st_size > 0
        yield "\ud800"

    with pytest.raises(UnicodeEncodeError):
        fileio.atomic_write(str(tmp_path / "c.csv"), chunks())
    # a failed write leaves the file it would have replaced as it was
    fileio.write_matrix_csv(str(tmp_path / "d.csv"), np.eye(2))
    with pytest.raises(UnicodeEncodeError):
        fileio.write_table_csv(str(tmp_path / "d.csv"), ["\ud800", "b"], np.eye(2))
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    assert (tmp_path / "d.csv").read_text() == "1,0\n0,1\n"


def _traced_peak(fn):
    """Peak bytes that Python and numpy allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_matrix_files_are_written_and_read_in_bounded_memory(tmp_path):
    # 0.96 MB of values, 2.4 MB of text
    a = np.random.default_rng(4).standard_normal((20_000, 6))
    path = str(tmp_path / "Y.csv")
    write_peak, _ = _traced_peak(lambda: fileio.write_matrix_csv(path, a))
    read_peak, back = _traced_peak(lambda: fileio.read_matrix_csv(path))
    assert back.tobytes() == a.tobytes()
    assert write_peak < 2**20
    assert read_peak < a.nbytes + 2**20
