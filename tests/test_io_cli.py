import csv
import dataclasses
import decimal
import fractions
import hashlib
import io
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import eivreg as ev
from eivreg import invariants, io_cli

INTERCEPT = ev.ModelKind.INTERCEPT

DSB_CSV = "x1,x2\n0,1\n1,3\n2,5\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------

def test_read_dataset_golden(tmp_path):
    data = io_cli.read_dataset(write(tmp_path, "dsb.csv", DSB_CSV), p=1, r=1)
    np.testing.assert_array_equal(data.x1, [[0.0, 1.0, 2.0]])
    np.testing.assert_array_equal(data.x2, [[1.0, 3.0, 5.0]])


def test_read_dataset_header_inference(tmp_path):
    text = "x1_1,x1_2,x2_1\n0,1,2\n3,4,5\n6,7,8\n"
    data = io_cli.read_dataset(write(tmp_path, "d.csv", text))
    assert (data.p, data.r, data.n) == (2, 1, 3)


def test_read_dataset_parse_error_location(tmp_path):
    text = "x1,x2\n0,1\n1,oops\n2,5\n"
    with pytest.raises(ev.ParseError) as excinfo:
        io_cli.read_dataset(write(tmp_path, "bad.csv", text), p=1, r=1)
    assert excinfo.value.row == 2
    assert excinfo.value.column == "x2"


def test_read_dataset_rejects_nan_cell(tmp_path):
    text = "x1,x2\n0,1\nnan,3\n"
    with pytest.raises(ev.ParseError):
        io_cli.read_dataset(write(tmp_path, "nan.csv", text), p=1, r=1)


def test_read_dataset_dimension_mismatch(tmp_path):
    text = "a,b,c\n0,1,2\n3,4,5\n"
    with pytest.raises(ev.DimensionMismatchError):
        io_cli.read_dataset(write(tmp_path, "wide.csv", text), p=1, r=1)


def test_read_dataset_needs_two_rows(tmp_path):
    with pytest.raises(ev.ValidationError):
        io_cli.read_dataset(write(tmp_path, "short.csv", "x1,x2\n0,1\n"), p=1, r=1)


@pytest.mark.parametrize("p, r", [(True, 1), (1.0, 1), (1, np.float64(1.0)), (1, False)])
def test_read_dataset_dimensions_must_be_integers(tmp_path, p, r):
    with pytest.raises(ev.ValidationError, match="^[pr] must be an integer >= 1, got "):
        io_cli.read_dataset(write(tmp_path, "dsb.csv", DSB_CSV), p=p, r=r)


@pytest.mark.parametrize("p, r", [(0, 1), (np.int64(1), -2)])
def test_read_dataset_dimensions_must_be_positive(tmp_path, p, r):
    name, value = ("p", p) if p < 1 else ("r", r)
    with pytest.raises(ev.ValidationError, match=f"^{name} must be an integer >= 1, got {value}$"):
        io_cli.read_dataset(write(tmp_path, "dsb.csv", DSB_CSV), p=p, r=r)


def test_dataset_roundtrip_is_lossless(dataset_csv):
    truth = ev.random_truth(3, 1, INTERCEPT, p=2, r=2, n=15)
    data = ev.generate_dataset(truth)
    back = io_cli.read_dataset(dataset_csv(data))
    np.testing.assert_array_equal(back.x1, data.x1)
    np.testing.assert_array_equal(back.x2, data.x2)


def test_read_dataset_stores_the_observations_row_contiguously(dataset_csv):
    truth = ev.random_truth(3, 2, INTERCEPT, p=3, r=2, n=15)
    data = io_cli.read_dataset(dataset_csv(ev.generate_dataset(truth)))
    assert data.x.flags.c_contiguous
    assert data.x1.strides == data.x2.strides == (8 * data.n, 8)


def test_read_sigma0(tmp_path):
    path = write(tmp_path, "s.csv", "2.0,0.5\n0.5,1.0\n")
    np.testing.assert_array_equal(io_cli.read_sigma0(path, 2), [[2.0, 0.5], [0.5, 1.0]])
    bad = write(tmp_path, "asym.csv", "2.0,0.5\n0.1,1.0\n")
    with pytest.raises(ev.ValidationError):
        io_cli.read_sigma0(bad, 2)
    small = write(tmp_path, "small.csv", "1.0\n")
    with pytest.raises(ev.DimensionMismatchError):
        io_cli.read_sigma0(small, 2)


def test_read_sigma0_parse_error_names_the_cell(tmp_path):
    path = write(tmp_path, "s.csv", "1,0,0\n0,1,0\n0,0,x\n")
    with pytest.raises(ev.ParseError) as info:
        io_cli.read_sigma0(path, 3)
    assert str(info.value) == f"{path}: row 3, column 3: 'x' is not a finite real"
    assert (info.value.row, info.value.column) == (3, 3)


def test_read_dataset_and_sigma0_accept_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + DSB_CSV.encode())
    data = io_cli.read_dataset(str(path))
    assert (data.p, data.r, data.n) == (1, 1, 3)
    np.testing.assert_array_equal(data.x1, [[0.0, 1.0, 2.0]])
    sigma_path = tmp_path / "s.csv"
    sigma_path.write_bytes(b"\xef\xbb\xbf2.0,0.5\n0.5,1.0\n")
    np.testing.assert_array_equal(io_cli.read_sigma0(sigma_path, 2), [[2.0, 0.5], [0.5, 1.0]])


def test_read_dataset_and_sigma0_reject_non_utf8(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x1,x2\n0,1\n1,3\xff\n2,5\n")
    with pytest.raises(ev.ValidationError, match="latin.csv"):
        io_cli.read_dataset(str(path))
    sigma_path = tmp_path / "s.csv"
    sigma_path.write_bytes(b"2.0,0.5\n0.5,\xff1.0\n")
    with pytest.raises(ev.ValidationError, match="s.csv"):
        io_cli.read_sigma0(sigma_path, 2)


# Files the one-pass numpy parse declines, or must not take at face value:
# each gives the values or the error of the per-cell `float` scan.
PARSE_CASES = {
    "comment_row": ("x1,x2\n0,1\n#3,4\n5,6\n", (ev.ParseError, 2, "x1")),
    "comment_suffix": ("x1,x2\n0,1\n4,1.5#\n5,6\n", (ev.ParseError, 2, "x2")),
    "nan": ("x1,x2\n0,1\n2,3\nnan,6\n", (ev.ParseError, 3, "x1")),
    "inf": ("x1,x2\n0,1\n2,inf\n5,6\n", (ev.ParseError, 2, "x2")),
    "overflow": ("x1,x2\n0,1\n2,1e400\n5,6\n", (ev.ParseError, 2, "x2")),
    "trailing_comma": ("x1,x2\n0,1\n2,3,\n5,6\n", (ev.DimensionMismatchError, 2, None)),
    "short_row": ("x1,x2\n0,1\n2,3\n5\n", (ev.DimensionMismatchError, 3, None)),
    "quoted": ('x1,x2\n0,1\n"1.5",3\n5,6\n', [[0, 1], [1.5, 3], [5, 6]]),
    "underscore": ("x1,x2\n0,1_000\n2,3\n", [[0, 1000], [2, 3]]),
    "non_ascii_digit": ("x1,x2\n0,\u0661\n2,3\n", [[0, 1], [2, 3]]),
    "crlf": ("x1,x2\r\n0,1\r\n2,3\r\n4,5\r\n", [[0, 1], [2, 3], [4, 5]]),
    "blank_rows": ("x1,x2\n0,1\n \t\n,,\n\n2,3\n", [[0, 1], [2, 3]]),
    "blank_rows_then_error": ("x1,x2\n0,1\n  \n,,\n2,3\n4,oops\n", (ev.ParseError, 3, "x2")),
    "bom": ("\ufeffx1,x2\n0,1\n2,3\n4,5\n6,7\n", [[0, 1], [2, 3], [4, 5], [6, 7]]),
    # str.isspace is true for the ASCII information separators, float() rejects them
    "file_separator": ("x1,x2\n0,1\n2,1.5\x1c\n4,5.5\n", (ev.ParseError, 2, "x2")),
    "group_separator": ("x1,x2\n0,1\n2,1.5\x1d\n4,5.5\n", (ev.ParseError, 2, "x2")),
    "record_separator": ("x1,x2\n0,1\n2,1.5\x1e\n4,5.5\n", (ev.ParseError, 2, "x2")),
    "unit_separator": ("x1,x2\n0,1\n2,1.5\x1f\n4,5.5\n", (ev.ParseError, 2, "x2")),
}


@pytest.mark.parametrize("text, expected", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_read_dataset_parses_as_float_would(tmp_path, bulk_reader, text, expected):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, list):
        data = io_cli.read_dataset(str(path))
        np.testing.assert_array_equal(np.vstack([data.x1, data.x2]).T, expected)
        return
    error, row, column = expected
    with pytest.raises(error) as excinfo:
        io_cli.read_dataset(str(path))
    if error is ev.ParseError:
        assert (excinfo.value.row, excinfo.value.column) == (row, column)
    else:
        assert f": row {row} has " in str(excinfo.value)


@pytest.mark.parametrize("text", [DSB_CSV, DSB_CSV.replace("\n", "\r\n"), "\ufeff" + DSB_CSV,
                                  "x1,x2\n0,1\n\n1,3\n 2 ,5"])
def test_read_dataset_plain_numeric_file_skips_per_cell_scan(tmp_path, monkeypatch, bulk_reader,
                                                             text):
    def per_cell_scan(*args, **kwargs):
        raise AssertionError("plain numeric file fell back to the per-cell scan")

    monkeypatch.setattr(io_cli, "_parse_cells", per_cell_scan)
    path = tmp_path / "plain.csv"
    path.write_bytes(text.encode("utf-8"))
    data = io_cli.read_dataset(str(path))
    np.testing.assert_array_equal(np.vstack([data.x1, data.x2]).T, [[0, 1], [1, 3], [2, 5]])


FINITE_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(FINITE_DOUBLES, FINITE_DOUBLES), min_size=2, max_size=20))
@example([(-0.0, 5e-324), (sys.float_info.max, -sys.float_info.max),
          (-2.2250738585072014e-308 / 3, 0.1)])
def test_read_dataset_values_are_bit_exact(tmp_path, bulk_reader, rows):
    expected = np.array(rows)
    for render in (repr, "%.17g".__mod__, "%.20g".__mod__):
        path = tmp_path / "values.csv"
        cells = [[render(v) for v in row] for row in rows]
        path.write_text("x1,x2\n" + "".join(",".join(row) + "\n" for row in cells))
        data = io_cli.read_dataset(str(path))
        got = np.vstack([data.x1, data.x2]).T
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == np.array([[float(c) for c in row] for row in cells]).tobytes()


@pytest.fixture(params=["exact", "loadtxt"])
def bulk_reader(request, monkeypatch):
    """Run a test on each bulk reader of ``_parse_dataset_fast``: the exact
    decimal reader, where the long double here has it, and ``np.loadtxt``."""
    if request.param == "exact" and not io_cli._EXACT_LONGDOUBLE:
        pytest.skip("the long double of this platform does not round exactly")
    monkeypatch.setattr(io_cli, "_EXACT_LONGDOUBLE", request.param == "exact")
    return request.param


# Cells at the edges of the exact reader's arithmetic: binary midpoints, 18-20
# significant digits, powers of ten at and past 10^27, the ends of the double
# range, signed zeros and an underflow; two quotients whose long double lies on
# a midpoint between doubles although the decimal does not; mantissas past
# int64, cut to 19 digits, just above, on and below a midpoint; a mantissa
# whose digits start past its 24th byte or that has a dot after its 19th digit;
# powers of ten up to 10^-307 and 10^289, the last of the range where the long
# double's error is bounded; and four decimals whose long double, with a rounded
# power of ten, is one unit of its last place from a midpoint, on the wrong side.
DECIMAL_EDGES = [
    "9007199254740993", "9007199254740993e0", "4503599627370497.5", "-9007199254740995",
    "123456789012345678", "1234567890123456789", "12345678901234567890",
    "0.00012345678901234567", "0.000000000000000000123456789012345678",
    "1.23456789012345678", "-98765432109876543.21", "00000000000000000000000000012.5",
    "1e22", "1e-22", "1e27", "1e-27", "1e28", "1e-28", "123456789012345678e-27",
    "1.5e-26", "1.5e-27", "999999999999999999e9", "7E+27", "7e-0028",
    "5e-324", "1.7976931348623157e308", "2.2250738585072011e-308", "-0", "-0.0e5", "+0.", "-.0",
    "1e-400", "9778890976845691e-22", "5663.01396153442829", "+.5", "5.", "5.e3",
    "9223372036854775806", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "18446744073709551617", "0.10000000000000000555", "-1.6906354288399141339",
    "1234567890123456789012345678901234567890", "12345678901234567890123456789e-10",
    "9007199254740993.000000000000000001", "9007199254740992.999999999999999999",
    "9007199254740993.0000000000000000000", "-4503599627370497.50000000000000000000001",
    "0.0000000000000000000000001234567890123456789012", "-00000000000000000000000000000001e5",
    "1.2345678901234567e-13", "-9.8765432109876543e-200", "1e-307", "1e-308", "1e289", "1e290",
    "2.2250738585072014e-308", "9.9999999999999999e288", "4.9406564584124654e-300",
    "123456789012345678.9012", "-923456789012345678.91e-5", "12345678901234567.89012e280",
    "12345678901234567890123.5", "-9223372036854775808.25e-40",
    "1.625727936367851883e+87", "9.115887180178564500e-60", "9.57415937628230596e+241",
    "-8.545101716710727614e-150",
]


@pytest.mark.parametrize("straddle", [False, True], ids=["row_at_edge", "row_across_edge"])
@pytest.mark.parametrize("last_newline", [True, False], ids=["newline", "no_newline"])
def test_read_dataset_over_many_blocks(tmp_path, monkeypatch, bulk_reader, straddle,
                                       last_newline):
    def per_cell_scan(*args, **kwargs):
        raise AssertionError("a plain file fell back to the per-cell scan")

    monkeypatch.setattr(io_cli, "_parse_cells", per_cell_scan)
    # 8-byte rows end exactly at each block edge; a 9-byte first row moves them
    # across it. More than 1 MB in all.
    digits = np.arange(150_000) // np.array([[1], [10], [100], [1000]]) % 10
    rows = ["1.25,-2.5"] * straddle + [f"{a}.{b},{c}.{d}" for a, b, c, d in digits.T]
    assert io_cli._BLOCK_BYTES % 8 == 0
    text = "x1,x2\n" + "\n".join(rows) + "\n" * last_newline
    path = tmp_path / "long.csv"
    path.write_text(text)
    assert path.stat().st_size > 1 << 20
    data = io_cli.read_dataset(str(path))
    expected = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert np.vstack([data.x1, data.x2]).T.tobytes() == expected.tobytes()


def test_fromstring_saturates_and_drops_a_trailing_separator():
    # the exact reader's guards rest on both: a field past int64 saturates to
    # one of its bounds (numpy 2.4 gives the upper one for either sign), which
    # the reader reads again from the text, and a trailing separator adds no field
    ints = np.fromstring(b"99999999999999999999,-99999999999999999999,9223372036854775808,+7,",
                         dtype=np.int64, sep=",")
    bounds = np.iinfo(np.int64)
    assert len(ints) == 4
    assert all(field in (bounds.max, bounds.min) for field in ints[:3].tolist())
    assert ints[3] == 7


@pytest.mark.skipif(not io_cli._EXACT_LONGDOUBLE, reason="no exact block reader here")
def test_powers_of_ten_are_rounded_once():
    unit = fractions.Fraction(1, 2 ** (np.finfo(np.longdouble).nmant + 1))
    for j, power in enumerate(io_cli._POW10):
        assert abs(fractions.Fraction(*power.as_integer_ratio()) / 10**j - 1) <= unit


def midpoint_decimals():
    """Decimals on and one unit of their last digit beside midpoints between
    adjacent doubles, at 17 to 40 significant digits, some negated, and each
    midpoint in full, over the whole range of the exact reader's powers of ten."""
    rng = np.random.default_rng(5)
    doubles = rng.uniform(1, 2, 300) * 2.0 ** np.r_[rng.integers(-1000, 1000, 150),
                                                     rng.integers(-60, 60, 150)]
    cells = []
    with decimal.localcontext() as context:
        context.prec = 1200
        for x in doubles.tolist():
            midpoint = (decimal.Decimal(x) + decimal.Decimal(np.nextafter(x, np.inf))) / 2
            cells.append(str(midpoint))
            for digits in (17, 19, 20, 25, 40):
                near = decimal.Decimal(format(midpoint, f".{digits - 1}e"))
                unit = decimal.Decimal(f"1e{near.adjusted() - digits + 1}")
                cells += [format(near + step, f".{digits - 1}e") for step in (-unit, 0, unit)]
            cells.append("-" + cells[-1])
    return cells


@pytest.mark.parametrize("plain_rows", [0, 3], ids=["dense", "sparse"])
@pytest.mark.parametrize("cells", [DECIMAL_EDGES, midpoint_decimals()], ids=["edges", "midpoints"])
def test_read_dataset_decimal_edges_have_float_bits(tmp_path, monkeypatch, bulk_reader, cells,
                                                    plain_rows):
    # dense, so many cells of a block miss the exact arithmetic that the block
    # is read again by strtod; sparse, three plain rows after each row, so
    # that the cells which miss it are read again one by one
    def per_cell_scan(*args, **kwargs):
        raise AssertionError("a decimal fell back to the per-cell scan")

    monkeypatch.setattr(io_cli, "_parse_cells", per_cell_scan)
    path = tmp_path / "edges.csv"
    path.write_text("x1,x2\n" + "".join(f"{cell},{cell}\n" + "0.5,-0.25\n" * plain_rows
                                        for cell in cells))
    data = io_cli.read_dataset(str(path))
    expected = np.array([float(cell) for cell in cells])
    step = plain_rows + 1
    assert data.x1.ravel()[::step].tobytes() == expected.tobytes()
    assert data.x2.ravel()[::step].tobytes() == expected.tobytes()


def reference_read(path, ncols):
    """The README grammar by ``csv`` and ``float()`` alone: the values, or the
    type, row and column of the error ``read_dataset(path, 1, ncols - 1)`` raises."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except (UnicodeDecodeError, csv.Error):
        return ev.ValidationError, None, None
    if not rows:
        return ev.ValidationError, None, None
    header = [name.strip() for name in rows[0]]
    if len(header) != ncols:
        return ev.DimensionMismatchError, None, None
    body = [row for row in rows[1:] if any(cell.strip() for cell in row)]
    if len(body) < 2:
        return ev.ValidationError, None, None
    values = []
    for i, row in enumerate(body, start=1):
        if len(row) != ncols:
            return ev.DimensionMismatchError, i, None
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = float("nan")
            if not np.isfinite(value):
                return ev.ParseError, i, header[j]
            values.append(value)
    return np.array(values).reshape(-1, ncols)


NUMBER_CELLS = st.one_of(
    FINITE_DOUBLES.map(repr),
    FINITE_DOUBLES.map("%.17g".__mod__),
    FINITE_DOUBLES.map("%.17E".__mod__),
    FINITE_DOUBLES.map("%.21g".__mod__),
    st.integers(-10**21, 10**21).map(str),
    st.tuples(st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=22),
              st.sampled_from(["", ".", ".5", "0."]),
              st.sampled_from(["", "e5", "E-05", "e+330", "e-330", "e-28", "e27"])).map("".join),
)
HOSTILE_CELLS = st.sampled_from([
    "", " ", "\t", "1.", ".5", "-.5", "+1", "1e", "e5", ".", "-", "+.", "1.2.3", ".-5", "1-2",
    "1e5.5", "1e5e5", "1_000", "١", "1\xa0", "\xa02", " 2", "nan", "NaN", "-inf",
    "Infinity", "1e400", "1e-400", "-0", '"1.5"', '"1,5"', '" 2"', "#1", "0x10", "1 2",
    " 7 ", "\t8", "9\x1c", "\x1f3", "\x0b4", "5\x0c", "9007199254740993",
    "99999999999999999999", "-99999999999999999999",
])
CELL = st.one_of(
    HOSTILE_CELLS,
    st.tuples(st.sampled_from([" ", "\t", ""]), NUMBER_CELLS, st.sampled_from([" ", "\t", ""]))
    .map("".join),
    st.text("0123456789.eE+- \t", max_size=6),
)
ODD_ROW = st.one_of(
    st.sampled_from(["", " ", "\t", ",,", ",,,"]),
    st.lists(NUMBER_CELLS, min_size=2, max_size=2).map(",".join),
    st.lists(NUMBER_CELLS, min_size=4, max_size=4).map(",".join),
)


@st.composite
def csv_files(draw):
    """CSV bytes for a 3-column dataset: rows of numbers, where one cell and
    one row may be hostile, under a varied header, line end, byte-order mark
    and last line; now and then with a byte that is not UTF-8."""
    header = draw(st.sampled_from(["x1,x2_1,x2_2", " x1 ,x2_1,\"x2_2\"", "x1,x2"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    rows = draw(st.lists(st.lists(NUMBER_CELLS, min_size=3, max_size=3), max_size=6))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] = draw(CELL)
    lines = [header, *map(",".join, rows)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(ODD_ROW))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x00"])) + data[at:]
    return data


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
@example(b"x1,x2_1,x2_2\n1,2,3\n4,5,6.5\x1c\n")
@example(b"\xef\xbb\xbfx1,x2_1,x2_2\r\n1.,.5,-0\r\n \r\n+4 ,\t5e-3,6\r\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,5,.-6\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,5,-\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,-.,6\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,1e+,6\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,+e5,6\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,5,1.2.3\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,5,1 2\n")
@example(b"x1,x2_1,x2_2\n1,2,3\r4,5,6\n")
@example(b"x1,x2_1,x2_2\n1,2\r,3\n4,5,6\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4\n5,6\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,5,1e5e5\n")
@example(b"x1,x2_1,x2_2\n1,2,3\n4,5,1e5.5\n")
def test_read_dataset_matches_the_reference_reader(tmp_path, capsys, bulk_reader, data):
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    expected = reference_read(path, 3)
    if isinstance(expected, np.ndarray):
        got = io_cli.read_dataset(str(path), 1, 2)
        assert np.vstack([got.x1, got.x2]).T.tobytes() == expected.tobytes()
    else:
        error, row, column = expected
        with pytest.raises(ev.ValidationError) as excinfo:
            io_cli.read_dataset(str(path), 1, 2)
        assert type(excinfo.value) is error
        if error is ev.ParseError:
            assert (excinfo.value.row, excinfo.value.column) == (row, column)
        elif row is not None:
            assert f": row {row} has " in str(excinfo.value)
    with warnings.catch_warnings():
        # the fit may warn on degenerate or overflowing data; the gate is its exit code
        warnings.simplefilter("ignore")
        code, out, _ = run_cli(capsys, ["fit", "--input", str(path), "--p", "1", "--r", "2",
                                        "--no-intercept"])
    assert code in (0, 1, 2)
    assert (code == 0) == (out != "")
    if not isinstance(expected, np.ndarray):
        assert code == 1


def reference_sigma0(path, size):
    """``read_sigma0(path, size)`` by ``csv``, ``float()`` and rationals alone:
    the symmetrized matrix, each entry (a + a') / 2 rounded once, or the type
    of the error it raises."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    except (UnicodeDecodeError, csv.Error):
        return ev.ValidationError
    if len(rows) != size or any(len(row) != size for row in rows):
        return ev.DimensionMismatchError
    matrix = []
    for row in rows:
        try:
            matrix.append([float(cell) for cell in row])
        except ValueError:
            return ev.ParseError
        if not all(map(np.isfinite, matrix[-1])):
            return ev.ParseError
    pairs = [(a, b) for row, column in zip(matrix, zip(*matrix)) for a, b in zip(row, column)]
    if max(abs(a - b) for a, b in pairs) > 1e-8 * max(abs(a) for a, _ in pairs):
        return ev.ValidationError
    means = [float((fractions.Fraction(a) + fractions.Fraction(b)) / 2) for a, b in pairs]
    # a zero has the sign of a + b: -0.0 for -0.0 and -0.0
    return np.array([mean if mean else math.copysign(0.0, a + b)
                     for mean, (a, b) in zip(means, pairs)]).reshape(size, size)


SIGMA0_SCALES = st.one_of(
    st.sampled_from([1.0, 4e307, 1e308, 1.7e308, 1e-300, 1e-310, 5e-324]),
    st.floats(1e-320, 1.7e308),
)
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def sigma0_cells(draw, value):
    """``value`` as a CSV cell that ``float()`` reads back, in one of the
    spellings it accepts, now and then padded or quoted."""
    text = draw(st.sampled_from([repr, "%.17g".__mod__, "%.17E".__mod__, "%.20g".__mod__]))(value)
    form = draw(st.sampled_from(["plain", "underscore", "arabic_indic"]))
    if form == "underscore" and text[:2].isdigit():
        text = text[0] + "_" + text[1:]
    elif form == "arabic_indic":
        text = text.translate(ARABIC_INDIC)
    pad = draw(st.sampled_from(["", " ", "\t", "\xa0", "\u3000"]))
    text = pad + text + draw(st.sampled_from(["", " ", "\xa0"]))
    return f'"{text}"' if draw(st.booleans()) else text


SIGMA0_HOSTILE_CELLS = st.sampled_from([
    "", "nan", "NaN", "-inf", "inf", "Infinity", "1e400", "-1e309", "1e-400", "1.5\x1c",
    "\x1f3", "2\x1d", "\x1e", "x", "0x10", '"1,5"', "1 2", "#1",
])


@st.composite
def sigma0_files(draw):
    """CSV bytes for a 2x2 or 3x3 covariance shape, and its size: a symmetric,
    diagonally dominant matrix at a scale up to 1.7e308, now and then made
    asymmetric, with a hostile cell, a blank or ragged row, under varied line
    ends and byte-order mark, and now and then with a byte that is not UTF-8."""
    size = draw(st.sampled_from([2, 3]))
    scale = draw(SIGMA0_SCALES)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = scale * draw(st.floats(0.5, 1.0))
        for j in range(i):
            matrix[i][j] = matrix[j][i] = scale * draw(st.floats(-0.4, 0.4)) / size
    if draw(st.integers(0, 4)) == 0:
        i, j = draw(st.permutations(range(size)))[:2]
        matrix[i][j] *= 1 + draw(st.sampled_from([1e-12, 1e-7, -1e-5, -2.0]))
    rows = [[draw(sigma0_cells(value)) for value in row] for row in matrix]
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = draw(
            SIGMA0_HOSTILE_CELLS)
    lines = [",".join(row) for row in rows]
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, size - 1))
        lines[at] = draw(st.sampled_from([lines[at] + ",1", lines[at].rpartition(",")[0]]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", ",", ",,"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x00"])) + data[at:]
    return data, size


# a 6-row dataset of p + r = 2 and 3 columns for the fits under each shape
SIGMA0_DATASETS = {
    2: "x1,x2\n0.1,1.2\n1.0,2.9\n2.2,5.1\n2.9,7.2\n4.1,8.8\n5.0,11.1\n",
    3: "x1,x2_1,x2_2\n0.1,1.2,-0.3\n1.0,2.9,-0.9\n2.2,5.1,-2.4\n2.9,7.2,-2.8\n"
       "4.1,8.8,-4.2\n5.0,11.1,-4.9\n",
}


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sigma0_files())
@example((b"1e308,0\n0,1e308\n", 2))
@example((b"4e307,0\n0,4e307\n", 2))
@example((b"1e308,1e308\n-1e308,1e308\n", 2))
@example((b"1.7e308,1e308\n1e308,1.7e308\n", 2))
@example((b"1e308,1.7e308\n1.7e308,1e308\n", 2))
@example((b"1e-320,0\n0,1e-320\n", 2))
@example((b"1,0\n0,1.5\x1c\n", 2))
def test_read_sigma0_matches_the_reference_reader(tmp_path, capsys, data):
    data, size = data
    path = tmp_path / "s0.csv"
    path.write_bytes(data)
    expected = reference_sigma0(path, size)
    if isinstance(expected, np.ndarray):
        assert io_cli.read_sigma0(str(path), size).tobytes() == expected.tobytes()
    else:
        with pytest.raises(ev.ValidationError) as excinfo:
            io_cli.read_sigma0(str(path), size)
        assert type(excinfo.value) is expected
    dataset = write(tmp_path, "d.csv", SIGMA0_DATASETS[size])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["fit", "--input", dataset, "--intercept", "--verify",
                                          "--sigma0", str(path)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 1, 2, 3)
    if code in (0, 3):  # a report, certified or not
        assert (out != "", err) == (True, "")
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if not isinstance(expected, np.ndarray):
        assert code == 1


@pytest.mark.parametrize("text, message", [
    ("", "empty dataset file"),
    ("\ufeff", "empty dataset file"),
    ("x1,x2\n", "need at least 2 observation rows, got 0"),
    ("x1,x2\n\n \n", "need at least 2 observation rows, got 0"),
    ("x1,x2\n0,1\n", "need at least 2 observation rows, got 1"),
    # float() rejects the information separators that str.strip removes
    ("x1,x2\n0,1\n2,1.5\x1c\n", "row 2, column 'x2': '1.5\\x1c' is not a finite real"),
    ("x1,x2\n0,1\n2,\xa0\x1f3 \n", "row 2, column 'x2': '\\x1f3' is not a finite real"),
])
def test_read_dataset_edge_messages(tmp_path, text, message):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ev.ValidationError) as excinfo:
        io_cli.read_dataset(str(path))
    assert str(excinfo.value) == f"{path}: {message}"


def write_late_non_utf8(tmp_path):
    # the bad byte lies well past the first buffered block, so the header
    # decodes and the error comes from inside the body parse
    path = tmp_path / "late.csv"
    path.write_bytes(b"x1,x2\n" + b"0.5,1.5\n" * 20000 + b"1,3\xff\n2,5\n")
    return path


def test_read_dataset_non_utf8_inside_body_parse(tmp_path):
    path = write_late_non_utf8(tmp_path)
    with pytest.raises(ev.ValidationError, match=r"late\.csv: not UTF-8 text"):
        io_cli.read_dataset(str(path))


# longer than the csv module's default field limit of 131072 characters
LONG_CELL = "1" + "0" * 200000 + "x"


@pytest.mark.parametrize("text", [
    f"x1,x2\n0,1\n2,{LONG_CELL}\n4,5\n",
    f"x1,x2{LONG_CELL}\n0,1\n2,3\n",
], ids=["body_cell", "header"])
def test_field_beyond_csv_limit_is_a_typed_error(tmp_path, capsys, text):
    path = tmp_path / "long.csv"
    path.write_text(text)
    with pytest.raises(ev.ValidationError, match=r"long\.csv: not readable as CSV"):
        io_cli.read_dataset(str(path))
    code, out, err = run_cli(capsys, ["fit", "--input", str(path), "--intercept"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not readable as CSV (field larger than field limit")


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def fit_report_for_dsb(tmp_path, **kw):
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    data = io_cli.read_dataset(path, p=1, r=1)
    spec = ev.ModelSpec(kind=INTERCEPT)
    result = ev.fit(data, spec)
    return io_cli.build_fit_report(result=result, input_path=path, **kw)


def test_fit_report_json_fixed_point(tmp_path):
    report = fit_report_for_dsb(tmp_path, emit_means=True)
    text = io_cli.report_to_json(report)
    assert io_cli.report_to_json(json.loads(text)) == text


MATRIX_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     sys.float_info.max, -sys.float_info.max, 1e16, 1e-7,
                     float("nan"), float("inf"), float("-inf")]),
)


@st.composite
def matrix_payloads(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    data = [[draw(MATRIX_CELLS) for _ in range(cols)] for _ in range(rows)]
    return {"rows": rows, "cols": cols, "data": data}


@st.composite
def long_float_lists(draw):
    """A list of floats longer than one chunk of the float writer, with a few
    special values; one NaN sends it down json's own path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 10.0 ** draw(st.integers(-5, 20)), io_cli._REPR_CHUNK + 3)
    for _ in range(draw(st.integers(0, 3))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(
            [-0.0, 5e-324, 1e16, 1e-7, float("nan"), sys.float_info.max]))
    return values.tolist()


# the items json writes its own way, and np.float64, which it writes as a float
MIXED_LISTS = st.lists(st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                                 st.floats().map(np.float64)), max_size=5)

REPORTS = st.recursive(
    st.dictionaries(st.sampled_from(["data", "u1_hat", "note", "n"]),
                    st.one_of(matrix_payloads(), st.text(max_size=5), st.integers(),
                              st.lists(st.lists(st.floats(), max_size=3), max_size=3),
                              long_float_lists(), MIXED_LISTS,
                              st.lists(st.floats().map(np.float64), max_size=3))),
    lambda children: st.dictionaries(
        st.sampled_from(["means", "estimates", "legacy_means", "b_hat"]),
        st.one_of(children, matrix_payloads()), max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(REPORTS)
@example({"means": {"u1_hat": {"rows": 1, "cols": 1, "data": [[1e16]]}}})
@example({"a": {"rows": 2, "cols": 0, "data": [[], []]}, "b": {"data": []}})
@example({"m": {"data": [[1, 2.0], [True, 1e-7]]}, "t": "@eivreg-matrix-rows@"})
@example({"m": {"data": [[0.5, -0.0]]}, "@eivreg-matrix-rows@": {"data": [[5e-324]]}})
@example({1: 0.5, 2.5: [1.5], True: {}, False: [], None: "x", float("nan"): [float("nan")]})
@example({"mixed": [0.5, 1, 2.0, True, None], "t": (1.5, -0.0), "i": [1, 2]})
@example({"e": [[], {}, [[], [{}]]], "d": {"x": {}, "y": {"z": []}}, "l": [[[0.5]], []]})
def test_report_to_json_is_json_dumps(float_writer, report):
    assert io_cli.report_to_json(report) == json.dumps(report, indent=2) + "\n"


def report_to_csv_per_cell(report):
    """The writer before lists of floats were joined: one ``csv.writer`` row
    per flattened leaf."""
    rows = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), item)
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                walk(f"{prefix}.{index}", item)
        else:
            rows.append((prefix, value))

    walk("", report)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, repr(float(value)) if isinstance(value, float) else value])
    return buffer.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(REPORTS)
@example({"means": {"u1_hat": {"rows": 1, "cols": 3, "data": [[-0.0, 5e-324, 1e16]]}}})
@example({"a": {"rows": 2, "cols": 0, "data": [[], []]}, "b": {"data": []}})
@example({"m": {"data": [[1, 2.0], [True, 1e-7]]}, "n": {"data": [[np.float64(0.1), None]]},
          "alpha_hat": [1.5, -0.0], "n_grid": [0.5, 2]})
@example({"a,b": {"data": [[0.5, float("nan")]]}, 'q"': {"data": [[float("-inf")]]},
          "l\n": {"data": [[sys.float_info.max, -sys.float_info.max]]}})
def test_report_to_csv_matches_the_per_cell_writer(float_writer, report):
    assert io_cli.report_to_csv(report) == report_to_csv_per_cell(report)


def test_report_to_json_on_a_full_fit_report(tmp_path):
    report = fit_report_for_dsb(tmp_path, emit_means=True, legacy=[[-1.0, 0.0, 1.0]])
    assert io_cli.report_to_json(report) == json.dumps(report, indent=2) + "\n"


def test_fit_report_contents(tmp_path):
    report = fit_report_for_dsb(tmp_path, emit_means=True)
    assert report["schema_version"] == 2
    assert report["model"] == {"kind": "intercept", "p": 1, "r": 1, "n": 3,
                               "sigma0": "identity"}
    assert report["estimates"]["b_hat"]["data"] == [[2.0]]
    assert report["estimates"]["alpha_hat"] == [pytest.approx(1.0)]
    assert report["input_checksum"].startswith("sha256:")
    assert "not a derived estimator" in report["residual_scale"]["note"]


def test_fit_report_csv_flattening(tmp_path):
    report = fit_report_for_dsb(tmp_path, emit_means=True, legacy=[[-1.0, 0.0, 1.0]])
    text = io_cli.report_to_csv(report)
    assert text == report_to_csv_per_cell(report)
    lines = text.splitlines()
    assert lines[0] == "key,value"
    values = dict(line.split(",", 1) for line in lines[1:])
    assert values["estimates.b_hat.data.0.0"] == "2.0"
    assert values["model.kind"] == "intercept"


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def run_cli(capsys, argv):
    code = io_cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_fit_golden(tmp_path, capsys):
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    code, out, _ = run_cli(capsys, [
        "fit", "--input", path, "--p", "1", "--r", "1", "--intercept", "--emit-means",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["estimates"]["b_hat"]["data"] == [[2.0]]
    assert report["estimates"]["alpha_hat"][0] == pytest.approx(1.0)
    u1 = np.array(report["means"]["u1_hat"]["data"])
    np.testing.assert_allclose(u1, [[0.0, 1.0, 2.0]], atol=1e-10)


def test_cli_fit_no_intercept(tmp_path, capsys):
    path = write(tmp_path, "dsa.csv", "x1,x2\n1,2\n2,4\n3,6\n")
    code, out, _ = run_cli(capsys, [
        "fit", "--input", path, "--p", "1", "--r", "1", "--no-intercept",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["estimates"]["b_hat"]["data"][0][0] == pytest.approx(2.0)
    assert report["estimates"]["alpha_hat"] == [0.0]


def test_cli_fit_verify_passes(dataset_csv, capsys):
    data = ev.generate_dataset(ev.random_truth(11, 0, INTERCEPT))
    code, out, _ = run_cli(capsys, [
        "fit", "--input", dataset_csv(data), "--intercept", "--verify",
    ])
    assert code == 0
    report = json.loads(out)
    assert list(report["oracle"]) == [field.name for field in dataclasses.fields(ev.OracleReport)]
    assert report["oracle"]["passed"] is True


def test_cli_fit_verify_passes_far_from_the_origin(dataset_csv, capsys):
    data = ev.generate_dataset(ev.random_truth(11, 0, INTERCEPT, n=2000, sigma=0.1))
    shifted = ev.ObservedData(x1=data.x1 + 1e4, x2=data.x2 + 1e4)
    code, out, _ = run_cli(capsys, [
        "fit", "--input", dataset_csv(shifted), "--intercept", "--verify",
    ])
    assert code == 0
    assert json.loads(out)["oracle"]["passed"] is True


def test_cli_fit_verify_failure_exits_3(dataset_csv, capsys, monkeypatch):
    data = ev.generate_dataset(ev.random_truth(11, 1, INTERCEPT))
    fit = io_cli.fit

    def legacy_fit(observed, spec):
        # a fit whose mean vectors are the legacy ones, off the least-squares optimum
        result = fit(observed, spec)
        return dataclasses.replace(result, u1_hat=ev.legacy_means(observed, spec, result))

    monkeypatch.setattr(io_cli, "fit", legacy_fit)
    code, out, _ = run_cli(capsys, [
        "fit", "--input", dataset_csv(data), "--intercept", "--verify",
    ])
    assert code == 3
    report = json.loads(out)
    assert report["oracle"]["passed"] is False
    assert report["oracle"]["max_abs_deviation"] > 0.0


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1.5"])
def test_cli_fit_rejects_non_finite_or_non_positive_tol(tmp_path, capsys, tol):
    # fit has no --tol: every value, these included, is a usage error
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    code, out, err = run_cli(capsys, [
        "fit", "--input", path, "--intercept", "--verify", "--tol", tol,
    ])
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: --tol {tol}" in err


def test_cli_non_utf8_input_exits_1(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x1,x2\n0,1\xff\n1,3\n2,5\n")
    code, out, err = run_cli(capsys, ["fit", "--input", str(path), "--intercept"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "latin.csv" in err


def test_cli_non_utf8_inside_body_parse_exits_1(tmp_path, capsys):
    path = write_late_non_utf8(tmp_path)
    code, out, err = run_cli(capsys, ["fit", "--input", str(path), "--intercept"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")


def test_cli_fit_sigma0_identity_matches(tmp_path, capsys):
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    sigma_path = write(tmp_path, "s0.csv", "1.0,0.0\n0.0,1.0\n")
    code, out, _ = run_cli(capsys, [
        "fit", "--input", path, "--p", "1", "--r", "1", "--intercept",
        "--sigma0", sigma_path,
    ])
    assert code == 0
    report = json.loads(out)
    assert report["model"]["sigma0"] == "provided"
    assert report["estimates"]["b_hat"]["data"][0][0] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_cli_rejects_an_asymmetric_sigma0_at_every_scale(tmp_path, capsys, k):
    # asymmetry 1e-6 relative to the largest entry, at the power-of-two scale 2^k
    shape = np.array([[2.0, 0.5], [0.5 + 2e-6, 1.0]]) * 2.0**k
    sigma_path = tmp_path / "s0.csv"
    np.savetxt(sigma_path, shape, fmt="%.17g", delimiter=",")
    code, out, err = run_cli(capsys, [
        "fit", "--input", write(tmp_path, "dsb.csv", DSB_CSV), "--p", "1", "--r", "1",
        "--intercept", "--sigma0", str(sigma_path),
    ])
    assert (code, out) == (1, "")
    assert "asymmetric beyond 1e-8 relative" in err


def test_cli_data_that_overflows_the_scatter_matrix_exits_1(tmp_path, capsys):
    path = write(tmp_path, "big.csv", "x1,x2,x3\n1e300,-1e300,5e307\n-1e300,1e300,-5e307\n"
                                      "1e300,1e300,5e307\n-1e300,-1e300,-5e307\n")
    code, out, err = run_cli(capsys, ["fit", "--input", path, "--p", "1", "--r", "2",
                                      "--no-intercept"])
    assert (code, out) == (1, "")
    assert err == ("error: the data's magnitude overflows the scatter matrix in double "
                   "precision; rescale the data\n")


def test_cli_usage_error_exits_1_without_report(tmp_path, capsys):
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    # missing the required intercept choice
    code, out, err = run_cli(capsys, ["fit", "--input", path, "--p", "1", "--r", "1"])
    assert code == 1
    assert out == ""
    assert err != ""


def test_cli_parse_error_exits_1_without_report(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "x1,x2\n0,1\n1,oops\n")
    code, out, err = run_cli(capsys, ["fit", "--input", path, "--intercept"])
    assert code == 1
    assert out == ""
    assert "x2" in err


def test_cli_missing_input_exits_1(capsys):
    code, out, err = run_cli(capsys, ["fit", "--input", "no-such-file.csv", "--intercept"])
    assert code == 1
    assert out == ""


QUOTED_CSV = DSB_CSV.replace("1,3", '1,"3"')  # a file the bulk parse declines


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd here")
@pytest.mark.parametrize("text", [DSB_CSV, QUOTED_CSV], ids=["bulk", "per_cell"])
def test_cli_fit_reads_a_pipe(tmp_path, capsys, bulk_reader, text):
    """A pipe is read once and kept: its checksum is that of its bytes, and a
    file the bulk parse declines is scanned cell by cell from what was kept."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as handle:
        handle.write(text.encode())
    try:
        code, out, err = run_cli(capsys, ["fit", "--input", f"/dev/fd/{read_end}",
                                          "--intercept"])
    finally:
        os.close(read_end)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["input_checksum"] == "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    _, from_file, _ = run_cli(capsys, ["fit", "--input", write(tmp_path, "d.csv", text),
                                       "--intercept"])
    assert report == json.loads(from_file)


@pytest.mark.parametrize("quoted_row", [None, 2, 3000], ids=["bulk", "first_block", "late_block"])
def test_a_regular_input_is_hashed_as_it_is_read(tmp_path, monkeypatch, bulk_reader, quoted_row):
    """A regular file is not kept in memory, and the reads of ``read_dataset``
    (the bulk parse, and the per-cell scan where that declines the file)
    leave the digest of the whole file, so the report reads it no more."""
    monkeypatch.setattr(io_cli, "_BLOCK_BYTES", 1 << 10)
    rows = [f"{i},{2 * i + 0.5}" for i in range(4000)]
    if quoted_row is not None:
        rows[quoted_row] = f'{quoted_row},"1.5"'
    path = tmp_path / "d.csv"
    path.write_text("x1,x2\n" + "\n".join(rows) + "\n")
    source = io_cli._InputFile(str(path))
    data = io_cli.read_dataset(source)
    assert data.n == 4000 and source._kept is None
    monkeypatch.setattr(source, "open", None)  # a third pass would fail
    digest = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    assert source.checksum() == digest
    assert io_cli.build_fit_report(ev.fit(data, ev.ModelSpec(kind=INTERCEPT)),
                                   source)["input_checksum"] == digest


def test_cli_unidentifiable_exits_2(tmp_path, capsys):
    path = write(tmp_path, "flat.csv", "x1,x2\n1,1\n1,2\n1,3\n")
    code, out, err = run_cli(capsys, ["fit", "--input", path, "--intercept"])
    assert code == 2
    assert out == ""


def test_cli_bad_sigma0_exits_2(tmp_path, capsys):
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    sigma_path = write(tmp_path, "neg.csv", "1.0,0.0\n0.0,-1.0\n")
    code, out, _ = run_cli(capsys, [
        "fit", "--input", path, "--intercept", "--sigma0", sigma_path,
    ])
    assert code == 2
    assert out == ""


def test_cli_fit_csv_format(tmp_path, capsys):
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    code, out, _ = run_cli(capsys, [
        "fit", "--input", path, "--intercept", "--format", "csv",
    ])
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_cli_simulate_writes_deterministic_outputs(tmp_path, capsys):
    argv = [
        "simulate", "--p", "1", "--r", "1", "--sigma", "0.1",
        "--n-grid", "20,40", "--reps", "10", "--seed", "3", "--intercept",
    ]
    first = run_cli(capsys, argv + ["--output", str(tmp_path / "a.csv")])
    second = run_cli(capsys, argv + ["--output", str(tmp_path / "b.csv")])
    assert first[0] == 0 and second[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()
    summary = json.loads((tmp_path / "a.csv.json").read_text())
    assert list(summary) == ["schema_version", "tool_version", "p", "r", "sigma", "error", "kind",
                             *(field.name for field in dataclasses.fields(ev.ConsistencyReport))]
    assert summary["skipped"] == 0
    assert len(summary["b_error_median"]) == 2


def test_cli_simulate_sigma_zero_no_intercept_all_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "simulate", "--p", "1", "--r", "1", "--sigma", "0",
        "--n-grid", "20,40", "--reps", "10", "--seed", "3", "--no-intercept",
    ])
    assert code == 0
    table, summary = out.split("{", 1)
    summary = json.loads("{" + summary)
    assert all(v <= 1e-12 for v in summary["b_error_median"])
    assert all(v <= 1e-12 for v in summary["u1_rmse_corrected"])
    assert all(v <= 1e-12 for v in summary["u1_rmse_legacy"])


def test_cli_fit_output_file_and_legacy_means(tmp_path, capsys):
    path = write(tmp_path, "dsb.csv", DSB_CSV)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, [
        "fit", "--input", path, "--intercept", "--legacy-means",
        "--output", str(out_path),
    ])
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    legacy = np.array(report["legacy_means"]["u1_hat"]["data"])
    np.testing.assert_allclose(legacy, [[-1.0, 0.0, 1.0]], atol=1e-10)
    assert "known-incorrect" in report["legacy_means"]["note"]


def test_cli_simulate_excessive_skips_exits_4(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ev.ExcessiveSkipsError("8 of 20 replicates were skipped")

    monkeypatch.setattr(io_cli, "consistency_experiment", explode)
    code, out, err = run_cli(capsys, [
        "simulate", "--p", "1", "--r", "1", "--sigma", "0.1",
        "--n-grid", "20,40", "--reps", "10", "--seed", "3", "--intercept",
    ])
    assert code == 4
    assert "skipped" in err


def test_cli_simulate_bad_grid_exits_1(capsys):
    code, _, err = run_cli(capsys, [
        "simulate", "--p", "1", "--r", "1", "--sigma", "0.1",
        "--n-grid", "40,20", "--reps", "10", "--seed", "3", "--intercept",
    ])
    assert code == 1


@pytest.mark.parametrize("p, r, message", [("-1", "1", "--p must be an integer >= 1, got -1"),
                                            ("1", "0", "--r must be an integer >= 1, got 0")])
def test_cli_simulate_nonpositive_dimension_exits_1(capsys, p, r, message):
    """Rejected before the slope is drawn: numpy's error for a negative
    shape would escape ``main``."""
    code, out, err = run_cli(capsys, [
        "simulate", "--p", p, "--r", r, "--sigma", "0.1",
        "--n-grid", "20,40", "--reps", "10", "--seed", "3", "--intercept",
    ])
    assert (code, out, err) == (1, "", f"error: {message}\n")


SIMULATE = ["simulate", "--intercept", "--p", "1", "--r", "1", "--reps", "10", "--seed", "3"]


@pytest.mark.parametrize("argv, message", [
    (["fit", "--input", "{path}", "--intercept"],
     "{path}: cannot infer p and r from header ['a', 'b']; name the predictor block x1*, "
     "then the response block x2*, or pass --p and --r"),
    (["fit", "--input", "{path}", "--intercept", "--p", "1"], "pass both p and r, or neither"),
    (SIMULATE + ["--sigma", "0.1", "--n-grid", "20,x"],
     "--n-grid must be comma-separated integers, got '20,x'"),
    (SIMULATE + ["--sigma", "-1", "--n-grid", "20,40"], "--sigma must be finite and >= 0, got -1.0"),
], ids=["header not inferable", "p without r", "grid not integers", "negative sigma"])
def test_cli_rejects_unreadable_arguments_with_exit_1(tmp_path, capsys, argv, message):
    path = write(tmp_path, "ab.csv", "a,b\n0,1\n1,3\n")
    code, out, err = run_cli(capsys, [arg.format(path=path) for arg in argv])
    assert (code, out, err) == (1, "", f"error: {message.format(path=path)}\n")


def test_cli_simulate_negative_seed_exits_1(capsys):
    code, out, err = run_cli(capsys, [
        "simulate", "--p", "1", "--r", "1", "--sigma", "0.1",
        "--n-grid", "20,40", "--reps", "10", "--seed", "-1", "--intercept",
    ])
    assert code == 1
    assert out == ""
    assert err == "error: seed must be an integer >= 0, got -1\n"


def test_cli_verify_passes_and_is_deterministic(capsys):
    argv = ["verify", "--seed", "1", "--instances", "12"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "all invariants passed" in out1


VERIFY_ROWS = (
    "mean-shift-identity",
    "slope-gram-identity",
    "no-intercept-coincidence",
    "oracle-agreement",
    "glse-stationarity",
)


def test_cli_verify_table_header_and_rows(capsys):
    """The header and one row per invariant in ``invariants.NAMES`` order,
    pinned so that adding or dropping a row is a deliberate change."""
    assert invariants.NAMES == VERIFY_ROWS
    code, out, _ = run_cli(capsys, ["verify", "--seed", "1", "--instances", "2"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "invariant                    instances     max_ratio  result"
    assert [line.split()[0] for line in lines[1:6]] == list(VERIFY_ROWS)
    assert lines[6] == ""


def test_cli_verify_failure_prints_the_instance_to_reproduce(capsys, monkeypatch):
    check_fit, calls = invariants.check_fit, []

    def one_failing_instance(result):
        ratios = check_fit(result)
        calls.append(result)
        if len(calls) == 4:  # index 3, a no-intercept instance
            ratios["slope-gram-identity"] = 2.5
        return ratios

    monkeypatch.setattr(invariants, "check_fit", one_failing_instance)
    code, out, _ = run_cli(capsys, ["verify", "--seed", "5", "--instances", "6"])
    table, block = out.split("first failing instance for reproduction:\n")
    data = ev.generate_dataset(ev.random_truth(5, 3, ev.ModelKind.NO_INTERCEPT))
    expected = {"invariant": "slope-gram-identity", "ratio": 2.5, "seed": 5, "index": 3,
                "kind": "no-intercept", "p": data.p, "r": data.r, "n": data.n,
                "x1": data.x1.tolist(), "x2": data.x2.tolist()}
    assert code == 3
    row, = (line for line in table.splitlines() if line.startswith("slope-gram-identity"))
    assert row.split()[1:] == ["6", "2.500e+00", "FAIL"]
    assert "INVARIANT FAILURES DETECTED" in table
    assert block == json.dumps(expected, indent=2) + "\n"


def test_cli_verify_zero_instances_exits_1(capsys):
    code, _, err = run_cli(capsys, ["verify", "--seed", "1", "--instances", "0"])
    assert code == 1


@pytest.mark.parametrize("instances", [True, 1.5])
def test_verify_suite_instances_must_be_an_integer(instances):
    with pytest.raises(ev.ValidationError, match="instances must be an integer >= 1"):
        io_cli.run_verify_suite(1, instances)


def test_cli_version(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out.strip() == ev.__version__
