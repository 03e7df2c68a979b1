import csv
import dataclasses
import io
import json
import sys

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
}


@pytest.mark.parametrize("text, expected", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_read_dataset_parses_as_float_would(tmp_path, text, expected):
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
def test_read_dataset_plain_numeric_file_skips_per_cell_scan(tmp_path, monkeypatch, text):
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
def test_read_dataset_values_are_bit_exact(tmp_path, rows):
    expected = np.array(rows)
    for render in (repr, "%.17g".__mod__):
        path = tmp_path / "values.csv"
        cells = [[render(v) for v in row] for row in rows]
        path.write_text("x1,x2\n" + "".join(",".join(row) + "\n" for row in cells))
        data = io_cli.read_dataset(str(path))
        got = np.vstack([data.x1, data.x2]).T
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == np.array([[float(c) for c in row] for row in cells]).tobytes()


@pytest.mark.parametrize("text, message", [
    ("", "empty dataset file"),
    ("\ufeff", "empty dataset file"),
    ("x1,x2\n", "need at least 2 observation rows, got 0"),
    ("x1,x2\n\n \n", "need at least 2 observation rows, got 0"),
    ("x1,x2\n0,1\n", "need at least 2 observation rows, got 1"),
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


REPORTS = st.recursive(
    st.dictionaries(st.sampled_from(["data", "u1_hat", "note", "n"]),
                    st.one_of(matrix_payloads(), st.text(max_size=5), st.integers(),
                              st.lists(st.lists(st.floats(), max_size=3), max_size=3))),
    lambda children: st.dictionaries(
        st.sampled_from(["means", "estimates", "legacy_means", "b_hat"]),
        st.one_of(children, matrix_payloads()), max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(REPORTS)
@example({"means": {"u1_hat": {"rows": 1, "cols": 1, "data": [[1e16]]}}})
@example({"a": {"rows": 2, "cols": 0, "data": [[], []]}, "b": {"data": []}})
@example({"m": {"data": [[1, 2.0], [True, 1e-7]]}, "t": "@eivreg-matrix-rows@"})
@example({"m": {"data": [[0.5, -0.0]]}, "@eivreg-matrix-rows@": {"data": [[5e-324]]}})
@example({1: 0.5, 2.5: [1.5], True: {}, False: [], None: "x", float("nan"): [float("nan")]})
@example({"mixed": [0.5, 1, 2.0, True, None], "t": (1.5, -0.0), "i": [1, 2]})
@example({"e": [[], {}, [[], [{}]]], "d": {"x": {}, "y": {"z": []}}, "l": [[[0.5]], []]})
def test_report_to_json_is_json_dumps(report):
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


@settings(max_examples=200, deadline=None)
@given(REPORTS)
@example({"means": {"u1_hat": {"rows": 1, "cols": 3, "data": [[-0.0, 5e-324, 1e16]]}}})
@example({"a": {"rows": 2, "cols": 0, "data": [[], []]}, "b": {"data": []}})
@example({"m": {"data": [[1, 2.0], [True, 1e-7]]}, "n": {"data": [[np.float64(0.1), None]]},
          "alpha_hat": [1.5, -0.0], "n_grid": [0.5, 2]})
@example({"a,b": {"data": [[0.5, float("nan")]]}, 'q"': {"data": [[float("-inf")]]},
          "l\n": {"data": [[sys.float_info.max, -sys.float_info.max]]}})
def test_report_to_csv_matches_the_per_cell_writer(report):
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
