"""CSV ingestion, report serialization, and the command-line interface.

Three subcommands tie the package together: ``fit`` reads a dataset and
reports the closed-form estimates (optionally certified by the oracle suite),
``simulate`` runs a seeded consistency sweep, and ``verify`` asserts the full
invariant suite over randomly generated instances. Numbers are serialized as
shortest round-trip decimals, and fixed seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__, invariants
from .estimators import FitResult, fit, legacy_means
from .exceptions import (
    DimensionMismatchError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    ParseError,
    UnidentifiableError,
    ValidationError,
)
from .model_core import ModelKind, ModelSpec, ObservedData, _require_count
from .oracle import perturbation_probe
from .simulate import (
    ConsistencyReport,
    ErrorKind,
    SyntheticTruth,
    consistency_experiment,
    default_mean_grid,
    generate_dataset,
    random_truth,
)

# 2: the fit report's oracle section no longer carries perturbation_violations
SCHEMA_VERSION = 2

RESIDUAL_SCALE_NOTE = (
    "ad hoc scale diagnostic (mean squared residual per entry); "
    "not a derived estimator of the error variance"
)
LEGACY_MEANS_NOTE = (
    "known-incorrect for the intercept model (omits the mean-shift term); "
    "shown for comparison only"
)


# ---------------------------------------------------------------------------
# dataset and matrix files
# ---------------------------------------------------------------------------

def _csv_rows(path):
    """Rows of a UTF-8 CSV file, a leading byte-order mark dropped; a file
    that is not UTF-8 fails with a ``ValidationError`` naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield from csv.reader(handle)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: not readable as CSV ({exc})") from None


def _parse_cells(path, rows, columns) -> np.ndarray:
    """Parse rows of CSV cells into a float matrix, one column per label.

    Each row must have one cell per column, and each cell must parse with
    ``float`` as a finite real. The first failure raises, naming its 1-based
    row and the ``repr`` of its column label: a header name or an index.
    """
    values = np.empty((len(rows), len(columns)))
    for i, row in enumerate(rows, start=1):
        if len(row) != len(columns):
            raise DimensionMismatchError(
                f"{path}: row {i} has {len(row)} cells, expected {len(columns)}"
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = float("nan")
            if not np.isfinite(value):
                raise ParseError(f"{path}: row {i}, column {columns[j]!r}: {cell.strip()!r} "
                                 "is not a finite real", row=i, column=columns[j])
            values[i - 1, j] = value
    return values


def _parse_dataset_fast(path):
    """Header cells and body values of a dataset, the body parsed by numpy in
    one pass; ``(None, None)`` unless the body is at least 2 rows of finite
    values, one per header cell.

    ``comments=None`` keeps ``#`` an ordinary character, so a ``#`` row or
    cell fails here instead of being dropped or truncated. Whatever fails
    here (a decode error, quoted cells, ``1_000``, blank rows holding spaces
    or commas) is left to the per-cell scan, which accepts it or reports it.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header = next(csv.reader(handle), None)
            if header is None:
                return None, None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no rows
                values = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
    except (ValueError, csv.Error):  # the per-cell scan reports a csv.Error
        return None, None
    if len(values) < 2 or values.shape[1] != len(header) or not np.isfinite(values).all():
        return None, None
    return header, values


def read_dataset(path, p: int | None = None, r: int | None = None) -> ObservedData:
    """Read a CSV dataset: one observation per row, predictor columns first.

    The header row names the columns; when ``p`` and ``r`` are not given they
    are inferred from the ``x1*``/``x2*`` name prefixes. A cell is anything
    Python's ``float()`` reads as finite: surrounding spaces, quotes, ``1_000``
    and non-ASCII digits included, and ``1e-400`` reads as 0.0. Blank rows
    are skipped; there are no comments, so a ``#`` in a cell is an error.
    A file the one-pass numpy parse does not take whole is scanned again cell
    by cell, which decides what is accepted and where an error points.
    """
    header, values = _parse_dataset_fast(path)
    if values is None:
        reader = _csv_rows(path)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty dataset file") from None
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    header = [name.strip() for name in header]

    if p is None and r is None:
        p = sum(name.startswith("x1") for name in header)
        r = sum(name.startswith("x2") for name in header)
        ordered = all(name.startswith("x1") for name in header[:p]) and all(
            name.startswith("x2") for name in header[p:]
        )
        if p == 0 or r == 0 or p + r != len(header) or not ordered:
            raise ValidationError(
                f"{path}: cannot infer p and r from header {header}; "
                "name the predictor block x1*, then the response block x2*, "
                "or pass --p and --r"
            )
    elif p is None or r is None:
        raise ValidationError("pass both p and r, or neither")
    else:
        _require_count("p", p, 1)
        _require_count("r", r, 1)

    if len(header) != p + r:
        raise DimensionMismatchError(
            f"{path}: file has {len(header)} columns, expected p + r = {p + r}"
        )
    if values is None:
        if len(rows) < 2:
            raise ValidationError(f"{path}: need at least 2 observation rows, got {len(rows)}")
        values = _parse_cells(path, rows, header)
    return ObservedData(x1=values[:, :p].T, x2=values[:, p:].T)


def read_sigma0(path, size: int) -> np.ndarray:
    """Read a covariance shape as a plain numeric CSV square matrix (no header).

    Symmetry is enforced by averaging with the transpose; asymmetry beyond
    1e-8 relative fails.
    """
    rows = [row for row in _csv_rows(path) if any(cell.strip() for cell in row)]
    if len(rows) != size or any(len(row) != size for row in rows):
        raise DimensionMismatchError(
            f"{path}: covariance shape must be {size}x{size} to match p + r"
        )
    matrix = _parse_cells(path, rows, range(1, size + 1))
    if float(np.max(np.abs(matrix - matrix.T))) > 1e-8 * float(np.max(np.abs(matrix))):
        raise ValidationError(f"{path}: covariance shape is asymmetric beyond 1e-8 relative")
    return (matrix + matrix.T) / 2.0


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


# ---------------------------------------------------------------------------
# report assembly and serialization
# ---------------------------------------------------------------------------

def _matrix_payload(matrix) -> dict:
    matrix = np.asarray(matrix, dtype=float)
    return {
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "data": matrix.tolist(),
    }


def build_fit_report(
    result: FitResult,
    input_path,
    emit_means: bool = False,
    legacy=None,
    oracle_report=None,
) -> dict:
    """Assemble the structured fit report (JSON-ready, plain Python values);
    the model's kind, sigma0, p, r and n are read from ``result``."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_checksum": _sha256(input_path),
        "model": {
            "kind": result.kind.value,
            "p": result.b_hat.shape[1],
            "r": result.b_hat.shape[0],
            "n": result.u1_hat.shape[1],
            "sigma0": "identity" if result.sigma0 is None else "provided",
        },
        "estimates": {
            "b_hat": _matrix_payload(result.b_hat),
            "alpha_hat": [float(v) for v in result.alpha_hat],
        },
        "objectives": {
            "olse": float(result.olse_objective),
            "glse": float(result.glse_objective),
        },
        "residual_scale": {
            "value": float(result.residual_scale),
            "note": RESIDUAL_SCALE_NOTE,
        },
        "diagnostics": {
            "eigengap": float(result.eigenstructure.eigengap),
            "g11_condition": float(result.eigenstructure.g11_condition),
            "degenerate": bool(result.eigenstructure.degenerate),
        },
    }
    if emit_means:
        report["means"] = {
            "u1_hat": _matrix_payload(result.u1_hat),
            "u2_hat": _matrix_payload(result.u2_hat),
        }
    if legacy is not None:
        report["legacy_means"] = {
            "u1_hat": _matrix_payload(legacy),
            "note": LEGACY_MEANS_NOTE,
        }
    if oracle_report is not None:
        report["oracle"] = asdict(oracle_report)
    return report


def report_to_json(report: dict) -> str:
    """What ``json.dumps`` writes for ``report`` with ``indent=2``, and a newline, byte for byte.

    Each list of finite floats is written with one join instead of the
    encoder's per-element loop; json writes every other value and every key.
    """
    parts = []
    _json_parts(report, "", parts)
    parts.append("\n")
    return "".join(parts)


def _json_parts(value, indent: str, parts: list) -> None:
    """Append what ``json.dumps(indent=2)`` writes for ``value`` nested at ``indent``."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        parts.append(json.dumps(value))
        return
    inner = indent + "  "
    if isinstance(value, dict):
        for i, (key, item) in enumerate(value.items()):
            # json's own conversion of a str, int, float, bool or None key
            parts += (",\n" if i else "{\n", inner, json.dumps({key: 0})[1:-4], ": ")
            _json_parts(item, inner, parts)
        parts += ("\n", indent, "}")
        return
    try:  # float.__repr__ is how json writes a finite float
        floats = (",\n" + inner).join(map(float.__repr__, value))
    except TypeError:  # an int, bool, str, None or container item
        floats = None
    if floats is not None and all(map(math.isfinite, value)):
        parts += ("[\n", inner, floats)
    else:
        for i, item in enumerate(value):
            parts += (",\n" if i else "[\n", inner)
            _json_parts(item, inner, parts)
    parts += ("\n", indent, "]")


def _flatten(prefix: str, value, writer, out) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, writer, out)
    elif isinstance(value, (list, tuple)):
        text = _float_list_csv(prefix, value)
        if text is not None:
            out.write(text)
            return
        for index, item in enumerate(value):
            _flatten(f"{prefix}.{index}", item, writer, out)
    else:
        writer.writerow([prefix, repr(float(value)) if isinstance(value, float) else value])


def _float_list_csv(prefix: str, values):
    """The rows ``csv.writer`` writes for a list of floats under ``prefix``,
    in one join; None when the key needs quoting or an item is not a float."""
    if any(char in prefix for char in ',"\r\n'):
        return None
    try:
        return "".join(map("{}.{},{}\n".format, itertools.repeat(prefix), itertools.count(),
                           map(float.__repr__, values)))
    except TypeError:  # an int, bool, str or list item, which csv writes its own way
        return None


def report_to_csv(report: dict) -> str:
    """Flatten a report to ``key,value`` rows with dotted key paths."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    _flatten("", report, writer, buffer)
    return buffer.getvalue()


def consistency_table(report: ConsistencyReport) -> str:
    """Tabular view of a consistency sweep: one CSV row per sample size."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "b_error_median", "u1_rmse_corrected", "u1_rmse_legacy"])
    for n, *errors in zip(report.n_grid, report.b_error_median, report.u1_rmse_corrected,
                          report.u1_rmse_legacy):
        writer.writerow([n, *map(repr, errors)])
    return buffer.getvalue()


def consistency_summary(report: ConsistencyReport, extra: dict) -> str:
    """The sweep's JSON summary: the versions, ``extra``, then ``report``'s fields."""
    return report_to_json({"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                           **extra, **asdict(report)})


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def run_verify_suite(seed: int, instances: int) -> dict:
    """Run ``invariants.check_fit`` on seeded random instances, alternating
    between the intercept and no-intercept models across p in 1..4, r in 1..3,
    n in 10..60. Each table row counts the instances an invariant covered and
    keeps its worst deviation-to-limit ratio (above 1 fails); the first
    failing instance, if any, is kept for reproduction.
    """
    _require_count("instances", instances, 1)
    checks = {name: {"checked": 0, "max_ratio": 0.0} for name in invariants.NAMES}
    first_failure = None
    for index in range(instances):
        kind = ModelKind.INTERCEPT if index % 2 == 0 else ModelKind.NO_INTERCEPT
        data = generate_dataset(random_truth(seed, index, kind))
        spec = ModelSpec(kind=kind)
        for name, ratio in invariants.check_fit(fit(data, spec)).items():
            entry = checks[name]
            entry["checked"] += 1
            entry["max_ratio"] = max(entry["max_ratio"], ratio)
            if ratio > 1.0 and first_failure is None:
                first_failure = dict(invariant=name, ratio=ratio, seed=seed, index=index,
                                     kind=kind.value, p=data.p, r=data.r, n=data.n,
                                     x1=data.x1.tolist(), x2=data.x2.tolist())

    return {
        "seed": seed,
        "instances": instances,
        "checks": checks,
        "first_failure": first_failure,
    }


def format_verify_table(suite: dict) -> str:
    lines = [f"{'invariant':<28}{'instances':>10}{'max_ratio':>14}  result"]
    all_passed = True
    for name, entry in suite["checks"].items():
        passed = entry["max_ratio"] <= 1.0
        all_passed = all_passed and passed
        lines.append(
            f"{name:<28}{entry['checked']:>10}{entry['max_ratio']:>14.3e}"
            f"  {'PASS' if passed else 'FAIL'}"
        )
    verdict = "all invariants passed" if all_passed else "INVARIANT FAILURES DETECTED"
    lines.append("")
    lines.append(
        f"{verdict} ({suite['instances']} instances, seed {suite['seed']}, "
        "ratios are deviation over tolerance)"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors (2 is reserved
    for unidentifiable/not-positive-definite failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_kind_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--intercept", action="store_true",
                       help="fit the intercept model")
    group.add_argument("--no-intercept", dest="no_intercept", action="store_true",
                       help="fit the no-intercept model (intercept known to be zero)")


def _kind_from_args(args) -> ModelKind:
    return ModelKind.INTERCEPT if args.intercept else ModelKind.NO_INTERCEPT


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="eivreg",
        description="Closed-form estimators for the multivariate "
                    "errors-in-variables regression model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    fit_parser = subparsers.add_parser("fit", help="fit a dataset and report estimates")
    fit_parser.add_argument("--input", required=True, help="dataset CSV path")
    fit_parser.add_argument("--p", type=int, default=None, help="predictor dimension")
    fit_parser.add_argument("--r", type=int, default=None, help="response dimension")
    _add_kind_flags(fit_parser)
    fit_parser.add_argument("--sigma0", default=None,
                            help="known error-covariance shape, (p+r)x(p+r) numeric CSV")
    fit_parser.add_argument("--emit-means", action="store_true",
                            help="include the fitted mean matrices in the report")
    fit_parser.add_argument("--legacy-means", action="store_true",
                            help="also report the legacy mean estimate "
                                 "(incorrect for the intercept model)")
    fit_parser.add_argument("--verify", action="store_true",
                            help="run the oracle suite and embed its report")
    fit_parser.add_argument("--output", default=None, help="write the report here")
    fit_parser.add_argument("--format", choices=("json", "csv"), default="json")
    fit_parser.set_defaults(handler=_cmd_fit)

    sim_parser = subparsers.add_parser("simulate", help="run a seeded consistency sweep")
    sim_parser.add_argument("--p", type=int, required=True)
    sim_parser.add_argument("--r", type=int, required=True)
    sim_parser.add_argument("--sigma", type=float, required=True,
                            help="error standard deviation (0 gives noise-free data)")
    sim_parser.add_argument("--error", choices=("gaussian", "uniform"), default="gaussian")
    sim_parser.add_argument("--n-grid", required=True,
                            help="comma-separated strictly increasing sample sizes")
    sim_parser.add_argument("--reps", type=int, required=True)
    sim_parser.add_argument("--seed", type=int, required=True)
    _add_kind_flags(sim_parser)
    sim_parser.add_argument("--output", default=None,
                            help="write the table here and the JSON summary beside it")
    sim_parser.set_defaults(handler=_cmd_simulate)

    verify_parser = subparsers.add_parser("verify",
                                          help="assert the invariant suite on random instances")
    verify_parser.add_argument("--seed", type=int, required=True)
    verify_parser.add_argument("--instances", type=int, required=True)
    verify_parser.set_defaults(handler=_cmd_verify)
    return parser


def _write_output(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_fit(args) -> int:
    data = read_dataset(args.input, args.p, args.r)
    kind = _kind_from_args(args)
    sigma0 = read_sigma0(args.sigma0, data.p + data.r) if args.sigma0 else None
    spec = ModelSpec(kind=kind, sigma0=sigma0)
    result = fit(data, spec)
    oracle_report = perturbation_probe(result) if args.verify else None
    legacy = legacy_means(data, spec, result) if args.legacy_means else None
    report = build_fit_report(result, args.input, args.emit_means, legacy, oracle_report)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _write_output(text, args.output)
    return 3 if oracle_report is not None and not oracle_report.passed else 0


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"--n-grid must be comma-separated integers, got {text!r}") from None


def _cmd_simulate(args) -> int:
    kind = _kind_from_args(args)
    _require_count("--p", args.p, 1)
    _require_count("--r", args.r, 1)
    if not (np.isfinite(args.sigma) and args.sigma >= 0):
        raise ValidationError(f"--sigma must be finite and >= 0, got {args.sigma}")
    grid = _parse_grid(args.n_grid)
    _require_count("seed", args.seed, 0)
    rng = np.random.default_rng([args.seed, 0])
    b = rng.standard_normal((args.r, args.p))
    alpha = rng.standard_normal(args.r) if kind is ModelKind.INTERCEPT else np.zeros(args.r)
    # template means in [0, 2] per row: nonzero row means make the legacy
    # estimate's defect visible in the intercept model
    template = SyntheticTruth(
        u1=default_mean_grid(args.p, 64, offset=1.0),
        b=b,
        alpha=alpha,
        sigma2=args.sigma * args.sigma,
        error_kind=ErrorKind(args.error),
    )
    report = consistency_experiment(template, grid, args.reps, args.seed, kind=kind)
    table = consistency_table(report)
    summary = consistency_summary(report, {
        "p": args.p,
        "r": args.r,
        "sigma": float(args.sigma),
        "error": args.error,
        "kind": kind.value,
    })
    if args.output is None:
        sys.stdout.write(table + summary)
    else:
        _write_output(table, args.output)
        _write_output(summary, args.output + ".json")
    return 0


def _cmd_verify(args) -> int:
    suite = run_verify_suite(args.seed, args.instances)
    sys.stdout.write(format_verify_table(suite))
    if suite["first_failure"] is not None:
        sys.stdout.write("first failing instance for reproduction:\n")
        sys.stdout.write(report_to_json(suite["first_failure"]))
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (ValidationError, OSError) as exc:  # parse, dimension, and file errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnidentifiableError, NotPositiveDefiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExcessiveSkipsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
