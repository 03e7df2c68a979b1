"""The benchmark under bench/ reaches into the program by name: its tracer
patches functions at the modules that define or import them. These tests run
the benchmark's own self-test and one traced certified fit, so a change that
moves or renames a traced function fails here and not only in a traced run.
Nothing under bench/ is changed.
"""

import importlib
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from eivreg import estimators, io_cli, model_core
from eivreg.model_core import ModelKind, ModelSpec, ObservedData

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def write_csv(path, rows, header=None):
    lines = [",".join(header)] if header else []
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_traced_certified_fit_records_every_oracle_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    p, r, n = 3, 2, 30
    rng = np.random.default_rng(4)
    x1 = rng.normal(size=(p, n)) + 2.0
    x2 = rng.normal(size=(r, 1)) + rng.normal(size=(r, p)) @ x1 + 0.3 * rng.normal(size=(r, n))
    header = [f"x1_{k + 1}" for k in range(p)] + [f"x2_{k + 1}" for k in range(r)]
    dataset = write_csv(tmp_path / "d.csv", np.vstack([x1, x2]).T, header)
    shape = rng.normal(size=(p + r, p + r))
    sigma0 = write_csv(tmp_path / "s.csv", shape @ shape.T / 5 + 0.5 * np.eye(p + r))

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        code = io_cli.main(["fit", "--input", dataset, "--intercept", "--sigma0", sigma0,
                            "--emit-means", "--legacy-means", "--verify",
                            "--output", str(tmp_path / "report.json")])
    finally:
        tracer.close()

    assert code == 0
    names = {span["name"] for span in tracer.spans}
    assert {
        "io_cli.read_dataset", "estimators.fit_sigma0", "estimators.legacy_means",
        "estimators.estimate_b", "estimators._graph_slope",
        "oracle.perturbation_probe", "oracle.project_columns_oracle",
        "oracle.glse_gradient_check", "io_cli.build_fit_report", "io_cli.report_to_json",
    } <= names
    # the direct O(n) sums: the objective at the fitted point and at the
    # legacy means; the 200 trials and the exact GLSE gradient come from moments
    evals = 2
    assert tracer.counts["oracle.objective_evals"] == evals
    metrics = tracing.layer_metrics(tracer, tracer, 1, import_s=0.0, read_peak_mb=0.0,
                                    overhead=0.0)
    assert metrics["oracle.objective_evals"]["value"] == evals
    for name in ("oracle.project_columns_oracle.ms", "oracle.glse_gradient_check.ms",
                 "oracle.perturbation_probe.self_ms", "io_cli.report.ms"):
        assert metrics[name]["value"] > 0.0


def test_traced_identity_fit_records_every_estimator_span(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    rng = np.random.default_rng(5)
    x1 = rng.normal(size=(3, 40)) + 2.0
    data = ObservedData(x1=x1, x2=rng.normal(size=(2, 3)) @ x1 + 0.3 * rng.normal(size=(2, 40)))

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        estimators.fit(data, ModelSpec(kind=ModelKind.INTERCEPT))
    finally:
        tracer.close()

    names = [span["name"] for span in tracer.spans]
    assert {
        "estimators.fit", "model_core.scatter_matrix", "model_core.signal_eigenstructure",
        "estimators.estimate_b", "estimators._graph_slope", "estimators._assemble",
    } <= set(names)
    # one centering pass for W and one for the closed forms; both objectives
    # come from the r-by-r Gram matrix of the graph residual, not from a
    # stacked or a normalized residual
    assert names.count("model_core.scatter_matrix") == 1
    assert names.count("estimators._assemble") == 1
    assert "estimators.residual_matrix" not in names
    assert "estimators.glse_residual" not in names
    metrics = tracing.layer_metrics(tracer, tracer, 1, import_s=0.0, read_peak_mb=0.0,
                                    overhead=0.0)
    assert metrics["estimators.scatter_calls"]["value"] == 1


def test_traced_fit_on_several_workers_keeps_its_spans_under_the_fit(monkeypatch):
    # the tracer keeps one span stack for every thread, so the worker threads
    # of the column-block passes must call no traced function
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(model_core, "_WORKERS", 3)
    rng = np.random.default_rng(6)
    n = 3 * model_core._BLOCK
    x1 = rng.normal(size=(3, n)) + 2.0
    data = ObservedData(x1=x1, x2=rng.normal(size=(2, 3)) @ x1 + 0.3 * rng.normal(size=(2, n)))

    tracer = tracing.Tracer()
    threads = set()
    record_span = tracer.span

    def span_on_thread(*args, **kwargs):
        threads.add(threading.get_ident())
        return record_span(*args, **kwargs)

    tracer.span = span_on_thread
    tracing.instrument(tracer)
    try:
        estimators.fit(data, ModelSpec(kind=ModelKind.INTERCEPT))
    finally:
        tracer.close()

    assert threads == {threading.get_ident()}
    fit, = (span for span in tracer.spans if span["parent"] is None)
    assert fit["name"] == "estimators.fit"
    for name in ("model_core.scatter_matrix", "estimators._assemble"):
        spans = [span for span in tracer.spans if span["name"] == name]
        assert [span["parent"] for span in spans] == [fit["index"]]


def test_traced_simulate_records_the_sweep_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        code = io_cli.main(["simulate", "--intercept", "--p", "3", "--r", "2", "--sigma", "0.1",
                            "--n-grid", "20,1000", "--reps", "10", "--seed", "3",
                            "--output", str(tmp_path / "sweep.csv")])
    finally:
        tracer.close()

    assert code == 0
    assert "simulate.consistency_experiment" in {span["name"] for span in tracer.spans}
    metrics = tracing.layer_metrics(tracer, tracer, 1, import_s=0.0, read_peak_mb=0.0,
                                    overhead=0.0)
    assert metrics["simulate.replicate.us"]["value"] > 0.0
