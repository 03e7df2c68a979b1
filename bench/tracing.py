"""Spans around the calls into each eivreg layer, taken from outside the program.

A ``Tracer`` replaces public functions at the sites that import them with
wrappers that record a span (name, start, end, parent) in memory, and puts
the originals back when it closes. ``layer_metrics`` derives the per-layer
figures from the recorded spans. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from collections import Counter


class Tracer:
    """In-memory span recorder that patches functions while it is open."""

    def __init__(self, *, peaks: bool = False):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._peaks = peaks

    def span(self, name: str, func, args, kwargs, *, peak=False, extra=None):
        record = {"name": name, "index": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["index"])
        # tracemalloc runs only inside the measured call: it slows pure-Python
        # code many times over, and the call's own allocations are what count
        measure_peak = peak and self._peaks and not tracemalloc.is_tracing()
        if measure_peak:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if measure_peak:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if extra is not None:
            record.update(extra(args, kwargs, result))
        return result

    def wrap(self, owner, attr: str, name, *, peak=False, extra=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or a function of (args, kwargs) giving one.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.span(span_name, original, args, kwargs, peak=peak, extra=extra)

        self._patch(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        rows = [[s["name"], s["start"], s["end"], s["parent"]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": rows,
                       "counts": dict(self.counts)}, handle)


def _fit_name(args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return "estimators.fit" if spec.sigma0 is None else "estimators.fit_sigma0"


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of every layer at the sites that import them."""
    from eivreg import estimators, io_cli, model_core, oracle, simulate

    tracer.wrap(model_core.ObservedData, "__init__", "model_core.ObservedData")
    for owner in (estimators, io_cli, simulate):
        # the package-level ``eivreg.fit`` is the same function; callers in
        # the benchmark go through ``estimators.fit`` so they see the wrapper
        tracer.wrap(owner, "fit", _fit_name, peak=True)
    for owner in (io_cli, simulate):
        tracer.wrap(owner, "legacy_means", "estimators.legacy_means")
    tracer.wrap(estimators, "scatter_matrix", "model_core.scatter_matrix",
                extra=lambda args, kwargs, _: {
                    "bytes": 8 * args[0].n * (args[0].p + args[0].r)})
    tracer.wrap(estimators, "signal_eigenstructure", "model_core.signal_eigenstructure")
    for attr in ("estimate_b", "estimate_alpha", "estimate_u2", "_graph_slope", "_assemble"):
        tracer.wrap(estimators, attr, f"estimators.{attr}")
    tracer.wrap(estimators, "estimate_u1_corrected", "estimators.estimate_u1_corrected")
    tracer.wrap(estimators, "residual_matrix", "estimators.residual_matrix")
    tracer.wrap(estimators, "glse_residual", "estimators.glse_residual")
    tracer.wrap(estimators, "_fit_whitened", "estimators._fit_whitened")
    tracer.wrap(io_cli, "read_dataset", "io_cli.read_dataset")
    tracer.wrap(io_cli, "build_fit_report", "io_cli.build_fit_report")
    tracer.wrap(io_cli, "report_to_json", "io_cli.report_to_json",
                extra=lambda args, kwargs, text: {"bytes": len(text.encode("utf-8"))})
    tracer.wrap(io_cli, "perturbation_probe", "oracle.perturbation_probe")
    tracer.wrap(oracle, "project_columns_oracle", "oracle.project_columns_oracle")
    tracer.wrap(oracle, "glse_gradient_check", "oracle.glse_gradient_check")
    tracer.count(oracle, "_olse_objective", "oracle.objective_evals")
    tracer.count(oracle, "_glse_objective", "oracle.objective_evals")
    tracer.wrap(simulate, "generate_dataset", "simulate.generate_dataset")
    tracer.wrap(io_cli, "consistency_experiment", "simulate.consistency_experiment",
                extra=lambda args, kwargs, report: {
                    "replicates": report.replicates * len(report.n_grid)})


# (name, unit, better) for every per-layer metric, in report order
LAYER_METRICS = [
    ("io_cli.read_dataset.ms", "ms", "lower"),
    ("io_cli.read_dataset.peak_mb", "MB", "lower"),
    ("io_cli.report.ms", "ms", "lower"),
    ("io_cli.report.bytes", "bytes", "lower"),
    ("io_cli.import.ms", "ms", "lower"),
    ("model_core.ObservedData.ms", "ms", "lower"),
    ("model_core.scatter_matrix.ms", "ms", "lower"),
    ("model_core.scatter_matrix.gb_per_s", "GB/s", "higher"),
    ("model_core.signal_eigenstructure.us", "us", "lower"),
    ("estimators.fit.ms", "ms", "lower"),
    ("estimators.fit_sigma0.ms", "ms", "lower"),
    ("estimators.fit.peak_mb", "MB", "lower"),
    ("estimators.fit_over_scatter", "ratio", "lower"),
    ("estimators.estimate_u1_corrected.ms", "ms", "lower"),
    ("estimators.objectives.ms", "ms", "lower"),
    ("estimators.whiten.ms", "ms", "lower"),
    ("estimators.legacy_means.ms", "ms", "lower"),
    ("estimators.scatter_calls", "count", "lower"),
    ("oracle.project_columns_oracle.ms", "ms", "lower"),
    ("oracle.glse_gradient_check.ms", "ms", "lower"),
    ("oracle.perturbation_probe.self_ms", "ms", "lower"),
    ("oracle.objective_evals", "count", "lower"),
    ("simulate.generate_dataset.us", "us", "lower"),
    ("simulate.replicate.us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(tracer: Tracer, peak_tracer: Tracer, ops: int, *, import_s: float,
                  read_peak_mb: float, overhead: float) -> dict:
    """Per-layer figures from the spans of ``ops`` traced operations.

    Times are means per call unless named otherwise; a layer the workload
    never calls reads 0. ``peak_tracer`` holds the spans of one extra op
    whose ``fit`` calls ran under tracemalloc; only ``fit.peak_mb`` uses it.
    """
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def mean_s(name) -> float:
        group = by_name.get(name, [])
        return sum(map(_duration, group)) / len(group) if group else 0.0

    kids: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append(span)

    def children(span):
        return kids.get(span["index"], [])

    fit_peak = max((s.get("peak_bytes", 0) for s in peak_tracer.spans), default=0) / 1e6

    scatter = by_name.get("model_core.scatter_matrix", [])
    scatter_s = sum(map(_duration, scatter))
    gb_per_s = sum(s["bytes"] for s in scatter) / scatter_s / 1e9 if scatter else 0.0
    fits = by_name.get("estimators.fit", []) + by_name.get("estimators.fit_sigma0", [])

    # scatter passes made inside identity-shape fits, for a same-data ratio
    identity_scatter = [
        _duration(c) for s in by_name.get("estimators.fit", [])
        for c in children(s) if c["name"] == "model_core.scatter_matrix"
    ]
    fit_over_scatter = (
        mean_s("estimators.fit") / statistics.fmean(identity_scatter) if identity_scatter else 0.0
    )

    # whitening: the whitened fit minus the identity-shape machinery it calls
    whiten = [
        _duration(s) - sum(_duration(c) for c in children(s)
                           if c["name"] != "model_core.ObservedData")
        for s in by_name.get("estimators._fit_whitened", [])
    ]
    probe_self = [
        _duration(s) - sum(_duration(c) for c in children(s)
                           if c["name"] in ("oracle.project_columns_oracle",
                                            "oracle.glse_gradient_check"))
        for s in by_name.get("oracle.perturbation_probe", [])
    ]
    probes = len(by_name.get("oracle.perturbation_probe", []))
    sweeps = by_name.get("simulate.consistency_experiment", [])
    replicates = sum(s["replicates"] for s in sweeps)
    reports = by_name.get("io_cli.report_to_json", [])

    values = {
        "io_cli.read_dataset.ms": 1e3 * mean_s("io_cli.read_dataset"),
        "io_cli.read_dataset.peak_mb": read_peak_mb,
        "io_cli.report.ms": 1e3 * (mean_s("io_cli.build_fit_report")
                                   + mean_s("io_cli.report_to_json")),
        "io_cli.report.bytes": statistics.fmean(s["bytes"] for s in reports) if reports else 0.0,
        "io_cli.import.ms": 1e3 * import_s,
        "model_core.ObservedData.ms":
            1e3 * sum(map(_duration, by_name.get("model_core.ObservedData", []))) / ops,
        "model_core.scatter_matrix.ms": 1e3 * scatter_s / len(scatter) if scatter else 0.0,
        "model_core.scatter_matrix.gb_per_s": gb_per_s,
        "model_core.signal_eigenstructure.us": 1e6 * mean_s("model_core.signal_eigenstructure"),
        "estimators.fit.ms": 1e3 * mean_s("estimators.fit"),
        "estimators.fit_sigma0.ms": 1e3 * mean_s("estimators.fit_sigma0"),
        "estimators.fit.peak_mb": fit_peak,
        "estimators.fit_over_scatter": fit_over_scatter,
        "estimators.estimate_u1_corrected.ms": 1e3 * mean_s("estimators.estimate_u1_corrected"),
        "estimators.objectives.ms": 1e3 * (mean_s("estimators.residual_matrix")
                                           + mean_s("estimators.glse_residual")),
        "estimators.whiten.ms": 1e3 * statistics.fmean(whiten) if whiten else 0.0,
        "estimators.legacy_means.ms": 1e3 * mean_s("estimators.legacy_means"),
        "estimators.scatter_calls": len(scatter) / len(fits) if fits else 0.0,
        "oracle.project_columns_oracle.ms": 1e3 * mean_s("oracle.project_columns_oracle"),
        "oracle.glse_gradient_check.ms": 1e3 * mean_s("oracle.glse_gradient_check"),
        "oracle.perturbation_probe.self_ms": 1e3 * statistics.fmean(probe_self) if probe_self else 0.0,
        "oracle.objective_evals": tracer.counts["oracle.objective_evals"] / probes if probes else 0.0,
        "simulate.generate_dataset.us": 1e6 * mean_s("simulate.generate_dataset"),
        "simulate.replicate.us":
            1e6 * sum(map(_duration, sweeps)) / replicates if replicates else 0.0,
        "trace.overhead_pct": 100.0 * overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
