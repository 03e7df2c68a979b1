"""One scatter matrix, one eigendecomposition and one pass of row means per
fitted dataset: every consumer of a fit (legacy means, the consistency sweep,
the verify suite) reuses the eigenstructure the fit computed, every estimator
the data's cached row means, and a refit of the same data its stored scatter
matrix."""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

import eivreg as ev
from eivreg import estimators, io_cli, model_core

INTERCEPT = ev.ModelKind.INTERCEPT
NO_INTERCEPT = ev.ModelKind.NO_INTERCEPT


def stacked_count(result) -> int:
    """Matrices a scatter or eigenstructure result stands for: one, or one per
    index of the leading axes of a stacked call, and never fewer than one."""
    if isinstance(result, np.ndarray):
        return max(1, int(np.prod(result.shape[:-2])))
    return max(1, int(np.prod(result.eigenvalues.shape[:-1])))


@pytest.fixture
def calls(monkeypatch):
    """Count the matrices scattered and decomposed wherever the package (the
    sweep included, through ``estimators``) looks those functions up."""
    counts = Counter()
    for name in ("scatter_matrix", "signal_eigenstructure"):
        original = getattr(model_core, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            counts[_name] += stacked_count(result)
            return result

        for module in (estimators, io_cli):
            monkeypatch.setattr(module, name, counted, raising=False)
    return counts


def dense_sigma0(m):
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(m, m)))
    s = (q * np.linspace(0.5, 3.0, m)) @ q.T
    return (s + s.T) / 2.0


@pytest.mark.parametrize("with_sigma0", [False, True])
def test_cli_fit_with_legacy_means_decomposes_once(tmp_path, dataset_csv, calls, with_sigma0):
    data = ev.generate_dataset(ev.random_truth(5, 0, INTERCEPT, p=3, r=2, n=40))
    argv = ["fit", "--input", dataset_csv(data), "--intercept", "--emit-means",
            "--legacy-means", "--verify", "--output", str(tmp_path / "report.json")]
    if with_sigma0:
        np.savetxt(tmp_path / "s0.csv", dense_sigma0(5), delimiter=",")
        argv += ["--sigma0", str(tmp_path / "s0.csv")]
    assert io_cli.main(argv) == 0
    assert calls == {"scatter_matrix": 1, "signal_eigenstructure": 1}


def test_consistency_experiment_decomposes_once_per_replicate(calls):
    template = ev.SyntheticTruth(
        u1=ev.default_mean_grid(2, 64, offset=1.0),
        b=[[1.0, -0.5], [0.3, 2.0]],
        alpha=[0.5, -1.0],
        sigma2=0.01,
    )
    report = ev.consistency_experiment(template, (20, 40), 10, 3, kind=INTERCEPT)
    assert report.skipped == 0
    assert calls == {"scatter_matrix": 20, "signal_eigenstructure": 20}


def test_verify_suite_decomposes_once_per_instance(calls):
    suite = io_cli.run_verify_suite(seed=1, instances=12)
    assert suite["first_failure"] is None
    assert calls == {"scatter_matrix": 12, "signal_eigenstructure": 12}


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
@pytest.mark.parametrize("with_sigma0", [False, True])
def test_legacy_means_from_fit_matches_refit(kind, with_sigma0):
    data = ev.generate_dataset(ev.random_truth(9, 2, kind, p=3, r=2))
    spec = ev.ModelSpec(kind=kind, sigma0=dense_sigma0(5) if with_sigma0 else None)
    np.testing.assert_array_equal(
        ev.legacy_means(data, spec, ev.fit(data, spec)), ev.legacy_means(data, spec)
    )


def test_legacy_means_rejects_a_fit_of_other_data():
    data = ev.generate_dataset(ev.random_truth(9, 3, INTERCEPT, p=2, r=1, n=30))
    other = ev.generate_dataset(ev.random_truth(9, 4, INTERCEPT, p=2, r=1, n=31))
    spec = ev.ModelSpec(kind=INTERCEPT)
    mismatch = "result is not a fit of this data under this model"
    with pytest.raises(ev.ValidationError, match=mismatch):
        ev.legacy_means(data, spec, ev.fit(other, spec))
    with pytest.raises(ev.ValidationError, match=mismatch):
        ev.legacy_means(data, ev.ModelSpec(kind=NO_INTERCEPT), ev.fit(data, spec))
    # a fit under another covariance shape, in either direction
    dense = ev.ModelSpec(kind=INTERCEPT, sigma0=dense_sigma0(3))
    with pytest.raises(ev.ValidationError, match=mismatch):
        ev.legacy_means(data, dense, ev.fit(data, spec))
    with pytest.raises(ev.ValidationError, match=mismatch):
        ev.legacy_means(data, spec, ev.fit(data, dense))


def mean_calls(action) -> int:
    """The number of ``ndarray.mean`` calls ``action()`` makes, counted as the
    calls into numpy's Python-level ``_methods._mean``."""
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "_mean" and code.co_filename.endswith("_methods.py"):
            calls.append(code)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("kind, passes", [(INTERCEPT, 1), (NO_INTERCEPT, 0)])
@pytest.mark.parametrize("with_sigma0", [False, True])
def test_fit_and_legacy_means_take_the_row_means_once(kind, passes, with_sigma0):
    data = ev.generate_dataset(ev.random_truth(9, 5, kind, p=3, r=2, n=20))
    spec = ev.ModelSpec(kind=kind, sigma0=dense_sigma0(5) if with_sigma0 else None)
    # one mean over data.x for the intercept model; none without one
    assert mean_calls(lambda: ev.legacy_means(data, spec, ev.fit(data, spec))) == passes


@pytest.fixture
def scatter_passes(monkeypatch):
    """Count, per model kind, the passes ``scatter_matrix`` makes over the
    columns: the calls of ``_blockwise`` it looks up in ``model_core``
    (the fit's second pass and the legacy means bind the name in ``estimators``)."""
    passes = Counter()
    original = model_core._blockwise

    def counted(data, kind, work):
        passes[kind] += 1
        return original(data, kind, work)

    monkeypatch.setattr(model_core, "_blockwise", counted)
    return passes


def test_one_scatter_pass_per_dataset_and_kind(scatter_passes):
    data = ev.generate_dataset(ev.random_truth(9, 6, INTERCEPT, p=3, r=2, n=40))
    for kind in (INTERCEPT, NO_INTERCEPT):
        for sigma0 in (None, dense_sigma0(5)):
            ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
        ev.legacy_means(data, ev.ModelSpec(kind=kind))
    assert scatter_passes == {INTERCEPT: 1, NO_INTERCEPT: 1}


def assert_same_bits(a, b):
    """Every field of two fits (or eigenstructures) is bit for bit the same."""
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(left):
            assert_same_bits(left, right)
        elif isinstance(left, ev.ModelKind) or left is None:
            assert left is right
        else:
            np.testing.assert_array_equal(left, right, strict=True)


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
@pytest.mark.parametrize("with_sigma0", [False, True])
def test_a_refit_has_the_bits_of_a_fit_of_fresh_data(kind, with_sigma0):
    # more than one block of columns, so W is a sum over blocks
    data = ev.generate_dataset(ev.random_truth(9, 7, kind, p=3, r=2, n=2 * model_core._BLOCK + 3))
    spec = ev.ModelSpec(kind=kind, sigma0=dense_sigma0(5) if with_sigma0 else None)
    first = ev.fit(data, spec)
    refit = ev.fit(data, spec)
    fresh = ev.fit(ev.ObservedData(data.x1, data.x2), spec)
    assert_same_bits(refit, fresh)
    assert_same_bits(first, fresh)
