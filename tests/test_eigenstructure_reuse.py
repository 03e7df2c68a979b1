"""One scatter matrix, one eigendecomposition and one pass of row means per
fitted dataset: every consumer of a fit (legacy means, the consistency sweep,
the verify suite) reuses the eigenstructure the fit computed, and every
estimator the data's cached row means."""

import sys
from collections import Counter

import numpy as np
import pytest

import eivreg as ev
from eivreg import estimators, io_cli, model_core

INTERCEPT = ev.ModelKind.INTERCEPT
NO_INTERCEPT = ev.ModelKind.NO_INTERCEPT


@pytest.fixture
def calls(monkeypatch):
    """Count scatter and eigenstructure calls wherever the package looks them up."""
    counts = Counter()
    for name in ("scatter_matrix", "signal_eigenstructure"):
        original = getattr(model_core, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

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
    with pytest.raises(ev.ValidationError):
        ev.legacy_means(data, spec, ev.fit(other, spec))
    with pytest.raises(ev.ValidationError):
        ev.legacy_means(data, ev.ModelSpec(kind=NO_INTERCEPT), ev.fit(data, spec))
    # a fit under another covariance shape, in either direction
    dense = ev.ModelSpec(kind=INTERCEPT, sigma0=dense_sigma0(3))
    with pytest.raises(ev.ValidationError):
        ev.legacy_means(data, dense, ev.fit(data, spec))
    with pytest.raises(ev.ValidationError):
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


@pytest.mark.parametrize("kind, passes", [(INTERCEPT, 2), (NO_INTERCEPT, 0)])
@pytest.mark.parametrize("with_sigma0", [False, True])
def test_fit_and_legacy_means_take_the_row_means_once(kind, passes, with_sigma0):
    data = ev.generate_dataset(ev.random_truth(9, 5, kind, p=3, r=2, n=20))
    spec = ev.ModelSpec(kind=kind, sigma0=dense_sigma0(5) if with_sigma0 else None)
    # one mean per block, x1 and x2, for the intercept model; none without one
    assert mean_calls(lambda: ev.legacy_means(data, spec, ev.fit(data, spec))) == passes
