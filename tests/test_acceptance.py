"""Acceptance suite: one test per release criterion, at pinned tolerances.

The invariants' limits come from ``eivreg.invariants``, as for ``eivreg verify``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import dataclasses
import time

import numpy as np
import pytest

import eivreg as ev
from eivreg import invariants, io_cli

INTERCEPT = ev.ModelKind.INTERCEPT
NO_INTERCEPT = ev.ModelKind.NO_INTERCEPT

SUITE_SEED = 2024
SIGMA0_SEED = 4048
NO_INTERCEPT_SEED = 6072
INSTANCES = 100


def report(number, label, ok):
    print(f"acceptance criterion {number:>2} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def make_instances(seed, count, kind):
    out = []
    for index in range(count):
        truth = ev.random_truth(seed, index, kind)
        out.append((truth, ev.generate_dataset(truth)))
    return out


def random_spd(rng, m, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return (q * rng.uniform(lo, hi, m)) @ q.T


@pytest.fixture(scope="module")
def intercept_suite():
    """The 100 seeded intercept instances shared by criteria 2, 3, 4, and 9."""
    suite = []
    for truth, data in make_instances(SUITE_SEED, INSTANCES, INTERCEPT):
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
        suite.append((truth, data, result))
    return suite


@pytest.fixture(scope="module")
def no_intercept_suite():
    suite = []
    for truth, data in make_instances(NO_INTERCEPT_SEED, 50, NO_INTERCEPT):
        result = ev.fit(data, ev.ModelSpec(kind=NO_INTERCEPT))
        suite.append((truth, data, result))
    return suite


def test_criterion_1_correction_identity_suite():
    start = time.perf_counter()
    projection_ok = True
    identity_ok = True
    for _, data in make_instances(SUITE_SEED, INSTANCES, INTERCEPT):
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
        projection_ok &= invariants.oracle_agreement(result) <= 1.0
        identity_ok &= invariants.mean_shift(result) <= 1.0
    elapsed = time.perf_counter() - start
    report(1, "correction identity suite",
           projection_ok and identity_ok and elapsed < 5.0)


def test_criterion_2_oracle_equivalence(intercept_suite):
    identity_ok = True
    for _, data, result in intercept_suite:
        identity_ok &= invariants.oracle_agreement(result) <= 1.0

    weighted_ok = True
    rng = np.random.default_rng(SIGMA0_SEED)
    for index in range(20):
        truth = ev.random_truth(SIGMA0_SEED, index, INTERCEPT)
        sigma0 = random_spd(rng, truth.p + truth.r)
        truth = ev.SyntheticTruth(
            u1=truth.u1, b=truth.b, alpha=truth.alpha, sigma2=truth.sigma2,
            sigma0=sigma0, error_kind=truth.error_kind, seed=truth.seed,
        )
        data = ev.generate_dataset(truth)
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
        weighted_ok &= invariants.oracle_agreement(result) <= 1.0

    report(2, "oracle equivalence", identity_ok and weighted_ok)


def test_criterion_3_optimality(intercept_suite):
    passed_ok = True
    excess_ok = True
    demeaned_ok = True
    qualifying = 0
    for _, data, result in intercept_suite:
        probe = ev.perturbation_probe(result)
        passed_ok &= probe.passed
        if float(np.max(np.abs(data.x1.mean(axis=1)))) > 0.1:
            qualifying += 1
            excess_ok &= probe.legacy_objective_excess > 0.0
        demeaned = ev.ObservedData(
            x1=data.x1 - data.x1.mean(axis=1, keepdims=True), x2=data.x2
        )
        demeaned_result = ev.fit(demeaned, ev.ModelSpec(kind=INTERCEPT))
        demeaned_probe = ev.perturbation_probe(demeaned_result)
        demeaned_ok &= demeaned_probe.legacy_objective_excess <= 1e-12
    report(3, "certified optimality",
           passed_ok and excess_ok and demeaned_ok and qualifying >= 50)


def test_criterion_4_glse_stationarity(intercept_suite):
    ok = True
    for _, data, result in intercept_suite:
        if not result.eigenstructure.degenerate:
            ok &= invariants.glse_stationarity(result) <= 1.0
    report(4, "glse stationarity", ok)


def test_criterion_5_golden_instance():
    data = ev.ObservedData(x1=[[0.0, 1.0, 2.0]], x2=[[1.0, 3.0, 5.0]])
    spec = ev.ModelSpec(kind=INTERCEPT)
    result = ev.fit(data, spec)
    legacy = ev.legacy_means(data, spec)
    ok = (
        abs(result.b_hat[0, 0] - 2.0) <= 1e-10
        and abs(result.alpha_hat[0] - 1.0) <= 1e-10
        and float(np.max(np.abs(result.u1_hat - [[0.0, 1.0, 2.0]]))) <= 1e-10
        and float(np.max(np.abs(legacy - [[-1.0, 0.0, 1.0]]))) <= 1e-10
        and result.olse_objective <= 1e-10
    )
    report(5, "golden instance", ok)


def test_criterion_6_no_intercept_coincidence(no_intercept_suite):
    ok = True
    for _, data, result in no_intercept_suite:
        ok &= invariants.mean_shift(result) <= 1.0
    report(6, "no-intercept coincidence", ok)


def test_criterion_7_noise_free_recovery():
    ok = True
    rng = np.random.default_rng(7_000)
    for index in range(5):
        for kind in (INTERCEPT, NO_INTERCEPT):
            truth = ev.random_truth(7_000, index, kind, sigma=0.0)
            data = ev.generate_dataset(truth)
            for sigma0 in (None, random_spd(rng, truth.p + truth.r)):
                result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
                ok &= float(np.max(np.abs(result.b_hat - truth.b))) <= 1e-8
                ok &= float(np.max(np.abs(result.alpha_hat - truth.alpha))) <= 1e-8
                ok &= float(np.max(np.abs(result.u1_hat - truth.u1))) <= 1e-8
    report(7, "noise-free recovery", ok)


def test_criterion_8_consistency_trend():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    template = ev.SyntheticTruth(
        u1=ev.default_mean_grid(2, 64, offset=1.0),
        b=rng.standard_normal((2, 2)),
        alpha=rng.standard_normal(2),
        sigma2=0.01,
        seed=88,
    )
    result = ev.consistency_experiment(template, (50, 500, 2000), 50, seed=88,
                                       kind=INTERCEPT)
    elapsed = time.perf_counter() - start
    trend_ok = result.b_error_median[-1] <= result.b_error_median[0] / 3.0
    report(8, "consistency trend", trend_ok and result.skipped == 0 and elapsed < 60.0)


def test_criterion_9_structural_identities(intercept_suite, no_intercept_suite):
    ok = True
    rotation_rng = np.random.default_rng(909)
    for suite in (intercept_suite, no_intercept_suite):
        for _, data, result in suite:
            es = result.eigenstructure
            block = es.g11.T @ es.g11 + es.g21.T @ es.g21 - np.eye(data.p)
            ok &= float(np.max(np.abs(block))) <= 1e-10
            ok &= invariants.slope_gram(result) <= 1.0

            o, _ = np.linalg.qr(rotation_rng.normal(size=(data.p, data.p)))
            es_rot = dataclasses.replace(es, g11=es.g11 @ o, g21=es.g21 @ o, left=o.T @ es.left)
            ok &= float(np.max(np.abs(ev.estimate_b(es_rot) - result.b_hat))) <= 1e-9
    report(9, "structural identities", ok)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    simulate_argv = [
        "simulate", "--p", "2", "--r", "2", "--sigma", "0.1",
        "--n-grid", "20,40", "--reps", "10", "--seed", "3", "--intercept",
    ]
    assert io_cli.main(simulate_argv + ["--output", str(tmp_path / "a.csv")]) == 0
    assert io_cli.main(simulate_argv + ["--output", str(tmp_path / "b.csv")]) == 0
    simulate_ok = (
        (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        and (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()
    )

    verify_argv = ["verify", "--seed", "1", "--instances", "10"]
    assert io_cli.main(verify_argv) == 0
    first = capsys.readouterr().out
    assert io_cli.main(verify_argv) == 0
    second = capsys.readouterr().out
    verify_ok = first == second and "all invariants passed" in first

    report(10, "cli determinism", simulate_ok and verify_ok)
