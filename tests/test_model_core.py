import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import eivreg as ev
from eivreg import model_core

INTERCEPT = ev.ModelKind.INTERCEPT
NO_INTERCEPT = ev.ModelKind.NO_INTERCEPT


def dsb():
    return ev.ObservedData(x1=[[0.0, 1.0, 2.0]], x2=[[1.0, 3.0, 5.0]])


# ---------------------------------------------------------------------------
# observed data and model spec
# ---------------------------------------------------------------------------

def test_observed_data_shapes():
    data = dsb()
    assert (data.p, data.r, data.n) == (1, 1, 3)
    np.testing.assert_array_equal(data.x, [[0, 1, 2], [1, 3, 5]])


def test_observed_data_rejects_non_finite():
    with pytest.raises(ev.ValidationError):
        ev.ObservedData(x1=[[0.0, np.nan]], x2=[[1.0, 2.0]])


def test_observed_data_rejects_column_mismatch():
    with pytest.raises(ev.ValidationError):
        ev.ObservedData(x1=[[0.0, 1.0]], x2=[[1.0, 2.0, 3.0]])


def test_observed_data_is_immutable():
    data = dsb()
    with pytest.raises(ValueError):
        data.x1[0, 0] = 7.0


def test_row_means_are_cached_and_read_only():
    data = ev.ObservedData(x1=[[0.0, 1.0, 2.0], [4.0, 4.0, 7.0]], x2=[[1.0, 3.0, 5.0]])
    np.testing.assert_array_equal(data.row_means, [1.0, 5.0, 3.0])
    assert data.row_means is data.row_means
    with pytest.raises(ValueError):
        data.row_means[0] = 7.0


def test_model_spec_rejects_asymmetric_sigma0():
    with pytest.raises(ev.ValidationError):
        ev.ModelSpec(kind=INTERCEPT, sigma0=[[1.0, 0.5], [0.2, 1.0]])


@pytest.mark.parametrize("k", [0, -20, -40])
def test_model_spec_symmetry_check_ignores_the_scale_of_sigma0(k):
    with pytest.raises(ev.ValidationError, match="not symmetric"):
        ev.ModelSpec(kind=INTERCEPT, sigma0=np.array([[1.0, 0.0], [1e-7, 1.0]]) * 2.0**k)


def test_model_spec_rejects_indefinite_sigma0():
    with pytest.raises(ev.NotPositiveDefiniteError):
        ev.ModelSpec(kind=INTERCEPT, sigma0=[[1.0, 0.0], [0.0, -2.0]])


@pytest.mark.parametrize("make, message", [
    (lambda: ev.ObservedData(x1=[0.0, 1.0], x2=[[1.0, 2.0]]), "x1 must be a 2-D matrix, got ndim=1"),
    (lambda: ev.ObservedData(x1=np.zeros((0, 2)), x2=[[1.0, 2.0]]),
     "x1 and x2 must each have at least one row"),
    (lambda: ev.ObservedData(x1=np.zeros((1, 0)), x2=np.zeros((1, 0))),
     "at least one observation column is required"),
    (lambda: ev.ModelSpec(kind=INTERCEPT, sigma0=np.ones((2, 3))),
     "sigma0 must be square, got shape (2, 3)"),
    (lambda: ev.ModelSpec(kind="intercept"), "kind must be a ModelKind, got 'intercept'"),
], ids=["1-D block", "no rows", "no columns", "non-square sigma0", "kind a string"])
def test_observed_data_and_model_spec_reject_malformed_input(make, message):
    with pytest.raises(ev.ValidationError) as excinfo:
        make()
    assert excinfo.type is ev.ValidationError
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# centering, applied by the scatter matrix
# ---------------------------------------------------------------------------

def test_center_no_intercept_returns_input_unchanged():
    data = ev.ObservedData(x1=[[1.0, 3.0]], x2=[[2.0, 5.0]])
    np.testing.assert_array_equal(
        ev.scatter_matrix(data, NO_INTERCEPT), [[10.0, 17.0], [17.0, 29.0]]
    )


def test_center_intercept_examples():
    data = ev.ObservedData(x1=[[1.0, 3.0]], x2=[[2.0, 6.0]])
    np.testing.assert_allclose(ev.scatter_matrix(data, INTERCEPT), [[2.0, 4.0], [4.0, 8.0]])
    data = ev.ObservedData(x1=[[0.0, 1.0, 2.0]], x2=[[5.0, 5.0, 5.0]])
    np.testing.assert_allclose(ev.scatter_matrix(data, INTERCEPT), [[2.0, 0.0], [0.0, 0.0]])


def test_center_rejects_non_finite():
    # ObservedData holds finite copies, so the scatter pass need not check again
    with pytest.raises(ev.ValidationError):
        ev.scatter_matrix(ev.ObservedData(x1=[[1.0, 2.0]], x2=[[np.inf, 1.0]]), INTERCEPT)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 5), st.integers(1, 12)),
        elements=st.floats(-1e6, 1e6),
    )
)
def test_center_idempotent(x):
    centered = x - x.mean(axis=1, keepdims=True)
    once = ev.scatter_matrix(ev.ObservedData(x1=x[:1], x2=x[1:]), INTERCEPT)
    twice = ev.scatter_matrix(ev.ObservedData(x1=centered[:1], x2=centered[1:]), INTERCEPT)
    uncentered = ev.scatter_matrix(
        ev.ObservedData(x1=centered[:1], x2=centered[1:]), NO_INTERCEPT
    )
    scale = max(1.0, float(np.max(np.abs(x)))) ** 2 * x.shape[1]
    np.testing.assert_allclose(twice, once, atol=1e-12 * scale, rtol=0)
    np.testing.assert_allclose(uncentered, twice, atol=1e-12 * scale, rtol=0)


def test_center_row_sums_vanish():
    # centered rows sum to zero, so a per-row offset leaves the intercept W unchanged
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 17)) * 10.0
    shifted = x + rng.normal(size=(3, 1)) * 1e3
    w = ev.scatter_matrix(ev.ObservedData(x1=x[:2], x2=x[2:]), INTERCEPT)
    w_shifted = ev.scatter_matrix(ev.ObservedData(x1=shifted[:2], x2=shifted[2:]), INTERCEPT)
    bound = 1e-10 * x.shape[1] * np.max(np.abs(shifted)) * np.max(np.abs(x))
    assert np.all(np.abs(w_shifted - w) <= bound)


# ---------------------------------------------------------------------------
# scatter matrix
# ---------------------------------------------------------------------------

def test_scatter_intercept_golden():
    np.testing.assert_allclose(
        ev.scatter_matrix(dsb(), INTERCEPT), [[2.0, 4.0], [4.0, 8.0]]
    )


def test_scatter_no_intercept_golden():
    data = ev.ObservedData(x1=[[1.0, 2.0, 3.0]], x2=[[2.0, 4.0, 6.0]])
    np.testing.assert_allclose(
        ev.scatter_matrix(data, NO_INTERCEPT), [[14.0, 28.0], [28.0, 56.0]]
    )


def test_scatter_single_column_intercept_is_zero():
    data = ev.ObservedData(x1=[[3.0]], x2=[[7.0]])
    np.testing.assert_array_equal(ev.scatter_matrix(data, INTERCEPT), np.zeros((2, 2)))


def test_scatter_is_stored_read_only_once_per_kind():
    data = ev.ObservedData(x1=[[1.0, 2.0, 3.0]], x2=[[2.0, 4.0, 7.0]])
    w = {kind: ev.scatter_matrix(data, kind) for kind in ev.ModelKind}
    for kind in ev.ModelKind:
        assert ev.scatter_matrix(data, kind) is w[kind]
        with pytest.raises(ValueError):
            w[kind][0, 0] = 0.0
    # each kind keeps its own W
    fresh = ev.ObservedData(x1=data.x1, x2=data.x2)
    np.testing.assert_array_equal(w[INTERCEPT], ev.scatter_matrix(fresh, INTERCEPT))
    np.testing.assert_array_equal(w[NO_INTERCEPT], ev.scatter_matrix(fresh, NO_INTERCEPT))
    assert not np.array_equal(w[INTERCEPT], w[NO_INTERCEPT])


BLOCK = model_core._BLOCK


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3 * BLOCK + 5), st.sampled_from(list(ev.ModelKind)),
       st.integers(0, 2**31 - 1))
@example(1, INTERCEPT, 0)
@example(1, NO_INTERCEPT, 0)
def test_blocked_scatter_is_the_symmetric_centered_gram(n, kind, seed):
    # W is summed over blocks of columns; a single column goes through it too
    stack = np.random.default_rng(seed).normal(loc=3.0, size=(3, 5, n))
    replicates = ev.ObservedData._of(stack, 2)
    w_stack = ev.scatter_matrix(replicates, kind)
    for x, w_stacked in zip(stack, w_stack):
        w = ev.scatter_matrix(ev.ObservedData(x1=x[:2], x2=x[2:]), kind)
        xc = x - x.mean(axis=1, keepdims=True) if kind is INTERCEPT else x
        scale = max(1.0, float(np.max(np.abs(w))))
        assert float(np.max(np.abs(w - xc @ xc.T))) <= 1e-13 * scale
        np.testing.assert_array_equal(w, w.T)
        # each dataset of a stack gets the bits it gets alone
        np.testing.assert_array_equal(w_stacked, w)


# finite, but each row's sum of squares is past the double range
OVERFLOWING = np.array([[1e300, -1e300, 1e300, -1e300],
                        [-1e300, 1e300, 1e300, -1e300],
                        [5e307, -5e307, 5e307, -5e307]])


@pytest.mark.parametrize("kind", list(ev.ModelKind))
def test_data_that_overflows_the_scatter_matrix_is_a_validation_error(kind):
    data = ev.ObservedData(x1=OVERFLOWING[:1], x2=OVERFLOWING[1:])
    with pytest.raises(ev.ValidationError, match="overflows the scatter matrix in double"):
        ev.fit(data, ev.ModelSpec(kind=kind))


@pytest.mark.parametrize("kind", list(ev.ModelKind))
def test_an_overflowing_matrix_of_a_stack_fails_the_stacked_scatter(monkeypatch, kind):
    # the overflow lies in the last block, which a worker thread forms
    monkeypatch.setattr(model_core, "_WORKERS", 3)
    monkeypatch.setattr(model_core, "_RUN_BLOCKS", 1)
    stack = np.random.default_rng(3).normal(size=(2, 3, 3 * BLOCK + 1))
    stack[1, :, -4:] = OVERFLOWING
    with pytest.raises(ev.ValidationError, match="overflows the scatter matrix in double"):
        ev.scatter_matrix(ev.ObservedData._of(stack, 1), kind)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, (5, 9), elements=st.floats(-100, 100)),
    st.integers(0, 2**31 - 1),
)
def test_scatter_positive_semidefinite(x, seed):
    data = ev.ObservedData(x1=x[:2], x2=x[2:])
    w = ev.scatter_matrix(data, INTERCEPT)
    np.testing.assert_allclose(w, w.T, atol=0)
    bound = 1e-9 * max(1.0, float(np.max(np.abs(w))))
    v = np.random.default_rng(seed).normal(size=5)
    assert v @ w @ v >= -bound * (v @ v)


# ---------------------------------------------------------------------------
# eigenstructure
# ---------------------------------------------------------------------------

def test_eigenstructure_golden_two_by_two():
    es = ev.signal_eigenstructure([[2.0, 4.0], [4.0, 8.0]], p=1)
    np.testing.assert_allclose(es.eigenvalues, [10.0, 0.0], atol=1e-12)
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    basis = np.vstack([es.g11, es.g21])
    np.testing.assert_allclose(basis[:, 0], np.sign(es.g11[0, 0]) * direction, atol=1e-12)
    np.testing.assert_array_equal(es.left, basis.T)
    # response/predictor blocks share the eigenvector's sign
    assert es.g21[0, 0] / es.g11[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert es.eigengap == pytest.approx(10.0)


def test_eigenstructure_identity_is_degenerate():
    with pytest.warns(ev.DegenerateSubspaceWarning):
        es = ev.signal_eigenstructure(np.eye(2), p=1)
    assert es.degenerate
    assert es.eigengap == pytest.approx(0.0, abs=1e-15)


def test_eigenstructure_diagonal():
    es = ev.signal_eigenstructure(np.diag([5.0, 1.0]), p=1)
    np.testing.assert_allclose(np.abs(es.g11), [[1.0]], atol=1e-12)
    np.testing.assert_allclose(es.g21, [[0.0]], atol=1e-12)
    assert es.eigengap == pytest.approx(4.0)
    assert not es.degenerate


def test_eigenstructure_invariants_random():
    rng = np.random.default_rng(11)
    for p, r in [(1, 1), (2, 3), (4, 2)]:
        m = p + r
        a = rng.normal(size=(m, m + 3))
        w = a @ a.T
        es = ev.signal_eigenstructure(w, p)
        np.testing.assert_allclose(
            es.eigenvalues, np.linalg.eigvalsh(w)[::-1], rtol=0, atol=1e-12 * np.max(np.abs(w))
        )
        assert np.all(es.eigenvalues >= -1e-9 * np.max(np.abs(w)))
        # the signal basis is orthonormal and spans the top p eigenvectors
        np.testing.assert_allclose(es.left @ es.left.T, np.eye(p), atol=1e-10)
        np.testing.assert_allclose(
            es.left @ w @ es.left.T,
            np.diag(es.eigenvalues[:p]),
            atol=1e-9 * max(1.0, np.max(np.abs(w))),
        )
        np.testing.assert_array_equal(es.left, np.vstack([es.g11, es.g21]).T)
        np.testing.assert_allclose(
            es.g11.T @ es.g11 + es.g21.T @ es.g21, np.eye(p), atol=1e-10
        )


def test_eigenstructure_scaling_leaves_slope_unchanged():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 9))
    w = a @ a.T
    b1 = ev.estimate_b(ev.signal_eigenstructure(w, 2))
    b2 = ev.estimate_b(ev.signal_eigenstructure(37.5 * w, 2))
    np.testing.assert_allclose(b1, b2, atol=1e-9)


def test_eigenstructure_rejects_asymmetric():
    with pytest.raises(ev.ValidationError):
        ev.signal_eigenstructure([[1.0, 2.0], [0.0, 1.0]], p=1)


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_eigenstructure_symmetry_check_ignores_the_scale_of_w(k):
    # asymmetry 1e-8 relative to the largest entry, at the power-of-two scale 2^k
    w = np.array([[2.0, 1.0], [1.0 + 2e-8, 1.0]]) * 2.0**k
    with pytest.raises(ev.ValidationError, match="not symmetric"):
        ev.signal_eigenstructure(w, p=1)


def test_eigenstructure_rejects_bad_p():
    for p in (0, 3):
        with pytest.raises(ev.ValidationError):
            ev.signal_eigenstructure(np.diag([3.0, 2.0, 1.0]), p=p)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_eigenstructure_rejects_non_finite(entry):
    # rejected before the symmetry test, which would warn on inf - inf
    with pytest.raises(ev.ValidationError, match="non-finite"):
        ev.signal_eigenstructure([[entry, 0.0], [0.0, 1.0]], p=1)
    with pytest.raises(ev.ValidationError, match="non-finite"):
        ev.signal_eigenstructure([[1.0, entry], [entry, 1.0]], p=1)


def test_eigenstructure_rejects_non_square():
    for w in (np.ones((2, 3)), np.ones(3)):
        with pytest.raises(ev.ValidationError, match="square"):
            ev.signal_eigenstructure(w, p=1)


def test_eigenstructure_rejects_a_sigma0_of_another_shape():
    with pytest.raises(ev.ValidationError, match="sigma0 shape"):
        ev.signal_eigenstructure(np.diag([3.0, 1.0]), p=1, sigma0=np.eye(3))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_eigenstructure_rejects_a_non_finite_sigma0(entry):
    with pytest.raises(ev.ValidationError, match="sigma0 contains non-finite"):
        ev.signal_eigenstructure(np.diag([3.0, 1.0]), p=1, sigma0=[[1.0, 0.0], [0.0, entry]])


def test_eigenstructure_rejects_an_indefinite_sigma0():
    with pytest.raises(ev.NotPositiveDefiniteError, match="min eigenvalue -1"):
        ev.signal_eigenstructure(np.diag([3.0, 1.0]), p=1, sigma0=[[1.0, 2.0], [2.0, 1.0]])


def test_vertical_signal_is_unidentifiable():
    # all scatter in the response block: the signal direction has no
    # predictor component, so the slope is not computable
    es = ev.signal_eigenstructure(np.diag([0.0, 2.0]), p=1)
    with pytest.raises(ev.UnidentifiableError):
        ev.estimate_b(es)


def test_signal_eigenstructure_blocks():
    es = ev.signal_eigenstructure(np.diag([3.0, 2.0, 1.0]), p=2)
    assert es.g11.shape == (2, 2)
    assert es.g21.shape == (1, 2)
    assert es.g11_condition == pytest.approx(1.0)
