"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capcont.errors import ArgumentError, DimensionError
from capcont.linalg import (
    TAU_PSD,
    DensityMatrix,
    PureState,
    basis_state,
    maximally_entangled,
    partial_trace,
    partial_trace_matrix,
    trace_norm,
)

# ---------------------------------------------------------------- oracles


def _ptrace_oracle(m, dims, keep):
    """Loop-based partial trace over the complement of `keep`."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    t = m.reshape(tuple(dims) + tuple(dims))
    out = np.zeros((dk, dk), dtype=complex)
    kept_dims = [dims[i] for i in keep]
    for row in np.ndindex(*kept_dims):
        for col in np.ndindex(*kept_dims):
            s = 0.0 + 0.0j
            for tr in np.ndindex(*[dims[i] for i in traced]):
                idx_r = [0] * len(dims)
                idx_c = [0] * len(dims)
                for ax, v in zip(keep, row):
                    idx_r[ax] = v
                for ax, v in zip(keep, col):
                    idx_c[ax] = v
                for ax, v in zip(traced, tr):
                    idx_r[ax] = v
                    idx_c[ax] = v
                s += t[tuple(idx_r) + tuple(idx_c)]
            ridx = np.ravel_multi_index(row, kept_dims) if keep else 0
            cidx = np.ravel_multi_index(col, kept_dims) if keep else 0
            out[ridx, cidx] = s
    return out


def _trace_norm_oracle(x):
    """Sum of sqrt eigenvalues of x^dag x, independent of np.linalg.svd."""
    w = np.linalg.eigvalsh(x.conj().T @ x)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def _rand_dm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / m.trace().real


def _rand_herm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


# ----------------------------------------------------------------- states


def test_density_matrix_rejects_bad_input():
    with pytest.raises(ArgumentError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ArgumentError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ArgumentError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(DimensionError):
        DensityMatrix(np.eye(4) / 4, dims=(2, 3))
    with pytest.raises(DimensionError):
        DensityMatrix(np.eye(4) / 4, dims=(-2, -2))


def test_density_matrix_accepts_tiny_negativity():
    m = np.diag([1.0 + TAU_PSD / 2, -TAU_PSD / 2])
    DensityMatrix(m)  # within tolerance, must not raise


def test_pure_state_normalization():
    with pytest.raises(ArgumentError):
        PureState(np.array([1.0, 1.0]), (2,))
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-12
    assert np.allclose(psi.density().matrix, np.full((2, 2), 0.5))


@pytest.mark.parametrize("vector,dims,error,match", [
    ([np.nan, 0.0], (2,), ArgumentError, "non-finite"),
    ([np.inf, 0.0], (2,), ArgumentError, "non-finite"),
    ([1.0, 0.0, 0.0, 0.0], (-2, -2), DimensionError, "positive"),
])
def test_pure_state_rejects_bad_input(vector, dims, error, match):
    # A NaN norm passed the norm check, and negative dims with a positive
    # product passed the size check.
    with pytest.raises(error, match=match):
        PureState(np.array(vector), dims)


# ---------------------------------------------------------- partial trace


def test_partial_trace_maximally_entangled():
    phi = maximally_entangled(2).density()
    for keep in ([0], [1]):
        red = partial_trace(phi, keep)
        assert np.allclose(red.matrix, np.eye(2) / 2)


def test_partial_trace_product_state():
    a = np.diag([0.75, 0.25]).astype(complex)
    b = np.diag([0.5, 0.5]).astype(complex)
    rho = DensityMatrix(np.kron(a, b), dims=(2, 2))
    assert np.allclose(partial_trace(rho, [0]).matrix, a)
    assert np.allclose(partial_trace(rho, [1]).matrix, b)


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for dims, keep in [((2, 3), [0]), ((2, 3), [1]), ((2, 2, 2), [0, 2]), ((3, 2, 2), [1])]:
        d = int(np.prod(dims))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.allclose(partial_trace_matrix(m, dims, keep), _ptrace_oracle(m, dims, keep))


@pytest.mark.parametrize("keep", [[], [2], [-1], [0, 5]])
def test_partial_trace_refuses_empty_or_out_of_range_keep(keep):
    rho = DensityMatrix.maximally_mixed(4, dims=(2, 2))
    with pytest.raises(ArgumentError, match="keep"):
        partial_trace(rho, keep)


def test_partial_trace_duality():
    # Tr[pt_B(rho) X] == Tr[rho (X tensor I)] characterizes the partial trace.
    rng = np.random.default_rng(13)
    rho = DensityMatrix(_rand_dm(rng, 6), dims=(2, 3))
    for _ in range(10):
        x = _rand_herm(rng, 2)
        lhs = np.trace(partial_trace(rho, [0]).matrix @ x)
        rhs = np.trace(rho.matrix @ np.kron(x, np.eye(3)))
        assert abs(lhs - rhs) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2)]))
def test_partial_trace_preserves_state_properties(seed, dims):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(_rand_dm(rng, int(np.prod(dims))), dims=dims)
    for i in range(len(dims)):
        red = partial_trace(rho, [i])  # constructor re-validates PSD and trace
        assert red.dims == (dims[i],)
        assert abs(red.matrix.trace().real - 1.0) < 1e-10


# ------------------------------------------------------------- trace norm


def test_trace_norm_known_values():
    assert trace_norm(np.zeros((2, 2))) == 0.0
    # || diag(1,0) - diag(3/4,1/4) ||_1 = 1/4 + 1/4 = 1/2
    diff = np.diag([1.0, 0.0]) - np.diag([0.75, 0.25])
    assert abs(trace_norm(diff) - 0.5) < 1e-12
    # orthogonal pure states sit at trace distance 2 in the unhalved norm
    d01 = np.outer(basis_state(2, 0), basis_state(2, 0)) - np.outer(basis_state(2, 1), basis_state(2, 1))
    assert abs(trace_norm(d01) - 2.0) < 1e-12


def test_trace_norm_matches_gram_oracle():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert abs(trace_norm(x) - _trace_norm_oracle(x)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_trace_norm_triangle_and_homogeneity(seed, d):
    rng = np.random.default_rng(seed)
    x = _rand_herm(rng, d)
    y = _rand_herm(rng, d)
    c = rng.normal()
    assert trace_norm(x + y) <= trace_norm(x) + trace_norm(y) + 1e-9
    assert abs(trace_norm(c * x) - abs(c) * trace_norm(x)) < 1e-9


def test_density_eigenvalues_form_distribution():
    rng = np.random.default_rng(19)
    rho = DensityMatrix(_rand_dm(rng, 5))
    w = np.linalg.eigvalsh(rho.matrix)
    assert np.all(w >= -TAU_PSD)
    assert abs(np.sum(w) - 1.0) < 1e-10
