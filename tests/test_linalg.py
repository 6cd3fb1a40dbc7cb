"""Tests for the dense linear algebra substrate and the argument readers."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capcont import assisted, channels, continuity, entropic
from capcont.errors import ArgumentError, DimensionError
from capcont.linalg import (
    TAU_PSD,
    DensityMatrix,
    PureState,
    as_dims,
    as_index,
    as_pairs,
    as_positive,
    as_probabilities,
    as_real,
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


# ------------------------------------------------------- argument readers


@pytest.mark.parametrize("value", [0.25, np.float32(0.25), np.float64(0.25), Fraction(1, 4)])
def test_as_real_returns_a_plain_float(value):
    got = as_real(value, "x", 0.0, 1.0)
    assert type(got) is float and got == 0.25


def test_as_real_reads_integers_and_closed_ends_as_floats():
    for value, want in ((0, 0.0), (np.int64(1), 1.0), (0.0, 0.0), (1.0, 1.0)):
        got = as_real(value, "x", 0.0, 1.0)
        assert type(got) is float and got == want


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.5", None, [0.5], 0.5j,
                                 np.array([0.5])])
def test_as_real_refuses_what_is_not_a_real_number(bad):
    with pytest.raises(ArgumentError, match=r"^x must be a real number, got "):
        as_real(bad, "x", 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, math.inf, -math.inf])
def test_as_real_refuses_nan_and_values_outside_the_range(bad):
    with pytest.raises(ArgumentError, match=rf"^x {bad} outside \[0.0, 1.0\]$"):
        as_real(bad, "x", 0.0, 1.0)


def test_as_positive_reads_positive_finite_or_bounded_reals():
    assert as_positive(np.float64(3.0), "r") == 3.0
    assert as_positive(2, "r", 2.0) == 2.0
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ArgumentError, match=rf"^r {bad} must be positive and finite$"):
            as_positive(bad, "r")
    for bad in (0.0, 2.5, math.nan):
        with pytest.raises(ArgumentError, match=rf"^r {bad} outside \(0, 2.0\]$"):
            as_positive(bad, "r", 2.0)
    with pytest.raises(ArgumentError, match="^r must be a real number, got True$"):
        as_positive(True, "r")


def test_as_index_lower_bound():
    assert as_index(np.int64(2), "n", 2) == 2
    assert as_index(-3, "i") == -3  # no lower bound unless one is given
    with pytest.raises(ArgumentError, match="^n 1 must be >= 2$"):
        as_index(1, "n", 2)
    with pytest.raises(ArgumentError, match="^n must be an integer, got 2.0$"):
        as_index(2.0, "n", 2)


def test_as_probabilities():
    got = as_probabilities([np.float32(0.5), 0.5, 0], "probs")
    assert got.dtype == float and got.tolist() == [0.5, 0.5, 0.0]
    assert as_probabilities(np.array([0.25, 0.75]), "probs").tolist() == [0.25, 0.75]
    for bad in ([], [0.5], [1.5, -0.5], [math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(ArgumentError, match="^probs must be nonnegative and sum to 1"):
            as_probabilities(bad, "probs")
    for bad in (["0.5", "0.5"], [True], [None, 1.0], [[1.0]]):
        with pytest.raises(ArgumentError, match="^probs must be a real number, got "):
            as_probabilities(bad, "probs")
    with pytest.raises(ArgumentError, match="^probs must be a list of real numbers"):
        as_probabilities(1.0, "probs")


def test_as_dims():
    assert as_dims([np.int64(2), 3], 6) == (2, 3)
    for bad in ((2, 2), (-2, -3), (0, 6)):
        with pytest.raises(DimensionError, match="positive factors of dimension 6"):
            as_dims(bad, 6)
    for bad in ((2.0, 3), (True, 6), ("2", 3)):
        with pytest.raises(ArgumentError, match="^dims must be an integer, got "):
            as_dims(bad, 6)
    for bad in (6, None):
        with pytest.raises(ArgumentError, match="^dims must be a list of integers"):
            as_dims(bad, 6)


def test_as_pairs():
    got = as_pairs([[1.0, 0.0], [0, -2.5]], "matrix", 2)
    assert got.dtype == complex and got.tolist() == [1.0, -2.5j]
    bad_pairs = [
        [[1.0, 0.0], [0.0]],  # ragged
        [[1.0, 0.0], ["x", 0.0]],  # strings, even numeric ones
        [["1", "0"]],
        [[None, 0.0]],
        [[True, False]],
        [[1.0, 0.0, 0.0]],  # not a pair
        [1.0, 0.0],  # one level short
        [],
        "matrix",
        None,
    ]
    for bad in bad_pairs:
        with pytest.raises(ArgumentError, match=r"^matrix must be a list of \[re, im\] pairs$"):
            as_pairs(bad, "matrix", 2)


def test_zero_or_empty_vectors_and_dimensions_are_refused_before_dividing():
    # Refused with ArgumentError before the division by zero, which under
    # -W error::RuntimeWarning raised RuntimeWarning, and otherwise a later
    # non-finite-entries error.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for vector in (np.zeros(2), np.zeros(0), [np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ArgumentError, match="^vector norm .* must be positive and finite$"):
                DensityMatrix.from_pure(vector)
        for d in (0, -1):
            with pytest.raises(ArgumentError, match=f"^d {d} must be >= 1$"):
                maximally_entangled(d)
            with pytest.raises(ArgumentError, match=f"^d {d} must be >= 1$"):
                DensityMatrix.maximally_mixed(d)


# Every public real-valued argument: (call of the bad value, its name,
# values outside its domain). Each must refuse a bool, a numeric string,
# None, NaN and the infinities as well, with an ArgumentError that names it.
_PAIR = (channels.identity(2), channels.identity(2))
_GEOMETRY = {"p1": 0.3, "p2": 0.4, "Delta": 1.0, "delta": 0.5, "log_d": 1.0}
_REAL_ARGUMENTS = {
    "erasure-p": (lambda x: channels.erasure(2, x), "p", [-0.1, 1.1]),
    "depolarizing-p": (lambda x: channels.depolarizing(2, x), "p", [-0.1, 1.1]),
    "dephasing-p": (lambda x: channels.dephasing(x), "p", [-0.1, 1.1]),
    "binary-entropy-p": (lambda x: entropic.binary_entropy(x), "p", [-0.1, 1.1]),
    "fannes-eps": (lambda x: continuity.fannes_bound(x, 2), "eps", [-0.1, 1.1]),
    "af-eps": (lambda x: continuity.af_bound(x, 2), "eps", [-0.1, 1.1]),
    "output-bound-eps": (lambda x: continuity.output_entropy_bound(1, x, 2), "eps", [-0.1, 1.1]),
    "capacity-bounds-eps": (
        lambda x: continuity.capacity_difference_bounds(x, 2), "eps", [-0.1, 1.1]),
    "theorem3-eps": (
        lambda x: continuity.verify_output_entropy(*_PAIR, trials=1, eps=x), "eps", [-0.1, 1.1]),
    "corollaries-eps": (
        lambda x: continuity.verify_capacity_differences(*_PAIR, trials=1, eps=x), "eps",
        [-0.1, 1.1]),
    "simulation-q2_n": (
        lambda x: assisted.simulation_upper_bound(x, 0.5, 1.0), "q2_n", [-0.1, 0.0, 1.5]),
    "simulation-p1": (lambda x: assisted.simulation_upper_bound(0.5, x, 1.0), "p1", [-0.1, 1.1]),
    "simulation-log_d": (
        lambda x: assisted.simulation_upper_bound(0.5, 0.5, x), "log_d", [0.0, -1.0]),
    "gap-q2_n": (lambda x: assisted.mutual_gap_bound(x, 0.5, 0.5, 0.5, 1.0), "q2_n", [-0.1, 1.5]),
    "gap-q2_m": (lambda x: assisted.mutual_gap_bound(0.5, x, 0.5, 0.5, 1.0), "q2_m", [-0.1, 1.5]),
    "gap-p1": (lambda x: assisted.mutual_gap_bound(0.5, 0.5, x, 0.5, 1.0), "p1", [-0.1, 1.1]),
    "gap-p2": (lambda x: assisted.mutual_gap_bound(0.5, 0.5, 0.5, x, 1.0), "p2", [-0.1, 1.1]),
    "gap-log_d": (
        lambda x: assisted.mutual_gap_bound(0.5, 0.5, 0.5, 0.5, x), "log_d", [0.0, -1.0]),
    "delta-eps": (lambda x: assisted.continuity_delta(x, 1.0, 1.0), "eps", [0.0, -1.0]),
    "delta-Delta": (lambda x: assisted.continuity_delta(0.1, x, 1.0), "Delta", [0.0, -1.0]),
    "delta-log_d": (lambda x: assisted.continuity_delta(0.1, 1.0, x), "log_d", [0.0, -1.0]),
    "erasure-q2-p": (lambda x: assisted.erasure_q2(x), "p", [-0.1, 1.1]),
    "erasure-qb-p": (lambda x: assisted.erasure_qb_bounds(x), "p", [-0.1, 1.1]),
    "geometry-p1": (
        lambda x: assisted.MixingGeometry(**{**_GEOMETRY, "p1": x}), "p1", [-0.1, 1.1]),
    "geometry-p2": (
        lambda x: assisted.MixingGeometry(**{**_GEOMETRY, "p2": x}), "p2", [-0.1, 0.6]),
    "geometry-Delta": (
        lambda x: assisted.MixingGeometry(**{**_GEOMETRY, "Delta": x}), "Delta", [0.0, -1.0]),
    "geometry-delta": (
        lambda x: assisted.MixingGeometry(**{**_GEOMETRY, "delta": x}), "delta",
        [0.0, -1.0, 1.5]),
    "geometry-log_d": (
        lambda x: assisted.MixingGeometry(**{**_GEOMETRY, "log_d": x}), "log_d", [0.0, -1.0]),
}


# eps=None asks the harness to measure the pair's diamond distance.
_NONE_IS_THE_DEFAULT = {"theorem3-eps", "corollaries-eps"}


@pytest.mark.parametrize("case", _REAL_ARGUMENTS)
def test_every_public_real_argument_refuses_what_is_outside_its_domain(case):
    call, name, outside = _REAL_ARGUMENTS[case]
    bads = [True, False, "0.5", math.nan, math.inf, -math.inf] + outside
    if case not in _NONE_IS_THE_DEFAULT:
        bads.append(None)
    for bad in bads:
        with pytest.raises(ArgumentError, match=f"^{name} "):
            call(bad)


@pytest.mark.parametrize("call, name, outside", _REAL_ARGUMENTS.values(), ids=_REAL_ARGUMENTS)
def test_every_public_real_argument_takes_numpy_and_integer_reals(call, name, outside):
    # The same value as a float, a numpy float and, where the domain has
    # an integer, an int or a numpy integer gives the same result.
    value = {"p2": 0.25, "delta": 0.5}.get(name, 1.0 if name in ("log_d", "Delta") else 0.5)
    want = call(value)
    same = [np.float64(value), np.float32(value)]
    if value == 1.0:
        same += [1, np.int64(1)]
    for x in same:
        got = call(x)
        if isinstance(want, channels.QuantumChannel):
            assert np.array_equal(got.kraus, want.kraus)
        elif isinstance(want, list):
            assert [r.bound for r in got] == [r.bound for r in want]
        else:
            assert got == want


def test_choi_scale_factor_is_read_as_a_real():
    m = channels.ChoiMatrix.difference(channels.identity(2), channels.dephasing(0.1))
    assert np.array_equal(m.scaled(np.int64(2)).matrix, m.scaled(2.0).matrix)
    for bad in (True, "2", None, math.nan, math.inf, -math.inf):
        with pytest.raises(ArgumentError, match="^c "):
            m.scaled(bad)
