"""Tests for entropies and fixed-input information quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capcont import channels as ch
from capcont.entropic import (
    Ensemble,
    _conditional_entropy,
    binary_entropy,
    coherent_information,
    conditional_entropy,
    entropy_of_matrix,
    entropy_of_spectra,
    entropy_of_spectrum,
    holevo_information,
    mutual_information,
    private_information,
    von_neumann_entropy,
)
from capcont.errors import ArgumentError
from capcont.linalg import DensityMatrix, basis_state, maximally_entangled, partial_trace
from capcont.sampling import haar_state, random_channel, random_density_matrix, rng_for

# ---------------------------------------------------------------- oracles

# H(1/4) frozen from -(1/4)log2(1/4) - (3/4)log2(3/4)
H_QUARTER = 0.8112781244591328


def _shannon_oracle(probs):
    """Plain math-library Shannon entropy in bits."""
    return -sum(p * math.log2(p) for p in probs if p > 0)


def _erasure_coherent_oracle(p):
    """Eigenvalue bookkeeping for erasure acting on half a Bell pair.

    Joint output spectrum: 1-p on the surviving Bell projector, p/2 twice
    on the flagged branch. Output marginal spectrum: (1-p)/2 twice plus p.
    """
    s_ab = _shannon_oracle([1 - p, p / 2, p / 2])
    s_b = _shannon_oracle([(1 - p) / 2, (1 - p) / 2, p])
    return s_b - s_ab


def _erasure_holevo_oracle(p):
    """Basis-ensemble Holevo value of erasure: output states share spectrum
    {1-p, p}, the average has spectrum {(1-p)/2, (1-p)/2, p}."""
    return _shannon_oracle([(1 - p) / 2, (1 - p) / 2, p]) - _shannon_oracle([1 - p, p])


# -------------------------------------------------------------- entropies


def test_von_neumann_entropy_basics():
    assert von_neumann_entropy(DensityMatrix.from_pure(basis_state(2, 0))) == 0.0
    for d in (2, 3, 8):
        s = von_neumann_entropy(DensityMatrix.maximally_mixed(d))
        assert abs(s - math.log2(d)) < 1e-12
    s = von_neumann_entropy(DensityMatrix(np.diag([0.75, 0.25])))
    assert abs(s - H_QUARTER) < 1e-12


def test_binary_entropy_values_and_range():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    assert abs(binary_entropy(0.25) - H_QUARTER) < 1e-15
    assert abs(binary_entropy(0.25) - _shannon_oracle([0.25, 0.75])) < 1e-15
    for bad in (-0.01, 1.01):
        with pytest.raises(ArgumentError):
            binary_entropy(bad)


def test_conditional_entropy_cases():
    rng = rng_for(20)
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    prod = DensityMatrix(np.kron(a.matrix, b.matrix), dims=(2, 3))
    assert abs(conditional_entropy(prod, 1) - von_neumann_entropy(a)) < 1e-10

    bell = maximally_entangled(2).density()
    assert abs(conditional_entropy(bell, 1) - (-1.0)) < 1e-10

    cc = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), dims=(2, 2))
    assert abs(conditional_entropy(cc, 1)) < 1e-10  # S(AB)=1, S(B)=1

    with pytest.raises(ArgumentError):
        conditional_entropy(bell, 2)


def test_mutual_information_cases():
    rng = rng_for(21)
    a = random_density_matrix(2, rng)
    b = random_density_matrix(2, rng)
    prod = DensityMatrix(np.kron(a.matrix, b.matrix), dims=(2, 2))
    assert abs(mutual_information(prod, 1)) < 1e-10
    assert abs(mutual_information(maximally_entangled(2).density(), 1) - 2.0) < 1e-10
    cc = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), dims=(2, 2))
    assert abs(mutual_information(cc, 1) - 1.0) < 1e-10


# ----------------------------------------------------- channel functionals


def test_coherent_information_identity_and_erasure():
    bell = maximally_entangled(2).density()
    assert abs(coherent_information(ch.identity(2), bell) - 1.0) < 1e-10
    assert abs(coherent_information(ch.erasure(2, 0.5), bell)) < 1e-10
    for p in (0.0, 0.1, 0.25, 0.7, 1.0):
        got = coherent_information(ch.erasure(2, p), bell)
        assert abs(got - _erasure_coherent_oracle(p)) < 1e-10
        assert abs(got - (1.0 - 2.0 * p)) < 1e-10


def test_coherent_information_input_validation():
    bell = maximally_entangled(2).density()
    with pytest.raises(ArgumentError):
        coherent_information(ch.identity(3), bell)
    with pytest.raises(ArgumentError):
        coherent_information(ch.identity(2), DensityMatrix.maximally_mixed(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ensemble_rejects_non_finite_weights(bad):
    rho = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ArgumentError):
        Ensemble([(bad, rho), (1.0, rho)])


def test_holevo_information_cases():
    single = Ensemble([(1.0, DensityMatrix.maximally_mixed(2))])
    assert abs(holevo_information(ch.identity(2), single)) < 1e-12
    basis = Ensemble.uniform_basis(2)
    assert abs(holevo_information(ch.identity(2), basis) - 1.0) < 1e-12
    assert abs(holevo_information(ch.constant_channel(2), basis)) < 1e-12
    for p in (0.1, 0.5, 0.75):
        got = holevo_information(ch.erasure(2, p), basis)
        assert abs(got - _erasure_holevo_oracle(p)) < 1e-10
        assert abs(got - (1.0 - p)) < 1e-10


def test_private_information_cases():
    basis = Ensemble.uniform_basis(2)
    assert abs(private_information(ch.identity(2), basis) - 1.0) < 1e-12
    # The constant channel leaks everything to the environment.
    assert private_information(ch.constant_channel(2), basis) <= 1e-12
    # 50% erasure splits output and environment symmetrically.
    assert abs(private_information(ch.erasure(2, 0.5), basis)) < 1e-10
    # General erasure: I(X;B) - I(X;E) = (1-p) - p.
    for p in (0.1, 0.25, 0.8):
        got = private_information(ch.erasure(2, p), basis)
        assert abs(got - (1.0 - 2.0 * p)) < 1e-10


def test_private_information_dilation_invariance():
    # Rotating the environment changes the dilation but no entropy of it.
    rng = rng_for(22)
    chan = random_channel(2, 2, rng)
    basis = Ensemble.uniform_basis(2)
    comp = ch.complementary(chan)
    d_env = comp.d_out
    u = np.exp(2j * np.pi / d_env) ** np.outer(np.arange(d_env), np.arange(d_env)) / np.sqrt(d_env)
    rotated = ch.QuantumChannel([u @ k for k in comp.kraus])
    lhs = holevo_information(comp, basis)
    rhs = holevo_information(rotated, basis)
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_private_information_of_pure_states_is_coherent_information_of_the_average(seed):
    # A pure state's output and environment have equal entropies, so
    # I(X;B) - I(X;E) = S(N(rho)) - S(N^c(rho)) = I_c(rho) at the average rho
    # (Devetak 2005); capopt.max_private rests on this.
    rng = rng_for(59, seed)
    d_in, d_out, m = (int(x) for x in rng.integers((2, 2, 2), (4, 5, 5)))
    chan = random_channel(d_in, d_out, rng)
    probs = rng.dirichlet(np.ones(m))
    vecs = [haar_state(d_in, rng).vector for _ in range(m)]
    ens = Ensemble([(p, DensityMatrix.from_pure(v)) for p, v in zip(probs, vecs)])
    # A purification of the average on reference (x) input: sum_x sqrt(p_x) |x> |psi_x>.
    psi = sum(np.sqrt(probs[x]) * np.kron(basis_state(m, x), v) for x, v in enumerate(vecs))
    rho = DensityMatrix.from_pure(psi, dims=(m, d_in))
    assert abs(private_information(chan, ens) - coherent_information(chan, rho)) <= 1e-12


# --------------------------------------------------------------- invariants


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_entropy_range(seed):
    rng = rng_for(seed)
    d = int(rng.integers(2, 9))
    s = von_neumann_entropy(random_density_matrix(d, rng))
    assert -1e-12 <= s <= math.log2(d) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_information_quantity_ranges(seed):
    rng = rng_for(seed)
    chan = random_channel(2, 2, rng)
    ens = Ensemble(
        [(0.5, random_density_matrix(2, rng, rank=1)), (0.5, random_density_matrix(2, rng, rank=1))]
    )
    chi = holevo_information(chan, ens)
    priv = private_information(chan, ens)
    assert -1e-9 <= chi <= math.log2(chan.d_out) + 1e-9
    assert priv <= chi + 1e-9
    rho = random_density_matrix(4, rng, dims=(2, 2))
    coh = coherent_information(chan, rho)
    assert -math.log2(2) - 1e-9 <= coh <= math.log2(chan.d_out) + 1e-9


def test_conditional_entropy_stability_under_mixing():
    # Small-perturbation sanity in the regime the continuity suites cover.
    rng = rng_for(23)
    for _ in range(10):
        rho = random_density_matrix(4, rng, dims=(2, 2))
        tau = random_density_matrix(4, rng, dims=(2, 2))
        t = float(rng.uniform(0.0, 0.25))
        sigma = DensityMatrix((1 - t) * rho.matrix + t * tau.matrix, dims=(2, 2))
        eps = float(np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix))))
        if eps == 0.0 or eps > 0.5:
            continue
        gap = abs(conditional_entropy(rho, 1) - conditional_entropy(sigma, 1))
        af = 4 * eps * 1.0 + 2 * _shannon_oracle([eps, 1 - eps])
        assert gap <= af + 1e-7


def test_entropy_of_a_stack_equals_per_matrix_entropies():
    # Rank-deficient states put clipped zeros at the front of the
    # ascending spectrum. Every length takes the one zero-masked sum, so a
    # row in a stack sums as the row alone: one term at a time below
    # length 8, pairwise from 8 on (here 9, as for two copies of a qutrit
    # output).
    rng = rng_for(43)
    for n in (2, 3, 7, 8, 9):
        for rank in range(1, n + 1):
            a = rng.normal(size=(6, n, rank)) + 1j * rng.normal(size=(6, n, rank))
            mats = a @ a.conj().transpose(0, 2, 1)
            mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
            got = entropy_of_matrix(mats)
            assert got.shape == (6,)
            want = [entropy_of_matrix(m) for m in mats]
            assert np.array_equal(got, want)
            assert np.array_equal(entropy_of_matrix(mats.reshape(2, 3, n, n)), got.reshape(2, 3))
            if rank < n:
                assert np.min(np.linalg.eigvalsh(mats)) <= 1e-12


def test_rank_deficient_spectra_of_length_9_and_16_sum_alike_alone_and_stacked():
    # From 8 terms on numpy sums pairwise, and the masked zeros in front
    # take part, in a spectrum alone as in a row of a stack. A clipped
    # eigenvalue of -1e-17, as eigvalsh returns for a zero, is masked too.
    rng = rng_for(45)
    for n in (9, 16):
        for rank in (1, 2, n // 2, n - 1):
            w = np.zeros((5, n))
            w[:, n - rank :] = np.sort(rng.random((5, rank)), axis=1)
            w /= w.sum(axis=1, keepdims=True)
            w[0, 0] = -1e-17
            alone = [entropy_of_spectrum(row) for row in w]
            assert np.array_equal(entropy_of_spectra(w), alone)
            assert np.array_equal(entropy_of_spectra(w.reshape(5, 1, n)), np.reshape(alone, (5, 1)))
            assert all(type(s) is float for s in alone)
            for row, s in zip(w, alone):
                assert abs(s - _shannon_oracle(row)) <= 1e-15


def test_conditional_entropy_kernel_on_a_stack_equals_per_state_values():
    # One kernel serves conditional_entropy, the Alicki-Fannes harness (on
    # stacks), the hybrid steps (conditioning on several factors) and the
    # coherent information (its negation).
    rng = rng_for(44)
    for dims, keep in (((2, 3), [1]), ((3, 2), [0]), ((2, 2, 2), [0, 2])):
        d = math.prod(dims)
        states = [random_density_matrix(d, rng, rank=1 + k % d, dims=dims) for k in range(5)]
        got = _conditional_entropy(np.array([s.matrix for s in states]), dims, keep)
        want = [
            entropy_of_matrix(s.matrix) - entropy_of_matrix(partial_trace(s, keep).matrix)
            for s in states
        ]
        assert got.shape == (5,)
        assert np.array_equal(got, want)
        if keep == [1]:
            assert np.array_equal(got, [conditional_entropy(s, 1) for s in states])


def test_coherent_information_of_equal_entropies_is_positive_zero():
    # S(B) = S(RB) = 0 on a pure product input: 0.0, as S(B) - S(RB) reads,
    # not the -0.0 of negating S(RB) - S(B).
    prod = DensityMatrix.from_pure(basis_state(4, 0), dims=(2, 2))
    value = coherent_information(ch.identity(2), prod)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_entropy_of_a_pure_spectrum_is_positive_zero():
    # 0.0 - sum, not -sum: the terms of a pure spectrum are all +0.0.
    pure = DensityMatrix.from_pure(basis_state(2, 0))
    values = [entropy_of_spectrum(np.array([0.0, 1.0])), von_neumann_entropy(pure)]
    # Both summation orders of the one formula: below 8 eigenvalues and from 8 on.
    for n in (2, 8):
        stack = np.zeros((2, n))
        stack[:, -1] = 1.0
        values += list(entropy_of_spectra(stack))
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values), values
    # A nonzero entropy keeps its bits.
    assert entropy_of_spectrum(np.array([0.5, 0.5])) == 1.0


def test_two_factor_coherent_information_keeps_its_bits():
    # Frozen from the kernel as it was before the per-copy route: one fixed
    # transpose in place of two moveaxis calls gives the same views, and a
    # two-factor input still takes the family on factor 1 alone.
    bell = DensityMatrix.from_pure(np.eye(3).reshape(-1) / math.sqrt(3), dims=(3, 3))
    cases = [
        (ch.depolarizing(2, 0.3), random_density_matrix(4, rng_for(7), dims=(2, 2)),
         -0.6079412187701605),
        (random_channel(3, 2, rng_for(8)), random_density_matrix(6, rng_for(9), dims=(2, 3)),
         -0.9284484430007289),
        (ch.erasure(3, 0.2), bell, 0.9509775004326884),
        (ch.tensor_power(ch.depolarizing(2, 0.1), 2),
         random_density_matrix(16, rng_for(10), dims=(4, 4)), -1.5453271525964858),
    ]
    for channel, rho, want in cases:
        assert coherent_information(channel, rho) == want
