"""Tests for the capacity-proxy maximizers.

Oracles come first and are independent of the implementation: closed-form
output spectra for erasure channels, a relabeling symmetry for the
self-complementary point, and direct entropic re-evaluation of returned
maximizers.
"""

import math

import numpy as np
import pytest

from capcont.capopt import (
    OptimizationReport,
    TAU_OPT,
    _adjoint,
    max_coherent_information,
    max_holevo,
    max_private,
    n_copy_coherent_information,
    n_copy_holevo,
)
from capcont.channels import (
    QuantumChannel,
    _apply_full,
    apply,
    complementary,
    constant_channel,
    erasure,
    identity,
    truncated_classical_example,
)
from capcont.entropic import (
    Ensemble,
    coherent_information,
    holevo_information,
    private_information,
)
from capcont.errors import ArgumentError, DimensionError
from capcont.linalg import DensityMatrix
from capcont.sampling import random_channel, random_density_matrix, random_unitary, rng_for


def _shannon(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def _erasure_coherent_oracle(p):
    # Spectra at the maximally mixed input: the output keeps each basis
    # state with weight (1-p)/2 and gains the flag with weight p; the
    # environment is the same channel with p and 1-p exchanged.
    out = [(1 - p) / 2, (1 - p) / 2, p]
    env = [p / 2, p / 2, 1 - p]
    return _shannon(out) - _shannon(env)


def _erasure_holevo_oracle(p, d):
    # Uniform basis ensemble: the average output has spectrum
    # {(1-p)/d, ..., p} and each conditional output {1-p, p}.
    avg = [(1 - p) / d] * d + [p]
    cond = [1 - p, p]
    return _shannon(avg) - _shannon(cond)


def test_coherent_identity_is_log_d():
    rep = max_coherent_information(identity(2), restarts=4, seed=7)
    assert abs(rep.best_value - 1.0) <= 1e-6
    assert rep.restarts == 4 and len(rep.iterations) == 4
    # The returned maximizer reproduces the reported value.
    reeval = coherent_information(identity(2), rep.argmax.density())
    assert abs(reeval - rep.best_value) <= 1e-7


def test_coherent_erasure_against_spectrum_oracle():
    oracle = _erasure_coherent_oracle(0.25)
    assert abs(oracle - 0.5) <= 1e-12
    rep = max_coherent_information(erasure(2, 0.25), restarts=4, seed=7)
    assert abs(rep.best_value - oracle) <= 1e-3
    assert abs(rep.best_value - oracle) <= 1e-6  # concave objective: exact hit


def test_coherent_erasure_half_vanishes():
    rep = max_coherent_information(erasure(2, 0.5), restarts=4, seed=7)
    assert abs(rep.best_value) <= 1e-6


def test_holevo_identity_two_states():
    rep = max_holevo(identity(2), 2, restarts=4, seed=7)
    assert abs(rep.best_value - 1.0) <= 1e-6
    reeval = holevo_information(identity(2), rep.argmax)
    assert abs(reeval - rep.best_value) <= 1e-7


def test_holevo_constant_is_zero():
    rep = max_holevo(constant_channel(2), 2, restarts=2, seed=7)
    assert abs(rep.best_value) <= 1e-9


def test_codeword_ensemble_value():
    # Uniform basis codewords through the high-truncation mixture: the
    # surviving fraction of log d exactly cancels the truncation weight.
    ch = truncated_classical_example(8)
    w = 1.0 / math.log2(8)
    oracle = _erasure_holevo_oracle(1.0 - w, 8)
    assert abs(oracle - 1.0) <= 1e-12
    value = holevo_information(ch, Ensemble.uniform_basis(8))
    assert abs(value - 1.0) <= 1e-9


def test_private_erasure_half_symmetry():
    # Oracle: at the symmetric point the environment output is a relabeled
    # copy of the channel output, so every spectral quantity coincides and
    # the private information vanishes identically.
    ch = erasure(2, 0.5)
    chc = complementary(ch)
    rng = rng_for(11)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        a = np.sort(np.linalg.eigvalsh(apply(ch, rho).matrix))
        b = np.sort(np.linalg.eigvalsh(apply(chc, rho).matrix))
        assert np.allclose(a, b, atol=1e-12)
    rep = max_private(ch, 2, restarts=2, seed=7)
    assert abs(rep.best_value) <= 1e-9


def test_private_erasure_quarter_sandwich():
    coh = max_coherent_information(erasure(2, 0.25), restarts=4, seed=7)
    priv = max_private(erasure(2, 0.25), 2, restarts=4, seed=7)
    hol = max_holevo(erasure(2, 0.25), 2, restarts=4, seed=7)
    assert priv.best_value >= 0.5 - TAU_OPT
    assert coh.best_value <= priv.best_value + TAU_OPT
    assert priv.best_value <= hol.best_value + TAU_OPT
    assert abs(hol.best_value - _erasure_holevo_oracle(0.25, 2)) <= TAU_OPT
    reeval = private_information(erasure(2, 0.25), priv.argmax)
    assert abs(reeval - priv.best_value) <= 1e-7


def test_n_copy_reduces_and_matches_single_letter():
    single = max_coherent_information(erasure(2, 0.25), restarts=4, seed=7)
    one = n_copy_coherent_information(erasure(2, 0.25), 1, restarts=4, seed=7)
    assert one.best_value == single.best_value
    two = n_copy_coherent_information(identity(2), 2, restarts=4, seed=7)
    assert abs(two.best_value - 1.0) <= 1e-6
    # Degradable channel: the per-copy value stays at the single-letter
    # closed form.
    pair = n_copy_coherent_information(erasure(2, 0.25), 2, restarts=4, seed=7)
    assert abs(pair.best_value - _erasure_coherent_oracle(0.25)) <= TAU_OPT


def test_n_copy_dimension_overflow():
    with pytest.raises(DimensionError):
        n_copy_coherent_information(erasure(8, 0.5), 4, restarts=1, iters=1)


def test_ensemble_size_validation():
    with pytest.raises(ArgumentError):
        max_holevo(identity(2), 1, restarts=1, iters=1)


def test_seeded_determinism():
    a = max_coherent_information(erasure(2, 0.3), restarts=3, seed=5)
    b = max_coherent_information(erasure(2, 0.3), restarts=3, seed=5)
    assert a.best_value == b.best_value
    assert a.iterations == b.iterations
    assert np.array_equal(a.argmax.vector, b.argmax.vector)
    c = max_holevo(erasure(2, 0.3), 2, restarts=2, seed=5)
    d = max_holevo(erasure(2, 0.3), 2, restarts=2, seed=5)
    assert c.best_value == d.best_value
    for (pc, sc), (pd, sd) in zip(c.argmax.items, d.argmax.items):
        assert pc == pd and np.array_equal(sc.matrix, sd.matrix)


def test_random_channels_range_and_reproducibility():
    rng = rng_for(23)
    for d_in, d_out in [(2, 2), (2, 3), (3, 2)]:
        ch = random_channel(d_in, d_out, rng)
        rep = max_coherent_information(ch, restarts=2, iters=400, seed=3)
        assert rep.best_value <= min(math.log2(d_in), math.log2(d_out)) + 1e-9
        assert rep.best_value >= -math.log2(len(complementary(ch).kraus)) - 1e-9
        reeval = coherent_information(ch, rep.argmax.density())
        assert abs(reeval - rep.best_value) <= 1e-7
        hol = max_holevo(ch, 2, restarts=2, iters=400, seed=3)
        assert -1e-9 <= hol.best_value <= min(math.log2(d_out), 1.0) + 1e-9
        assert abs(holevo_information(ch, hol.argmax) - hol.best_value) <= 1e-7


def test_adjoint_stack_satisfies_the_duality():
    # Tr[X N(rho)] = Tr[N^dag(X) rho] for the adjoint stack the ascent
    # gradients use, on a channel and on its complementary channel
    rng = rng_for(37)
    for chan in (random_channel(3, 2, rng, kraus_count=5), complementary(erasure(2, 0.3))):
        rho = random_density_matrix(chan.d_in, rng).matrix
        g = rng.normal(size=(chan.d_out,) * 2) + 1j * rng.normal(size=(chan.d_out,) * 2)
        x = g + g.conj().T
        lhs = np.trace(x @ _apply_full(chan.kraus, rho))
        rhs = np.trace(_apply_full(_adjoint(chan.kraus), x) @ rho)
        assert abs(lhs - rhs) < 1e-12


def test_unitary_precomposition_leaves_value():
    base = erasure(2, 0.3)
    rng = rng_for(31)
    u = random_unitary(2, rng)
    rotated = QuantumChannel([k @ u for k in base.kraus])
    a = max_coherent_information(base, restarts=4, seed=7)
    b = max_coherent_information(rotated, restarts=4, seed=7)
    assert abs(a.best_value - b.best_value) <= TAU_OPT
