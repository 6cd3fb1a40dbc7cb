"""Tests for the interior-point solver's per-block factors."""

import numpy as np
import pytest

from capcont import sdp
from capcont.sampling import rng_for


def _random_pd(n, rng, floor=0.05):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T / n + floor * np.eye(n)
    return (m + m.conj().T) / 2


def _random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# ------------------------------------------------------------- NT scaling


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_nt_scaling_diagonalizes_both_blocks(n):
    rng = rng_for(60, n)
    x, s = _random_pd(n, rng), _random_pd(n, rng)
    g, g_inv, sig = sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
    w = g @ g.conj().T
    assert _rel(w @ s @ w, x) <= 1e-10
    assert _rel(g_inv @ x @ g_inv.conj().T, np.diag(sig)) <= 1e-10
    assert _rel(g.conj().T @ s @ g, np.diag(sig)) <= 1e-10
    assert np.all(sig > 0)


# ------------------------------------------------------------- step length


def _max_step_oracle(m, dm):
    """Step length from the symmetric square root of m, by eigh."""
    w, u = np.linalg.eigh(m)
    isq = (u / np.sqrt(w)) @ u.conj().T
    h = isq @ dm @ isq
    lam_min = float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])
    if lam_min >= -1e-16:
        return 1.0
    return min(1.0, -sdp.STEP_DAMP / lam_min)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_max_step_of_psd_direction_is_full(n):
    rng = rng_for(61, n)
    m = _random_pd(n, rng)
    dm = _random_pd(n, rng, floor=0.0)
    assert sdp._max_step(np.linalg.cholesky(m), dm) == 1.0


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
def test_max_step_matches_eigh_oracle(n, scale):
    rng = rng_for(62, n)
    m = _random_pd(n, rng)
    dm = scale * _random_hermitian(n, rng)
    got = sdp._max_step(np.linalg.cholesky(m), dm)
    expect = _max_step_oracle(m, dm)
    assert abs(got - expect) <= 1e-10 * expect
    if scale == 30.0:
        assert got < 1.0  # the cone boundary, not the cap, set this one


def test_max_step_factor_of_non_pd_iterate_raises():
    # The solver catches LinAlgError and stops on its last feasible iterate.
    rng = rng_for(63)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    x = (u * np.array([1.0, 0.5, 0.2, -1e-3])) @ u.conj().T
    with pytest.raises(np.linalg.LinAlgError):
        sdp._max_step(np.linalg.cholesky(x), _random_hermitian(4, rng))


# ------------------------------------------------------------- Schur solve


def _h_apply(y, tau, w_p, w_q, w_rho, d_a, d_b):
    """H(y) = A(W A*(y) W), written out from the SDP's A and A*."""
    rho_dir = tau * np.eye(d_a) - sdp._trace_b(y, d_a, d_b)
    p, q, rho = w_p @ y @ w_p, w_q @ y @ w_q, w_rho @ rho_dir @ w_rho
    return p + q - sdp._embed(rho, d_b), np.trace(rho).real


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_schur_solve_inverts_explicit_operator(d_a, d_b):
    rng = rng_for(64, d_a, d_b)
    n_c = d_a * d_b
    w_p, w_q = _random_pd(n_c, rng), _random_pd(n_c, rng)
    # A non-triangular, non-Hermitian factor of W_rho: only G_rho G_rho^dag matters.
    u, _ = np.linalg.qr(rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a)))
    g_rho = np.linalg.cholesky(_random_pd(d_a, rng)) @ u
    w_rho = g_rho @ g_rho.conj().T
    r_y, r_tau = _random_hermitian(n_c, rng), float(rng.normal())
    y, tau = sdp._Schur(d_a, d_b, w_p, w_q, g_rho).solve(r_y, r_tau)
    h_y, h_tau = _h_apply(y, tau, w_p, w_q, w_rho, d_a, d_b)
    scale = np.linalg.norm(r_y) + abs(r_tau)
    assert (np.linalg.norm(h_y - r_y) + abs(h_tau - r_tau)) <= 1e-9 * scale
