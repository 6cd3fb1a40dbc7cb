"""Tests for the interior-point solver's per-block factors, steps and types."""

import json

import numpy as np
import pytest

from capcont import sdp
from capcont.continuity import random_nearby_pair
from capcont.distance import diamond_distance
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


def _scaled(x, s, dx, ds):
    """(sigma, G^-1 dx G^-dag, G^dag ds G) in the NT frame of the pair (x, s)."""
    g, g_inv, sig = sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
    return sig, g_inv @ dx @ sdp._ct(g_inv), sdp._ct(g) @ ds @ g


@pytest.mark.parametrize("n", [2, 4, 16])
def test_max_step_of_psd_direction_is_full(n):
    rng = rng_for(61, n)
    x, s = _random_pd(n, rng), _random_pd(n, rng)
    dx, ds = _random_pd(n, rng, floor=0.0), _random_pd(n, rng, floor=0.0)
    assert sdp._steps(*_scaled(x, s, dx, ds)) == (1.0, 1.0)


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
def test_max_step_matches_eigh_oracle(n, scale):
    rng = rng_for(62, n)
    x, s = _random_pd(n, rng), _random_pd(n, rng)
    dx, ds = scale * _random_hermitian(n, rng), scale * _random_hermitian(n, rng)
    got = sdp._steps(*_scaled(x, s, dx, ds))
    expect = (_max_step_oracle(x, dx), _max_step_oracle(s, ds))
    for a, b in zip(got, expect):
        assert type(a) is float
        assert abs(a - b) <= 1e-10 * b
    if scale == 30.0:
        assert max(got) < 1.0  # the cone boundary, not the cap, set these


def test_max_step_factor_of_non_pd_iterate_raises():
    # The solver catches LinAlgError and stops on its last feasible iterate;
    # one bad slice of the stacked P/Q block must fail the stacked factor.
    rng = rng_for(63)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    x = (u * np.array([1.0, 0.5, 0.2, -1e-3])) @ u.conj().T
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.array([_random_pd(4, rng), x]))


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
def test_predictor_steps_from_one_spectrum_match_oracle(n, scale):
    # dx = -X + W M W and ds = -M give dx_hat + ds_hat = -Sigma, so the
    # spectrum of the primal direction alone sets both steps.
    rng = rng_for(65, n)
    x = np.array([_random_pd(n, rng) for _ in range(2)])
    s = np.array([_random_pd(n, rng) for _ in range(2)])
    m = scale * np.array([_random_hermitian(n, rng) for _ in range(2)])
    g, g_inv, sig = sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
    w = g @ sdp._ct(g)
    dx, ds = -x + w @ m @ w, -m
    got = sdp._steps(sig, g_inv @ dx @ sdp._ct(g_inv))
    expect = (min(_max_step_oracle(x[k], dx[k]) for k in range(2)),
              min(_max_step_oracle(s[k], ds[k]) for k in range(2)))
    for a, b in zip(got, expect):
        assert type(a) is float
        assert abs(a - b) <= 1e-10 * b


@pytest.mark.parametrize("n", [2, 16, 64])
def test_stacked_nt_scaling_equals_per_slice_calls(n):
    rng = rng_for(66, n)
    l_x = np.linalg.cholesky(np.array([_random_pd(n, rng) for _ in range(2)]))
    l_s = np.linalg.cholesky(np.array([_random_pd(n, rng) for _ in range(2)]))
    stacked = sdp._nt_scaling(l_x, l_s)
    for k in range(2):
        for got, expect in zip(stacked, sdp._nt_scaling(l_x[k], l_s[k])):
            assert np.array_equal(got[k], expect)


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


def _capacitance_oracle(gw, denom):
    """The per-row full sum: I + sum_ij conj(T_kl[i, j]) T_mn[i, j] / denom[i, j]."""
    n_c, d_a, d_b = gw.shape
    gw_right = gw.conj().transpose(2, 1, 0).reshape(d_b, d_a * n_c)
    cap = np.eye(d_a * d_a, dtype=complex)
    for i in range(n_c):
        t = (gw[i] @ gw_right).reshape(d_a * d_a, n_c)
        cap += t.conj() @ (t / denom[i]).T
    return cap


@pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2), (4, 4), (3, 5)])
def test_half_sum_capacitance_matches_per_row_sum(d_a, d_b):
    rng = rng_for(67, d_a, d_b)
    n_c = d_a * d_b
    gw = rng.normal(size=(n_c, d_a, d_b)) + 1j * rng.normal(size=(n_c, d_a, d_b))
    d = rng.random(n_c)
    denom = np.outer(d, d) + np.outer(1.0 - d, 1.0 - d)
    cap = sdp._capacitance(gw, denom)
    assert _rel(cap, _capacitance_oracle(gw, denom)) <= 1e-12
    assert np.array_equal(cap, cap.conj().T)


# ------------------------------------------------------------- solution types


def test_sdp_solution_fields_are_python_scalars():
    # A generic pair runs the SDP; its fields must serialize as JSON.
    a, b = random_nearby_pair(3, 3, rng_for(68))
    sol = diamond_distance(a, b)
    assert sol.iterations > 0
    assert type(sol.value) is float and type(sol.dual_value) is float
    assert type(sol.certified()) is bool and sol.certified()
    json.dumps({"value": sol.value, "lower": sol.dual_value, "certified": sol.certified()})
