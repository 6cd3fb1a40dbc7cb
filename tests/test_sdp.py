"""Tests for the interior-point solver's per-block factors, steps and types."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla

from capcont import channels as ch
from capcont import sdp
from capcont.continuity import random_nearby_pair
from capcont.channels import ChoiMatrix
from capcont.distance import diamond_distance
from capcont.linalg import dagger, partial_trace_matrix
from capcont.sampling import random_density_matrix, rng_for


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
    g, sig = sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
    g_inv = np.linalg.inv(g)
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
    g, sig = sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
    g_inv = np.linalg.inv(g)
    return sig, g_inv @ dx @ dagger(g_inv), dagger(g) @ ds @ g


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
    g, sig = sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
    g_inv = np.linalg.inv(g)
    w = g @ dagger(g)
    dx, ds = -x + w @ m @ w, -m
    got = sdp._steps(sig, g_inv @ dx @ dagger(g_inv))
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


def _trace_b(y, d_a, d_b):
    """Tr_B y on the 4-index view of y."""
    return np.trace(y.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)


def _h_apply(y, tau, w_p, w_q, w_rho, d_a, d_b):
    """H(y) = A(W A*(y) W), written out from the SDP's A and A*."""
    rho_dir = tau * np.eye(d_a) - _trace_b(y, d_a, d_b)
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


def _schur_case(d_a, d_b):
    """(W_P, W_Q, G_rho) of `test_schur_solve_inverts_explicit_operator`."""
    rng = rng_for(64, d_a, d_b)
    n_c = d_a * d_b
    w_p, w_q = _random_pd(n_c, rng), _random_pd(n_c, rng)
    u, _ = np.linalg.qr(rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a)))
    return w_p, w_q, np.linalg.cholesky(_random_pd(d_a, rng)) @ u


def _solve_y_oracle(schur, r):
    """H_yy^-1 r by H0^-1 and Woodbury alone, as the solver did before tau
    was eliminated through the capacitance."""
    d_a, d_b, g_rho = schur.d_a, schur.d_b, schur._g_rho
    u1 = schur._h0_solve(r)
    rhs = (g_rho.conj().T @ _trace_b(u1, d_a, d_b) @ g_rho).reshape(-1)
    z = sla.cho_solve(schur._cap_cho, rhs).reshape(d_a, d_a)
    return u1 - schur._h0_solve(sdp._embed(g_rho @ z @ g_rho.conj().T, d_b))


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_schur_tau_complement_matches_elimination(d_a, d_b):
    # h = W_rho^2 (x) I_B lies in the range of the Woodbury factor, so the
    # tau complement Tr(W_rho^2) - <h, H_yy^-1 h> is <c, cap^-1 c>.
    w_p, w_q, g_rho = _schur_case(d_a, d_b)
    schur = sdp._Schur(d_a, d_b, w_p, w_q, g_rho)
    w_rho = g_rho @ g_rho.conj().T
    w2 = w_rho @ w_rho
    h = sdp._embed(w2, d_b)
    expect = np.trace(w2).real - np.vdot(h, _solve_y_oracle(schur, h)).real
    assert type(schur._c_cap_c) is float
    assert schur._c_cap_c > 0.0
    assert abs(schur._c_cap_c - expect) <= 1e-10 * abs(expect)


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
    # A generic pair leaves the closed form; its fields must serialize as JSON.
    a, b = random_nearby_pair(3, 3, rng_for(68))
    sol = diamond_distance(a, b)
    assert sol.iterations > 0
    assert type(sol.value) is float and type(sol.dual_value) is float
    assert type(sol.certified()) is bool and sol.certified()
    json.dumps({"value": sol.value, "lower": sol.dual_value, "certified": sol.certified()})


def test_sdp_solution_is_frozen():
    # A verdict is decided once; a demotion makes a new solution.
    sol = sdp.DiamondSolution(1.0, 1.0, 0, "optimal")
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.status = "max-iters"


@pytest.mark.parametrize("d", [2, 3])
def test_optimal_status_means_the_interval_is_within_tau_sdp(d):
    for k in range(3):
        a, b = random_nearby_pair(d, d, rng_for(1, d, k))
        sol = sdp.solve_diamond(ChoiMatrix.difference(a, b).matrix, d, d)
        assert sol.certified()
        assert sol.value - sol.dual_value <= sdp.TAU_SDP * (1.0 + sol.value)


# ------------------------------------------------------------- certificate


def _bell_value(j, d_in):
    """sum |lam(J)| / d_in in plain numpy: the probe value at the maximally entangled input."""
    return float(np.sum(np.abs(np.linalg.eigvalsh((j + j.conj().T) / 2.0)))) / d_in


def _choi_and_abs(a, b):
    j = ChoiMatrix.difference(a, b).matrix
    lam, vecs = np.linalg.eigh(j)
    return j, (vecs * np.abs(lam)) @ dagger(vecs)


@pytest.mark.parametrize("delta", [1e-14, 1e-10])
@pytest.mark.parametrize("d", [2, 3])
def test_interval_lifts_an_infeasible_dual_by_d_b_delta(d, delta):
    # Z = |J| is feasible and optimal for identity vs depolarizing; shifted
    # by -delta I, Z - J and Z + J each get the eigenvalue -delta, and
    # lambda_max(Tr_B Z) drops by d_B delta below the norm. The certificate
    # must add exactly that back rather than trust the iterate.
    j, abs_j = _choi_and_abs(ch.identity(d), ch.depolarizing(d, 0.1))
    rho = np.eye(d) / d
    z = abs_j - delta * np.eye(d * d)
    _, upper = sdp._interval(j, rho, z, d, d)
    drop = float(np.linalg.eigvalsh(partial_trace_matrix(z, (d, d), [0]))[-1])
    assert abs((upper - drop) - d * delta) <= 1e-15
    assert abs(upper - sdp._interval(j, rho, abs_j, d, d)[1]) <= 1e-15
    assert upper >= _bell_value(j, d)  # here the norm


def test_interval_lower_bound_at_the_maximally_mixed_input_is_the_bell_value():
    a, b = random_nearby_pair(3, 3, rng_for(69))
    j, abs_j = _choi_and_abs(a, b)
    lower, _ = sdp._interval(j, np.eye(3) / 3, abs_j, 3, 3)
    assert lower == pytest.approx(_bell_value(j, 3), rel=1e-12)


def test_interval_lower_bound_ignores_the_trace_of_rho():
    rng = rng_for(70)
    a, b = random_nearby_pair(3, 3, rng)
    j, abs_j = _choi_and_abs(a, b)
    rho = random_density_matrix(3, rng).matrix
    lower, _ = sdp._interval(j, rho, abs_j, 3, 3)
    assert sdp._interval(j, (1.0 + 1e-6) * rho, abs_j, 3, 3)[0] == pytest.approx(lower, rel=1e-12)
    sol = diamond_distance(a, b)
    assert lower <= sol.value  # any rho gives a lower bound


# ------------------------------------------------------------- iterations

# Iteration counts of the solver before the tau elimination and the
# one-solve predictor, which are exact in exact arithmetic: neither may
# change how many iterations a solve takes.
_PINNED_ITERATIONS = {2: [10, 9, 9, 8, 7], 3: [11, 10, 10, 10, 10], 4: [11, 10, 10, 10, 10]}


@pytest.mark.parametrize("d", sorted(_PINNED_ITERATIONS))
def test_solver_iteration_counts_are_pinned(d):
    for k, expect in enumerate(_PINNED_ITERATIONS[d]):
        a, b = random_nearby_pair(d, d, rng_for(1, d, k))
        sol = sdp.solve_diamond(ChoiMatrix.difference(a, b).matrix, d, d)
        assert sol.certified()
        assert sol.iterations == expect, k
