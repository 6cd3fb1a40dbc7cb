"""Self-contained interior-point solver for the diamond-norm SDP.

`distance.diamond_norm` reaches it only when its closed-form bracket does
not close to GAP_TARGET relative to the norm, which in practice means pairs
without a covariance symmetry.

For a Hermitian Choi matrix J on in (x) out (dimension n_c = d_A*d_B) the
completely bounded trace norm has the exact semidefinite characterization

    value = max  <J, P - Q>
            s.t. P + Q = rho (x) I_B,  Tr rho = 1,  P, Q, rho >= 0.

Internally this is solved as the equivalent minimization of <C, X> with
X = diag(P, Q, rho) and C = diag(-J, J, 0) under the affine map

    A(X) = (P + Q - rho (x) I_B, Tr rho) = (0, 1),

whose adjoint on a dual pair y = (Y, tau) is A*(y) = (Y, Y, tau I - Tr_B Y).
The dual reads: max tau subject to -J - Y >= 0, J - Y >= 0 and
Tr_B Y - tau I >= 0, so a feasible dual point certifies the upper bound
-tau >= value. The primal iterate is feasible only up to rounding drift
E = P + Q - rho (x) I_B; shifting P and Q by (||E|| I - E)/2 and rho by
||E|| I makes it exactly feasible after renormalization, which turns
<J, P - Q> into a rigorous lower bound. Both bounds are reported; their gap
certifies accuracy.

The solver is a feasible-start Nesterov-Todd scaled predictor-corrector:
both iterates stay exactly feasible (easy exactly-feasible starting points
exist for this problem), so only the centrality equation is linearized.
P and Q are one (2, n_c, n_c) stack, so each factorization below is one
stacked LAPACK call for both. Each block is factored once per iteration:
from the Cholesky factors L_X, L_S of the iterate and its slack and one SVD
L_S^dag L_X = P Sigma Q^dag comes the NT factor G = L_X Q Sigma^-1/2 (Todd,
Toh and Tutuncu, SIAM J. Optim. 8, 1998), with G^-1 X G^-dag = G^dag S G =
Sigma, so W = G G^dag satisfies W S W = X and the corrector's Lyapunov
equation is an elementwise division. Step lengths need no triangular solve:
Sigma^-1/2 G^-1 dX G^-dag Sigma^-1/2 and Sigma^-1/2 G^dag dS G Sigma^-1/2
are unitarily similar (by Q, P) to L_X^-1 dX L_X^-dag and L_S^-1 dS L_S^-dag.
With dS = -A*(dy), ds_hat = G^dag dS G and dx_hat = target - ds_hat for the
scaled right-hand side target, which is -Sigma for the predictor, so one
spectrum gives both predictor steps. Each step solves H dy = rhs with

    H(Y, tau) = A( W diag A*(Y, tau) W ).

One backward-stable solve serves every size. Its P/Q part
H0 = W_P . W_P + W_Q . W_Q is a Stein operator inverted in closed form after
whitening with the Cholesky factor of W_P + W_Q, which diagonalizes W_P and
W_Q together. The rank-d_A^2 coupling through rho is a Woodbury step on the
scaled capacitance I + B^* V^dag H0^-1 V B (V embeds s -> s (x) I_B,
B(s) = G_rho s G_rho^dag), summed on complex d_A x d_A matrix units over
half of its terms by rank-k updates. Nothing is ever expanded on a
vectorized basis of the n_c x n_c space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import zherk

from .linalg import hermitian_part

GAP_TARGET = 1e-8     # internal relative-gap target
SOFT_GAP = 2.5e-7     # still reported optimal: meets the public 1e-6 absolute
STEP_DAMP = 0.98      # fraction of the distance to the cone boundary
MIN_STEP = 1e-8       # declare stagnation below this step length
MU_FLOOR = 5e-14      # stop refining once complementarity hits noise
DRIFT_BUDGET = 5e-8   # max primal feasibility drift kept below the audit bar
TAU_SDP = 1e-6        # certified-accuracy contract for diamond-norm values
MAX_ITERS = 200       # interior-point iteration cap


@dataclass
class DiamondSolution:
    value: float        # certified upper bound on the norm (dual objective)
    dual_value: float   # certified lower bound (feasible primal objective)
    iterations: int
    status: str         # optimal | max-iters
    rel_gap: float
    primal_residual: float

    def certified(self, tol: float = TAU_SDP) -> bool:
        return self.status == "optimal" and abs(self.value - self.dual_value) <= tol * (
            1.0 + abs(self.value)
        )


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def _diag(v: np.ndarray) -> np.ndarray:
    """diag(v) for each vector of a (..., n) stack."""
    return v[..., None, :] * np.eye(v.shape[-1])


def _nt_scaling(l_x: np.ndarray, l_s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NT factor of each block of a stack from L_X = chol(X) and L_S = chol(S).

    With L_S^dag L_X = P Sigma Q^dag, G = L_X Q Sigma^-1/2 and its inverse
    Sigma^-1/2 P^dag L_S^dag give G^-1 X G^-dag = G^dag S G = Sigma, so
    W = G G^dag satisfies W S W = X. Returns (G, G^-1, sigma).
    """
    p, sig, qh = np.linalg.svd(_ct(l_s) @ l_x)
    root = np.sqrt(sig)
    g = (l_x @ _ct(qh)) / root[..., None, :]
    g_inv = (_ct(p) @ _ct(l_s)) / root[..., :, None]
    return g, g_inv, sig


def _damped(lam_min: float) -> float:
    """Largest alpha in (0, 1] keeping I + alpha M PSD, damped, from lambda_min(M)."""
    return 1.0 if lam_min >= -1e-16 else min(1.0, -STEP_DAMP / lam_min)


def _steps(sig: np.ndarray, dx_hat: np.ndarray, ds_hat=None) -> tuple[float, float]:
    """(alpha_P, alpha_D) for one block stack from its NT-scaled directions.

    X + alpha dX >= 0 iff I + alpha M >= 0 for M = Sigma^-1/2 dx_hat Sigma^-1/2,
    and likewise for S. Without ds_hat the directions are the predictor's,
    ds_hat = -Sigma - dx_hat, whose dual matrix is -I - M.
    """
    root = 1.0 / np.sqrt(sig)
    scale = root[..., :, None] * root[..., None, :]
    if ds_hat is None:
        lam = np.linalg.eigvalsh(dx_hat * scale)
        return _damped(float(np.min(lam[..., 0]))), _damped(-1.0 - float(np.max(lam[..., -1])))
    lam_x, lam_s = np.linalg.eigvalsh(np.stack((dx_hat, ds_hat)) * scale)[..., 0]
    return _damped(float(np.min(lam_x))), _damped(float(np.min(lam_s)))


def _capacitance(gw: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """I + B^* V^dag H0^-1 V B on the complex matrix units E_kl of the d_A space.

    Entry (kl, mn) is delta + sum_ij conj(T_kl[i, j]) T_mn[i, j] / denom[i, j],
    T_kl[i, j] = sum_b gw[i, k, b] conj(gw[j, l, b]). As T_kl[j, i] =
    conj(T_lk[i, j]) and denom is symmetric, the terms j >= i (the diagonal
    at half weight), summed into H by zherk one row i at a time (memory
    O(n_c d_A^2)), give it all as I + H + Pi conj(H) Pi, Pi: (k, l) -> (l, k).
    """
    n_c, d_a, d_b = gw.shape
    weight = 1.0 / np.sqrt(denom)
    weight[np.diag_indices(n_c)] *= np.sqrt(0.5)
    gw_conj = gw.conj()
    h = np.zeros((d_a * d_a, d_a * d_a), dtype=complex, order="F")
    for i in range(n_c):
        # Row j of t holds T_kl[i, j] at column (l, k).
        t = (gw_conj[i:].reshape(-1, d_b) @ gw[i].T).reshape(n_c - i, d_a * d_a)
        h = zherk(1.0, (t * weight[i, i:, None]).T, beta=1.0, c=h, overwrite_c=1)
    h = np.triu(h) + np.triu(h, 1).conj().T
    swapped = h.reshape((d_a,) * 4).transpose(1, 0, 3, 2).reshape(h.shape)
    return np.eye(d_a * d_a) + h + swapped.conj()


def _embed(x: np.ndarray, d_b: int) -> np.ndarray:
    """x (x) I_B, written by one strided assignment."""
    d_a = x.shape[0]
    out = np.zeros((d_a, d_b, d_a, d_b), dtype=complex)
    idx = np.arange(d_b)
    out[:, idx, :, idx] = x
    return out.reshape(d_a * d_b, d_a * d_b)


def _trace_b(y: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Tr_B y on the 4-index view of y."""
    return np.trace(y.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)


# ------------------------------------------------------------- Schur solve


class _Schur:
    """Backward-stable solve of the Schur system for one set of scalings.

    H0 = W_P . W_P + W_Q . W_Q is inverted in closed form after whitening
    with the Cholesky factor L of W_P + W_Q: L^-1 W_P L^-dag = U D U^dag and
    then L^-1 W_Q L^-dag = U (I - D) U^dag, so G = U^dag L^-1 has
    G (W_P + W_Q) G^dag = I and G W_P G^dag = D, and the solution of
    H0(Z) = R is G^dag [ (G R G^dag) / (d d^T + (1-d)(1-d)^T) ] G.
    The rho block adds V K V^dag with V(s) = s (x) I_B and K(s) = W_rho s W_rho
    = B B^*(s) for B(s) = G_rho s G_rho^dag, G_rho the rho block's NT factor:
    a rank-d_A^2 term handled by Woodbury on the scaled capacitance
    I + B^* V^dag H0^-1 V B, which is bounded below by I (`_capacitance`).
    """

    def __init__(self, d_a: int, d_b: int, w_p, w_q, g_rho):
        self.d_a, self.d_b = d_a, d_b
        n_c = d_a * d_b
        l = np.linalg.cholesky(w_p + w_q)
        half = sla.solve_triangular(l, w_p, lower=True, check_finite=False)  # L^-1 W_P L^-dag
        whitened = sla.solve_triangular(l, half.conj().T, lower=True, check_finite=False)
        d_vals, u = np.linalg.eigh(hermitian_part(whitened))
        d_vals = np.clip(d_vals, 0.0, 1.0)  # rounding noise
        self._gh = sla.solve_triangular(l, u, lower=True, trans="C", check_finite=False)
        self._g = self._gh.conj().T
        self._denom = np.outer(d_vals, d_vals) + np.outer(1.0 - d_vals, 1.0 - d_vals)

        self._g_rho = g_rho
        gw = np.einsum("iab,ak->ikb", self._g.reshape(n_c, d_a, d_b), g_rho)
        self._cap_cho = sla.cho_factor(_capacitance(gw, self._denom), check_finite=False)

        w_rho = g_rho @ g_rho.conj().T
        w2 = hermitian_part(w_rho @ w_rho)
        self._h_mat = _embed(w2, d_b)
        self._s = float(np.trace(w2).real)
        self._u_h = self._solve_y(self._h_mat)

    def _h0_solve(self, r: np.ndarray) -> np.ndarray:
        g, gh = self._g, self._gh
        return hermitian_part(gh @ ((g @ r @ gh) / self._denom) @ g)

    def _solve_y(self, r: np.ndarray) -> np.ndarray:
        d_a, d_b, g_rho = self.d_a, self.d_b, self._g_rho
        u1 = self._h0_solve(r)
        rhs = (g_rho.conj().T @ _trace_b(u1, d_a, d_b) @ g_rho).reshape(-1)
        z = sla.cho_solve(self._cap_cho, rhs, check_finite=False).reshape(d_a, d_a)
        return u1 - self._h0_solve(_embed(g_rho @ z @ g_rho.conj().T, d_b))

    def solve(self, r_y: np.ndarray, r_tau: float) -> tuple[np.ndarray, float]:
        u = self._solve_y(r_y)
        h, w = self._h_mat, self._u_h
        denom = self._s - float(np.real(np.vdot(h, w)))
        tau = (r_tau + float(np.real(np.vdot(h, u)))) / denom
        return u + tau * w, tau


# ------------------------------------------------------------- main solver


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def solve_diamond(j: np.ndarray, d_a: int, d_b: int) -> DiamondSolution:
    """Certified diamond norm of the Hermitian matrix j on in (x) out."""
    n_c = d_a * d_b
    j = hermitian_part(np.asarray(j, dtype=complex))
    scale = float(np.linalg.norm(j, 2))
    if scale < 1e-300:
        return DiamondSolution(0.0, 0.0, 0, "optimal", 0.0, 0.0)
    j = j / scale

    eye_a = np.eye(d_a)

    # The P and Q blocks are one (2, n_c, n_c) stack. A*(y) is y on both of
    # its slices, which broadcasting stacks.
    def a_op(pq, rho):
        return hermitian_part(pq[0] + pq[1] - _embed(rho, d_b)), float(np.trace(rho).real)

    def a_star(y, tau):
        return y, tau * eye_a - _trace_b(y, d_a, d_b)

    # Exactly feasible interior starting points.
    x = [np.array([np.eye(n_c, dtype=complex) / (2 * d_a)] * 2), eye_a.astype(complex) / d_a]
    alpha0 = 2.0  # = ||j||_inf + 1 after normalization
    y_dual = -alpha0 * np.eye(n_c, dtype=complex)
    tau = -(alpha0 * d_b + 1.0)
    c_blocks = [np.array([-j, j]), np.zeros((d_a, d_a), dtype=complex)]
    s_dual = [c - ay for c, ay in zip(c_blocks, a_star(y_dual, tau))]

    nu = 2 * n_c + d_a
    iters = 0

    for iters in range(1, MAX_ITERS + 1):
        gap = sum(_inner(xb, sb) for xb, sb in zip(x, s_dual))
        p_obj = sum(_inner(cb, xb) for cb, xb in zip(c_blocks, x))
        rel_gap = (p_obj - tau) / (1.0 + abs(p_obj))
        mu = gap / nu
        if rel_gap <= GAP_TARGET or mu <= MU_FLOOR:
            break
        ry_now, rt_now = a_op(*x)
        pres = max(float(np.max(np.abs(ry_now))), abs(rt_now - 1.0))

        try:
            # A block that lost definiteness fails its Cholesky factor here.
            gs, _, sigs = zip(*[_nt_scaling(np.linalg.cholesky(xb), np.linalg.cholesky(sb))
                                for xb, sb in zip(x, s_dual)])
            w = [hermitian_part(g @ _ct(g)) for g in gs]
            schur = _Schur(d_a, d_b, w[0][0], w[0][1], gs[1])

            def newton(rc_blocks):
                """(dy, dtau), W A*(dy) W and ds_hat = -G^dag A*(dy) G for rhs -A(Rc)."""
                r_y, r_tau = a_op(*[-rb for rb in rc_blocks])
                dy, dtau = schur.solve(r_y, r_tau)
                # Iterative refinement: the Schur residual is exactly the
                # feasibility drift injected into x, and extra solves reuse
                # the built factors. The solve is backward stable, so one
                # pass usually suffices; more recover ill-conditioned endgames.
                res_inf = np.inf
                for _ in range(4):
                    wadw = [wb @ ab @ wb for wb, ab in zip(w, a_star(dy, dtau))]
                    h_y, h_tau = a_op(*wadw)
                    res_y, res_tau = r_y - h_y, r_tau - h_tau
                    new_inf = max(float(np.max(np.abs(res_y))), abs(res_tau))
                    if new_inf <= 1e-13 or new_inf >= 0.5 * res_inf:
                        res_inf = new_inf
                        break
                    res_inf = new_inf
                    e_y, e_tau = schur.solve(res_y, res_tau)
                    dy = dy + e_y
                    dtau = dtau + e_tau
                else:  # dy moved after the last residual
                    wadw = [wb @ ab @ wb for wb, ab in zip(w, a_star(dy, dtau))]
                ds_hat = [-(_ct(g) @ ab @ g) for g, ab in zip(gs, a_star(dy, dtau))]
                return (dy, dtau), wadw, ds_hat, res_inf

            # Predictor: pure affine direction. Rc = -X is -Sigma when scaled.
            _, _, ds_hat, _ = newton([-xb for xb in x])
            dx_hat = [-_diag(sig) - dsh for sig, dsh in zip(sigs, ds_hat)]
            ap, ad = map(min, zip(*map(_steps, sigs, dx_hat)))
            # <X, S> is invariant under the NT congruence, so the affine gap
            # is measured in the scaled frame, where X = S = Sigma.
            gap_aff = sum(_inner(_diag(sig) + ap * dxh, _diag(sig) + ad * dsh)
                          for sig, dxh, dsh in zip(sigs, dx_hat, ds_hat))
            sigma = min(1.0, max((max(gap_aff, 0.0) / gap) ** 3, 1e-8))

            # Corrector: recenter and absorb the second-order cross term. In
            # the scaled frame the point is the diagonal Sigma, so the
            # Lyapunov solve Sigma M + M Sigma = 2 R divides by s_i + s_j.
            targets = [_diag(sigma * mu / sig - sig)
                       - 2.0 * hermitian_part(dxh @ dsh) / (sig[..., :, None] + sig[..., None, :])
                       for sig, dxh, dsh in zip(sigs, dx_hat, ds_hat)]
            rc_blocks = [hermitian_part(g @ t @ _ct(g)) for g, t in zip(gs, targets)]
            (dy, dtau), wadw, ds_hat, res_inf = newton(rc_blocks)
            dx_hat = [t - dsh for t, dsh in zip(targets, ds_hat)]
            ap, ad = map(min, zip(*map(_steps, sigs, dx_hat, ds_hat)))
        except np.linalg.LinAlgError:
            # Endgame roundoff broke a factorization; the current iterate is
            # still feasible, so stop and report its certified bounds.
            break
        if max(ap, ad) < MIN_STEP:
            break
        if pres + ap * res_inf > DRIFT_BUDGET:
            # One more step would spoil the primal feasibility certificate.
            break
        x = [hermitian_part(xb + ap * (rc + wb)) for xb, rc, wb in zip(x, rc_blocks, wadw)]
        y_dual = y_dual + ad * dy
        tau = tau + ad * dtau
        s_dual = [hermitian_part(sb - ad * ab) for sb, ab in zip(s_dual, a_star(dy, dtau))]

    # Honest final audit: the gap decides the status (the soft threshold
    # keeps the absolute certificate within 1e-6 for any value up to 2),
    # and feasibility drift through the linear solves degrades it.
    r_y, r_tau = a_op(*x)
    primal_res = max(float(np.max(np.abs(r_y))), abs(r_tau - 1.0))
    p_obj = sum(_inner(cb, xb) for cb, xb in zip(c_blocks, x))
    rel_gap = (p_obj - tau) / (1.0 + abs(p_obj))
    status = "optimal" if rel_gap <= SOFT_GAP else "max-iters"
    if primal_res > 1e-7:
        status = "max-iters"
    # Rigorous lower bound: with E = P + Q - rho (x) I and lam = ||E||_2,
    # P + (lam I - E)/2, Q + (lam I - E)/2 and rho + lam I are feasible up
    # to normalization by Tr rho + lam d_A, and keep the objective <J, P - Q>.
    lam = float(np.linalg.norm(r_y, 2))
    lower = max(0.0, -p_obj) / (float(np.trace(x[1]).real) + d_a * lam)

    return DiamondSolution(value=-tau * scale, dual_value=float(lower * scale), iterations=iters,
                           status=status, rel_gap=float(rel_gap),
                           primal_residual=float(primal_res * scale))
