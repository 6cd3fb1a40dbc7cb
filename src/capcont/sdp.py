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
Each cone block is factored once per iteration. From the Cholesky factors
L_X, L_S of the iterate and its slack and one SVD L_S^dag L_X = P Sigma Q^dag
comes the NT factor G = L_X Q Sigma^-1/2 (Todd, Toh and Tutuncu, SIAM J.
Optim. 8, 1998), with G^-1 X G^-dag = G^dag S G = Sigma diagonal, so the
scaling W = G G^dag satisfies W S W = X and the corrector's Lyapunov
equation is an elementwise division. The step-length tests reuse L_X and
L_S. Each step solves the Schur system H dy = rhs with

    H(Y, tau) = A( W diag A*(Y, tau) W ).

One backward-stable solve serves every size. Its P/Q part
H0 = W_P . W_P + W_Q . W_Q is a Stein operator inverted in closed form after
whitening with the Cholesky factor of W_P + W_Q, which diagonalizes W_P and
W_Q together. The rank-d_A^2 coupling through rho is a Woodbury step on the
scaled capacitance I + B^* V^dag H0^-1 V B (V embeds s -> s (x) I_B,
B(s) = G_rho s G_rho^dag), assembled on complex d_A x d_A matrix units.
Nothing is ever expanded on a vectorized basis of the n_c x n_c space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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


def _nt_scaling(l_x: np.ndarray, l_s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NT factor of one block from L_X = chol(X) and L_S = chol(S).

    With L_S^dag L_X = P Sigma Q^dag, G = L_X Q Sigma^-1/2 and its inverse
    Sigma^-1/2 P^dag L_S^dag give G^-1 X G^-dag = G^dag S G = Sigma, so
    W = G G^dag satisfies W S W = X. Returns (G, G^-1, sigma).
    """
    p, sig, qh = np.linalg.svd(l_s.conj().T @ l_x)
    root = np.sqrt(sig)
    g = (l_x @ qh.conj().T) / root
    g_inv = (p.conj().T @ l_s.conj().T) / root[:, None]
    return g, g_inv, sig


def _whiten(l: np.ndarray, m: np.ndarray) -> np.ndarray:
    """L^-1 m L^-dag for a lower-triangular L and a Hermitian m."""
    half = sla.solve_triangular(l, m, lower=True, check_finite=False)
    return hermitian_part(sla.solve_triangular(l, half.conj().T, lower=True, check_finite=False))


def _max_step(l: np.ndarray, dm: np.ndarray) -> float:
    """Largest alpha in (0, 1] keeping L L^dag + alpha*dm PSD, damped.

    L is the Cholesky factor of the current block, so the test is
    lambda_min(L^-1 dm L^-dag) >= -1/alpha.
    """
    lam_min = float(np.linalg.eigvalsh(_whiten(l, dm))[0])
    if lam_min >= -1e-16:
        return 1.0
    return min(1.0, -STEP_DAMP / lam_min)


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
    I + B^* V^dag H0^-1 V B, which is bounded below by I.
    """

    def __init__(self, d_a: int, d_b: int, w_p, w_q, g_rho):
        self.d_a, self.d_b = d_a, d_b
        n_c = d_a * d_b
        l = np.linalg.cholesky(w_p + w_q)
        d_vals, u = np.linalg.eigh(_whiten(l, w_p))
        d_vals = np.clip(d_vals, 0.0, 1.0)  # rounding noise
        self._gh = sla.solve_triangular(l, u, lower=True, trans="C", check_finite=False)
        self._g = self._gh.conj().T
        self._denom = np.outer(d_vals, d_vals) + np.outer(1.0 - d_vals, 1.0 - d_vals)

        # Capacitance on the complex matrix units E_kl of the d_A space:
        # <E_kl, B^* V^dag H0^-1 V B E_mn> = sum_ij conj(T_kl) T_mn / denom
        # with T_kl[i, j] = sum_b gw[i, k, b] conj(gw[j, l, b]) and gw the
        # rows of G with their A index contracted against G_rho. One row
        # i of G at a time keeps the memory at O(n_c d_A^2).
        self._g_rho = g_rho
        gw = np.einsum("iab,ak->ikb", self._g.reshape(n_c, d_a, d_b), g_rho)
        gw_right = gw.conj().transpose(2, 1, 0).reshape(d_b, d_a * n_c)
        cap = np.eye(d_a * d_a, dtype=complex)
        for i in range(n_c):
            t = (gw[i] @ gw_right).reshape(d_a * d_a, n_c)
            cap += t.conj() @ (t / self._denom[i]).T
        self._cap_cho = sla.cho_factor(hermitian_part(cap), check_finite=False)

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

    def a_op(p, q, rho):
        return hermitian_part(p + q - _embed(rho, d_b)), float(np.trace(rho).real)

    def a_star(y, tau):
        return y, y, tau * eye_a - _trace_b(y, d_a, d_b)

    # Exactly feasible interior starting points.
    x = [np.eye(n_c, dtype=complex) / (2 * d_a), np.eye(n_c, dtype=complex) / (2 * d_a),
         eye_a.astype(complex) / d_a]
    alpha0 = 2.0  # = ||j||_inf + 1 after normalization
    y_dual = -alpha0 * np.eye(n_c, dtype=complex)
    tau = -(alpha0 * d_b + 1.0)
    c_blocks = [-j, j, np.zeros((d_a, d_a), dtype=complex)]
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
            l_x = [np.linalg.cholesky(xb) for xb in x]
            l_s = [np.linalg.cholesky(sb) for sb in s_dual]
            scal = [_nt_scaling(lx, ls) for lx, ls in zip(l_x, l_s)]
            w = [hermitian_part(g @ g.conj().T) for g, _, _ in scal]
            schur = _Schur(d_a, d_b, w[0], w[1], scal[2][0])

            def h_apply(dy, dtau):
                return a_op(*[wb @ ab @ wb for wb, ab in zip(w, a_star(dy, dtau))])

            def newton(rc_blocks):
                r_y, r_tau = a_op(*[-rb for rb in rc_blocks])  # rhs = -A(Rc)
                dy, dtau = schur.solve(r_y, r_tau)
                # Iterative refinement: the Schur solve residual is exactly
                # the feasibility drift injected into x, and the whitening
                # G and the capacitance's Cholesky factor, both already
                # built, make extra solves cheap. The solve is
                # backward stable, so one pass usually suffices; the loop is
                # a recovery path for endgame scalings so ill conditioned
                # that rounding leaves a residual above the noise floor.
                res_inf = np.inf
                for _ in range(4):
                    h_y, h_tau = h_apply(dy, dtau)
                    res_y, res_tau = r_y - h_y, r_tau - h_tau
                    new_inf = max(float(np.max(np.abs(res_y))), abs(res_tau))
                    if new_inf <= 1e-13 or new_inf >= 0.5 * res_inf:
                        res_inf = new_inf
                        break
                    res_inf = new_inf
                    e_y, e_tau = schur.solve(res_y, res_tau)
                    dy = dy + e_y
                    dtau = dtau + e_tau
                ast = a_star(dy, dtau)
                ds = [-ab for ab in ast]
                dx = [hermitian_part(rc + wb @ ab @ wb) for rc, wb, ab in zip(rc_blocks, w, ast)]
                return dx, (dy, dtau), ds, res_inf

            # Predictor: pure affine direction.
            dx_a, _, ds_a, _ = newton([-xb for xb in x])
            ap = min(_max_step(lx, dxb) for lx, dxb in zip(l_x, dx_a))
            ad = min(_max_step(ls, dsb) for ls, dsb in zip(l_s, ds_a))
            gap_aff = sum(
                _inner(xb + ap * dxb, sb + ad * dsb)
                for xb, dxb, sb, dsb in zip(x, dx_a, s_dual, ds_a)
            )
            sigma = min(1.0, max((max(gap_aff, 0.0) / gap) ** 3, 1e-8))

            # Corrector: recenter and absorb the second-order cross term. In
            # the scaled frame the point is the diagonal Sigma, so the
            # Lyapunov solve Sigma M + M Sigma = 2 R divides by s_i + s_j.
            rc_blocks = []
            for (g, g_inv, sig), dxb, dsb in zip(scal, dx_a, ds_a):
                dx_hat = g_inv @ dxb @ g_inv.conj().T
                ds_hat = g.conj().T @ dsb @ g
                cross = 2.0 * hermitian_part(dx_hat @ ds_hat) / (sig[:, None] + sig[None, :])
                target = np.diag(sigma * mu / sig - sig) - cross
                rc_blocks.append(hermitian_part(g @ target @ g.conj().T))
            dx, (dy, dtau), ds, res_inf = newton(rc_blocks)

            ap = min(_max_step(lx, dxb) for lx, dxb in zip(l_x, dx))
            ad = min(_max_step(ls, dsb) for ls, dsb in zip(l_s, ds))
        except np.linalg.LinAlgError:
            # Endgame roundoff broke a factorization; the current iterate is
            # still feasible, so stop and report its certified bounds.
            break
        if max(ap, ad) < MIN_STEP:
            break
        if pres + ap * res_inf > DRIFT_BUDGET:
            # One more step would spoil the primal feasibility certificate.
            break
        x = [hermitian_part(xb + ap * dxb) for xb, dxb in zip(x, dx)]
        y_dual = y_dual + ad * dy
        tau = tau + ad * dtau
        s_dual = [hermitian_part(sb + ad * dsb) for sb, dsb in zip(s_dual, ds)]

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
    lower = max(0.0, -p_obj) / (float(np.trace(x[2]).real) + d_a * lam)

    return DiamondSolution(
        value=-tau * scale,
        dual_value=float(lower * scale),
        iterations=iters,
        status=status,
        rel_gap=float(rel_gap),
        primal_residual=float(primal_res * scale),
    )
