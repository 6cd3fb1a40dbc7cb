"""Self-contained interior-point solver for the diamond-norm SDP.

`distance.diamond_norm` reaches it only when its Anderson-mixed fixed point
on the input state hands over before closing to GAP_TARGET relative to the
norm, on collapse or at the step cap: when rho's smallest eigenvalue
collapses, or when the step cap is reached with the gap still open. In
practice that means pairs at d_in >= 3 whose optimal input is
rank-deficient. A qubit map with a pure optimal input does not reach it:
`distance._pure_face` certifies it first.

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
-tau >= value.

The reported interval trusts none of the solver's bookkeeping of tau, the
dual slacks or the primal drift: `_interval` rebuilds both ends from the
final rho and Y alone, and their gap certifies accuracy.

The solver is a feasible-start Nesterov-Todd scaled predictor-corrector:
both iterates stay feasible up to rounding (easy exactly-feasible starting
points exist for this problem), so only the centrality equation is linearized.
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
scaled capacitance cap = I + B^* V^dag H0^-1 V B (V embeds s -> s (x) I_B,
B(s) = G_rho s G_rho^dag), summed on complex d_A x d_A matrix units over
half of its terms by rank-k updates. tau couples to Y only through
h = W_rho^2 (x) I_B = V B(c), c = G_rho^dag G_rho, which lies in the range of
that Woodbury factor, so tau is eliminated on the capacitance: its Schur
complement is the positive form <c, cap^-1 c>, and one solve costs two H0
solves and one triangular pair on a d_A^2 vector. Nothing is ever expanded
on a vectorized basis of the n_c x n_c space.

The predictor direction never moves the iterate: it only sizes the affine
steps, and so sigma, and feeds the corrector's cross term. Predictor and
corrector are one unrefined solve each: the feasibility drift a solve
injects into x does not enter the certificate.

This module is the only importer of scipy, and it imports scipy.linalg at
the first solve, not at import: `distance`, `cli` and `capcont` read the
constants and `DiamondSolution` from here, and a command that the fixed
point certifies, or that never measures a distance, does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy loads at the first SDP solve: `_capacitance` and `_Schur` import
# scipy.linalg in their bodies.
from .linalg import dagger, hermitian_part, partial_trace_matrix, probe_trace_norm, real_inner

GAP_TARGET = 1e-8     # internal relative-gap target
SOFT_GAP = 2.5e-7     # still reported optimal: meets the public 1e-6 absolute
STEP_DAMP = 0.98      # fraction of the distance to the cone boundary
MIN_STEP = 1e-8       # declare stagnation below this step length
MU_FLOOR = 5e-14      # stop refining once complementarity hits noise
TAU_SDP = 1e-6        # certified-accuracy contract for diamond-norm values
MAX_ITERS = 200       # interior-point iteration cap


@dataclass(frozen=True)
class DiamondSolution:
    value: float        # certified upper bound on the norm, from the final dual Z
    dual_value: float   # certified lower bound, the probe value at the final rho
    iterations: int     # fixed-point steps + solver iterations; 0: closed form or qubit pure face
    status: str         # optimal | max-iters

    @property
    def rel_gap(self) -> float:
        """(value - dual_value) / (1 + value), in the map's own units."""
        return (self.value - self.dual_value) / (1.0 + self.value)

    def certified(self) -> bool:
        return self.status == "optimal"


def _diag(v: np.ndarray) -> np.ndarray:
    """diag(v) for each vector of a (..., n) stack."""
    return v[..., None, :] * np.eye(v.shape[-1])


def _nt_scaling(l_x: np.ndarray, l_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NT factor of each block of a stack from L_X = chol(X) and L_S = chol(S).

    With L_S^dag L_X = P Sigma Q^dag, G = L_X Q Sigma^-1/2 (whose inverse is
    Sigma^-1/2 P^dag L_S^dag) gives G^-1 X G^-dag = G^dag S G = Sigma, so
    W = G G^dag satisfies W S W = X. Returns (G, sigma).
    """
    _, sig, qh = np.linalg.svd(dagger(l_s) @ l_x)
    return (l_x @ dagger(qh)) / np.sqrt(sig)[..., None, :], sig


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
    import scipy.linalg as sla

    n_c, d_a, d_b = gw.shape
    weight = 1.0 / np.sqrt(denom)
    weight[np.diag_indices(n_c)] *= np.sqrt(0.5)
    gw_conj = gw.conj()
    h = np.zeros((d_a * d_a, d_a * d_a), dtype=complex, order="F")
    for i in range(n_c):
        # Row j of t holds T_kl[i, j] at column (l, k).
        t = (gw_conj[i:].reshape(-1, d_b) @ gw[i].T).reshape(n_c - i, d_a * d_a)
        h = sla.blas.zherk(1.0, (t * weight[i, i:, None]).T, beta=1.0, c=h, overwrite_c=1)
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
    cap = I + B^* V^dag H0^-1 V B, which is bounded below by I (`_capacitance`).

    tau enters through h = W_rho^2 (x) I_B = V B(c) with c = G_rho^dag G_rho,
    and Tr W_rho^2 = <c, c>. Woodbury then gives the tau Schur complement
    Tr W_rho^2 - <h, H_yy^-1 h> = <c, cap^-1 c>, a positive form free of
    cancellation, and <h, H_yy^-1 r> = <c, cap^-1 z0> for z0 = B^* V^dag H0^-1 r.
    So with u1 = H0^-1 r, tau = (r_tau + <c, cap^-1 z0>) / <c, cap^-1 c> and
    Y = u1 - H0^-1 V B cap^-1 (z0 - tau c).
    """

    def __init__(self, d_a: int, d_b: int, w_p, w_q, g_rho):
        import scipy.linalg as sla

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
        # tau couples through h = W_rho^2 (x) I_B = V B(c), c = G_rho^dag G_rho.
        self._c = (g_rho.conj().T @ g_rho).reshape(-1)
        self._cap_c = sla.cho_solve(self._cap_cho, self._c, check_finite=False)
        self._c_cap_c = real_inner(self._c, self._cap_c)

    def _h0_solve(self, r: np.ndarray) -> np.ndarray:
        g, gh = self._g, self._gh
        return hermitian_part(gh @ ((g @ r @ gh) / self._denom) @ g)

    def solve(self, r_y: np.ndarray, r_tau: float) -> tuple[np.ndarray, float]:
        import scipy.linalg as sla

        d_a, d_b, g_rho = self.d_a, self.d_b, self._g_rho
        u1 = self._h0_solve(r_y)
        z0 = (g_rho.conj().T @ partial_trace_matrix(u1, (d_a, d_b), [0]) @ g_rho).reshape(-1)
        cap_z0 = sla.cho_solve(self._cap_cho, z0, check_finite=False)
        tau = (r_tau + real_inner(self._c, cap_z0)) / self._c_cap_c
        z = (cap_z0 - tau * self._cap_c).reshape(d_a, d_a)
        return u1 - self._h0_solve(_embed(g_rho @ z @ g_rho.conj().T, d_b)), tau


# ------------------------------------------------------------- main solver


def _interval(j: np.ndarray, rho: np.ndarray, z: np.ndarray,
              d_a: int, d_b: int) -> tuple[float, float]:
    """(lower, upper) on the diamond norm of j from a primal rho and a dual Z alone.

    Upper: with delta the larger PSD deficit of Z - J and Z + J, Z + delta I
    >= +-J is feasible for the dual of Watrous's simplified SDP, whose
    objective is lambda_max(Tr_B Z) + d_B delta. Lower: the probe value at
    the purification of rho, over Tr rho; any rho >= 0 gives a lower bound,
    so rounding noise below zero in its spectrum is clipped.
    """
    lam = np.linalg.eigvalsh(np.stack((z - j, z + j)))
    delta = max(0.0, -float(np.min(lam[:, 0])))
    upper = float(np.linalg.eigvalsh(partial_trace_matrix(z, (d_a, d_b), [0]))[-1]) + d_b * delta
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    # The probe with amplitude matrix conj(sqrt(rho)) has the output
    # (sqrt(rho) (x) I) J (sqrt(rho) (x) I), its factors swapped.
    root = (v * np.sqrt(w)) @ dagger(v)
    lower = probe_trace_norm(j, root.conj(), d_a, d_b) / float(np.sum(w))
    return lower, upper


def solve_diamond(j: np.ndarray, d_a: int, d_b: int) -> DiamondSolution:
    """Certified diamond norm of the Hermitian matrix j on in (x) out."""
    n_c = d_a * d_b
    j = hermitian_part(np.asarray(j, dtype=complex))
    scale = float(np.linalg.norm(j, 2))
    if scale < 1e-300:
        return DiamondSolution(0.0, 0.0, 0, "optimal")
    j = j / scale

    eye_a = np.eye(d_a)

    # The P and Q blocks are one (2, n_c, n_c) stack. A*(y) is y on both of
    # its slices, which broadcasting stacks.
    def a_op(pq, rho):
        return hermitian_part(pq[0] + pq[1] - _embed(rho, d_b)), float(np.trace(rho).real)

    def a_star(y, tau):
        return y, tau * eye_a - partial_trace_matrix(y, (d_a, d_b), [0])

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
        gap = sum(real_inner(xb, sb) for xb, sb in zip(x, s_dual))
        p_obj = sum(real_inner(cb, xb) for cb, xb in zip(c_blocks, x))
        rel_gap = (p_obj - tau) / (1.0 + abs(p_obj))
        mu = gap / nu
        if rel_gap <= GAP_TARGET or mu <= MU_FLOOR:
            break
        ry_now, rt_now = a_op(*x)

        try:
            # A block that lost definiteness fails its Cholesky factor here.
            gs, sigs = zip(*[_nt_scaling(np.linalg.cholesky(xb), np.linalg.cholesky(sb))
                             for xb, sb in zip(x, s_dual)])
            w = [hermitian_part(g @ dagger(g)) for g in gs]
            schur = _Schur(d_a, d_b, w[0][0], w[0][1], gs[1])

            def scaled_dual(dy, dtau):
                """ds_hat = -G^dag A*(dy) G on every block."""
                return [-(dagger(g) @ ab @ g) for g, ab in zip(gs, a_star(dy, dtau))]

            # Predictor: pure affine direction. Rc = -X is -Sigma when scaled,
            # and its rhs -A(Rc) is the A(X) above. The direction only sizes
            # the steps and sigma and feeds the cross term; it never moves x,
            # so one unrefined solve serves.
            ds_hat = scaled_dual(*schur.solve(ry_now, rt_now))
            dx_hat = [-_diag(sig) - dsh for sig, dsh in zip(sigs, ds_hat)]
            ap, ad = map(min, zip(*map(_steps, sigs, dx_hat)))
            # <X, S> is invariant under the NT congruence, so the affine gap
            # is measured in the scaled frame, where X = S = Sigma.
            gap_aff = sum(real_inner(_diag(sig) + ap * dxh, _diag(sig) + ad * dsh)
                          for sig, dxh, dsh in zip(sigs, dx_hat, ds_hat))
            sigma = min(1.0, max((max(gap_aff, 0.0) / gap) ** 3, 1e-8))

            # Corrector: recenter and absorb the second-order cross term. In
            # the scaled frame the point is the diagonal Sigma, so the
            # Lyapunov solve Sigma M + M Sigma = 2 R divides by s_i + s_j.
            targets = [_diag(sigma * mu / sig - sig)
                       - 2.0 * hermitian_part(dxh @ dsh) / (sig[..., :, None] + sig[..., None, :])
                       for sig, dxh, dsh in zip(sigs, dx_hat, ds_hat)]
            rc_blocks = [hermitian_part(g @ t @ dagger(g)) for g, t in zip(gs, targets)]
            r_y, r_tau = a_op(*[-rb for rb in rc_blocks])
            dy, dtau = schur.solve(r_y, r_tau)
            wadw = [wb @ ab @ wb for wb, ab in zip(w, a_star(dy, dtau))]
            ds_hat = scaled_dual(dy, dtau)
            dx_hat = [t - dsh for t, dsh in zip(targets, ds_hat)]
            ap, ad = map(min, zip(*map(_steps, sigs, dx_hat, ds_hat)))
        except np.linalg.LinAlgError:
            # Endgame roundoff broke a factorization; stop and certify the
            # last iterate, whose interval is rebuilt from rho and Y alone.
            break
        if max(ap, ad) < MIN_STEP:
            break
        x = [hermitian_part(xb + ap * (rc + wb)) for xb, rc, wb in zip(x, rc_blocks, wadw)]
        y_dual = y_dual + ad * dy
        tau = tau + ad * dtau
        s_dual = [hermitian_part(sb - ad * ab) for sb, ab in zip(s_dual, a_star(dy, dtau))]

    dual_value, value = _interval(j, x[1], -y_dual, d_a, d_b)
    norm_gap = (value - dual_value) / (1.0 + value)
    value, dual_value = value * scale, dual_value * scale
    # Honest final audit, the one place a solution is certified. It is
    # optimal only if (1) the rebuilt interval's relative gap, in units of
    # ||J||_2, meets SOFT_GAP and (2) the interval is within TAU_SDP (1 + |value|).
    optimal = norm_gap <= SOFT_GAP and abs(value - dual_value) <= TAU_SDP * (1.0 + abs(value))
    return DiamondSolution(value=value, dual_value=dual_value, iterations=iters,
                           status="optimal" if optimal else "max-iters")
