"""Self-contained interior-point solver for the diamond-norm SDP.

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
-tau >= value while a feasible primal point certifies the lower bound
<J, P - Q>. Both bounds are reported; their gap certifies accuracy.

The solver is a feasible-start Nesterov-Todd scaled predictor-corrector:
both iterates stay exactly feasible (easy exactly-feasible starting points
exist for this problem), so only the centrality equation is linearized.
Each step solves the Schur system H dy = rhs with

    H(Y, tau) = A( W diag A*(Y, tau) W )

for the block scaling matrices W. Two interchangeable backends build that
solve: a dense one that materializes H on a real symmetric-vectorization
basis (fine up to n_c around 24), and a structured one that inverts
H0 = W_P . W_P + W_Q . W_Q through a Stein equation and then corrects for
the rank-d_A^2 coupling through rho with a Woodbury step, keeping the
per-iteration cost at a few d_A^2 matrix products of size n_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import NumericError
from .linalg import hermitian_part, partial_trace_matrix

GAP_TARGET = 1e-8     # internal relative-gap target
SOFT_GAP = 2.5e-7     # still reported optimal: meets the public 1e-6 absolute
STEP_DAMP = 0.98      # fraction of the distance to the cone boundary
MIN_STEP = 1e-8       # declare stagnation below this step length
MU_FLOOR = 5e-14      # stop refining once complementarity hits noise
DRIFT_BUDGET = 5e-8   # max primal feasibility drift kept below the audit bar
TAU_SDP = 1e-6        # certified-accuracy contract for diamond-norm values


@dataclass
class DiamondSolution:
    value: float        # certified upper bound on the norm (dual objective)
    dual_value: float   # certified lower bound (primal objective)
    iterations: int
    status: str         # optimal | max-iters | infeasible
    rel_gap: float
    primal_residual: float

    def certified(self, tol: float = TAU_SDP) -> bool:
        return self.status == "optimal" and abs(self.value - self.dual_value) <= tol * (
            1.0 + abs(self.value)
        )


def _eigh_psd_sqrt(m: np.ndarray, stage: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (m^{1/2}, m^{-1/2}) for a PD Hermitian matrix."""
    w, u = np.linalg.eigh(hermitian_part(m))
    if w[0] <= 0.0:
        raise NumericError(stage, f"matrix lost positive definiteness (min eig {w[0]:.3e})")
    sq = (u * np.sqrt(w)) @ u.conj().T
    isq = (u / np.sqrt(w)) @ u.conj().T
    return hermitian_part(sq), hermitian_part(isq)


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NT scaling W with W S W = X; returns (W, W^{1/2}, W^{-1/2})."""
    xs, _ = _eigh_psd_sqrt(x, "nt-scaling")
    inner, _ = _eigh_psd_sqrt(hermitian_part(xs @ s @ xs), "nt-scaling")
    w_inner, u_inner = np.linalg.eigh(inner)
    inv_inner = (u_inner / w_inner) @ u_inner.conj().T
    w = hermitian_part(xs @ inv_inner @ xs)
    wh, wih = _eigh_psd_sqrt(w, "nt-scaling")
    return w, wh, wih


def _max_step(m: np.ndarray, dm: np.ndarray) -> float:
    """Largest alpha in (0, 1] keeping m + alpha*dm in the PSD cone, damped."""
    w, u = np.linalg.eigh(hermitian_part(m))
    if w[0] <= 0.0:
        raise NumericError("line-search", f"iterate left the cone (min eig {w[0]:.3e})")
    isq = (u / np.sqrt(w)) @ u.conj().T
    lam_min = float(np.linalg.eigvalsh(hermitian_part(isq @ dm @ isq))[0])
    if lam_min >= -1e-16:
        return 1.0
    return min(1.0, -STEP_DAMP / lam_min)


def _lyap_solve(v_eigs: np.ndarray, v_basis: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve V M + M V = 2 R for Hermitian M, given V's eigensystem."""
    rt = v_basis.conj().T @ r @ v_basis
    mt = 2.0 * rt / (v_eigs[:, None] + v_eigs[None, :])
    return hermitian_part(v_basis @ mt @ v_basis.conj().T)


# -------------------------------------------- symmetric vectorization basis


@lru_cache(maxsize=16)
def _svec_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


def svec(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix: diag, sqrt2*Re, sqrt2*Im upper."""
    n = h.shape[0]
    iu, ju = _svec_index(n)
    off = h[iu, ju]
    return np.concatenate(
        [np.diagonal(h).real, np.sqrt(2.0) * off.real, np.sqrt(2.0) * off.imag]
    )


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec."""
    iu, ju = _svec_index(n)
    k = iu.size
    h = np.zeros((n, n), dtype=complex)
    h[np.arange(n), np.arange(n)] = v[:n]
    off = (v[n : n + k] + 1j * v[n + k :]) / np.sqrt(2.0)
    h[iu, ju] = off
    h[ju, iu] = off.conj()
    return h


@lru_cache(maxsize=16)
def _svec_basis_matrix(n: int) -> np.ndarray:
    """Complex matrix T with vec_row(H) = T @ svec(H)."""
    t = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n * n):
        e = np.zeros(n * n)
        e[k] = 1.0
        t[:, k] = smat(e, n).reshape(-1)
    return t


def conj_rep(w: np.ndarray) -> np.ndarray:
    """svec-basis matrix of the map Z -> W Z W for Hermitian W."""
    n = w.shape[0]
    t = _svec_basis_matrix(n)
    return np.real(t.conj().T @ (np.kron(w, w.conj()) @ t))


@lru_cache(maxsize=16)
def _embed_rep(d_a: int, d_b: int) -> np.ndarray:
    """svec-basis matrix of sigma -> sigma (x) I_B."""
    n_c = d_a * d_b
    e = np.zeros((n_c * n_c, d_a * d_a))
    eye_b = np.eye(d_b)
    for k in range(d_a * d_a):
        unit = np.zeros(d_a * d_a)
        unit[k] = 1.0
        e[:, k] = svec(np.kron(smat(unit, d_a), eye_b))
    return e


# ---------------------------------------------------------- Schur backends


class _DenseBackend:
    """Materialize the full Schur matrix on the svec basis and factor it."""

    def __init__(self, d_a: int, d_b: int):
        self.d_a, self.d_b = d_a, d_b
        self.n_c = d_a * d_b
        self.embed = _embed_rep(d_a, d_b)

    def prepare(self, w_p, w_q, w_rho):
        h_top = conj_rep(w_p) + conj_rep(w_q)
        h_top += self.embed @ conj_rep(w_rho) @ self.embed.T
        w2 = hermitian_part(w_rho @ w_rho)
        h_vec = svec(np.kron(w2, np.eye(self.d_b)))
        s = float(np.trace(w2).real)
        m = h_top.shape[0]
        full = np.empty((m + 1, m + 1))
        full[:m, :m] = h_top
        full[:m, m] = -h_vec
        full[m, :m] = -h_vec
        full[m, m] = s
        try:
            self._cho = sla.cho_factor(full, check_finite=False)
        except np.linalg.LinAlgError:
            # Extreme endgame conditioning can round H indefinite; a tiny
            # relative jitter restores factorability at negligible cost in
            # direction accuracy (feasibility drift is audited at the end).
            full[np.diag_indices(m + 1)] += 1e-12 * float(np.max(np.diagonal(full)))
            self._cho = sla.cho_factor(full, check_finite=False)

    def solve(self, r_y: np.ndarray, r_tau: float) -> tuple[np.ndarray, float]:
        rhs = np.concatenate([svec(r_y), [r_tau]])
        sol = sla.cho_solve(self._cho, rhs, check_finite=False)
        return smat(sol[:-1], self.n_c), float(sol[-1])


class _StructuredBackend:
    """Stein-equation inverse of the P/Q part plus a Woodbury rho correction.

    H0 = W_P . W_P + W_Q . W_Q is inverted in closed form: with
    L = chol(W_Q), M = L^-1 W_P L^-dag = U D U^dag and G = U^dag L^-1,
    the solution of H0(Z) = R is G^dag [ (G R G^dag) / (1 + d d^T) ] G.
    The remaining term embeds a d_A x d_A conjugation through the partial
    trace, a rank-d_A^2 perturbation handled by a capacitance matrix.
    """

    def __init__(self, d_a: int, d_b: int):
        self.d_a, self.d_b = d_a, d_b
        self.n_c = d_a * d_b
        self.eye_b = np.eye(d_b)

    def _h0_solve(self, r: np.ndarray) -> np.ndarray:
        g, gh, denom = self._g, self._gh, self._denom
        return hermitian_part(gh @ ((g @ r @ gh) / denom) @ g)

    def prepare(self, w_p, w_q, w_rho):
        low = sla.cholesky(w_q, lower=True, check_finite=False)
        linv = sla.solve_triangular(low, np.eye(self.n_c), lower=True, check_finite=False)
        m = hermitian_part(linv @ w_p @ linv.conj().T)
        d_vals, u = np.linalg.eigh(m)
        d_vals = np.clip(d_vals, 0.0, None)  # rounding noise; denom stays >= 1
        self._g = u.conj().T @ linv
        self._gh = self._g.conj().T
        self._denom = 1.0 + np.outer(d_vals, d_vals)

        # Capacitance: K_rho^{-1} + V^dag H0^{-1} V on the d_A^2 svec basis.
        w_rho_inv = np.linalg.inv(w_rho)
        cap = conj_rep(hermitian_part(w_rho_inv))
        for k in range(self.d_a * self.d_a):
            unit = np.zeros(self.d_a * self.d_a)
            unit[k] = 1.0
            y_k = self._h0_solve(np.kron(smat(unit, self.d_a), self.eye_b))
            cap[:, k] += svec(partial_trace_matrix(y_k, (self.d_a, self.d_b), keep=[0]))
        self._cap_cho = sla.cho_factor((cap + cap.T) / 2.0, check_finite=False)

        w2 = hermitian_part(w_rho @ w_rho)
        self._h_mat = np.kron(w2, self.eye_b)
        self._s = float(np.trace(w2).real)
        self._u_h = self._solve_y(self._h_mat)

    def _solve_y(self, r: np.ndarray) -> np.ndarray:
        u1 = self._h0_solve(r)
        rhs = svec(partial_trace_matrix(u1, (self.d_a, self.d_b), keep=[0]))
        z = sla.cho_solve(self._cap_cho, rhs, check_finite=False)
        return u1 - self._h0_solve(np.kron(smat(z, self.d_a), self.eye_b))

    def solve(self, r_y: np.ndarray, r_tau: float) -> tuple[np.ndarray, float]:
        u = self._solve_y(r_y)
        h, w = self._h_mat, self._u_h
        denom = self._s - float(np.real(np.vdot(h, w)))
        tau = (r_tau + float(np.real(np.vdot(h, u)))) / denom
        return u + tau * w, tau


# ------------------------------------------------------------- main solver


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def solve_diamond(
    j: np.ndarray,
    d_a: int,
    d_b: int,
    gap_target: float = GAP_TARGET,
    max_iters: int = 200,
    backend: str = "auto",
) -> DiamondSolution:
    """Certified diamond norm of the Hermitian matrix j on in (x) out."""
    n_c = d_a * d_b
    j = hermitian_part(np.asarray(j, dtype=complex))
    scale = float(np.linalg.norm(j, 2))
    if scale < 1e-300:
        return DiamondSolution(0.0, 0.0, 0, "optimal", 0.0, 0.0)
    j = j / scale

    if backend == "auto":
        backend = "dense" if n_c <= 24 else "structured"
    schur = _DenseBackend(d_a, d_b) if backend == "dense" else _StructuredBackend(d_a, d_b)

    eye_b = np.eye(d_b)
    eye_a = np.eye(d_a)

    def a_op(p, q, rho):
        return hermitian_part(p + q - np.kron(rho, eye_b)), float(np.trace(rho).real)

    def a_star(y, tau):
        tr_b = partial_trace_matrix(y, (d_a, d_b), keep=[0])
        return y, y, tau * eye_a - tr_b

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

    for iters in range(1, max_iters + 1):
        gap = sum(_inner(xb, sb) for xb, sb in zip(x, s_dual))
        p_obj = sum(_inner(cb, xb) for cb, xb in zip(c_blocks, x))
        rel_gap = (p_obj - tau) / (1.0 + abs(p_obj))
        mu = gap / nu
        if rel_gap <= gap_target or mu <= MU_FLOOR:
            break
        ry_now, rt_now = a_op(*x)
        pres = max(float(np.max(np.abs(ry_now))), abs(rt_now - 1.0))

        try:
            scal = [_nt_scaling(xb, sb) for xb, sb in zip(x, s_dual)]
            v_sys = []
            for (w, wh, wih), xb in zip(scal, x):
                v = hermitian_part(wih @ xb @ wih)
                v_eigs, v_basis = np.linalg.eigh(v)
                if v_eigs[0] <= 0.0:
                    raise NumericError("scaling", "scaled iterate lost definiteness")
                v_sys.append((v, v_eigs, v_basis))
            schur.prepare(scal[0][0], scal[1][0], scal[2][0])

            def h_apply(dy, dtau):
                ast = a_star(dy, dtau)
                return a_op(*[w @ ab @ w for (w, _, _), ab in zip(scal, ast)])

            def newton(rc_blocks):
                r_y, r_tau = a_op(*[-rb for rb in rc_blocks])  # rhs = -A(Rc)
                dy, dtau = schur.solve(r_y, r_tau)
                # Iterative refinement: the Schur solve residual is exactly
                # the feasibility drift injected into x, and the prepared
                # factorizations make extra solves cheap.  Loop because the
                # structured backend is not backward stable, so one pass
                # shrinks the residual only by its effective solve accuracy.
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
                dx = [
                    hermitian_part(rc + w @ ab @ w)
                    for rc, (w, _, _), ab in zip(rc_blocks, scal, ast)
                ]
                return dx, (dy, dtau), ds, res_inf

            # Predictor: pure affine direction.
            dx_a, _, ds_a, _ = newton([-xb for xb in x])
            ap = min(_max_step(xb, dxb) for xb, dxb in zip(x, dx_a))
            ad = min(_max_step(sb, dsb) for sb, dsb in zip(s_dual, ds_a))
            gap_aff = sum(
                _inner(xb + ap * dxb, sb + ad * dsb)
                for xb, dxb, sb, dsb in zip(x, dx_a, s_dual, ds_a)
            )
            sigma = min(1.0, max((max(gap_aff, 0.0) / gap) ** 3, 1e-8))

            # Corrector: recenter and absorb the second-order cross term.
            rc_blocks = []
            for (w, wh, wih), (v, v_eigs, v_basis), dxb, dsb in zip(
                scal, v_sys, dx_a, ds_a
            ):
                dx_hat = wih @ dxb @ wih
                ds_hat = wh @ dsb @ wh
                cross = _lyap_solve(v_eigs, v_basis, hermitian_part(dx_hat @ ds_hat))
                target = sigma * mu * (v_basis / v_eigs) @ v_basis.conj().T - v - cross
                rc_blocks.append(hermitian_part(wh @ target @ wh))
            dx, (dy, dtau), ds, res_inf = newton(rc_blocks)

            ap = min(_max_step(xb, dxb) for xb, dxb in zip(x, dx))
            ad = min(_max_step(sb, dsb) for sb, dsb in zip(s_dual, ds))
        except (NumericError, np.linalg.LinAlgError):
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

    return DiamondSolution(
        value=-tau * scale,
        dual_value=-p_obj * scale,
        iterations=iters,
        status=status,
        rel_gap=float(rel_gap),
        primal_residual=float(primal_res * scale),
    )
