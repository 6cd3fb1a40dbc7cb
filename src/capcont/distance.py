"""State and channel distances.

Trace distance in the full 1-norm convention (with the halved variant as a
separate accessor) and the certified diamond norm of a Hermiticity-preserving
map, given by its ChoiMatrix (ChoiMatrix.difference(a, b) for the distance
of two channels). The diamond norm brackets itself by a fixed point on an
input state rho, one eigendecomposition per step: the probe value at the
purification of rho below, the objective of a dual point built from the same
eigendecomposition above. Its step 0, at the maximally mixed rho, is the
closed form that certifies covariant pairs (the Bell-probe value and the |J|
feasible point of the dual). A qubit map (d_in = d_out = 2) that step 0
does not certify next tries its pure face: the best pure input, from the
secular equation of a trust-region subproblem on the Bloch sphere, and the
dual point of a fixed-point step at that input, floored. Later steps are
Anderson-mixed (Walker and Ni, 2011). It runs the interior-point program in
the sdp module only when the fixed point hands over, on collapse (rho's
smallest eigenvalue falls far below its largest) or at the step cap, and
then cross-checks the program's interval against the fixed point's best
one. Haar-probe lower bounds are a further independent check.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import sdp
from .channels import ChoiMatrix, QuantumChannel
from .errors import ArgumentError
from .linalg import DensityMatrix, PureState, as_index, dagger, hermitian_part
from .linalg import maximally_entangled, partial_trace_matrix, probe_trace_norm, trace_norm
from .sampling import _haar_vector, _stream
from .sdp import GAP_TARGET, TAU_SDP, DiamondSolution


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1, the full (unhalved) trace norm of the difference."""
    if rho.d != sigma.d:
        raise ArgumentError(f"dimension mismatch {rho.d} != {sigma.d}")
    return trace_norm(rho.matrix - sigma.matrix)


def trace_distance_halved(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2)||rho - sigma||_1."""
    return 0.5 * trace_distance(rho, sigma)


# The fixed point floors rho's spectrum at this fraction of its largest
# eigenvalue, so that rho^-1/2 exists. Each step moves to the Anderson mix of
# the last _DEPTH + 1 pairs (rho, g(rho)), or to the plain g(rho), with a fresh
# history, when the mix is not positive definite. It hands over to the
# interior-point solver on collapse, when rho's smallest eigenvalue has fallen
# below _COLLAPSE of its largest from step _WINDOW on, or at the step cap,
# when step _MAX_STEPS has not closed the gap.
_FLOOR = 1e-13
_DEPTH = 5
_WINDOW = 7
_MAX_STEPS = 60
_COLLAPSE = 3e-5


def _mixed(xs: list, gs: list) -> np.ndarray:
    """Anderson mix of the iterates xs and their images gs under the step g.

    With residuals f = g - x, the real weights gamma minimize
    ||f_k - sum_i gamma_i (f_i+1 - f_i)|| over the history, and the mix is
    g_k - sum_i gamma_i (g_i+1 - g_i) (Walker and Ni, "Anderson acceleration
    for fixed-point iterations", SIAM J. Numer. Anal. 49, 2011).
    """
    g = np.array(gs)
    f = g - np.array(xs)
    m = len(g) - 1
    # A complex entry's real and imaginary parts are two real coordinates.
    df = (f[1:] - f[:-1]).reshape(m, -1).view(np.float64)
    gamma = np.linalg.lstsq(df.T, f[-1].reshape(-1).view(np.float64), rcond=None)[0]
    return g[-1] - (gamma @ (g[1:] - g[:-1]).reshape(m, -1)).reshape(g[-1].shape)


def _sandwich(root: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(root (x) I_B) x (root (x) I_B) for Hermitian root and x on in (x) out."""
    d_a = root.shape[0]

    def left(y):
        return (root @ y.reshape(d_a, -1)).reshape(y.shape)

    return left(dagger(left(x)))


# The qubit pure face: I and the Pauli matrices sigma_x, sigma_y, sigma_z; the
# floor of the pure input's rho for its dual point; the cap on Newton steps on
# the secular equation; and the hard case, in which the top eigenvector's
# component of W^T u is below _HARD_CASE lambda_max(W^T W) and no root is sought.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PURE_FLOOR = 1e-6
_NEWTON_STEPS = 50
_HARD_CASE = 1e-8


def _bloch_optimum(j: np.ndarray) -> np.ndarray | None:
    """Bloch vector n of the best pure input of a trace-annihilating qubit map.

    With Phi(X) = Tr_in[(X^T (x) I) J], u_k = Tr(sigma_k Phi(I)) / 2 and
    W_ki = Tr(sigma_k Phi(sigma_i)) / 2, ||Phi(|x><x|)||_1 = |u + W n| for
    the Bloch vector n of |x>, when Tr Phi(X) = 0. Its maximum over |n| = 1
    is the trust-region subproblem (mu I - W^T W) n = W^T u with
    mu >= lambda_max(W^T W). mu is the root of 1/|n(mu)| - 1, which is
    concave and increasing there, so Newton's method from
    mu = lambda_max + |g_max| (g = W^T u on the eigenvectors of W^T W) rises
    to it monotonically (Moré and Sorensen, SIAM J. Sci. Stat. Comput. 4,
    1983). None when g has no component on the top eigenvector (the hard
    case) or when the root is not reached within _NEWTON_STEPS.
    """
    t = 0.5 * np.einsum("kcb,lij,ibjc->kl", _PAULI, _PAULI, j.reshape(2, 2, 2, 2)).real
    u, w = t[1:, 0], t[1:, 1:]
    a, q = np.linalg.eigh(w.T @ w)
    g = q.T @ (w.T @ u)
    if not abs(g[-1]) > _HARD_CASE * a[-1]:
        return None
    mu = a[-1] + abs(g[-1])  # |n(mu)| >= 1 here, so mu is at or below the root
    for _ in range(_NEWTON_STEPS):
        x = g / (mu - a)
        r = float(np.linalg.norm(x))
        nxt = mu - (1.0 / r - 1.0) * r ** 3 / float(np.sum(x * x / (mu - a)))
        if r <= 1.0 or nxt == mu:
            return q @ (x / r)
        mu = nxt
    return None


def _pure_face(j: np.ndarray) -> DiamondSolution | None:
    """Certified diamond norm of a qubit map whose optimal input is pure, or None.

    The pure input |x> of `_bloch_optimum` is the fixed point's
    rho = (|x><x|)^T. It gives the dual point Z = R^-1 |M| R^-1 of a
    fixed-point step at the floored rho + _PURE_FLOOR I, and `sdp._interval`
    rebuilds the interval from the pure rho and Z, so its lower end is the
    probe value at |x> itself.
    The interval is returned only when it closes to GAP_TARGET relative.
    A map that is not trace-annihilating only gets a poorer candidate, which
    the interval refuses.
    """
    n = _bloch_optimum(j)
    if n is None:
        return None
    nx, ny, nz = n
    # The probe at rho's purification feeds the map rho^T, so rho is the
    # transpose of |x><x| = (I + n . sigma) / 2.
    p = 0.5 * np.array([[1.0 + nz, nx + 1j * ny], [nx - 1j * ny, 1.0 - nz]])
    e = _PURE_FLOOR
    root = np.sqrt(e) * np.eye(2) + (np.sqrt(1.0 + e) - np.sqrt(e)) * p
    inv_root = np.eye(2) / np.sqrt(e) + (1.0 / np.sqrt(1.0 + e) - 1.0 / np.sqrt(e)) * p
    lam, vecs = np.linalg.eigh(_sandwich(root, j))
    z = _sandwich(inv_root, (vecs * np.abs(lam)) @ dagger(vecs))
    lo, up = sdp._interval(j, p, z, 2, 2)
    if up - lo <= GAP_TARGET * up:
        return DiamondSolution(up, min(lo, up), 0, "optimal")
    return None


def diamond_norm(choi: ChoiMatrix) -> DiamondSolution:
    """Diamond norm of a Hermiticity-preserving map, with a certified gap.

    The exact-zero map short-circuits to 0 so that equal channels compare
    at machine precision rather than solver precision.

    Otherwise a fixed point on an input state rho brackets the norm. With
    R = sqrt(rho) (x) I_B and M = R J R, each step gives

    - lower = Tr|M| / Tr rho, the probe value at the purification of rho;
    - upper = lambda_max(rho^-1/2 Tr_B|M| rho^-1/2), the objective of the
      dual point Z = R^-1 |M| R^-1 of Watrous's SDP (arXiv:1207.5726),
      feasible since Z +- J = R^-1 (|M| +- M) R^-1 >= 0;

    and then moves toward g(rho) = T rho^-1 T / Tr(T rho^-1 T) for
    T = Tr_B|M|, which leaves rho in place exactly when T is proportional to
    rho, the optimality condition. Each step is one eigendecomposition of M.
    The next rho is the Anderson mix of the last _DEPTH + 1 pairs
    (rho, g(rho)): the combination of the g(rho) whose weights least-squares
    fit the residuals g(rho) - rho to zero. A mix that is not positive
    definite is replaced by the plain g(rho), and the history restarts.

    Step 0 is rho = I / d_in: the Bell-probe value sum |lam(J)| / d_in and
    lambda_max(Tr_B |J|), from one eigendecomposition of J. When it closes
    to the SDP's relative target, upper - lower <= GAP_TARGET * upper
    (covariant pairs such as identity vs depolarizing or the truncation
    family, whose gaps are ~1e-14), it is the certificate, with
    iterations == 0. The test is relative so that a map of small norm is not
    certified by its scale alone.

    A qubit map that step 0 leaves open tries `_pure_face` before any
    further step: when its optimal input is pure, the interval that
    `sdp._interval` rebuilds from the best pure input and its floored dual
    point closes to the same relative target, and it is the certificate,
    also with iterations == 0. A mixed optimum, or the hard case of the
    secular equation, leaves it to the fixed point.

    When a later step closes, the interval is rebuilt by `sdp._interval`
    from that rho and Z, whose PSD shift keeps it valid for an
    ill-conditioned rho, and it certifies if it still closes; iterations is
    then the step count. A mixed rho is only the next step's input, so every
    end is still the probe value or the dual objective at the rho that a
    step evaluated.

    The fixed point hands over to the interior-point SDP on collapse or at
    the step cap: when, from step _WINDOW on, rho's smallest eigenvalue
    falls below _COLLAPSE of its largest (a rank-deficient optimum, where
    the steps crawl toward the boundary), or when step _MAX_STEPS has not
    closed the gap. iterations then counts the steps and the solver's
    iterations together, and a solution whose interval leaves the fixed
    point's best interval is reported as max-iters, so it is never
    certified.
    """
    j = choi.matrix
    if float(np.max(np.abs(j))) == 0.0:
        return DiamondSolution(0.0, 0.0, 0, "optimal")
    d_in, d_out = choi.d_in, choi.d_out
    dims = (d_in, d_out)
    lam, vecs = np.linalg.eigh(j)
    lower = float(np.sum(np.abs(lam))) / d_in
    t = partial_trace_matrix((vecs * np.abs(lam)) @ vecs.conj().T, dims, [0])
    upper = float(np.linalg.eigvalsh(t)[-1])
    if upper - lower <= GAP_TARGET * upper:
        # Rounding can put lower a few ulps above upper; clamp the interval.
        return DiamondSolution(upper, min(lower, upper), 0, "optimal")
    if dims == (2, 2):
        pure = _pure_face(j)
        if pure is not None:
            return pure
    # Best ends so far: the lower ends are probe values, so any of them is a
    # bound; the step-0 upper is the |J| bracket, and the least later upper
    # is only a candidate until `sdp._interval` rebuilds it.
    best_lower, check_upper, least_upper = lower, upper, upper
    witness = None
    xs, gs = [np.eye(d_in) / d_in], [t @ t / np.trace(t @ t).real]
    rho = gs[0]
    for step in range(1, _MAX_STEPS + 1):
        w, v = np.linalg.eigh(hermitian_part(rho / np.trace(rho).real))
        w = np.maximum(w, _FLOOR * w[-1])
        rho = (v * w) @ dagger(v)
        root, inv_root = ((v * f) @ dagger(v) for f in (np.sqrt(w), 1.0 / np.sqrt(w)))
        lam, vecs = np.linalg.eigh(_sandwich(root, j))
        abs_m = (vecs * np.abs(lam)) @ dagger(vecs)
        s = inv_root @ partial_trace_matrix(abs_m, dims, [0])  # rho^-1/2 T
        lower = float(np.sum(np.abs(lam))) / float(np.sum(w))
        upper = float(np.linalg.eigvalsh(hermitian_part(s @ inv_root))[-1])
        if upper - lower <= GAP_TARGET * upper:
            # Rebuilt at rho and the dual point Z = R^-1 |M| R^-1.
            lo, up = sdp._interval(j, rho, _sandwich(inv_root, abs_m), d_in, d_out)
            if up - lo <= GAP_TARGET * up:
                return DiamondSolution(up, min(lo, up), step, "optimal")
        best_lower = max(best_lower, lower)
        if upper < least_upper:
            least_upper, witness = upper, (rho, inv_root, abs_m)
        if step >= _WINDOW and w[0] < _COLLAPSE * w[-1]:
            break
        g = dagger(s) @ s  # T rho^-1 T
        xs, gs = xs[-_DEPTH:] + [rho], gs[-_DEPTH:] + [g / np.trace(g).real]
        rho = _mixed(xs, gs)
        if np.linalg.eigvalsh(rho)[0] <= 0.0:
            xs, gs, rho = xs[-1:], gs[-1:], gs[-1]
    if witness is not None:
        rho, inv_root, abs_m = witness
        _, up = sdp._interval(j, rho, _sandwich(inv_root, abs_m), d_in, d_out)
        check_upper = min(check_upper, up)
    sol = sdp.solve_diamond(j, d_in, d_out)
    slack = TAU_SDP * (1.0 + abs(sol.value))
    missed = sol.value < best_lower - slack or sol.dual_value > check_upper + slack
    # A solver interval that misses the fixed point's best interval is never certified.
    return replace(sol, iterations=step + sol.iterations,
                   status="max-iters" if missed else sol.status)


def diamond_distance(a: QuantumChannel, b: QuantumChannel) -> DiamondSolution:
    """diamond_norm(a - b)."""
    return diamond_norm(ChoiMatrix.difference(a, b))


def probe_value(choi: ChoiMatrix, psi: PureState) -> float:
    """||(map (x) I)(psi)||_1 for a pure probe on in (x) ref.

    Contracts the Choi matrix with the probe's amplitude matrix
    (`linalg.probe_trace_norm`, which the SDP's certificate also uses).
    Always a lower bound on the diamond norm.
    """
    d_in, d_out = choi.d_in, choi.d_out
    if len(psi.dims) != 2 or psi.dims[0] != d_in:
        raise ArgumentError(f"probe needs dims (d_in, d_ref), got {psi.dims}")
    return probe_trace_norm(choi.matrix, psi.vector.reshape(d_in, psi.dims[1]), d_in, d_out)


def diamond_lower_probe(choi: ChoiMatrix, trials: int, seed: int) -> float:
    """Best of `trials` Haar-random pure probes with a full-size reference."""
    trials, seed = as_index(trials, "trials", 1), as_index(seed, "seed", 0)
    d_in = choi.d_in
    best = 0.0
    for t in range(trials):
        v = _haar_vector(d_in * d_in, _stream(seed, (t,)))  # haar_state's unit vector
        best = max(best, probe_trace_norm(choi.matrix, v.reshape(d_in, d_in), d_in, choi.d_out))
    return best


def bell_probe_value(choi: ChoiMatrix) -> float:
    """Probe value at the maximally entangled input, a common tight case."""
    return probe_value(choi, maximally_entangled(choi.d_in))
