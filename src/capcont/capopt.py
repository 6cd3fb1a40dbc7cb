"""Numerical maximizers for single-letter capacity proxies.

Coherent information, Holevo information, and private information are all
non-concave in their natural parameterizations, so every maximizer here is
a lower-bound certifier: multi-start L-BFGS ascent whose best found
value is reported together with the point that achieves it.  No claim of
global optimality is made.

Two objectives serve the three proxies, both ascended on the unit sphere
of a complex space: purifications on reference (x) input for coherent and
private information, which coincide over pure-state ensembles (see
max_private), and ensemble purifications sum_x sqrt(p_x)|x>|psi_x> for
Holevo information (see max_holevo).  A point is an unconstrained complex
vector normalized after each step.  One evaluation gives a point's value
and its gradient from one eigendecomposition of each output state: its
spectrum gives the entropy, and its eigenvectors the matrix logarithm,
with eigenvalues floored at EPS_PERTURB so it stays finite near rank
deficiency.  The ascent evaluates each point once; an accepted
line-search trial's gradient serves the next step.

Restarts run in lockstep on one leading batch axis, and an ensemble's
states on a second one, so one kernel call serves every restart and state
through a channel.  Each restart draws its start from its own RNG stream
(derived from the seed and the restart index) and keeps its own
curvature pairs, Armijo backtracking and stop tests.  Its step direction
is the limited-memory BFGS one (Nocedal and Wright, Numerical
Optimization, ch. 7) on the sphere: the last LBFGS_MEMORY pairs, each
projected onto the tangent space where it was taken (Absil, Mahony and
Sepulchre, Optimization Algorithms on Matrix Manifolds, ch. 8), and the
direction projected onto the current one.  A restart leaves the batch at
the first of four stops:

- ``gradient``: its gradient norm falls below GRAD_TOL;
- ``stalled``: an accepted line-search step raises f by no more than
  rounding, at most STALL_RTOL * max(|f|, 1);
- ``line-search``: backtracking finds no acceptable step;
- ``iteration-cap``: it reaches the iteration cap.

The batched kernels match per-slice calls bit for bit.  Every scalar
reduction (norms, tangent projections, curvature and slope dots, the
ensemble weights) is one row reduction, ``_rows``: Re <a[i], b[i]> for
every leading index i in one einsum over the real views, whose sum for
row i reads row i alone.  A restart's point is the float64 row of its
vector's real view, the layout its gradient and curvature pairs are kept
in too; the sphere operations and the objective read it through a
complex view.  So the report is bit-identical to running the restarts
one after another; ``test_row_reduction_is_batch_invariant`` pins the
row property and ``test_lockstep_ascent_matches_sequential_reference``
the report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channels import QuantumChannel, _apply_full, complementary, tensor_power
from .entropic import Ensemble, _ensemble_outputs, entropy_of_spectra
from .errors import DimensionError
from .linalg import D_MAX, DensityMatrix, PureState, as_index, dagger, partial_trace_matrix
from .sampling import _stream

RESTARTS = 16       # default random restarts per maximization
ITERS = 2000        # iteration cap per restart
GRAD_TOL = 1e-8     # declare convergence below this gradient norm
STALL_RTOL = 4e-16  # an accepted step raising f by at most this * max(|f|, 1) stalls
STALL_GRAD_TOL = 1e-6  # a stall or failed line search below this gradient norm has converged
EPS_PERTURB = 1e-10  # eigenvalue floor inside the matrix logarithm
TAU_OPT = 1e-3      # slack for comparisons between independently found optima
LBFGS_MEMORY = 8    # curvature pairs kept per restart
CURVATURE_RTOL = 1e-10  # a pair is stored only if s.y > this * |s| |y|


@dataclass(frozen=True)
class OptimizationReport:
    """Best value found by multi-start ascent and the point achieving it.

    best_value is in bits and is a lower bound on the maximized quantity;
    re-evaluating argmax through the corresponding entropic formula
    reproduces it.  iterations holds the per-restart iteration counts and
    stop_reasons why each restart stopped: ``gradient`` (gradient norm
    below GRAD_TOL), ``stalled`` (an accepted step no longer raised f
    above rounding), ``line-search`` (no acceptable step) or
    ``iteration-cap``.  converged reports whether the winning restart
    stopped by the gradient test, or stalled or failed its line search
    with a gradient norm below STALL_GRAD_TOL = 1e-6: there no step can
    raise f above rounding.  Either stop above that norm is a plateau the
    ascent could not climb at rounding precision, not an optimum.
    """

    best_value: float
    argmax: PureState | Ensemble
    restarts: int
    iterations: tuple[int, ...]
    stop_reasons: tuple[str, ...]
    converged: bool


def _neg_log2(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """-log2 of each PSD matrix of a stack from its eigh, eigenvalues floored at EPS_PERTURB."""
    w = np.clip(w, EPS_PERTURB, None)
    return (u * (-np.log2(w))[..., None, :]) @ dagger(u)


def _rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a[i], b[i]> over the trailing axes, for each leading index i.

    One einsum over the real views, where Re <x, y> is the plain dot
    product. Its sum for row i reads row i alone, in the same order for
    any number of rows, so each value is bit-equal to that of the row
    reduced by itself.
    """
    n = len(a)
    return np.einsum(
        "ij,ij->i", a.reshape(n, -1).view(np.float64), b.reshape(n, -1).view(np.float64)
    )


def _outer(vecs: np.ndarray) -> np.ndarray:
    """|v><v| of every vector of a (..., d) stack."""
    return vecs[..., :, None] * vecs.conj()[..., None, :]


def _renorm(rows: np.ndarray) -> np.ndarray:
    """Scale each float64 row, read as a complex vector, to unit norm, in place; return rows."""
    u = rows.view(complex)
    u /= np.sqrt(_rows(u, u))[:, None]
    return rows


def _tangent(at: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v projected, in place, onto the sphere's tangent space at `at`: v - Re<at, v> at.

    Both are float64 rows, read as complex vectors.
    """
    u, w = at.view(complex), v.view(complex)
    w -= _rows(u, w)[:, None] * u
    return v


class _Memory:
    """Each restart's last LBFGS_MEMORY curvature pairs (s, y), oldest first.

    Pairs are kept as the ascent's float64 rows, so each slot of the
    two-loop recursion is one row reduction and one update. Slot j of
    restart i holds a pair when j < held[i]. rho is 1 / s.y, and
    gamma = s.y / y.y of the newest pair scales the initial inverse
    Hessian H0 = gamma I.
    """

    def __init__(self, n: int, width: int):
        self.s = np.zeros((n, LBFGS_MEMORY, width))
        self.y = np.zeros_like(self.s)
        self.rho = np.zeros((n, LBFGS_MEMORY))
        self.gamma = np.zeros(n)
        self.held = np.zeros(n, dtype=int)

    def store(self, rows: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
        """Append the pairs of these restarts whose curvature s.y is positive."""
        sy, ss, yy = _rows(s, y), _rows(s, s), _rows(y, y)
        ok = sy > CURVATURE_RTOL * np.sqrt(ss * yy)
        rows = rows[ok]
        full = rows[self.held[rows] == LBFGS_MEMORY]
        slot = np.minimum(self.held[rows], LBFGS_MEMORY - 1)
        for mem, new in ((self.s, s), (self.y, y)):
            mem[full, :-1] = mem[full, 1:]
            mem[rows, slot] = new[ok]
        self.rho[full, :-1] = self.rho[full, 1:]
        self.rho[rows, slot] = 1.0 / sy[ok]
        self.gamma[rows] = sy[ok] / yy[ok]
        self.held[rows] = slot + 1

    def apply(self, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        """H g by the two-loop recursion, for restarts that hold a pair."""
        held = self.held[rows]
        mem_s, mem_y, rho = self.s[rows], self.y[rows], self.rho[rows]
        q = g.copy()
        alpha = np.zeros((len(rows), LBFGS_MEMORY))
        # Pairs are stored oldest first, so slot j is held by every restart
        # below the shortest memory; a slice then saves the fancy indexing.
        for j in reversed(range(held.max())):
            act = slice(None) if held.min() > j else np.flatnonzero(held > j)
            a = rho[act, j] * _rows(mem_s[act, j], q[act])
            alpha[act, j] = a
            q[act] -= a[:, None] * mem_y[act, j]
        r = self.gamma[rows][:, None] * q
        for j in range(held.max()):
            act = slice(None) if held.min() > j else np.flatnonzero(held > j)
            b = rho[act, j] * _rows(mem_y[act, j], r[act])
            r[act] += (alpha[act, j] - b)[:, None] * mem_s[act, j]
        return r


def _ascend(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    starts: np.ndarray,
    iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...], np.ndarray]:
    """L-BFGS ascent on the unit sphere with Armijo backtracking, restarts in lockstep.

    starts is a (restarts, n) complex array; the ascent keeps each
    restart's point as the float64 row of its real view. evaluate maps
    the complex points of any subset of the restarts to one value each and
    contiguous complex gradients of the same shape, tangent to the sphere.
    Every point is evaluated once: an accepted line-search trial's
    gradient is the next iteration's.

    Each restart keeps its own curvature pairs: s = x_new - x_old and
    y = g_old - g_new, both projected onto the tangent space at x_new,
    stored only when s.y > CURVATURE_RTOL |s| |y|. Its direction p is the
    two-loop recursion's H g, projected onto the tangent space; with no
    pairs, or when <g, p> is not positive, p is g and the pairs are
    dropped. The line search starts at t = 1 and halves t until
    f(x + t p), renormalized, reaches f + 1e-4 t <g, p>, or t falls to
    1e-14. A restart leaves the batch at its first stop (see the module
    docstring). Returns every restart's final point, value, iteration
    count, stop reason and convergence flag.
    """
    x = _renorm(np.array(starts, dtype=complex).view(np.float64))
    f, g = evaluate(x.view(complex))
    g = g.view(np.float64)
    used = np.zeros(len(f), dtype=int)
    gnorm = np.zeros(len(f))
    reasons = np.full(len(f), "iteration-cap", dtype=object)
    memory = _Memory(*x.shape)
    x_prev, g_prev = np.empty_like(x), np.empty_like(g)
    live = np.arange(len(f))
    for it in range(1, iters + 1):
        if not live.size:
            break
        used[live] = it
        at, gl = x[live], g[live]
        gsq = _rows(gl, gl)
        gnorm[live] = np.sqrt(gsq)
        done = gnorm[live] < GRAD_TOL
        reasons[live[done]] = "gradient"
        keep = ~done
        live, gsq, at, gl = live[keep], gsq[keep], at[keep], gl[keep]
        if it > 1 and live.size:
            s = _tangent(at, at - x_prev[live])
            y = _tangent(at, g_prev[live] - gl)
            memory.store(live, s, y)
        p, slope = gl.copy(), gsq.copy()
        has = np.flatnonzero(memory.held[live] > 0)
        if has.size:
            hg = _tangent(at[has], memory.apply(live[has], gl[has]))
            hslope = _rows(gl[has], hg)
            up = hslope > 0
            p[has[up]] = hg[up]
            slope[has[up]] = hslope[up]
            memory.held[live[has[~up]]] = 0
        f_old = f[live]
        t = np.ones(len(live))
        improved = np.zeros(len(live), dtype=bool)
        trying = np.arange(len(live))
        while trying.size:
            tt = t[trying]
            cand = _renorm(at[trying] + tt[:, None] * p[trying])
            fc, gc = evaluate(cand.view(complex))
            ok = fc >= f[live[trying]] + 1e-4 * tt * slope[trying]
            won = live[trying[ok]]
            x[won], f[won], g[won] = cand[ok], fc[ok], gc.view(np.float64)[ok]
            improved[trying[ok]] = True
            trying = trying[~ok]
            t[trying] *= 0.5
            trying = trying[t[trying] > 1e-14]
        x_prev[live], g_prev[live] = at, gl
        stalled = improved & (f[live] - f_old <= STALL_RTOL * np.maximum(np.abs(f_old), 1.0))
        reasons[live[~improved]] = "line-search"
        reasons[live[stalled]] = "stalled"
        live = live[improved & ~stalled]
    # A gradient stop lies far below STALL_GRAD_TOL; a stall or a failed
    # line search below it sits at rounding level.
    converged = (reasons != "iteration-cap") & (gnorm < STALL_GRAD_TOL)
    return x.view(complex), f, used, tuple(reasons.tolist()), converged


def _check_stack(ch: QuantumChannel, restarts: int, pieces: int, side: int = 1) -> None:
    """Refuse a restart stack with more entries than a D_MAX x D_MAX matrix.

    Each restart holds `pieces` matrices of at most d x d, d the largest of
    the input, output and environment dimensions and `side`.
    """
    d = max(ch.d_in, ch.d_out, len(ch.kraus), side)
    if as_index(restarts, "restarts") * pieces * d * d > D_MAX**2:
        raise DimensionError(f"{restarts} x {pieces} stacks of {d} x {d} exceed D_MAX^2")


def _run_restarts(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    n: int,
    argmax_of: Callable[[np.ndarray], PureState | Ensemble],
    restarts: int,
    iters: int,
    seed: int,
) -> OptimizationReport:
    """Ascend on the unit sphere of C^n from every restart's start; the first best one wins.

    Restart r starts from a complex Gaussian vector drawn from
    rng_for(seed, r). argmax_of maps the winner's unit vector to the
    reported maximizer.
    """
    restarts, iters = as_index(restarts, "restarts", 1), as_index(iters, "iters", 1)
    seed = as_index(seed, "seed", 0)
    rngs = [_stream(seed, (r,)) for r in range(restarts)]
    starts = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for rng in rngs])
    x, f, used, reasons, conv = _ascend(evaluate, starts, iters)
    best = int(np.argmax(f))
    return OptimizationReport(
        best_value=float(f[best]),
        argmax=argmax_of(x[best]),
        restarts=restarts,
        iterations=tuple(used.tolist()),
        stop_reasons=reasons,
        converged=bool(conv[best]),
    )


def _max_coherent(ch: QuantumChannel, restarts: int, iters: int, seed: int) -> OptimizationReport:
    """The purification ascent of max_coherent_information and max_private.

    Both call it, not each other, so a wrapper around either public name
    sees each ascent once. The objective only depends on the input
    marginal rho, for which the gradient is the difference of channel
    adjoints applied to the output and environment log-densities.
    """
    d = ch.d_in
    if d * d > D_MAX:
        raise DimensionError(f"purification dimension {d * d} exceeds D_MAX={D_MAX}")
    # evaluate forms a (d*d)-square purification outer product per restart.
    _check_stack(ch, restarts, 1, side=d * d)
    kb = ch.kraus
    ke = complementary(ch).kraus
    kb_adj, ke_adj = dagger(kb), dagger(ke)

    def evaluate(v):
        rho = partial_trace_matrix(_outer(v), (d, d), keep=[1])
        wb, ub = np.linalg.eigh(_apply_full(kb, rho))
        we, ue = np.linalg.eigh(_apply_full(ke, rho))
        g_rho = _apply_full(kb_adj, _neg_log2(wb, ub)) - _apply_full(ke_adj, _neg_log2(we, ue))
        hv = (v.reshape(-1, d, d) @ g_rho.swapaxes(-1, -2)).reshape(v.shape)
        hv -= _rows(v, hv)[:, None] * v
        return entropy_of_spectra(wb) - entropy_of_spectra(we), 2.0 * hv

    def argmax_of(v):
        return PureState(v, dims=(d, d))

    return _run_restarts(evaluate, d * d, argmax_of, restarts, iters, seed)


def max_coherent_information(
    ch: QuantumChannel,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Best coherent information over pure inputs on reference (x) input."""
    return _max_coherent(ch, restarts, iters, seed)


def max_holevo(
    ch: QuantumChannel,
    ensemble_size: int,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Best classical mutual information over pure-state ensembles of ensemble_size states.

    The ascent runs on the ensemble's purification sum_x sqrt(p_x)|x>|psi_x>
    (Devetak, IEEE Trans. Inf. Theory 51, 44, 2005): one unit vector u of
    C^(m d_in) whose block u_x is sqrt(p_x) psi_x, so p_x = |u_x|^2. With
    A_x = N(u_x u_x^dag), p_x S(N(psi_x)) = -Tr A_x log2 A_x + p_x log2 p_x,
    whose derivative in A_x is L_x = -log2 N(psi_x) up to a multiple of the
    identity. The gradient in block x is then 2 N^dag(L_avg - L_x) u_x,
    L_avg = -log2 of the average output; the identity terms add a multiple
    of u, which the projection onto the sphere removes. argmax is the
    winner's ensemble of (p_x, psi_x).
    """
    m = as_index(ensemble_size, "ensemble_size", 2)
    _check_stack(ch, restarts, m)
    d = ch.d_in
    kraus, adjoint = ch.kraus, dagger(ch.kraus)

    def evaluate(u):
        blocks = u.reshape(len(u), m, d)
        probs = _rows(blocks.reshape(-1, d), blocks.reshape(-1, d)).reshape(-1, m)
        states = blocks / np.sqrt(probs)[..., None]
        outs, avg = _ensemble_outputs(kraus, probs, _outer(states))
        w_avg, u_avg = np.linalg.eigh(avg)
        w, v = np.linalg.eigh(outs)
        s_outs = entropy_of_spectra(w)
        mean_s = sum(probs[:, k] * s_outs[:, k] for k in range(m))
        back = _apply_full(adjoint, _neg_log2(w_avg, u_avg)[:, None] - _neg_log2(w, v))
        grad = (back @ blocks[..., None]).reshape(u.shape)
        grad -= _rows(u, grad)[:, None] * u
        return entropy_of_spectra(w_avg) - mean_s, 2.0 * grad

    def argmax_of(u):
        blocks = u.reshape(m, d)
        probs = _rows(blocks, blocks)
        return Ensemble([(float(p), DensityMatrix.from_pure(b)) for p, b in zip(probs, blocks)])

    return _run_restarts(evaluate, m * d, argmax_of, restarts, iters, seed)


def max_private(
    ch: QuantumChannel,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Best I(X;B) - I(X;E) over pure-state ensembles: the coherent-information proxy.

    For pure states with average rho, I(X;B) - I(X;E) = S(N(rho)) -
    S(N^c(rho)) = I_c(rho) (Devetak, IEEE Trans. Inf. Theory 51, 44, 2005),
    so this runs the purification ascent. argmax is the spectral ensemble
    of the winner's input marginal, rounding-level weights dropped. P^(1)
    exceeds the value only with mixed-state ensembles, which no maximizer
    here searches.
    """
    rep = _max_coherent(ch, restarts, iters, seed)
    d = ch.d_in
    w, u = np.linalg.eigh(partial_trace_matrix(_outer(rep.argmax.vector), (d, d), keep=[1]))
    kept = np.flatnonzero(w > d * np.finfo(float).eps)
    return replace(
        rep, argmax=Ensemble([(float(w[k]), DensityMatrix.from_pure(u[:, k])) for k in kept])
    )


def _per_copy(rep: OptimizationReport, n: int) -> OptimizationReport:
    return replace(rep, best_value=rep.best_value / n)


def n_copy_coherent_information(
    ch: QuantumChannel,
    n: int,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Per-copy best coherent information of the n-fold parallel channel.

    The per-copy value can exceed the single-letter one for superadditive
    channels; that gap is a finding to report, not an invariant to assert.
    """
    return _per_copy(max_coherent_information(tensor_power(ch, n), restarts, iters, seed), n)


def n_copy_holevo(
    ch: QuantumChannel,
    n: int,
    ensemble_size: int,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Per-copy best Holevo information of the n-fold parallel channel."""
    return _per_copy(max_holevo(tensor_power(ch, n), ensemble_size, restarts, iters, seed), n)


def n_copy_private(
    ch: QuantumChannel,
    n: int,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Per-copy best private information of the n-fold parallel channel."""
    return _per_copy(max_private(tensor_power(ch, n), restarts, iters, seed), n)
