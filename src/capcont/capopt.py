"""Numerical maximizers for single-letter capacity proxies.

Coherent information, Holevo information, and private information are all
non-concave in their natural parameterizations, so every maximizer here is
a lower-bound certifier: multi-start L-BFGS ascent whose best found
value is reported together with the point that achieves it.  No claim of
global optimality is made.

Pure states are parameterized by unconstrained complex vectors normalized
on evaluation; ensembles add a softmax over real logits.  Gradients go
through one eigendecomposition of each output state, which gives both its
matrix logarithm, with eigenvalues floored at EPS_PERTURB so it stays
finite near rank deficiency, and its entropy.

Restarts run in lockstep on one leading batch axis, and an ensemble's
states on a second one, so one kernel call serves every restart and state
of a channel leg.  Each restart draws its start from its own RNG stream
(derived from the seed and the restart index) and keeps its own
curvature pairs, Armijo backtracking and stop tests.  Its step direction
is the limited-memory BFGS one (Nocedal and Wright, Numerical
Optimization, ch. 7) on the product of the state spheres and the logit
space: the last LBFGS_MEMORY pairs, each projected onto the tangent
space where it was taken (Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, ch. 8), and the direction projected onto
the current one.  A restart leaves the batch at the first of four stops:

- ``gradient``: its gradient norm falls below GRAD_TOL;
- ``stalled``: an accepted line-search step raises f by no more than
  rounding, at most STALL_RTOL * max(|f|, 1);
- ``line-search``: backtracking finds no acceptable step;
- ``iteration-cap``: it reaches the iteration cap.

The batched kernels match per-slice calls bit for bit.  Every scalar
reduction (norms, tangent projections, curvature and slope dots, the
ensemble gradient's overlaps and means) is one row reduction, ``_rows``:
Re <a[i], b[i]> for every leading index i in one einsum over the real
views, whose sum for row i reads row i alone.  A restart's dots run over
its blocks flattened into one real row, the layout the curvature pairs are
kept in.  So the report is bit-identical to running the restarts one after
another; ``test_row_reduction_is_batch_invariant`` pins the row property
and ``test_lockstep_ascent_matches_sequential_reference`` the report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channels import QuantumChannel, _apply_full, complementary, tensor_power
from .entropic import Ensemble, _ensemble_outputs, _holevo, entropy_of_matrix, entropy_of_spectra
from .errors import ArgumentError, DimensionError
from .linalg import D_MAX, DensityMatrix, PureState, dagger, partial_trace_matrix
from .sampling import rng_for

RESTARTS = 16       # default random restarts per maximization
ITERS = 2000        # iteration cap per restart
GRAD_TOL = 1e-8     # declare convergence below this gradient norm
STALL_RTOL = 4e-16  # an accepted step raising f by at most this * max(|f|, 1) stalls
STALL_GRAD_TOL = 1e-6  # a stalled restart below this gradient norm has converged
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
    stopped by the gradient test, or stalled with a gradient norm below
    STALL_GRAD_TOL = 1e-6.  A stall above that norm is a plateau the
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


def _piece_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a, b> on each piece of two (restarts, pieces, ...) stacks."""
    pieces = a.shape[0] * a.shape[1]
    return _rows(a.reshape(pieces, -1), b.reshape(pieces, -1)).reshape(a.shape[:2])


def _renorm(params: list[np.ndarray]) -> list[np.ndarray]:
    """Project parameters back onto their domains.

    Each block is (restarts, pieces, n). Complex pieces are unit vectors
    on a sphere; real pieces are softmax logits, recentred so the
    exponentials cannot overflow.
    """
    out = []
    for p in params:
        if np.iscomplexobj(p):
            out.append(p / np.sqrt(_piece_rows(p, p))[..., None])
        else:
            out.append(p - np.max(p, axis=-1, keepdims=True))
    return out


def _flat(blocks: list[np.ndarray]) -> np.ndarray:
    """Each restart's blocks as one float64 row: their real views, in block order."""
    rows = [b.reshape(len(b), -1).view(np.float64) for b in blocks]
    return rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)


def _unflat(rows: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Split _flat rows back into blocks shaped and typed like `like`."""
    out, start = [], 0
    for b in like:
        width = b[0].size * b.itemsize // 8
        out.append(rows[:, start : start + width].view(b.dtype).reshape(b.shape))
        start += width
    return out


def _dots(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
    """Re <a, b> per restart: one row reduction over the flattened blocks."""
    return _rows(_flat(a), _flat(b))


def _tangent(at: list[np.ndarray], v: list[np.ndarray]) -> list[np.ndarray]:
    """v projected onto the tangent space at `at`: v - Re<u, v> u on each sphere piece.

    Logit blocks are left as they are.
    """
    return [
        vi - _piece_rows(u, vi)[..., None] * u if np.iscomplexobj(u) else vi
        for u, vi in zip(at, v)
    ]


class _Memory:
    """Each restart's last LBFGS_MEMORY curvature pairs (s, y), oldest first.

    Pairs are kept as _flat rows, so each slot of the two-loop recursion is
    one row reduction and one update. Slot j of restart i holds a pair when
    j < held[i]. rho is 1 / s.y, and gamma = s.y / y.y of the newest pair
    scales the initial inverse Hessian H0 = gamma I.
    """

    def __init__(self, params: list[np.ndarray]):
        flat = _flat(params)
        n = len(flat)
        self.s = np.zeros((n, LBFGS_MEMORY, flat.shape[1]))
        self.y = np.zeros_like(self.s)
        self.rho = np.zeros((n, LBFGS_MEMORY))
        self.gamma = np.zeros(n)
        self.held = np.zeros(n, dtype=int)

    def store(self, rows: np.ndarray, s: list[np.ndarray], y: list[np.ndarray]) -> None:
        """Append the pairs of these restarts whose curvature s.y is positive."""
        s, y = _flat(s), _flat(y)
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

    def apply(self, rows: np.ndarray, g: list[np.ndarray]) -> list[np.ndarray]:
        """H g by the two-loop recursion, for restarts that hold a pair."""
        held = self.held[rows]
        mem_s, mem_y, rho = self.s[rows], self.y[rows], self.rho[rows]
        q = _flat(g).copy()
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
        return _unflat(r, g)


def _ascend(
    value_of: Callable[[list[np.ndarray]], np.ndarray],
    grad_of: Callable[[list[np.ndarray]], list[np.ndarray]],
    params: list[np.ndarray],
    iters: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, tuple[str, ...], np.ndarray]:
    """L-BFGS ascent with Armijo backtracking, restarts in lockstep.

    params is a list of (restarts, pieces, n) blocks. value_of maps such a
    list, for any subset of the restarts, to one value per restart, and
    grad_of to gradient blocks of the same shapes, tangent to the spheres.

    Each restart keeps its own curvature pairs: s = x_new - x_old and
    y = g_old - g_new, both projected onto the tangent space at x_new,
    stored only when s.y > CURVATURE_RTOL |s| |y|. Its direction p is the
    two-loop recursion's H g, projected onto the tangent space; with no
    pairs, or when <g, p> is not positive, p is g and the pairs are
    dropped. The line search starts at t = 1 and halves t until
    f(x + t p), renormalized, reaches f + 1e-4 t <g, p>, or t falls to
    1e-14. A restart leaves the batch at its first stop (see the module
    docstring). Returns every restart's final parameters, value,
    iteration count, stop reason and convergence flag.
    """
    params = _renorm(params)
    f = value_of(params)
    used = np.zeros(len(f), dtype=int)
    gnorm = np.zeros(len(f))
    reasons = np.full(len(f), "iteration-cap", dtype=object)
    memory = _Memory(params)
    x_prev = [np.empty_like(p) for p in params]
    g_prev = [np.empty_like(p) for p in params]
    live = np.arange(len(f))
    for it in range(1, iters + 1):
        if not live.size:
            break
        used[live] = it
        at = [p[live] for p in params]
        g = grad_of(at)
        gsq = _dots(g, g)
        gnorm[live] = np.sqrt(gsq)
        done = gnorm[live] < GRAD_TOL
        reasons[live[done]] = "gradient"
        keep = ~done
        live, gsq = live[keep], gsq[keep]
        at, g = [a[keep] for a in at], [gi[keep] for gi in g]
        if it > 1 and live.size:
            s = _tangent(at, [a - xp[live] for a, xp in zip(at, x_prev)])
            y = _tangent(at, [gp[live] - gi for gp, gi in zip(g_prev, g)])
            memory.store(live, s, y)
        p, slope = [gi.copy() for gi in g], gsq.copy()
        has = np.flatnonzero(memory.held[live] > 0)
        if has.size:
            g_has = [gi[has] for gi in g]
            hg = _tangent([a[has] for a in at], memory.apply(live[has], g_has))
            hslope = _dots(g_has, hg)
            up = hslope > 0
            for pi, hi in zip(p, hg):
                pi[has[up]] = hi[up]
            slope[has[up]] = hslope[up]
            memory.held[live[has[~up]]] = 0
        f_old = f[live]
        t = np.ones(len(live))
        improved = np.zeros(len(live), dtype=bool)
        trying = np.arange(len(live))
        while trying.size:
            tt = t[trying]
            cand = _renorm([a[trying] + tt[:, None, None] * pi[trying] for a, pi in zip(at, p)])
            fc = value_of(cand)
            ok = fc >= f[live[trying]] + 1e-4 * tt * slope[trying]
            won = live[trying[ok]]
            for par, c in zip(params, cand):
                par[won] = c[ok]
            f[won] = fc[ok]
            improved[trying[ok]] = True
            trying = trying[~ok]
            t[trying] *= 0.5
            trying = trying[t[trying] > 1e-14]
        for xp, gp, a, gi in zip(x_prev, g_prev, at, g):
            xp[live], gp[live] = a, gi
        stalled = improved & (f[live] - f_old <= STALL_RTOL * np.maximum(np.abs(f_old), 1.0))
        reasons[live[~improved]] = "line-search"
        reasons[live[stalled]] = "stalled"
        live = live[improved & ~stalled]
    converged = (reasons == "gradient") | ((reasons == "stalled") & (gnorm < STALL_GRAD_TOL))
    return params, f, used, tuple(reasons.tolist()), converged


def _check_stack(ch: QuantumChannel, restarts: int, pieces: int, side: int = 1) -> None:
    """Refuse a restart stack with more entries than a D_MAX x D_MAX matrix.

    Each restart holds `pieces` matrices of at most d x d, d the largest of
    the input, output and environment dimensions and `side`.
    """
    d = max(ch.d_in, ch.d_out, len(ch.kraus), side)
    if restarts * pieces * d * d > D_MAX**2:
        raise DimensionError(f"{restarts} x {pieces} stacks of {d} x {d} exceed D_MAX^2")


def _run_restarts(
    value_of,
    grad_of,
    init_of: Callable[[int], list[np.ndarray]],
    argmax_of: Callable[[list[np.ndarray]], PureState | Ensemble],
    restarts: int,
    iters: int,
) -> OptimizationReport:
    """Ascend from every restart's start point; the first best one wins.

    argmax_of maps the winner's parameter blocks, each with a restart
    axis of length 1, to the reported maximizer.
    """
    if restarts < 1 or iters < 1:
        raise ArgumentError("restarts and iters must be positive")
    starts = [np.stack(blocks) for blocks in zip(*(init_of(r) for r in range(restarts)))]
    params, f, used, reasons, conv = _ascend(value_of, grad_of, starts, iters)
    best = int(np.argmax(f))
    return OptimizationReport(
        best_value=float(f[best]),
        argmax=argmax_of([p[best : best + 1] for p in params]),
        restarts=restarts,
        iterations=tuple(used.tolist()),
        stop_reasons=reasons,
        converged=bool(conv[best]),
    )


def max_coherent_information(
    ch: QuantumChannel,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Best coherent information over pure inputs on reference (x) input.

    The objective only depends on the input marginal rho, for which the
    gradient is the difference of channel adjoints applied to the output
    and environment log-densities.
    """
    d = ch.d_in
    if d * d > D_MAX:
        raise DimensionError(f"purification dimension {d * d} exceeds D_MAX={D_MAX}")
    # rho_of forms a (d*d)-square purification outer product per restart.
    _check_stack(ch, restarts, 1, side=d * d)
    kb = ch.kraus
    ke = complementary(ch).kraus
    kb_adj, ke_adj = dagger(kb), dagger(ke)

    # params: one (restarts, 1, d*d) block of purifications
    def rho_of(v: np.ndarray) -> np.ndarray:
        return partial_trace_matrix(_outer(v), (d, d), keep=[1])

    def value_of(params):
        rho = rho_of(params[0][:, 0])
        return entropy_of_matrix(_apply_full(kb, rho)) - entropy_of_matrix(
            _apply_full(ke, rho)
        )

    def grad_of(params):
        v = params[0]
        rho = rho_of(v[:, 0])
        g_rho = _apply_full(kb_adj, _neg_log2(*np.linalg.eigh(_apply_full(kb, rho))))
        g_rho -= _apply_full(ke_adj, _neg_log2(*np.linalg.eigh(_apply_full(ke, rho))))
        hv = (v.reshape(-1, d, d) @ g_rho.swapaxes(-1, -2)).reshape(v.shape)
        hv -= _piece_rows(v, hv)[..., None] * v
        return [2.0 * hv]

    def init_of(r):
        rng = rng_for(seed, r)
        return [(rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d))[None]]

    def argmax_of(params):
        return PureState(params[0][0, 0], dims=(d, d))

    return _run_restarts(value_of, grad_of, init_of, argmax_of, restarts, iters)


def _max_over_ensembles(
    ch: QuantumChannel,
    ensemble_size: int,
    restarts: int,
    iters: int,
    seed: int,
    private: bool,
) -> OptimizationReport:
    if ensemble_size < 2:
        raise ArgumentError(f"ensemble size must be >= 2, got {ensemble_size}")
    _check_stack(ch, restarts, ensemble_size)
    d = ch.d_in
    m = ensemble_size
    legs = [ch.kraus]
    if private:
        legs.append(complementary(ch).kraus)
    legs = [(kraus, dagger(kraus)) for kraus in legs]

    # params: (restarts, 1, m) softmax logits and (restarts, m, d) states
    def unpack(params):
        z, states = params
        probs = np.exp(z[:, 0])
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs, states

    def value_of(params):
        probs, states = unpack(params)
        rhos = _outer(states)
        return sum(
            sign * _holevo(kraus, probs, rhos) for sign, (kraus, _) in zip((1.0, -1.0), legs)
        )

    def grad_of(params):
        probs, states = unpack(params)
        g_states = np.zeros(states.shape, dtype=complex)
        g_probs = np.zeros(probs.shape)
        sign = 1.0
        for kraus, adjoint in legs:
            outs, avg = _ensemble_outputs(kraus, probs, _outer(states))
            l_avg = _neg_log2(*np.linalg.eigh(avg))
            w, u = np.linalg.eigh(outs)
            back = _apply_full(adjoint, l_avg[:, None] - _neg_log2(w, u))
            g_states += (sign * probs)[..., None] * (back @ states[..., None])[..., 0]
            overlaps = _piece_rows(outs, np.broadcast_to(l_avg[:, None], outs.shape))
            g_probs += sign * (overlaps - entropy_of_spectra(w))
            sign = -sign
        g_states -= _piece_rows(states, g_states)[..., None] * states
        g_states *= 2.0
        means = _rows(probs, g_probs)
        g_z = probs * (g_probs - means[:, None])
        return [g_z[:, None], g_states]

    def init_of(r):
        rng = rng_for(seed, r)
        vecs = [
            rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m)
        ]
        return [(rng.standard_normal(m) * 0.1)[None], np.array(vecs)]

    def argmax_of(params):
        probs, states = unpack(params)
        return Ensemble(
            [(float(p), DensityMatrix.from_pure(u)) for p, u in zip(probs[0], states[0])]
        )

    return _run_restarts(value_of, grad_of, init_of, argmax_of, restarts, iters)


def max_holevo(
    ch: QuantumChannel,
    ensemble_size: int,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Best classical mutual information over pure-state ensembles."""
    return _max_over_ensembles(ch, ensemble_size, restarts, iters, seed, private=False)


def max_private(
    ch: QuantumChannel,
    ensemble_size: int,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Best I(X;B) - I(X;E) over pure-state ensembles."""
    return _max_over_ensembles(ch, ensemble_size, restarts, iters, seed, private=True)


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
    ensemble_size: int,
    restarts: int = RESTARTS,
    iters: int = ITERS,
    seed: int = 0,
) -> OptimizationReport:
    """Per-copy best private information of the n-fold parallel channel."""
    return _per_copy(max_private(tensor_power(ch, n), ensemble_size, restarts, iters, seed), n)
