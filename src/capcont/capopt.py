"""Numerical maximizers for single-letter capacity proxies.

Coherent information, Holevo information, and private information are all
non-concave in their natural parameterizations, so every maximizer here is
a lower-bound certifier: multi-start projected ascent whose best found
value is reported together with the point that achieves it.  No claim of
global optimality is made.

Pure states are parameterized by unconstrained complex vectors normalized
on evaluation; ensembles add a softmax over real logits.  Gradients go
through the eigendecomposition of each output state, with eigenvalues
floored at EPS_PERTURB so the matrix logarithm stays finite near rank
deficiency.  Restarts are independent (per-restart RNG streams derived
from the seed and the restart index) and merge by a pure max-reduction,
so a parallel scheduler would produce the identical report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import QuantumChannel, _apply_full, complementary, tensor_power
from .entropic import Ensemble, entropy_of_matrix
from .errors import ArgumentError, DimensionError
from .linalg import D_MAX, DensityMatrix, PureState, partial_trace_matrix
from .sampling import rng_for

RESTARTS = 16       # default random restarts per maximization
ITERS = 2000        # iteration cap per restart
GRAD_TOL = 1e-8     # declare convergence below this gradient norm
EPS_PERTURB = 1e-10  # eigenvalue floor inside the matrix logarithm
TAU_OPT = 1e-3      # slack for comparisons between independently found optima


@dataclass(frozen=True)
class OptimizationReport:
    """Best value found by multi-start ascent and the point achieving it.

    best_value is in bits and is a lower bound on the maximized quantity;
    re-evaluating argmax through the corresponding entropic formula
    reproduces it.  iterations holds the per-restart iteration counts and
    converged reports whether the winning restart met the gradient
    tolerance before hitting the iteration cap.
    """

    best_value: float
    argmax: PureState | Ensemble
    restarts: int
    iterations: tuple[int, ...]
    converged: bool


def _adjoint(kraus: np.ndarray) -> np.ndarray:
    """Stack of K^dag: _apply_full on it applies the adjoint map."""
    return kraus.conj().transpose(0, 2, 1)


def _neg_log2(mat: np.ndarray) -> np.ndarray:
    """-log2 of a PSD matrix with eigenvalues floored at EPS_PERTURB."""
    w, u = np.linalg.eigh(mat)
    w = np.clip(w, EPS_PERTURB, None)
    return (u * (-np.log2(w))) @ u.conj().T


def _renorm(params: list[np.ndarray]) -> list[np.ndarray]:
    """Project parameters back onto their domains.

    Complex blocks are unit vectors on a sphere; real blocks are softmax
    logits, recentred so the exponentials cannot overflow.
    """
    out = []
    for p in params:
        if np.iscomplexobj(p):
            out.append(p / np.linalg.norm(p))
        else:
            out.append(p - np.max(p))
    return out


def _ascend(
    value_of: Callable[[list[np.ndarray]], float],
    grad_of: Callable[[list[np.ndarray]], list[np.ndarray]],
    params: list[np.ndarray],
    iters: int,
) -> tuple[list[np.ndarray], float, int, bool]:
    """Projected gradient ascent with Armijo backtracking."""
    params = _renorm(params)
    f = value_of(params)
    step = 1.0
    used = 0
    converged = False
    for used in range(1, iters + 1):
        g = grad_of(params)
        gsq = sum(float(np.vdot(gi, gi).real) for gi in g)
        if np.sqrt(gsq) < GRAD_TOL:
            converged = True
            break
        t = min(2.0 * step, 1.0)
        improved = False
        while t > 1e-14:
            cand = _renorm([p + t * gi for p, gi in zip(params, g)])
            fc = value_of(cand)
            if fc >= f + 1e-4 * t * gsq:
                params, f, step, improved = cand, fc, t, True
                break
            t *= 0.5
        if not improved:
            break
    return params, f, used, converged


def _run_restarts(
    value_of,
    grad_of,
    init_of: Callable[[int], list[np.ndarray]],
    restarts: int,
    iters: int,
) -> tuple[list[np.ndarray], float, tuple[int, ...], bool]:
    if restarts < 1 or iters < 1:
        raise ArgumentError("restarts and iters must be positive")
    best_params, best_f, best_conv = None, -np.inf, False
    counts = []
    for r in range(restarts):
        params, f, used, conv = _ascend(value_of, grad_of, init_of(r), iters)
        counts.append(used)
        if f > best_f:
            best_params, best_f, best_conv = params, f, conv
    return best_params, best_f, tuple(counts), best_conv


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
    kb = ch.kraus
    ke = complementary(ch).kraus
    kb_adj, ke_adj = _adjoint(kb), _adjoint(ke)

    def rho_of(v: np.ndarray) -> np.ndarray:
        return partial_trace_matrix(np.outer(v, v.conj()), (d, d), keep=[1])

    def value_of(params):
        rho = rho_of(params[0])
        return entropy_of_matrix(_apply_full(kb, rho)) - entropy_of_matrix(
            _apply_full(ke, rho)
        )

    def grad_of(params):
        v = params[0]
        rho = rho_of(v)
        g_rho = _apply_full(kb_adj, _neg_log2(_apply_full(kb, rho)))
        g_rho -= _apply_full(ke_adj, _neg_log2(_apply_full(ke, rho)))
        hv = (v.reshape(d, d) @ g_rho.T).reshape(-1)
        hv -= np.vdot(v, hv).real * v
        return [2.0 * hv]

    def init_of(r):
        rng = rng_for(seed, r)
        return [rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)]

    params, f, counts, conv = _run_restarts(value_of, grad_of, init_of, restarts, iters)
    return OptimizationReport(
        best_value=float(f),
        argmax=PureState(params[0], dims=(d, d)),
        restarts=restarts,
        iterations=counts,
        converged=conv,
    )


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
    d = ch.d_in
    m = ensemble_size
    legs = [ch.kraus]
    if private:
        legs.append(complementary(ch).kraus)
    legs = [(kraus, _adjoint(kraus)) for kraus in legs]

    def unpack(params):
        z = params[0]
        probs = np.exp(z)
        probs /= probs.sum()
        return probs, params[1:]

    def leg_terms(kraus, probs, states):
        outs = [_apply_full(kraus, np.outer(u, u.conj())) for u in states]
        avg = sum(p * o for p, o in zip(probs, outs))
        return outs, avg

    def value_of(params):
        probs, states = unpack(params)
        total = 0.0
        sign = 1.0
        for kraus, _ in legs:
            outs, avg = leg_terms(kraus, probs, states)
            total += sign * (
                entropy_of_matrix(avg)
                - sum(p * entropy_of_matrix(o) for p, o in zip(probs, outs))
            )
            sign = -sign
        return total

    def grad_of(params):
        probs, states = unpack(params)
        g_states = [np.zeros(d, dtype=complex) for _ in range(m)]
        g_probs = np.zeros(m)
        sign = 1.0
        for kraus, adjoint in legs:
            outs, avg = leg_terms(kraus, probs, states)
            l_avg = _neg_log2(avg)
            for k, (u, out) in enumerate(zip(states, outs)):
                back = _apply_full(adjoint, l_avg - _neg_log2(out))
                g_states[k] += sign * probs[k] * (back @ u)
                g_probs[k] += sign * (
                    float(np.vdot(out, l_avg).real) - entropy_of_matrix(out)
                )
            sign = -sign
        for k, u in enumerate(states):
            g_states[k] -= np.vdot(u, g_states[k]).real * u
            g_states[k] *= 2.0
        g_z = probs * (g_probs - float(probs @ g_probs))
        return [g_z] + g_states

    def init_of(r):
        rng = rng_for(seed, r)
        vecs = [
            rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m)
        ]
        return [rng.standard_normal(m) * 0.1] + vecs

    params, f, counts, conv = _run_restarts(value_of, grad_of, init_of, restarts, iters)
    probs, states = unpack(params)
    ens = Ensemble(
        [(float(p), DensityMatrix.from_pure(u)) for p, u in zip(probs, states)]
    )
    return OptimizationReport(
        best_value=float(f),
        argmax=ens,
        restarts=restarts,
        iterations=counts,
        converged=conv,
    )


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
    return OptimizationReport(
        best_value=rep.best_value / n,
        argmax=rep.argmax,
        restarts=rep.restarts,
        iterations=rep.iterations,
        converged=rep.converged,
    )


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
