"""Continuity bounds for entropies and capacities, with a numerical harness.

The bound formulas are closed-form expressions in the distance eps, the
output dimension, and the copy count.  The harness measures both sides of
each inequality on randomized instances: channel distances come from the
certified diamond norm (the closed-form bracket for covariant pairs, the
SDP otherwise), entropy differences from exact eigendecompositions, and
capacity-proxy differences from either shared fixed parameters (hard
checks) or independent maximizations (consistent-with checks, since the
maximizers certify lower bounds only and cannot witness a violation).
Trials draw raw matrices from their own seeded streams and are measured
as stacks; validated state types appear only at the public boundary.

Hybrid sequences interpolate between the n-copy outputs of two channels
one tensor slot at a time; consecutive states differ only in that slot,
which is what reduces the n-copy entropy bound to n applications of the
single-slot bound.  The same telescoping shows up as an explicit invariant
here: the end-to-end entropy difference never exceeds the sum of per-step
conditional-entropy differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capopt import max_coherent_information, max_holevo, max_private
from .channels import (
    QuantumChannel,
    _apply_on_factors,
    complementary,
    erasure,
    mix,
    tensor_power,
    truncated_classical_example,
    truncated_quantum_example,
)
from .distance import diamond_distance, trace_distance
from .entropic import (
    TAU_ENT,
    Ensemble,
    _coherent_information,
    _holevo,
    binary_entropy,
    coherent_information,
    entropy_of_matrix,
    holevo_information,
)
from .errors import ArgumentError
from .linalg import DensityMatrix, hermitian_part, partial_trace_matrix
from .sampling import _wishart, haar_state, random_channel, rng_for


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ArgumentError(f"eps {eps} outside [0, 1]")
    return eps


def _check_dim(d: int) -> int:
    d = int(d)
    if d < 2:
        raise ArgumentError(f"dimension {d} must be >= 2")
    return d


def fannes_bound(eps: float, d: int) -> float:
    """Entropy continuity in trace distance: eps * log d + H(eps)."""
    eps = _check_eps(eps)
    d = _check_dim(d)
    return eps * math.log2(d) + binary_entropy(eps)


def af_bound(eps: float, d_a: int) -> float:
    """Conditional-entropy continuity: 4 eps * log d_A + 2 H(eps)."""
    eps = _check_eps(eps)
    d_a = _check_dim(d_a)
    return 4.0 * eps * math.log2(d_a) + 2.0 * binary_entropy(eps)


def output_entropy_bound(n: int, eps: float, d_b: int) -> float:
    """n-copy output-entropy continuity: n (4 eps * log d_B + 2 H(eps))."""
    n = int(n)
    if n < 1:
        raise ArgumentError(f"copy count {n} must be >= 1")
    return n * af_bound(eps, d_b)


def capacity_difference_bounds(eps: float, d_b: int) -> dict[str, float]:
    """Single-letter capacity continuity bounds keyed by capacity kind.

    The classical and quantum bounds are 8 eps * log d_B + 4 H(eps); the
    private bound doubles that because its proof splits into four
    entropy-difference terms instead of two.
    """
    base = 2.0 * af_bound(eps, d_b)
    return {"classical": base, "quantum": base, "private": 2.0 * base}


def regularized_gap_bound(gaps: Sequence[tuple[int, float]]) -> float:
    """Tightest per-copy constant certified by per-n gaps.

    If every n-copy quantity gap is at most n*c, the regularized (per-copy
    limit) gap is at most c; given measured per-n gaps this returns the
    smallest such c, namely max over n of gap/n.
    """
    gaps = [(int(n), float(g)) for n, g in gaps]
    if not gaps:
        raise ArgumentError("need at least one (n, gap) pair")
    for n, g in gaps:
        if n < 1:
            raise ArgumentError(f"copy count {n} must be >= 1")
        if g < 0:
            raise ArgumentError(f"gap {g} must be nonnegative")
    return max(g / n for n, g in gaps)


@dataclass(frozen=True)
class BoundReport:
    """One measured-versus-bound comparison.

    margin is bound - measured; a violation is any margin below -TAU_ENT.
    hard marks checks whose violation would falsify the inequality, as
    opposed to consistent-with checks built from one-sided estimates.
    """

    quantity_name: str
    measured: float
    bound: float
    epsilon: float
    n: int
    d_b: int
    seed: int | None = None
    detail: str = ""
    hard: bool = True

    @property
    def margin(self) -> float:
        return self.bound - self.measured

    @property
    def violated(self) -> bool:
        return self.hard and self.margin < -TAU_ENT


# Trials measured as one stack. A constant block keeps a harness's memory
# independent of its trial count; 256 keeps runs of up to 256 trials one stack.
_TRIAL_BLOCK = 256


def _trial_blocks(trials: int) -> list[range]:
    """Consecutive ranges of at most _TRIAL_BLOCK trial indices."""
    return [range(t, min(t + _TRIAL_BLOCK, trials)) for t in range(0, trials, _TRIAL_BLOCK)]


def _measure_pairs(d: int, rngs: Sequence[np.random.Generator], quantity):
    """|quantity(rho) - quantity(sigma)| on random state pairs, one per stream, and eps.

    Each stream draws rho and tau, then lam <= 1/4; sigma = (1 - lam) rho
    + lam tau caps the trace distance at 1/2. quantity maps a (trials, d, d)
    stack to one value per state; the stacks live only inside this call.
    Returns the differences and the measured trace distances eps.
    """
    draws = [(_wishart(d, d, rng), _wishart(d, d, rng), 0.25 * rng.random()) for rng in rngs]
    rho, tau, lam = (np.array(x) for x in zip(*draws))
    rho, tau = hermitian_part(rho), hermitian_part(tau)
    lam = lam[:, None, None]
    sigma = hermitian_part((1.0 - lam) * rho + lam * tau)
    eps = np.sum(np.abs(np.linalg.eigvalsh(rho - sigma)), axis=-1)
    return np.abs(quantity(rho) - quantity(sigma)), eps


def verify_fannes(
    dims: Sequence[int] = (2, 4, 8), trials: int = 1000, seed: int = 0
) -> list[BoundReport]:
    """Entropy differences of random nearby pairs against eps log d + H(eps).

    The trials of one dimension are measured in stacks of _TRIAL_BLOCK.
    """
    dims = [_check_dim(d) for d in dims]
    if int(trials) < 1:
        return []
    reports = []
    for d in dims:
        for block in _trial_blocks(int(trials)):
            rngs = [rng_for(seed, d, t) for t in block]
            measured, eps = _measure_pairs(d, rngs, entropy_of_matrix)
            for t, m, e in zip(block, measured, eps):
                detail = f"d {d}, trial {t}"
                reports.append(BoundReport(
                    "entropy-difference", float(m), fannes_bound(e, d), float(e), 1, d, seed, detail
                ))
    return reports


def verify_af(
    dim_pairs: Sequence[tuple[int, int]] = tuple(
        (a, b) for a in (2, 3, 4) for b in (2, 3, 4)
    ),
    trials: int = 1000,
    seed: int = 0,
) -> list[BoundReport]:
    """Conditional-entropy differences against 4 eps log d_A + 2 H(eps).

    The trials of one dimension pair are measured in stacks of
    _TRIAL_BLOCK. The report's d_b column carries the bound's dimension
    argument, which for this inequality is the conditioned system d_A.
    """

    def cond_entropy(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
        return entropy_of_matrix(rho) - entropy_of_matrix(partial_trace_matrix(rho, dims, [1]))

    dim_pairs = [(_check_dim(d_a), _check_dim(d_b)) for d_a, d_b in dim_pairs]
    if int(trials) < 1:
        return []
    reports = []
    for d_a, d_b in dim_pairs:
        for block in _trial_blocks(int(trials)):
            rngs = [rng_for(seed, d_a, d_b, t) for t in block]
            measured, eps = _measure_pairs(
                d_a * d_b, rngs, lambda rho: cond_entropy(rho, (d_a, d_b))
            )
            for t, m, e in zip(block, measured, eps):
                detail = f"d_a {d_a} x d_b {d_b}, trial {t}"
                reports.append(BoundReport(
                    "conditional-entropy-difference", float(m), af_bound(e, d_a), float(e), 1,
                    d_a, seed, detail,
                ))
    return reports


@dataclass(frozen=True)
class HybridSequence:
    """Interpolation states rho^0 ... rho^n on reference (x) B^n.

    rho^k applies the second channel to the first k slots and the first
    channel to the rest; step_differences[k-1] is the conditional-entropy
    difference |S(B_k | rest)_{rho^k} - S(B_k | rest)_{rho^{k-1}}| and
    step_distances[k-1] the trace distance between the two states.
    """

    states: tuple[DensityMatrix, ...]
    step_differences: tuple[float, ...]
    step_distances: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.states) - 1

    @property
    def endpoint_entropy_difference(self) -> float:
        return abs(
            entropy_of_matrix(self.states[-1].matrix)
            - entropy_of_matrix(self.states[0].matrix)
        )


def hybrid_sequence(
    ch_n: QuantumChannel, ch_m: QuantumChannel, phi, n: int
) -> HybridSequence:
    """Slot-by-slot interpolation between the n-copy outputs on phi.

    phi is a state on reference (x) input^n (n+1 tensor factors); slot k
    of state k switches from ch_n to ch_m as k runs from 0 to n.
    """
    n = int(n)
    if n < 1:
        raise ArgumentError(f"copy count {n} must be >= 1")
    if (ch_n.d_in, ch_n.d_out) != (ch_m.d_in, ch_m.d_out):
        raise ArgumentError("channel pair must share input and output dimensions")
    rho_in = phi.density() if not isinstance(phi, DensityMatrix) else phi
    if len(rho_in.dims) != n + 1 or any(d != ch_n.d_in for d in rho_in.dims[1:]):
        raise ArgumentError(
            f"input dims {rho_in.dims} do not match reference (x) input^{n}"
        )

    states = []
    for k in range(n + 1):
        out, dims = _apply_on_factors(ch_m.kraus, rho_in.matrix, rho_in.dims, range(1, k + 1))
        out, dims = _apply_on_factors(ch_n.kraus, out, dims, range(k + 1, n + 1))
        states.append(DensityMatrix(out, dims))

    def cond_entropy_on_slot(state: DensityMatrix, slot: int) -> float:
        rest = [i for i in range(n + 1) if i != slot]
        return entropy_of_matrix(state.matrix) - entropy_of_matrix(
            partial_trace_matrix(state.matrix, state.dims, rest)
        )

    diffs, dists = [], []
    for k in range(1, n + 1):
        diffs.append(
            abs(cond_entropy_on_slot(states[k], k) - cond_entropy_on_slot(states[k - 1], k))
        )
        dists.append(trace_distance(states[k], states[k - 1]))
    return HybridSequence(tuple(states), tuple(diffs), tuple(dists))


def random_nearby_pair(
    d_in: int, d_out: int, rng: np.random.Generator, q_max: float = 0.3
) -> tuple[QuantumChannel, QuantumChannel]:
    """Random channel and a mixture perturbation of it.

    The second channel is (1-q) N + q R for an independent random R and
    q in (0, q_max], which keeps the pair's diamond distance nontrivial
    but controlled; the distance itself is still measured, never assumed.
    """
    ch_n = random_channel(d_in, d_out, rng)
    ch_r = random_channel(d_in, d_out, rng)
    q = q_max * (1.0 - rng.random())
    return ch_n, mix([ch_n, ch_r], [1.0 - q, q])


def _measured_eps(ch_n: QuantumChannel, ch_m: QuantumChannel, eps: float | None) -> float:
    if eps is not None:
        return float(eps)
    result = diamond_distance(ch_n, ch_m)
    if not result.certified():
        raise ArgumentError(
            f"diamond distance not certified (status {result.status})"
        )
    value = result.value
    if 1.0 < value <= 1.0 + 1e-5:
        # A certified upper bound (from the SDP, or the bracket up to its
        # rounding) may overshoot the formula domain by the solver
        # tolerance while the true distance sits within it.
        value = 1.0
    return value


def verify_output_entropy(
    ch_n: QuantumChannel,
    ch_m: QuantumChannel,
    n: int,
    trials: int = 50,
    seed: int = 0,
    eps: float | None = None,
) -> list[BoundReport]:
    """Measure n-copy output-entropy differences against the bound.

    For each trial a Haar-random pure state on reference (x) input^n is
    pushed through both n-copy extensions; the entropy difference of the
    two outputs is compared with output_entropy_bound(n, eps, d_out).
    eps defaults to the certified diamond distance of the pair: the
    closed-form bracket for covariant pairs, the SDP otherwise.
    """
    n = int(n)
    if n < 1:
        raise ArgumentError(f"copy count {n} must be >= 1")
    if (ch_n.d_in, ch_n.d_out) != (ch_m.d_in, ch_m.d_out):
        raise ArgumentError("channel pair must share input and output dimensions")
    eps = _measured_eps(ch_n, ch_m, eps)
    d_in, d_out = ch_n.d_in, ch_n.d_out
    bound = output_entropy_bound(n, eps, d_out)
    d_ref = d_in**n
    dims = (d_ref,) + (d_in,) * n
    reports = []
    slots = range(1, n + 1)
    for t in range(trials):
        v = haar_state(d_ref * d_in**n, rng_for(seed, t), dims=dims).vector
        rho_in = hermitian_part(np.outer(v, v.conj()))
        out_n, _ = _apply_on_factors(ch_n.kraus, rho_in, dims, slots)
        out_m, _ = _apply_on_factors(ch_m.kraus, rho_in, dims, slots)
        measured = abs(entropy_of_matrix(out_n) - entropy_of_matrix(out_m))
        reports.append(
            BoundReport(
                quantity_name="output-entropy",
                measured=measured,
                bound=bound,
                epsilon=eps,
                n=n,
                d_b=d_out,
                seed=seed,
                detail=f"trial {t}",
            )
        )
    return reports


@dataclass(frozen=True)
class CorollarySettings:
    """Knobs for verify_capacity_differences.

    trials counts the shared fixed parameters per quantity; optimized
    additionally runs the maximizers on both channels for the
    consistent-with comparisons; eps overrides the measured distance.
    """

    n: int = 1
    trials: int = 10
    ensemble_size: int = 2
    restarts: int = 4
    iters: int = 400
    seed: int = 0
    optimized: bool = False
    eps: float | None = None


def _random_ensemble(d: int, size: int, rng: np.random.Generator):
    """Raw pure-state ensemble: (size,) probabilities and (size, d, d) states."""
    probs = rng.dirichlet(np.ones(size))
    vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in probs]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    return probs, hermitian_part(np.array([np.outer(v, v.conj()) for v in vecs]))


def verify_capacity_differences(
    ch_n: QuantumChannel,
    ch_m: QuantumChannel,
    settings: CorollarySettings = CorollarySettings(),
) -> list[BoundReport]:
    """Capacity-proxy differences of a channel pair against their bounds.

    Hard checks fix shared parameters: for each trial the same random
    ensemble (or input state) is evaluated through both n-copy channels
    and the difference is compared with 2n (4 eps log d_B + 2 H(eps)),
    doubled again for the private quantity whose proof splits into four
    entropy terms.  With settings.optimized, independently maximized
    single-letter proxies are compared with the n = 1 corollary bounds as
    consistent-with reports.
    """
    eps = _measured_eps(ch_n, ch_m, settings.eps)
    n = int(settings.n)
    d_in, d_out = ch_n.d_in, ch_n.d_out
    step = output_entropy_bound(n, eps, d_out)
    pow_n = tensor_power(ch_n, n)
    pow_m = tensor_power(ch_m, n)
    d_inn = d_in**n
    reports = []

    env_n, env_m = complementary(pow_n), complementary(pow_m)
    for t in range(settings.trials):
        rng = rng_for(settings.seed, t)
        probs, states = _random_ensemble(d_inn, settings.ensemble_size, rng)
        rho = hermitian_part(_wishart(d_inn * d_inn, d_inn * d_inn, rng))
        chi_n, chi_m, chi_en, chi_em = (
            _holevo(ch.kraus, probs, states) for ch in (pow_n, pow_m, env_n, env_m)
        )
        coh_n, coh_m = (
            _coherent_information(ch.kraus, rho, (d_inn, d_inn)) for ch in (pow_n, pow_m)
        )
        for name, gap, bound in (
            ("holevo-term", abs(chi_n - chi_m), 2.0 * step),
            ("coherent-term", abs(coh_n - coh_m), 2.0 * step),
            ("private-term", abs((chi_n - chi_en) - (chi_m - chi_em)), 4.0 * step),
        ):
            reports.append(
                BoundReport(name, float(gap), bound, eps, n, d_out, settings.seed, f"trial {t}")
            )

    if settings.optimized:
        bounds = capacity_difference_bounds(eps, d_out)

        def best(kind: str, ch: QuantumChannel) -> float:
            args = (settings.restarts, settings.iters, settings.seed)
            if kind == "quantum":
                return max_coherent_information(ch, *args).best_value
            runner = max_holevo if kind == "classical" else max_private
            return runner(ch, settings.ensemble_size, *args).best_value

        for kind in ("classical", "quantum", "private"):
            reports.append(
                BoundReport(
                    f"optimized-{kind}-gap",
                    abs(best(kind, ch_n) - best(kind, ch_m)),
                    bounds[kind],
                    eps,
                    1,
                    d_out,
                    settings.seed,
                    "consistent-with: maximizers certify lower bounds only",
                    hard=False,
                )
            )
    return reports


def discontinuity_demo(n_values: Sequence[int]) -> list[dict[str, float]]:
    """Trend table for the truncation families against the finite-d bound.

    Per n: the certified diamond distance between full erasure and its
    high-truncation mixture, the closed-form 2/log n envelope, the
    classical lower bound at the uniform codeword ensemble, the quantum
    lower bound at the maximally entangled input of the corresponding
    half-erasure truncation, and the capacity continuity bound at the
    measured distance.  The bound is evaluated at min(eps, 1); rows with
    eps above 1 are exactly the regime where it is vacuous by design.
    """
    rows = []
    for n in n_values:
        n = int(n)
        if n < 2:
            raise ArgumentError(f"truncation family needs n >= 2, got {n}")
        ch_ref = erasure(n, 1.0)
        ch_trunc = truncated_classical_example(n)
        result = diamond_distance(ch_ref, ch_trunc)
        if not result.certified():
            raise ArgumentError(f"diamond distance not certified for n={n}")
        eps = result.value
        classical_lb = holevo_information(ch_trunc, Ensemble.uniform_basis(n))
        quantum_trunc = truncated_quantum_example(n)
        bell = DensityMatrix.from_pure(
            np.eye(n).reshape(-1) / math.sqrt(n), dims=(n, n)
        )
        quantum_lb = coherent_information(quantum_trunc, bell)
        bound = capacity_difference_bounds(min(eps, 1.0), n + 1)["classical"]
        rows.append(
            {
                "n": n,
                "diamond_eps": eps,
                "two_over_log_n": 2.0 / math.log2(n),
                "classical_lb": classical_lb,
                "quantum_lb": quantum_lb,
                "corollary_bound": bound,
            }
        )
    return rows
