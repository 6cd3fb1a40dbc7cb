"""Continuity bounds for entropies and capacities, with a numerical harness.

The bound formulas are closed-form expressions in the distance eps, the
output dimension, and the copy count, on the paper's domain eps in
[0, 1], d >= 2 and n >= 1; the `linalg` readers refuse an argument
outside it, a harness's eps= included.  The harness measures both sides
of each inequality on randomized instances: channel distances come from the
certified diamond norm (a fixed point whose step 0 is the closed-form
bracket of covariant pairs, else the SDP), entropy differences from exact
eigendecompositions (for the n-copy output of a pure input, of the Gram
matrix of its Kraus images, which shares the output's nonzero spectrum),
and capacity-proxy differences from either shared fixed parameters (hard
checks) or independent maximizations (consistent-with checks, since the
maximizers certify lower bounds only and cannot witness a violation).
Each quantity has one kernel: S(A|B) is entropic._conditional_entropy,
every Holevo value entropic._holevo on Kraus images, and the private term
of a pure-state ensemble is the coherent information of its purification,
by the same kernel as the coherent term; the discontinuity trend table
takes both lower bounds from these raw kernels too. Trials draw raw
matrices or vectors from their own seeded streams and are measured as
stacks of bounded size, so a report equals that of its trial measured
alone: the Fannes and Alicki-Fannes trials in one shared state-pair loop,
in blocks of _TRIAL_BLOCK with one bound array each, and the Theorem 3
trials as Gram stacks within _STACK_ENTRIES entries. The corollary trials
go one at a time, since the kernels they use have no batch axis.
Validated state types and the seed are read only at the public boundary.

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
from functools import partial
from typing import Sequence

import numpy as np

from .capopt import max_coherent_information, max_holevo
from .channels import (
    QuantumChannel,
    _apply_on_factors,
    _kraus_images,
    erasure,
    mix,
    truncated_classical_example,
    truncated_quantum_example,
)
from .distance import diamond_distance, trace_distance
from .entropic import (
    TAU_ENT,
    _coherent_information,
    _conditional_entropy,
    _holevo,
    entropy_of_matrix,
    entropy_of_spectra,
)
from .errors import ArgumentError
from .linalg import DensityMatrix, as_index, as_real, check_choi_dim, hermitian_part
from .sampling import _haar_vector, _stream, _unit_trace_gram, _wishart, random_channel


# The weights (a, b) of a eps log2 d + b H(eps) in the Fannes and Alicki-Fannes bounds.
_FANNES, _AF = (1.0, 1.0), (4.0, 2.0)


def _entropy_bound(eps, d: int, a: float, b: float):
    """a eps log2 d + b H(eps) on a float or an array of eps, H from the [eps, 1 - eps] rows."""
    return a * eps * math.log2(d) + b * entropy_of_spectra(np.stack([eps, 1.0 - eps], axis=-1))


def fannes_bound(eps: float, d: int) -> float:
    """Entropy continuity in trace distance: eps * log d + H(eps)."""
    return _entropy_bound(as_real(eps, "eps", 0.0, 1.0), as_index(d, "d", 2), *_FANNES)


def af_bound(eps: float, d_a: int) -> float:
    """Conditional-entropy continuity: 4 eps * log d_A + 2 H(eps)."""
    return _entropy_bound(as_real(eps, "eps", 0.0, 1.0), as_index(d_a, "d_a", 2), *_AF)


def output_entropy_bound(n: int, eps: float, d_b: int) -> float:
    """n-copy output-entropy continuity: n (4 eps * log d_B + 2 H(eps))."""
    n = as_index(n, "n", 1)
    return n * _entropy_bound(as_real(eps, "eps", 0.0, 1.0), as_index(d_b, "d_b", 2), *_AF)


def capacity_difference_bounds(eps: float, d_b: int) -> dict[str, float]:
    """Single-letter capacity continuity bounds keyed by capacity kind.

    The classical and quantum bounds are 8 eps * log d_B + 4 H(eps); the
    private bound doubles that because its proof splits into four
    entropy-difference terms instead of two.
    """
    base = 2.0 * output_entropy_bound(1, eps, d_b)
    return {"classical": base, "quantum": base, "private": 2.0 * base}


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
    detail: str = ""
    hard: bool = True

    @property
    def margin(self) -> float:
        return self.bound - self.measured

    @property
    def violated(self) -> bool:
        return bool(self.hard and self.margin < -TAU_ENT)


# Trials measured as one stack. A constant block keeps a harness's memory
# independent of its trial count: the state-pair harnesses stack up to
# _TRIAL_BLOCK trials, and verify_output_entropy as many as keep one
# channel's Kraus images within _STACK_ENTRIES complex entries (at least one).
_TRIAL_BLOCK = 64
_STACK_ENTRIES = 1 << 13


def _measure_pairs(d: int, rngs: Sequence[np.random.Generator], quantity):
    """|quantity(rho) - quantity(sigma)| on random state pairs, one per stream, and eps.

    Each stream draws the Gaussians of rho and tau, as _wishart draws
    them, then lam <= 1/4; sigma = (1 - lam) rho + lam tau caps the trace
    distance at 1/2. quantity maps a (trials, d, d) stack to one value per
    state; the stacks live only inside this call. Returns the differences
    and the measured trace distances eps.
    """
    draws = [(rng.normal(size=(2, 2, d, d)), rng.random()) for rng in rngs]
    gauss, lam = (np.array(x) for x in zip(*draws))
    pairs = hermitian_part(_unit_trace_gram(gauss))
    rho, tau = pairs[:, 0], pairs[:, 1]
    lam = 0.25 * lam[:, None, None]
    sigma = hermitian_part((1.0 - lam) * rho + lam * tau)
    eps = np.sum(np.abs(np.linalg.eigvalsh(rho - sigma)), axis=-1)
    return np.abs(quantity(rho) - quantity(sigma)), eps


def _verify_state_pairs(name: str, weights, cases, trials: int, seed: int) -> list[BoundReport]:
    """The state-pair loop of verify_fannes and verify_af.

    Each case is (dims, d_b, quantity, label). Trial t of a case measures a
    pair on prod(dims) drawn from the stream of rng_for(seed, *dims, t)
    against _entropy_bound(eps, d_b, *weights), one array a stack of
    _TRIAL_BLOCK, with detail "<label>, trial t". The seed is read once.
    """
    trials, seed = as_index(trials, "trials", 0), as_index(seed, "seed", 0)
    reports = []
    for dims, d_b, quantity, label in cases:
        for start in range(0, trials, _TRIAL_BLOCK):
            block = range(start, min(start + _TRIAL_BLOCK, trials))
            rngs = [_stream(seed, dims + (t,)) for t in block]
            measured, eps = _measure_pairs(math.prod(dims), rngs, quantity)
            bounds = _entropy_bound(eps, d_b, *weights).tolist()
            for t, m, b, e in zip(block, measured.tolist(), bounds, eps.tolist()):
                reports.append(BoundReport(name, m, b, e, 1, d_b, f"{label}, trial {t}"))
    return reports


def verify_fannes(
    dims: Sequence[int] = (2, 4, 8), trials: int = 1000, seed: int = 0
) -> list[BoundReport]:
    """Entropy differences of random nearby pairs against eps log d + H(eps)."""
    dims = [as_index(d, "dims", 2) for d in dims]
    cases = [((d,), d, entropy_of_matrix, f"d {d}") for d in dims]
    return _verify_state_pairs("entropy-difference", _FANNES, cases, trials, seed)


def verify_af(
    dim_pairs: Sequence[tuple[int, int]] = tuple(
        (a, b) for a in (2, 3, 4) for b in (2, 3, 4)
    ),
    trials: int = 1000,
    seed: int = 0,
) -> list[BoundReport]:
    """Conditional-entropy differences S(A|B) against 4 eps log d_A + 2 H(eps).

    The report's d_b column carries the bound's dimension argument, which
    for this inequality is the conditioned system d_A.
    """
    dim_pairs = [(as_index(d_a, "d_a", 2), as_index(d_b, "d_b", 2)) for d_a, d_b in dim_pairs]
    cases = [((d_a, d_b), d_a, partial(_conditional_entropy, dims=(d_a, d_b), keep=[1]),
              f"d_a {d_a} x d_b {d_b}") for d_a, d_b in dim_pairs]
    return _verify_state_pairs("conditional-entropy-difference", _AF, cases, trials, seed)


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
    n = _check_pair(ch_n, ch_m, n)
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

    diffs, dists = [], []
    for k in range(1, n + 1):
        rest = [i for i in range(n + 1) if i != k]
        cond = [_conditional_entropy(s.matrix, s.dims, rest) for s in (states[k], states[k - 1])]
        diffs.append(abs(cond[0] - cond[1]))
        dists.append(trace_distance(states[k], states[k - 1]))
    return HybridSequence(tuple(states), tuple(diffs), tuple(dists))


# The largest mixing weight of random_nearby_pair's perturbation.
_NEARBY_Q_MAX = 0.3


def random_nearby_pair(
    d_in: int, d_out: int, rng: np.random.Generator
) -> tuple[QuantumChannel, QuantumChannel]:
    """Random channel and a mixture perturbation of it.

    The second channel is (1-q) N + q R for an independent random R and
    q in (0, _NEARBY_Q_MAX], which keeps the pair's diamond distance
    nontrivial but controlled; the distance itself is still measured,
    never assumed.
    """
    ch_n = random_channel(d_in, d_out, rng)
    ch_r = random_channel(d_in, d_out, rng)
    q = _NEARBY_Q_MAX * (1.0 - rng.random())
    return ch_n, mix([ch_n, ch_r], [1.0 - q, q])


def _check_pair(ch_n: QuantumChannel, ch_m: QuantumChannel, n: int) -> int:
    """The copy count n >= 1 of a channel pair with matching dimensions."""
    n = as_index(n, "n", 1)
    if (ch_n.d_in, ch_n.d_out) != (ch_m.d_in, ch_m.d_out):
        raise ArgumentError("channel pair must share input and output dimensions")
    return n


def _checked_eps(ch_n, ch_m, n: int, eps: float | None) -> tuple[int, float]:
    """_check_pair's n, then eps or the pair's certified diamond distance."""
    n = _check_pair(ch_n, ch_m, n)
    check_choi_dim(ch_n.d_in, ch_n.d_in, n)  # the reference (x) input^n state
    check_choi_dim(ch_n.d_in, ch_n.d_out, n)  # the reference (x) output^n state
    if eps is not None:
        return n, as_real(eps, "eps", 0.0, 1.0)
    result = diamond_distance(ch_n, ch_m)
    if not result.certified():
        raise ArgumentError(
            f"diamond distance not certified (status {result.status})"
        )
    value = result.value
    if 1.0 < value <= 1.0 + 1e-5:
        # A certified upper bound (from the SDP, or the fixed point up to its
        # rounding) may overshoot the formula domain by the solver
        # tolerance while the true distance sits within it.
        value = 1.0
    elif value > 1.0:
        raise ArgumentError(
            f"the pair's certified diamond distance {value!r} is above 1, "
            "the end of the bounds' domain"
        )
    return n, value


def _pure_output_entropy(ch: QuantumChannel, v: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Output entropies of ch on every factor but the first of a stack of pure states.

    v is a (trials, prod(dims)) stack. Each output is Y Y^dag for
    Y = _kraus_images; the environment's state Y^dag Y has the same nonzero
    spectrum and is decomposed instead. It is never the larger of the two:
    Y has at most (d_in d_out)^n columns, and with a reference of dimension
    d_in^n that is its row count.
    """
    y = _kraus_images(ch.kraus, v, dims)
    return entropy_of_matrix(y.conj().swapaxes(-1, -2) @ y)


def verify_output_entropy(
    ch_n: QuantumChannel,
    ch_m: QuantumChannel,
    n: int = 1,
    trials: int = 50,
    seed: int = 0,
    eps: float | None = None,
) -> list[BoundReport]:
    """Measure n-copy output-entropy differences against the bound.

    For each trial a Haar-random pure state on reference (x) input^n, drawn
    as haar_state draws it from rng_for(seed, t), is pushed through both
    n-copy extensions; the entropy difference of the two outputs is
    compared with output_entropy_bound(n, eps, d_out). eps defaults to the
    certified diamond distance of the pair: the fixed point of
    `distance.diamond_norm` (closed form for covariant pairs), or the SDP
    when that hands over.

    Each entropy comes from a Gram matrix; |v><v| is never formed. For a
    pure input |v>, the output is Y Y^dag, where Y's columns are the images
    of |v> under the r^n Kraus products of the n-copy channel. Since the
    state on reference, output and environment is pure, S(RB^n) = S(E^n),
    and the environment's state is the Gram matrix Y^dag Y, whose entropy
    is taken. A channel's family is stored in Choi-rank form, r <= d_in d_out,
    so the r^n-square Gram is never larger than the (d_ref d_out^n)-square output.
    The trials are measured as stacks, each holding as many trials as keep
    one channel's Kraus images within _STACK_ENTRIES entries, and every
    trial's report equals that of the trial measured alone.
    """
    trials, seed = as_index(trials, "trials", 0), as_index(seed, "seed", 0)
    n, eps = _checked_eps(ch_n, ch_m, n, eps)
    d_in, d_out = ch_n.d_in, ch_n.d_out
    bound = output_entropy_bound(n, eps, d_out)
    d_ref = d_in**n
    dims = (d_ref,) + (d_in,) * n
    r = max(len(ch_n.kraus), len(ch_m.kraus))
    step = max(1, _STACK_ENTRIES // (d_ref * (d_out * r) ** n))
    measured = []
    for start in range(0, trials, step):
        block = range(start, min(start + step, trials))
        v = np.array([_haar_vector(d_ref * d_in**n, _stream(seed, (t,))) for t in block])
        s_n, s_m = (_pure_output_entropy(ch, v, dims) for ch in (ch_n, ch_m))
        measured += np.abs(s_n - s_m).tolist()
    return [
        BoundReport("output-entropy", m, bound, eps, n, d_out, f"trial {t}")
        for t, m in enumerate(measured)
    ]


# Fixed parameters of verify_capacity_differences: the size of each trial's
# shared random ensemble, which is also the reference dimension of its
# purification, and of the optimized Holevo ensembles; and the restarts and
# iteration cap of each optimized comparison.
_ENSEMBLE_SIZE = 2
_RESTARTS = 4
_ITERS = 400


def _random_ensemble(d: int, size: int, rng: np.random.Generator):
    """Raw pure-state ensemble: its (size,) probabilities and (size, d) blocks sqrt(p_x) psi_x.

    Read as one vector, the blocks are the purification
    phi = sum_x sqrt(p_x) |x> |psi_x> on X (x) A.
    """
    probs = rng.dirichlet(np.ones(size))
    vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in probs]
    vecs = np.array([v / np.linalg.norm(v) for v in vecs])
    return probs, np.sqrt(probs)[:, None] * vecs


def verify_capacity_differences(
    ch_n: QuantumChannel,
    ch_m: QuantumChannel,
    n: int = 1,
    trials: int = 10,
    seed: int = 0,
    eps: float | None = None,
    optimized: bool = False,
) -> list[BoundReport]:
    """Capacity-proxy differences of a channel pair against their bounds.

    Hard checks fix shared parameters: for each trial the same random
    ensemble (or input state) is evaluated through both n-copy channels
    and the difference is compared with 2n (4 eps log d_B + 2 H(eps)). A
    pure state's output and environment have equal entropies, so
    I(X;B) - I(X;E) of a pure-state ensemble is the coherent information of
    its purification sum_x sqrt(p_x) |x> |psi_x> (Devetak 2005). The private
    term is measured so, and is held to the coherent term's bound, which
    such a difference obeys; the paper's four-term private bound, twice
    that, is only needed for mixed-state ensembles, which are not drawn
    here. Every term applies the single-copy family to each input factor
    in turn, never forming the r^n-operator power: the coherent and private
    terms on square inputs, and the Holevo term on the Kraus images of the
    ensemble's blocks sqrt(p_x) psi_x, one state at a time (entropic._holevo).
    Trial t draws from the stream of rng_for(seed, t). With optimized,
    independently maximized single-letter Holevo and coherent proxies (the
    latter is the private proxy too, see capopt.max_private) are compared
    with the n = 1 corollary bounds as consistent-with reports. eps
    defaults to the certified diamond distance of the pair, as in
    verify_output_entropy.
    """
    trials, seed = as_index(trials, "trials", 0), as_index(seed, "seed", 0)
    n, eps = _checked_eps(ch_n, ch_m, n, eps)
    d_inn, d_out = ch_n.d_in**n, ch_n.d_out
    step = output_entropy_bound(n, eps, d_out)
    hol_dims, coh_dims, priv_dims = ((d,) + (ch_n.d_in,) * n for d in (1, d_inn, _ENSEMBLE_SIZE))
    reports = []
    for t in range(trials):
        rng = _stream(seed, (t,))
        probs, blocks = _random_ensemble(d_inn, _ENSEMBLE_SIZE, rng)
        phi = np.outer(blocks.reshape(-1), blocks.reshape(-1).conj())
        rho = hermitian_part(_wishart(d_inn * d_inn, d_inn * d_inn, rng))
        chi = [_holevo(ch.kraus, probs, blocks, hol_dims) for ch in (ch_n, ch_m)]
        coh = [_coherent_information(ch.kraus, rho, coh_dims) for ch in (ch_n, ch_m)]
        priv = [_coherent_information(ch.kraus, phi, priv_dims) for ch in (ch_n, ch_m)]
        for name, (a, b), detail in (
            ("holevo-term", chi, f"trial {t}"),
            ("coherent-term", coh, f"trial {t}"),
            ("private-term", priv, f"trial {t}: coherent information of the purification, "
             "held to the coherent-term bound"),
        ):
            reports.append(BoundReport(name, float(abs(a - b)), 2.0 * step, eps, n, d_out, detail))

    if optimized:
        bounds = capacity_difference_bounds(eps, d_out)
        args = (_RESTARTS, _ITERS, seed)
        holevo = [max_holevo(ch, _ENSEMBLE_SIZE, *args).best_value for ch in (ch_n, ch_m)]
        coherent = [max_coherent_information(ch, *args).best_value for ch in (ch_n, ch_m)]
        detail = "consistent-with: maximizers certify lower bounds only"
        for kind, (a, b) in (("classical", holevo), ("quantum", coherent)):
            reports.append(BoundReport(
                f"optimized-{kind}-gap", abs(a - b), bounds[kind], eps, 1, d_out, detail, hard=False
            ))
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
    Every member is checked before any row is computed.
    """
    n_values = [as_index(n, "n_values", 2) for n in n_values]
    for n in n_values:
        check_choi_dim(n, n + 1)  # the n -> n + 1 truncation channels
    rows = []
    for n in n_values:
        ch_ref = erasure(n, 1.0)
        ch_trunc = truncated_classical_example(n)
        result = diamond_distance(ch_ref, ch_trunc)
        if not result.certified():
            raise ArgumentError(f"diamond distance not certified for n={n}")
        eps = result.value
        # The uniform codeword ensemble: blocks sqrt(1/n) |x>, no reference.
        probs = np.full(n, 1.0 / n)
        classical_lb = _holevo(ch_trunc.kraus, probs, np.diag(np.sqrt(probs)), (1, n))
        quantum = truncated_quantum_example(n).kraus
        bell = (np.eye(n).reshape(-1) / math.sqrt(n)).astype(complex)
        bell /= np.linalg.norm(bell)  # as DensityMatrix.from_pure normalizes it
        quantum_lb = _coherent_information(quantum, np.outer(bell, bell.conj()), (n, n))
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
