"""Tests for the capacity-proxy maximizers.

Oracles come first and are independent of the implementation: closed-form
output spectra for erasure channels, a relabeling symmetry for the
self-complementary point, and direct entropic re-evaluation of returned
maximizers.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from capcont.capopt import (
    OptimizationReport,
    STALL_GRAD_TOL,
    TAU_OPT,
    _ascend,
    _rows,
    max_coherent_information,
    max_holevo,
    max_private,
    n_copy_coherent_information,
    n_copy_holevo,
    n_copy_private,
)
from capcont.channels import (
    QuantumChannel,
    _apply_full,
    apply,
    complementary,
    constant_channel,
    dephasing,
    depolarizing,
    erasure,
    identity,
    tensor_power,
    truncated_classical_example,
)
from capcont.entropic import (
    Ensemble,
    _ensemble_outputs,
    coherent_information,
    entropy_of_spectra,
    holevo_information,
    private_information,
)
from capcont.errors import ArgumentError, DimensionError
from capcont.linalg import DensityMatrix, dagger, partial_trace_matrix
from capcont.sampling import random_channel, random_density_matrix, random_unitary, rng_for


def _shannon(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def _erasure_coherent_oracle(p):
    # Spectra at the maximally mixed input: the output keeps each basis
    # state with weight (1-p)/2 and gains the flag with weight p; the
    # environment is the same channel with p and 1-p exchanged.
    out = [(1 - p) / 2, (1 - p) / 2, p]
    env = [p / 2, p / 2, 1 - p]
    return _shannon(out) - _shannon(env)


def _erasure_holevo_oracle(p, d):
    # Uniform basis ensemble: the average output has spectrum
    # {(1-p)/d, ..., p} and each conditional output {1-p, p}.
    avg = [(1 - p) / d] * d + [p]
    cond = [1 - p, p]
    return _shannon(avg) - _shannon(cond)


def test_coherent_identity_is_log_d():
    rep = max_coherent_information(identity(2), restarts=4, seed=7)
    assert abs(rep.best_value - 1.0) <= 1e-6
    assert rep.restarts == 4 and len(rep.iterations) == 4
    # The returned maximizer reproduces the reported value.
    reeval = coherent_information(identity(2), rep.argmax.density())
    assert abs(reeval - rep.best_value) <= 1e-7


def test_coherent_erasure_against_spectrum_oracle():
    oracle = _erasure_coherent_oracle(0.25)
    assert abs(oracle - 0.5) <= 1e-12
    rep = max_coherent_information(erasure(2, 0.25), restarts=4, seed=7)
    assert abs(rep.best_value - oracle) <= 1e-3
    assert abs(rep.best_value - oracle) <= 1e-6  # concave objective: exact hit


def test_coherent_erasure_half_vanishes():
    rep = max_coherent_information(erasure(2, 0.5), restarts=4, seed=7)
    assert abs(rep.best_value) <= 1e-6


def test_holevo_identity_two_states():
    rep = max_holevo(identity(2), 2, restarts=4, seed=7)
    assert abs(rep.best_value - 1.0) <= 1e-6
    reeval = holevo_information(identity(2), rep.argmax)
    assert abs(reeval - rep.best_value) <= 1e-7


def test_holevo_constant_is_zero():
    rep = max_holevo(constant_channel(2), 2, restarts=2, seed=7)
    assert abs(rep.best_value) <= 1e-9


def test_codeword_ensemble_value():
    # Uniform basis codewords through the high-truncation mixture: the
    # surviving fraction of log d exactly cancels the truncation weight.
    ch = truncated_classical_example(8)
    w = 1.0 / math.log2(8)
    oracle = _erasure_holevo_oracle(1.0 - w, 8)
    assert abs(oracle - 1.0) <= 1e-12
    value = holevo_information(ch, Ensemble.uniform_basis(8))
    assert abs(value - 1.0) <= 1e-9


def test_private_erasure_half_symmetry():
    # Oracle: at the symmetric point the environment output is a relabeled
    # copy of the channel output, so every spectral quantity coincides and
    # the private information vanishes identically.
    ch = erasure(2, 0.5)
    chc = complementary(ch)
    rng = rng_for(11)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        a = np.sort(np.linalg.eigvalsh(apply(ch, rho).matrix))
        b = np.sort(np.linalg.eigvalsh(apply(chc, rho).matrix))
        assert np.allclose(a, b, atol=1e-12)
    rep = max_private(ch, restarts=2, seed=7)
    assert abs(rep.best_value) <= 1e-9


def test_private_erasure_quarter_sandwich():
    coh = max_coherent_information(erasure(2, 0.25), restarts=4, seed=7)
    priv = max_private(erasure(2, 0.25), restarts=4, seed=7)
    hol = max_holevo(erasure(2, 0.25), 2, restarts=4, seed=7)
    assert priv.best_value >= 0.5 - TAU_OPT
    assert coh.best_value <= priv.best_value + TAU_OPT
    assert priv.best_value <= hol.best_value + TAU_OPT
    assert abs(hol.best_value - _erasure_holevo_oracle(0.25, 2)) <= TAU_OPT
    reeval = private_information(erasure(2, 0.25), priv.argmax)
    assert abs(reeval - priv.best_value) <= 1e-7


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "ch",
    [erasure(2, 0.25), dephasing(0.2), random_channel(2, 3, rng_for(47)),
     random_channel(3, 2, rng_for(53), kraus_count=4)],
    ids=["erasure", "dephasing", "random23", "random32"],
)
def test_private_is_the_coherent_ascent(ch, seed):
    # Over pure-state ensembles I(X;B) - I(X;E) = I_c(rho) at their average
    # rho, so max_private runs the purification ascent: the same report,
    # bit for bit, with the winner's spectral ensemble as its maximizer.
    coh = max_coherent_information(ch, restarts=3, iters=200, seed=seed)
    priv = max_private(ch, restarts=3, iters=200, seed=seed)
    assert priv.best_value == coh.best_value
    assert priv.iterations == coh.iterations
    assert priv.stop_reasons == coh.stop_reasons
    assert priv.converged == coh.converged
    assert abs(private_information(ch, priv.argmax) - priv.best_value) <= 1e-12
    avg = sum(p * state.matrix for p, state in priv.argmax.items)
    marginal = partial_trace_matrix(coh.argmax.density().matrix, (ch.d_in, ch.d_in), keep=[1])
    assert np.allclose(avg, marginal, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "run, name",
    [
        (lambda ch: max_coherent_information(ch, restarts=True, iters=5), "restarts"),
        (lambda ch: max_coherent_information(ch, restarts=2.5, iters=5), "restarts"),
        (lambda ch: max_coherent_information(ch, restarts="3", iters=5), "restarts"),
        (lambda ch: max_coherent_information(ch, restarts=2, iters=2.5), "iters"),
        (lambda ch: max_private(ch, restarts=2.0, iters=5), "restarts"),
        (lambda ch: max_holevo(ch, 2.5, restarts=2, iters=5), "ensemble_size"),
        (lambda ch: max_holevo(ch, 2, restarts=2, iters=False), "iters"),
        (lambda ch: n_copy_coherent_information(ch, 1, restarts=1, iters=5, seed=1.5), "seed"),
    ],
    ids=["restarts-true", "restarts-2.5", "restarts-str", "iters-2.5", "private-restarts-2.0",
         "ensemble-size-2.5", "iters-false", "seed-1.5"],
)
def test_non_integral_capacity_counts_are_refused(run, name):
    # int() would run one restart for True; range() and the stack check would raise
    # a raw TypeError for 2.5 and "3".
    with pytest.raises(ArgumentError, match=f"^{name} must be an integer, got "):
        run(erasure(2, 0.25))


def test_n_copy_reduces_and_matches_single_letter():
    single = max_coherent_information(erasure(2, 0.25), restarts=4, seed=7)
    one = n_copy_coherent_information(erasure(2, 0.25), 1, restarts=4, seed=7)
    assert one.best_value == single.best_value
    two = n_copy_coherent_information(identity(2), 2, restarts=4, seed=7)
    assert abs(two.best_value - 1.0) <= 1e-6
    # Degradable channel: the per-copy value stays at the single-letter
    # closed form.
    pair = n_copy_coherent_information(erasure(2, 0.25), 2, restarts=4, seed=7)
    assert abs(pair.best_value - _erasure_coherent_oracle(0.25)) <= TAU_OPT


def test_n_copy_dimension_overflow():
    with pytest.raises(DimensionError):
        n_copy_coherent_information(erasure(8, 0.5), 4, restarts=1, iters=1)


def test_ensemble_size_validation():
    with pytest.raises(ArgumentError):
        max_holevo(identity(2), 1, restarts=1, iters=1)


@pytest.mark.parametrize(
    "run",
    [
        lambda: max_holevo(identity(2), 10**7, restarts=1, iters=1),
        lambda: max_coherent_information(identity(2), restarts=10**7, iters=1),
    ],
    ids=["ensemble-size", "restarts"],
)
def test_oversized_restart_stacks_are_refused_before_drawing(run):
    # 10^7 x 1 x 2^2 entries exceed D_MAX^2; drawing the starts would take gigabytes.
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="exceed D_MAX"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


def test_coherent_restarts_count_the_purification_stack(monkeypatch):
    # Each restart forms a (d^2)-square outer product of its purification:
    # at D_MAX = 16, 4 restarts of 9 x 9 exceed 16^2 entries while the
    # input, output and environment dimensions alone would pass.
    monkeypatch.setattr("capcont.capopt.D_MAX", 16)
    with pytest.raises(DimensionError, match="4 x 1 stacks of 9 x 9 exceed D_MAX"):
        max_coherent_information(identity(3), restarts=4, iters=1)


def test_seeded_determinism():
    a = max_coherent_information(erasure(2, 0.3), restarts=3, seed=5)
    b = max_coherent_information(erasure(2, 0.3), restarts=3, seed=5)
    assert a.best_value == b.best_value
    assert a.iterations == b.iterations
    assert np.array_equal(a.argmax.vector, b.argmax.vector)
    c = max_holevo(erasure(2, 0.3), 2, restarts=2, seed=5)
    d = max_holevo(erasure(2, 0.3), 2, restarts=2, seed=5)
    assert c.best_value == d.best_value
    for (pc, sc), (pd, sd) in zip(c.argmax.items, d.argmax.items):
        assert pc == pd and np.array_equal(sc.matrix, sd.matrix)


def test_random_channels_range_and_reproducibility():
    rng = rng_for(23)
    for d_in, d_out in [(2, 2), (2, 3), (3, 2)]:
        ch = random_channel(d_in, d_out, rng)
        rep = max_coherent_information(ch, restarts=2, iters=400, seed=3)
        assert rep.best_value <= min(math.log2(d_in), math.log2(d_out)) + 1e-9
        assert rep.best_value >= -math.log2(len(complementary(ch).kraus)) - 1e-9
        reeval = coherent_information(ch, rep.argmax.density())
        assert abs(reeval - rep.best_value) <= 1e-7
        hol = max_holevo(ch, 2, restarts=2, iters=400, seed=3)
        assert -1e-9 <= hol.best_value <= min(math.log2(d_out), 1.0) + 1e-9
        assert abs(holevo_information(ch, hol.argmax) - hol.best_value) <= 1e-7


def test_adjoint_stack_satisfies_the_duality():
    # Tr[X N(rho)] = Tr[N^dag(X) rho] for the adjoint stack the ascent
    # gradients use, on a channel and on its complementary channel
    rng = rng_for(37)
    for chan in (random_channel(3, 2, rng, kraus_count=5), complementary(erasure(2, 0.3))):
        rho = random_density_matrix(chan.d_in, rng).matrix
        g = rng.normal(size=(chan.d_out,) * 2) + 1j * rng.normal(size=(chan.d_out,) * 2)
        x = g + g.conj().T
        lhs = np.trace(x @ _apply_full(chan.kraus, rho))
        rhs = np.trace(_apply_full(dagger(chan.kraus), x) @ rho)
        assert abs(lhs - rhs) < 1e-12


def test_unitary_precomposition_leaves_value():
    base = erasure(2, 0.3)
    rng = rng_for(31)
    u = random_unitary(2, rng)
    rotated = QuantumChannel([k @ u for k in base.kraus])
    a = max_coherent_information(base, restarts=4, seed=7)
    b = max_coherent_information(rotated, restarts=4, seed=7)
    assert abs(a.best_value - b.best_value) <= TAU_OPT


# ------------------------------------------------ stop tests


def test_readme_example_converges_in_few_iterations():
    rep = max_coherent_information(erasure(2, 0.25))
    assert abs(rep.best_value - 0.5) <= 1e-12
    assert rep.converged
    assert sum(rep.iterations) < 1000
    assert len(rep.stop_reasons) == rep.restarts


def test_zero_capacity_restarts_stop_before_the_cap():
    # f is about 0 at the optimum, where the stall test's absolute floor
    # of 1 applies.
    rep = max_coherent_information(depolarizing(2, 0.3), restarts=4, iters=400)
    assert "iteration-cap" not in rep.stop_reasons
    assert max(rep.iterations) < 400


def _h2(p):
    return _shannon([p, 1 - p])


# The capacity benchmark's cases: (kind, channel, n, closed-form per-copy value).
_CLOSED_FORMS = [
    pytest.param(kind, ch, n, value, id=f"{kind}-{name}-n{n}")
    for kind, name, ch, n, value in (
        ("coherent", "erasure2", erasure(2, 0.25), 1, 0.5),
        ("coherent", "erasure2", erasure(2, 0.25), 2, 0.5),
        ("private", "erasure2", erasure(2, 0.25), 1, 0.5),
        ("coherent", "erasure3", erasure(3, 0.2), 1, 0.6 * math.log2(3)),
        ("coherent", "dephasing", dephasing(0.2), 1, 1.0 - _h2(0.2)),
        ("private", "dephasing", dephasing(0.2), 1, 1.0 - _h2(0.2)),
        ("holevo", "dephasing", dephasing(0.2), 2, 1.0),
        ("holevo", "depolarizing", depolarizing(2, 0.2), 1, 1.0 - _h2(0.1)),
    )
]


def _n_copy(kind, ch, n, seed):
    # The benchmark's settings: 4 restarts, 400 iterations, d_in^2 Holevo states.
    if kind == "holevo":
        return n_copy_holevo(ch, n, ch.d_in**2, restarts=4, iters=400, seed=seed)
    runner = n_copy_private if kind == "private" else n_copy_coherent_information
    return runner(ch, n, restarts=4, iters=400, seed=seed)


@pytest.mark.parametrize("kind, ch, n, value", _CLOSED_FORMS)
def test_stall_rule_does_not_stop_short(kind, ch, n, value):
    rep = _n_copy(kind, ch, n, seed=0)
    assert abs(rep.best_value - value) <= 1e-14
    assert rep.converged
    # L-BFGS steps: gradient steps took 214 iterations on the holevo case
    # and stalled 1.1e-14 below its closed form.
    assert max(rep.iterations) <= 100


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kind, ch, n, value", _CLOSED_FORMS)
def test_capacity_cases_converge_at_every_op_seed(kind, ch, n, value, seed):
    rep = _n_copy(kind, ch, n, seed=seed)
    assert rep.converged
    assert abs(rep.best_value - value) <= 1e-12


def test_stall_converges_only_below_the_gradient_threshold():
    # A linear objective along a reported gradient of norm s: every step
    # of length t raises f by 2e-10 * t * s, which passes the Armijo test
    # at t = 1 and is below the rounding floor of f ~ 0.
    def stop(s):
        def evaluate(params):
            value = 2e-10 * (params[0][:, 0, 0] - params[0][:, 0, 1])
            return value, [np.broadcast_to([0.0, -s], params[0].shape)]

        _, _, used, reasons, conv = _ascend(evaluate, [np.zeros((1, 1, 2))], 50)
        return int(used[0]), reasons[0], bool(conv[0])

    assert STALL_GRAD_TOL == 1e-6
    assert stop(0.5 * STALL_GRAD_TOL) == (1, "stalled", True)
    assert stop(1.5 * STALL_GRAD_TOL) == (1, "stalled", False)


def _scripted_ascent(grads, start, iters):
    # One restart whose every step passes the Armijo test at t = 1 and
    # never stalls: the value rises by 1 per evaluation. The evaluations
    # return the scripted gradients in turn, then a zero gradient at the
    # point after the last step, which no step reads. Returns the points
    # evaluated: the start, then the point after each step.
    seen = []
    script = iter([*grads, np.zeros_like(start)])

    def evaluate(params):
        seen.append(params[0][0, 0].copy())
        grad = np.asarray(next(script), dtype=params[0].dtype).reshape(params[0].shape)
        return np.array([float(len(seen))]), [grad]

    _ascend(evaluate, [np.asarray(start).reshape(1, 1, -1)], iters)
    return seen


def test_a_pair_without_positive_curvature_is_not_stored():
    # Logits [0, -10, -10] keep their maximum at index 0, so every step
    # x + p is exact. Step 1 takes g1; step 2 takes H g2 = s1, from the
    # pair s1 = [0, 1, 0], y1 = g1 - g2 = [0, .5, 0]. The next pair has
    # s2 . y2 = [0, 1, 0] . [0, -.1, -1] < 0, so step 3 is H g3 from the
    # first pair alone. Had the second pair been stored, the two-loop
    # direction would descend and step 3 would fall back to g3.
    seen = _scripted_ascent([[0, 1, 0], [0, 0.5, 0], [0, 0.6, 1]], [0.0, -10, -10], 3)
    steps = np.diff(seen, axis=0)
    assert np.allclose(steps, [[0, 1, 0], [0, 1, 0], [0, 1.2, 2]], rtol=0, atol=1e-14)


def test_a_non_ascent_direction_falls_back_to_the_gradient():
    # On a sphere piece of C^2: g1 and g2 are tangent and store the pair
    # (s1, y1) at x2. g3 has a large normal component, along which the
    # projected two-loop direction P H g3 descends (<g3, P H g3> < 0), so
    # step 3 takes g3 itself and drops the pair. g4 = P g3 + s3 makes
    # s3 . y3 < 0, so step 4 has no pair either and takes g4.
    def tangent(x, v):
        return v - np.vdot(x, v).real * x

    def unit(v):
        return v / np.linalg.norm(v)

    x1 = np.array([1, 0], dtype=complex)
    g1, g2 = np.array([0, 1], dtype=complex), np.array([-0.25, 0.25 + 0.5j])
    x3 = _scripted_ascent([g1, g2], x1, 2)[2]
    g3 = 0.1 * unit(tangent(x3, np.array([0, 1j]))) - 4.0 * x3
    x4 = _scripted_ascent([g1, g2, g3], x1, 3)[3]
    assert np.allclose(x4, unit(x3 + g3), rtol=0, atol=1e-15)
    g4 = tangent(x4, g3) + tangent(x4, x4 - x3)
    x5 = _scripted_ascent([g1, g2, g3, g4], x1, 4)[4]
    assert np.allclose(x5, unit(x4 + g4), rtol=0, atol=1e-15)


# ------------------------------------------------ sequential reference
#
# The maximizers run every restart in lockstep on one batch axis. The
# reference below runs one restart at a time, on 2-D matrices and one
# state at a time. The batched report must equal it bit for bit: same
# values, iteration counts, stop reasons, flags and maximizers.


def _ref_entropy(mat):
    # From the spectrum of the eigh that also gives the matrix's -log2.
    return entropy_of_spectra(np.linalg.eigh(mat)[0])


def _ref_neg_log2(w, u):
    w = np.clip(w, 1e-10, None)
    return (u * (-np.log2(w))) @ u.conj().T


def _ref_inner(x, y):
    # Re <x, y> as the dot product of the real views, the ascent's reduction.
    return float(np.einsum("i,i->", x.reshape(-1).view(np.float64), y.reshape(-1).view(np.float64)))


def _ref_dot(a, b):
    # Over all blocks at once: their real views, concatenated in block order.
    def flat(blocks):
        return np.concatenate([x.view(np.float64) for x in blocks])

    return _ref_inner(flat(a), flat(b))


def _ref_renorm(params, piece):
    # piece: the length of each unit vector of a complex block.
    out = []
    for p, n in zip(params, piece):
        if np.iscomplexobj(p):
            out.append(np.concatenate([u / np.sqrt(_ref_inner(u, u)) for u in p.reshape(-1, n)]))
        else:
            out.append(p - np.max(p))
    return out


def _ref_tangent(x, v, piece):
    out = []
    for p, w, n in zip(x, v, piece):
        if np.iscomplexobj(p):
            w = np.concatenate([
                wk - _ref_inner(uk, wk) * uk
                for uk, wk in zip(p.reshape(-1, n), w.reshape(-1, n))
            ])
        out.append(w)
    return out


def _ref_ascend(value_of, grad_of, params, iters, piece):
    # L-BFGS (Nocedal and Wright, Algorithm 7.4) with at most 8 pairs, on
    # the sphere pieces' tangent spaces; Armijo backtracking from t = 1.
    params = _ref_renorm(params, piece)
    f = value_of(params)
    pairs, gamma, prev = [], None, None
    used = 0
    reason = "iteration-cap"
    for used in range(1, iters + 1):
        g = grad_of(params)
        gsq = _ref_dot(g, g)
        gnorm = math.sqrt(gsq)
        if gnorm < 1e-8:
            reason = "gradient"
            break
        if prev is not None:
            s = _ref_tangent(params, [a - b for a, b in zip(params, prev[0])], piece)
            y = _ref_tangent(params, [a - b for a, b in zip(prev[1], g)], piece)
            sy, yy = _ref_dot(s, y), _ref_dot(y, y)
            if sy > 1e-10 * math.sqrt(_ref_dot(s, s) * yy):
                pairs = (pairs + [(s, y, 1.0 / sy)])[-8:]
                gamma = sy / yy
        p, slope = g, gsq
        if pairs:
            q, alphas = g, []
            for s, y, rho in reversed(pairs):
                alphas.insert(0, rho * _ref_dot(s, q))
                q = [qi - alphas[0] * yi for qi, yi in zip(q, y)]
            r = [gamma * qi for qi in q]
            for (s, y, rho), alpha in zip(pairs, alphas):
                beta = rho * _ref_dot(y, r)
                r = [ri + (alpha - beta) * si for ri, si in zip(r, s)]
            r = _ref_tangent(params, r, piece)
            if _ref_dot(g, r) > 0:
                p, slope = r, _ref_dot(g, r)
            else:
                pairs = []
        t = 1.0
        f_old = f
        improved = False
        while t > 1e-14:
            cand = _ref_renorm([x + t * pi for x, pi in zip(params, p)], piece)
            fc = value_of(cand)
            if fc >= f + 1e-4 * t * slope:
                prev = (params, g)
                params, f, improved = cand, fc, True
                break
            t *= 0.5
        if not improved:
            reason = "line-search"
            break
        if f - f_old <= 4e-16 * max(abs(f_old), 1.0):
            reason = "stalled"
            break
    converged = reason == "gradient" or (reason == "stalled" and gnorm < 1e-6)
    return params, f, used, reason, converged


def _ref_run_restarts(value_of, grad_of, init_of, restarts, iters, piece):
    best_params, best_f, best_conv = None, -np.inf, False
    counts, reasons = [], []
    for r in range(restarts):
        params, f, used, reason, conv = _ref_ascend(value_of, grad_of, init_of(r), iters, piece)
        counts.append(used)
        reasons.append(reason)
        if f > best_f:
            best_params, best_f, best_conv = params, f, conv
    return best_params, best_f, tuple(counts), tuple(reasons), best_conv


def _ref_coherent(ch, restarts, iters, seed):
    d = ch.d_in
    kb, ke = ch.kraus, complementary(ch).kraus
    kb_adj, ke_adj = dagger(kb), dagger(ke)

    def rho_of(v):
        return partial_trace_matrix(np.outer(v, v.conj()), (d, d), keep=[1])

    def value_of(params):
        rho = rho_of(params[0])
        return _ref_entropy(_apply_full(kb, rho)) - _ref_entropy(_apply_full(ke, rho))

    def grad_of(params):
        v = params[0]
        rho = rho_of(v)
        g_rho = _apply_full(kb_adj, _ref_neg_log2(*np.linalg.eigh(_apply_full(kb, rho))))
        g_rho -= _apply_full(ke_adj, _ref_neg_log2(*np.linalg.eigh(_apply_full(ke, rho))))
        hv = (v.reshape(d, d) @ g_rho.T).reshape(-1)
        hv -= _ref_inner(v, hv) * v
        return [2.0 * hv]

    def init_of(r):
        rng = rng_for(seed, r)
        return [rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)]

    params, f, counts, reasons, conv = _ref_run_restarts(
        value_of, grad_of, init_of, restarts, iters, [d * d]
    )
    return f, counts, reasons, conv, params[0]


def _ref_holevo(ch, m, restarts, iters, seed):
    d = ch.d_in
    kraus, adjoint = ch.kraus, dagger(ch.kraus)

    # params: the logits and the m states, one after another
    def unpack(params):
        probs = np.exp(params[0])
        probs /= probs.sum()
        return probs, params[1].reshape(m, d)

    def outputs(probs, states):
        outs = [_apply_full(kraus, np.outer(u, u.conj())) for u in states]
        return outs, sum(p * o for p, o in zip(probs, outs))

    def value_of(params):
        probs, states = unpack(params)
        outs, avg = outputs(probs, states)
        return _ref_entropy(avg) - sum(p * _ref_entropy(o) for p, o in zip(probs, outs))

    def grad_of(params):
        probs, states = unpack(params)
        g_states, g_probs = [], np.zeros(m)
        outs, avg = outputs(probs, states)
        l_avg = _ref_neg_log2(*np.linalg.eigh(avg))
        for k, (u, out) in enumerate(zip(states, outs)):
            # One eigh of each output serves its -log2 and its entropy.
            w_out, u_out = np.linalg.eigh(out)
            g = probs[k] * (_apply_full(adjoint, l_avg - _ref_neg_log2(w_out, u_out)) @ u)
            g_states.append(2.0 * (g - _ref_inner(u, g) * u))
            g_probs[k] = _ref_inner(out, l_avg) - entropy_of_spectra(w_out)
        g_z = probs * (g_probs - _ref_inner(probs, g_probs))
        return [g_z, np.concatenate(g_states)]

    def init_of(r):
        rng = rng_for(seed, r)
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m)]
        return [rng.standard_normal(m) * 0.1, np.concatenate(vecs)]

    params, f, counts, reasons, conv = _ref_run_restarts(
        value_of, grad_of, init_of, restarts, iters, [None, d]
    )
    probs, states = unpack(params)
    return f, counts, reasons, conv, probs, states


def _lockstep_cases():
    rng = rng_for(41)
    named = {
        "erasure": erasure(2, 0.25),
        "dephasing": dephasing(0.2),
        "depolarizing": depolarizing(2, 0.2),
        "random23": random_channel(2, 3, rng, kraus_count=3),
    }
    cases = []
    for name, ch in named.items():
        for seed in (0, 5):
            for kind, iters in (("coherent", 30), ("holevo", 25), ("private", 25)):
                cases.append(pytest.param(kind, ch, seed, 3, iters, id=f"{kind}-{name}-seed{seed}"))
    # Spectra of length 9, the row-by-row entropy sum.
    square = tensor_power(erasure(2, 0.25), 2)
    cases.append(pytest.param("coherent", square, 0, 2, 40, id="coherent-erasure^2-seed0"))
    return cases


@pytest.mark.parametrize("length", [*range(1, 41), 64, 81, 256])
def test_row_reduction_is_batch_invariant(length):
    # Lockstep rests on this: each row of the batched Re <a[i], b[i]> is
    # the row reduced alone, for any batch size and for the fancy-indexed
    # row subsets the ascent passes, and equals the reference's reduction.
    rng = rng_for(43, length)
    for count in range(1, 17):
        a, b = (
            rng.standard_normal((count, length)) + 1j * rng.standard_normal((count, length))
            for _ in range(2)
        )
        full = _rows(a, b)
        for i in range(count):
            assert full[i] == _rows(a[i : i + 1], b[i : i + 1])[0] == _ref_inner(a[i], b[i])
        subset = np.sort(rng.choice(count, size=(count + 1) // 2, replace=False))
        assert np.array_equal(_rows(a[subset], b[subset]), full[subset])
        real = a.real.copy()
        assert np.array_equal(_rows(real[subset], real[subset]), _rows(real, real)[subset])


@pytest.mark.parametrize("kind, ch, seed, restarts, iters", _lockstep_cases())
def test_lockstep_ascent_matches_sequential_reference(kind, ch, seed, restarts, iters):
    if kind == "coherent":
        rep = max_coherent_information(ch, restarts=restarts, iters=iters, seed=seed)
        f, counts, reasons, conv, vec = _ref_coherent(ch, restarts, iters, seed)
        assert np.array_equal(rep.argmax.vector, vec)
    elif kind == "private":
        # The purification ascent, reported as the winner's spectral ensemble.
        rep = max_private(ch, restarts=restarts, iters=iters, seed=seed)
        f, counts, reasons, conv, vec = _ref_coherent(ch, restarts, iters, seed)
        d = ch.d_in
        w, u = np.linalg.eigh(partial_trace_matrix(np.outer(vec, vec.conj()), (d, d), keep=[1]))
        kept = np.flatnonzero(w > d * np.finfo(float).eps)
        assert [p for p, _ in rep.argmax.items] == [float(w[k]) for k in kept]
        for (_, got), k in zip(rep.argmax.items, kept):
            assert np.array_equal(got.matrix, DensityMatrix.from_pure(u[:, k]).matrix)
    else:
        rep = max_holevo(ch, 3, restarts=restarts, iters=iters, seed=seed)
        f, counts, reasons, conv, probs, states = _ref_holevo(ch, 3, restarts, iters, seed)
        assert [p for p, _ in rep.argmax.items] == [float(p) for p in probs]
        for (_, got), u in zip(rep.argmax.items, states):
            assert np.array_equal(got.matrix, DensityMatrix.from_pure(u).matrix)
    assert rep.best_value == f
    assert rep.iterations == counts
    assert rep.stop_reasons == reasons
    assert rep.converged == conv


def test_lockstep_reference_covers_capped_and_finished_restarts():
    # The batch must shrink mid-run: some restarts stall and leave it
    # while others run on to the iteration cap. L-BFGS stops every
    # dephasing(0.2) restart at iteration 5 to 11 (seeds 0-59), too evenly
    # for any cap to split them; these five erasure restarts stop at 7 to
    # 11 under a cap of 400.
    f, counts, reasons, conv, _ = _ref_coherent(erasure(3, 0.2), 5, 9, 11)
    assert max(counts) == 9 and min(counts) < 9
    assert reasons.count("iteration-cap") == 2 and reasons.count("stalled") == 2
    rep = max_coherent_information(erasure(3, 0.2), restarts=5, iters=9, seed=11)
    assert rep.iterations == counts and rep.stop_reasons == reasons
    assert rep.best_value == f


@pytest.mark.parametrize("runner", [max_holevo, max_coherent_information, max_private])
def test_each_point_goes_through_the_channel_once(runner, monkeypatch):
    # One evaluation gives a point's value and gradient, so no leg ever
    # receives the same restart's input twice: not at the start, and not
    # when an accepted line-search trial becomes the next iterate. The
    # ensemble ascent's states are seen through _ensemble_outputs, wrapped
    # in both modules so that a value taken through entropic._holevo is
    # seen too; the purification ascent's input marginals through the
    # forward calls of _apply_full, whose Kraus stacks take d_in columns.
    seen = []
    ch = erasure(2, 0.25)
    if runner is max_holevo:
        def record(kraus, probs, states):
            seen.extend((kraus.tobytes(), stack.tobytes()) for stack in states)
            return _ensemble_outputs(kraus, probs, states)

        for module in ("capcont.capopt", "capcont.entropic"):
            monkeypatch.setattr(f"{module}._ensemble_outputs", record)
        rep, legs = max_holevo(ch, 3, restarts=3, iters=40, seed=5), 1
    else:
        def record(kraus, rho):
            if kraus.shape[-1] == ch.d_in:
                seen.extend((kraus.tobytes(), mat.tobytes()) for mat in rho)
            return _apply_full(kraus, rho)

        monkeypatch.setattr("capcont.capopt._apply_full", record)
        rep, legs = runner(ch, restarts=3, iters=40, seed=5), 2
    assert sum(rep.iterations) > 3 * 5
    assert len({kraus for kraus, _ in seen}) == legs
    assert len(seen) > legs * sum(rep.iterations)
    assert len(set(seen)) == len(seen)
