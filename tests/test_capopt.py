"""Tests for the capacity-proxy maximizers.

Oracles come first and are independent of the implementation: closed-form
output spectra for erasure channels, a relabeling symmetry for the
self-complementary point, and direct entropic re-evaluation of returned
maximizers.
"""

import math
import time
import tracemalloc
import warnings

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
    _kraus_images,
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
    coherent_information,
    entropy_of_spectra,
    holevo_information,
    private_information,
)
from capcont.errors import ArgumentError, DimensionError
from capcont.linalg import DensityMatrix, dagger, partial_trace_matrix
from capcont.sampling import random_channel, random_density_matrix, random_unitary, rng_for


def _plain_apply(kraus, mat):
    # sum_k K mat K^dag in plain numpy; a stack of K^dag applies the adjoint.
    return sum(k @ mat @ k.conj().T for k in kraus)


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
    # Each restart holds the d_in d_out r = 9 Kraus images of its
    # purification: at D_MAX = 16, 29 restarts exceed 16^2 entries and 28
    # do not.
    monkeypatch.setattr("capcont.capopt.D_MAX", 16)
    with pytest.raises(DimensionError, match="29 restarts x 9 entries exceed D_MAX"):
        max_coherent_information(identity(3), restarts=29, iters=1)
    assert max_coherent_information(identity(3), restarts=28, iters=1).restarts == 28


def test_restart_guard_counts_the_kraus_images(monkeypatch):
    # Each restart holds d_in d_out r = 4 * 16 * 16 = 1024 image entries,
    # four times the 16 x 16 of its largest square matrix: 16385 restarts
    # exceed D_MAX^2 = 16384 * 1024 entries, and are refused before any
    # start is drawn.
    ch = random_channel(4, 16, rng_for(53), kraus_count=16)

    def draw(*args):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr("capcont.capopt._stream", draw)
    with pytest.raises(DimensionError, match="16385 restarts x 1024 entries exceed D_MAX"):
        max_coherent_information(ch, restarts=16385, iters=1)


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
        lhs = np.trace(x @ _plain_apply(chan.kraus, rho))
        rhs = np.trace(_plain_apply(dagger(chan.kraus), x) @ rho)
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
    # L-BFGS steps on the ensemble purification: the holevo cases take at
    # most 31 iterations at this seed.
    assert max(rep.iterations) <= (60 if kind == "holevo" else 100)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kind, ch, n, value", _CLOSED_FORMS)
def test_capacity_cases_converge_at_every_op_seed(kind, ch, n, value, seed):
    rep = _n_copy(kind, ch, n, seed=seed)
    assert rep.converged
    assert abs(rep.best_value - value) <= 1e-12


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "ch, m, value",
    [(identity(2), 8, 1.0), (dephasing(0.2), 12, 1.0), (erasure(2, 0.25), 16, 0.75),
     (constant_channel(2), 6, 0.0)],
    ids=["identity-m8", "dephasing-m12", "erasure-m16", "constant-m6"],
)
def test_oversized_ensembles_reach_the_closed_form(ch, m, value, seed):
    # More states than the optimum needs: the surplus blocks of the
    # purification shrink or repeat a state, and no weight's division,
    # logarithm or entropy may warn on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = max_holevo(ch, m, restarts=4, iters=400, seed=seed)
    assert rep.converged
    assert abs(rep.best_value - value) <= 1e-12
    assert len(rep.argmax.items) == m


@pytest.mark.parametrize(
    "ch", [erasure(2, 0.25), random_channel(3, 2, rng_for(59))], ids=["erasure", "random32"]
)
def test_holevo_argmax_is_the_winners_purification(ch, monkeypatch):
    # The weights are the squared norms of the winning vector's blocks and
    # the states their directions, and they re-evaluate to the value.
    finals = []

    def spy(*args):
        out = _ascend(*args)
        finals.append(out)
        return out

    monkeypatch.setattr("capcont.capopt._ascend", spy)
    m = 3
    rep = max_holevo(ch, m, restarts=3, iters=200, seed=2)
    (x, f, *_), = finals
    blocks = x[int(np.argmax(f))].reshape(m, ch.d_in)
    weights = [p for p, _ in rep.argmax.items]
    assert weights == [_ref_inner(b, b) for b in blocks]
    assert np.allclose(weights, np.linalg.norm(blocks, axis=1) ** 2, rtol=0, atol=1e-15)
    for (_, state), b in zip(rep.argmax.items, blocks):
        psi = b / np.linalg.norm(b)
        assert np.allclose(state.matrix, np.outer(psi, psi.conj()), rtol=0, atol=1e-15)
    assert abs(holevo_information(ch, rep.argmax) - rep.best_value) <= 1e-12


def _stop_on_a_sphere(rise, s):
    # One restart at x = [1, 0] on the sphere of C^2 that reports the
    # tangent gradient [0, s], of norm s, at every point. A step of length
    # t moves to unit([1, t s]) and raises f by rise(u_1), u_1 ~ t s.
    # Returns its iteration count, stop reason, flag, the number of
    # line-search trials (evaluations after the start's) and final point.
    calls = []

    def evaluate(u):
        calls.append(len(u))
        grad = np.zeros_like(u)
        grad[:, 1] = s
        return rise(u[:, 1].real), grad

    x, _, used, reasons, conv = _ascend(evaluate, np.array([[1.0, 0.0]], dtype=complex), 50)
    return int(used[0]), reasons[0], bool(conv[0]), len(calls) - 1, x[0]


def test_stall_converges_only_below_the_gradient_threshold():
    # A value linear in u_1: the step of length t = 1 raises f by
    # 2e-10 * s, which passes the Armijo test 1e-4 * s^2 and is below
    # the rounding floor of f ~ 0.
    def unit(v):
        return v / np.linalg.norm(v)

    assert STALL_GRAD_TOL == 1e-6
    for s, converged in ((0.5 * STALL_GRAD_TOL, True), (1.5 * STALL_GRAD_TOL, False)):
        used, reason, conv, trials, x = _stop_on_a_sphere(lambda u1: 2e-10 * u1, s)
        assert (used, reason, conv, trials) == (1, "stalled", converged, 1)
        assert np.allclose(x, unit(np.array([1.0, s])), rtol=0, atol=1e-15)


def test_failed_line_search_converges_only_below_the_gradient_threshold():
    # A constant value: the trial at t = 1 fails the Armijo test, and the
    # rise a halved step must make, 1e-4 t s^2 <= 1.2e-16, is below the
    # rounding floor of f = 0. So the search stops after one trial, f has
    # not risen, and the restart stalls. Below STALL_GRAD_TOL that is a
    # rounding-level optimum; above it, a plateau the ascent could not climb.
    def stop(s):
        used, reason, conv, trials, x = _stop_on_a_sphere(lambda u1: np.zeros_like(u1), s)
        assert np.array_equal(x, [1.0, 0.0])
        return used, reason, conv, trials

    assert stop(0.5 * STALL_GRAD_TOL) == (1, "stalled", True, 1)
    assert stop(1.5 * STALL_GRAD_TOL) == (1, "stalled", False, 1)


def test_a_line_search_stops_at_the_rounding_floor(monkeypatch):
    # At seed 1 a restart sits at f = 0.5 + 2.2e-16 with a gradient norm
    # of 1.1e-8, just above GRAD_TOL, where every candidate rounds to 0.5
    # or just below. Backtracking stops once the required rise 1e-4 t <g, p>
    # is below STALL_RTOL max(|f|, 1), and the restart stalls. Halving t
    # down to a fixed 1e-14 instead took 43 evaluation calls.
    calls = []

    def counted(evaluate, starts, iters):
        def each(v):
            calls.append(len(v))
            return evaluate(v)

        return _ascend(each, starts, iters)

    monkeypatch.setattr("capcont.capopt._ascend", counted)
    rep = max_coherent_information(erasure(2, 0.25), restarts=4, iters=400, seed=1)
    assert rep.iterations == (5, 5, 6, 6)
    assert rep.stop_reasons == ("stalled", "stalled", "stalled", "gradient")
    assert rep.converged
    assert len(calls) <= 10


def _scripted_ascent(grads, start, iters, beside=None):
    # One restart whose every step passes the Armijo test at t = 1 and
    # never stalls: the value rises by 1 per evaluation. The evaluations
    # return the scripted gradients in turn, then a zero gradient at the
    # point after the last step, which no step reads. beside, a
    # (grads, start) pair of the same lengths, runs a second scripted
    # restart in lockstep. Returns the first restart's points evaluated:
    # the start, then the point after each step.
    paths = [(grads, start)] + ([beside] if beside else [])
    scripts = [iter([*g, np.zeros_like(x)]) for g, x in paths]
    seen = []

    def evaluate(u):
        seen.append(u[0].copy())
        grad = np.array([next(script) for script in scripts], dtype=complex)
        return np.full(len(u), float(len(seen))), grad.reshape(u.shape)

    _ascend(evaluate, np.array([x for _, x in paths], dtype=complex), iters)
    return seen


def _tangent_at(x, v):
    return v - np.vdot(x, v).real * x


def _unit(v):
    return v / np.linalg.norm(v)


def _dot(a, b):
    return np.vdot(a, b).real


def _one_pair(s, y, g):
    # H g for H = V^T (gamma I) V + rho s s^T, V = I - rho y s^T
    rho = 1.0 / _dot(s, y)
    alpha = rho * _dot(s, g)
    r = _dot(s, y) / _dot(y, y) * (g - alpha * y)
    return r + (alpha - rho * _dot(y, r)) * s


def _first_two_steps():
    # On the sphere of C^3: step 1 takes g1; step 2 takes P H g2 from the
    # pair (s1, y1) stored at x2. Returns the gradients, the pair and the
    # points x1 to x3.
    x1 = np.array([1, 0, 0], dtype=complex)
    g1, g2 = np.array([0, 1, 0], dtype=complex), np.array([-0.25, 0.25, 0.5j])
    x2 = _unit(x1 + g1)
    s1, y1 = _tangent_at(x2, x2 - x1), _tangent_at(x2, g1 - g2)
    p2 = _tangent_at(x2, _one_pair(s1, y1, g2))
    assert _dot(s1, y1) > 0 and _dot(g2, p2) > 0
    return g1, g2, s1, y1, x1, x2, _unit(x2 + p2)


def test_a_pair_without_positive_curvature_is_not_stored():
    # After the first two steps, g3 = P g2 + s2 makes y2 = -s2, so
    # s2 . y2 < 0 and step 3 is P H g3 from the first pair alone. Had the
    # second pair been stored, the two-loop direction would descend and
    # step 3 would fall back to g3.
    g1, g2, s1, y1, x1, x2, x3 = _first_two_steps()
    s2 = _tangent_at(x3, x3 - x2)
    g3 = _tangent_at(x3, g2) + s2
    assert _dot(s2, _tangent_at(x3, g2 - g3)) < 0
    p3 = _tangent_at(x3, _one_pair(s1, y1, g3))
    assert _dot(g3, p3) > 0
    seen = _scripted_ascent([g1, g2, g3], x1, 3)
    assert np.allclose(seen[1:], [x2, x3, _unit(x3 + p3)], rtol=0, atol=1e-15)
    assert not np.allclose(seen[3], _unit(x3 + g3), rtol=0, atol=0.1)


def test_dropped_pairs_leave_no_trace_in_the_next_direction():
    # After the first two steps, x3 stores a second pair (s2, y2). g3 has a
    # large normal component, along which the projected two-pair direction
    # descends, so step 3 takes g3 and drops both pairs. At x4, g4 stores
    # one new pair (s3, y3), and step 4 is P H g4 from that pair alone:
    # the dropped pairs' slots must add nothing to the two-loop recursion.
    # A second restart beside it keeps its pairs, three at step 4, so the
    # recursion runs slots 1 and 2 on the first restart's row too.
    g1, g2, _, _, x1, x2, x3 = _first_two_steps()
    beside = ([g1, g2, np.array([0, 0, 1]), np.array([0, 1, 0])], x1)
    s2 = _tangent_at(x3, x3 - x2)
    g3 = 0.1 * _unit(_tangent_at(x3, np.array([0, 0, 1j]))) - 0.5 * x3
    assert _dot(s2, _tangent_at(x3, g2 - g3)) > 0
    x4 = _scripted_ascent([g1, g2, g3], x1, 3, (beside[0][:3], x1))[3]
    assert np.allclose(x4, _unit(x3 + g3), rtol=0, atol=1e-15)
    g4 = _tangent_at(x4, np.array([0, 1, 0]))
    s3, y3 = _tangent_at(x4, x4 - x3), _tangent_at(x4, g3 - g4)
    p4 = _tangent_at(x4, _one_pair(s3, y3, g4))
    assert _dot(s3, y3) > 0 and _dot(g4, p4) > 0
    x5 = _scripted_ascent([g1, g2, g3, g4], x1, 4, beside)[4]
    assert np.allclose(x5, _unit(x4 + p4), rtol=0, atol=1e-15)
    assert not np.allclose(x5, _unit(x4 + g4), rtol=0, atol=0.1)


def test_a_non_ascent_direction_falls_back_to_the_gradient():
    # On a sphere piece of C^2: g1 and g2 are tangent and store the pair
    # (s1, y1) at x2. g3 has a large normal component, along which the
    # projected two-loop direction P H g3 descends (<g3, P H g3> < 0), so
    # step 3 takes g3 itself and drops the pair. g4 = P g3 + s3 makes
    # s3 . y3 < 0, so step 4 has no pair either and takes g4.
    x1 = np.array([1, 0], dtype=complex)
    g1, g2 = np.array([0, 1], dtype=complex), np.array([-0.25, 0.25 + 0.5j])
    x3 = _scripted_ascent([g1, g2], x1, 2)[2]
    g3 = 0.1 * _unit(_tangent_at(x3, np.array([0, 1j]))) - 4.0 * x3
    x4 = _scripted_ascent([g1, g2, g3], x1, 3)[3]
    assert np.allclose(x4, _unit(x3 + g3), rtol=0, atol=1e-15)
    g4 = _tangent_at(x4, g3) + _tangent_at(x4, x4 - x3)
    x5 = _scripted_ascent([g1, g2, g3, g4], x1, 4)[4]
    assert np.allclose(x5, _unit(x4 + g4), rtol=0, atol=1e-15)


# ------------------------------------------------ sequential reference
#
# The maximizers run every restart in lockstep on one batch axis. The
# reference below runs one restart at a time, on 2-D matrices and one
# state at a time. The batched report must equal it bit for bit: same
# values, iteration counts, stop reasons, flags and maximizers. Its
# objectives take Kraus images, as the ascents do; the square-matrix
# objectives after them, through _plain_apply and the complementary
# channel, check the images arithmetic to 1e-12.


def _ref_entropy(mat):
    # From the spectrum of the eigh that also gives the matrix's -log2.
    return entropy_of_spectra(np.linalg.eigh(mat)[0])


def _ref_neg_log2(w, u):
    w = np.clip(w, 1e-10, None)
    return (u * (-np.log2(w))) @ u.conj().T


def _ref_inner(x, y):
    # Re <x, y> as the dot product of the real views, the ascent's reduction.
    return float(np.einsum("i,i->", x.reshape(-1).view(np.float64), y.reshape(-1).view(np.float64)))


def _ref_renorm(x):
    return x / np.sqrt(_ref_inner(x, x))


def _ref_tangent(x, v):
    return v - _ref_inner(x, v) * x


def _ref_ascend(value_of, grad_of, x, iters):
    # L-BFGS (Nocedal and Wright, Algorithm 7.4) with at most 8 pairs, on
    # the unit sphere's tangent spaces; Armijo backtracking from t = 1.
    x = _ref_renorm(x)
    f = value_of(x)
    pairs, gamma, prev = [], None, None
    used = 0
    reason = "iteration-cap"
    for used in range(1, iters + 1):
        g = grad_of(x)
        gsq = _ref_inner(g, g)
        gnorm = math.sqrt(gsq)
        if gnorm < 1e-8:
            reason = "gradient"
            break
        if prev is not None:
            s = _ref_tangent(x, x - prev[0])
            y = _ref_tangent(x, prev[1] - g)
            sy, yy = _ref_inner(s, y), _ref_inner(y, y)
            if sy > 1e-10 * math.sqrt(_ref_inner(s, s) * yy):
                pairs = (pairs + [(s, y, 1.0 / sy)])[-8:]
                gamma = sy / yy
        p, slope = g, gsq
        if pairs:
            q, alphas = g, []
            for s, y, rho in reversed(pairs):
                alphas.insert(0, rho * _ref_inner(s, q))
                q = q - alphas[0] * y
            r = gamma * q
            for (s, y, rho), alpha in zip(pairs, alphas):
                r = r + (alpha - rho * _ref_inner(y, r)) * s
            r = _ref_tangent(x, r)
            if _ref_inner(g, r) > 0:
                p, slope = r, _ref_inner(g, r)
            else:
                pairs = []
        # Backtracking stops once the required rise is below the rounding
        # floor; a restart that did not rise above that floor stalls.
        t = 1.0
        f_old = f
        floor = 4e-16 * max(abs(f_old), 1.0)
        prev = (x, g)
        while True:
            cand = _ref_renorm(x + t * p)
            fc = value_of(cand)
            if fc >= f + 1e-4 * t * slope:
                x, f = cand, fc
                break
            t *= 0.5
            if 1e-4 * t * slope <= floor:
                break
        if f - f_old <= floor:
            reason = "stalled"
            break
    # A stall below 1e-6 is at rounding level.
    converged = reason == "gradient" or (reason == "stalled" and gnorm < 1e-6)
    return x, f, used, reason, converged


def _ref_run_restarts(value_of, grad_of, n, restarts, iters, seed):
    # Restart r starts from a complex Gaussian vector of C^n drawn from rng_for(seed, r).
    best_x, best_f, best_conv = None, -np.inf, False
    counts, reasons = [], []
    for r in range(restarts):
        rng = rng_for(seed, r)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x, f, used, reason, conv = _ref_ascend(value_of, grad_of, start, iters)
        counts.append(used)
        reasons.append(reason)
        if f > best_f:
            best_x, best_f, best_conv = x, f, conv
    return best_x, best_f, tuple(counts), tuple(reasons), best_conv


def _ref_coherent_objective(ch):
    # One restart's purification v: its images Y, rows (ref, out) and one
    # column per Kraus operator. The output is the partial Gram Tr_R Y Y^dag
    # and the environment's transpose the Gram Y^dag Y, so the gradient is
    # 2 sum_k K_k^dag b_k with b = (I (x) L_B) Y - Y L_E^T.
    d, d_out, r = ch.d_in, ch.d_out, len(ch.kraus)
    adjoint = ch.kraus.transpose(1, 0, 2).reshape(d_out * r, d).conj()

    def parts(v):
        y = _kraus_images(ch.kraus, v, (d, d))
        yb = y.reshape(d, d_out, r).swapaxes(0, 1).reshape(d_out, d * r)
        return y, yb, np.linalg.eigh(yb @ yb.conj().T), np.linalg.eigh(y.conj().T @ y)

    def value_of(v):
        _, _, (wb, _), (we, _) = parts(v)
        return entropy_of_spectra(wb) - entropy_of_spectra(we)

    def grad_of(v):
        y, yb, out, env = parts(v)
        b = (_ref_neg_log2(*out) @ yb).reshape(d_out, d, r).swapaxes(0, 1)
        b = b - (y @ _ref_neg_log2(*env)).reshape(d, d_out, r)
        hv = (b.reshape(d, d_out * r) @ adjoint).reshape(-1)
        hv -= _ref_inner(v, hv) * v
        return 2.0 * hv

    return value_of, grad_of


def _ref_holevo_objective(ch, m):
    # The ensemble's purification u = sum_x sqrt(p_x)|x>|psi_x>: block x
    # of u is sqrt(p_x) psi_x, so p_x is its squared norm, and its images
    # Z_x give p_x N(psi_x) = Z_x Z_x^dag.
    d, d_out, r = ch.d_in, ch.d_out, len(ch.kraus)
    adjoint = ch.kraus.transpose(1, 0, 2).reshape(d_out * r, d).conj()

    def ensemble(u):
        blocks = u.reshape(m, d)
        probs = [_ref_inner(b, b) for b in blocks]
        images = [_kraus_images(ch.kraus, b, (1, d)) for b in blocks]
        weighted = [z @ z.conj().T for z in images]
        outs = [np.linalg.eigh(a / p) for a, p in zip(weighted, probs)]
        return probs, images, outs, np.linalg.eigh(sum(weighted))

    def value_of(u):
        probs, _, outs, (w_avg, _) = ensemble(u)
        return entropy_of_spectra(w_avg) - sum(
            p * entropy_of_spectra(w) for p, (w, _) in zip(probs, outs)
        )

    def grad_of(u):
        _, images, outs, avg = ensemble(u)
        l_avg = _ref_neg_log2(*avg)
        b = np.array([((l_avg - _ref_neg_log2(*o)) @ z).reshape(-1) for z, o in zip(images, outs)])
        g = (b @ adjoint).reshape(-1)
        g -= _ref_inner(u, g) * u
        return 2.0 * g

    return value_of, grad_of


def _square_coherent_objective(ch):
    # The square-matrix arithmetic: the input marginal rho through the
    # channel and its complementary channel, and their adjoints.
    d = ch.d_in
    kb, ke = ch.kraus, complementary(ch).kraus
    kb_adj, ke_adj = dagger(kb), dagger(ke)

    def rho_of(v):
        return partial_trace_matrix(np.outer(v, v.conj()), (d, d), keep=[1])

    def value_of(v):
        rho = rho_of(v)
        return _ref_entropy(_plain_apply(kb, rho)) - _ref_entropy(_plain_apply(ke, rho))

    def grad_of(v):
        rho = rho_of(v)
        g_rho = _plain_apply(kb_adj, _ref_neg_log2(*np.linalg.eigh(_plain_apply(kb, rho))))
        g_rho -= _plain_apply(ke_adj, _ref_neg_log2(*np.linalg.eigh(_plain_apply(ke, rho))))
        hv = (v.reshape(d, d) @ g_rho.T).reshape(-1)
        hv -= _ref_inner(v, hv) * v
        return 2.0 * hv

    return value_of, grad_of


def _square_holevo_objective(ch, m):
    # The square-matrix arithmetic: each normalized state through the
    # channel, and the adjoint of the log-density difference on its block.
    d = ch.d_in
    kraus, adjoint = ch.kraus, dagger(ch.kraus)

    def ensemble(u):
        blocks = u.reshape(m, d)
        probs = [_ref_inner(b, b) for b in blocks]
        outs = [_plain_apply(kraus, np.outer(psi, psi.conj()))
                for psi in (b / np.sqrt(p) for p, b in zip(probs, blocks))]
        return probs, blocks, outs, sum(p * o for p, o in zip(probs, outs))

    def value_of(u):
        probs, _, outs, avg = ensemble(u)
        return _ref_entropy(avg) - sum(p * _ref_entropy(o) for p, o in zip(probs, outs))

    def grad_of(u):
        _, blocks, outs, avg = ensemble(u)
        l_avg = _ref_neg_log2(*np.linalg.eigh(avg))
        g = np.concatenate([
            _plain_apply(adjoint, l_avg - _ref_neg_log2(*np.linalg.eigh(out))) @ b
            for b, out in zip(blocks, outs)
        ])
        g -= _ref_inner(u, g) * u
        return 2.0 * g

    return value_of, grad_of


def _ref_coherent(ch, restarts, iters, seed):
    d = ch.d_in
    vec, f, counts, reasons, conv = _ref_run_restarts(
        *_ref_coherent_objective(ch), d * d, restarts, iters, seed
    )
    return f, counts, reasons, conv, vec


def _ref_holevo(ch, m, restarts, iters, seed):
    d = ch.d_in
    u, f, counts, reasons, conv = _ref_run_restarts(
        *_ref_holevo_objective(ch, m), m * d, restarts, iters, seed
    )
    blocks = u.reshape(m, d)
    return f, counts, reasons, conv, blocks


def _cross_check_channels():
    rng = rng_for(41)
    named = {
        "erasure": erasure(2, 0.25),
        "dephasing": dephasing(0.2),
        "depolarizing": depolarizing(2, 0.2),
        "random23": random_channel(2, 3, rng, kraus_count=3),
        "random32": random_channel(3, 2, rng, kraus_count=5),
        "complementary-erasure": complementary(erasure(2, 0.3)),
        "erasure^2": tensor_power(erasure(2, 0.25), 2),
    }
    return [pytest.param(ch, id=name) for name, ch in named.items()]


@pytest.mark.parametrize("ch", _cross_check_channels())
def test_image_objectives_match_the_square_matrix_arithmetic(ch):
    # The images arithmetic of the reference, and so of the ascents, gives
    # the value and the gradient of the square-matrix arithmetic.
    rng = rng_for(47, ch.d_in, ch.d_out, len(ch.kraus))
    objectives = [
        (_ref_coherent_objective(ch), _square_coherent_objective(ch), ch.d_in**2),
        *(
            (_ref_holevo_objective(ch, m), _square_holevo_objective(ch, m), m * ch.d_in)
            for m in (2, 3)
        ),
    ]
    for (value, grad), (square_value, square_grad), n in objectives:
        for _ in range(4):
            x = _ref_renorm(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert abs(value(x) - square_value(x)) <= 1e-12
            assert np.max(np.abs(grad(x) - square_grad(x))) <= 1e-12


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
    # Spectra of length 9, which numpy sums pairwise.
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
        f, counts, reasons, conv, blocks = _ref_holevo(ch, 3, restarts, iters, seed)
        assert [p for p, _ in rep.argmax.items] == [_ref_inner(b, b) for b in blocks]
        for (_, got), b in zip(rep.argmax.items, blocks):
            assert np.array_equal(got.matrix, DensityMatrix.from_pure(b).matrix)
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
    assert reasons.count("iteration-cap") == 2 and reasons.count("stalled") == 1
    rep = max_coherent_information(erasure(3, 0.2), restarts=5, iters=9, seed=11)
    assert rep.iterations == counts and rep.stop_reasons == reasons
    assert rep.best_value == f


@pytest.mark.parametrize("runner", [max_holevo, max_coherent_information, max_private])
def test_each_point_goes_through_the_channel_once(runner, monkeypatch):
    # One evaluation gives a point's value and gradient, so no restart's
    # point ever reaches the channel twice: not at the start, and not when
    # an accepted line-search trial becomes the next iterate. Each point
    # reaches it through one _kraus_images call: a restart's purification,
    # or its ensemble's blocks. The square-matrix kernel is never called.
    seen = []
    ch = erasure(2, 0.25)

    def record(kraus, vec, dims):
        seen.extend((kraus.tobytes(), point.tobytes()) for point in vec)
        return _kraus_images(kraus, vec, dims)

    def refuse(*args):
        raise AssertionError("_kraus_sum was called")

    monkeypatch.setattr("capcont.capopt._kraus_images", record)
    monkeypatch.setattr("capcont.channels._kraus_sum", refuse)
    if runner is max_holevo:
        rep = max_holevo(ch, 3, restarts=3, iters=40, seed=5)
    else:
        rep = runner(ch, restarts=3, iters=40, seed=5)
    assert sum(rep.iterations) > 3 * 5
    assert len({kraus for kraus, _ in seen}) == 1
    assert len(seen) > sum(rep.iterations)
    assert len(set(seen)) == len(seen)
