"""Tests for trace distance and the certified diamond norm."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from capcont import channels as ch
from capcont import distance, sdp
from capcont.continuity import random_nearby_pair
from capcont.distance import (
    _MAX_STEPS,
    _WINDOW,
    bell_probe_value,
    diamond_distance,
    diamond_lower_probe,
    diamond_norm,
    probe_value,
    trace_distance,
    trace_distance_halved,
)
from capcont.errors import ArgumentError
from capcont.linalg import (
    DensityMatrix,
    PureState,
    basis_state,
    maximally_entangled,
    partial_trace_matrix,
)
from capcont.sampling import (
    haar_state,
    random_channel,
    random_density_matrix,
    random_unitary,
    rng_for,
)
from capcont.sdp import DiamondSolution

# ---------------------------------------------------------------- oracles


def _depolarizing_gap_oracle(p):
    """Maximally entangled probe on identity - depolarizing by hand.

    (id - dep_p)(Phi) = p(Phi - I/4), spectrum p*(3/4, -1/4, -1/4, -1/4),
    so the trace norm is 3p/2. A lower bound that the SDP upper bound
    must meet.
    """
    return sum(abs(x) for x in (0.75 * p, -0.25 * p, -0.25 * p, -0.25 * p))


def _bracket(j, d_in, d_out):
    """(Bell value, lambda_max(Tr_out |J|)) in plain numpy.

    The ends of the closed-form bracket: the Bell probe bounds the norm
    from below, and Y0 = Y1 = |J| is feasible in Watrous's simplified SDP
    (arXiv:1207.5726), so its objective bounds it from above.
    """
    w, v = np.linalg.eigh((j + j.conj().T) / 2.0)
    abs_j = (v * np.abs(w)) @ v.conj().T
    tr_out = abs_j.reshape(d_in, d_out, d_in, d_out).trace(axis1=1, axis2=3)
    upper = float(np.linalg.eigvalsh((tr_out + tr_out.conj().T) / 2.0)[-1])
    return float(np.sum(np.abs(w))) / d_in, upper


class _SolverCalls(list):
    def __init__(self):
        super().__init__()
        self.iterations = []


def _handed_over(res, solver_iterations):
    """iterations = fixed-point steps + solver iterations, and the steps stop
    on collapse, which needs a window of _WINDOW steps, or at the _MAX_STEPS
    cap."""
    steps = res.iterations - solver_iterations
    return _WINDOW <= steps <= _MAX_STEPS


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts the interior-point solves that diamond_norm hands over to.

    The list holds each solve's (d_in, d_out); its `iterations` attribute
    holds each solve's own iteration count.
    """
    calls = _SolverCalls()
    solve = sdp.solve_diamond

    def spy(j, d_in, d_out):
        sol = solve(j, d_in, d_out)
        calls.append((d_in, d_out))
        calls.iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(sdp, "solve_diamond", spy)
    return calls


@pytest.fixture
def no_solver(monkeypatch):
    """Fails any hand-over to the interior-point solver."""

    def refuse(j, d_in, d_out):
        raise AssertionError("the fixed point handed over to the interior-point solver")

    monkeypatch.setattr(sdp, "solve_diamond", refuse)


@pytest.fixture
def no_pure_face(monkeypatch):
    """Switches off the qubit pure face, so that the fixed point runs."""
    monkeypatch.setattr(distance, "_pure_face", lambda j: None)


def _erasure_pair_oracle(p, q):
    """||E_p - E_q||_diamond = 2|p - q|: the difference is (q - p) times
    (embed - flag), whose extended outputs have orthogonal supports."""
    return 2.0 * abs(p - q)


# ----------------------------------------------------------- trace distance


def test_trace_distance_basics():
    rng = rng_for(30)
    rho = random_density_matrix(3, rng)
    assert trace_distance(rho, rho) == 0.0
    zero = DensityMatrix.from_pure(basis_state(2, 0))
    one = DensityMatrix.from_pure(basis_state(2, 1))
    assert abs(trace_distance(zero, one) - 2.0) < 1e-12
    assert abs(trace_distance_halved(zero, one) - 1.0) < 1e-12
    # diag(1,0) vs diag(1/2,1/2): eigenvalues of the difference are +-1/2.
    half = DensityMatrix.maximally_mixed(2)
    assert abs(trace_distance(zero, half) - 1.0) < 1e-12
    with pytest.raises(ArgumentError):
        trace_distance(zero, random_density_matrix(3, rng))


# ------------------------------------------------------------ diamond norm


def test_diamond_norm_of_zero_map_is_exact():
    n = random_channel(2, 2, rng_for(31))
    res = diamond_distance(n, n)
    assert res.value == 0.0 and res.dual_value == 0.0
    assert res.status == "optimal"


def test_diamond_norm_identity_vs_depolarizing():
    for p in (0.1, 0.3, 0.5):
        res = diamond_distance(ch.identity(2), ch.depolarizing(2, p))
        assert res.status == "optimal"
        expect = _depolarizing_gap_oracle(p)
        assert abs(res.value - expect) <= 1e-6
        # the Bell probe lower bound must coincide here
        m = ch.ChoiMatrix.difference(ch.identity(2), ch.depolarizing(2, p))
        assert abs(bell_probe_value(m) - expect) <= 1e-10
        assert bell_probe_value(m) <= res.value + 1e-6
        assert res.dual_value <= res.value + 1e-12


def test_diamond_norm_erasure_pairs():
    for (p, q) in ((0.0, 1.0), (0.3, 0.55), (0.5, 0.5)):
        res = diamond_distance(ch.erasure(3, p), ch.erasure(3, q))
        assert abs(res.value - _erasure_pair_oracle(p, q)) <= 1e-6


def _probe_ascent_oracle(m, starts=3):
    """Maximize probe_value over pure inputs on in (x) ref with BFGS.

    The diamond norm is attained at a pure input with a reference as large
    as the input, so the best local maximum from a few seeded starts is an
    independent estimate that shares no code with the SDP.
    """
    d = m.d_in * m.d_in

    def neg_value(x):
        v = x[:d] + 1j * x[d:]
        return -probe_value(m, PureState(v / np.linalg.norm(v), (m.d_in, m.d_in)))

    rng = np.random.default_rng(7)
    return max(
        -minimize(neg_value, rng.standard_normal(2 * d), method="BFGS").fun
        for _ in range(starts)
    )


def test_diamond_norm_matches_probe_ascent():
    rng = rng_for(32)
    a, b = random_channel(2, 3, rng), random_channel(2, 3, rng)
    m = ch.ChoiMatrix.difference(a, b)
    res = diamond_norm(m)
    assert res.status == "optimal"
    assert abs(res.value - _probe_ascent_oracle(m)) <= 2e-7


# Seeded nearby pairs that the former two-backend solver left uncertified.
@pytest.mark.parametrize("d,k", [(5, 2), (5, 9), (6, 0), (6, 3), (6, 4), (6, 6)])
def test_diamond_norm_certifies_nearby_pairs(d, k):
    res = diamond_distance(*random_nearby_pair(d, d, rng_for(50, d, k)))
    assert res.certified()


def test_diamond_lower_bound_never_exceeds_value():
    # The first three pairs are ones where the raw primal objective <J, P - Q>
    # of the solver's drifted primal point exceeded the certified upper bound.
    cases = [(3, 2, 3), (4, 2, 11), (20, 2, 4)]
    cases += [(seed, d, k) for seed in range(1, 5) for d in (2, 3) for k in range(15)]
    for seed, d, k in cases:
        res = diamond_distance(*random_nearby_pair(d, d, rng_for(seed, d, k)))
        assert res.certified()
        assert type(res.dual_value) is float  # np.float64 would make certified() an np.bool_
        assert res.dual_value <= res.value, (seed, d, k)


# One seeded pair per family and size, on the inputs most likely to break a
# certificate: (nearby) unitaries at distance ~arg, low Kraus rank, mixtures
# at q = 1e-6, asymmetric dimensions and d = 9, 10.
_CORPUS = (
    [("unitary", d, dist) for d in range(2, 7) for dist in (1e-1, 1e-3, 1e-6)]
    + [("rank2", d, 0.1) for d in (3, 5, 7)]
    + [("mixture", d, 1e-6) for d in (2, 4)]
    + [("nearby", d_in, d_out) for d_in, d_out in ((2, 8), (8, 2), (3, 7), (7, 3), (9, 9), (10, 10))]
)


def _unitary_pair(d, arg, rng):
    """U against U exp(i arg H / 2), ||H|| = 1."""
    u = random_unitary(d, rng)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    step = (v * np.exp(0.5j * arg * w / np.max(np.abs(w)))) @ v.conj().T
    return ch.QuantumChannel([u]), ch.QuantumChannel([u @ step])


def _corpus_pair(family, d, arg):
    rng = rng_for(90, _CORPUS.index((family, d, arg)))
    if family == "unitary":
        return _unitary_pair(d, arg, rng)
    if family == "nearby":
        return random_nearby_pair(d, arg, rng)
    kraus_count = 2 if family == "rank2" else None
    a = random_channel(d, d, rng, kraus_count)
    return a, ch.mix([a, random_channel(d, d, rng, kraus_count)], [1.0 - arg, arg])


@pytest.mark.parametrize("family,d,arg", _CORPUS)
def test_diamond_certificate_corpus(family, d, arg):
    m = ch.ChoiMatrix.difference(*_corpus_pair(family, d, arg))
    res = diamond_norm(m)
    assert res.certified()
    assert res.dual_value <= res.value
    lower, upper = _bracket(m.matrix, m.d_in, m.d_out)
    slack = sdp.TAU_SDP * (1.0 + res.value)
    assert lower - slack <= res.dual_value and res.value <= upper + slack


_BRACKET_PAIRS = [
    (ch.identity(2), ch.depolarizing(2, 0.1), 0.15),
    (ch.identity(2), ch.depolarizing(2, 0.3), 0.45),
    (ch.identity(3), ch.depolarizing(3, 0.1), 2 * 0.1 * 8 / 9),
    (ch.identity(3), ch.depolarizing(3, 0.3), 2 * 0.3 * 8 / 9),
    (ch.dephasing(0.1), ch.depolarizing(2, 0.1), 0.15),
    # n = 2: the raw Bell value exceeds lambda_max(Tr_out |J|) by 2.2e-16.
    (ch.erasure(2, 1.0), ch.truncated_classical_example(2), 2.0),
]


@pytest.mark.parametrize("a,b,expect", _BRACKET_PAIRS)
def test_diamond_norm_covariant_pairs_certify_from_the_bracket(a, b, expect):
    res = diamond_distance(a, b)
    assert res.iterations == 0  # closed-form certificate, no SDP
    assert res.certified()
    assert res.dual_value <= res.value
    assert type(res.value) is float and type(res.dual_value) is float
    assert abs(res.value - expect) <= 1e-12


@pytest.mark.parametrize("a,b,expect", _BRACKET_PAIRS)
def test_diamond_norm_step_zero_keeps_the_bracket_bits(a, b, expect):
    # Step 0 of the fixed point is the closed-form bracket, computed by the
    # same operations in the same order, so covariant reports keep their bits.
    m = ch.ChoiMatrix.difference(a, b)
    lam, vecs = np.linalg.eigh(m.matrix)
    lower = float(np.sum(np.abs(lam))) / m.d_in
    abs_j = (vecs * np.abs(lam)) @ vecs.conj().T
    upper = float(np.linalg.eigvalsh(partial_trace_matrix(abs_j, (m.d_in, m.d_out), [0]))[-1])
    res = diamond_norm(m)
    assert (res.value, res.dual_value, res.iterations) == (upper, min(lower, upper), 0)


# Seed-1 pairs with rank-deficient optima, which still hand over. The qubit
# pure face would certify (2, 1) and (2, 3), so it is switched off.
@pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (3, 8)])
def test_diamond_norm_generic_pairs_run_the_sdp(d, k, solver_calls, no_pure_face):
    res = diamond_distance(*random_nearby_pair(d, d, rng_for(1, d, k)))
    assert solver_calls == [(d, d)]
    assert _handed_over(res, solver_calls.iterations[0])
    assert res.certified()


# Seed-1 pairs, and the seven pairs of seeds 1-20 that the fixed point certifies
# in 17-32 steps once it runs on until collapse or the step cap. A seed-1 id
# reads k-d, any other seed-d-k.
_FIXED_POINT_PAIRS = (
    [(1, d, k) for k in (1, 2) for d in range(4, 9)]
    + [(1, 3, 0), (1, 3, 1)]
    + [(1, 2, 0), (10, 3, 14), (11, 2, 0), (14, 4, 8), (15, 2, 1), (19, 3, 14), (20, 3, 3)]
)


@pytest.mark.parametrize(
    "seed,d,k",
    _FIXED_POINT_PAIRS,
    ids=[f"{k}-{d}" if seed == 1 else f"{seed}-{d}-{k}" for seed, d, k in _FIXED_POINT_PAIRS],
)
def test_diamond_norm_fixed_point_certifies_generic_pairs(seed, d, k, no_solver):
    m = ch.ChoiMatrix.difference(*random_nearby_pair(d, d, rng_for(seed, d, k)))
    res = diamond_norm(m)
    assert res.certified()
    assert 0 < res.iterations <= 40  # fixed-point steps, no solver iterations
    assert res.dual_value <= res.value
    assert res.value - res.dual_value <= sdp.GAP_TARGET * res.value
    assert type(res.value) is float and type(res.dual_value) is float
    lower, upper = _bracket(m.matrix, m.d_in, m.d_out)
    assert lower <= res.dual_value and res.value <= upper


@pytest.mark.parametrize(
    "pair",
    [
        lambda: random_nearby_pair(2, 2, rng_for(1, 2, 5)),
        lambda: _unitary_pair(3, 0.1, rng_for(91)),
    ],
    ids=["qubit-pure-optimum", "unitary-d3"],
)
def test_diamond_norm_rank_deficient_optimum_hands_over(pair, solver_calls, no_pure_face):
    # The optimal input is not full rank, so rho drifts to the boundary and
    # the fixed point hands over: the solver runs, and its interval must
    # still certify. The qubit pair's optimum is pure, so the pure face, which
    # would certify it first, is switched off.
    res = diamond_distance(*pair())
    assert len(solver_calls) == 1
    assert _handed_over(res, solver_calls.iterations[0])
    assert res.certified()
    assert res.dual_value <= res.value


def test_diamond_workload_pairs_take_the_solver_only_at_two_pairs(solver_calls):
    # The 210 seed-1 and seed-5 pairs of the benchmark's `diamond` workload:
    # every one is certified, and exactly two hand over to the solver.
    solved = []
    for seed in (1, 5):
        for d in range(2, 9):
            for k in range(15):
                before = len(solver_calls)
                res = diamond_distance(*random_nearby_pair(d, d, rng_for(seed, d, k)))
                assert res.certified(), (seed, d, k)
                solved += [(seed, d, k)] * (len(solver_calls) - before)
    assert solved == [(1, 3, 8), (5, 3, 3)]


def test_diamond_norm_fixed_point_certifies_identity_vs_constant(no_solver, no_pure_face):
    # The optimal input is pure, but rho's smallest eigenvalue falls slowly
    # enough that the gap closes before the collapse rule fires. The pure
    # face, which would certify it first, is switched off.
    res = diamond_distance(ch.identity(2), ch.constant_channel(2))
    assert res.certified()
    assert 0 < res.iterations <= _MAX_STEPS
    assert res.dual_value <= 2.0 <= res.value


# The seed-1 and seed-5 qubit pairs whose optimal input is mixed: their best
# pure input is below the norm, so the pure face returns None for them.
_MIXED_QUBIT = [(1, 0), (1, 2), (1, 14), (5, 1), (5, 9)]
_PURE_QUBIT = [(seed, k) for seed in (1, 5) for k in range(15) if (seed, k) not in _MIXED_QUBIT]
_solve = sdp.solve_diamond  # before any fixture replaces it


def _qubit_pair(seed, k):
    return ch.ChoiMatrix.difference(*random_nearby_pair(2, 2, rng_for(seed, 2, k)))


@pytest.fixture
def intervals(monkeypatch):
    """Records each interval that `sdp._interval` rebuilds."""
    seen = []
    interval = sdp._interval

    def spy(*args):
        seen.append(interval(*args))
        return seen[-1]

    monkeypatch.setattr(sdp, "_interval", spy)
    return seen


@pytest.mark.parametrize("seed,k", _PURE_QUBIT)
def test_pure_face_certifies_qubit_pure_optima(seed, k, no_solver, intervals):
    m = _qubit_pair(seed, k)
    res = diamond_norm(m)
    assert res.certified() and res.iterations == 0
    # One interval, rebuilt by `sdp._interval`, and reported as it came.
    ((lo, up),) = intervals
    assert (res.value, res.dual_value) == (up, min(lo, up))
    assert type(res.value) is float and type(res.dual_value) is float
    assert res.value - res.dual_value <= sdp.GAP_TARGET * res.value
    lower, upper = _bracket(m.matrix, m.d_in, m.d_out)
    assert lower <= res.dual_value and res.value <= upper
    # The interior-point solver's own interval meets it.
    sol = _solve(m.matrix, 2, 2)
    slack = sdp.TAU_SDP * (1.0 + res.value)
    assert sol.dual_value <= res.value + slack and res.dual_value <= sol.value + slack


def _pure_input_value(a, b, n):
    """||a(|x><x|) - b(|x><x|)||_1 from the Kraus operators, for the Bloch vector n."""
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    x = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(n, sigma)))
    diff = sum(k @ x @ k.conj().T for k in a.kraus) - sum(k @ x @ k.conj().T for k in b.kraus)
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


@pytest.mark.parametrize("seed,k", [(1, 1), (1, 2), (5, 3)])
def test_bloch_optimum_is_the_best_pure_input(seed, k):
    # Against 2000 random Bloch vectors, with the map applied by its Kraus
    # operators, so that no convention is shared with the Pauli coordinates.
    a, b = random_nearby_pair(2, 2, rng_for(seed, 2, k))
    n = distance._bloch_optimum(ch.ChoiMatrix.difference(a, b).matrix)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
    best = _pure_input_value(a, b, n)
    rng = np.random.default_rng(11)
    points = rng.normal(size=(2000, 3))
    others = [_pure_input_value(a, b, p / np.linalg.norm(p)) for p in points]
    assert max(others) <= best + 1e-12
    assert max(others) >= best - 1e-3 * best  # the sample is dense enough to see a miss


@pytest.mark.parametrize("seed,k", _MIXED_QUBIT)
def test_mixed_qubit_optima_fall_through_the_pure_face(seed, k, no_solver):
    # The fixed point certifies each of them without the interior-point solver.
    m = _qubit_pair(seed, k)
    assert distance._pure_face(m.matrix) is None
    res = diamond_norm(m)
    assert res.certified() and res.iterations > 0


@pytest.mark.parametrize("seed", [92, 93])
def test_unital_qubit_pair_is_the_hard_case(seed, no_solver):
    # Identity vs a unitary channel is unital, so u = 0 and W^T u has no
    # component on the top eigenvector: the pure face declines. Its optimum
    # is then the maximally mixed input, so step 0 certifies the pair.
    u = random_unitary(2, rng_for(seed))
    m = ch.ChoiMatrix.difference(ch.identity(2), ch.QuantumChannel([u]))
    assert distance._bloch_optimum(m.matrix) is None
    assert distance._pure_face(m.matrix) is None
    res = diamond_norm(m)
    assert res.certified()
    lower, upper = _bracket(m.matrix, m.d_in, m.d_out)
    assert lower <= res.dual_value and res.value <= upper


def test_pure_face_certifies_identity_vs_constant(no_solver, intervals):
    # The optimal input |1> is pure: it maps to |1><1| - |0><0|, of trace norm 2.
    res = diamond_distance(ch.identity(2), ch.constant_channel(2))
    assert res.certified() and res.iterations == 0 and len(intervals) == 1
    assert res.dual_value <= 2.0 <= res.value


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3])
@pytest.mark.parametrize("seed,k", [(1, 1), (1, 3), (5, 14), (1, 2), (5, 9)])
def test_pure_face_route_is_the_same_at_every_scale(seed, k, scale, solver_calls):
    m = _qubit_pair(seed, k)
    res = diamond_norm(m.scaled(scale))
    assert res.certified()
    assert (res.iterations == 0) == ((seed, k) not in _MIXED_QUBIT)
    assert not solver_calls
    assert res.value == pytest.approx(scale * diamond_norm(m).value, rel=1e-7)


def _plain_step(xs, gs):
    """The unmixed step rho <- g(rho), in place of the Anderson mix."""
    return gs[-1]


def test_diamond_norm_takes_the_plain_step_when_the_mix_is_not_positive_definite(monkeypatch):
    m = ch.ChoiMatrix.difference(*random_nearby_pair(4, 4, rng_for(1, 4, 1)))
    history = []

    def indefinite(xs, gs):
        history.append(len(xs))
        return gs[-1] - 2.0 * np.eye(m.d_in)  # Tr g = 1, so every eigenvalue is <= -1

    monkeypatch.setattr(distance, "_mixed", _plain_step)
    plain = diamond_norm(m)
    monkeypatch.setattr(distance, "_mixed", indefinite)
    res = diamond_norm(m)
    assert res == plain  # each step fell back to g(rho), bit for bit
    assert res.certified() and res.iterations > 0
    # The history restarts from the latest pair: each mix sees two pairs.
    assert history and set(history) == {2}


def test_diamond_norm_hands_over_on_a_collapsing_eigenvalue(solver_calls):
    # Only the collapse rule or the cap can end the loop, and this one ends
    # before the cap: the unitary pair's optimal input is not full rank.
    res = diamond_distance(*_unitary_pair(3, 0.1, rng_for(91)))
    assert len(solver_calls) == 1
    steps = res.iterations - solver_calls.iterations[0]
    assert _WINDOW <= steps < _MAX_STEPS
    assert res.certified()


def test_diamond_norm_runs_past_the_old_cap_while_the_gap_converges(monkeypatch, no_solver):
    # The plain step certifies this pair only at step 50, so the loop must run
    # on past step 40 while the gap converges.
    monkeypatch.setattr(distance, "_mixed", _plain_step)
    m = ch.ChoiMatrix.difference(*_corpus_pair("rank2", 7, 0.1))
    res = diamond_norm(m)
    assert res.certified()
    assert 40 < res.iterations <= _MAX_STEPS
    lower, upper = _bracket(m.matrix, m.d_in, m.d_out)
    assert lower <= res.dual_value and res.value <= upper


@pytest.mark.parametrize("pair", [(1, 3, 8), (1, 6, 1)], ids=["hand-over", "fixed-point"])
def test_diamond_norm_is_bit_identical_on_a_rerun(pair, solver_calls):
    seed, d, k = pair
    m = ch.ChoiMatrix.difference(*random_nearby_pair(d, d, rng_for(seed, d, k)))
    assert diamond_norm(m) == diamond_norm(m)
    assert len(solver_calls) == (2 if d == 3 else 0)


@pytest.mark.parametrize("side", ["below-lower", "above-upper", "below-fixed-point", "above-fixed-point"])
def test_diamond_norm_rejects_sdp_interval_outside_the_bracket(monkeypatch, side, solver_calls):
    m = ch.ChoiMatrix.difference(*random_nearby_pair(3, 3, rng_for(1, 3, 8)))
    lower, upper = _bracket(m.matrix, m.d_in, m.d_out)
    assert lower == pytest.approx(bell_probe_value(m), abs=1e-12)
    # The real hand-over, to read off the fixed point's step count.
    real = diamond_norm(m)
    norm = real.value
    (solver_iterations,) = solver_calls.iterations
    assert solver_iterations != 7  # else dropping the solver's count would go unseen
    assert _handed_over(real, solver_iterations)
    steps = real.iterations - solver_iterations
    # A self-consistent "optimal" interval that a faulty solver could print:
    # entirely below the Bell lower bound, or entirely above the |J| bound;
    # or inside that bracket, but outside the fixed point's tighter interval,
    # halfway between the norm and an end of the bracket.
    fake = {
        "below-lower": 0.5 * lower,
        "above-upper": upper + 0.1,
        "below-fixed-point": 0.5 * (lower + norm),
        "above-fixed-point": 0.5 * (norm + upper),
    }[side]

    def wrong_solver(j, d_in, d_out):
        return DiamondSolution(fake, fake, 7, "optimal")

    monkeypatch.setattr(sdp, "solve_diamond", wrong_solver)
    res = diamond_norm(m)
    # iterations counts the loop's steps, then the solver's 7.
    assert res.value == fake and res.iterations == steps + 7
    assert res.status == "max-iters"
    assert not res.certified()


def test_diamond_norm_of_small_generic_map_runs_the_sdp(solver_calls):
    # The bracket must close relative to the norm: at scale 1e-7 a generic
    # gap u - l shrinks below any absolute tolerance, but lambda_max(Tr_out |J|)
    # is still off by O(1) relative to the norm.
    m = ch.ChoiMatrix.difference(*random_nearby_pair(3, 3, rng_for(1, 3, 8)))
    base = diamond_norm(m)
    lower, upper = _bracket(m.matrix, m.d_in, m.d_out)
    assert upper - base.value > 1e-3 * base.value  # generic: the bracket is open
    small = diamond_norm(m.scaled(1e-7))
    assert len(solver_calls) == 2
    assert _handed_over(small, solver_calls.iterations[1])
    assert small.certified()
    assert small.value == pytest.approx(1e-7 * base.value, rel=1e-6)


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3])
@pytest.mark.parametrize(
    "pair, sdp_route",
    [
        (lambda: random_nearby_pair(3, 3, rng_for(1, 3, 8)), True),
        (lambda: (ch.identity(2), ch.depolarizing(2, 0.1)), False),
    ],
    ids=["sdp", "bracket"],
)
def test_rel_gap_is_in_the_maps_own_units(pair, sdp_route, scale, solver_calls):
    # Both routes report the same quantity: the SDP solves at ||J||_2 = 1,
    # but its rel_gap is taken after the interval is scaled back.
    res = diamond_norm(ch.ChoiMatrix.difference(*pair()).scaled(scale))
    assert bool(solver_calls) == sdp_route
    if sdp_route:
        assert _handed_over(res, solver_calls.iterations[0])
    else:
        assert res.iterations == 0
    assert res.certified()
    assert res.rel_gap == (res.value - res.dual_value) / (1.0 + res.value)


# Closed forms that the bracket now certifies in diamond_norm; the solver
# itself must still reproduce them.
_SDP_ORACLE_PAIRS = [(a, b, e) for a, b, e in _BRACKET_PAIRS] + [
    (ch.erasure(3, p), ch.erasure(3, q), _erasure_pair_oracle(p, q))
    for p, q in ((0.0, 1.0), (0.3, 0.55))
] + [
    (ch.erasure(n, 1.0), ch.truncated_classical_example(n), 2.0 / math.log2(n))
    for n in (2, 3, 4)
]


@pytest.mark.parametrize("a,b,expect", _SDP_ORACLE_PAIRS)
def test_sdp_solver_matches_closed_forms(a, b, expect):
    m = ch.ChoiMatrix.difference(a, b)
    res = sdp.solve_diamond(m.matrix, m.d_in, m.d_out)
    assert res.iterations > 0
    assert res.certified()
    assert res.dual_value <= res.value
    assert abs(res.value - expect) <= 1e-6


def test_diamond_norm_homogeneity():
    rng = rng_for(33)
    m = ch.ChoiMatrix.difference(
        random_channel(2, 2, rng), random_channel(2, 2, rng)
    )
    base = diamond_norm(m).value
    for c in (0.5, 2.0, -1.0):
        scaled = diamond_norm(m.scaled(c)).value
        assert abs(scaled - abs(c) * base) <= 1e-6 * (1 + abs(c) * base)


def test_diamond_norm_triangle_and_ceiling():
    rng = rng_for(34)
    for _ in range(3):
        a, b, c = (random_channel(2, 2, rng) for _ in range(3))
        ab = diamond_distance(a, b).value
        bc = diamond_distance(b, c).value
        ac = diamond_distance(a, c).value
        assert ac <= ab + bc + 1e-6
        assert ab <= 2.0 + 1e-6  # channel differences never exceed 2


def test_diamond_norm_mixing_equality():
    rng = rng_for(35)
    n, r = random_channel(2, 2, rng), random_channel(2, 2, rng)
    base = diamond_distance(n, r).value
    for q in (0.1, 0.25):
        mixed = ch.mix([n, r], [1 - q, q])
        res = diamond_distance(n, mixed)
        assert abs(res.value - q * base) <= 1e-6


# ------------------------------------------------------------- probe bounds


def test_probe_is_lower_bound():
    rng = rng_for(36)
    for t in range(10):
        a, b = random_channel(2, 2, rng), random_channel(2, 2, rng)
        m = ch.ChoiMatrix.difference(a, b)
        sdp_val = diamond_norm(m).value
        probe = diamond_lower_probe(m, trials=20, seed=100 + t)
        assert probe <= sdp_val + 1e-6
        assert probe >= 0.0


def test_probe_zero_map():
    m = ch.ChoiMatrix.difference(ch.identity(2), ch.identity(2))
    assert diamond_lower_probe(m, trials=5, seed=0) == 0.0


def test_probe_seeded_determinism():
    m = ch.ChoiMatrix.difference(ch.identity(2), ch.dephasing(0.3))
    a = diamond_lower_probe(m, trials=7, seed=42)
    b = diamond_lower_probe(m, trials=7, seed=42)
    assert a == b


@pytest.mark.parametrize("d, seed", [(2, 42), (3, 7), (4, 2**64)])
def test_probe_equals_the_best_haar_state_probe(d, seed):
    # diamond_lower_probe reads its seed once and draws haar_state's raw
    # vector from each trial's stream; the value is the validated loop's.
    m = ch.ChoiMatrix.difference(*random_nearby_pair(d, d, rng_for(seed, d)))
    probes = [probe_value(m, haar_state(d * d, rng_for(seed, t), dims=(d, d))) for t in range(6)]
    assert diamond_lower_probe(m, trials=1, seed=seed) == probes[0]
    assert diamond_lower_probe(m, trials=6, seed=seed) == max(probes)


def test_probe_validates_input():
    m = ch.ChoiMatrix.difference(ch.identity(2), ch.dephasing(0.3))
    with pytest.raises(ArgumentError):
        probe_value(m, maximally_entangled(3))
    with pytest.raises(ArgumentError):
        diamond_lower_probe(m, trials=0, seed=1)


def test_probe_value_matches_kraus_kron_oracle():
    # (Phi_a (x) I)(psi) - (Phi_b (x) I)(psi) built from each channel's own
    # Kraus operators; d_ref = 4 also differs from d_in = 2 and d_out = 3.
    rng = rng_for(37)
    a, b = random_channel(2, 3, rng), random_channel(2, 3, rng)
    m = ch.ChoiMatrix.difference(a, b)
    for d_ref in (3, 4):
        psi = haar_state(2 * d_ref, rng, dims=(2, d_ref))
        proj = np.outer(psi.vector, psi.vector.conj())
        diff = np.zeros((3 * d_ref, 3 * d_ref), dtype=complex)
        for chan, sign in ((a, 1.0), (b, -1.0)):
            for k in chan.kraus:
                big = np.kron(k, np.eye(d_ref))
                diff += sign * big @ proj @ big.conj().T
        expect = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
        assert abs(probe_value(m, psi) - expect) <= 1e-12
