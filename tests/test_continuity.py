"""Tests for the continuity bounds and the verification harness.

Oracles come first: direct formula arithmetic with an independently
frozen H(1/4), the closed-form diamond distance of the identity vs
depolarizing pair, and the 2/log n envelope of the truncation family.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capcont.channels import (
    _apply_full,
    apply_extended,
    complementary,
    dephasing,
    depolarizing,
    erasure,
    identity,
    tensor_power,
    truncated_classical_example,
)
from capcont import continuity
from capcont.continuity import (
    BoundReport,
    CorollarySettings,
    af_bound,
    capacity_difference_bounds,
    discontinuity_demo,
    fannes_bound,
    hybrid_sequence,
    output_entropy_bound,
    random_nearby_pair,
    regularized_gap_bound,
    verify_af,
    verify_capacity_differences,
    verify_fannes,
    verify_output_entropy,
)
from capcont.distance import diamond_distance, trace_distance
from capcont.entropic import (
    TAU_ENT,
    Ensemble,
    _holevo,
    coherent_information,
    conditional_entropy,
    entropy_of_matrix,
    holevo_information,
    von_neumann_entropy,
)
from capcont.errors import ArgumentError
from capcont.linalg import TAU_TR, DensityMatrix
from capcont.sampling import haar_state, random_channel, random_density_matrix, rng_for

H_QUARTER = 0.8112781244591328  # binary entropy of 1/4, frozen independently


def _shannon2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_fannes_bound_formula_arithmetic():
    assert abs(fannes_bound(0.5, 2) - 1.5) <= 1e-15
    assert fannes_bound(0.0, 8) == 0.0
    # Independent arithmetic for a generic point.
    assert abs(fannes_bound(0.25, 4) - (0.25 * 2 + _shannon2(0.25))) <= 1e-12


def test_af_and_output_entropy_bound_arithmetic():
    assert abs(af_bound(0.25, 2) - (1.0 + 2 * H_QUARTER)) <= 1e-12
    oracle = 2 * (4 * 0.25 * 1.0 + 2 * H_QUARTER)  # = 2 + 4 H(1/4)
    assert abs(output_entropy_bound(2, 0.25, 2) - oracle) <= 1e-12
    assert abs(oracle - 5.245112497836532) <= 1e-12
    for n in (1, 2, 5):
        assert output_entropy_bound(n, 0.0, 4) == 0.0


def test_capacity_difference_bounds_examples():
    zero = capacity_difference_bounds(0.0, 2)
    assert zero == {"classical": 0.0, "quantum": 0.0, "private": 0.0}
    vals = capacity_difference_bounds(0.25, 2)
    assert abs(vals["classical"] - (2.0 + 4 * H_QUARTER)) <= 1e-12
    assert vals["quantum"] == vals["classical"]
    assert abs(vals["private"] - 2 * vals["classical"]) <= 1e-15


@given(
    eps=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    d=st.integers(min_value=2, max_value=64),
)
def test_private_bound_doubles_classical(eps, d):
    vals = capacity_difference_bounds(eps, d)
    assert vals["private"] == 2 * vals["classical"]
    assert vals["quantum"] == vals["classical"]


@given(
    e1=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    e2=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    n=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=2, max_value=32),
)
def test_bound_monotonicity(e1, e2, n, d):
    lo, hi = min(e1, e2), max(e1, e2)
    assert output_entropy_bound(n, lo, d) <= output_entropy_bound(n, hi, d) + 1e-12
    assert output_entropy_bound(n, lo, d) <= output_entropy_bound(n + 1, lo, d)
    assert output_entropy_bound(n, lo, d) <= output_entropy_bound(n, lo, d + 1) + 1e-12


def test_bound_argument_validation():
    with pytest.raises(ArgumentError):
        fannes_bound(-0.1, 2)
    with pytest.raises(ArgumentError):
        af_bound(1.1, 2)
    with pytest.raises(ArgumentError):
        fannes_bound(0.2, 1)
    with pytest.raises(ArgumentError):
        output_entropy_bound(0, 0.2, 2)


def test_regularized_gap_bound_on_synthetic_families():
    # f_n gaps of the form n*a + b have per-copy gaps a + b/n, so the
    # certified constant is attained at n = 1 and dominates the limit a.
    a, b = 0.3, 0.2
    gaps = [(n, n * a + b) for n in (1, 2, 4, 8)]
    c = regularized_gap_bound(gaps)
    assert abs(c - (a + b)) <= 1e-15
    assert a <= c
    # Constant per-copy families certify their own constant.
    assert regularized_gap_bound([(n, 0.7 * n) for n in (1, 3, 5)]) == 0.7
    with pytest.raises(ArgumentError):
        regularized_gap_bound([])
    with pytest.raises(ArgumentError):
        regularized_gap_bound([(0, 0.1)])
    with pytest.raises(ArgumentError):
        regularized_gap_bound([(1, -0.1)])


def test_hybrid_sequence_identical_channels():
    phi = haar_state(16, rng_for(4), dims=(4, 2, 2))
    hs = hybrid_sequence(identity(2), identity(2), phi, 2)
    assert hs.n == 2
    assert all(d <= 1e-12 for d in hs.step_differences)
    assert all(d <= 1e-12 for d in hs.step_distances)
    assert hs.endpoint_entropy_difference <= 1e-12


def test_hybrid_sequence_n1_is_the_channel_pair():
    phi = haar_state(4, rng_for(5), dims=(2, 2))
    hs = hybrid_sequence(identity(2), depolarizing(2, 0.2), phi, 1)
    rho = phi.density()
    out_n = apply_extended(identity(2), rho, [1])
    out_m = apply_extended(depolarizing(2, 0.2), rho, [1])
    assert np.allclose(hs.states[0].matrix, out_n.matrix, atol=1e-12)
    assert np.allclose(hs.states[1].matrix, out_m.matrix, atol=1e-12)


def test_hybrid_sequence_step_bounds_random_qubit_pair():
    rng = rng_for(12)
    ch_n, ch_m = random_nearby_pair(2, 2, rng)
    eps = diamond_distance(ch_n, ch_m).value
    step_bound = af_bound(eps, ch_n.d_out)
    for t in range(5):
        phi = haar_state(16, rng_for(12, t), dims=(4, 2, 2))
        hs = hybrid_sequence(ch_n, ch_m, phi, 2)
        # Consecutive states differ by at most the diamond distance.
        assert all(d <= eps + TAU_TR for d in hs.step_distances)
        # Each step obeys the single-slot bound; the telescoping sum
        # dominates the endpoint difference.
        assert all(d <= step_bound + TAU_ENT for d in hs.step_differences)
        assert hs.endpoint_entropy_difference <= sum(hs.step_differences) + TAU_ENT


def test_hybrid_sequence_input_validation():
    phi = haar_state(8, rng_for(6), dims=(2, 2, 2))
    with pytest.raises(ArgumentError):
        hybrid_sequence(identity(2), identity(2), phi, 3)
    with pytest.raises(ArgumentError):
        hybrid_sequence(identity(2), identity(3), phi, 2)
    with pytest.raises(ArgumentError):
        hybrid_sequence(identity(3), identity(3), phi, 2)


def test_verify_output_entropy_rejects_mismatched_pair():
    # eps given, so no diamond distance checks the dimensions first
    for other in (identity(3), erasure(2, 0.1)):
        with pytest.raises(ArgumentError):
            verify_output_entropy(identity(2), other, 1, trials=1, eps=0.1)


def test_verify_output_entropy_identical_pair_collapses():
    reports = verify_output_entropy(identity(2), identity(2), 1, trials=5, seed=2)
    assert all(r.epsilon == 0.0 for r in reports)
    assert all(r.measured <= TAU_ENT for r in reports)
    assert not any(r.violated for r in reports)


def test_verify_output_entropy_depolarizing_pair():
    # Oracle: the diamond distance of identity vs depolarizing(2, q) is
    # 3q/2, confirmed here against the certified SDP value.
    q = 0.2
    reports = verify_output_entropy(identity(2), depolarizing(2, q), 2, trials=10, seed=3)
    assert abs(reports[0].epsilon - 1.5 * q) <= 1e-6
    assert len(reports) == 10
    assert all(r.n == 2 and r.d_b == 2 for r in reports)
    assert not any(r.violated for r in reports)
    assert all(r.margin == r.bound - r.measured for r in reports)


def test_verify_output_entropy_truncated_pair():
    n = 4
    ch_ref = erasure(n, 1.0)
    ch_trunc = truncated_classical_example(n)
    reports = verify_output_entropy(ch_ref, ch_trunc, 1, trials=5, seed=8)
    assert reports[0].epsilon <= 2.0 / math.log2(n) + 1e-6
    assert not any(r.violated for r in reports)


def test_verify_capacity_differences_identical_pair():
    reports = verify_capacity_differences(
        identity(2), identity(2), CorollarySettings(trials=3, seed=5)
    )
    assert all(r.measured <= 1e-9 for r in reports)
    assert not any(r.violated for r in reports)


def test_verify_capacity_differences_depolarizing_pair():
    settings = CorollarySettings(trials=5, seed=6)
    reports = verify_capacity_differences(identity(2), depolarizing(2, 0.1), settings)
    assert abs(reports[0].epsilon - 0.15) <= 1e-6
    names = {r.quantity_name for r in reports}
    assert names == {"holevo-term", "coherent-term", "private-term"}
    for r in reports:
        expected = (4.0 if r.quantity_name == "private-term" else 2.0) * af_bound(
            r.epsilon, 2
        )
        assert abs(r.bound - expected) <= 1e-12
        assert not r.violated
    # The spec anchor: the fixed coherent-information difference at the
    # maximally entangled input obeys the doubled single-slot bound.
    bell = DensityMatrix.from_pure(np.eye(2).reshape(-1) / math.sqrt(2), dims=(2, 2))
    gap = abs(
        coherent_information(identity(2), bell)
        - coherent_information(depolarizing(2, 0.1), bell)
    )
    assert gap <= 2.0 * af_bound(0.15, 2) + TAU_ENT


def test_verify_capacity_differences_optimized_reports_are_soft():
    settings = CorollarySettings(trials=1, seed=7, optimized=True, restarts=2, iters=200)
    reports = verify_capacity_differences(identity(2), depolarizing(2, 0.05), settings)
    soft = [r for r in reports if not r.hard]
    assert {r.quantity_name for r in soft} == {
        "optimized-classical-gap",
        "optimized-quantum-gap",
        "optimized-private-gap",
    }
    # Soft reports never count as violations, whatever their margin.
    assert not any(r.violated for r in soft)


def test_random_nearby_pair_distance_is_controlled():
    rng = rng_for(14)
    for _ in range(3):
        ch_n, ch_m = random_nearby_pair(2, 2, rng)
        eps = diamond_distance(ch_n, ch_m).value
        assert 0.0 < eps <= 0.6 + 1e-6  # q <= 0.3, distance <= 2q


def test_discontinuity_demo_trend():
    rows = discontinuity_demo([2, 4, 8])
    assert [r["n"] for r in rows] == [2, 4, 8]
    for row in rows:
        assert row["diamond_eps"] <= row["two_over_log_n"] + 1e-6
        assert abs(row["classical_lb"] - 1.0) <= 1e-9
        assert row["quantum_lb"] >= 1.0 - 1e-9
        # The capacity gap (reference capacities vanish) stays within the
        # finite-dimensional bound: no contradiction at any fixed n.
        assert row["classical_lb"] <= row["corollary_bound"]
        assert row["quantum_lb"] <= row["corollary_bound"]
    # The distance shrinks while the lower bounds stay pinned at 1.
    eps_vals = [r["diamond_eps"] for r in rows]
    assert eps_vals == sorted(eps_vals, reverse=True)


def test_discontinuity_demo_matches_closed_form_to_n16():
    # Each truncation pair is covariant, so its closed-form bracket closes
    # and no row pays for an n_c = n(n+1) interior-point solve.
    rows = discontinuity_demo(range(2, 17))
    assert [r["n"] for r in rows] == list(range(2, 17))
    for row in rows:
        assert abs(row["diamond_eps"] - 2.0 / math.log2(row["n"])) <= 1e-12


def test_discontinuity_demo_validation():
    with pytest.raises(ArgumentError):
        discontinuity_demo([1])


# Reference harness: the per-trial loops that validate every state, kept
# to pin the stacked harnesses to them bit for bit.


def _ref_mixed_state_pair(d, rng, dims=None):
    rho = random_density_matrix(d, rng, dims=dims)
    tau = random_density_matrix(d, rng, dims=dims)
    lam = 0.25 * rng.random()
    sigma = DensityMatrix((1.0 - lam) * rho.matrix + lam * tau.matrix, rho.dims)
    return rho, sigma, trace_distance(rho, sigma)


def _ref_fannes(dims, trials, seed):
    rows = []
    for d in dims:
        for t in range(trials):
            rho, sigma, eps = _ref_mixed_state_pair(d, rng_for(seed, d, t))
            measured = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
            rows.append((measured, fannes_bound(eps, d), eps, d, f"d {d}, trial {t}"))
    return rows


def _ref_af(dim_pairs, trials, seed):
    rows = []
    for d_a, d_b in dim_pairs:
        for t in range(trials):
            rho, sigma, eps = _ref_mixed_state_pair(
                d_a * d_b, rng_for(seed, d_a, d_b, t), dims=(d_a, d_b)
            )
            measured = abs(conditional_entropy(rho) - conditional_entropy(sigma))
            rows.append(
                (measured, af_bound(eps, d_a), eps, d_a, f"d_a {d_a} x d_b {d_b}, trial {t}")
            )
    return rows


def _rows(reports):
    return [(r.measured, r.bound, r.epsilon, r.d_b, r.detail) for r in reports]


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_fannes_matches_per_trial_reference(seed):
    # d = 8 and 16 take the row-by-row entropy path, d < 8 the masked sum.
    dims = (2, 3, 7, 8, 16)
    assert _rows(verify_fannes(dims, trials=30, seed=seed)) == _ref_fannes(dims, 30, seed)


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_af_matches_per_trial_reference(seed):
    pairs = ((2, 2), (2, 3), (4, 2), (2, 8), (4, 4))
    assert _rows(verify_af(pairs, trials=20, seed=seed)) == _ref_af(pairs, 20, seed)


def test_harnesses_across_trial_blocks_match_per_trial_reference():
    # Two blocks, the second partial: block edges must not move any report.
    trials = continuity._TRIAL_BLOCK + 7
    assert _rows(verify_fannes((3, 8), trials, seed=2)) == _ref_fannes((3, 8), trials, 2)
    assert _rows(verify_af(((2, 3),), trials, seed=2)) == _ref_af(((2, 3),), trials, 2)


@pytest.mark.parametrize("harness,args", [
    (verify_fannes, {"dims": (16,)}),
    (verify_af, {"dim_pairs": ((4, 4),)}),
])
def test_harness_memory_is_bounded_in_the_trial_count(harness, args):
    # The trials are measured one block at a time, so only the reports grow
    # with the trial count; stacking every trial at once grew ~30 kB a trial.
    def peak(trials):
        tracemalloc.start()
        try:
            harness(trials=trials, **args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1024) <= 1.5 * peak(256)


def test_harnesses_with_zero_trials_return_nothing():
    assert verify_fannes(trials=0) == []
    assert verify_af(trials=0) == []
    with pytest.raises(ArgumentError):
        verify_fannes(dims=(1,), trials=0)


def _ref_holevo(ch, ens):
    avg = np.zeros((ch.d_out, ch.d_out), dtype=complex)
    mean_s = 0.0
    for p, state in ens.items:
        if p <= 0.0:
            continue
        out = _apply_full(ch.kraus, state.matrix)
        avg += p * out
        mean_s += p * entropy_of_matrix(out)
    return entropy_of_matrix(avg) - mean_s


def test_stacked_corollary_terms_match_per_trial_reference():
    ch_n, ch_m, n, trials, size, seed = dephasing(0.1), depolarizing(2, 0.1), 2, 4, 3, 3
    settings = CorollarySettings(n=n, trials=trials, ensemble_size=size, seed=seed)
    got = [
        (r.quantity_name, r.measured, r.bound, r.detail)
        for r in verify_capacity_differences(ch_n, ch_m, settings)
    ]
    step = got[0][2] / 2.0
    pow_n, pow_m = tensor_power(ch_n, n), tensor_power(ch_m, n)
    env_n, env_m = complementary(pow_n), complementary(pow_m)
    want = []
    for t in range(trials):
        rng = rng_for(seed, t)
        probs = rng.dirichlet(np.ones(size))
        ens = Ensemble([
            (float(p), DensityMatrix.from_pure(rng.normal(size=4) + 1j * rng.normal(size=4)))
            for p in probs
        ])
        rho = random_density_matrix(16, rng, dims=(4, 4))
        chi_n, chi_m = _ref_holevo(pow_n, ens), _ref_holevo(pow_m, ens)
        priv_n = chi_n - _ref_holevo(env_n, ens)
        priv_m = chi_m - _ref_holevo(env_m, ens)
        coh = coherent_information(pow_n, rho) - coherent_information(pow_m, rho)
        want += [
            ("holevo-term", abs(chi_n - chi_m), 2.0 * step, f"trial {t}"),
            ("coherent-term", abs(coh), 2.0 * step, f"trial {t}"),
            ("private-term", abs(priv_n - priv_m), 4.0 * step, f"trial {t}"),
        ]
    assert got == want


def test_holevo_kernel_on_a_stack_equals_per_ensemble_values():
    rng = rng_for(21)
    for ch in (depolarizing(2, 0.3), random_channel(3, 4, rng), complementary(erasure(3, 0.2))):
        k, m, d = 5, 3, ch.d_in
        states = np.array([
            [random_density_matrix(d, rng, rank=1 + (i + j) % d).matrix for j in range(m)]
            for i in range(k)
        ])
        probs = rng.dirichlet(np.ones(m), size=k)
        stacked = _holevo(ch.kraus, probs, states)
        ensembles = [
            Ensemble([(float(p), DensityMatrix(s)) for p, s in zip(ps, ss)])
            for ps, ss in zip(probs, states)
        ]
        assert stacked.shape == (k,)
        assert np.array_equal(stacked, [holevo_information(ch, e) for e in ensembles])
        assert np.array_equal(stacked, [_ref_holevo(ch, e) for e in ensembles])


def test_rng_for_rejects_negative_seed_or_branch():
    for args in ((-1,), (0, -2), (3, 1, -1)):
        with pytest.raises(ArgumentError):
            rng_for(*args)
    assert rng_for(2**64, 0).random() == rng_for(2**64, 0).random()
