"""Tests for the continuity bounds and the verification harness.

Oracles come first: direct formula arithmetic with an independently
frozen H(1/4), the closed-form diamond distance of the identity vs
depolarizing pair, and the 2/log n envelope of the truncation family.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capcont.channels import (
    ChoiMatrix,
    _apply_on_factors,
    _kraus_images,
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
    af_bound,
    capacity_difference_bounds,
    discontinuity_demo,
    fannes_bound,
    hybrid_sequence,
    output_entropy_bound,
    random_nearby_pair,
    verify_af,
    verify_capacity_differences,
    verify_fannes,
    verify_output_entropy,
)
from capcont.distance import diamond_distance, diamond_lower_probe, trace_distance
from capcont.entropic import (
    TAU_ENT,
    Ensemble,
    _coherent_information,
    _holevo,
    binary_entropy,
    coherent_information,
    conditional_entropy,
    entropy_of_matrix,
    holevo_information,
    von_neumann_entropy,
)
from capcont.errors import ArgumentError, DimensionError
from capcont.linalg import TAU_TR, DensityMatrix
from capcont.sampling import _stream, haar_state, random_channel, random_density_matrix, rng_for

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


def test_verify_capacity_differences_rejects_mismatched_pair():
    # eps given: the pair check, not a failed product, refuses the pair
    for other in (identity(3), erasure(2, 0.1)):
        with pytest.raises(ArgumentError, match="share input and output dimensions"):
            verify_capacity_differences(identity(2), other, eps=0.1)


def test_pair_harnesses_refuse_zero_copies_before_measuring(monkeypatch):
    def unreachable(*args):
        raise AssertionError("diamond_distance ran before the copy count was checked")

    monkeypatch.setattr(continuity, "diamond_distance", unreachable)
    pair = (identity(2), depolarizing(2, 0.1))
    with pytest.raises(ArgumentError, match="^n 0 must be >= 1$"):
        verify_capacity_differences(*pair, n=0)
    with pytest.raises(ArgumentError, match="^n 0 must be >= 1$"):
        verify_output_entropy(*pair, n=0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda bad: fannes_bound(0.1, bad), "d"),
        (lambda bad: af_bound(0.1, bad), "d_a"),
        (lambda bad: output_entropy_bound(bad, 0.1, 2), "n"),
        (lambda bad: verify_fannes(dims=(bad,), trials=1), "dims"),
        (lambda bad: verify_af(dim_pairs=((2, bad),), trials=1), "d_b"),
        (lambda bad: verify_output_entropy(identity(2), identity(2), n=bad, trials=1), "n"),
        (lambda bad: verify_capacity_differences(identity(2), identity(2), n=bad), "n"),
        (lambda bad: discontinuity_demo([bad]), "n_values"),
        (lambda bad: output_entropy_bound(2, 0.1, bad), "d_b"),
        (lambda bad: capacity_difference_bounds(0.1, bad), "d_b"),
    ],
    ids=["fannes", "af", "output-bound", "verify-fannes", "verify-af", "theorem3",
         "corollaries", "discontinuity", "output-bound-d-b", "capacity-bounds-d-b"],
)
def test_non_integral_dimensions_and_copy_counts_are_refused(call, name):
    # int() would truncate: 2.5 -> the d = 2 bound or 2 copies, 2.9 -> n = 2.
    for bad in (2.5, 2.9, 3.0, True):
        with pytest.raises(ArgumentError, match=f"^{name} must be an integer, got {bad!r}$"):
            call(bad)


def test_a_bound_dimension_below_two_is_refused_under_its_own_name():
    # The n-copy and capacity bounds read d_b themselves, not through
    # af_bound, whose argument is d_a.
    for call, name in (
        (lambda: fannes_bound(0.1, 1), "d"),
        (lambda: af_bound(0.1, 1), "d_a"),
        (lambda: output_entropy_bound(2, 0.1, 1), "d_b"),
        (lambda: capacity_difference_bounds(0.1, 1), "d_b"),
    ):
        with pytest.raises(ArgumentError, match=f"^{name} 1 must be >= 2$"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda trials: verify_fannes(dims=(2,), trials=trials),
        lambda trials: verify_af(dim_pairs=((2, 2),), trials=trials),
        lambda trials: diamond_lower_probe(
            ChoiMatrix.difference(identity(2), depolarizing(2, 0.1)), trials, 0),
        lambda trials: verify_output_entropy(identity(2), identity(2), trials=trials),
        lambda trials: verify_capacity_differences(identity(2), identity(2), trials=trials),
    ],
    ids=["verify-fannes", "verify-af", "diamond-lower-probe", "theorem3", "corollaries"],
)
@pytest.mark.parametrize("bad", [2.5, 2.9, 2.0, True, False])
def test_non_integral_trial_counts_are_refused(call, bad):
    # int() would run 2 trials for 2.9; range() would raise a raw TypeError.
    with pytest.raises(ArgumentError, match=f"^trials must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda trials: verify_fannes(dims=(2,), trials=trials),
        lambda trials: verify_af(dim_pairs=((2, 2),), trials=trials),
        lambda trials: verify_output_entropy(identity(2), identity(2), trials=trials, eps=0.0),
        lambda trials: verify_capacity_differences(identity(2), identity(2), trials=trials,
                                                   eps=0.0),
    ],
    ids=["verify-fannes", "verify-af", "theorem3", "corollaries"],
)
def test_negative_trial_counts_are_refused_and_zero_gives_no_reports(call):
    # range() of a negative count used to give an empty report list silently.
    with pytest.raises(ArgumentError, match="^trials -1 must be >= 0$"):
        call(-1)
    assert call(0) == []


def test_numpy_integer_dimensions_and_copy_counts_pass():
    assert fannes_bound(0.1, np.int64(4)) == fannes_bound(0.1, 4)
    assert af_bound(0.1, np.int32(3)) == af_bound(0.1, 3)
    assert output_entropy_bound(np.uint8(2), 0.1, 2) == output_entropy_bound(2, 0.1, 2)
    assert discontinuity_demo([np.int64(2)]) == discontinuity_demo([2])
    reports = verify_output_entropy(identity(2), identity(2), n=np.int64(2), trials=1)
    assert reports == verify_output_entropy(identity(2), identity(2), n=2, trials=1)
    assert verify_fannes(dims=(2,), trials=np.int64(3)) == verify_fannes(dims=(2,), trials=3)


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


NEARBY_PAIR = random_nearby_pair(2, 2, rng_for(5, 2, 0))
assert [len(c.kraus) for c in NEARBY_PAIR] == [4, 4]  # the mix side's 8 stored as its Choi rank


def _ref_output_entropy(ch_n, ch_m, n, trials, seed):
    """Per-trial output-entropy differences from the formed n-copy outputs."""
    dims = (ch_n.d_in**n,) + (ch_n.d_in,) * n
    measured = []
    for t in range(trials):
        v = haar_state(ch_n.d_in ** (2 * n), rng_for(seed, t), dims=dims).vector
        rho = np.outer(v, v.conj())
        s_n, s_m = (
            entropy_of_matrix(_apply_on_factors(ch.kraus, rho, dims, range(1, n + 1))[0])
            for ch in (ch_n, ch_m)
        )
        measured.append(abs(s_n - s_m))
    return measured


@pytest.mark.parametrize("pair,copies", [
    # The pairs and copy counts of the benchmark's harness workload.
    ((identity(2), depolarizing(2, 0.1)), (1, 2, 3)),
    ((identity(3), depolarizing(3, 0.1)), (1, 2)),
    ((dephasing(0.1), depolarizing(2, 0.1)), (1, 2, 3)),
    # The mix side was built from 8 Kraus operators, more than
    # d_in d_out = 4, and is stored in Choi-rank form.
    (NEARBY_PAIR, (2,)),
    # d_out = 3 != d_in = 2.
    ((erasure(2, 0.1), erasure(2, 0.3)), (1, 2)),
])
def test_output_entropy_from_the_gram_matches_the_formed_outputs(pair, copies):
    for n in copies:
        reports = verify_output_entropy(*pair, n, trials=50, seed=1, eps=0.1)
        ref = _ref_output_entropy(*pair, n, 50, 1)
        assert max(abs(r.measured - m) for r, m in zip(reports, ref)) <= 1e-12
        assert [r.detail for r in reports] == [f"trial {t}" for t in range(50)]
    assert verify_output_entropy(*pair, copies[0], trials=0, eps=0.1) == []


def _ref_stack_output_entropy(ch_n, ch_m, n, trials, seed):
    """Per-trial output-entropy differences, each trial measured alone from its Gram matrix."""
    dims = (ch_n.d_in**n,) + (ch_n.d_in,) * n
    measured = []
    for t in range(trials):
        v = haar_state(ch_n.d_in ** (2 * n), rng_for(seed, t), dims=dims).vector
        s_n, s_m = (
            entropy_of_matrix(y.conj().T @ y)
            for y in (_kraus_images(ch.kraus, v, dims) for ch in (ch_n, ch_m))
        )
        measured.append(abs(s_n - s_m))
    return measured


@pytest.mark.parametrize("pair,copies,trials,entries", [
    # The benchmark's harness pairs, at one to three copies: at three qubit
    # copies the default budget holds two trials a stack, and at three
    # qutrit copies, with 729 x 729 Kraus images, one.
    ((identity(2), depolarizing(2, 0.1)), (1, 2, 3), 50, continuity._STACK_ENTRIES),
    ((identity(3), depolarizing(3, 0.1)), (1, 2), 50, continuity._STACK_ENTRIES),
    ((identity(3), depolarizing(3, 0.1)), (3,), 3, continuity._STACK_ENTRIES),
    ((dephasing(0.1), depolarizing(2, 0.1)), (1, 2, 3), 50, continuity._STACK_ENTRIES),
    # The mix side is stored in Choi-rank form.
    (NEARBY_PAIR, (1, 2), 50, continuity._STACK_ENTRIES),
    # d_out = 3 != d_in = 2.
    ((erasure(2, 0.1), erasure(2, 0.3)), (1, 2), 50, continuity._STACK_ENTRIES),
    # Two qubit copies take 16 x 4^2 images a trial, so 100 entries hold 6
    # trials: three full stacks and a partial one.
    ((identity(2), depolarizing(2, 0.1)), (2,), 20, 100),
])
def test_stacked_output_entropy_matches_per_trial_reference(pair, copies, trials, entries, monkeypatch):
    # Equal, not close: stacking the trials must not move a report.
    monkeypatch.setattr(continuity, "_STACK_ENTRIES", entries)
    for n in copies:
        reports = verify_output_entropy(*pair, n, trials=trials, seed=1, eps=0.1)
        assert [r.measured for r in reports] == _ref_stack_output_entropy(*pair, n, trials, 1)
        assert [r.detail for r in reports] == [f"trial {t}" for t in range(trials)]
    assert verify_output_entropy(*pair, copies[0], trials=0, eps=0.1) == []


def test_identical_channels_measure_exactly_zero():
    reports = verify_output_entropy(identity(3), identity(3), n=2, trials=5, eps=0.0)
    assert [r.measured for r in reports] == [0.0] * 5


def test_output_entropy_never_forms_the_output_square():
    # At n = 5 the qubit output space is 2^10: one formed 1024 x 1024
    # complex matrix alone would take 16 MiB.
    tracemalloc.start()
    try:
        verify_output_entropy(identity(2), dephasing(0.1), n=5, trials=2, eps=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_output_entropy_memory_is_bounded_by_the_choi_rank():
    # A qubit channel drawn with 32 Kraus operators: at n = 3 an unreduced
    # Y would be 64 x 32^3 complex, 32 MiB; stored as its Choi rank, 4 per
    # copy, it is 64 x 64.
    many = random_channel(2, 2, rng_for(6), kraus_count=32)
    ref = _ref_output_entropy(identity(2), many, 3, 2, 0)
    tracemalloc.start()
    try:
        reports = verify_output_entropy(identity(2), many, n=3, trials=2, eps=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert max(abs(r.measured - m) for r, m in zip(reports, ref)) <= 1e-12


def test_verify_output_entropy_truncated_pair():
    n = 4
    ch_ref = erasure(n, 1.0)
    ch_trunc = truncated_classical_example(n)
    reports = verify_output_entropy(ch_ref, ch_trunc, 1, trials=5, seed=8)
    assert reports[0].epsilon <= 2.0 / math.log2(n) + 1e-6
    assert not any(r.violated for r in reports)


def test_verify_capacity_differences_identical_pair():
    reports = verify_capacity_differences(identity(2), identity(2), trials=3, seed=5)
    assert all(r.measured <= 1e-9 for r in reports)
    assert not any(r.violated for r in reports)


def test_verify_capacity_differences_depolarizing_pair():
    reports = verify_capacity_differences(identity(2), depolarizing(2, 0.1), trials=5, seed=6)
    assert abs(reports[0].epsilon - 0.15) <= 1e-6
    names = {r.quantity_name for r in reports}
    assert names == {"holevo-term", "coherent-term", "private-term"}
    for r in reports:
        assert abs(r.bound - 2.0 * af_bound(r.epsilon, 2)) <= 1e-12
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
    reports = verify_capacity_differences(
        identity(2), depolarizing(2, 0.05), trials=1, seed=7, optimized=True
    )
    soft = [r for r in reports if not r.hard]
    # Over pure-state ensembles the private proxy is the coherent one, so
    # the optimized pass has no private row: three hard rows, then two soft.
    assert len(reports) == 3 + 2
    assert [r.quantity_name for r in soft] == ["optimized-classical-gap", "optimized-quantum-gap"]
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


def test_discontinuity_demo_refuses_an_oversized_family_before_any_row():
    # n = 64 is the first member past D_MAX; no row from n = 2 on is computed.
    start = time.perf_counter()
    with pytest.raises(DimensionError, match="Choi dimension 4160 exceeds D_MAX"):
        discontinuity_demo(range(2, 100))
    assert time.perf_counter() - start < 1.0


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
    # d = 8 and 16 sum their spectra pairwise, d < 8 one term at a time.
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
    (verify_output_entropy, {"ch_n": identity(2), "ch_m": depolarizing(2, 0.1), "n": 3, "eps": 0.1}),
])
def test_harness_memory_is_bounded_in_the_trial_count(harness, args):
    # The trials are measured one block or budgeted stack at a time, so only
    # the reports grow with the trial count; stacking every trial at once
    # grew ~30 kB a trial.
    def peak(trials):
        tracemalloc.start()
        try:
            harness(trials=trials, **args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1024) <= 1.5 * peak(256)


def test_n_copy_harnesses_refuse_oversized_states_before_drawing():
    # At n = 7 on qubits the reference (x) input state is 2^14 square.
    with pytest.raises(DimensionError):
        verify_output_entropy(identity(2), depolarizing(2, 0.1), n=7, trials=0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError):
            verify_capacity_differences(identity(2), depolarizing(2, 0.1), n=7, trials=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_harnesses_with_zero_trials_return_nothing():
    assert verify_fannes(trials=0) == []
    assert verify_af(trials=0) == []
    with pytest.raises(ArgumentError):
        verify_fannes(dims=(1,), trials=0)


def _plain_apply(kraus, mat):
    # sum_k K mat K^dag in plain numpy.
    return sum(k @ mat @ k.conj().T for k in kraus)


def _ref_holevo(ch, ens):
    # The square arithmetic: each state through the channel, as a matrix.
    avg = np.zeros((ch.d_out, ch.d_out), dtype=complex)
    mean_s = 0.0
    for p, state in ens.items:
        if p <= 0.0:
            continue
        out = _plain_apply(ch.kraus, state.matrix)
        avg += p * out
        mean_s += p * entropy_of_matrix(out)
    return entropy_of_matrix(avg) - mean_s


_PRIVATE_DETAIL = "trial {}: coherent information of the purification, held to the coherent-term bound"


def test_stacked_corollary_terms_match_per_trial_reference():
    # The reference measures the private term with four Holevo quantities,
    # two on the complementary channels of the n-fold powers. The harness
    # takes it as the coherent information of the ensemble's purification,
    # the same number up to rounding. The coherent term applies one channel
    # copy to each input factor, as the harness does, and the Holevo term
    # takes the Kraus images of the ensemble's blocks with the single-copy
    # family, so both are held to ==; the Holevo term is also held to the
    # square arithmetic on the n-fold power within 1e-12, and
    # test_per_copy_coherent_information_matches_the_power_family holds the
    # per-copy routes to the power family within 1e-12.
    size = continuity._ENSEMBLE_SIZE  # 2, fixed in the library
    pairs = [(dephasing(0.1), depolarizing(2, 0.1)), random_nearby_pair(3, 2, rng_for(4))]
    for (ch_n, ch_m), n, trials, seed in zip(pairs, (2, 2), (4, 3), (3, 8)):
        reports = verify_capacity_differences(ch_n, ch_m, n=n, trials=trials, seed=seed)
        got = [(r.quantity_name, r.measured, r.bound, r.detail) for r in reports]
        step = got[0][2] / 2.0
        pow_n, pow_m = tensor_power(ch_n, n), tensor_power(ch_m, n)
        env_n, env_m = complementary(pow_n), complementary(pow_m)
        d = ch_n.d_in**n
        want, square = [], []
        for t in range(trials):
            rng = rng_for(seed, t)
            probs = rng.dirichlet(np.ones(size))
            vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in probs]
            vecs = np.array([v / np.linalg.norm(v) for v in vecs])
            ens = Ensemble([(float(p), DensityMatrix.from_pure(v)) for p, v in zip(probs, vecs)])
            blocks = np.sqrt(probs)[:, None] * vecs
            rho = random_density_matrix(d * d, rng, dims=(d,) + (ch_n.d_in,) * n)
            chi_n, chi_m = (_holevo(ch.kraus, probs, blocks, (1,) + (ch.d_in,) * n)
                            for ch in (ch_n, ch_m))
            square.append(abs(_ref_holevo(pow_n, ens) - _ref_holevo(pow_m, ens)))
            priv_n = _ref_holevo(pow_n, ens) - _ref_holevo(env_n, ens)
            priv_m = _ref_holevo(pow_m, ens) - _ref_holevo(env_m, ens)
            cond = [conditional_entropy(apply_extended(ch, rho, range(1, n + 1)), split=1)
                    for ch in (ch_n, ch_m)]
            coh = cond[1] - cond[0]
            want += [
                ("holevo-term", abs(chi_n - chi_m), 2.0 * step, f"trial {t}"),
                ("coherent-term", abs(coh), 2.0 * step, f"trial {t}"),
                ("private-term", abs(priv_n - priv_m), 2.0 * step, _PRIVATE_DETAIL.format(t)),
            ]
        assert [g[0] for g in got] == [w[0] for w in want]
        for g, w in zip(got, want):
            if g[0] == "private-term":
                assert g[2:] == w[2:]
                assert abs(g[1] - w[1]) <= 1e-12, (g, w)
            else:
                assert g == w
        chi = [g[1] for g in got if g[0] == "holevo-term"]
        assert len(chi) == len(square) == trials
        for g, w in zip(chi, square):
            assert abs(g - w) <= 1e-12, (g, w)


def test_holevo_information_is_the_kernel_on_the_eigen_factor():
    # holevo_information factors each state by its eigh, row j of block x
    # sqrt(p_x w_j) v_j on (d, d), and is the kernel's value there bit for
    # bit. It is the square arithmetic within 1e-12 at every rank 1..d.
    rng = rng_for(21)
    for ch in (depolarizing(2, 0.3), random_channel(3, 4, rng), complementary(erasure(3, 0.2))):
        d = ch.d_in
        for rank in range(1, d + 1):
            states = np.array([random_density_matrix(d, rng, rank=rank).matrix for _ in range(3)])
            probs = rng.dirichlet(np.ones(3))
            ens = Ensemble([(float(p), DensityMatrix(s)) for p, s in zip(probs, states)])
            w, v = np.linalg.eigh(states)
            blocks = np.sqrt(probs[:, None] * np.clip(w, 0.0, None))[..., None] * v.swapaxes(1, 2)
            got = holevo_information(ch, ens)
            assert got == _holevo(ch.kraus, probs, blocks.reshape(3, -1), (d, d))
            assert abs(got - _ref_holevo(ch, ens)) <= 1e-12, (got, _ref_holevo(ch, ens))


def test_rng_for_rejects_negative_seed_or_branch():
    for args in ((-1,), (0, -2), (3, 1, -1)):
        with pytest.raises(ArgumentError):
            rng_for(*args)
    assert rng_for(2**64, 0).random() == rng_for(2**64, 0).random()


@pytest.mark.parametrize("seed, branch", [
    (0, ()), (7, (3,)), (1, (2, 3, 5)), (2**64, ()), (2**64, (0,)), (2**64 + 5, (4, 2**40)),
])
def test_raw_stream_draws_what_rng_for_draws(seed, branch):
    assert np.array_equal(_stream(seed, branch).random(8), rng_for(seed, *branch).random(8))


@pytest.mark.parametrize(
    "call",
    [
        lambda seed: verify_fannes(trials=0, seed=seed),
        lambda seed: verify_af(trials=0, seed=seed),
        lambda seed: verify_output_entropy(identity(2), depolarizing(2, 0.1), trials=0, seed=seed),
        lambda seed: verify_capacity_differences(identity(2), depolarizing(2, 0.1), trials=0,
                                                 seed=seed),
    ],
    ids=["verify-fannes", "verify-af", "theorem3", "corollaries"],
)
@pytest.mark.parametrize("bad, message", [
    (-1, "^seed -1 must be >= 0$"),
    (1.5, "^seed must be an integer, got 1.5$"),
    (True, "^seed must be an integer, got True$"),
])
def test_bad_seeds_are_refused_before_any_trial(call, bad, message):
    # Each harness reads its seed once, before the trial loop, so a run of
    # zero trials refuses a bad seed as a run of one does.
    with pytest.raises(ArgumentError, match=message):
        call(bad)


def test_bound_kernels_equal_the_scalar_bounds_entry_by_entry():
    # The kernels evaluate a stack of eps at once; each entry must be the
    # scalar bound's bits, and those the formula with binary_entropy. The
    # random entries are divided by 3 so that, unlike random()'s multiples
    # of 2^-53, 1 - (1 - eps) is not always eps.
    block = np.concatenate([[0.0, 0.5, 1.0, 0.1, 0.3], rng_for(31).random(59) / 3.0])
    for d in (2, 3, 4, 8, 16):
        fannes, af = (continuity._entropy_bound(block, d, *weights)
                      for weights in (continuity._FANNES, continuity._AF))
        assert fannes.shape == af.shape == block.shape
        for e, f, a in zip(block.tolist(), fannes.tolist(), af.tolist()):
            assert f == fannes_bound(e, d) == e * math.log2(d) + binary_entropy(e)
            assert a == af_bound(e, d) == 4.0 * e * math.log2(d) + 2.0 * binary_entropy(e)
    assert fannes_bound(0.5, 2) == 1.5 and af_bound(1.0, 2) == 4.0


@pytest.mark.parametrize("pair, n", [
    ((depolarizing(3, 0.1),), 2),
    ((identity(2), depolarizing(2, 0.1)), 3),
    (random_nearby_pair(3, 2, rng_for(4)), 2),
], ids=["depolarizing-3-n2", "qubits-n3", "nearby-3-to-2-n2"])
def test_per_copy_coherent_information_matches_the_power_family(pair, n):
    # The corollary harness applies one single-copy family to each of the n
    # input factors; coherent_information of the n-fold power applies them
    # all at once. The two differ only by rounding, on a full-rank input and
    # on a rank-one purification with a two-level reference.
    # The Holevo term takes the Kraus images of an ensemble's blocks
    # sqrt(p_x) psi_x with no reference; its reference takes the square
    # states through the n-fold power, as a plain-numpy sum of Kraus terms.
    rng = rng_for(12, n)
    for channel in pair:
        d_in, d = channel.d_in, channel.d_in**n
        vec = haar_state(2 * d, rng).vector
        inputs = [(random_density_matrix(d * d, rng).matrix, d), (np.outer(vec, vec.conj()), 2)]
        power = tensor_power(channel, n)
        for mat, d_ref in inputs:
            per_copy = _coherent_information(channel.kraus, mat, (d_ref,) + (d_in,) * n)
            want = coherent_information(power, DensityMatrix(mat, (d_ref, d)))
            assert abs(per_copy - want) <= 1e-12, (per_copy, want)
        probs, blocks = continuity._random_ensemble(d, 3, rng)
        per_copy = _holevo(channel.kraus, probs, blocks, (1,) + (d_in,) * n)
        vecs = blocks / np.sqrt(probs)[:, None]
        outs = [_plain_apply(power.kraus, np.outer(v, v.conj())) for v in vecs]
        avg = sum(p * out for p, out in zip(probs, outs))
        mean_s = sum(p * entropy_of_matrix(out) for p, out in zip(probs, outs))
        want = entropy_of_matrix(avg) - mean_s
        assert abs(per_copy - want) <= 1e-12, (per_copy, want)



def test_private_term_is_held_to_the_coherent_bound():
    # |I_c(N^n, phi) - I_c(M^n, phi)| is a coherent-information difference,
    # so the coherent term's bound 2 * step is the one it can meet or break.
    for (ch_n, ch_m), n in (((identity(2), depolarizing(2, 0.1)), 1), (random_nearby_pair(3, 2, rng_for(4)), 2)):
        reports = verify_capacity_differences(ch_n, ch_m, n=n, trials=3, seed=2)
        rows = {}
        for r in reports:
            rows.setdefault(r.quantity_name, []).append(r)
        for coh, priv in zip(rows["coherent-term"], rows["private-term"], strict=True):
            assert priv.bound == coh.bound == 2.0 * output_entropy_bound(n, coh.epsilon, ch_n.d_out)
            assert priv.detail == _PRIVATE_DETAIL.format(coh.detail.split()[-1])
