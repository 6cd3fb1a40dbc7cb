"""Tests for channel representations and the named constructor zoo."""

import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capcont import channels as ch
from capcont import sampling
from capcont.entropic import Ensemble
from capcont.errors import ArgumentError, CPViolationError, DimensionError
from capcont.linalg import (
    DensityMatrix,
    PureState,
    basis_state,
    maximally_entangled,
    partial_trace,
    partial_trace_matrix,
)
from capcont.sampling import random_channel, random_density_matrix, rng_for

# ---------------------------------------------------------------- oracles


def _apply_oracle(channel, mat):
    """Direct Kraus action on a raw matrix."""
    out = np.zeros((channel.d_out, channel.d_out), dtype=complex)
    for k in channel.kraus:
        out += k @ mat @ k.conj().T
    return out


def _state_basis(d):
    """Density matrices spanning the d x d Hermitian operators."""
    states = [DensityMatrix.from_pure(basis_state(d, i)) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            states.append(DensityMatrix.from_pure(basis_state(d, i) + basis_state(d, j)))
            states.append(DensityMatrix.from_pure(basis_state(d, i) + 1j * basis_state(d, j)))
    return states


def _same_action(a, b, atol=1e-9):
    assert (a.d_in, a.d_out) == (b.d_in, b.d_out)
    return all(
        np.allclose(_apply_oracle(a, s.matrix), _apply_oracle(b, s.matrix), atol=atol)
        for s in _state_basis(a.d_in)
    )


def _perm_matrix(dims, perm):
    """Unitary reordering tensor factors from `dims` order to `perm` order."""
    d = int(np.prod(dims))
    p = np.zeros((d, d))
    new_dims = tuple(dims[i] for i in perm)
    for idx in np.ndindex(*dims):
        src = np.ravel_multi_index(idx, dims)
        dst = np.ravel_multi_index(tuple(idx[i] for i in perm), new_dims)
        p[dst, src] = 1.0
    return p


# ----------------------------------------------------------- basic action


def test_apply_identity_and_constants():
    rho = random_density_matrix(2, rng_for(0))
    assert np.allclose(ch.apply(ch.identity(2), rho).matrix, rho.matrix)
    e00 = np.outer(basis_state(2, 0), basis_state(2, 0))
    assert np.allclose(ch.apply(ch.constant_channel(2), rho).matrix, e00)
    flag = np.outer(basis_state(3, 2), basis_state(3, 2))
    assert np.allclose(ch.apply(ch.erasure(2, 1.0), rho).matrix, flag)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ArgumentError):
        ch.apply(ch.identity(2), random_density_matrix(3, rng_for(1)))


def test_channel_validation():
    with pytest.raises(ArgumentError):
        ch.QuantumChannel([np.eye(2) * 0.5])  # not trace preserving
    with pytest.raises(DimensionError):
        ch.QuantumChannel([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("kraus", [
    [],                           # empty family
    [np.eye(2) * np.nan],         # non-finite
    [np.ones(2)],                 # an operator that is not a matrix
    np.eye(2),                    # one matrix, not a family
    [np.eye(2), np.ones(2)],      # ragged, with an operator that is not a matrix
], ids=["empty", "non-finite", "vector", "bare-matrix", "ragged-ndim"])
def test_channel_rejects_malformed_families(kraus):
    with pytest.raises(ArgumentError):
        ch.QuantumChannel(kraus)


def test_channel_copies_its_kraus_stack():
    ops = np.array([np.eye(2, dtype=complex)])
    chan = ch.QuantumChannel(ops)
    assert chan.kraus is not ops and ops.flags.writeable
    assert not chan.kraus.flags.writeable and chan.kraus.flags.c_contiguous


def _record_families(monkeypatch):
    """Patch QuantumChannel where channels and sampling build one; return the families given."""
    given, build = [], ch.QuantumChannel

    def record(kraus):
        given.append(np.array(kraus, dtype=complex))
        return build(kraus)

    for module in (ch, sampling):
        monkeypatch.setattr(module, "QuantumChannel", record)
    return given


def _halved_twice(chan):
    """A file dict with chan's family written twice at weight 1/2."""
    data = ch.channel_to_dict(chan)
    halved = [[[x / np.sqrt(2.0), y / np.sqrt(2.0)] for x, y in op] for op in data["kraus"]]
    return {**data, "kraus": 2 * halved}


_LONG_FAMILIES = {
    "mix": lambda: ch.mix([random_channel(2, 3, rng_for(50, i)) for i in range(2)], [0.3, 0.7]),
    "random": lambda: random_channel(3, 4, rng_for(51), kraus_count=40),
    "file": lambda: ch.channel_from_dict(_halved_twice(ch.depolarizing(2, 0.1))),
}


@pytest.mark.parametrize("build", _LONG_FAMILIES.values(), ids=list(_LONG_FAMILIES))
def test_long_families_are_stored_in_choi_rank_form(monkeypatch, build):
    given = _record_families(monkeypatch)
    chan = build()
    raw = given[-1]
    assert len(raw) > chan.d_in * chan.d_out >= len(chan.kraus)
    vecs = raw.transpose(0, 2, 1).reshape(len(raw), -1)  # row k: K_k^T flattened, as in to_choi
    assert np.max(np.abs(ch.to_choi(chan).matrix - vecs.T @ vecs.conj())) <= 1e-12


_SHORT_FAMILIES = {
    "identity": lambda: ch.identity(3),
    "constant": lambda: ch.constant_channel(3),
    "erasure": lambda: ch.erasure(3, 0.2),
    "erasure-0": lambda: ch.erasure(2, 0.0),
    "depolarizing": lambda: ch.depolarizing(3, 0.1),
    "dephasing": lambda: ch.dephasing(0.2),
    "truncated-classical": lambda: ch.truncated_classical_example(4),
    "truncated-quantum": lambda: ch.truncated_quantum_example(4),
    "from-choi": lambda: ch.from_choi(ch.to_choi(random_channel(2, 3, rng_for(52)))),
    "complementary": lambda: ch.complementary(ch.erasure(2, 0.3)),
    "complementary-random": lambda: ch.complementary(random_channel(3, 2, rng_for(53))),
    "tensor-power": lambda: ch.tensor_power(random_channel(2, 2, rng_for(54)), 2),
}


@pytest.mark.parametrize("build", _SHORT_FAMILIES.values(), ids=list(_SHORT_FAMILIES))
def test_families_within_the_choi_rank_bound_are_stored_as_given(monkeypatch, build):
    given = _record_families(monkeypatch)
    chan = build()
    assert len(given[-1]) <= chan.d_in * chan.d_out
    assert np.array_equal(chan.kraus, given[-1])


def test_apply_extended_identity_cases():
    phi = maximally_entangled(2).density()
    assert ch.apply_extended(ch.identity(2), phi, set()) is phi
    out = ch.apply_extended(ch.identity(2), phi, {1})
    assert np.allclose(out.matrix, phi.matrix)


def test_apply_extended_constant_on_entangled_half():
    # Hand oracle: tracing the second half of the Bell state leaves I/2,
    # and the constant channel plants |0><0| there.
    phi = maximally_entangled(2).density()
    out = ch.apply_extended(ch.constant_channel(2), phi, {1})
    e00 = np.outer(basis_state(2, 0), basis_state(2, 0))
    assert np.allclose(out.matrix, np.kron(np.eye(2) / 2, e00))


def _kron_slots_oracle(chan, rho, factors):
    """Apply chan to each listed factor through explicit kron(I, K, I) sums."""
    mat, dims = rho.matrix, rho.dims
    for f in sorted(factors):
        left, right = int(np.prod(dims[:f])), int(np.prod(dims[f + 1 :]))
        dims = dims[:f] + (chan.d_out,) + dims[f + 1 :]
        out = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
        for k in chan.kraus:
            big = np.kron(np.kron(np.eye(left), k), np.eye(right))
            out += big @ mat @ big.conj().T
        mat = out
    return mat, dims


def test_apply_extended_middle_slot_matches_kron_reference():
    rng = rng_for(23)
    chan = random_channel(3, 4, rng)  # 12 Kraus operators by default
    assert chan.kraus.shape == (12, 4, 3)
    # A middle slot, the non-adjacent slots of a (3, 2, 3) space, and the
    # middle slot of a (3, 3, 3) space, whose 12 terms (4 x 4 x 3^4 output
    # entries each, 3 to a block) need several _TERM_BUDGET blocks.
    assert len(chan.kraus) * 4 * 4 * 3**4 > ch._TERM_BUDGET
    cases = [(chan, (2, 3, 2), {1}), (chan, (3, 2, 3), {0, 2}), (chan, (3, 3, 3), {1})]
    for channel, dims, factors in cases:
        rho = random_density_matrix(int(np.prod(dims)), rng, dims=dims)
        out = ch.apply_extended(channel, rho, factors)
        ref, ref_dims = _kron_slots_oracle(channel, rho, factors)
        assert out.dims == ref_dims
        assert np.allclose(out.matrix, ref, atol=1e-12)


def test_apply_extended_matches_tensor_power():
    rng = rng_for(2)
    chan = random_channel(2, 3, rng)
    rho = random_density_matrix(4, rng, dims=(2, 2))
    both = ch.apply_extended(chan, rho, {0, 1})
    via_power = ch.apply(ch.tensor_power(chan, 2), DensityMatrix(rho.matrix, (4,)))
    assert np.allclose(both.matrix, via_power.matrix, atol=1e-10)


def test_kraus_images_give_the_output_of_a_pure_input():
    # Y Y^dag is the output of |v><v| on every factor after the reference,
    # with one slot, with d_out != d_in, and with a channel drawn with more
    # than d_in d_out operators, stored in Choi-rank form, so with d_in d_out
    # columns per slot; column k is the image under the k-th Kraus operator
    # of the tensor power, first index slowest.
    rng = rng_for(41)
    chan = random_channel(2, 3, rng, kraus_count=3)
    cases = [
        ((3, 2), ch.dephasing(0.3), 2),
        ((2, 2, 2), chan, 3),
        ((2, 2, 2), random_channel(2, 2, rng, kraus_count=12), 4),
        ((1, 2, 2), chan, 3),
    ]
    for dims, channel, columns in cases:
        v = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
        y = ch._kraus_images(channel.kraus, v, dims)
        slots = range(1, len(dims))
        ref, _ = ch._apply_on_factors(channel.kraus, np.outer(v, v.conj()), dims, slots)
        assert y.shape == (len(ref), columns ** len(slots))
        assert np.allclose(y @ y.conj().T, ref, atol=1e-12)
    power = ch.tensor_power(chan, 2)
    assert np.allclose(y, np.stack([k @ v for k in power.kraus], axis=1), atol=1e-12)


def test_kraus_images_of_a_stack_equal_those_of_each_vector():
    # Leading batch axes stay in front, and every slice is bit-equal to the
    # images of its vector alone, so a harness can stack its trials.
    rng = rng_for(42)
    for dims, channel in (((4, 2, 2), random_channel(2, 3, rng)), ((3, 3), ch.depolarizing(3, 0.2))):
        d = int(np.prod(dims))
        vecs = rng.normal(size=(2, 3, d)) + 1j * rng.normal(size=(2, 3, d))
        y = ch._kraus_images(channel.kraus, vecs, dims)
        alone = [[ch._kraus_images(channel.kraus, v, dims) for v in row] for row in vecs]
        assert y.shape == (2, 3) + alone[0][0].shape
        assert np.array_equal(y, np.array(alone))


def test_random_channel_refuses_an_environment_too_small_for_an_isometry():
    # No isometry from C^8 into C^2 (x) C^3 exists.
    with pytest.raises(ArgumentError, match="kraus_count 3 too small"):
        random_channel(8, 2, rng_for(0), 3)
    assert random_channel(8, 2, rng_for(0), 4).kraus.shape == (4, 2, 8)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: rng_for(1.5), "seed"),
        (lambda: rng_for(True), "seed"),
        (lambda: rng_for(0, 1.5), "branch"),
        (lambda: random_channel(2, 2, rng_for(0), kraus_count=2.9), "kraus_count"),
        (lambda: random_density_matrix(3, rng_for(0), rank=2.5), "rank"),
        (lambda: PureState(np.array([1.0, 0.0]), dims=(2.7,)), "dims"),
        (lambda: DensityMatrix(np.eye(2) / 2, (2.9, 1.0)), "dims"),
        (lambda: ch.identity(2.0), "d"),
        (lambda: ch.constant_channel(True), "d"),
        (lambda: ch.erasure(2.5, 0.1), "d"),
        (lambda: ch.depolarizing(2.0, 0.1), "d"),
        (lambda: ch.truncated_classical_example(2.5), "n"),
        (lambda: ch.truncated_quantum_example(True), "n"),
        (lambda: ch.ChoiMatrix(np.eye(4), 2.0, 2), "d_in"),
        (lambda: ch.ChoiMatrix(np.eye(4), 2, 2.0), "d_out"),
        (lambda: sampling.haar_state(2.5, rng_for(0)), "d"),
        (lambda: random_channel(2.0, 2, rng_for(0)), "d_in"),
        (lambda: random_channel(2, True, rng_for(0)), "d_out"),
        (lambda: random_density_matrix(2.0, rng_for(0)), "d"),
        (lambda: sampling.random_unitary(2.5, rng_for(0)), "d"),
        (lambda: maximally_entangled(2.0), "d"),
        (lambda: Ensemble.uniform_basis(True), "d"),
        (lambda: DensityMatrix.maximally_mixed(2.0), "d"),
    ],
    ids=["seed-1.5", "seed-true", "branch-1.5", "kraus-count-2.9", "rank-2.5",
         "pure-dims-2.7", "density-dims-2.9", "identity-2.0", "constant-true",
         "erasure-2.5", "depolarizing-2.0", "truncated-classical-2.5",
         "truncated-quantum-true", "choi-d-in-2.0", "choi-d-out-2.0", "haar-state-2.5",
         "random-channel-d-in-2.0", "random-channel-d-out-true",
         "random-density-matrix-2.0", "random-unitary-2.5", "maximally-entangled-2.0",
         "uniform-basis-true", "maximally-mixed-2.0"],
)
def test_non_integral_sizes_and_seeds_are_refused(call, name):
    # int() would truncate: seed 1.5 -> 1, 2.9 Kraus operators -> 2,
    # rank 2.5 -> 2, dims (2.7,) -> (2,). A float size such as 2.0 would
    # fail later in a numpy call with a raw TypeError, a ChoiMatrix in a
    # reshape; True would count as 1.
    with pytest.raises(ArgumentError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda rho: ch.apply_extended(ch.identity(2), rho, [1.5]), "channel_factors"),
        (lambda rho: ch.apply_extended(ch.identity(2), rho, [True]), "channel_factors"),
        (lambda rho: partial_trace(rho, [0.7]), "keep"),
        (lambda rho: partial_trace(rho, [True]), "keep"),
        (lambda rho: basis_state(2, True), "i"),
        (lambda rho: basis_state(2, 1.0), "i"),
    ],
    ids=["factors-1.5", "factors-true", "keep-0.7", "keep-true", "basis-true", "basis-1.0"],
)
def test_non_integral_factor_and_basis_indices_are_refused(call, name):
    # int() would act on factor 1 for 1.5 and keep factor 0 for 0.7, and
    # a boolean basis index is a numpy mask: basis_state(2, True) was [1, 1].
    rho = maximally_entangled(2).density()
    with pytest.raises(ArgumentError, match=f"^{name} must be an integer, got "):
        call(rho)


def test_numpy_integer_factor_and_basis_indices_pass():
    rho = random_density_matrix(4, rng_for(3), dims=(2, 2))
    dep = ch.depolarizing(2, 0.2)
    got = ch.apply_extended(dep, rho, [np.int64(1)]).matrix
    assert np.array_equal(got, ch.apply_extended(dep, rho, [1]).matrix)
    assert np.array_equal(partial_trace(rho, [np.int32(0)]).matrix, partial_trace(rho, [0]).matrix)
    assert np.array_equal(basis_state(np.int64(3), np.uint8(2)), [0, 0, 1])


def test_apply_full_on_a_stack_equals_per_slice_calls():
    # Each slice of a stack gets its own broadcast product, summed in Kraus
    # index order, so it matches the 2-D call bit for bit: on channels,
    # complementary channels, adjoint stacks and a 12-operator family whose
    # terms on a 22-slice stack need several _TERM_BUDGET blocks.
    rng = rng_for(29)
    many = random_channel(3, 4, rng)
    assert len(many.kraus) * 4 * 4 * 22 > ch._TERM_BUDGET
    chans = [ch.erasure(2, 0.25), ch.dephasing(0.2), ch.depolarizing(2, 0.2), many]
    chans += [ch.complementary(c) for c in chans[:3]] + [ch.tensor_power(chans[0], 2)]
    for chan in chans:
        for kraus in (chan.kraus, chan.kraus.conj().transpose(0, 2, 1)):
            d = kraus.shape[2]
            for shape in ((1,), (22,), (3, 2)):
                vecs = rng.normal(size=shape + (d,)) + 1j * rng.normal(size=shape + (d,))
                mats = vecs[..., :, None] * vecs.conj()[..., None, :]
                out = ch._apply_full(kraus, mats)
                assert out.shape == shape + (kraus.shape[1],) * 2
                for idx in np.ndindex(*shape):
                    assert np.array_equal(out[idx], ch._apply_full(kraus, mats[idx]))
    rho = random_density_matrix(3, rng).matrix
    out = ch._apply_full(many.kraus, np.stack([rho] * 22))
    assert np.allclose(out[-1], _apply_oracle(many, rho), atol=1e-12)


# ------------------------------------------------------- Choi conversions


def test_choi_of_identity_is_unnormalized_bell():
    j = ch.to_choi(ch.identity(2)).matrix
    bell = 2.0 * maximally_entangled(2).density().matrix
    assert np.allclose(j, bell)
    assert abs(np.trace(j).real - 2.0) < 1e-12
    assert np.linalg.matrix_rank(j) == 1


def test_choi_of_constant_channel():
    # Hand oracle: J = sum_ij |i><j| (x) Tr(|i><j|)|0><0| = I (x) |0><0|.
    j = ch.to_choi(ch.constant_channel(2)).matrix
    e00 = np.outer(basis_state(2, 0), basis_state(2, 0))
    assert np.allclose(j, np.kron(np.eye(2), e00))


def test_choi_round_trip_on_random_channels():
    rng = rng_for(3)
    worst = 0.0
    for t in range(50):
        d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a = random_channel(d_in, d_out, rng)
        b = ch.from_choi(ch.to_choi(a))
        for s in _state_basis(d_in):
            dev = np.max(np.abs(_apply_oracle(a, s.matrix) - _apply_oracle(b, s.matrix)))
            worst = max(worst, float(dev))
    assert worst <= 1e-8


def test_from_choi_rejects_non_cp():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    # SWAP is the Choi matrix of the transpose map: TP but not CP.
    with pytest.raises(CPViolationError) as exc:
        ch.from_choi(ch.ChoiMatrix(swap, 2, 2))
    assert exc.value.min_eigenvalue < -1e-2


def test_from_choi_rejects_non_tp():
    j = ch.to_choi(ch.identity(2)).matrix * 1.5
    with pytest.raises(ArgumentError):
        ch.from_choi(ch.ChoiMatrix(j, 2, 2))


def test_choi_difference_needs_matching_dimensions():
    with pytest.raises(ArgumentError):
        ch.ChoiMatrix.difference(ch.identity(2), ch.identity(3))


def test_canonicalize_shrinks_redundant_families():
    mixed = ch.mix([ch.identity(2), ch.identity(2)], [0.5, 0.5])
    assert len(mixed.kraus) == 2
    canon = ch.from_choi(ch.to_choi(mixed))
    assert len(canon.kraus) == 1
    assert _same_action(mixed, canon)


# ----------------------------------------------------- dilation machinery


def test_stinespring_isometry_and_consistency():
    rng = rng_for(4)
    for _ in range(5):
        chan = random_channel(2, 3, rng)
        v = ch.stinespring(chan)
        d_env = len(chan.kraus)
        assert v.shape == (3 * d_env, 2)
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-10
        for s in _state_basis(2):
            dilated = v @ s.matrix @ v.conj().T
            marg = partial_trace_matrix(dilated, (3, d_env), keep=[0])
            assert np.allclose(marg, _apply_oracle(chan, s.matrix), atol=1e-10)


def test_identity_has_trivial_environment():
    assert ch.stinespring(ch.identity(2)).shape == (2, 2)
    comp = ch.complementary(ch.identity(2))
    assert comp.d_out == 1
    out = ch.apply(comp, random_density_matrix(2, rng_for(5)))
    assert np.allclose(out.matrix, [[1.0]])


def test_complementary_traces_out_output():
    rng = rng_for(6)
    chan = random_channel(2, 2, rng)
    v = ch.stinespring(chan)
    comp = ch.complementary(chan)
    for s in _state_basis(2):
        dilated = v @ s.matrix @ v.conj().T
        env = partial_trace_matrix(dilated, (2, len(chan.kraus)), keep=[1])
        assert np.allclose(env, _apply_oracle(comp, s.matrix), atol=1e-10)


def test_erasure_complementary_is_erasure_relabeled():
    # The environment of erasure(2, p) sees erasure(2, 1-p) with its data
    # span shifted onto indices {1, 2} and the flag at 0.
    # Interior p only: at p in {0, 1} the Kraus family degenerates and the
    # environment shrinks below three dimensions.
    p_cycle = np.zeros((3, 3))
    p_cycle[1, 0] = p_cycle[2, 1] = p_cycle[0, 2] = 1.0
    for p in (0.1, 0.3, 0.5, 0.9):
        comp = ch.complementary(ch.erasure(2, p))
        ref = ch.erasure(2, 1.0 - p)
        for s in _state_basis(2):
            lhs = _apply_oracle(comp, s.matrix)
            rhs = p_cycle @ _apply_oracle(ref, s.matrix) @ p_cycle.T
            assert np.allclose(lhs, rhs, atol=1e-10)


# -------------------------------------------------- structural operations


def test_mix_basics():
    n = random_channel(2, 2, rng_for(7))
    assert _same_action(ch.mix([n], [1.0]), n)
    mixed = ch.mix([ch.identity(2), ch.constant_channel(2)], [0.75, 0.25])
    one = DensityMatrix.from_pure(basis_state(2, 1))
    expected = 0.75 * one.matrix + 0.25 * np.outer(basis_state(2, 0), basis_state(2, 0))
    assert np.allclose(ch.apply(mixed, one).matrix, expected)


def test_mix_rejects_bad_probabilities():
    n = ch.identity(2)
    with pytest.raises(ArgumentError):
        ch.mix([n, n], [0.7, 0.7])
    with pytest.raises(ArgumentError):
        ch.mix([n, n], [1.5, -0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mix_rejects_non_finite_weights(bad):
    # A NaN weight fails every comparison, so it must not slip past the
    # range test and then be dropped from the union.
    with pytest.raises(ArgumentError):
        ch.mix([ch.identity(2), ch.dephasing(0.3)], [bad, 1.0])


def test_mix_is_affine_in_action():
    rng = rng_for(8)
    a, b = random_channel(2, 3, rng), random_channel(2, 3, rng)
    mixed = ch.mix([a, b], [0.6, 0.4])
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        expected = 0.6 * ch.apply(a, rho).matrix + 0.4 * ch.apply(b, rho).matrix
        assert np.allclose(ch.apply(mixed, rho).matrix, expected, atol=1e-10)


def test_tensor_power_basics():
    n = random_channel(2, 2, rng_for(9))
    assert ch.tensor_power(n, 1) is n
    id4 = ch.tensor_power(ch.identity(2), 2)
    rho = random_density_matrix(4, rng_for(10))
    assert np.allclose(ch.apply(id4, rho).matrix, rho.matrix)
    with pytest.raises(DimensionError):
        ch.tensor_power(ch.identity(16), 4)


def test_tensor_power_refuses_a_non_integral_copy_count():
    # An integral float used to fail inside the Kronecker loop with a raw
    # TypeError; numpy integers are copy counts like any other.
    for bad in (2.0, 2.5, True):
        with pytest.raises(ArgumentError, match=f"^n must be an integer, got {bad!r}$"):
            ch.tensor_power(ch.identity(2), bad)
    square = ch.tensor_power(ch.identity(2), np.int64(2))
    assert np.array_equal(square.kraus, ch.tensor_power(ch.identity(2), 2).kraus)


def test_tensor_power_of_one_operator_on_one_dimension_is_the_channel():
    # Every power of a single 1 x 1 operator is the same channel, so a huge
    # n returns at once rather than multiplying n - 1 times.
    one = ch.identity(1)
    start = time.perf_counter()
    assert ch.tensor_power(one, 10**9) is one
    assert time.perf_counter() - start < 0.1


def test_tensor_power_matches_sequential_application():
    rng = rng_for(11)
    e = ch.erasure(2, 0.3)
    rho = random_density_matrix(4, rng, dims=(2, 2))
    seq = ch.apply_extended(e, ch.apply_extended(e, rho, {0}), {1})
    par = ch.apply(ch.tensor_power(e, 2), DensityMatrix(rho.matrix, (4,)))
    assert np.allclose(seq.matrix, par.matrix, atol=1e-10)


def test_tensor_power_choi_is_permuted_tensor_of_chois():
    rng = rng_for(12)
    for _ in range(5):
        a = random_channel(2, 2, rng)
        j1 = ch.to_choi(a).matrix
        j2 = ch.to_choi(ch.tensor_power(a, 2)).matrix
        # kron factor order (A1, B1, A2, B2) -> target (A1, A2, B1, B2)
        p = _perm_matrix((2, 2, 2, 2), (0, 2, 1, 3))
        assert np.allclose(j2, p @ np.kron(j1, j1) @ p.T, atol=1e-10)


# ------------------------------------------------------ named constructors


@pytest.mark.parametrize("build", [
    lambda: ch.identity(100),
    lambda: ch.constant_channel(100),
    lambda: ch.erasure(100, 0.5),
    lambda: ch.truncated_classical_example(100),
    lambda: ch.depolarizing(65, 0.1),
    lambda: random_channel(65, 65, rng_for(0)),
    lambda: ch.tensor_power(ch.dephasing(0.2), 7),  # (2 * 2)^7 > D_MAX
    lambda: ch.tensor_power(ch.identity(2), 10**9),  # without forming 4^(10^9)
], ids=[
    "identity", "constant", "erasure", "truncated", "depolarizing", "random", "power",
    "huge-power",
])
def test_oversized_channels_are_refused_before_they_are_built(build):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DimensionError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


def test_tensor_power_of_a_long_mixture_stays_within_d_max_squared(monkeypatch):
    # A qubit mixture of 8 operators is stored as its Choi rank, 4, so at
    # D_MAX = 64 its cube, which passes the Choi test at (2 * 2)^3 = 64,
    # holds 4^3 operators of 8 x 8: 64^2 entries, where 8^3 would hold 32^3.
    family = ch.mix([random_channel(2, 2, rng_for(7, i), kraus_count=4) for i in range(2)],
                    [0.5, 0.5])
    assert len(family.kraus) == 4
    monkeypatch.setattr(ch, "D_MAX", 64)
    monkeypatch.setattr(ch.linalg, "D_MAX", 64)
    assert len(ch.tensor_power(family, 2).kraus) == 16
    cube = ch.tensor_power(family, 3)
    assert cube.kraus.shape == (64, 8, 8) and cube.kraus.size <= 64**2
    rho = random_density_matrix(8, rng_for(8), dims=(2, 2, 2))
    per_slot = ch.apply_extended(family, rho, {0, 1, 2})
    assert np.allclose(_apply_oracle(cube, rho.matrix), per_slot.matrix, atol=1e-12)


def test_erasure_zero_is_embedded_identity():
    e0 = ch.erasure(2, 0.0)
    rho = random_density_matrix(2, rng_for(13))
    out = ch.apply(e0, rho).matrix
    assert np.allclose(out[:2, :2], rho.matrix)
    assert np.allclose(out[2, :], 0.0) and np.allclose(out[:, 2], 0.0)


def test_erasure_action_formula():
    rng = rng_for(14)
    for p in (0.25, 0.6):
        e = ch.erasure(2, p)
        rho = random_density_matrix(2, rng)
        out = ch.apply(e, rho).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[:2, :2] = (1 - p) * rho.matrix
        expected[2, 2] = p
        assert np.allclose(out, expected)


def test_depolarizing_action_formula():
    rng = rng_for(15)
    for p in (0.0, 0.3, 1.0):
        dep = ch.depolarizing(2, p)
        rho = random_density_matrix(2, rng)
        expected = (1 - p) * rho.matrix + p * np.eye(2) / 2
        assert np.allclose(ch.apply(dep, rho).matrix, expected, atol=1e-10)


def test_dephasing_action_formula():
    rng = rng_for(16)
    z = np.diag([1.0, -1.0])
    for p in (0.2, 0.5):
        rho = random_density_matrix(2, rng)
        expected = (1 - p) * rho.matrix + p * z @ rho.matrix @ z
        assert np.allclose(ch.apply(ch.dephasing(p), rho).matrix, expected)


def test_parameter_range_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(ArgumentError):
            ch.erasure(2, bad)
        with pytest.raises(ArgumentError):
            ch.depolarizing(2, bad)
        with pytest.raises(ArgumentError):
            ch.dephasing(bad)
    with pytest.raises(ArgumentError):
        ch.truncated_classical_example(1)


def test_truncated_classical_is_the_stated_mixture():
    for n in (2, 4, 8):
        w = 1.0 / np.log2(n)
        built = ch.truncated_classical_example(n)
        sink = ch.erasure(n, 1.0)
        embed = ch.erasure(n, 0.0)
        ref = ch.mix([sink, embed], [1.0 - w, w])
        assert _same_action(built, ref)
        # equivalently an erasure channel at p = 1 - 1/log2(n)
        assert _same_action(built, ch.erasure(n, 1.0 - w))


def test_truncated_quantum_examples():
    for n in (2, 4, 8):
        w = 1.0 / np.log2(n)
        built = ch.truncated_quantum_example(n)
        assert _same_action(built, ch.erasure(n, 0.5 * (1.0 - w)))
    # n = 2: the identity weight hits 1, leaving the embedded identity
    assert _same_action(ch.truncated_quantum_example(2), ch.erasure(2, 0.0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_constructed_channels_are_cp_tp(seed):
    rng = rng_for(seed)
    chan = random_channel(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
    j = ch.to_choi(chan)
    w = np.linalg.eigvalsh(j.matrix)
    assert w[0] >= -1e-8
    marg = partial_trace_matrix(j.matrix, (chan.d_in, chan.d_out), keep=[0])
    assert np.max(np.abs(marg - np.eye(chan.d_in))) < 1e-8


# ---------------------------------------------------------- serialization


def test_channel_dict_round_trip():
    rng = rng_for(17)
    for chan in (ch.erasure(2, 0.25), random_channel(3, 2, rng)):
        back = ch.channel_from_dict(ch.channel_to_dict(chan))
        assert _same_action(chan, back)


_CONVERTED = {
    "erasure": lambda: ch.erasure(2, 0.25),
    "random": lambda: random_channel(3, 2, rng_for(17)),
    "choi-rank": lambda: random_channel(3, 4, rng_for(51), kraus_count=40),
    "signed-zeros": lambda: ch.QuantumChannel(
        [np.diag([1.0, np.sqrt(0.75)]), np.array([[0.0, 0.5], [-0.0, 0.0]])]
    ),
}


@pytest.mark.parametrize("build", _CONVERTED.values(), ids=list(_CONVERTED))
def test_to_choi_matches_the_outer_product_loop(build):
    # One product sums the same terms in another order: each entry is a sum
    # of r products of entries of modulus <= 1, so it may move by r ulps.
    chan = build()
    n = chan.d_in * chan.d_out
    loop = np.zeros((n, n), dtype=complex)
    for k in chan.kraus:
        w = k.T.reshape(-1)
        loop += np.outer(w, w.conj())
    tol = len(chan.kraus) * np.finfo(float).eps
    assert np.max(np.abs(ch.to_choi(chan).matrix - loop)) <= tol


@pytest.mark.parametrize("build", _CONVERTED.values(), ids=list(_CONVERTED))
def test_channel_to_dict_matches_the_entrywise_floats(build):
    # The same floats, signed zeros included, so the JSON is byte-identical.
    chan = build()
    data = ch.channel_to_dict(chan)
    entrywise = [[[float(z.real), float(z.imag)] for z in op.reshape(-1)] for op in chan.kraus]
    assert json.dumps(data["kraus"]) == json.dumps(entrywise)
    assert all(type(x) is float for op in data["kraus"] for pair in op for x in pair)


def test_channel_from_dict_rejects_malformed():
    with pytest.raises(ArgumentError):
        ch.channel_from_dict({"d_in": 2, "kraus": []})
    with pytest.raises(ArgumentError):
        ch.channel_from_dict({"d_in": 2, "d_out": 2, "kraus": [[[1.0, 0.0]]]})
    good = ch.channel_to_dict(ch.identity(2))
    bad = {**good, "kraus": [[[0.5, 0.0]] * 4]}
    with pytest.raises(ArgumentError):
        ch.channel_from_dict(bad)
    for entry in ([[1.0, 0.0]] * 3 + [[1.0]], [[1.0, 0.0]] * 3 + [["x", 0.0]], [[None, 0.0]] * 4):
        with pytest.raises(ArgumentError):
            ch.channel_from_dict({**good, "kraus": [entry]})
