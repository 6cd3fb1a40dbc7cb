"""Quantum channels: Kraus families, Choi matrices, isometric dilations.

A channel is stored as one read-only (r, d_out, d_in) stack of Kraus
operators summing to the identity under K^dag K (trace preservation);
complete positivity is automatic in this form. A family longer than the
Choi rank bound d_in d_out is stored in Choi-rank form, so ``kraus`` may
be shorter than the family given. Choi conversions give canonical minimal
Kraus families, Stinespring dilation gives the complementary channel, and
a small zoo of named constructors covers the channels the harnesses
exercise: identity, constant, erasure, depolarizing, dephasing, and the
capacity discontinuity families (an n-level identity mixed with a sink
map, in both its classical and quantum parameterizations).

Channel application lives only here, in one kernel per input form. A
square matrix goes through _kraus_sum, which _apply_on_factors calls once
per tensor slot, after moving the slot's axes to the ends; apply is its
one-slot case. The public apply and apply_extended validate. A factored
input needs no square matrix: _kraus_images returns the matrix Y whose
columns are the images of a vector under every Kraus product (at most
d_in d_out per copy), so the output of its projector is Y Y^dag, and its
nonzero spectrum is that of the Gram matrix Y^dag Y. Given a stack of
vectors it keeps their batch axes in front, one product per vector and
slot, so each slice of the stack is bit-equal to the images of its vector
alone. The output-entropy harness, both capacity ascents and the Holevo
kernel take it.

Arguments are read by the `linalg` readers: a constructor's d, p and n,
a mixture's weights as a probability vector, and a channel file's Kraus
list as [re, im] pairs.

Conventions fixed here for reproducibility:
  * Choi matrix lives on in (x) out: J = sum_ij |i><j| (x) N(|i><j|).
  * The erasure flag is the highest output basis index.
  * All mixtures are taken at the level of sqrt-scaled Kraus unions.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import ArgumentError, CPViolationError, DimensionError, NumericError, TPViolationError
from .linalg import D_MAX, TAU_HERM, TAU_PSD, TAU_TP, DensityMatrix, check_choi_dim


class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form.

    Parameters
    ----------
    kraus : (r, d_out, d_in) array or sequence of r (d_out, d_in) matrices
        Kraus operators; must satisfy sum K^dag K = I within TAU_TP. They
        are copied into the read-only stack ``self.kraus``, unchanged if at
        most d_in*d_out, else as the rows of S V^dag from the SVD of the
        stacked operators: the same channel in Choi-rank form, so ``kraus``
        may be shorter than the family given.
    """

    def __init__(self, kraus: Sequence[np.ndarray] | np.ndarray):
        try:
            stack = np.array(kraus, dtype=complex, order="C")
        except ValueError:  # a ragged family, or entries that are not numbers
            shapes = {np.shape(k) for k in kraus}
            if len(shapes) < 2:
                raise
            if any(len(shape) != 2 for shape in shapes):
                raise ArgumentError("expected a stack of Kraus matrices") from None
            raise DimensionError("Kraus operators have mismatched shapes") from None
        if stack.size == 0:
            raise ArgumentError("channel needs at least one Kraus operator")
        if stack.ndim != 3:
            raise ArgumentError(f"expected a stack of Kraus matrices, got ndim={stack.ndim}")
        if not np.all(np.isfinite(stack)):
            raise ArgumentError("Kraus operators have non-finite entries")
        r, d_out, d_in = stack.shape
        check_choi_dim(d_in, d_out)
        rows = stack.reshape(-1, d_in)  # sum_k K^dag K as one product
        res = float(np.max(np.abs(rows.conj().T @ rows - np.eye(d_in))))
        if res > TAU_TP:
            raise TPViolationError(
                f"Kraus family is not trace-preserving: residual {res:.3e}"
            )
        if r > d_in * d_out:  # Choi-rank form: the rows of S V^dag of the stacked operators
            try:
                _, s, vh = np.linalg.svd(stack.reshape(r, -1), full_matrices=False)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
                raise NumericError("svd", str(exc)) from exc
            stack = (s[:, None] * vh).reshape(-1, d_out, d_in)
        stack.setflags(write=False)
        self.kraus = stack
        self.d_in = d_in
        self.d_out = d_out

    def __repr__(self) -> str:
        return f"QuantumChannel(d_in={self.d_in}, d_out={self.d_out}, n_kraus={len(self.kraus)})"


class ChoiMatrix:
    """Choi matrix J = sum_ij |i><j| (x) N(|i><j|) on in (x) out.

    N is any Hermiticity-preserving map: a channel (to_choi), or a
    difference of channels, whose diamond norm is their distance.
    """

    def __init__(self, matrix: np.ndarray, d_in: int, d_out: int):
        m = linalg.as_matrix(matrix)
        d_in, d_out = linalg.as_index(d_in, "d_in"), linalg.as_index(d_out, "d_out")
        if m.shape != (d_in * d_out, d_in * d_out):
            raise DimensionError(
                f"Choi shape {m.shape} incompatible with d_in={d_in}, d_out={d_out}"
            )
        if linalg.herm_residual(m) > TAU_HERM * max(1.0, float(np.abs(m).max())):
            raise ArgumentError("Choi matrix must be Hermitian")
        self.matrix = linalg.hermitian_part(m)
        self.matrix.setflags(write=False)
        self.d_in = d_in
        self.d_out = d_out

    @classmethod
    def difference(cls, a: QuantumChannel, b: QuantumChannel) -> "ChoiMatrix":
        """Choi matrix of the map a - b."""
        if (a.d_in, a.d_out) != (b.d_in, b.d_out):
            raise ArgumentError("channel difference needs matching dimensions")
        return cls(to_choi(a).matrix - to_choi(b).matrix, a.d_in, a.d_out)

    def scaled(self, c: float) -> "ChoiMatrix":
        """Choi matrix of the map c N."""
        c = linalg.as_real(c, "c", -sys.float_info.max, sys.float_info.max)
        return ChoiMatrix(c * self.matrix, self.d_in, self.d_out)


# ------------------------------------------------------------------ action


_TERM_BUDGET = 4096  # complex output entries of Kraus terms _kraus_sum holds at once


def _kraus_sum(kraus: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Raw sum_k K_k mat K_k^dag on a (d_in, ..., d_in) array.

    K_k acts on the first axis and K_k^dag on the last, and the middle axes
    are untouched. The operators are taken in blocks whose terms hold at
    most _TERM_BUDGET output entries, and the terms are summed in index
    order.
    """
    d_out, d_in = kraus.shape[1], mat.shape[-1]
    rows = mat.reshape(d_in, -1)
    step = max(1, _TERM_BUDGET // (d_out * d_out * (mat.size // (d_in * d_in))))
    out = None
    for start in range(0, len(kraus), step):
        block = kraus[start : start + step]
        terms = (block @ rows).reshape(len(block), -1, d_in)  # rows (d_out, middle...) by col
        for term in terms @ block.conj().swapaxes(-1, -2):
            if out is None:
                out = term.copy()
            else:
                out += term
    return out.reshape((d_out,) + mat.shape[1:-1] + (d_out,))


def _apply_on_factors(
    kraus: np.ndarray, mat: np.ndarray, dims: tuple[int, ...], factors: Iterable[int]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Hermitian part of the family applied to each listed tensor factor.

    Per factor, mat is viewed as (left, d, right, left, d, right); one fixed
    transpose, its own inverse, moves the slot's axes to the ends for
    _kraus_sum and back. Factors 1..n take one copy each of an n-copy map.
    """
    factors = list(factors)
    d_out = kraus.shape[1]
    d_rest = math.prod(dims) // math.prod(dims[f] for f in factors)
    if d_rest * d_out ** len(factors) > D_MAX:
        raise DimensionError("extended output dimension exceeds D_MAX")
    for f in factors:
        left, right = math.prod(dims[:f]), math.prod(dims[f + 1 :])
        t = mat.reshape(left, dims[f], right, left, dims[f], right)
        out = _kraus_sum(kraus, t.transpose(1, 0, 2, 3, 5, 4))
        dims = dims[:f] + (d_out,) + dims[f + 1 :]
        d_tot = left * d_out * right
        mat = out.transpose(1, 0, 2, 3, 5, 4).reshape(d_tot, d_tot)
    return linalg.hermitian_part(mat), dims


def _kraus_images(kraus: np.ndarray, vec: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Images of vectors under every Kraus product on all their factors but the first.

    vec is one vector on prod(dims), or a (..., prod(dims)) stack of them
    whose leading batch axes are kept in front. dims[0] is a reference
    factor the channel leaves alone; each later factor is an input of one
    channel copy. Column (k_1, ..., k_n), first index slowest as in
    tensor_power, is (I (x) K_k1 (x) ... (x) K_kn)|vec>, and the rows run
    over the reference and output factors in order. So Y Y^dag is
    _apply_on_factors of |vec><vec|, without forming either square matrix.
    Y has at most (d_in d_out)^n columns, since a channel's family is
    stored in Choi-rank form.
    """
    batch = vec.shape[:-1]
    r, d_out, d_in = kraus.shape
    rows = kraus.reshape(-1, d_in)  # row (k, i): row i of K_k
    # Each factor f views t as (vector, R, left, d_f, right): R the Kraus
    # index so far, left the reference and the factors already mapped. Two
    # fixed transposes move d_f in front and the new Kraus index next to R.
    t = vec.reshape(-1, 1, vec.shape[-1])
    n, left = len(t), dims[0]
    for f in range(1, len(dims)):
        held = t.shape[1]
        t = t.reshape(n, held, left, dims[f], -1)
        right = t.shape[-1]
        moved = t.transpose(0, 3, 1, 2, 4).reshape(n, dims[f], -1)  # (vector, d_f, R left right)
        t = (rows @ moved).reshape(n, r, d_out, held, left, right)  # one product per vector
        t = t.transpose(0, 3, 1, 4, 2, 5).reshape(n, held * r, -1)  # (vector, R r, left d_out right)
        left *= d_out
    return t.reshape(batch + t.shape[1:]).swapaxes(-1, -2)


def apply(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel action sum_k K rho K^dag."""
    if rho.d != ch.d_in:
        raise ArgumentError(f"state dimension {rho.d} != channel input {ch.d_in}")
    return DensityMatrix(*_apply_on_factors(ch.kraus, rho.matrix, (ch.d_in,), [0]))


def apply_extended(
    ch: QuantumChannel, rho: DensityMatrix, channel_factors: Iterable[int]
) -> DensityMatrix:
    """Apply ch to the designated tensor factors, identity on the rest."""
    factors = sorted(set(linalg.as_index(f, "channel_factors") for f in channel_factors))
    if not factors:
        return rho
    dims = rho.dims
    if factors[0] < 0 or factors[-1] >= len(dims):
        raise ArgumentError(f"factor indices {factors} out of range for dims {dims}")
    for f in factors:
        if dims[f] != ch.d_in:
            raise ArgumentError(
                f"factor {f} has dimension {dims[f]}, channel input is {ch.d_in}"
            )
    return DensityMatrix(*_apply_on_factors(ch.kraus, rho.matrix, dims, factors))


# ------------------------------------------------------- Choi conversions


def to_choi(ch: QuantumChannel) -> ChoiMatrix:
    """Choi matrix of the channel on in (x) out."""
    w = ch.kraus.transpose(0, 2, 1).reshape(len(ch.kraus), -1)  # row k: index (i, b) -> i*d_out + b
    return ChoiMatrix(w.T @ w.conj(), ch.d_in, ch.d_out)


def from_choi(choi: ChoiMatrix) -> QuantumChannel:
    """Canonical Kraus family from a Choi matrix.

    Eigenvalues below TAU_PSD are discarded, so the family has at most
    d_in*d_out members. Raises CPViolationError when the matrix has an
    eigenvalue below -TAU_PSD and ArgumentError when the partial trace
    over the output is not the identity.
    """
    try:
        w, v = np.linalg.eigh(choi.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericError("eigh", str(exc)) from exc
    order = np.argsort(w)[::-1]  # descending: the Kraus order fixes every later sum
    w, v = w[order], v[:, order]
    if w[-1] < -TAU_PSD:
        raise CPViolationError(float(w[-1]))
    marg = linalg.partial_trace_matrix(
        choi.matrix, (choi.d_in, choi.d_out), keep=[0]
    )
    res = float(np.max(np.abs(marg - np.eye(choi.d_in))))
    if res > TAU_TP:
        raise ArgumentError(f"Choi output marginal deviates from identity by {res:.3e}")
    keep = w > TAU_PSD
    if not np.any(keep):  # zero map cannot be TP, but guard anyway
        raise ArgumentError("Choi matrix has no positive spectrum")
    vecs = (v[:, keep] * np.sqrt(w[keep])).T  # row m: sqrt(lam_m) * vec_m
    return QuantumChannel(vecs.reshape(-1, choi.d_in, choi.d_out).transpose(0, 2, 1))


# ----------------------------------------------------- dilation machinery


def stinespring(ch: QuantumChannel) -> np.ndarray:
    """Isometry V = sum_k K_k (x) |k>_env as a (d_out * r, d_in) array.

    The environment dimension is the Kraus count r; row b * r + k of V is
    row b of K_k, so V^dag V = I and V rho V^dag lives on out (x) env.
    """
    d_env = len(ch.kraus)
    return ch.kraus.transpose(1, 0, 2).reshape(ch.d_out * d_env, ch.d_in)


def complementary(ch: QuantumChannel) -> QuantumChannel:
    """Channel to the environment of the Stinespring dilation.

    Output dimension equals the Kraus count of ch; the b-th complementary
    Kraus operator collects row b of every K_k.
    """
    return QuantumChannel(ch.kraus.transpose(1, 0, 2))


# -------------------------------------------------- structural operations


def mix(chs: Sequence[QuantumChannel], probs: Sequence[float]) -> QuantumChannel:
    """Convex mixture sum_i p_i ch_i as a sqrt(p)-scaled Kraus union."""
    p = linalg.as_probabilities(probs, "probs")
    if len(chs) != len(p):
        raise ArgumentError("channel and probability lists differ in length")
    dims = {(c.d_in, c.d_out) for c in chs}
    if len(dims) != 1:
        raise ArgumentError(f"mixture components have mismatched dimensions {dims}")
    return QuantumChannel(
        np.concatenate([np.sqrt(pi) * c.kraus for c, pi in zip(chs, p) if pi > 0.0])
    )


def tensor_power(ch: QuantumChannel, n: int) -> QuantumChannel:
    """n-fold parallel application ch^(x)n."""
    n = linalg.as_index(n, "n", 1)
    check_choi_dim(ch.d_in, ch.d_out, n)
    # A 1 x 1 channel passes the Choi test at any n, and is its own power.
    if n == 1 or ch.d_in * ch.d_out == 1:
        return ch
    # Stack index (k_1, ..., k_n), first index slowest; each operator is
    # the left-nested Kronecker product K_k1 (x) ... (x) K_kn.
    kraus = ch.kraus
    for _ in range(n - 1):
        r, rows, cols = kraus.shape
        pairs = kraus[:, None, :, None, :, None] * ch.kraus[None, :, None, :, None, :]
        kraus = pairs.reshape(r * len(ch.kraus), rows * ch.d_out, cols * ch.d_in)
    return QuantumChannel(kraus)


# ------------------------------------------------------ named constructors


def identity(d: int) -> QuantumChannel:
    """Identity channel on dimension d."""
    d = linalg.as_index(d, "d", 1)
    check_choi_dim(d, d)
    return QuantumChannel([np.eye(d, dtype=complex)])


def constant_channel(d: int) -> QuantumChannel:
    """Map every state on dimension d to |0><0|."""
    d = linalg.as_index(d, "d", 1)
    check_choi_dim(d, d)
    kraus = [np.outer(linalg.basis_state(d, 0), linalg.basis_state(d, j)) for j in range(d)]
    return QuantumChannel(kraus)


def erasure(d: int, p: float) -> QuantumChannel:
    """Erasure channel: keep the input with probability 1-p, else flag.

    Input dimension d, output dimension d+1; the flag state is the highest
    output basis index d. rho maps to (1-p) rho (+) p Tr(rho) |d><d|.
    """
    p = linalg.as_real(p, "p", 0.0, 1.0)
    d = linalg.as_index(d, "d", 1)
    check_choi_dim(d, d + 1)
    embed = np.zeros((d + 1, d), dtype=complex)
    embed[:d, :] = np.eye(d)
    kraus = []
    if p < 1.0:
        kraus.append(np.sqrt(1.0 - p) * embed)
    if p > 0.0:
        flag = linalg.basis_state(d + 1, d)
        kraus.extend(
            np.sqrt(p) * np.outer(flag, linalg.basis_state(d, i)) for i in range(d)
        )
    return QuantumChannel(kraus)


def depolarizing(d: int, p: float) -> QuantumChannel:
    """rho -> (1-p) rho + p I/d, built from its Choi matrix."""
    p = linalg.as_real(p, "p", 0.0, 1.0)
    d = linalg.as_index(d, "d", 1)
    check_choi_dim(d, d)
    phi = linalg.maximally_entangled(d).density().matrix
    j = (1.0 - p) * d * phi + (p / d) * np.eye(d * d)
    return from_choi(ChoiMatrix(j, d, d))


def dephasing(p: float) -> QuantumChannel:
    """Qubit phase flip rho -> (1-p) rho + p Z rho Z."""
    p = linalg.as_real(p, "p", 0.0, 1.0)
    z = np.diag([1.0, -1.0]).astype(complex)
    kraus = []
    if p < 1.0:
        kraus.append(np.sqrt(1.0 - p) * np.eye(2, dtype=complex))
    if p > 0.0:
        kraus.append(np.sqrt(p) * z)
    return QuantumChannel(kraus)


def truncated_classical_example(n: int) -> QuantumChannel:
    """n-level member of the family whose classical capacity jumps at its limit.

    Mixes the sink map erasure(n, 1) with the embedded n-level identity
    erasure(n, 0) at weight 1/log2(n) on the identity; equals
    erasure(n, 1 - 1/log2(n)) with the sink as the flag. The limit of the
    family is the pure sink map, whose classical capacity is 0, while every
    member has capacity exactly 1.
    """
    n = linalg.as_index(n, "n", 2)
    w = 1.0 / np.log2(n)
    return mix([erasure(n, 1.0), erasure(n, 0.0)], [1.0 - w, w])


def truncated_quantum_example(n: int) -> QuantumChannel:
    """n-level member of the family whose quantum capacity jumps at its limit.

    Mixes the 50% erasure-to-sink map with the embedded n-level identity at
    weight 1/log2(n) on the identity; equals erasure(n, (1 - 1/log2(n))/2).
    The limit is the 50% erasure channel with quantum capacity 0, while
    every member has coherent information exactly 1.
    """
    n = linalg.as_index(n, "n", 2)
    w = 1.0 / np.log2(n)
    return mix([erasure(n, 0.5), erasure(n, 0.0)], [1.0 - w, w])


# ---------------------------------------------------------- serialization


def channel_to_dict(ch: QuantumChannel) -> dict:
    """JSON-ready dict: {"d_in", "d_out", "kraus"} with row-major [re, im] pairs."""
    kraus = ch.kraus.view(np.float64).reshape(len(ch.kraus), -1, 2).tolist()
    return {"d_in": ch.d_in, "d_out": ch.d_out, "kraus": kraus}


def channel_from_dict(data: dict) -> QuantumChannel:
    """Inverse of channel_to_dict, validating shape and trace preservation."""
    try:
        d_in, d_out = (linalg.as_index(data[k], k, 1) for k in ("d_in", "d_out"))
        raw = data["kraus"]
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"malformed channel dict: {exc}") from exc
    kraus = linalg.as_pairs(raw, "kraus", 3)
    if kraus.shape[1:] != (d_in * d_out,):
        raise ArgumentError(f"Kraus list has shape {kraus.shape}, expected (r, {d_in * d_out})")
    return QuantumChannel(kraus.reshape(-1, d_out, d_in))
