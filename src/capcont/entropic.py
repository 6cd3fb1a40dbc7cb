"""Entropic and information quantities, all in bits.

Von Neumann entropy with eigenvalue clipping, binary entropy, conditional
entropy and mutual information across a declared bipartition, and the three
channel-information functionals evaluated at fixed inputs: coherent
information of a joint input state, Holevo information of an ensemble, and
private information of an ensemble (Holevo to the output minus Holevo to
the environment). Conditional entropy is computed in one raw kernel,
_conditional_entropy, which the coherent information negates, and Holevo
information in another, _holevo, on the Kraus images of each member.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import channels, linalg
from .channels import QuantumChannel
from .errors import ArgumentError
from .linalg import DensityMatrix

TAU_ENT = 1e-7  # slack for entropy inequalities


def entropy_of_spectrum(w: np.ndarray) -> float:
    """Shannon entropy in bits of a clipped eigenvalue vector."""
    return float(entropy_of_spectra(np.asarray(w, dtype=float)))


def entropy_of_spectra(w: np.ndarray) -> float | np.ndarray:
    """Entropies in bits of the clipped eigenvalue rows of a (..., n) array.

    One formula, 0.0 - sum p log2 p along the last axis with 0 log 0
    masked to 0: a 1-D spectrum gives a float, and each row of a stack the
    entropy of that row alone, bit for bit, since numpy reduces each
    contiguous row as it reduces the row alone.
    """
    p = np.clip(w, 0.0, 1.0)
    # 0.0 - x, not -x, so that a pure spectrum gives 0.0, not -0.0.
    s = 0.0 - np.sum(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0), axis=-1)
    return float(s) if p.ndim == 1 else s


def entropy_of_matrix(mat: np.ndarray) -> float | np.ndarray:
    """Entropy of a Hermitian matrix treated as a state (no validation).

    The ascending spectrum of the Hermitian part goes to
    entropy_of_spectra, so a (..., n, n) stack gives the array of its
    slices' entropies, each bit-equal to that of the slice alone.
    """
    return entropy_of_spectra(np.linalg.eigvalsh(linalg.hermitian_part(mat)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr rho log2 rho, via the clipped spectrum."""
    return entropy_of_matrix(rho.matrix)


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2(1-p), with 0 log 0 = 0."""
    p = linalg.as_real(p, "p", 0.0, 1.0)
    return entropy_of_spectrum(np.array([p, 1.0 - p]))


def _split_dims(rho: DensityMatrix, split: int) -> tuple[int, int]:
    if not 1 <= split < len(rho.dims):
        raise ArgumentError(
            f"split {split} invalid for {len(rho.dims)} tensor factors"
        )
    d_a = int(np.prod(rho.dims[:split]))
    d_b = int(np.prod(rho.dims[split:]))
    return d_a, d_b


def conditional_entropy(rho: DensityMatrix, split: int = 1) -> float:
    """S(A|B) = S(AB) - S(B); A is the first `split` tensor factors."""
    return _conditional_entropy(rho.matrix, _split_dims(rho, split), [1])


def _conditional_entropy(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]):
    """The conditional-entropy kernel: S(mat) - S(B), B the factors in `keep`.

    A raw kernel, as partial_trace_matrix: mat is a (..., d, d) stack, each
    slice giving its own value, bit-equal to that of the slice alone.
    """
    return entropy_of_matrix(mat) - entropy_of_matrix(linalg.partial_trace_matrix(mat, dims, keep))


def mutual_information(rho: DensityMatrix, split: int = 1) -> float:
    """I(A;B) = S(A) + S(B) - S(AB); A is the first `split` factors."""
    d_a, d_b = _split_dims(rho, split)
    s_a = entropy_of_matrix(linalg.partial_trace_matrix(rho.matrix, (d_a, d_b), keep=[0]))
    s_b = entropy_of_matrix(linalg.partial_trace_matrix(rho.matrix, (d_a, d_b), keep=[1]))
    return s_a + s_b - entropy_of_matrix(rho.matrix)


def coherent_information(ch: QuantumChannel, rho: DensityMatrix) -> float:
    """S(B) - S(AB) on (I (x) ch)(rho) for a two-factor input rho on A (x) A'."""
    if len(rho.dims) != 2:
        raise ArgumentError(f"input must have two tensor factors, got dims {rho.dims}")
    if rho.dims[1] != ch.d_in:
        raise ArgumentError(
            f"second factor dimension {rho.dims[1]} != channel input {ch.d_in}"
        )
    return _coherent_information(ch.kraus, rho.matrix, rho.dims)


def _coherent_information(kraus: np.ndarray, mat: np.ndarray, dims: tuple[int, ...]) -> float:
    """S(B^n) - S(RB^n), the family on each factor after the first (no validation).

    dims is (d_ref, d_in, ..., d_in), as for channels._kraus_images, so each
    of the n factors takes one copy: the n-copy power, never formed.
    """
    omega, dims = channels._apply_on_factors(kraus, mat, dims, range(1, len(dims)))
    # -S(R|B^n), written 0.0 - x so that equal entropies give 0.0, not -0.0.
    return 0.0 - _conditional_entropy(omega, (dims[0], len(omega) // dims[0]), [1])


class Ensemble:
    """Probability-weighted list of states on a common dimension."""

    def __init__(self, items: Sequence[tuple[float, DensityMatrix]]):
        items = list(items)
        probs = linalg.as_probabilities([p for p, _ in items], "ensemble probabilities")
        d = items[0][1].d
        if any(s.d != d for _, s in items):
            raise ArgumentError("ensemble states live on different dimensions")
        self.items = tuple(zip(probs.tolist(), (s for _, s in items)))
        self.d = d

    @classmethod
    def uniform_basis(cls, d: int) -> "Ensemble":
        """Uniform ensemble of the d computational basis states."""
        d = linalg.as_index(d, "d", 1)
        return cls(
            [
                (1.0 / d, DensityMatrix.from_pure(linalg.basis_state(d, i)))
                for i in range(d)
            ]
        )


def holevo_information(ch: QuantumChannel, ens: Ensemble) -> float:
    """I(X;B) = S(sum_x p_x ch(phi_x)) - sum_x p_x S(ch(phi_x)).

    Block x has rows sqrt(p_x w_j) v_j from the eigh of phi_x, w clipped at 0.
    """
    if ens.d != ch.d_in:
        raise ArgumentError(f"ensemble dimension {ens.d} != channel input {ch.d_in}")
    probs, states = (np.array(x) for x in zip(*((p, s.matrix) for p, s in ens.items if p > 0.0)))
    w, v = np.linalg.eigh(states)
    blocks = np.sqrt(probs[:, None] * np.clip(w, 0.0, None))[..., None] * v.swapaxes(-1, -2)
    return _holevo(ch.kraus, probs, blocks.reshape(len(probs), -1), (ens.d, ens.d))


def _holevo(
    kraus: np.ndarray, probs: np.ndarray, blocks: np.ndarray, dims: tuple[int, ...]
) -> float:
    """The Holevo kernel S(sum_x p_x N(rho_x)) - sum_x p_x S(N(rho_x)), not validated.

    Row x of blocks is a vector on dims whose trace over R = dims[0] is
    p_x rho_x; each later factor takes one channel copy. p_x N(rho_x) =
    Tr_R Z_x Z_x^dag for Z_x = channels._kraus_images of row x, and only
    one member's images are held at a time.
    """
    d_ref, avg, mean_s = dims[0], 0.0, 0.0
    for p, block in zip(probs.tolist(), blocks):
        z = channels._kraus_images(kraus, block, dims)  # rows (R, out), one column per product
        z = z.reshape(d_ref, -1, z.shape[-1]).swapaxes(0, 1).reshape(len(z) // d_ref, -1)
        out = z @ z.conj().T  # p_x N(rho_x)
        avg = avg + out
        mean_s += p * entropy_of_matrix(out / p)
    return entropy_of_matrix(avg) - mean_s


def private_information(ch: QuantumChannel, ens: Ensemble) -> float:
    """I(X;B) - I(X;E), with E the canonical dilation environment."""
    return holevo_information(ch, ens) - holevo_information(
        channels.complementary(ch), ens
    )
