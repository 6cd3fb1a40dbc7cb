"""Seeded random generators for states and channels.

All harnesses draw through these helpers so that a single integer seed
determines every trial. Independent streams for trial k come from
SeedSequence spawn keys, which keeps results stable no matter how trials
are scheduled. rng_for reads its seed and branch; a caller that has read
its seed once draws each stream from _stream, the raw kernel it ends in.
"""

from __future__ import annotations

import numpy as np

from .channels import QuantumChannel
from .errors import ArgumentError
from .linalg import DensityMatrix, PureState, as_index, check_choi_dim


def rng_for(seed: int, *branch: int) -> np.random.Generator:
    """Generator for a (seed, branch...) stream, stable under scheduling."""
    seed, branch = as_index(seed, "seed"), tuple(as_index(b, "branch") for b in branch)
    if seed < 0 or any(b < 0 for b in branch):
        raise ArgumentError(f"seed {seed} and branch {branch} must be non-negative")
    return _stream(seed, branch)


def _stream(seed: int, branch: tuple[int, ...]) -> np.random.Generator:
    """Raw generator of rng_for(seed, *branch): non-negative ints, not validated."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=branch))


def haar_state(d: int, rng: np.random.Generator, dims=None) -> PureState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    d = as_index(d, "d", 1)
    return PureState(_haar_vector(d, rng), dims if dims is not None else (d,))


def _haar_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Raw unit vector of haar_state: a normalized complex Gaussian (no validation)."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density_matrix(
    d: int, rng: np.random.Generator, rank: int | None = None, dims=None
) -> DensityMatrix:
    """Wishart-style random state of the given rank (full rank by default)."""
    d = as_index(d, "d")
    r = d if rank is None else as_index(rank, "rank")
    if not 1 <= r <= d:
        raise ArgumentError(f"rank {r} out of range for dimension {d}")
    return DensityMatrix(_wishart(d, r, rng), dims if dims is not None else (d,))


def _wishart(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Raw unit-trace G G^dag for a complex Gaussian d x r matrix G (no validation)."""
    return _unit_trace_gram(rng.normal(size=(2, d, r)))


def _unit_trace_gram(x: np.ndarray) -> np.ndarray:
    """The Wishart kernel: unit-trace G G^dag for G = x[..., 0, :, :] + i x[..., 1, :, :].

    x is a real (..., 2, d, r) stack; each slice's matrix is bit-equal to
    that of the slice alone.
    """
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    d = as_index(d, "d")
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_channel(
    d_in: int, d_out: int, rng: np.random.Generator, kraus_count: int | None = None
) -> QuantumChannel:
    """Random channel from a Haar-random isometry into out (x) env.

    kraus_count fixes the environment dimension; the default d_in*d_out
    gives a generic full-rank Choi matrix. A larger kraus_count draws a
    larger isometry, and the channel is then stored in Choi-rank form.
    """
    d_in, d_out = as_index(d_in, "d_in", 1), as_index(d_out, "d_out", 1)
    k = d_in * d_out if kraus_count is None else as_index(kraus_count, "kraus_count", 1)
    if k * d_out < d_in:  # no isometry from in into out (x) env exists
        raise ArgumentError(
            f"kraus_count {k} too small: {k} * d_out {d_out} < d_in {d_in}"
        )
    check_choi_dim(d_in, d_out)
    g = rng.normal(size=(d_out * k, d_in)) + 1j * rng.normal(size=(d_out * k, d_in))
    q, _ = np.linalg.qr(g)  # columns orthonormal: an isometry into out (x) env
    return QuantumChannel(q.reshape(d_out, k, d_in).transpose(1, 0, 2))
