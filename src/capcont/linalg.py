"""Dense complex linear algebra substrate, and the readers of public arguments.

The shared primitives (conjugate transpose, Hermitian part, real inner
product, partial trace, the trace norm and a probe's output trace norm),
together with the two state types the rest of the package passes around.
Everything is plain dense numpy; dimensions stay at desk scale by
construction (D_MAX guards Kronecker blowup, and check_choi_dim refuses an
oversized channel before it is built).

Every public argument of the package is read here, once, at the boundary:
as_index for a dimension, count, seed or index (with an optional lower
bound), as_real for a real in a closed range, as_positive for a positive
real (finite, or at most a given end), as_probabilities for a probability
vector, as_dims for tensor-factor dimensions and as_pairs for an array of
[re, im] pairs. Each refuses what is not its type (a bool is not a number
here, nor is a numeric string) and anything outside its domain, NaN
included, with an ArgumentError that names the argument, and returns the
plain int, float or array that the numerics then use.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Iterable, Sequence

import numpy as np
import numpy.linalg as npl

from .errors import ArgumentError, DimensionError

# Numerical tolerances. Double precision leaves ample headroom at d <= 512.
TAU_HERM = 1e-9   # Hermiticity residual
TAU_TR = 1e-9     # trace / normalization residual
TAU_PSD = 1e-8    # admissible negative eigenvalue magnitude
TAU_TP = 1e-8     # trace-preservation residual for channels
D_MAX = 4096      # largest matrix dimension any operation may produce


def as_index(value: object, name: str, low: int | None = None) -> int:
    """A dimension or count `name` by operator.index, at least low if given.

    numpy integers pass, not floats or bools.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if low is not None and value < low:
        raise ArgumentError(f"{name} {value} must be >= {low}")
    return value


def _real(value: object, name: str) -> float:
    """float(value) for a real number: numpy reals pass, not bools or strings."""
    # A float subclass such as numpy.float64 skips the slower ABC test.
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ArgumentError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_real(value: object, name: str, low: float, high: float) -> float:
    """A real argument `name` in [low, high], as a float; NaN is outside every range."""
    if type(value) is not float:
        value = _real(value, name)
    if not low <= value <= high:
        raise ArgumentError(f"{name} {value} outside [{low}, {high}]")
    return value


def as_positive(value: object, name: str, high: float = math.inf) -> float:
    """A real argument `name` in (0, high], as a float; with no high, positive and finite."""
    if type(value) is not float:
        value = _real(value, name)
    if not 0.0 < value <= high or value == math.inf:
        if high == math.inf:
            raise ArgumentError(f"{name} {value} must be positive and finite")
        raise ArgumentError(f"{name} {value} outside (0, {high}]")
    return value


def as_probabilities(values: Iterable[object], name: str) -> np.ndarray:
    """A nonempty probability vector `name` as a float array.

    Each entry is read as a real number, and the entries must be at least
    -TAU_TR and sum to 1 within TAU_TR.
    """
    try:
        p = np.array([_real(v, name) for v in values], dtype=float)
    except TypeError:  # not iterable
        raise ArgumentError(f"{name} must be a list of real numbers, got {values!r}") from None
    # Written so that a NaN or infinite weight fails the test too.
    if p.size == 0 or not (np.all(p >= -TAU_TR) and abs(p.sum() - 1.0) <= TAU_TR):
        raise ArgumentError(f"{name} must be nonnegative and sum to 1, got {p.tolist()}")
    return p


def as_dims(dims: Iterable[object], size: int) -> tuple[int, ...]:
    """Tensor-factor dimensions: positive integers whose product is size."""
    try:
        dims = tuple(as_index(x, "dims") for x in dims)
    except TypeError:  # not iterable
        raise ArgumentError(f"dims must be a list of integers, got {dims!r}") from None
    if math.prod(dims) != size or any(x < 1 for x in dims):
        raise DimensionError(f"dims {dims} are not positive factors of dimension {size}")
    return dims


def as_pairs(raw: object, name: str, ndim: int) -> np.ndarray:
    """A complex array from a nested list of [re, im] pairs of depth ndim.

    The pairs are the last axis, so the result has ndim - 1 axes. Entries
    must be JSON numbers: strings, None and bools are refused.
    """
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged pairs
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim or arr.shape[-1] != 2:
        raise ArgumentError(f"{name} must be a list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def check_choi_dim(d_in: int, d_out: int, n: int = 1) -> None:
    """Refuse n copies of a map whose Choi matrix, of dimension (d_in*d_out)^n, exceeds D_MAX."""
    d = d_in * d_out
    if d == 1:
        return
    if n >= D_MAX.bit_length():  # d^n >= 2^n > D_MAX, refused without forming d^n
        raise DimensionError(f"Choi dimension {d}^{n} exceeds D_MAX={D_MAX}")
    if d**n > D_MAX:
        raise DimensionError(f"Choi dimension {d**n} exceeds D_MAX={D_MAX}")


def as_matrix(x: object) -> np.ndarray:
    """Coerce to a 2-D complex ndarray."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ArgumentError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ArgumentError("matrix has non-finite entries")
    return m


def herm_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T), initial=0.0))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., rows, cols) stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of each matrix of a (..., d, d) stack, exactly Hermitian."""
    return (m + dagger(m)) / 2.0


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> = Re Tr a^dag b over the flattened arrays."""
    return float(np.vdot(a, b).real)


def basis_state(d: int, i: int) -> np.ndarray:
    """Computational basis vector |i> in dimension d."""
    d, i = as_index(d, "d"), as_index(i, "i")
    if not 0 <= i < d:
        raise ArgumentError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


class PureState:
    """Unit vector with attached tensor-factor dimensions."""

    def __init__(self, vector: np.ndarray, dims: Sequence[int]):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        dims = as_dims(dims, v.size)
        if not np.all(np.isfinite(v)):
            raise ArgumentError("state vector has non-finite entries")
        nrm = npl.norm(v)
        if abs(nrm - 1.0) > 1e-6:
            raise ArgumentError(f"vector norm {nrm} is not 1")
        if abs(nrm - 1.0) > TAU_TR:
            v = v / nrm
        self.vector = v
        self.dims = dims
        self.vector.setflags(write=False)

    @property
    def d(self) -> int:
        return self.vector.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), self.dims)


class DensityMatrix:
    """Unit-trace PSD matrix with attached tensor-factor dimensions."""

    def __init__(self, matrix: np.ndarray, dims: Sequence[int] | None = None):
        m = as_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix must be square, got {m.shape}")
        d = m.shape[0]
        dims = (d,) if dims is None else as_dims(dims, d)
        if herm_residual(m) > TAU_HERM:
            raise ArgumentError(
                f"density matrix not Hermitian within {TAU_HERM}: residual {herm_residual(m):.3e}"
            )
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TAU_TR:
            raise ArgumentError(f"trace {tr} differs from 1 beyond {TAU_TR}")
        self.matrix = hermitian_part(m)
        w = npl.eigvalsh(self.matrix)
        if w[0] < -TAU_PSD:
            raise ArgumentError(f"negative eigenvalue {w[0]:.3e} below -{TAU_PSD}")
        self.dims = dims
        self.matrix.setflags(write=False)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, vector: np.ndarray, dims: Sequence[int] | None = None) -> "DensityMatrix":
        """|v><v| / <v|v> for a nonzero vector v."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / as_positive(npl.norm(v), "vector norm")
        return cls(np.outer(v, v.conj()), dims if dims is not None else (v.size,))

    @classmethod
    def maximally_mixed(cls, d: int, dims: Sequence[int] | None = None) -> "DensityMatrix":
        d = as_index(d, "d", 1)
        return cls(np.eye(d, dtype=complex) / d, dims if dims is not None else (d,))


def maximally_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on a d x d bipartite space."""
    d = as_index(d, "d", 1)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(v, (d, d))


def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix over the factors not in `keep`.

    A raw kernel: mat is a complex (..., d, d) array whose leading axes are
    a batch, each slice traced on its own; dims multiply to d, and keep is
    a sorted nonempty list of factor indices. Kept factors stay in their
    order, and no normalization is applied.
    """
    dims = tuple(dims)
    k = len(dims)
    batch = mat.shape[:-2]
    t = mat.reshape(batch + dims + dims)
    # Row axis i and column axis k+i share a subscript when factor i is traced.
    row = list(range(k))
    col = [k + i if i in keep else i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    reduced = np.einsum(t, [Ellipsis] + row + col, [Ellipsis] + out)
    dk = math.prod(dims[i] for i in keep)
    return reduced.reshape(batch + (dk, dk))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept factors."""
    keep = sorted(set(as_index(i, "keep") for i in keep))
    if not keep:
        raise ArgumentError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= len(rho.dims):
        raise ArgumentError(f"keep indices {keep} out of range for {len(rho.dims)} factors")
    red = partial_trace_matrix(rho.matrix, rho.dims, keep)
    return DensityMatrix(red, tuple(rho.dims[i] for i in keep))


def probe_trace_norm(j: np.ndarray, mat: np.ndarray, d_in: int, d_out: int) -> float:
    """||(map (x) I)(psi)||_1 from a map's Choi matrix j and a probe's amplitudes.

    A raw kernel: j is the map's Choi matrix on in (x) out, viewed as
    (d_in, d_out, d_in, d_out), and mat is the d_in x d_ref amplitude matrix
    M of psi on in (x) ref. The output on out (x) ref is
    out[b, r, c, s] = sum_ij M[i, r] J[i, b, j, c] conj(M[j, s]), and no
    normalization is applied.
    """
    d_ref = mat.shape[1]
    jt = j.reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2)
    out = (mat.T @ jt @ mat.conj()).transpose(0, 2, 1, 3).reshape((d_out * d_ref,) * 2)
    return float(np.sum(np.abs(npl.eigvalsh(out))))


def trace_norm(x: np.ndarray) -> float:
    """Sum of singular values (= sum |eigenvalues| for Hermitian input)."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ArgumentError(f"trace norm expects a square matrix, got {x.shape}")
    if herm_residual(x) <= TAU_HERM * max(1.0, float(np.abs(x).max(initial=0.0))):
        return float(np.sum(np.abs(npl.eigvalsh(hermitian_part(x)))))
    return float(np.sum(npl.svd(x, compute_uv=False)))
