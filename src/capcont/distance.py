"""State and channel distances.

Trace distance in the full 1-norm convention (with the halved variant as a
separate accessor) and the diamond norm of Hermiticity-preserving maps,
computed by the certified interior-point program in the sdp module and
cross-checked by Haar-probe lower bounds.
"""

from __future__ import annotations

import numpy as np

from . import sdp
from .channels import ChoiMatrix, QuantumChannel, to_choi
from .errors import ArgumentError
from .linalg import DensityMatrix, PureState, maximally_entangled, trace_norm
from .sampling import haar_state, rng_for
from .sdp import TAU_SDP, DiamondSolution


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1, the full (unhalved) trace norm of the difference."""
    if rho.d != sigma.d:
        raise ArgumentError(f"dimension mismatch {rho.d} != {sigma.d}")
    return trace_norm(rho.matrix - sigma.matrix)


def trace_distance_halved(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2)||rho - sigma||_1."""
    return 0.5 * trace_distance(rho, sigma)


class HermitianPreservingMap:
    """Linear map with a Hermitian Choi matrix, e.g. a channel difference."""

    def __init__(self, choi: ChoiMatrix):
        self.choi = choi
        self.d_in = choi.d_in
        self.d_out = choi.d_out

    @classmethod
    def difference(cls, a: QuantumChannel, b: QuantumChannel) -> "HermitianPreservingMap":
        if (a.d_in, a.d_out) != (b.d_in, b.d_out):
            raise ArgumentError("channel difference needs matching dimensions")
        j = to_choi(a).matrix - to_choi(b).matrix
        return cls(ChoiMatrix(j, a.d_in, a.d_out))

    def scaled(self, c: float) -> "HermitianPreservingMap":
        return HermitianPreservingMap(
            ChoiMatrix(float(c) * self.choi.matrix, self.d_in, self.d_out)
        )


def diamond_norm(the_map: HermitianPreservingMap) -> DiamondSolution:
    """Diamond norm of a Hermiticity-preserving map, with a certified gap.

    The exact-zero map short-circuits to 0 so that equal channels compare
    at machine precision rather than solver precision.
    """
    j = the_map.choi.matrix
    if float(np.max(np.abs(j))) == 0.0:
        return DiamondSolution(0.0, 0.0, 0, "optimal", 0.0, 0.0)
    sol = sdp.solve_diamond(j, the_map.d_in, the_map.d_out)
    if sol.status == "optimal" and not sol.certified():
        sol.status = "max-iters"  # keep the status honest about the gap
    return sol


def diamond_distance(a: QuantumChannel, b: QuantumChannel) -> DiamondSolution:
    """diamond_norm(a - b)."""
    return diamond_norm(HermitianPreservingMap.difference(a, b))


def probe_value(the_map: HermitianPreservingMap, psi: PureState) -> float:
    """||(map (x) I)(psi)||_1 for a pure probe on in (x) ref.

    Contracts the Choi matrix J, viewed as (d_in, d_out, d_in, d_out), with
    the probe's amplitude matrix M: the output on out (x) ref is
    out[b, r, c, s] = sum_ij M[i, r] J[i, b, j, c] conj(M[j, s]).
    Always a lower bound on the diamond norm.
    """
    d_in, d_out = the_map.d_in, the_map.d_out
    if len(psi.dims) != 2 or psi.dims[0] != d_in:
        raise ArgumentError(f"probe needs dims (d_in, d_ref), got {psi.dims}")
    d_ref = psi.dims[1]
    mat = psi.vector.reshape(d_in, d_ref)  # amplitude matrix of the probe
    j = the_map.choi.matrix.reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2)
    out = (mat.T @ j @ mat.conj()).transpose(0, 2, 1, 3).reshape((d_out * d_ref,) * 2)
    return float(np.sum(np.abs(np.linalg.eigvalsh(out))))


def diamond_lower_probe(the_map: HermitianPreservingMap, trials: int, seed: int) -> float:
    """Best of `trials` Haar-random pure probes with a full-size reference."""
    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    d_in = the_map.d_in
    best = 0.0
    for t in range(trials):
        psi = haar_state(d_in * d_in, rng_for(seed, t), dims=(d_in, d_in))
        best = max(best, probe_value(the_map, psi))
    return best


def bell_probe_value(the_map: HermitianPreservingMap) -> float:
    """Probe value at the maximally entangled input, a common tight case."""
    return probe_value(the_map, maximally_entangled(the_map.d_in))
