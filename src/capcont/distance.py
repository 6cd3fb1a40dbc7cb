"""State and channel distances.

Trace distance in the full 1-norm convention (with the halved variant as a
separate accessor) and the certified diamond norm of a Hermiticity-preserving
map, given by its ChoiMatrix (ChoiMatrix.difference(a, b) for the distance
of two channels). The diamond norm first tries a closed-form bracket from one
eigendecomposition of the Choi matrix (the Bell-probe lower bound and the
|J| feasible point of the dual); it runs the interior-point program in the
sdp module only when that bracket does not close, and then cross-checks the
program's interval against the bracket. Haar-probe lower bounds are a
further independent check.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import sdp
from .channels import ChoiMatrix, QuantumChannel
from .errors import ArgumentError
from .linalg import DensityMatrix, PureState, maximally_entangled, partial_trace_matrix
from .linalg import probe_trace_norm, trace_norm
from .sampling import haar_state, rng_for
from .sdp import GAP_TARGET, TAU_SDP, DiamondSolution


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1, the full (unhalved) trace norm of the difference."""
    if rho.d != sigma.d:
        raise ArgumentError(f"dimension mismatch {rho.d} != {sigma.d}")
    return trace_norm(rho.matrix - sigma.matrix)


def trace_distance_halved(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2)||rho - sigma||_1."""
    return 0.5 * trace_distance(rho, sigma)


def _bracket(j: np.ndarray, d_in: int, d_out: int) -> tuple[float, float]:
    """(Bell-probe value, lambda_max(Tr_out |J|)) from one eigh of J."""
    lam, vecs = np.linalg.eigh(j)
    lower = float(np.sum(np.abs(lam))) / d_in
    abs_j = (vecs * np.abs(lam)) @ vecs.conj().T
    upper = float(np.linalg.eigvalsh(partial_trace_matrix(abs_j, (d_in, d_out), [0]))[-1])
    return lower, upper


def diamond_norm(choi: ChoiMatrix) -> DiamondSolution:
    """Diamond norm of a Hermiticity-preserving map, with a certified gap.

    The exact-zero map short-circuits to 0 so that equal channels compare
    at machine precision rather than solver precision.

    Otherwise one eigendecomposition J = V diag(lam) V^dag of the Choi
    matrix gives a closed-form bracket:

    - lower = sum |lam| / d_in, the Bell-probe value
      ||(map (x) I)(Phi+)||_1;
    - upper = lambda_max(Tr_out |J|), the dual objective of the feasible
      point Y0 = Y1 = |J| of Watrous's SDP (arXiv:1207.5726).

    When the bracket closes to the SDP's own relative target, upper - lower
    <= GAP_TARGET * upper (covariant pairs such as identity vs depolarizing
    or the truncation family, whose gaps are ~1e-14), it is returned as the
    certificate, with iterations == 0. The test is relative so that a map
    of small norm is not certified by its scale alone. Otherwise the
    interior-point SDP runs, and a solution whose interval leaves the
    bracket is reported as max-iters, so it is never certified.
    """
    j = choi.matrix
    if float(np.max(np.abs(j))) == 0.0:
        return DiamondSolution(0.0, 0.0, 0, "optimal")
    d_in, d_out = choi.d_in, choi.d_out
    lower, upper = _bracket(j, d_in, d_out)
    if upper - lower <= GAP_TARGET * upper:
        # Rounding can put lower a few ulps above upper; clamp the interval.
        return DiamondSolution(upper, min(lower, upper), 0, "optimal")
    sol = sdp.solve_diamond(j, d_in, d_out)
    slack = TAU_SDP * (1.0 + abs(sol.value))
    if sol.value < lower - slack or sol.dual_value > upper + slack:
        return replace(sol, status="max-iters")  # the interval misses the bracket
    return sol


def diamond_distance(a: QuantumChannel, b: QuantumChannel) -> DiamondSolution:
    """diamond_norm(a - b)."""
    return diamond_norm(ChoiMatrix.difference(a, b))


def probe_value(choi: ChoiMatrix, psi: PureState) -> float:
    """||(map (x) I)(psi)||_1 for a pure probe on in (x) ref.

    Contracts the Choi matrix with the probe's amplitude matrix
    (`linalg.probe_trace_norm`, which the SDP's certificate also uses).
    Always a lower bound on the diamond norm.
    """
    d_in, d_out = choi.d_in, choi.d_out
    if len(psi.dims) != 2 or psi.dims[0] != d_in:
        raise ArgumentError(f"probe needs dims (d_in, d_ref), got {psi.dims}")
    return probe_trace_norm(choi.matrix, psi.vector.reshape(d_in, psi.dims[1]), d_in, d_out)


def diamond_lower_probe(choi: ChoiMatrix, trials: int, seed: int) -> float:
    """Best of `trials` Haar-random pure probes with a full-size reference."""
    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    d_in = choi.d_in
    best = 0.0
    for t in range(trials):
        psi = haar_state(d_in * d_in, rng_for(seed, t), dims=(d_in, d_in))
        best = max(best, probe_value(choi, psi))
    return best


def bell_probe_value(choi: ChoiMatrix) -> float:
    """Probe value at the maximally entangled input, a common tight case."""
    return probe_value(choi, maximally_entangled(choi.d_in))
