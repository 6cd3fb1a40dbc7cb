"""Mutual-simulation arithmetic for assisted quantum capacities.

Interior points of the positive-capacity region admit two-way mixing
simulations: each channel of a pair simulates the other at a rate premium
set by the mixing coefficients, which yields continuity bounds for the
assisted capacities without any protocol machinery.  This module is
deliberately pure scalar arithmetic over those rates; the mixing
coefficients are inputs, since choosing optimal boundary channels for a
concrete pair is a geometry problem with no operational recipe.  Every
argument, and every MixingGeometry field, is read as a float by the
`linalg` readers: mixing weights in [0, 1] (p2 of a geometry in [0, 1/2]),
capacities in [0, log d], and log d, radii and gaps positive and finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import as_positive, as_real


@dataclass(frozen=True)
class MixingGeometry:
    """Mixing coefficients and ball geometry for a mutual simulation.

    p1 mixes the far boundary channel into the first channel of the pair
    and p2 (at most 1/2 by construction) the reverse; Delta is the radius
    of the channel ball and delta in (0, Delta] the pair's separation;
    log_d is the qubit count log of min(d_in, d_out).
    """

    p1: float
    p2: float
    Delta: float
    delta: float
    log_d: float

    def __post_init__(self):
        # The class is frozen, so each field is set through object.__setattr__
        # to the float that its reader returns.
        read = {
            "p1": as_real(self.p1, "p1", 0.0, 1.0),
            "p2": as_real(self.p2, "p2", 0.0, 0.5),
            "Delta": as_positive(self.Delta, "Delta"),
        }
        read["delta"] = as_positive(self.delta, "delta", read["Delta"])
        read["log_d"] = as_positive(self.log_d, "log_d")
        for name, value in read.items():
            object.__setattr__(self, name, value)


def simulation_upper_bound(q2_n: float, p1: float, log_d: float) -> float:
    """Rate ceiling p1 log d + (1 - p1) q2_n on the simulated channel.

    The derivation divides by the simulating capacity, so q2_n must be
    positive: the bound only exists in the interior of the
    positive-capacity region. No capacity exceeds the finite ceiling log_d.
    """
    log_d = as_positive(log_d, "log_d")
    q2_n = as_positive(as_real(q2_n, "q2_n", 0.0, log_d), "q2_n")
    p1 = as_real(p1, "p1", 0.0, 1.0)
    return p1 * log_d + (1.0 - p1) * q2_n


def mutual_gap_bound(
    q2_n: float, q2_m: float, p1: float, p2: float, log_d: float
) -> float:
    """Two-sided capacity gap bound min of p_i (log d - capacity_i)."""
    log_d = as_positive(log_d, "log_d")
    q2_n = as_real(q2_n, "q2_n", 0.0, log_d)
    q2_m = as_real(q2_m, "q2_m", 0.0, log_d)
    p1 = as_real(p1, "p1", 0.0, 1.0)
    p2 = as_real(p2, "p2", 0.0, 1.0)
    return min(p1 * (log_d - q2_n), p2 * (log_d - q2_m))


def colinear_rescale(geom: MixingGeometry) -> tuple[float, float]:
    """Mixing coefficients after shrinking the boundary ray to radius delta.

    q1 rescales linearly; q2 renormalizes through the convex rearrangement
    and stays below 2 p2 delta/Delta because p2 never exceeds 1/2.
    """
    r = geom.delta / geom.Delta
    q1 = geom.p1 * r
    q2 = geom.p2 * r / (r * geom.p2 + (1.0 - geom.p2))
    return q1, q2


def continuity_delta(eps: float, Delta: float, log_d: float) -> float:
    """Separation radius Delta eps / (2 log d) that keeps the gap within eps.

    All three arguments must be positive and finite; composing the result
    with colinear_rescale and mutual_gap_bound bounds the assisted-capacity
    gap of any pair within this separation by eps.
    """
    return (as_positive(Delta, "Delta") * as_positive(eps, "eps")
            / (2.0 * as_positive(log_d, "log_d")))


def erasure_q2(p: float) -> float:
    """Two-way assisted quantum capacity 1 - p of the erasure channel."""
    p = as_real(p, "p", 0.0, 1.0)
    return 1.0 - p


def erasure_qb_bounds(p: float) -> tuple[float, float]:
    """Bracket for the backward-assisted capacity of the erasure channel.

    The lower bound is the unassisted coherent-information capacity
    max(1 - 2p, 0); the upper bound is the two-way capacity 1 - p, which
    dominates the backward-assisted one.
    """
    p = as_real(p, "p", 0.0, 1.0)
    return max(1.0 - 2.0 * p, 0.0), 1.0 - p
