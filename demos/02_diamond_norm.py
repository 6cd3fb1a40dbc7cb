"""
Diamond distance with certificates
==================================

"""

from capcont import (
    ChoiMatrix,
    bell_probe_value,
    depolarizing,
    diamond_distance,
    diamond_lower_probe,
    diamond_norm,
    identity,
)

# The diamond distance between the identity and the depolarizing channel
# has the closed form 3p/2 on qubits, attained by a maximally entangled
# probe.  Every diamond norm reports a certified upper bound (value) and a
# certified lower bound (dual_value); their gap is the accuracy guarantee.
# This pair is covariant, so the closed-form bracket from one
# eigendecomposition of the Choi matrix already closes (iterations=0). So
# does a qubit pair whose optimal input is pure, on its pure face. A
# generic pair takes Anderson-mixed fixed-point steps on the input state,
# one eigendecomposition each, and goes to the interior-point SDP only when
# rho collapses toward a rank-deficient optimum or the gap closes too
# slowly; iterations counts both.
for p in (0.1, 0.3, 0.5):
    res = diamond_distance(identity(2), depolarizing(2, p))
    print(
        f"p={p}: value={res.value:.9f}  closed form={1.5 * p:.9f}  "
        f"gap={res.value - res.dual_value:.2e}  status={res.status}  "
        f"iterations={res.iterations}"
    )

# The difference of two channels is a Hermiticity-preserving map, given by
# its Choi matrix.  Pure-state probes always give lower bounds on its
# diamond norm.  The Bell probe is optimal here; random probes approach it
# from below.
choi = ChoiMatrix.difference(identity(2), depolarizing(2, 0.3))
print("bell probe:", round(bell_probe_value(choi), 9))
print("best of 20 random probes:", round(diamond_lower_probe(choi, 20, seed=1), 9))

# The norm is homogeneous: scaling the map scales the value.
res = diamond_norm(choi)
print("homogeneity check:", round(diamond_norm(choi.scaled(2.5)).value / res.value, 9))
