"""
Channels: Kraus, Choi, and Stinespring views
============================================

"""

import numpy as np

from capcont import (
    apply,
    complementary,
    erasure,
    from_choi,
    identity,
    stinespring,
    to_choi,
)
from capcont.linalg import DensityMatrix

# A qubit erasure channel with flag probability 1/4: the output lives in
# dimension 3 because the erasure flag is its own basis state.
ch = erasure(2, 0.25)
print(ch)

# Push the maximally mixed state through: the surviving part keeps weight
# 3/4 spread over two levels, the flag takes the remaining 1/4.
rho = DensityMatrix.maximally_mixed(2)
out = apply(ch, rho)
print("output spectrum:", np.round(np.linalg.eigvalsh(out.matrix), 6))

# The Choi matrix is the channel applied to half of a maximally entangled
# pair, scaled by the input dimension. Round-tripping through it gives a
# minimal Kraus family for the same map.
choi = to_choi(ch)
again = from_choi(choi)
print("kraus operators before/after round trip:", len(ch.kraus), "/", len(again.kraus))
print("round-trip choi error:", float(np.max(np.abs(to_choi(again).matrix - choi.matrix))))

# Stinespring dilation: one isometry into output (x) environment.  Tracing
# out the output instead of the environment gives the complementary
# channel; for erasure(d, p) that is erasure(d, 1-p) up to relabeling.
iso = stinespring(ch)
print("isometry shape:", iso.shape)
comp = complementary(ch)
print("complementary output dimension:", comp.d_out)

print(
    "complementary output spectrum (erasure at 1-p):",
    np.round(np.linalg.eigvalsh(apply(comp, rho).matrix), 6),
)

# Sanity: the identity channel is its own round trip.
print("identity round trip ok:", np.allclose(to_choi(from_choi(to_choi(identity(2)))).matrix, to_choi(identity(2)).matrix))
