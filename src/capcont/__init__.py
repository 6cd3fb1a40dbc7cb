"""Numerical laboratory for quantum channels.

Channel distances (trace and diamond norm, the latter certified by a
fixed point on the input state, closed-form for covariant pairs, and an
interior-point SDP where that hands over), entropic quantities, single-letter capacity proxies,
continuity bounds with their empirical verification harnesses, and the
mixing arithmetic for assisted capacities.
"""

__version__ = "0.1.0"

from .assisted import (
    MixingGeometry,
    colinear_rescale,
    continuity_delta,
    erasure_q2,
    erasure_qb_bounds,
    mutual_gap_bound,
    simulation_upper_bound,
)
from .capopt import (
    OptimizationReport,
    max_coherent_information,
    max_holevo,
    max_private,
    n_copy_coherent_information,
    n_copy_holevo,
    n_copy_private,
)
from .channels import (
    ChoiMatrix,
    QuantumChannel,
    apply,
    apply_extended,
    channel_from_dict,
    channel_to_dict,
    complementary,
    constant_channel,
    dephasing,
    depolarizing,
    erasure,
    from_choi,
    identity,
    mix,
    stinespring,
    tensor_power,
    to_choi,
    truncated_classical_example,
    truncated_quantum_example,
)
from .continuity import (
    BoundReport,
    HybridSequence,
    af_bound,
    capacity_difference_bounds,
    discontinuity_demo,
    fannes_bound,
    hybrid_sequence,
    output_entropy_bound,
    random_nearby_pair,
    verify_af,
    verify_capacity_differences,
    verify_fannes,
    verify_output_entropy,
)
from .distance import (
    bell_probe_value,
    diamond_distance,
    diamond_lower_probe,
    diamond_norm,
    probe_value,
    trace_distance,
    trace_distance_halved,
)
from .entropic import (
    Ensemble,
    binary_entropy,
    coherent_information,
    conditional_entropy,
    entropy_of_matrix,
    entropy_of_spectrum,
    holevo_information,
    mutual_information,
    private_information,
    von_neumann_entropy,
)
from .errors import (
    ArgumentError,
    CapcontError,
    CPViolationError,
    DimensionError,
    NumericError,
    TPViolationError,
)
from .linalg import (
    DensityMatrix,
    PureState,
    maximally_entangled,
    partial_trace,
    trace_norm,
)
from .sampling import (
    haar_state,
    random_channel,
    random_density_matrix,
    random_unitary,
    rng_for,
)
from .sdp import DiamondSolution
