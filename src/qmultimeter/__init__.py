"""Programmable quantum multimeters with classical post-processing.

Covariant observable constructions over finite groups, a divergence measure
for observables, and a verification harness for the programming bounds.
"""

from .divergence import (
    DivergenceEstimate,
    DivergenceOptions,
    bhattacharyya,
    divergence_ratio,
    observable_divergence,
)
from .groups import (
    FiniteGroup,
    ProjectiveRepresentation,
    coset_postprocessing,
    covariant_multimeter,
    covariant_observable,
    covariant_program_state,
    cyclic_subgroup,
    eigenvector_program_states,
    q8_representation,
    weyl_heisenberg,
)
from .linalg import tensor
from .postprocessing import (
    PostProcessing,
    post_process_observable,
    pp_fidelity,
)
from .quantum import (
    DensityState,
    Multimeter,
    Observable,
    QuantumChannel,
    dual_apply,
    fidelity,
    outcome_distribution,
    program,
)
from .verify import (
    BoundCurve,
    VerificationReport,
    bound_curve,
    phase_space_demo,
    quaternion_demo,
    sharpmin_bound,
    verify_b_properties,
    verify_povm_bound,
    verify_prop1,
    verify_prop3,
)

__version__ = "0.1.0"
