"""degenlab: a desk-scale numerical laboratory for degenerate
divergence-form diffusion operators -(d/dx_i) c_ij (d/dx_j).

Builds viscosity generators on reflecting boxes as symmetric Markov
M-matrices, evolves their heat semigroups and wave propagators, computes
intrinsic-metric geometry, and turns qualitative theory (conservation,
off-diagonal Gaussian bounds, finite propagation speed, kernel decay and
floors, separation across degeneracies) into quantitative pass/fail
diagnostics with reproducible reports.
"""

from .coeffs import (
    Classification,
    CoefficientProfile,
    PowerDegenerate,
    RadialShell,
    Sampled,
    StronglyElliptic,
    SurfaceDegenerate,
    Verdict,
    classify,
    profile_from_json,
)
from .errors import (
    DomainError,
    InconclusiveIntegralError,
    ResourceLimitError,
    SchemaError,
    SolverError,
)
from .evolve import (
    HeatField,
    SupKernelValue,
    WaveField,
    heat_evolve,
    heat_gram,
    kernel_column,
    operator_eig,
    resolvent_power_apply,
    sup_kernel,
    wave_evolve,
)
from .grid import DiscreteOperator, Mesh, assemble, build_mesh, cut_conductance, markov_check
from .metric import (
    DistanceField,
    HolderFit,
    ball_volume,
    distance_1d,
    distance_field,
    holder_fit,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CoefficientProfile",
    "PowerDegenerate",
    "RadialShell",
    "Sampled",
    "StronglyElliptic",
    "SurfaceDegenerate",
    "Verdict",
    "classify",
    "profile_from_json",
    "DomainError",
    "InconclusiveIntegralError",
    "ResourceLimitError",
    "SchemaError",
    "SolverError",
    "HeatField",
    "SupKernelValue",
    "WaveField",
    "heat_evolve",
    "heat_gram",
    "kernel_column",
    "operator_eig",
    "resolvent_power_apply",
    "sup_kernel",
    "wave_evolve",
    "DiscreteOperator",
    "Mesh",
    "assemble",
    "build_mesh",
    "cut_conductance",
    "markov_check",
    "DistanceField",
    "HolderFit",
    "ball_volume",
    "distance_1d",
    "distance_field",
    "holder_fit",
]
