"""Spectral simulation and verification toolkit for the forced, weakly
damped KdV equation on the torus."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    CoefSeq,
    GridSpec,
    from_physical,
    project_mean_zero,
    random_rough_state,
    sobolev_norm,
    to_physical,
    truncated_convolution,
)
from .flow import (  # noqa: F401
    FlowParams,
    StepFailureError,
    TrajectoryRecord,
    energy_envelope,
    evolve,
    evolve_batch,
    linear_flow,
    linear_multiplier,
    rhs,
    step,
)
from .normal_form import (  # noqa: F401
    NormalFormFrame,
    TripleClass,
    classify_triple,
    nonresonant_cubic,
    normal_form_bilinear,
    normal_form_residual,
    resonant_cancellation_residual,
    resonant_cubic,
    smoothing_gap,
    third_antiderivative,
)
from .lattice import (  # noqa: F401
    LatticeBudget,
    bilinear_norm_constant,
    cubic_phase,
    quartic_phase,
    resonance_factor_min_ratio,
    smoothing_multiplier_sup,
)
