"""Spectral simulation and verification toolkit for the forced, weakly
damped KdV equation on the torus."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    CoefSeq,
    GridSpec,
    random_rough_state,
    sobolev_norm,
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
    cubic_phase,
    quartic_phase,
    resonance_factor_min_ratio,
    smoothing_multiplier_sup,
)
