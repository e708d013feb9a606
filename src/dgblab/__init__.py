"""Pseudospectral toolkit for a dispersion-generalized Benjamin equation.

Simulation of the damped closed loop on the circle, verification of the
spectral structure behind it (multiplicities, gaps, resonances, modulation
spread), and exact-control synthesis with independent certificates.
"""

from .spectral import (
    SpectralField,
    constant_field,
    cosine_field,
    l2_inner,
    l2_norm,
    mean,
    project_mean_zero,
    random_field,
    sobolev_norm,
)
from .symbols import (
    BENJAMIN,
    ModelParams,
    SymbolTable,
    build_symbols,
    gap_check,
    modulation_check,
    multiplicity_scan,
    resonance_check,
)
from .damping import (
    DampingProfile,
    apply_feedback,
    apply_gain,
    decomposition_residual,
    dissipation_equivalence,
    dissipation_form,
    make_profile_bump,
    make_profile_global,
)
from .dynamics import (
    Etdrk4Integrator,
    LinearClosedLoop,
    TrajectoryRecord,
    build_closed_loop,
    decay_fit,
    energy_residual,
    linear_propagate,
    linear_trajectory,
    semigroup_apply,
    simulate,
    simulate_damped,
)
from .control import (
    ControlProblem,
    ControlSolution,
    biorthogonal_family,
    linear_control_global_modal,
    linear_control_gramian,
    nonlinear_control_global,
    observability_constant,
)

__version__ = "0.10.0"
