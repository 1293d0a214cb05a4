"""Numerical library for non-local total-variation energies.

Interaction laws, step functions and their simplifying operators, exact and
quadrature energies, log-sum minimum problems, and shape-factor lower bounds.
"""

from .laws import (
    AdmissibilityReport,
    AffineThetaLaw,
    DyadicAffineLaw,
    InteractionLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    QuadraticHeadLaw,
    ScaledLaw,
    TabulatedLaw,
    check_admissible,
    phi_eps,
    rescale,
)
from .stepfn import (
    StepFunction,
    gaps,
    oscillation,
    rearrange,
    segment,
    staircase_from_gaps,
    total_variation,
    truncate,
)
from .energy import (
    EnergyResult,
    geometric_constant,
    hostility,
    lambda_quad,
    lambda_step,
    lambda_strip,
)
from .minprob import (
    MinProblem,
    MinResult,
    in_domain,
    log_cost,
    minimize,
    power_cost,
    telescopic_margin,
    window_sums,
)
from .bounds import (
    BoundReport,
    counterexample_table,
    gamma_liminf_factor,
    harmonic_number,
    psi_bound,
    psi_law,
    theta_bound,
    zeta_bound,
)

__version__ = "0.1.0"
