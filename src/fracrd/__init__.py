"""Simulator and verification harness for a time-space fractional
reaction-diffusion model on a 1D interval:

    d^alpha/dt^alpha u + (-Laplace)^s_Omega u = -u(1-u),   u = 0 outside Omega,

with Caputo time memory of order alpha in (0, 1] and the regional fractional
Laplacian of order s in (0, 1).  The package provides the special functions,
time steppers, operator assembly, coupled solver, and a campaign harness that
checks boundedness, algebraic energy decay, and finite-time blow-up brackets.
"""

from .caputo import solve_linear_fode
from .fraclap import (
    EigenPair,
    Grid1D,
    OperatorMatrix,
    assemble_regional,
    assemble_regional_untruncated,
    principal_eigenpair,
)
from .solver import (
    BlowupBracket,
    BlowupFinding,
    SimConfig,
    SimulationResult,
    blowup_bracket,
    decay_rate_fit,
    detect_blowup,
    run,
)
from .special import ml_eval

__all__ = [
    "solve_linear_fode",
    "Grid1D",
    "OperatorMatrix",
    "EigenPair",
    "assemble_regional",
    "assemble_regional_untruncated",
    "principal_eigenpair",
    "SimConfig",
    "SimulationResult",
    "BlowupBracket",
    "BlowupFinding",
    "blowup_bracket",
    "decay_rate_fit",
    "detect_blowup",
    "run",
    "ml_eval",
]

__version__ = "0.1.0"
