"""Numerical laboratory for the radial semilinear wave equation at critical regularity."""

from nlwlab.core import (
    EquationParams,
    RadialGrid,
    RadialState,
    StepLog,
    Trajectory,
    load_state,
    make_params,
    reference_W,
    reference_ode_blowup,
    save_state,
    scale_state,
)
from nlwlab.solver import SolverConfig, evolve

__version__ = "0.1.0"

__all__ = [
    "EquationParams",
    "RadialGrid",
    "RadialState",
    "SolverConfig",
    "StepLog",
    "Trajectory",
    "evolve",
    "load_state",
    "make_params",
    "reference_W",
    "reference_ode_blowup",
    "save_state",
    "scale_state",
    "__version__",
]
