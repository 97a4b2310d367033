"""Steady-state entanglement engine for an atom-assisted opto-electro-mechanical
system: linearized 10-mode fluctuation dynamics, Lyapunov steady-state
covariance, and logarithmic negativity over parameter sweeps."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    ParameterError,
    SimulationError,
    SingularityError,
    StabilityError,
    UnphysicalCovarianceError,
)
from .model import (
    DerivedQuantities,
    SteadyState,
    SystemParameters,
    derive,
    effective_atom_number,
    solve_steady_state,
    thermal_occupation,
)
from .dynamics import (
    StabilityReport,
    build_diffusion,
    build_drift,
    is_stable,
    solve_lyapunov,
)
from .gaussian import (
    BIPARTITE_PAIRS,
    BOSONIC_PAIRS,
    BipartitePair,
    LogNegativity,
    extract_bipartite,
    log_negativity,
    normalize_pair_tag,
)
from .sweep import (
    PRESET_NAMES,
    PointRecord,
    SweepResult,
    SweepSpec,
    evaluate_point,
    preset,
    run_sweep,
    write_csv,
)

__all__ = [
    "BIPARTITE_PAIRS",
    "BOSONIC_PAIRS",
    "BipartitePair",
    "ConvergenceError",
    "DerivedQuantities",
    "LogNegativity",
    "PRESET_NAMES",
    "ParameterError",
    "PointRecord",
    "SimulationError",
    "SingularityError",
    "StabilityError",
    "StabilityReport",
    "SteadyState",
    "SweepResult",
    "SweepSpec",
    "SystemParameters",
    "UnphysicalCovarianceError",
    "build_diffusion",
    "build_drift",
    "derive",
    "effective_atom_number",
    "evaluate_point",
    "extract_bipartite",
    "is_stable",
    "log_negativity",
    "normalize_pair_tag",
    "preset",
    "run_sweep",
    "solve_lyapunov",
    "solve_steady_state",
    "thermal_occupation",
    "write_csv",
]
