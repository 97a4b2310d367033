"""Exception taxonomy for the simulation engine."""


class SimulationError(Exception):
    """Base class for all engine errors."""


class ParameterError(SimulationError):
    """Invalid, inconsistent, or unknown physical parameters / config keys."""


class SingularityError(SimulationError):
    """No finite working point: the driven-cavity response has an (unphysical)
    pole at the requested point, or its arithmetic leaves floating-point range."""


class StabilityError(SimulationError):
    """A steady-state quantity was requested for a non-Hurwitz drift matrix."""


class ConvergenceError(SimulationError):
    """An iterative solver failed to reach its tolerance within its budget."""


class UnphysicalCovarianceError(SimulationError):
    """A covariance matrix failed a physicality check (garbage upstream state)."""
