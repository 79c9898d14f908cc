"""Exception types shared across the package."""


class SuperbsdeError(Exception):
    """Base class for all package errors."""


class ExtrapolationRangeError(SuperbsdeError):
    """Sampled generator evaluated beyond its last node."""


class UnboundedConjugateError(SuperbsdeError):
    """Fenchel conjugate of a sampled generator is +inf: past the last
    slope the supremum leaves the sampled range."""


class NoModulusError(SuperbsdeError):
    """Terminal condition has no Lipschitz constant, which the gap bound needs."""


class NotGaussianError(SuperbsdeError):
    """Cole-Hopf reference requested for a model with drift."""


class SimulationDivergedError(SuperbsdeError):
    """Euler-Maruyama state became non-finite."""

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"simulation diverged at step {step_index}")


class ResolutionError(SuperbsdeError):
    """Time grid cannot resolve the requested structure."""


class DomainError(SuperbsdeError):
    """Spatial domain too small for the requested computation."""


class RangeOverflowError(SuperbsdeError):
    """Requested sequence index would overflow floating point range."""


class ConfigError(SuperbsdeError):
    """Invalid run configuration; carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
