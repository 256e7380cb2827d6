"""Exception types shared across the package."""


class RMTError(Exception):
    """Base class for all package errors."""


class ConfigError(RMTError, ValueError):
    """Invalid experiment configuration or incompatible inputs."""


class DomainError(RMTError, ValueError):
    """Spectral parameter outside the admissible domain (e.g. Im z <= 0)."""


class SymmetryError(RMTError, ValueError):
    """Input matrix is not Hermitian to working precision."""


class ConvergenceError(RMTError, RuntimeError):
    """An iterative procedure failed to converge."""


class SolverError(RMTError, RuntimeError):
    """Linear solve failed (singular to working precision)."""


class SamplingError(RMTError, ValueError):
    """Profile/distribution combination cannot be sampled."""


class DegenerateProfileError(RMTError, ValueError):
    """Band shape vanished on the whole sampled lattice."""


class MomentInfeasibleError(RMTError, ValueError):
    """Moment target violates m4 - m3^2 - 1 >= 0."""


class NotFoundError(RMTError, LookupError):
    """Unknown catalog name."""


class EmptyError(RMTError, ValueError):
    """Estimator invoked on an empty sample."""


class StepError(RMTError, RuntimeError):
    """SDE step could not resolve a particle collision."""
