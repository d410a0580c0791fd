"""Exception types shared across the package."""

__all__ = ["VfpError", "ConfigurationError", "DivergenceError", "SchemeError", "UnconfinedError",
           "NonConvergenceError"]


class VfpError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(VfpError):
    """Invalid configuration, kernel descriptor, or discretization constraint."""


class DivergenceError(VfpError):
    """A simulation diverged numerically (the CLI exits with code 2)."""

    def __init__(self, message: str, t: float | None = None,
                 max_velocity: float | None = None):
        super().__init__(message)
        self.t = t
        self.max_velocity = max_velocity


class SchemeError(DivergenceError):
    """A grid step violated positivity or conservation beyond tolerance."""


class UnconfinedError(VfpError):
    """Interaction strength destroys confinement of the quadratic model."""


class NonConvergenceError(VfpError):
    """Fixed-point iteration did not reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
