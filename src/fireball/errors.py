"""Exception hierarchy shared across the package."""


class FireballError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FireballError, ValueError):
    """Input outside the model's domain (non-positive variance, bad angle, ...)."""


class UnsupportedModelError(FireballError, ValueError):
    """Operation not defined for the given model kind."""


class NoMotionError(DomainError):
    """Angular invariant below the potential minimum: no real motion exists."""


class ConfigError(FireballError, ValueError):
    """Invalid run configuration (CLI flags or config file)."""


class IntegrationError(FireballError, RuntimeError):
    """Time integration could not continue.  Carries the last good state."""

    def __init__(self, message, last_t=None, last_y=None):
        super().__init__(message)
        self.last_t = last_t
        self.last_y = last_y


class SingularityError(IntegrationError):
    """Repeated step rejections by a field that refuses the stage state, e.g.
    at the variance floor (a singular force)."""
