"""Exception types shared across the simulator, the checks of a positive finite
parameter and of a whole number, and ``locate``, the one way an error names its
point of a sweep."""

import math


class SledOamError(Exception):
    """Base class for all simulator errors."""


class DomainError(SledOamError, ValueError):
    """An input lies outside the physical domain of an operation."""


class ContractError(SledOamError, ValueError):
    """A numerical object violates a structural contract (Hermiticity, trace, basis)."""


class ConvergenceError(SledOamError, RuntimeError):
    """A quadrature or iteration failed its convergence check.

    Carries the competing estimates so callers can inspect how far apart they are.
    """

    def __init__(self, message: str, coarse=None, refined=None):
        super().__init__(message)
        self.coarse = coarse
        self.refined = refined


class EmptySectorError(SledOamError, ValueError):
    """No basis pair satisfies the requested angular-momentum selection rule."""


class DegenerateMixtureError(SledOamError, ValueError):
    """Mixture weights or component traces vanish; no state can be formed."""


class ConfigError(SledOamError, ValueError):
    """A run configuration failed to parse or validate."""


def require_positive(name: str, value: float) -> None:
    """Raise a ``DomainError`` unless ``value`` is positive and finite (NaN fails)."""
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise DomainError(f"{name} must be finite, got {value}")


def require_whole(name: str, value) -> int:
    """``value`` as an int; a ``DomainError`` unless it is a whole number (NaN and inf fail)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be a whole number, got {value}")


def locate(exc: SledOamError, t: float, enhancement: float) -> SledOamError:
    """Append the point to the message of a simulator error, keeping its type and attributes."""
    exc.args = (f"{exc} (at t={t}, enhancement={enhancement})",)
    return exc
