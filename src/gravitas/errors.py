"""Exception types shared across the toolkit."""


class GravitasError(Exception):
    """Base class for all toolkit errors."""


class ConfigShapeError(GravitasError):
    """A kinematic configuration has the wrong leg structure for an operation."""


class SuperluminalBoostError(GravitasError):
    """Requested boost velocity has |beta| >= 1."""


class BelowThresholdError(GravitasError):
    """Total invariant mass is below the final-state mass threshold."""


class SpectatorMismatchError(GravitasError):
    """Spectator momenta differ where a disconnected delta requires equality."""


class StepSizeError(GravitasError):
    """Stochastic integration step violates the accuracy guard."""


class NumericalCheckError(GravitasError):
    """A numerical self-check failed during a computation (not a bad input)."""
