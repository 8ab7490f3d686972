"""Exception types shared across the package."""


class RccLabError(Exception):
    """Base class for all domain errors raised by this package."""


class NotHermitian(RccLabError):
    """Matrix fails the Hermiticity check beyond tolerance."""


class NotPositive(RccLabError):
    """Operator has an eigenvalue below the positivity tolerance."""


class BadTrace(RccLabError):
    """Operator trace differs from one beyond tolerance."""


class PremiseViolated(RccLabError):
    """Subsystem A carries coherence where a zero-coherence premise is required."""


class NotTracePreserving(RccLabError):
    """Kraus set expected to sum to the identity does not."""


class ZeroProbability(RccLabError):
    """Post-selected branch has vanishing probability; no conditional state exists."""


class WrongDimension(RccLabError):
    """Operation is only defined for other subsystem dimensions."""


class SearchExhausted(RccLabError):
    """The converse witness fell below `CONVERSE_COHERENCE_TARGET`."""

    def __init__(self, message, best_value=0.0, attempts=0):
        super().__init__(message)
        self.best_value = best_value
        self.attempts = attempts
