"""Exception hierarchy for series evaluation and identity verification."""


class HyperidError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(HyperidError):
    """A gamma argument landed on a nonpositive integer."""


class IndeterminateError(HyperidError):
    """Numerator and denominator poles coincide; cancel symbolically first."""


class DivisionByZero(HyperidError):
    """A denominator factor of a finite product is exactly zero."""


class LowerPoleError(HyperidError):
    """A denominator parameter truncates the series before its terminating index."""


class DivergentError(HyperidError):
    """The series diverges at the given argument."""


class NotConvergent(DivergentError):
    """A series at |z| = 1 whose decay exponent is not above 1."""


class BudgetExceeded(HyperidError):
    """max_terms was exhausted before the stopping rule fired."""


class CancellationError(HyperidError):
    """Cancellation among a series' terms ate the requested digits, even at
    raised precision."""


class AccelerationFailed(HyperidError):
    """Sequence transformation stagnated above the requested tolerance."""


class DomainError(HyperidError):
    """Arguments outside the operation's domain (|q| >= 1, bad annulus, ...)."""


class SamplingExhausted(HyperidError):
    """Rejection sampling could not satisfy the constraints within its cap."""


class UnknownIdentityError(HyperidError):
    """Identity ID not present in the catalog."""
