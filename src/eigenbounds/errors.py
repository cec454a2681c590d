"""Exception hierarchy shared by all eigenbounds modules."""


class EigenboundsError(Exception):
    """Base class for every error raised by this package."""


class InvalidPrime(EigenboundsError):
    """The characteristic passed to a field constructor is not prime."""


class InternalError(EigenboundsError):
    """An invariant that should be unbreakable was broken."""


class DimensionMismatch(EigenboundsError):
    """Vectors over different fields or of different lengths were mixed."""


class InvalidElement(EigenboundsError):
    """An element lies outside the ambient set of the metric space."""


class AmbientTooLarge(EigenboundsError):
    """The requested enumeration exceeds the desk-scale guard."""


class Disconnected(EigenboundsError):
    """The operation requires a connected graph."""


class NotSymmetric(EigenboundsError):
    """The eigensolver input matrix is not symmetric."""


class AsymmetricConnectingSet(EigenboundsError):
    """A Cayley connecting set is not closed under negation (or contains 0)."""


class NumericalInconsistency(EigenboundsError):
    """A floating-point cross-check failed beyond its tolerance."""


class TooLarge(EigenboundsError):
    """The linear program exceeds the size guard."""


class NoFeasibleAssignment(EigenboundsError):
    """No binary assignment satisfied the feasibility oracle."""


class BudgetExceeded(EigenboundsError):
    """A search exceeded its node budget."""


class DegreeTooHigh(EigenboundsError):
    """The polynomial degree exceeds k for this bound."""


class AssumptionViolated(EigenboundsError):
    """A theorem hypothesis (e.g. p(lambda_1) > lambda(p)) fails."""


class NotRegular(EigenboundsError):
    """The bound requires a regular graph."""


class NotApplicable(EigenboundsError):
    """The bound's parameter-range condition is not met."""


class TooFewEigenvalues(EigenboundsError):
    """The spectrum has fewer distinct eigenvalues than the bound needs."""


class FixtureNotFound(EigenboundsError):
    """A reference table fixture file is missing."""
