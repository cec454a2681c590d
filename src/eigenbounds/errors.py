"""Exception hierarchy shared by all eigenbounds modules."""


class EigenboundsError(Exception):
    """Base class for every error raised by this package."""


class InvalidPrime(EigenboundsError):
    """A field was asked for that cannot be built: its characteristic is not
    prime, its order is not a prime power, or its order lies outside
    2..MAX_FIELD_ORDER."""


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
    """A Cayley connecting set holds 0 or a repeat, or is not a union of GF(p)^* orbits."""


class NumericalInconsistency(EigenboundsError):
    """A floating-point cross-check failed beyond its tolerance, or a float
    inertia MILP's point could not be made an exact witness of its
    pattern."""


class TooLarge(EigenboundsError):
    """A computation's values would exceed what its integer type holds."""


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
