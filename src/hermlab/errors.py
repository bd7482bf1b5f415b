"""Exception types shared across the package."""


class HermlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(HermlabError):
    """Operands live over coframes of different dimension."""


class NotPositiveDefinite(HermlabError):
    """A matrix required to be Hermitian positive definite is not."""


class NotIntegrable(HermlabError):
    """The almost complex structure fails the integrability condition."""


class JacobiViolation(HermlabError):
    """Structure constants fail the Jacobi identity / d*d = 0."""


class SingularFrame(HermlabError):
    """A frame-change matrix (or a metric) is numerically singular."""


class UnknownCatalogEntry(HermlabError):
    """Requested catalog name is not recognized."""


class NumericalFailure(HermlabError):
    """A numerical evaluation produced non-finite values."""


class InvalidStartPoint(HermlabError):
    """The start metric of a descent cannot be analyzed."""
