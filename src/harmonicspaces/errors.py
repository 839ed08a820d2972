"""Exception taxonomy shared by all modules."""


class HarmonicSpacesError(Exception):
    """Base class for errors raised by this package."""


class NonConvergence(HarmonicSpacesError):
    """Quadrature could not meet its tolerance: the total is not finite, the
    worst panel can no longer be halved in float64 (how a non-integrable
    open endpoint shows), or the subdivision budget ran out."""


class DomainViolation(HarmonicSpacesError):
    """Evaluation requested outside the open domain of a radial function."""


class UnsupportedModel(HarmonicSpacesError):
    """The requested model is outside the catalogue for this operation."""


class InvalidPoint(HarmonicSpacesError):
    """A point does not satisfy the ambient-space invariants."""


class SelfCheckFailed(HarmonicSpacesError):
    """A deck-group action violated one of its defining identities."""


class UsageError(HarmonicSpacesError, ValueError):
    """An argument was refused; a ValueError, so callers that catch one
    still do."""
