"""Domain exceptions shared across the package.

The CLI maps any :class:`StpcsError` to exit code 1 and echoes the class
name, so error types double as stable, machine-readable failure labels.
"""


class StpcsError(Exception):
    """Base class for all domain errors raised by this package."""


class BadShape(StpcsError):
    """An argument has an incompatible or empty shape."""


class ZeroVector(StpcsError):
    """A vector with zero norm was passed where a direction is needed."""


class ZeroColumn(StpcsError):
    """A matrix has a zero column, so column correlations are undefined."""


class BudgetExceeded(StpcsError):
    """A subset enumeration would exceed the configured budget."""


class NotBibd(StpcsError):
    """An incidence matrix violates one of the block-design conditions."""


class NotExpandable(StpcsError):
    """The vertical expansion could not place a one within the row budget."""


class BadDiag(StpcsError):
    """Embedding diagonal entries must be positive and pairwise distinct."""


class DegreeMismatch(StpcsError):
    """Column degree of the skeleton does not match the embedding rows."""


class Unsupported(StpcsError):
    """No construction is known for the requested parameters."""


class NoSolution(StpcsError):
    """No sparse candidate reproduces the measurements within tolerance."""


class NotUnique(StpcsError):
    """Two distinct sparse candidates reproduce the measurements."""


class InsufficientBasis(StpcsError):
    """The supplied basis does not span the signal being expanded."""
