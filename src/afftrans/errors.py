"""Exception hierarchy shared by all afftrans modules."""


class AfftransError(Exception):
    """Base class for all afftrans errors."""


class DomainError(AfftransError):
    """A precondition on the mathematical input was violated."""


class InexactCoordinateError(DomainError, TypeError):
    """A weight coordinate is a float; weights are exact (int or Fraction)."""


class InvalidRootSystemError(DomainError):
    """The requested (series, rank) pair is not a valid simple type."""


class DimensionCapError(DomainError):
    """A tensor operation was refused because the dimension product exceeds the cap."""


class DatumInvalidError(DomainError):
    """A translation datum failed validation; the message names the failed condition."""


class InternalInconsistencyError(AfftransError):
    """A self-verification step failed; this indicates a bug, not bad input."""


class IterationLimitError(InternalInconsistencyError):
    """An iteration cap was hit.  No walk in this version has a step cap, so nothing
    raises it; it stays so that callers' ``except`` clauses stay valid."""
