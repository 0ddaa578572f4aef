"""Error types shared across the package.

Every error below signals a *diagnosed* condition: either bad input data
(validation errors) or a computation that refuses to guess (tolerance and
budget errors). Nothing here is used for flow control on the happy path,
and the witness pipeline retries exactly one of them, DegeneratePosition.
"""


class MindegError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MindegError):
    """Vectors/points of inconsistent length were mixed."""


class InconsistentModel(MindegError):
    """A variety model's stored invariants disagree with each other."""


class DegeneratePosition(MindegError):
    """Points are not in linearly general position for the construction:
    the one error the witness pipeline retries with a fresh draw."""


class RetryExhausted(MindegError):
    """Every attempt of the witness pipeline met a degenerate draw."""


class NoDeltaFound(MindegError):
    """Scale-halving search hit its floor without acceptance."""
