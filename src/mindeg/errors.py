"""Error types shared across the package.

Every error below signals a *diagnosed* condition: either bad input data
(validation errors) or a computation that refuses to guess (tolerance and
budget errors). Nothing here is used for flow control on the happy path.
"""


class MindegError(Exception):
    """Base class for all package errors."""


class NonConvergence(MindegError):
    """Eigensolver iteration budget exhausted; input is pathological."""


class DimensionMismatch(MindegError):
    """Vectors/points of inconsistent length were mixed."""


class InconsistentModel(MindegError):
    """A variety model's stored invariants disagree with each other."""


class DegeneratePosition(MindegError):
    """Points are not in linearly general position for the construction."""


class RetryExhausted(MindegError):
    """A randomized draw failed validation too many times."""


class DegenerateSpan(MindegError):
    """A vanishing space has unexpected dimension; upstream data degenerate."""


class EmptyComplement(MindegError):
    """A sought complement subspace is empty; upstream data degenerate."""


class NoDeltaFound(MindegError):
    """Scale-halving search hit its floor without acceptance."""
