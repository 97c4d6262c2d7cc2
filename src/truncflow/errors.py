"""Exception types shared across the package."""


class TruncflowError(Exception):
    """Base class for all truncflow errors."""


class SingularInput(TruncflowError):
    """Matrix is numerically singular where an invertible one is required."""


class SingularGram(TruncflowError):
    """Gram matrix X X^T is numerically singular."""


class IndexRange(TruncflowError):
    """Layer-range indices are out of bounds or malformed."""


class EmptyCluster(TruncflowError):
    """A training cluster has no points."""


class StepUnderflow(TruncflowError):
    """Adaptive step control shrank below the minimum step size.

    `s` is where the integrator stopped, and `event` the crossing it was localizing there (an
    :class:`~truncflow.integrate.Event`), or None; both are None when the raiser names neither.
    """

    def __init__(self, message: str, s: float | None = None, event=None):
        super().__init__(message)
        self.s = s
        self.event = event


class NearKink(TruncflowError):
    """A finite-difference stencil would straddle an activation boundary."""


class BadOrdering(TruncflowError):
    """1-D training points are not strictly increasing."""


class LabelInsideData(TruncflowError):
    """1-D label does not lie strictly above every training point."""
