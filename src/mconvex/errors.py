"""Shared exception types for the mconvex package."""


class MconvexError(Exception):
    """Base class for all package-specific errors."""


class BadInput(MconvexError):
    """Input data is malformed: unparsable JSON or numbers, missing keys, a zero denominator."""


class InvariantViolated(MconvexError):
    """A structural invariant or proof obligation does not hold."""


def check(cond, msg, *args):
    """Raise InvariantViolated(msg % args) unless cond; unlike assert, this
    survives python -O.  The message is formatted only on failure."""
    if not cond:
        raise InvariantViolated(msg % args if args else msg)


class TooLarge(MconvexError):
    """A size guard was exceeded (memory / runtime protection)."""


class CollapsedPair(MconvexError):
    """A map sent two distinct points to the same image (distortion is infinite)."""


class CollapsedAncestorPair(MconvexError):
    """A tree map collapsed an ancestor-descendant pair (vertical distortion infinite)."""


class DepthExceeded(MconvexError):
    """A tree vertex beyond the configured max_depth was requested."""


class PreconditionViolated(MconvexError):
    """An operation's stated precondition does not hold for the given input."""


class HypothesisViolated(MconvexError):
    """A growth function fails its monotonicity/range hypothesis at some index."""

    def __init__(self, n, message):
        super().__init__(message)
        self.n = n


class OutOfRange(MconvexError):
    """A parameter is outside its admissible range."""


class DegenerateChain(MconvexError):
    """The one-step sum of the chain is zero, so the convexity ratio is undefined."""


class LengthMismatch(MconvexError):
    """A path length does not factor as requested."""


class BoostFailed(MconvexError):
    """No grid in the nested block chain reached the straightness threshold."""

    def __init__(self, message, best_grid=None, best_t=None):
        super().__init__(message)
        self.best_grid = best_grid
        self.best_t = best_t


class NotApproximatePath(MconvexError):
    """No scaling factor L makes the quadruple an approximate 3-path."""


class PipelineFailed(MconvexError):
    """The subtree extraction pipeline failed; `stage` names the failing step."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class NotSurjective(MconvexError):
    """A candidate quotient map does not cover the target point set."""


class LiftFailed(MconvexError):
    """Chain lifting found no admissible preimage (internal error if the quotient verified)."""


class HorizonTooLong(MconvexError):
    """Trajectory-space construction would exceed the configured horizon/state guard."""
