"""Exception types shared across the package."""


class MoutardKitError(Exception):
    """Base class for all package-specific errors."""


class ZeroSeed(MoutardKitError):
    """A transformation seed was the zero polynomial."""


class SeedNotInKernel(MoutardKitError):
    """A seed does not solve the Schrodinger equation it was supplied for."""


class NotClosed(MoutardKitError):
    """A 1-form is not closed (a seed and co-seed solve no common equation)."""


class ProportionalSeeds(MoutardKitError):
    """The two seeds of a pair are linearly dependent."""


class NoAffineMatch(MoutardKitError):
    """No affine map lambda*F + C reproduces the target polynomial."""


class NonPositiveLeadingForm(MoutardKitError):
    """The leading form is not strictly positive on the unit circle."""


DEFAULT_MAX_DEPTH = 40  # default branch-and-bound depth limit; reaching it raises Inconclusive


class Inconclusive(MoutardKitError):
    """Branch-and-bound hit its depth limit without a decision."""

    def __init__(self, max_depth, message=None):
        self.max_depth = max_depth
        super().__init__(message or f"inconclusive at depth limit {max_depth}")


class PoleTooClose(MoutardKitError):
    """A numeric grid touches (or straddles) a denominator zero."""


class ExactDivisionError(MoutardKitError):
    """Polynomial division left a nonzero remainder."""


class VerificationFailed(MoutardKitError):
    """A built-in example failed one of its documented invariants."""


class InvariantViolated(MoutardKitError):
    """An internal identity of the construction failed: a defect, not bad input."""
