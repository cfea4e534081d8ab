"""Exception types shared across the package."""


class BalancedGraphsError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(BalancedGraphsError):
    """A deserialized or supplied object violates a structural invariant."""


class BadPermutation(InvariantViolation):
    """An array that was supposed to be a permutation of 0..n-1 is not."""


class NotInvolution(InvariantViolation):
    """The edge pairing is not a fixed-point-free involution."""


class Disconnected(InvariantViolation):
    """The dart permutations do not act transitively."""


class NonIntegerGenus(BalancedGraphsError):
    """The Euler count does not yield a nonnegative integer genus."""


class NotBipartiteFaces(BalancedGraphsError):
    """The face adjacency graph has an odd cycle, so no alternating coloring exists."""


class ParseError(BalancedGraphsError):
    """A document could not be parsed."""


class SizeLimitExceeded(BalancedGraphsError):
    """An enumeration hit its configured cap."""


class NoPerfectMatching(BalancedGraphsError):
    """The dot graph has no perfect matching.

    The ``witness`` attribute holds the sorted Hall witness B faces, whose
    dots have fewer A neighbors than they number; it is empty when the two
    colors carry different dot totals.
    """

    def __init__(self, message, witness=()):
        super().__init__(message)
        self.witness = tuple(witness)


class InconsistentPropagation(BalancedGraphsError):
    """Label propagation reached a vertex with two different labels."""


class InfeasibleWeighting(BalancedGraphsError):
    """An edge weighting violates positivity or a capacity constraint."""


class NotVerified(BalancedGraphsError):
    """A constellation failed verification and cannot be pulled back."""


class UnsupportedFormat(BalancedGraphsError):
    """The requested export format is not available for this input."""
