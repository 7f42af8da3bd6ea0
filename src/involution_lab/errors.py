"""Exception hierarchy shared by all modules."""


class InvolutionLabError(Exception):
    """Base class for library-specific failures."""


class ExactnessError(InvolutionLabError):
    """A computation that must be exact produced a remainder.

    Raised when a division guaranteed exact by a counting identity is not,
    when a quantity obtained through dyadic intermediates fails its final
    integrality assertion (an internal invariant is broken), or when a
    polynomial is given a coefficient whose denominator is not a power of
    two.
    """


class ResourceLimitError(InvolutionLabError):
    """A predicted enumeration or scan size exceeds its cap."""


class InconclusiveError(InvolutionLabError):
    """A period scan ran out of window before the answer was certain."""


class VerificationError(InvolutionLabError):
    """A computed result contradicts the closed form it must satisfy."""
