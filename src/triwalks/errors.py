"""Exception types shared across the package."""


class TriwalksError(Exception):
    """Base class for all errors raised by this package."""


class OutOfLattice(TriwalksError):
    """A step would leave the lattice.

    ``prefix_len`` is the length of the shortest offending prefix when the
    error comes from validating a whole path.
    """

    def __init__(self, message, prefix_len=None):
        super().__init__(message)
        self.prefix_len = prefix_len


class BadDirectionVector(TriwalksError):
    """A direction vector has a letter other than F and B."""


class CapExceeded(TriwalksError):
    """An enumeration would produce more objects than the configured cap."""


class NotAPath(TriwalksError):
    """A word fails the Motzkin path contract (start or end height nonzero)."""


class HeightOutOfRange(TriwalksError):
    """A meander start height is outside 0..floor(L/2)."""


class EmptySet(TriwalksError):
    """Asked to sample from an empty set."""


class NotMixedPair(TriwalksError):
    """A swap flip needs one forward and one backward step."""


class EmptyPath(TriwalksError):
    """A last-step flip needs a nonempty path."""


class LengthMismatch(TriwalksError):
    """A direction vector does not match the path length."""


class MixedInput(TriwalksError):
    """The forward/backward involution needs a pure path."""


class NotAllowed(TriwalksError):
    """A (cell, step) pair is not in the domain of a scaffolding."""


class AmplitudeExceeded(TriwalksError):
    """A Motzkin word does not fit in the given lattice size."""


class NotInImage(TriwalksError):
    """The inverse of the recursive bijection was fed a non-image value."""


class TooLong(TriwalksError):
    """An input is too long for the recursive bijection to follow."""


class OutsideWaffle(TriwalksError):
    """A point violates 0 <= j <= i <= L - j."""


class InvalidWalk(TriwalksError):
    """A waffle walk leaves its domain."""


class PrecisionLoss(TriwalksError):
    """A numerically evaluated integer coefficient failed its rounding check."""


class UsageError(TriwalksError):
    """Bad command line flags."""
