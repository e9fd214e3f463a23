"""Exception types shared across the toolkit."""


class MaccretiveError(Exception):
    """Base class for all toolkit-specific failures."""


class RootNotFound(MaccretiveError):
    """A scalar or vector boundary solve failed to converge.

    Usually signals that the supplied boundary map violates its
    Lipschitz certificate, so the resolvent equation has no (unique)
    solution to find.
    """


class OutOfRange(MaccretiveError):
    """An argument left the admissible parameter range."""


class NormOutOfReach(MaccretiveError, ArithmeticError):
    """No Gauss rule of the norms covers a function on its interval.

    The reach, half the length of the interval times the largest
    ``|rate|`` of the function's terms, is beyond what 64 panels cover
    (about 687 at any degree): a term then varies by more than the
    floating-point range across the interval.
    """


class NotAViolation(MaccretiveError):
    """The supplied sample does not actually break the claimed bound."""


class SchemaError(MaccretiveError):
    """Input JSON does not match the expected schema."""
