"""Exception types shared across the toolkit."""


class MaccretiveError(Exception):
    """Base class for all toolkit-specific failures."""


class RootNotFound(MaccretiveError):
    """A scalar or vector boundary solve failed to converge.

    Usually signals that the supplied boundary map violates its
    Lipschitz certificate, so the resolvent equation has no (unique)
    solution to find.
    """


class DegenerateRate(MaccretiveError):
    """Internal failure while lifting a resonant exponential rate."""


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


class ContractionViolated(MaccretiveError):
    """A trajectory distance increased beyond tolerance.

    Carries the first offending step index in ``step``.
    """

    def __init__(self, step: int, before: float, after: float):
        self.step = step
        self.before = before
        self.after = after
        super().__init__(
            f"distance grew at step {step}: {before!r} -> {after!r}"
        )


class EvolutionStepFailed(MaccretiveError):
    """A resolvent call inside a time-stepping loop failed.

    ``step`` is the index of the step that could not be completed;
    ``record``, when the loop keeps one, holds the trajectory up to the
    step before it.
    """

    def __init__(self, step: int, cause: Exception, record=None):
        self.step = step
        self.record = record
        super().__init__(f"resolvent failed at step {step}: {cause}")


class SchemaError(MaccretiveError):
    """Input JSON does not match the expected schema."""
