"""Exception types shared across the package."""


class CantorDiffError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(CantorDiffError, ValueError):
    """A construction spec violates its validity constraints."""


class BudgetExceededError(CantorDiffError):
    """A requested stage would exceed the configured component budget."""

    def __init__(self, requested: int, budget: int):
        self.requested = requested
        self.budget = budget
        # Only a binary stage's 2^n is this long; str() stops at 4300 digits.
        count = requested if requested < 10 ** 20 else f"2^{requested.bit_length() - 1}"
        super().__init__(f"stage needs {count} components, budget allows {budget}")


class NotCertifiableError(CantorDiffError):
    """Certificate hypotheses do not hold at the supplied stage.

    Callers may retry with a deeper stage; the condition is about the
    finite approximation, not about the underlying set.
    """


class InvariantError(CantorDiffError):
    """A computed stage or bracket breaks an invariant that the finite-stage
    soundness argument relies on; the result must not be reported."""


class AvoidanceExhaustedError(CantorDiffError):
    """The greedy construction could not admit any candidate for a full stage."""

    def __init__(self, stage: int, tried: int):
        self.stage = stage
        self.tried = tried
        super().__init__(
            f"no avoidance candidate admissible at stage {stage} "
            f"after {tried} attempts"
        )
