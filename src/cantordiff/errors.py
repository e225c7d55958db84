"""Exception types shared across the package."""


class CantorDiffError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(CantorDiffError, ValueError):
    """A construction spec violates its validity constraints."""


class BudgetExceededError(CantorDiffError):
    """A requested stage would exceed the configured component budget.

    ``requested`` is the stage's component count.  A binary stage n is
    refused with ``log2=n``, and its count 2^n is made only up to 20
    digits (n <= 66): past that ``requested`` is None, as 2^n takes n/8 bytes.
    """

    def __init__(self, requested: int | None, budget: int, *, log2: int = 0):
        if requested is None and log2 <= 66:
            requested = 2 ** log2
        self.requested, self.budget = requested, budget
        count = f"2^{log2}" if requested is None else requested
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
