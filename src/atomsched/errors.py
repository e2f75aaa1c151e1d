"""Exception types shared across the package."""


class AtomschedError(Exception):
    """Base class for all package errors."""


class InvalidInstanceError(AtomschedError):
    """An appliance or problem instance violates a model invariant."""


class ParseError(InvalidInstanceError):
    """An instance document is malformed; the message locates the problem."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class InfeasibleFlowError(AtomschedError):
    """A flow configuration violates the relaxed feasibility constraints."""


class TooLargeError(AtomschedError):
    """Exhaustive enumeration would exceed the evaluation limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(
            f"enumeration would need {size} objective evaluations (limit {limit})"
        )


class SolverError(AtomschedError):
    """The relaxed-problem solver failed to reach the requested accuracy, or
    an SCR round was fractional with nothing left to drop."""
