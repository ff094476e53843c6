"""Exception types shared across the toolkit."""

from __future__ import annotations


class RamseykitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RamseykitError, ValueError):
    """A parameter is outside the range an operation is defined for."""


class DescriptorError(RamseykitError, ValueError):
    """A family descriptor violates one of the family's defining clauses."""


class ParseError(RamseykitError, ValueError):
    """An input file does not conform to the expected format.

    ``line`` is the 1-based line number when one can be named.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapabilityError(RamseykitError, RuntimeError):
    """The requested computation exceeds a supported bound or budget.

    Never a silent wrong answer: when a search aborts on budget the partial
    result (if any) is attached as ``partial``.
    """

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


class BudgetExceeded(CapabilityError):
    """A search spent its whole node budget before it could answer."""
