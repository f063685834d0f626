"""Exception types shared across the package."""


class RscnError(Exception):
    """Base class for all library errors."""


class ContractViolationError(RscnError, ValueError):
    """An argument violates an operation's documented contract."""


class NumericOverflowError(RscnError, ArithmeticError):
    """A computation produced a non-finite value."""


class MetricUndefinedError(RscnError, ValueError):
    """A metric is undefined for the given data (e.g. zero target variance)."""


class SchemaError(RscnError, ValueError):
    """A data file does not match the expected column schema."""


class CsvParseError(RscnError, ValueError):
    """A CSV cell failed to parse; ``line`` is the 1-based file line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
