"""Exception types shared across the package."""


class SplitstatError(Exception):
    """Base class for all library errors."""


class InvalidCharacteristic(SplitstatError):
    """Field construction was asked for a non-prime characteristic."""


class BudgetExceeded(SplitstatError):
    """An exhaustive enumeration would exceed the configured budget."""


class DegreeMismatch(SplitstatError):
    """Objects attached to different symmetric-group degrees were combined."""


class ConsistencyError(SplitstatError):
    """An identity that must hold internally failed; this signals a bug."""


class UnknownStatistic(SplitstatError):
    """A statistic name or expression could not be resolved."""
