"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its simplex/step budget."""


DEFAULT_SIMPLEX_BUDGET = 200_000
