"""The enumeration budget and the two exception types that callers catch.

Bad input raises ValueError, and a broken invariant raises AssertionError.
DEFAULT_BUDGET caps every exhaustive enumeration (box points, residues,
F_p vectors) unless a caller passes its own budget; exceeding a budget
raises BudgetExceeded.  A missing p-adic root raises NoRoot.
"""

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class NoRoot(ValueError):
    """Requested nth root does not exist in the p-adic integers."""
