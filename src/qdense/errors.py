"""The enumeration budget, its one charge, and the two exception types that
callers catch.

Bad input raises ValueError, and a broken invariant raises AssertionError.
DEFAULT_BUDGET caps every exhaustive enumeration unless a caller passes its
own budget; each enumeration states its size to `charge`, which raises
BudgetExceeded past the budget.  A missing p-adic root raises NoRoot.
"""

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class NoRoot(ValueError):
    """Requested nth root does not exist in the p-adic integers."""


def charge(budget: int, what: str, base: int, exp: int = 1) -> int:
    """base**exp if it is at most the budget, else BudgetExceeded.  For base
    >= 2 the power is at least 2^exp, so once exp > budget.bit_length() it
    exceeds the budget and is never built."""
    if (base < 2 or exp <= budget.bit_length()) and (count := base**exp) <= budget:
        return count
    raise BudgetExceeded(f"{what} exceeds budget {budget}")
