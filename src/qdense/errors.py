"""The enumeration budget, its one charge, the two exception types that
callers catch, and the named-tuple base of the validating records.

Bad input raises ValueError, and a broken invariant raises AssertionError.
DEFAULT_BUDGET caps every exhaustive enumeration unless a caller passes its
own budget, which `check_budget` rejects below 0; each enumeration states
its size to `charge`, which raises BudgetExceeded past the budget and
ValueError for a negative one.  A missing p-adic root raises NoRoot.
"""

from collections import namedtuple

__all__ = ["BudgetExceeded", "NoRoot"]

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class NoRoot(ValueError):
    """Requested nth root does not exist in the p-adic integers."""


def check_budget(budget: int) -> int:
    """The budget, once it is >= 0; a negative one raises ValueError."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


def charge(budget: int, what: str, base: int, exp: int = 1) -> int:
    """base**exp if it is at most the budget, else BudgetExceeded; a negative
    budget raises ValueError (`check_budget`).  For base >= 2 the power is
    at least 2^exp, so once exp > budget.bit_length() it exceeds the budget
    and is never built."""
    if (base < 2 or exp <= budget.bit_length()) and (count := base**exp) <= budget:
        return count
    # No count is negative, so a negative budget always ends up here.
    check_budget(budget)
    raise BudgetExceeded(f"{what} exceeds budget {budget}")


def record(typename: str, field_names: str):
    """namedtuple(typename, field_names) whose `_make`, which `_replace`
    calls, goes through the subclass constructor, so a record's `__new__`
    stays its one validator."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base
