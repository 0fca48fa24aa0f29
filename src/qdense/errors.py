"""The one integer check, the enumeration budget and its one charge, the
two exception types that callers catch, and the named-tuple base of the
validating records.

Bad input raises ValueError, and a broken invariant raises AssertionError.
`check_int` is the one check of an integer parameter (n, M, K, B, V, a
budget, a unit) of the public API: ValueError for anything but an int, a
bool included, and for a value below its range, if it has one.  Each
enumeration states its size to `charge`, which raises BudgetExceeded past
the budget (DEFAULT_BUDGET unless the caller passes one).  A missing
p-adic root raises NoRoot.
"""

from collections import namedtuple

__all__ = ["BudgetExceeded", "NoRoot"]

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class NoRoot(ValueError):
    """Requested nth root does not exist in the p-adic integers."""


def check_int(value, lo: int | None = 0, name: str = "budget") -> int:
    """value, if an int (not a bool) and >= lo unless lo is None; else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    return value


def charge(budget: int, what: str, base: int, exp: int = 1) -> int:
    """base**exp if it is at most the budget, else BudgetExceeded; a budget
    that is not an int >= 0 raises ValueError (`check_int`).  For base >= 2
    the power is at least 2^exp, so once exp > budget.bit_length() it
    exceeds the budget and is never built."""
    check_int(budget)
    if (base < 2 or exp <= budget.bit_length()) and (count := base**exp) <= budget:
        return count
    raise BudgetExceeded(f"{what} exceeds budget {budget}")


def record(typename: str, field_names: str):
    """namedtuple(typename, field_names) whose `_make`, which `_replace`
    calls, goes through the subclass constructor, so a record's `__new__`
    stays its one validator."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base
