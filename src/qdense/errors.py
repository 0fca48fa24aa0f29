"""Exception types shared across the package, and the enumeration budget.

DEFAULT_BUDGET caps every exhaustive enumeration (box points, residues,
F_p vectors) unless a caller passes its own budget; exceeding a budget
raises BudgetExceeded.
"""

DEFAULT_BUDGET = 10**7


class QdenseError(Exception):
    """Base class for all qdense errors."""


class NotInvertible(QdenseError, ValueError):
    """gcd(a, modulus) > 1, so no modular inverse exists."""


class NotAUnit(QdenseError, ValueError):
    """Residue operations require an argument coprime to p."""


class NegativeValuation(QdenseError, ValueError):
    """Operation is defined on p-adic integers only (valuation >= 0)."""


class BudgetExceeded(QdenseError, RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class NotFound(QdenseError, RuntimeError):
    """A search guaranteed to succeed found nothing (flags a real bug)."""


class DimensionMismatch(QdenseError, ValueError):
    """Point length does not match the form's variable count."""


class UnsupportedDegree(QdenseError, ValueError):
    """The decision rules need degree n >= 3 (quadratics are prior work)."""


class ParameterMismatch(QdenseError, ValueError):
    """Certificate and coverage report were built for different (F, p)."""


class NoRoot(QdenseError, ValueError):
    """Requested nth root does not exist in the p-adic integers."""
