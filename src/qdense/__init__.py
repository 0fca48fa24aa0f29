"""qdense: p-adic denseness of quotient sets of integral diagonal forms.

Given F(x_1..x_r) = a_1 x_1^n + ... + a_r x_r^n and a prime p, decide
whether R(F) = {F(x)/F(y) : F(y) != 0} is dense in the p-adic numbers,
with a citable proof trace, machine-checkable obstruction certificates
for NotDense verdicts, and an independent brute-force oracle.
"""

from .denseness import (
    DENSE,
    INCONCLUSIVE,
    NOT_DENSE,
    ResidueGap,
    RuleApplication,
    ValuationGap,
    Verdict,
    decide,
    decide_binary,
    difference_cover_check,
    verdict_from_dict,
    verdict_to_dict,
)
from .errors import BudgetExceeded, NoRoot
from .forms import (
    DiagonalForm,
    ValuationProfile,
    find_nonsingular_zero_mod_p,
    is_anisotropic_mod_p,
    normalize_binary,
    valuation_profile,
)
from .oracle import (
    CheckResult,
    CoverageReport,
    QuotientClassMap,
    ValueClasses,
    check_certificate,
    coverage_trend,
    enumerate_values,
    quotient_coverage,
)
from .padic import (
    inverse_mod,
    valuation,
)
from .residues import (
    is_nth_power_in_Zp,
    is_nth_power_residue,
    stabilization_exponent,
    nth_power_residues,
    nth_root_in_Zp,
)

__version__ = "0.1.0"
