import time

import pytest

from qdense.errors import BudgetExceeded, charge
from qdense.forms import DiagonalForm, find_nonsingular_zero_mod_p, is_anisotropic_mod_p
from qdense.oracle import coverage_trend, enumerate_values, quotient_coverage
from qdense.residues import nth_power_residues, nth_root_in_Zp

NEGATIVE_BUDGET = "^budget must be >= 0, got -1$"


@pytest.mark.parametrize("base, exp", [(7, 2), (10, 1), (2, 0), (0, 3), (1, 5)])
def test_charge_returns_a_count_equal_to_the_budget_and_refuses_one_less(base, exp):
    count = base**exp
    assert charge(count, "the walk", base, exp) == count
    if count:
        message = f"^the walk exceeds budget {count - 1}$"
        with pytest.raises(BudgetExceeded, match=message):
            charge(count - 1, "the walk", base, exp)


def test_charge_never_builds_a_power_it_cannot_afford():
    # 2^(10^12) would not fit in memory; 0^(10^12) and 1^(10^12) are cheap.
    start = time.perf_counter()
    assert charge(0, "zeros", 0, 10**12) == 0
    assert charge(1, "ones", 1, 10**12) == 1
    with pytest.raises(BudgetExceeded):
        charge(10**7, "points", 2, 10**12)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("base, exp", [(0, 1), (1, 10**12), (2, 3), (7, 1)])
def test_charge_refuses_everything_under_a_negative_budget(base, exp):
    # A negative budget is bad input, not a spent one.
    with pytest.raises(ValueError, match=NEGATIVE_BUDGET):
        charge(-1, "anything", base, exp)


CUBIC = DiagonalForm(3, (1, 2))
ENUMERATIONS = {
    "is_anisotropic_mod_p": lambda b: is_anisotropic_mod_p(CUBIC, 7, budget=b),
    "find_nonsingular_zero_mod_p": lambda b: find_nonsingular_zero_mod_p(
        DiagonalForm(3, (1, 1, 1)), 7, budget=b
    ),
    "nth_power_residues": lambda b: nth_power_residues(3, 7, 1, budget=b),
    "nth_root_in_Zp": lambda b: nth_root_in_Zp(8, 3, 7, 3, budget=b),
    "enumerate_values": lambda b: enumerate_values(CUBIC, 7, B=2, K=1, budget=b),
    "quotient_coverage": lambda b: quotient_coverage(CUBIC, 7, 2, 1, 1, budget=b),
    "coverage_trend": lambda b: coverage_trend(CUBIC, 7, 1, 1, [1, 2], budget=b),
}


@pytest.mark.parametrize("run", ENUMERATIONS.values(), ids=ENUMERATIONS.keys())
def test_every_enumeration_rejects_a_negative_budget(run):
    # A negative budget is bad input, as it is to decide, not a spent one.
    run(10**7)
    with pytest.raises(ValueError, match=NEGATIVE_BUDGET):
        run(-1)
