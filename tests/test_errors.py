import time

import pytest

from qdense.errors import BudgetExceeded, charge


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
    with pytest.raises(BudgetExceeded):
        charge(-1, "anything", base, exp)
