import re
import time

import pytest

from qdense.denseness import decide, decide_binary, difference_cover_check
from qdense.errors import BudgetExceeded, charge, check_int
from qdense.forms import DiagonalForm, find_nonsingular_zero_mod_p, is_anisotropic_mod_p
from qdense.oracle import coverage_trend, enumerate_values, quotient_coverage
from qdense.padic import inverse_mod, unit_residue
from qdense.residues import (
    is_nth_power_in_Zp,
    is_nth_power_residue,
    nth_power_residues,
    nth_root_in_Zp,
    stabilization_exponent,
)

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


# Every integer parameter of the public API, as (name in the message, least
# allowed value or None for any int, a call passing the value there).  The
# records (DiagonalForm, the certificates) and as_prime validate their own
# fields.
TERNARY = DiagonalForm(3, (1, 1, 1))
INTEGER_PARAMETERS = {
    "charge-budget": ("budget", 0, lambda v: charge(v, "the walk", 2, 3)),
    "decide-budget": ("budget", 0, lambda v: decide(CUBIC, 7, v)),
    "decide_binary-budget": ("budget", 0, lambda v: decide_binary(CUBIC, 7, v)),
    "difference_cover_check-n": (
        "modulus n", 1, lambda v: difference_cover_check({0}, v)
    ),
    "is_anisotropic_mod_p-budget": (
        "budget", 0, lambda v: is_anisotropic_mod_p(CUBIC, 7, v)
    ),
    "find_nonsingular_zero_mod_p-budget": (
        "budget", 0, lambda v: find_nonsingular_zero_mod_p(TERNARY, 7, v)
    ),
    "stabilization_exponent-n": (
        "exponent n", 1, lambda v: stabilization_exponent(v, 5)
    ),
    "nth_power_residues-n": ("exponent n", 1, lambda v: nth_power_residues(v, 5, 1)),
    "nth_power_residues-M": (
        "modulus exponent M", 1, lambda v: nth_power_residues(3, 5, v)
    ),
    "nth_power_residues-budget": (
        "budget", 0, lambda v: nth_power_residues(3, 5, 1, v)
    ),
    "is_nth_power_residue-u": (
        "unit u", None, lambda v: is_nth_power_residue(v, 3, 7, 1)
    ),
    "is_nth_power_residue-n": (
        "exponent n", 1, lambda v: is_nth_power_residue(2, v, 7, 1)
    ),
    "is_nth_power_residue-M": (
        "modulus exponent M", 1, lambda v: is_nth_power_residue(2, 2, 7, v)
    ),
    "is_nth_power_in_Zp-n": ("exponent n", 1, lambda v: is_nth_power_in_Zp(8, v, 5)),
    "nth_root_in_Zp-n": ("exponent n", 1, lambda v: nth_root_in_Zp(8, v, 5, 3)),
    "nth_root_in_Zp-K": ("precision K", 1, lambda v: nth_root_in_Zp(8, 3, 5, v)),
    "nth_root_in_Zp-budget": ("budget", 0, lambda v: nth_root_in_Zp(8, 3, 5, 3, v)),
    "unit_residue-K": ("precision K", 1, lambda v: unit_residue(3, 5, v)),
    "inverse_mod-a": ("residue a", None, lambda v: inverse_mod(v, 7)),
    "inverse_mod-modulus": ("modulus", 1, lambda v: inverse_mod(3, v)),
    "enumerate_values-B": (
        "box bound B", 0, lambda v: enumerate_values(CUBIC, 7, v, 1)
    ),
    "enumerate_values-K": (
        "unit precision K", 1, lambda v: enumerate_values(CUBIC, 7, 2, v)
    ),
    "enumerate_values-budget": (
        "budget", 0, lambda v: enumerate_values(CUBIC, 7, 2, 1, v)
    ),
    "quotient_coverage-B": (
        "box bound B", 0, lambda v: quotient_coverage(CUBIC, 7, v, 1, 1)
    ),
    "quotient_coverage-K": (
        "unit precision K", 1, lambda v: quotient_coverage(CUBIC, 7, 2, v, 1)
    ),
    "quotient_coverage-V": (
        "valuation window V", 0, lambda v: quotient_coverage(CUBIC, 7, 2, 1, v)
    ),
    "quotient_coverage-budget": (
        "budget", 0, lambda v: quotient_coverage(CUBIC, 7, 2, 1, 1, v)
    ),
    "coverage_trend-K": (
        "unit precision K", 1, lambda v: coverage_trend(CUBIC, 7, v, 1, [1])
    ),
    "coverage_trend-V": (
        "valuation window V", 0, lambda v: coverage_trend(CUBIC, 7, 1, v, [1])
    ),
    "coverage_trend-K-no-boxes": (
        "unit precision K", 1, lambda v: coverage_trend(CUBIC, 7, v, 1, [])
    ),
    "coverage_trend-V-no-boxes": (
        "valuation window V", 0, lambda v: coverage_trend(CUBIC, 7, 1, v, [])
    ),
    "coverage_trend-boxes": (
        "box bound B", 0, lambda v: coverage_trend(CUBIC, 7, 1, 1, [v])
    ),
    "coverage_trend-budget": (
        "budget", 0, lambda v: coverage_trend(CUBIC, 7, 1, 1, [1], v)
    ),
}


@pytest.mark.parametrize("kind", ["float", "bool", "str", "below"])
@pytest.mark.parametrize(
    "name, lo, run", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS.keys()
)
def test_every_integer_parameter_is_an_int_in_its_range(name, lo, run, kind):
    # Never truncated, coerced or let through to fail later as a TypeError,
    # AttributeError or ZeroDivisionError, or to return a wrong answer.  A
    # parameter with no lower bound takes any int, a negative one included.
    if lo is None and kind == "below":
        run(-1)
        return
    lo = 0 if lo is None else lo
    value = {"float": lo + 0.5, "bool": True, "str": str(lo), "below": lo - 1}[kind]
    got = f">= {lo}, got {lo - 1}" if kind == "below" else f"an int, got {kind}"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {got}')}$"):
        run(value)


def test_check_int_returns_the_value_and_names_it():
    assert check_int(0) == 0
    assert check_int(5, 5, "width") == 5
    with pytest.raises(ValueError, match="^width must be >= 6, got 5$"):
        check_int(5, 6, "width")
    with pytest.raises(ValueError, match="^budget must be an int, got NoneType$"):
        check_int(None)
