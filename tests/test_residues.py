import random
import time
from fractions import Fraction

import pytest

from qdense.errors import BudgetExceeded, NoRoot
from qdense.padic import split_power
from qdense.residues import (
    is_nth_power_in_Zp,
    is_nth_power_residue,
    stabilization_exponent,
    nth_power_residues,
    nth_root_in_Zp,
)

# ---------------------------------------------------------------------------
# modulus exponent M = v_p(n) + v_p(2^[2|n]) + 1
# ---------------------------------------------------------------------------


def test_stabilization_exponent_examples():
    assert stabilization_exponent(3, 3) == 2
    assert stabilization_exponent(4, 2) == 4
    assert stabilization_exponent(5, 7) == 1
    with pytest.raises(ValueError):  # v_p(0) is infinite; no M exists
        stabilization_exponent(0, 5)


def test_stabilization_exponent_invariant():
    for n in range(2, 13):
        for p in (2, 3, 5, 7, 11, 13):
            M = stabilization_exponent(n, p)
            k, _ = split_power(n, p)
            if p == 2 and n % 2 == 0:
                assert M == k + 2
            else:
                assert M == k + 1


# ---------------------------------------------------------------------------
# exact residue sets
# ---------------------------------------------------------------------------


def test_nth_power_residues_examples():
    assert nth_power_residues(3, 7, 1) == frozenset({1, 6})
    assert nth_power_residues(3, 3, 2) == frozenset({1, 8})
    assert nth_power_residues(1, 5, 1) == frozenset({1, 2, 3, 4})


def test_nth_power_residues_budget_checked_before_building_p_to_the_M():
    # 13^(10^9) would take minutes to build; M alone already exceeds the budget.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        nth_power_residues(3, 13, 10**9)
    assert time.perf_counter() - start < 1


def test_residue_enumerations_charge_at_the_budget_boundary():
    # p^M = 7^2 units for the residue set, then a budget one short; the cached
    # set must not let the second call skip its charge.
    assert nth_power_residues(3, 7, 2, budget=49) == nth_power_residues(3, 7, 2)
    with pytest.raises(BudgetExceeded, match="units mod 7\\^2 exceeds budget 48"):
        nth_power_residues(3, 7, 2, budget=48)
    # n = 3, p = 5: the start root is enumerated mod p^E = 5^2.
    assert nth_root_in_Zp(2, 3, 5, 4, budget=25) == nth_root_in_Zp(2, 3, 5, 4)
    with pytest.raises(BudgetExceeded, match="mod 5\\^2 exceeds budget 24"):
        nth_root_in_Zp(2, 3, 5, 4, budget=24)


def test_residue_set_closed_under_multiplication():
    for n, p, M in [(3, 7, 2), (4, 2, 4), (6, 3, 3), (5, 5, 2)]:
        rs = nth_power_residues(n, p, M)
        mod = p**M
        for a in rs:
            for b in rs:
                assert a * b % mod in rs
        assert 1 in rs
        assert all(m % p for m in rs)


# ---------------------------------------------------------------------------
# fast path vs brute force
# ---------------------------------------------------------------------------


def test_is_nth_power_residue_examples():
    assert is_nth_power_residue(6, 3, 7, 1) is True  # 3^3 = 27 = 6 mod 7
    assert is_nth_power_residue(5, 3, 7, 1) is False
    assert is_nth_power_residue(15, 4, 2, 4) is False  # odd^4 = 1 mod 16
    with pytest.raises(ValueError, match="14 is divisible by 7"):
        is_nth_power_residue(14, 3, 7, 1)


def test_fast_path_matches_enumeration_small():
    for p in (2, 3, 5, 7):
        # n = 16, 32 put v_2(n) + 2 on both sides of M for p = 2
        for n in [*range(1, 13), *((16, 32) if p == 2 else ())]:
            for M in range(1, 10):
                if p**M > 2000:
                    break
                rs = nth_power_residues(n, p, M)
                for u in range(1, p**M):
                    if u % p == 0:
                        continue
                    assert is_nth_power_residue(u, n, p, M) == (u in rs), (
                        u,
                        n,
                        p,
                        M,
                    )


def test_fast_path_matches_sympy():
    # An independent implementation: for a unit u, any x with x^n == u is a
    # unit too, so sympy's solvability test answers the same question.
    residue_ntheory = pytest.importorskip("sympy.ntheory.residue_ntheory")
    for p in (2, 3, 5, 7, 11, 13):
        for n in (*range(1, 7), 8, 9, 12, 16, 25, 27, 32):
            for M in range(1, 13):
                pM = p**M
                if pM > 3000:
                    break
                for u in range(1, pM):
                    if u % p == 0:
                        continue
                    assert is_nth_power_residue(u, n, p, M) == bool(
                        residue_ntheory.is_nthpow_residue(u, n, pM)
                    ), (u, n, p, M)


# ---------------------------------------------------------------------------
# nth powers in Z_p
# ---------------------------------------------------------------------------


def test_is_nth_power_in_Zp_examples():
    assert is_nth_power_in_Zp(-1, 3, 3) is True  # (-1)^3; -1 = 8 mod 9 is a cube
    assert is_nth_power_in_Zp(5, 3, 5) is False  # valuation 1 not divisible by 3
    assert is_nth_power_in_Zp(8, 3, 5) is True  # 2^3
    with pytest.raises(ValueError, match="not a p-adic integer"):
        is_nth_power_in_Zp(Fraction(1, 5), 3, 5)
    with pytest.raises(ValueError):
        is_nth_power_in_Zp(0, 3, 5)


def test_nth_power_in_Zp_matches_deep_enumeration():
    # c is an nth power in Z_p iff solvable mod p^(M + 3): residue status
    # has stabilized well before that depth.
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 9)
        deep = stabilization_exponent(n, p) + 3
        c = rng.randint(1, p**deep - 1)
        if c % p == 0:
            continue
        claimed = is_nth_power_in_Zp(c, n, p)
        brute = any(
            pow(a, n, p**deep) == c % p**deep
            for a in range(1, p**deep)
            if a % p
        )
        assert claimed == brute, (c, n, p)


# ---------------------------------------------------------------------------
# stabilization ladder
# ---------------------------------------------------------------------------


def stabilization_check(u: int, pk: int, p: int, depth: int) -> bool:
    """Does u's status as a p^k-th power residue agree, by brute-force
    enumeration, at modulus exponents k + v_p(2) + 1 and that plus depth?"""
    assert depth >= 0 and u % p != 0
    k, m = split_power(pk, p)
    assert m == 1 and k >= 1, f"{pk} is not a positive power of {p}"
    e0 = k + (1 if p == 2 else 0) + 1
    e1 = e0 + depth
    low = nth_power_residues(pk, p, e0)
    high = nth_power_residues(pk, p, e1)
    return (u % p**e0 in low) == (u % p**e1 in high)


def test_stabilization_examples():
    assert stabilization_check(8, 3, 3, 2) is True
    assert stabilization_check(1, 9, 3, 1) is True
    assert stabilization_check(15, 4, 2, 2) is True  # both sides False


def test_stabilization_all_units_small():
    for p, k in [(2, 1), (3, 1), (5, 1), (2, 2)]:
        pk = p**k
        e_top = k + (1 if p == 2 else 0) + 1 + 2
        for u in range(1, p**e_top):
            if u % p == 0:
                continue
            assert stabilization_check(u, pk, p, 2)


# ---------------------------------------------------------------------------
# constructive roots
# ---------------------------------------------------------------------------


def test_nth_root_examples():
    r = nth_root_in_Zp(-1, 3, 3, 5)
    assert pow(r, 3, 3**5) == (-1) % 3**5
    assert r % 3 == 2
    assert nth_root_in_Zp(1, 5, 7, 10) == 1
    with pytest.raises(NoRoot):
        nth_root_in_Zp(5, 3, 5, 4)


def test_roots_back_lifting_after_enumeration():
    # Whenever the membership test says yes, a root is constructible at
    # every precision up to 32.
    rng = random.Random(31)
    found = 0
    while found < 150:
        p = rng.choice([2, 3, 5, 7, 11])
        n = rng.randint(2, 9)
        c = rng.randint(1, 10**6)
        if c % p == 0 or not is_nth_power_in_Zp(c, n, p):
            continue
        if found < 8:
            for K in range(1, 33):
                x = nth_root_in_Zp(c, n, p, K)
                assert pow(x, n, p**K) == c % p**K
        else:
            K = rng.randint(1, 32)
            x = nth_root_in_Zp(c, n, p, K)
            assert pow(x, n, p**K) == c % p**K
        found += 1


def test_nth_root_newton_examples():
    assert nth_root_in_Zp(2, 2, 7, 2) == 10  # 10^2 = 100 = 2 mod 49
    assert nth_root_in_Zp(6, 3, 7, 1) == 3  # 3^3 = 27 = 6 mod 7
    assert nth_root_in_Zp(1, 5, 7, 10) == 1  # exact root: no Newton step


def test_nth_root_positive_derivative_valuation():
    # x^2 = 17 over Q_2: f'(x) = 2x has valuation 1 at odd x, so each
    # Newton step divides out that factor of 2.
    root = nth_root_in_Zp(17, 2, 2, 10)
    assert pow(root, 2, 2**10) == 17 % 2**10
    assert root == 745


def test_nth_root_lift_then_reduce_equals_direct_lift():
    # Roots at two precisions are truncations of one p-adic root, also when
    # p divides n or c.
    assert nth_root_in_Zp(42282506250000, 4, 5, 35) % 25 == nth_root_in_Zp(
        42282506250000, 4, 5, 2
    )
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([2, 3, 4, 6])
        w = rng.randint(1, p**3)
        while w % p == 0:
            w = rng.randint(1, p**3)
        c = pow(w * p ** rng.randint(0, 2), n)
        K = rng.randint(5, 40)
        Kp = rng.randint(1, K - 1)
        big, small = nth_root_in_Zp(c, n, p, K), nth_root_in_Zp(c, n, p, Kp)
        assert big % p**Kp == small, (c, n, p, K, Kp)


def test_nth_root_residuals_property():
    rng = random.Random(4242)
    divisible = 0
    for _ in range(600):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        n = rng.randint(1, 12)
        if rng.random() < 0.5:
            c = pow(rng.randint(1, 10**4), n) * p ** (n * rng.randint(0, 2))
        else:
            c = rng.randint(1, 10**8) * rng.choice([1, -1])
            if c % p == 0 or not is_nth_power_in_Zp(c, n, p):
                continue
        K = rng.randint(1, 60)
        x = nth_root_in_Zp(c, n, p, K)
        assert 0 <= x < p**K
        assert pow(x, n, p**K) == c % p**K, (c, n, p, K)
        divisible += n % p == 0
    assert divisible > 50  # p | n: each Newton step divides out p^v_p(n)
