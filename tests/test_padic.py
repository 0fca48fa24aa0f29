import random
from fractions import Fraction

import pytest

from qdense.padic import (
    as_prime,
    inverse_mod,
    split_power,
    unit_residue,
    valuation,
)

# ---------------------------------------------------------------------------
# as_prime
# ---------------------------------------------------------------------------


def test_prime_modulus_certifies():
    assert as_prime(2) == 2 and type(as_prime(2)) is int
    assert as_prime(2**61 - 1) == 2**61 - 1  # Mersenne prime
    for bad in (0, 1, 4, 9, 561, 2**61):  # 561 is a Carmichael number
        with pytest.raises(ValueError):
            as_prime(bad)
    for bad in (7.0, "7", True):
        with pytest.raises(ValueError):
            as_prime(bad)


def test_miller_rabin_rejects_composites_that_trial_division_misses():
    # No factor up to 37, so each reaches the Miller-Rabin rounds; the last
    # two are strong pseudoprimes to every prime base up to 7 and up to 23.
    for bad in (1763, 3215031751, 3825123056546413051):  # 1763 = 41 * 43
        with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
            as_prime(bad)
    assert as_prime(18446744073709551557) == 2**64 - 59  # largest 64-bit prime
    for big in (2**64, 2**64 + 13):
        with pytest.raises(ValueError, match="restricted to machine-word size"):
            as_prime(big)


# ---------------------------------------------------------------------------
# valuation
# ---------------------------------------------------------------------------


def test_valuation_examples():
    assert valuation(50, 5) == 2  # 50 = 2 * 5^2
    with pytest.raises(ValueError):
        valuation(0, 7)
    assert valuation(Fraction(3, 7), 7) == -1


def test_split_power():
    assert split_power(50, 5) == (2, 2)
    assert split_power(-24, 2) == (3, -3)  # the sign stays on the unit
    assert split_power(7, 3) == (0, 7)
    with pytest.raises(ValueError):
        split_power(0, 5)


def _random_rational(rng):
    num = rng.randint(-(10**6), 10**6)
    den = rng.randint(1, 10**6)
    return Fraction(num if num else 1, den)


def test_valuation_multiplicative_and_ultrametric():
    rng = random.Random(20240901)
    for i in range(2000):
        p = rng.choice([2, 3, 5, 7, 13])
        x, y = _random_rational(rng), _random_rational(rng)
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
        K = 1 + i % 6
        pK = p**K
        ux, uy = unit_residue(x, p, K), unit_residue(y, p, K)
        assert unit_residue(x * y, p, K) == ux * uy % pK
        assert unit_residue(x / y, p, K) == ux * inverse_mod(uy, pK) % pK
        if x + y != 0:
            vx, vy = valuation(x, p), valuation(y, p)
            vs = valuation(x + y, p)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


# ---------------------------------------------------------------------------
# modular arithmetic
# ---------------------------------------------------------------------------


def test_inverse_mod_examples():
    assert inverse_mod(6, 49) == 41
    assert 6 * 41 % 49 == 1
    assert inverse_mod(1, 97) == 1
    with pytest.raises(ValueError, match=r"gcd\(3, 9\) = 3 != 1"):
        inverse_mod(3, 9)


def test_inverse_mod_property():
    rng = random.Random(17)
    from math import gcd

    for _ in range(500):
        m = rng.randint(2, 10**9)
        a = rng.randint(1, m - 1)
        if gcd(a, m) != 1:
            continue
        x = inverse_mod(a, m)
        assert 1 <= x < m and a * x % m == 1


def test_unit_residue():
    assert unit_residue(50, 5, 2) == 2
    with pytest.raises(ValueError):
        unit_residue(0, 5, 2)
    assert unit_residue(Fraction(3, 7), 7, 1) == 3
    assert unit_residue(-1, 3, 2) == 8
