import random
from fractions import Fraction

import pytest

from qdense.errors import NotInvertible, PreconditionFailed
from qdense.padic import (
    as_prime,
    hensel_lift_root,
    inverse_mod,
    poly_eval,
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
    with pytest.raises(TypeError):
        as_prime(7.0)


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
    with pytest.raises(NotInvertible):
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


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def test_hensel_examples():
    assert hensel_lift_root([-2, 0, 1], 7, 3, 2) == 10  # 10^2 = 100 = 2 mod 49
    assert hensel_lift_root([-6, 0, 0, 1], 7, 3, 1) == 3  # 3^3 = 27 = 6 mod 7
    assert hensel_lift_root([-1, 0, 0, 0, 0, 1], 7, 1, 10) == 1  # exact root
    with pytest.raises(PreconditionFailed):
        hensel_lift_root([-2, 0, 1], 2, 0, 3)  # f(0) = -2, f'(0) = 0
    with pytest.raises(TypeError):
        hensel_lift_root([-2.5, 0, 1], 7, 3, 2)  # coefficients must be ints


def test_hensel_residuals_random_polys():
    rng = random.Random(4242)
    lifted = 0
    while lifted < 200:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 20)]
        K = rng.randint(1, 64)
        for x0 in range(p):
            fx = poly_eval(coeffs, x0)
            dfx = poly_eval([i * c for i, c in enumerate(coeffs)][1:], x0)
            if fx % p == 0 and dfx % p != 0:
                root = hensel_lift_root(coeffs, p, x0, K)
                assert poly_eval(coeffs, root, p**K) % p**K == 0
                assert root % p == x0 % p
                lifted += 1
                break


def test_hensel_lift_then_reduce_equals_direct_lift():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        n = rng.choice([2, 3, 4])
        w = rng.randint(1, p**3)
        while w % p == 0:
            w = rng.randint(1, p**3)
        c = pow(w, n)
        coeffs = [-c] + [0] * (n - 1) + [1]
        K = rng.randint(5, 40)
        Kp = rng.randint(1, K - 1)
        # start deep enough that the Newton bound holds even when p | n
        x0 = w % p**3
        big = hensel_lift_root(coeffs, p, x0, K)
        small = hensel_lift_root(coeffs, p, x0, Kp)
        assert big % p**Kp == small


def test_hensel_positive_derivative_valuation():
    # x^2 - 17 over Q_2: f'(x) = 2x has valuation 1 at odd x, and
    # f(1) = -16 has valuation 4 > 2, so the strict Newton bound holds.
    root = hensel_lift_root([-17, 0, 1], 2, 1, 10)
    assert pow(root, 2, 2**10) == 17 % 2**10


def test_unit_residue():
    assert unit_residue(50, 5, 2) == 2
    with pytest.raises(ValueError):
        unit_residue(0, 5, 2)
    assert unit_residue(Fraction(3, 7), 7, 1) == 3
    assert unit_residue(-1, 3, 2) == 8
