"""Exact p-adic building blocks.

Valuations and unit residues of nonzero rationals, primality
certification and modular inverses.

Everything here is a pure function on immutable values, so all operations
are safe to call concurrently.  Rationals are plain ``fractions.Fraction``
objects (already stored reduced with a positive denominator, which is
exactly the invariant a dedicated rational type would enforce).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import check_int

__all__ = ["valuation", "inverse_mod"]

# Witness bases making Miller-Rabin a deterministic primality test for all
# inputs below 3.3 * 10^24, comfortably past the 64-bit range we allow.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MAX_PRIME = 2**64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, d = split_power(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def as_prime(p) -> int:
    """p itself, once a deterministic primality test has certified it.

    Raises ValueError for anything but an int (a float, a string or a
    bool), for a non-prime and for p >= 2^64.
    """
    if type(p) is not int:
        raise ValueError(f"prime must be an int, got {type(p).__name__}")
    if p >= _MAX_PRIME:
        raise ValueError("primes are restricted to machine-word size")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def split_power(x: int, p: int):
    """(v, unit) with x = p^v * unit and p not dividing unit; the sign of x
    stays on the unit.  Raises ValueError on x == 0, which has no such split.
    """
    if x == 0:
        raise ValueError("zero has no p-adic unit part")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def valuation(x, p) -> int:
    """Exponent of p in the nonzero rational x.  Raises ValueError on x == 0,
    whose valuation is infinite.

    >>> valuation(50, 5)
    2
    >>> valuation(Fraction(3, 7), 7)
    -1
    """
    p = as_prime(p)
    x = Fraction(x)
    return split_power(x.numerator, p)[0] - split_power(x.denominator, p)[0]


def inverse_mod(a: int, modulus: int) -> int:
    """The x in [0, modulus-1] with a*x == 1 (mod modulus)."""
    check_int(a, None, "residue a")
    check_int(modulus, 1, "modulus")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise ValueError(f"gcd({a}, {modulus}) = {gcd(a, modulus)} != 1") from None


def unit_residue(x, p, K: int) -> int:
    """Residue mod p^K of the unit part x / p^valuation(x); ValueError on x == 0."""
    p = as_prime(p)
    check_int(K, 1, "precision K")
    x = Fraction(x)
    v = valuation(x, p)
    u = x / Fraction(p) ** v
    pK = p**K
    return u.numerator * inverse_mod(u.denominator, pK) % pK
