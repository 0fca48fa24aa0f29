"""Exact p-adic building blocks.

Valuations and unit residues of nonzero rationals, modular arithmetic
helpers, and Newton lifting of simple polynomial roots to prime-power
moduli.

Everything here is a pure function on immutable values, so all operations
are safe to call concurrently.  Rationals are plain ``fractions.Fraction``
objects (already stored reduced with a positive denominator, which is
exactly the invariant a dedicated rational type would enforce).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import NotInvertible, PreconditionFailed

__all__ = [
    "valuation",
    "inverse_mod",
    "hensel_lift_root",
]

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

    Raises TypeError for a non-int and ValueError for a non-prime or for
    p >= 2^64.
    """
    if not isinstance(p, int):
        raise TypeError(f"prime must be an int, got {type(p).__name__}")
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
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"gcd({a}, {modulus}) = {gcd(a, modulus)} != 1") from None


def unit_residue(x, p, K: int) -> int:
    """Residue mod p^K of the unit part x / p^valuation(x); ValueError on x == 0."""
    p = as_prime(p)
    x = Fraction(x)
    v = valuation(x, p)
    u = x / Fraction(p) ** v
    pK = p**K
    return u.numerator * inverse_mod(u.denominator, pK) % pK


def poly_eval(coeffs, x: int, modulus: int | None = None) -> int:
    """Evaluate a polynomial given by ascending coefficients, by Horner."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if modulus:
            acc %= modulus
    return acc


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def hensel_lift_root(poly, p, x0: int, K: int) -> int:
    """Lift an approximate simple root of an integer polynomial to mod p^K.

    Requires the Newton inequality |f(x0)|_p < |f'(x0)|_p^2; raises
    PreconditionFailed otherwise.  Returns the x in [0, p^K - 1] with
    f(x) == 0 (mod p^K) determined by x0, computed by Newton steps at
    doubling precision.

    >>> hensel_lift_root([-2, 0, 1], 7, 3, 2)   # x^2 - 2 near 3, mod 49
    10
    """
    p = as_prime(p)
    if K < 1:
        raise ValueError("precision K must be >= 1")
    coeffs = [operator.index(c) for c in poly]
    deriv = poly_derivative(coeffs)
    f0, d0 = poly_eval(coeffs, x0), poly_eval(deriv, x0)
    # An exact root f(x0) == 0 meets the inequality; f'(x0) == 0 never does.
    if d0 == 0 or (f0 != 0 and valuation(f0, p) <= 2 * valuation(d0, p)):
        raise PreconditionFailed(
            f"need v(f(x0)) > 2*v(f'(x0)); got f(x0)={f0}, f'(x0)={d0}"
        )
    t = valuation(d0, p)
    # Work modulus: enough headroom that the final reduction mod p^K is exact.
    work = p ** (K + 2 * t + 1)
    pt = p**t
    x = x0 % work
    # Each step at least doubles v(f(x)) - 2t; stop once the root is pinned
    # mod p^K, i.e. v(f(x)) >= K + t.
    for _ in range(K.bit_length() + K + 2):
        fx = poly_eval(coeffs, x, work)
        if fx == 0 or valuation(fx, p) >= K + t:
            break
        dx = poly_eval(deriv, x, work)
        # f/f' = (f/p^t) * (f'/p^t)^{-1}: the unit part of f' is inverted
        # exactly, the p^t factors cancel.
        step = (fx // pt) * inverse_mod((dx // pt) % work, work) % work
        x = (x - step) % work
    else:
        raise PreconditionFailed("Newton iteration failed to converge")
    return x % p**K
