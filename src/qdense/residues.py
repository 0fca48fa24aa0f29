"""nth-power residues at prime-power moduli and the "nth power in Z_p" test.

The central quantity is the modulus exponent

    M(n, p) = v_p(n) + v_p(2^[2|n]) + 1,

i.e. M = v_p(n) + 2 when p = 2 and n is even, and M = v_p(n) + 1
otherwise.  A p-adic unit is an nth power in Z_p exactly when it is an
nth-power residue modulo p^M: residue status stabilizes from exponent M
onward (power-residue ladder climbing plus Newton lifting), so one finite
congruence decides the infinite-precision question.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DEFAULT_BUDGET, NoRoot, charge
from .padic import (
    as_prime,
    inverse_mod,
    split_power,
    unit_residue,
    valuation,
)

__all__ = [
    "stabilization_exponent",
    "nth_power_residues",
    "is_nth_power_residue",
    "is_nth_power_in_Zp",
    "nth_root_in_Zp",
]


def stabilization_exponent(n: int, p) -> int:
    """M = v_p(n) + v_p(2^[2|n]) + 1.

    The bracket [2|n] is 1 iff n is even, so the middle term is 1 exactly
    when p = 2 and n is even.  Raises ValueError for n == 0.
    """
    p = as_prime(p)
    k, _ = split_power(n, p)
    return k + (1 if (p == 2 and n % 2 == 0) else 0) + 1


@lru_cache(maxsize=4096)
def _residue_members(n: int, p: int, pM: int) -> frozenset:
    return frozenset(pow(a, n, pM) for a in range(1, pM) if a % p)


def nth_power_residues(n: int, p, M: int, budget: int = DEFAULT_BUDGET) -> frozenset:
    """Exact residue set {a^n mod p^M : p does not divide a}, by enumeration."""
    p = as_prime(p)
    if M < 1:
        raise ValueError("modulus exponent M must be >= 1")
    pM = charge(budget, f"enumerating units mod {p}^{M}", p, M)
    return _residue_members(n, p, pM)


def is_nth_power_residue(u: int, n: int, p, M: int) -> bool:
    """Is u an nth power of some unit, modulo p^M?

    Uses group structure rather than enumeration: the units mod p^M form a
    cyclic group for odd p (order phi = p^(M-1)(p-1), so the answer is
    u^(phi/g) == 1 with g = gcd(n, phi)).  For p = 2 write n = 2^k * m with
    m odd: odd powers permute the units, and the 2^k-th powers of units mod
    2^M are exactly the classes == 1 mod 2^min(k+2, M).
    """
    p = as_prime(p)
    if M < 1:
        raise ValueError("modulus exponent M must be >= 1")
    if n < 1:
        raise ValueError("exponent n must be >= 1")
    if u % p == 0:
        raise ValueError(f"{u} is divisible by {p}")
    pM = p**M
    u %= pM
    if p != 2:
        phi = p ** (M - 1) * (p - 1)
        g = gcd(n, phi)
        return pow(u, phi // g, pM) == 1
    k, _ = split_power(n, 2)
    return k == 0 or u % (1 << min(k + 2, M)) == 1


def is_nth_power_in_Zp(c, n: int, p) -> bool:
    """Is the rational c an nth power of a p-adic integer?

    Requires c != 0 with valuation(c, p) >= 0.  True iff n divides
    valuation(c, p) and the unit part of c is an nth-power residue
    modulo p^M with M = stabilization_exponent(n, p).
    """
    p = as_prime(p)
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    v = valuation(c, p)
    if v < 0:
        raise ValueError(f"valuation {v} < 0: not a p-adic integer")
    if v % n != 0:
        return False
    M = stabilization_exponent(n, p)
    return is_nth_power_residue(unit_residue(c, p, M), n, p, M)


def nth_root_in_Zp(c, n: int, p, K: int, budget: int = DEFAULT_BUDGET) -> int:
    """A residue x mod p^K with x^n == c (mod p^K), for c an nth power in Z_p.

    Locates a starting root y of y^n = unit(c) by enumeration at a depth E
    deep enough for the Newton inequality (max of M + 1 and 2*v_p(n) + 1),
    then lifts it by Newton steps on f(y) = y^n - unit(c).  Raises NoRoot
    when c is not an nth power in Z_p.
    """
    p = as_prime(p)
    if not is_nth_power_in_Zp(c, n, p):
        raise NoRoot(f"x^{n} = {c} has no solution in Z_{p}")
    c = Fraction(c)
    v = valuation(c, p)
    if v // n >= K:
        return 0  # the root p^(v/n) * unit lies in p^K Z_p
    # x = p^(v/n) * y, so y is needed mod p^k.  A root of y^n = target is
    # pinned mod p^k only when target agrees with unit(c) mod p^(k+t).
    t, m = split_power(n, p)
    E = max(stabilization_exponent(n, p) + 1, 2 * t + 1)
    k = K - v // n
    target = unit_residue(c, p, max(k + t, E))
    start_mod = charge(budget, f"start enumeration mod {p}^{E}", p, E)
    # target is a unit, so no multiple of p can match it.
    goal = target % start_mod
    y = next((y for y in range(1, start_mod) if pow(y, n, start_mod) == goal), None)
    if y is None:
        raise AssertionError("stabilized residue test promised a starting root")
    # At a unit y, f'(y) = n*y^(n-1) has valuation t = v_p(n), and
    # v(f(y)) >= E > 2t.  Each step y -= (f/p^t) / (m*y^(n-1)) at least
    # doubles v(f(y)) - 2t >= 1, so by step k.bit_length() v(f(y)) >= k + t
    # and the root is pinned mod p^k.  Working mod p^(k+2t+1) keeps that
    # final reduction exact.
    work, pt = p ** (k + 2 * t + 1), p**t
    for _ in range(k.bit_length() + 1):
        fy = (pow(y, n, work) - target) % work
        if fy % p ** (k + t) == 0:
            break
        y = (y - fy // pt * inverse_mod(m * pow(y, n - 1, work), work)) % work
    else:
        raise AssertionError("Newton lift of a stabilized root did not converge")
    return y % p**k * p ** (v // n)
