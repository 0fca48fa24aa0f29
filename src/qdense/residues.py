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
from itertools import count
from math import gcd

from .errors import DEFAULT_BUDGET, NoRoot, charge, check_int
from .padic import as_prime, inverse_mod, split_power, unit_residue, valuation

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
    when p = 2 and n is even.  Raises ValueError for n < 1.
    """
    p = as_prime(p)
    check_int(n, 1, "exponent n")
    k, _ = split_power(n, p)
    return k + (1 if (p == 2 and n % 2 == 0) else 0) + 1


def nth_power_residues(n: int, p, M: int, budget: int = DEFAULT_BUDGET) -> frozenset:
    """Exact residue set {a^n mod p^M : p does not divide a}, by enumeration."""
    p = as_prime(p)
    check_int(n, 1, "exponent n")
    check_int(M, 1, "modulus exponent M")
    pM = charge(budget, f"enumerating units mod {p}^{M}", p, M)
    return frozenset(pow(a, n, pM) for a in range(1, pM) if a % p)


def _unit_group(p: int, K: int, u: int = 1) -> tuple:
    """(T, m, a): the units mod p^K are <t> x <g>, t of order T and g of
    order m, and u = t^a * w with w in <g>.  The group is cyclic (T = 1)
    except for p = 2, K >= 3: there t = -1, g = 5, m = 2^(K-2), and <5>
    holds the units = 1 mod 4 (Serre, *A Course in Arithmetic*, ch. II).
    """
    if p == 2 and K >= 3:
        return 2, 1 << K - 2, u % 4 // 2
    return 1, p ** (K - 1) * (p - 1), 0


@lru_cache(maxsize=256)
def _generator(p: int, K: int) -> int:
    """The least g >= 2 generating <g> of `_unit_group`: g has a = 0 and is
    a q-th power for no prime q | m, q = p included when K >= 2."""
    m = _unit_group(p, K)[1]
    primes, rest, q = [], m, 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    return next(
        g
        for g in count(2)
        if g % p
        and _unit_group(p, K, g)[2] == 0
        and not any(is_nth_power_residue(g, q, p, K) for q in primes)
    )


def is_nth_power_residue(u: int, n: int, p, M: int) -> bool:
    """Is u an nth power of some unit, modulo p^M?

    Uses group structure rather than enumeration: with u = t^a * w as in
    `_unit_group` (w = -u when a = 1), the nth powers are the u with
    gcd(n, T) | a and w^(m / gcd(n, m)) = 1.  No generator is needed, so
    for M = 1 this is one pow, even at p near 2^64.
    """
    p = as_prime(p)
    check_int(u, None, "unit u")
    check_int(n, 1, "exponent n")
    check_int(M, 1, "modulus exponent M")
    if u % p == 0:
        raise ValueError(f"{u} is divisible by {p}")
    T, m, a = _unit_group(p, M, u)
    return a % gcd(n, T) == 0 and pow(-u if a else u, m // gcd(n, m), p**M) == 1


def is_nth_power_in_Zp(c, n: int, p) -> bool:
    """Is the rational c an nth power of a p-adic integer?

    Requires c != 0 with valuation(c, p) >= 0.  True iff n divides
    valuation(c, p) and the unit part of c is an nth-power residue
    modulo p^M with M = stabilization_exponent(n, p).
    """
    p = as_prime(p)
    check_int(n, 1, "exponent n")
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
    when c is not an nth power in Z_p, a c of negative valuation included.
    """
    p = as_prime(p)
    check_int(n, 1, "exponent n")
    check_int(K, 1, "precision K")
    c = Fraction(c)
    v = valuation(c, p) if c else 0
    if v < 0 or not is_nth_power_in_Zp(c, n, p):
        raise NoRoot(f"x^{n} = {c} has no solution in Z_{p}")
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
