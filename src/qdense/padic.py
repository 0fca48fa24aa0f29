"""Exact p-adic building blocks.

Valuations and norms of rationals, modular arithmetic helpers, truncated
p-adic numbers of the shape p^v * (u + O(p^K)), and Newton lifting of
simple polynomial roots to prime-power moduli.

Everything here is a pure function on immutable values, so all operations
are safe to call concurrently.  Rationals are plain ``fractions.Fraction``
objects (already stored reduced with a positive denominator, which is
exactly the invariant a dedicated rational type would enforce).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, NotInvertible, PreconditionFailed

__all__ = [
    "INFINITY",
    "PrimeModulus",
    "TruncatedPAdic",
    "valuation",
    "padic_norm",
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


class _Infinity:
    """The valuation of zero: larger than every integer, absorbing under +."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("qdense-infinity")

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("Infinity has no negative")


INFINITY = _Infinity()


@dataclass(frozen=True)
class PrimeModulus:
    """A certified prime p.  Construction runs a deterministic primality test."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise TypeError(f"prime must be an int, got {type(self.p).__name__}")
        if self.p >= _MAX_PRIME:
            raise ValueError("primes are restricted to machine-word size")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __int__(self):
        return self.p

    def __repr__(self):
        return f"PrimeModulus({self.p})"


@lru_cache(maxsize=None)
def _certified(p: int) -> PrimeModulus:
    return PrimeModulus(p)


def as_prime(p) -> PrimeModulus:
    """Coerce an int (or PrimeModulus) to a certified PrimeModulus."""
    if isinstance(p, PrimeModulus):
        return p
    return _certified(p)


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


def valuation(x, p):
    """Exponent of p in the rational x; INFINITY iff x == 0.

    >>> valuation(50, 5)
    2
    >>> valuation(Fraction(3, 7), 7)
    -1
    """
    p = as_prime(p).p
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return split_power(x.numerator, p)[0] - split_power(x.denominator, p)[0]


def padic_norm(x, p) -> Fraction:
    """p-adic absolute value p^(-valuation(x, p)); zero maps to 0."""
    v = valuation(x, p)
    if v is INFINITY:
        return Fraction(0)
    return Fraction(int(p)) ** (-v)


def inverse_mod(a: int, modulus: int) -> int:
    """The x in [1, modulus-1] with a*x == 1 (mod modulus), by extended Euclid."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    r0, r1 = a % modulus, modulus
    s0, s1 = 1, 0
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0 != 1:
        raise NotInvertible(f"gcd({a}, {modulus}) = {r0} != 1")
    return s0 % modulus


def unit_residue(x, p, K: int) -> int:
    """Residue mod p^K of the unit part x / p^valuation(x), for rational x != 0."""
    p = as_prime(p).p
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("zero has no unit part")
    v = valuation(x, p)
    u = x / Fraction(p) ** v
    pK = p**K
    return u.numerator * inverse_mod(u.denominator, pK) % pK


@dataclass(frozen=True)
class TruncatedPAdic:
    """A p-adic number known to finite precision: p^v * (u + O(p^K)).

    ``u`` is a unit residue in [1, p^K - 1]; the distinguished zero carries
    valuation INFINITY and u == 0.
    """

    p: PrimeModulus
    v: object  # int, or INFINITY for the zero value
    u: int
    K: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        if self.K < 1:
            raise ValueError("precision K must be >= 1")
        if self.v is INFINITY:
            if self.u != 0:
                raise ValueError("the zero value has unit part 0")
            return
        pK = self.p.p**self.K
        if not 0 < self.u < pK or self.u % self.p.p == 0:
            raise ValueError("unit part must lie in [1, p^K-1] and be coprime to p")

    @classmethod
    def zero(cls, p, K: int = 1) -> "TruncatedPAdic":
        return cls(as_prime(p), INFINITY, 0, K)

    @classmethod
    def from_rational(cls, x, p, K: int) -> "TruncatedPAdic":
        p = as_prime(p)
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, K)
        return cls(p, valuation(x, p), unit_residue(x, p, K), K)

    @property
    def is_zero(self) -> bool:
        return self.v is INFINITY

    def _combine(self, other: "TruncatedPAdic", divide: bool) -> "TruncatedPAdic":
        if not isinstance(other, TruncatedPAdic):
            return NotImplemented
        if self.p.p != other.p.p:
            raise ValueError("operands live over different primes")
        K = min(self.K, other.K)
        if divide and other.is_zero:
            raise DivisionByZero("division by the zero p-adic value")
        if self.is_zero:
            return TruncatedPAdic.zero(self.p, K)
        pK = self.p.p**K
        if divide:
            v = self.v - other.v
            u = self.u * inverse_mod(other.u, pK) % pK
        else:
            if other.is_zero:
                return TruncatedPAdic.zero(self.p, K)
            v = self.v + other.v
            u = self.u * other.u % pK
        return TruncatedPAdic(self.p, v, u, K)

    def __mul__(self, other):
        return self._combine(other, divide=False)

    def __truediv__(self, other):
        return self._combine(other, divide=True)

    def __repr__(self):
        if self.is_zero:
            return f"TruncatedPAdic.zero(p={self.p.p}, K={self.K})"
        return f"{self.p.p}^{self.v} * ({self.u} + O({self.p.p}^{self.K}))"


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
    p = as_prime(p).p
    if K < 1:
        raise ValueError("precision K must be >= 1")
    coeffs = [int(c) for c in poly]
    deriv = poly_derivative(coeffs)
    s = valuation(poly_eval(coeffs, x0), p)
    t = valuation(poly_eval(deriv, x0), p)
    if t is INFINITY or (s is not INFINITY and s <= 2 * t):
        raise PreconditionFailed(
            f"need v(f(x0)) > 2*v(f'(x0)); got v(f)={s}, v(f')={t}"
        )
    # Work modulus: enough headroom that the final reduction mod p^K is exact.
    work = p ** (K + 2 * t + 1)
    pt = p**t
    x = x0 % work
    # Each step at least doubles v(f(x)) - 2t; stop once the root is pinned
    # mod p^K, i.e. v(f(x)) >= K + t.
    for _ in range(K.bit_length() + K + 2):
        fx = poly_eval(coeffs, x, work)
        if valuation(fx, p) >= K + t:
            break
        dx = poly_eval(deriv, x, work)
        # f/f' = (f/p^t) * (f'/p^t)^{-1}: the unit part of f' is inverted
        # exactly, the p^t factors cancel.
        step = (fx // pt) * inverse_mod((dx // pt) % work, work) % work
        x = (x - step) % work
    else:
        raise PreconditionFailed("Newton iteration failed to converge")
    return x % p**K
