"""Diagonal forms: evaluation, normalization and finite-field analysis.

A diagonal form is F(x_1..x_r) = a_1 x_1^n + ... + a_r x_r^n with nonzero
integer coefficients.  This module provides exact evaluation, the
quotient-preserving binary normalization (constant scaling and the
substitution x -> p^t x leave the quotient set unchanged), exhaustive
anisotropy checks over F_p, the non-singular zero search used for ternary
cubics, and coefficient valuation profiles.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceeded, DimensionMismatch, NotFound
from .padic import as_prime, split_power

__all__ = [
    "DiagonalForm",
    "BinaryNormalization",
    "ValuationProfile",
    "normalize_binary",
    "is_anisotropic_mod_p",
    "find_nonsingular_zero_mod_p",
    "valuation_profile",
]


@dataclass(frozen=True)
class DiagonalForm:
    """Degree-n diagonal form with nonzero integer coefficients; a float or
    string degree or coefficient raises TypeError, it is never truncated."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(
            self, "coeffs", tuple(operator.index(a) for a in self.coeffs)
        )
        if self.n < 2:
            raise ValueError("degree must be >= 2")
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        if any(a == 0 for a in self.coeffs):
            raise ValueError("coefficients must be nonzero")

    @property
    def r(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point) -> int:
        if len(point) != self.r:
            raise DimensionMismatch(
                f"form has {self.r} variables, point has {len(point)}"
            )
        return sum(
            a * operator.index(x) ** self.n for a, x in zip(self.coeffs, point)
        )

    def subform(self, indices) -> "DiagonalForm":
        return DiagonalForm(self.n, tuple(self.coeffs[i] for i in indices))

    def __str__(self):
        names = (
            ["x", "y", "z", "w"][: self.r]
            if self.r <= 4
            else [f"x{i+1}" for i in range(self.r)]
        )
        parts = []
        for a, v in zip(self.coeffs, names):
            term = f"{v}^{self.n}" if abs(a) == 1 else f"{abs(a)}*{v}^{self.n}"
            sign = "- " if a < 0 else ("+ " if parts else "")
            parts.append(sign + term)
        return " ".join(parts)


@dataclass(frozen=True)
class BinaryNormalization:
    """Result of reducing a*x^n + b*y^n to p^d*la*x^n + lb*y^n with d = delta mod n.

    delta = v_p(a) - v_p(b) is returned un-reduced alongside its class mod n
    so callers can tell whether plain scaling or a substitution was needed.
    The recorded point substitution (x, y) -> (p^qa * x, p^qb * y) satisfies

        normalized(p^qa * x, p^qb * y) = p^c * F(x, y)

    which makes the quotient-set identity directly checkable.
    """

    p: int
    n: int
    delta: int
    delta_class: int
    units: tuple
    normalized: DiagonalForm
    point_scale: tuple  # (qa, qb)
    constant_scale: int  # c in the displayed identity


def normalize_binary(form: DiagonalForm, p) -> BinaryNormalization:
    """Strip coefficient p-powers from a binary form, preserving the quotient set."""
    if form.r != 2:
        raise DimensionMismatch("normalize_binary needs a binary form")
    p = as_prime(p).p
    n = form.n
    a, b = form.coeffs
    alpha, la = split_power(a, p)
    beta, lb = split_power(b, p)
    delta = alpha - beta
    d = delta % n
    normalized = DiagonalForm(n, (p**d * la, lb))
    # Solve n*qa + d = c + alpha and n*qb = c + beta with qa, qb >= 0.
    qb = max(0, -(-beta // n), -(delta - d) // n)
    c = n * qb - beta
    qa = (c + alpha - d) // n
    return BinaryNormalization(
        p=p,
        n=n,
        delta=delta,
        delta_class=d,
        units=(la, lb),
        normalized=normalized,
        point_scale=(qa, qb),
        constant_scale=c,
    )


def _projective_representatives(p: int, r: int):
    """One representative per projective point: first nonzero coordinate is 1."""
    for lead in range(r):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=r - 1 - lead):
            yield prefix + tail


def is_anisotropic_mod_p(form: DiagonalForm, p, budget: int = DEFAULT_BUDGET):
    """Exhaustive isotropy check over F_p.

    Returns (True, None) when no nonzero vector annihilates the form mod p,
    else (False, witness).  Scalar multiples are skipped: F(c*x) = c^n F(x),
    so projective representatives suffice.
    """
    p = as_prime(p).p
    if (p**form.r - 1) // (p - 1) > budget:
        raise BudgetExceeded(f"{p}^{form.r} vectors exceed budget {budget}")
    residues = [a % p for a in form.coeffs]
    pow_table = [pow(x, form.n, p) for x in range(p)]
    for vec in _projective_representatives(p, form.r):
        if sum(a * pow_table[x] for a, x in zip(residues, vec)) % p == 0:
            return False, vec
    return True, None


def find_nonsingular_zero_mod_p(form: DiagonalForm, p, budget: int = DEFAULT_BUDGET):
    """First (lexicographic) nonzero root of a ternary cubic over F_p with a
    nonvanishing partial derivative.

    Existence is guaranteed whenever p != 3 and p divides no coefficient
    (diagonal cubics then always have a non-singular zero over F_p); a
    NotFound under those preconditions would disprove that guarantee and is
    treated as a test failure.
    """
    if form.r != 3 or form.n != 3:
        raise DimensionMismatch("search is defined for ternary cubics")
    p = as_prime(p).p
    if p**2 > budget:
        raise BudgetExceeded(f"{p}^2 search pairs exceed budget {budget}")
    a, b, c = (x % p for x in form.coeffs)
    cubes = [pow(x, 3, p) for x in range(p)]
    # z-lookup: residue of -c*z^3 -> sorted list of z
    by_residue = {}
    for z in range(p):
        by_residue.setdefault(-c * cubes[z] % p, []).append(z)
    for x in range(p):
        for y in range(p):
            for z in by_residue.get((a * cubes[x] + b * cubes[y]) % p, ()):
                if x == y == z == 0:
                    continue
                vec = (x, y, z)
                if any(
                    3 * ai * vi * vi % p for ai, vi in zip(form.coeffs, vec)
                ):
                    return vec
    raise NotFound(f"no non-singular zero of {form} over F_{p}")


@dataclass(frozen=True)
class ValuationProfile:
    """Coefficient valuations mod n, their unit cofactors, and (when the
    residues are pairwise distinct) the exact attainable set of value
    valuations mod n."""

    p: int
    n: int
    valuations: tuple
    residues: tuple  # v_p(a_i) mod n, in coefficient order
    pairwise_distinct: bool
    unit_parts: tuple
    attainable_value_residues: frozenset | None


def valuation_profile(form: DiagonalForm, p) -> ValuationProfile:
    """Valuations of the coefficients mod n plus distinctness analysis.

    With pairwise distinct residues no two monomials of F can share a
    valuation, so the ultrametric minimum is always attained exactly and
    v_p(F(x)) mod n ranges over precisely {v_p(a_i) mod n}.
    """
    p = as_prime(p).p
    splits = [split_power(a, p) for a in form.coeffs]
    vals = tuple(alpha for alpha, _ in splits)
    residues = tuple(alpha % form.n for alpha in vals)
    distinct = len(set(residues)) == len(residues)
    return ValuationProfile(
        p=p,
        n=form.n,
        valuations=vals,
        residues=residues,
        pairwise_distinct=distinct,
        unit_parts=tuple(u for _, u in splits),
        attainable_value_residues=frozenset(residues) if distinct else None,
    )
