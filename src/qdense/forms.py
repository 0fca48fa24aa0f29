"""Diagonal forms: evaluation, normalization and finite-field analysis.

A diagonal form is F(x_1..x_r) = a_1 x_1^n + ... + a_r x_r^n with nonzero
integer coefficients.  This module provides exact evaluation, the
quotient-preserving binary normalization (constant scaling and x -> p^t x
leave the quotient set unchanged), valuation profiles, and one walk of the
zeros mod p, in lexicographic order, that both F_p searches share: the
anisotropy check and the non-singular zero search for ternary cubics.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DEFAULT_BUDGET, charge
from .padic import as_prime, split_power

__all__ = [
    "DiagonalForm",
    "ValuationProfile",
    "normalize_binary",
    "is_anisotropic_mod_p",
    "find_nonsingular_zero_mod_p",
    "valuation_profile",
]


@dataclass(frozen=True, init=False)
class DiagonalForm:
    """Degree-n diagonal form with nonzero integer coefficients; a float or
    string degree or coefficient raises TypeError, it is never truncated."""

    n: int
    coeffs: tuple

    def __init__(self, n, coeffs):
        n, coeffs = operator.index(n), tuple(map(operator.index, coeffs))
        if n < 2:
            raise ValueError("degree must be >= 2")
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if 0 in coeffs:
            raise ValueError("coefficients must be nonzero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def r(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point) -> int:
        if len(point) != self.r:
            raise ValueError(f"form has {self.r} variables, point has {len(point)}")
        return sum(
            a * operator.index(x) ** self.n for a, x in zip(self.coeffs, point)
        )

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


def normalize_binary(form: DiagonalForm, p) -> tuple:
    """(delta, la, lb) for a*x^n + b*y^n, with a = p^alpha*la, b = p^beta*lb,
    la and lb prime to p and delta = alpha - beta, not reduced mod n.

    Scaling by a constant and x -> p^t x preserve the quotient set, so the
    form's quotient set is that of p^(delta mod n)*la*x^n + lb*y^n.
    """
    if form.r != 2:
        raise ValueError("normalize_binary needs a binary form")
    p = as_prime(p)
    a, b = form.coeffs
    alpha, la = split_power(a, p)
    beta, lb = split_power(b, p)
    return alpha - beta, la, lb


def _zeros_mod_p(form: DiagonalForm, p: int):
    """The nonzero zeros of the form mod p whose first nonzero coordinate is
    1, in lexicographic order.  F(c*x) = c^n F(x), so every other zero is a
    scalar multiple of one of these, and comes after it."""
    residues = [a % p for a in form.coeffs]
    pow_table = [pow(x, form.n, p) for x in range(p)]
    for lead in reversed(range(form.r)):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=form.r - 1 - lead):
            vec = prefix + tail
            if sum(a * pow_table[x] for a, x in zip(residues, vec)) % p == 0:
                yield vec


def is_anisotropic_mod_p(form: DiagonalForm, p, budget: int = DEFAULT_BUDGET):
    """Exhaustive isotropy check over F_p.

    Returns (True, None) when no nonzero vector annihilates the form mod p,
    else (False, witness) with the lexicographically least nonzero zero.
    """
    p = as_prime(p)
    # At least p^(r-1) vectors: charged first, it builds no p^r that cannot fit.
    what = f"walk over ({p}^{form.r} - 1)/({p} - 1) vectors mod {p}"
    charge(budget, what, (p * charge(budget, what, p, form.r - 1) - 1) // (p - 1))
    witness = next(_zeros_mod_p(form, p), None)
    return witness is None, witness


def find_nonsingular_zero_mod_p(form: DiagonalForm, p, budget: int = DEFAULT_BUDGET):
    """Lexicographically least nonzero root of a ternary cubic over F_p with
    a nonvanishing partial derivative.

    A root x with leading coordinate c != 1 has the earlier root x/c, which
    is non-singular exactly when x is, so only roots led by 1 are visited.
    Existence is guaranteed whenever p != 3 and p divides no coefficient
    (diagonal cubics then always have a non-singular zero over F_p).
    Otherwise there may be none, and the search raises ValueError.
    """
    if form.r != 3 or form.n != 3:
        raise ValueError("search is defined for ternary cubics")
    p = as_prime(p)
    charge(budget, f"zero search over {p}^2 pairs", p, 2)
    for vec in _zeros_mod_p(form, p):
        if any(3 * a * x * x % p for a, x in zip(form.coeffs, vec)):
            return vec
    raise ValueError(f"no non-singular zero of {form} over F_{p}")


class ValuationProfile(NamedTuple):
    """Coefficient valuations, their classes mod n and unit cofactors.
    When the classes are pairwise distinct they are exactly the attainable
    value valuations mod n."""

    valuations: tuple
    residues: tuple  # v_p(a_i) mod n, in coefficient order
    pairwise_distinct: bool
    unit_parts: tuple


def valuation_profile(form: DiagonalForm, p) -> ValuationProfile:
    """Valuations of the coefficients mod n plus distinctness analysis.

    With pairwise distinct residues no two monomials of F can share a
    valuation, so the ultrametric minimum is always attained exactly and
    v_p(F(x)) mod n ranges over precisely {v_p(a_i) mod n}.
    """
    p, n = as_prime(p), form.n
    vals, units = zip(*[split_power(a, p) for a in form.coeffs])
    residues = tuple([alpha % n for alpha in vals])
    return ValuationProfile(vals, residues, len(set(residues)) == len(vals), units)
