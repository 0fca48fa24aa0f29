"""Brute-force evidence, independent of the decision engine.

Enumerates form values over integer boxes, classifies every nonzero value
into its ball (valuation v, unit residue u mod p^K), forms all pairwise
quotient classes, measures how much of each valuation level is covered,
and checks NotDense certificates against the observed data.

The oracle is one-sided on purpose: it can refute a certificate exactly
(any observed quotient inside a forbidden region is a disproof) but can
only corroborate Dense verdicts through growing coverage; density is a
limit statement no finite box settles.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field

from .certificates import ResidueGap, ValuationGap
from .errors import DEFAULT_BUDGET, BudgetExceeded, ParameterMismatch
from .forms import DiagonalForm
from .padic import as_prime, inverse_mod

__all__ = [
    "ValueClasses",
    "QuotientClassMap",
    "CoverageReport",
    "CheckResult",
    "enumerate_values",
    "quotient_coverage",
    "check_certificate",
    "coverage_trend",
]


@dataclass(frozen=True)
class ValueClasses:
    """Observed (valuation, unit mod p^K) classes of F over a box, with the
    lexicographically least witness point for each class."""

    form: DiagonalForm
    p: int
    K: int
    B: int
    classes: dict  # (v, u) -> witness point tuple

    @property
    def valuations(self) -> set:
        return {v for v, _ in self.classes}


@dataclass(frozen=True)
class QuotientClassMap:
    """Quotient classes (v1 - v2 in [-V, V], u1/u2 mod p^K) hit by the
    observed values.

    `hits` is the set of (v, u) keys; `witness(key)` finds the pair of
    points realizing a key on demand.
    """

    values: ValueClasses = field(repr=False)
    V: int
    hits: frozenset  # (v, u) keys

    def witness(self, key) -> tuple:
        """(numerator point, denominator point) for a hit key.

        The pair is the first in sorted (numerator class, denominator
        class) order: for a fixed numerator class (v1, u1) the denominator
        class (v1 - v, u1 / u) is unique, so walking the sorted numerator
        classes finds it.
        """
        if key not in self.hits:
            raise KeyError(key)
        v, u = key
        classes = self.values.classes
        pK = self.values.p**self.values.K
        u_inv = inverse_mod(u, pK)
        for v1, u1 in sorted(classes):
            partner = (v1 - v, u1 * u_inv % pK)
            if partner in classes:
                return classes[(v1, u1)], classes[partner]
        raise AssertionError(f"hit {key} has no witness pair")


@dataclass(frozen=True)
class CoverageReport:
    form: DiagonalForm
    p: int
    K: int
    V: int
    B: int
    coverage: dict  # valuation level -> fraction of unit classes hit
    missed: dict  # valuation level -> sorted tuple of unit classes not hit
    quotient_valuation_residues: frozenset  # all v1 - v2 mod n, unwindowed
    value_valuation_residues: frozenset  # all v_p(F(x)) mod n observed
    quotients: QuotientClassMap = field(repr=False)

    def overall_coverage(self) -> float:
        if not self.coverage:
            return 0.0
        return sum(self.coverage.values()) / len(self.coverage)

    def to_json(self) -> str:
        return json.dumps(
            {
                "coeffs": list(self.form.coeffs),
                "n": self.form.n,
                "p": self.p,
                "K": self.K,
                "V": self.V,
                "B": self.B,
                "coverage": {str(v): f for v, f in sorted(self.coverage.items())},
                "missed": {
                    str(v): list(m) for v, m in sorted(self.missed.items())
                },
                "quotient_valuation_residues": sorted(
                    self.quotient_valuation_residues
                ),
                "value_valuation_residues": sorted(self.value_valuation_residues),
            },
            indent=2,
        )

    def to_csv(self) -> str:
        """Hit matrix: rows are valuation levels, columns unit classes mod p^K."""
        pK = self.p**self.K
        units = [u for u in range(1, pK) if u % self.p]
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["valuation"] + units)
        hits = self.quotients.hits
        for v in range(-self.V, self.V + 1):
            writer.writerow([v] + [1 if (v, u) in hits else 0 for u in units])
        return out.getvalue()


@dataclass(frozen=True)
class CheckResult:
    consistent: bool
    witness: tuple = None  # (numerator point, denominator point) on refutation
    detail: str = ""

    def __bool__(self):
        return self.consistent


def enumerate_values(
    form: DiagonalForm, p, B: int, K: int, budget: int = DEFAULT_BUDGET
) -> ValueClasses:
    """Classify F(x) for every x in [-B, B]^r with F(x) != 0.

    Witnesses are the lexicographically least point realizing each class.
    For even n only the points with no positive coordinate are visited:
    every class is closed under flipping the sign of a coordinate, so its
    least point has none.
    """
    p = as_prime(p).p
    if (2 * B + 1) ** form.r > budget:
        raise BudgetExceeded(
            f"({2*B+1})^{form.r} box points exceed budget {budget}"
        )
    pK = p**K
    n = form.n
    xs = range(-B, 1 if n % 2 == 0 else B + 1)
    *head_coeffs, last = form.coeffs
    # Each point is a prefix sum over the leading coordinates plus one
    # precomputed monomial of the last coordinate.
    head_monomials = [[a * x**n for x in xs] for a in head_coeffs]
    last_monomials = [(x, last * x**n) for x in xs]
    classes = {}
    for head, terms in zip(
        itertools.product(xs, repeat=len(head_coeffs)),
        itertools.product(*head_monomials),
    ):
        prefix = sum(terms)
        for x, monomial in last_monomials:
            value = prefix + monomial
            if value == 0:
                continue
            # Inline, not split_power: a call per box point slows this hot loop.
            v = 0
            while value % p == 0:
                value //= p
                v += 1
            key = (v, value % pK)
            if key not in classes:
                classes[key] = head + (x,)
    return ValueClasses(form=form, p=p, K=K, B=B, classes=classes)


def _quotient_map(values: ValueClasses, V: int) -> QuotientClassMap:
    pK = values.p**values.K
    units_at = {}  # valuation level -> units observed there
    for v, u in values.classes:
        units_at.setdefault(v, []).append(u)
    inverse = {u: inverse_mod(u, pK) for u in {u for _, u in values.classes}}
    inverses_at = {v: [inverse[u] for u in us] for v, us in units_at.items()}
    all_units = pK - pK // values.p
    per_level = {}
    for v1, units in units_at.items():
        for v2, inverses in inverses_at.items():
            v = v1 - v2
            if abs(v) > V:
                continue
            level = per_level.setdefault(v, set())
            if len(level) == all_units:
                continue
            level |= {u * w % pK for u in units for w in inverses}
    hits = frozenset((v, u) for v, level in per_level.items() for u in level)
    return QuotientClassMap(values=values, V=V, hits=hits)


def quotient_coverage(
    form: DiagonalForm,
    p,
    B: int,
    K: int,
    V: int,
    budget: int = DEFAULT_BUDGET,
) -> CoverageReport:
    """Enumerate, quotient, and measure per-level unit-class coverage."""
    values = enumerate_values(form, p, B, K, budget)
    p = values.p
    quotients = _quotient_map(values, V)
    pK = p**K
    units = [u for u in range(1, pK) if u % p]
    per_level = {v: set() for v in range(-V, V + 1)}
    for v, u in quotients.hits:
        per_level[v].add(u)
    coverage = {v: len(per_level[v]) / len(units) for v in per_level}
    missed = {
        v: tuple(sorted(set(units) - per_level[v])) for v in per_level
    }
    vals = values.valuations
    return CoverageReport(
        form=form,
        p=p,
        K=K,
        V=V,
        B=B,
        coverage=coverage,
        missed=missed,
        quotient_valuation_residues=frozenset(
            (v1 - v2) % form.n for v1 in vals for v2 in vals
        ),
        value_valuation_residues=frozenset(v % form.n for v in vals),
        quotients=quotients,
    )


def check_certificate(certificate, report: CoverageReport) -> CheckResult:
    """Verify an obstruction certificate against enumerated quotients.

    ValuationGap: no observed quotient valuation may fall in the forbidden
    residue set mod n.  ResidueGap at exponent e: no observed valuation-0
    quotient class may be congruent to the named unit mod p^e.  Any
    violation is returned with its witness pair: a concrete disproof of
    the engine verdict.
    """
    if certificate.p != report.p or certificate.n != report.form.n:
        raise ParameterMismatch(
            "certificate and report disagree on (p, n): "
            f"({certificate.p}, {certificate.n}) vs ({report.p}, {report.form.n})"
        )
    n = report.form.n
    if isinstance(certificate, ValuationGap):
        # Check the unwindowed valuation data first, then locate a witness.
        bad = report.quotient_valuation_residues & certificate.forbidden
        if not bad:
            return CheckResult(True, detail="no forbidden quotient valuation observed")
        residue = min(bad)
        in_window = [k for k in report.quotients.hits if k[0] % n == residue]
        if in_window:
            key = min(in_window)
            return CheckResult(
                False,
                witness=report.quotients.witness(key),
                detail=f"quotient valuation {key[0]} = {residue} mod {n} is forbidden",
            )
        return CheckResult(
            False,
            detail=f"forbidden valuation residue {residue} observed outside window",
        )
    if isinstance(certificate, ResidueGap):
        e = certificate.modulus_exponent
        if e > report.K:
            raise ParameterMismatch(
                f"certificate needs unit precision {e}, report has K={report.K}"
            )
        pe = report.p**e
        target = certificate.unit_class % pe
        matching = [
            k for k in report.quotients.hits if k[0] == 0 and k[1] % pe == target
        ]
        if matching:
            key = min(matching)
            return CheckResult(
                False,
                witness=report.quotients.witness(key),
                detail=f"valuation-0 quotient with unit {key[1]} = "
                f"{target} mod {report.p}^{e} observed",
            )
        return CheckResult(
            True, detail=f"no valuation-0 quotient hits {target} mod {report.p}^{e}"
        )
    raise TypeError(f"unknown certificate type {type(certificate).__name__}")


def coverage_trend(
    form: DiagonalForm,
    p,
    K: int,
    V: int,
    boxes,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """Coverage reports over an increasing sequence of boxes.

    For genuinely dense quotient sets the per-level fractions climb toward
    1; hit classes are never lost when the box grows.
    """
    return [quotient_coverage(form, p, B, K, V, budget) for B in boxes]
