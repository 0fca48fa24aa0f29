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
    """Quotient classes (v1 - v2 in [-V, V], u1/u2 mod p^K) with witness pairs."""

    p: int
    K: int
    V: int
    B: int
    hits: dict  # (v, u) -> (numerator point, denominator point)


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
        hit = {(v, u) for (v, u) in self.quotients.hits}
        for v in range(-self.V, self.V + 1):
            writer.writerow([v] + [1 if (v, u) in hit else 0 for u in units])
        return out.getvalue()


@dataclass(frozen=True)
class CheckResult:
    consistent: bool
    witness: tuple = None  # (numerator point, denominator point) on refutation
    detail: str = ""

    def __bool__(self):
        return self.consistent


def _box_points(B: int, r: int):
    return itertools.product(range(-B, B + 1), repeat=r)


def enumerate_values(
    form: DiagonalForm, p, B: int, K: int, budget: int = DEFAULT_BUDGET
) -> ValueClasses:
    """Classify F(x) for every x in [-B, B]^r with F(x) != 0.

    Witnesses are the lexicographically least point realizing each class.
    """
    p = as_prime(p).p
    if (2 * B + 1) ** form.r > budget:
        raise BudgetExceeded(
            f"({2*B+1})^{form.r} box points exceed budget {budget}"
        )
    pK = p**K
    # Precomputed per-coordinate monomials make evaluation a plain sum.
    monomials = [
        {x: a * x**form.n for x in range(-B, B + 1)} for a in form.coeffs
    ]
    classes = {}
    for point in _box_points(B, form.r):
        value = sum(m[x] for m, x in zip(monomials, point))
        if value == 0:
            continue
        # Inline, not split_power: a call per box point slows this hot loop.
        v = 0
        while value % p == 0:
            value //= p
            v += 1
        key = (v, value % pK)
        if key not in classes:
            classes[key] = point
    return ValueClasses(form=form, p=p, K=K, B=B, classes=classes)


def _quotient_map(values: ValueClasses, V: int) -> QuotientClassMap:
    p, K = values.p, values.K
    pK = p**K
    inverses = {}
    hits = {}
    for (v1, u1), w1 in sorted(values.classes.items()):
        for (v2, u2), w2 in sorted(values.classes.items()):
            v = v1 - v2
            if abs(v) > V:
                continue
            if u2 not in inverses:
                inverses[u2] = inverse_mod(u2, pK)
            key = (v, u1 * inverses[u2] % pK)
            if key not in hits:
                hits[key] = (w1, w2)
    return QuotientClassMap(p=p, K=K, V=V, B=values.B, hits=hits)


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
        for (v, _), pair in sorted(report.quotients.hits.items()):
            if v % n == residue:
                return CheckResult(
                    False,
                    witness=pair,
                    detail=f"quotient valuation {v} = {residue} mod {n} is forbidden",
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
        for (v, u), pair in sorted(report.quotients.hits.items()):
            if v == 0 and u % pe == target:
                return CheckResult(
                    False,
                    witness=pair,
                    detail=f"valuation-0 quotient with unit {u} = "
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
