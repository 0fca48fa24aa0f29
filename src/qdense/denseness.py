"""The denseness decision engine.

Maps (diagonal form F, prime p) to Dense / NotDense / Inconclusive for the
quotient set R(F) = {F(x)/F(y)} inside the p-adic numbers, together with a
proof trace naming the rules that fired and, for NotDense, a machine
checkable obstruction certificate.

Rules, tried in this fixed order, earliest conclusive hit wins:

  R1  binary forms (r = 2, n >= 3): complete decision via normalization,
      the unit-ratio residue test at modulus p^M, and an exact analysis of
      the attainable valuation offsets.
  R2  coefficient valuation classes: a matching pair decides Dense when
      gcd(n, p(p-1)) = 1; pairwise-distinct classes whose difference set
      fails to cover Z/nZ decide NotDense for every p (the ultrametric
      minimum is then always attained exactly, so quotient valuations are
      confined to the difference classes).
  R3  ternary-cubic sufficiency (n = 3, p != 3): three coefficients in a
      common valuation class mod 3 reduce to a unit ternary cubic, which
      always has a non-singular zero over F_p and hence a simple p-adic
      root; Dense.  A zero search that exceeds the budget is skipped.
  R4  anisotropy obstruction (any degree n >= 2, all coefficient
      valuations agree mod n): scaling and x_i -> p^t x_i reduce F to its
      unit-part form; when that form has no nonzero root mod p, every value
      valuation of F lies in one class mod n; NotDense.  An F_p walk that
      exceeds the budget is skipped.
  R5  subform closure: the quotient set of a subform is contained in that
      of the full form, so any Dense binary subform decides Dense.  Reading
      the valuation profile once, it tries only pairs whose valuation classes
      agree mod n (all pairs when n = 3) and skips any over budget; when
      the r(r-1)/2 pairs themselves exceed the budget it tries none.
  R6  otherwise Inconclusive.  The engine never runs the brute-force
      oracle; `qdense oracle --K 1 --check` gathers coverage evidence for an
      undecided form.

NotDense certificates and their JSON form live in `certificates`.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .certificates import ResidueGap, ValuationGap
from .certificates import from_dict as certificate_from_dict
from .certificates import to_dict as certificate_to_dict
from .errors import DEFAULT_BUDGET, BudgetExceeded, charge, check_int, record
from .forms import (
    DiagonalForm,
    find_nonsingular_zero_mod_p,
    is_anisotropic_mod_p,
    normalize_binary,
    valuation_profile,
)
from .padic import as_prime, inverse_mod, split_power
from .residues import is_nth_power_residue, nth_power_residues, stabilization_exponent

__all__ = [
    "DENSE",
    "NOT_DENSE",
    "INCONCLUSIVE",
    "ValuationGap",
    "ResidueGap",
    "RuleApplication",
    "Verdict",
    "difference_cover_check",
    "decide_binary",
    "decide",
    "verdict_to_dict",
    "verdict_from_dict",
]

DENSE = "Dense"
NOT_DENSE = "NotDense"
INCONCLUSIVE = "Inconclusive"


class RuleApplication(record("RuleApplication", "rule statement params")):
    """One trace entry: a string rule id and citation, and its own params
    dict; anything else raises ValueError."""

    __slots__ = ()

    def __new__(cls, rule, statement, params=None):
        params = {} if params is None else params
        if not (isinstance(rule, str) and isinstance(statement, str)
                and isinstance(params, dict)):
            raise ValueError(
                "a rule needs a string id and citation and dict params, "
                f"got {(rule, statement, params)!r:.200}"
            )
        return tuple.__new__(cls, (rule, statement, params))


class Verdict(record("Verdict", "status trace certificate")):
    __slots__ = ()

    def __new__(cls, status, trace, certificate=None):
        if status not in (DENSE, NOT_DENSE, INCONCLUSIVE):
            raise ValueError(f"unknown status {status!r}")
        if status == NOT_DENSE and certificate is None:
            raise ValueError("NotDense verdicts must carry a certificate")
        if status != INCONCLUSIVE and not trace:
            raise ValueError("conclusive verdicts must cite at least one rule")
        return tuple.__new__(cls, (status, trace, certificate))

    @property
    def deciding_rule(self) -> str:
        """The highest-numbered rule in the trace ("" if it is empty).  An R5
        trace ends with the R1 entries of its dense subform, so the last
        entry does not name the deciding rule.  The ids R1-R6 have one
        digit, so the highest is also the greatest string."""
        return max([entry.rule for entry in self.trace], default="")


def difference_cover_check(residues, n: int):
    """Does {x - y mod n : x, y in residues} cover all of Z/nZ?

    Returns (covers, missing_classes_sorted).
    """
    check_int(n, 1, "modulus n")
    residues = {x % n for x in residues}
    if not residues:
        raise ValueError("need at least one residue")
    diffs = {(x - y) % n for x in residues for y in residues}
    missing = [c for c in range(n) if c not in diffs]
    return not missing, missing


def _cancellation_offsets(m0: int, n: int, p: int, M: int, budget: int):
    """The exact set J of valuations v_p(w^n - m0) over p-adic units w,
    for m0 not an nth-power residue mod p^M (so every offset is < M).

    Value valuations of la*x^n + lb*y^n with -la^{-1}lb = m0 lie in
    nZ + J with J = {0} union these offsets: coordinates of unequal
    valuation contribute offset 0, and equal-valuation coordinates
    contribute v_p(w^n - m0) for the unit ratio w.  For M = 1 (p does not
    divide n) m0 is a non-residue mod p, so p divides no w^n - m0 and
    J = {0} without enumerating the units.
    """
    if M == 1:
        return {0}
    pM = p**M
    offsets = {0}
    for wn in nth_power_residues(n, p, M, budget):
        offsets.add(split_power((wn - m0) % pM, p)[0])
    return offsets


def decide_binary(form: DiagonalForm, p, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Complete decision for binary forms a*x^n + b*y^n, n >= 3.

    Never returns Inconclusive.  The verdict is invariant under scaling
    (a, b) -> (c*a, c*b) and under swapping a and b.  A budget that is not
    an int >= 0 raises ValueError, as in `decide`.
    """
    if form.r != 2:
        raise ValueError("decide_binary needs exactly two coefficients")
    if form.n < 3:
        raise ValueError("binary decision rules require degree n >= 3")
    check_int(budget)
    p = as_prime(p)
    n, M = form.n, stabilization_exponent(form.n, p)
    delta, la, lb = normalize_binary(form, p)
    trace = [_r1_normalize(n, M, delta, la, lb)]
    return _verdict(p, n, trace, "R1", *_decide_pair(n, p, M, delta, la, lb, budget))


def _r1_normalize(n, M, delta, la, lb) -> RuleApplication:
    """R1's first entry, the normalize step."""
    return RuleApplication(
        "R1",
        "normalize: scaling the form by a constant and substituting "
        "x -> p^t x both preserve the quotient set, so only "
        "delta = v_p(a) - v_p(b) mod n and the unit cofactors matter",
        {"delta": delta, "delta_class": delta % n, "units": [la, lb], "M": M},
    )


def _decide_pair(n, p, M, delta, la, lb, budget) -> tuple:
    """R1 after the normalize step, for p^delta*la*x^n + lb*y^n (units la, lb):
    (status, citation, params) of the entry that closes the decision.  A
    NotDense entry's params name the classes it `forbidden`s, or the unit
    `m` it misses mod p, for `_verdict` to certify."""
    d = delta % n
    pM = p**M

    if d == 0:
        m0 = (-inverse_mod(la % pM, pM) * lb) % pM
        if is_nth_power_residue(m0, n, p, M):
            return (
                DENSE,
                "the unit ratio -la^{-1}*lb is an nth-power residue mod "
                "p^M, hence an nth power of a p-adic unit (residue "
                "status stabilizes from exponent M on, and Newton "
                "lifting supplies the exact root); x^n + (la^{-1}lb)y^n "
                "then has a simple p-adic root and its values fill "
                "every ball around every target",
                {"m0": m0, "M": M},
            )
        offsets = _cancellation_offsets(m0, n, p, M, budget)
        covers, missing = difference_cover_check(offsets, n)
        if not covers:
            return (
                NOT_DENSE,
                "the unit ratio m0 is not an nth-power residue mod p^M, "
                "so cancellation between the two monomials stops at the "
                "listed depths; value valuations lie in nZ + offsets and "
                "quotient valuations miss the forbidden classes entirely, "
                "while a dense set must realize every integer valuation",
                {"m0": m0, "M": M, "offsets": sorted(offsets), "forbidden": missing},
            )
        # Offsets cover Z/n: only possible for p = n = 3.  The depth-1
        # cancellation level has a unit Newton derivative in the free
        # parameter, so its unit classes saturate and every ball is hit.
        if (p, n) != (3, 3):
            raise AssertionError("offset saturation outside p = n = 3")
        return (
            DENSE,
            "cancellation-depth saturation: the offsets realize every "
            "valuation class mod n, and at depth-1 cancellation the "
            "value unit parts fill all residues at every precision "
            "(the correction term has a unit derivative, so a Newton "
            "parameter solves for any target digit stream)",
            {"m0": m0, "M": M, "offsets": sorted(offsets)},
        )

    # n does not divide delta.
    covers, missing = difference_cover_check({0, d}, n)
    if not covers:
        return (
            NOT_DENSE,
            "the two monomials always have distinct valuations mod n, "
            "so no cancellation ever occurs: value valuations lie in "
            "(nZ) u (d + nZ) exactly and quotient valuations cover only "
            "{0, d, -d} mod n",
            {"d": d, "forbidden": missing},
        )
    # n == 3 with d in {1, 2}: valuations cover Z/3, so units decide.  When
    # gcd(3, p - 1) > 1 the cubes are a proper subgroup of F_p^*: m exists.
    if gcd(n, p - 1) > 1:
        m = next(m for m in range(2, p) if not is_nth_power_residue(m, n, p, 1))
        return (
            NOT_DENSE,
            "every valuation-zero quotient is a ratio of values from "
            "non-cancelling levels, hence congruent mod p to a ratio of "
            "nth powers; m is not an nth-power residue mod p, so the "
            "ball around m at valuation zero is never hit",
            {"d": d, "m": m},
        )
    return (
        DENSE,
        "valuation classes {0, d, -d} cover Z/3 and every unit is an "
        "nth-power residue mod p, so one valuation level has saturated "
        "unit classes (for p != 3 all units are nth powers outright; "
        "for p = 3 the p^1-level perturbation term has a unit Newton "
        "derivative) and every ball is hit",
        {"d": d},
    )


def decide(form: DiagonalForm, p, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Apply rules R1-R6 in order; see the module docstring for the table."""
    check_int(budget)
    p = as_prime(p)
    n = form.n
    trace = []

    if n >= 3 and form.r == 2:
        return decide_binary(form, p, budget)

    prof = valuation_profile(form, p)
    if n >= 3:
        gate = gcd(n, p * (p - 1)) == 1
        if gate and not prof.pairwise_distinct:
            pair = _first_in_one_class(prof.residues, 2)
            return _verdict(
                p, n, trace, "R2", DENSE,
                "gcd(n, p(p-1)) = 1, so every p-adic unit is an nth "
                "power; two coefficients share a valuation class mod n "
                "and the binary subform they span is dense, hence so is "
                "the full quotient set",
                {"indices": pair, "residues": list(prof.residues)},
            )
        if prof.pairwise_distinct:
            covers, missing = difference_cover_check(set(prof.residues), n)
            if not covers:
                return _verdict(
                    p, n, trace, "R2", NOT_DENSE,
                    "coefficient valuations are pairwise distinct mod n, "
                    "so the ultrametric minimum is attained exactly and "
                    "value valuations stay in the coefficient classes; "
                    "quotient valuations are confined to the difference "
                    "set, which misses the listed classes",
                    {"residues": list(prof.residues), "forbidden": missing},
                )
            if gate:
                return _verdict(
                    p, n, trace, "R2", DENSE,
                    "gcd(n, p(p-1)) = 1 and the coefficient valuation "
                    "differences cover Z/nZ (automatic when r > n/2), so "
                    "every target valuation is matched by some pair "
                    "(i, j) and every unit is an nth power: dense",
                    {
                        "residues": list(prof.residues),
                        "cover_automatic": form.r * 2 > n,
                    },
                )

        if n == 3 and p != 3:
            triple = _first_in_one_class(prof.residues, 3)
            if triple is not None:
                stripped = DiagonalForm(3, [prof.unit_parts[i] for i in triple])
                witness = _attempt(
                    trace, "R3",
                    "non-singular zero search skipped: exceeds the budget",
                    {"indices": triple},
                    find_nonsingular_zero_mod_p, stripped, p, budget,
                )
                if witness is not None:
                    return _verdict(
                        p, n, trace, "R3", DENSE,
                        "three coefficients share a valuation class mod 3; "
                        "stripping p-powers leaves a unit ternary cubic, "
                        "which has a non-singular zero over F_p (p != 3), "
                        "hence a simple p-adic root whose nearby values "
                        "fill every ball: dense (r >= 7 always contains "
                        "such a triple by pigeonhole)",
                        {
                            "indices": triple,
                            "stripped_coeffs": list(stripped.coeffs),
                            "nonsingular_zero": list(witness),
                        },
                    )

    if len(set(prof.residues)) == 1:
        unit_form = DiagonalForm(n, prof.unit_parts)
        walk = _attempt(
            trace, "R4",
            "anisotropy check skipped: enumeration over F_p^r exceeds the budget",
            {"r": form.r},
            is_anisotropic_mod_p, unit_form, p, budget,
        )
        if walk is not None and walk[0]:
            return _verdict(
                p, n, trace, "R4", NOT_DENSE,
                "all coefficient valuations agree mod n, so scaling "
                "and x_i -> p^t x_i reduce the form to its unit-part "
                "form, which has no nonzero root mod p; a zero mod p "
                "forces x = 0 mod p, so every value valuation lies in "
                "one class mod n and quotient valuations miss all "
                "other classes",
                {
                    "unit_coeffs": list(unit_form.coeffs),
                    "forbidden": list(range(1, n)),
                },
            )

    if n >= 3 and form.r >= 3:
        M = stabilization_exponent(n, p)
        vals, units, classes = prof.valuations, prof.unit_parts, prof.residues
        count = form.r * (form.r - 1) // 2
        searched = _attempt(
            trace, "R5",
            "subform search skipped: its r(r-1)/2 pairs exceed the budget",
            {"pairs": count},
            charge, budget, f"search over {count} subform pairs", count,
        )
        for i, j in combinations(range(form.r), 2) if searched else ():
            # R1 rules such a pair NotDense by {0, d, -d} alone; R5 needs Dense.
            if n >= 4 and classes[i] != classes[j]:
                continue
            delta = vals[i] - vals[j]
            pair = _attempt(
                trace, "R5",
                "binary subform skipped: its decision exceeds the budget",
                {"indices": [i, j]},
                _decide_pair, n, p, M, delta, units[i], units[j], budget,
            )
            if pair is not None and pair[0] == DENSE:
                normalize = _r1_normalize(n, M, delta, units[i], units[j])
                return _verdict(
                    p, n, trace, "R5", DENSE,
                    "the quotient set of a subform is contained in "
                    "the full quotient set, and the binary subform "
                    "on the listed coordinates is dense",
                    {
                        "indices": [i, j],
                        "subform_coeffs": [form.coeffs[i], form.coeffs[j]],
                    },
                    cited=(normalize, RuleApplication("R1", *pair[1:])),
                )

    summary_note = (
        "no rule applies; the fragment of theory implemented here leaves "
        "this form undecided"
        if n >= 3
        else "degree-2 forms are only decided by the anisotropy rule here; "
        "the full quadratic classification is prior work"
    )
    return _verdict(p, n, trace, "R6", INCONCLUSIVE, summary_note)


def _attempt(trace, rule, skip, params, search, *args):
    """search(*args), the one budgeted search behind `rule`.  Over budget,
    the skip entry (rule, skip, params) joins the trace and this returns
    None, so the later rules still run."""
    try:
        return search(*args)
    except BudgetExceeded:
        trace.append(RuleApplication(rule, skip, params))
        return None


def _verdict(p, n, trace, rule, status, statement, params=None, cited=()):
    """The verdict `rule` reaches: its entry closes the trace of the rules
    tried before it, followed by the entries it cites (R5's dense subform
    cites its R1 trace).  A NotDense certificate is read off the entry's
    params: a ResidueGap on the unit `m`, else a ValuationGap on `forbidden`."""
    certificate = None
    if status == NOT_DENSE and "m" in params:
        certificate = ResidueGap(p, n, params["m"], 1)
    elif status == NOT_DENSE:
        certificate = ValuationGap(p, n, params["forbidden"])
    entry = RuleApplication(rule, statement, params)
    return Verdict(status, (*trace, entry, *cited), certificate)


def _first_in_one_class(residues, k: int):
    """The first k indices to fill one class of `residues`, or None."""
    by_class = {}
    for i, c in enumerate(residues):
        members = by_class.setdefault(c, [])
        members.append(i)
        if len(members) == k:
            return members
    return None


# ---------------------------------------------------------------------------
# JSON-friendly serialization: {status, rules: [{id, citation, params}],
# certificate}
# ---------------------------------------------------------------------------


def verdict_to_dict(verdict: Verdict) -> dict:
    cert = verdict.certificate
    return {
        "status": verdict.status,
        "rules": [
            {"id": e.rule, "citation": e.statement, "params": e.params}
            for e in verdict.trace
        ],
        "certificate": None if cert is None else certificate_to_dict(cert),
    }


def verdict_from_dict(data: dict) -> Verdict:
    """The verdict `verdict_to_dict` wrote; anything else raises ValueError.
    Only the shape (a status, rules with an id and a citation) is read here:
    `RuleApplication`, `Verdict` and the certificates check their fields."""
    try:
        status, raw = data["status"], data.get("certificate")
        trace = tuple(
            RuleApplication(e["id"], e["citation"], e.get("params", {}))
            for e in data["rules"]
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed verdict: {exc!r}") from None
    return Verdict(status, trace, None if raw is None else certificate_from_dict(raw))
