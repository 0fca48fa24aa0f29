"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Budgets and tolerances are pinned here; every check is exact.
"""

import itertools
import math
import random

from qdense.denseness import (
    DENSE,
    NOT_DENSE,
    ValuationGap,
    decide,
    decide_binary,
)
from qdense.forms import (
    DiagonalForm,
    find_nonsingular_zero_mod_p,
    is_anisotropic_mod_p,
)
from qdense.oracle import check_certificate, coverage_trend, enumerate_values, quotient_coverage
from qdense.residues import (
    is_nth_power_in_Zp,
    is_nth_power_residue,
    nth_power_residues,
    nth_root_in_Zp,
)

SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)
SWEEP_DEGREES = (3, 4, 5, 6)
COEFFS = tuple(c for c in range(-10, 11) if c)


def _report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. binary completeness sweep
# ---------------------------------------------------------------------------


def test_criterion_1_binary_completeness_sweep():
    decided = 0
    contradictions = 0
    checked_certificates = 0
    for p in SWEEP_PRIMES:
        for n in SWEEP_DEGREES:
            for a, b in itertools.product(COEFFS, repeat=2):
                form = DiagonalForm(n, (a, b))
                verdict = decide_binary(form, p)
                assert verdict.status in (DENSE, NOT_DENSE), (a, b, p, n)
                decided += 1
                for c in (2, 3, -5, p):
                    scaled = decide_binary(DiagonalForm(n, (c * a, c * b)), p)
                    assert scaled.status == verdict.status, (a, b, c, p, n)
                    assert scaled.certificate == verdict.certificate
                swapped = decide_binary(DiagonalForm(n, (b, a)), p)
                assert swapped.status == verdict.status
                assert swapped.certificate == verdict.certificate
                if verdict.status == NOT_DENSE:
                    report = quotient_coverage(form, p, B=40, K=2, V=n)
                    result = check_certificate(verdict.certificate, report)
                    checked_certificates += 1
                    if not result.consistent:
                        contradictions += 1
                        print("CONTRADICTION:", a, b, p, n, result.detail)
    assert contradictions == 0
    _report(
        1,
        f"{decided} binary forms decided (never Inconclusive), scaling/swap "
        f"invariant, {checked_certificates} NotDense certificates verified "
        f"against enumeration at B=40, zero contradictions",
    )


# ---------------------------------------------------------------------------
# 2. residue fast path vs brute force
# ---------------------------------------------------------------------------


def test_criterion_2_residue_fast_path_vs_brute_force():
    agreements = 0
    for p in SWEEP_PRIMES:
        M = 1
        while p**M <= 10**5:
            pM = p**M
            units = [u for u in range(1, pM) if u % p]
            for n in range(1, 13):
                members = nth_power_residues(n, p, M)
                for u in units:
                    assert is_nth_power_residue(u, n, p, M) == (u in members), (
                        u,
                        n,
                        p,
                        M,
                    )
                    agreements += 1
            M += 1
    _report(
        2,
        f"fast path agrees with brute-force membership on {agreements} "
        f"(u, n, p, M) cases: exact, 100%",
    )


# ---------------------------------------------------------------------------
# 3. power-residue stabilization ladder
# ---------------------------------------------------------------------------


def test_criterion_3_stabilization_ladder():
    checked = 0
    for p in (2, 3, 5):
        for k in (1, 2):
            pk = p**k
            e0 = k + (1 if p == 2 else 0) + 1
            e1 = e0 + 3
            low = nth_power_residues(pk, p, e0)
            high = nth_power_residues(pk, p, e1)
            for u in range(1, p**e1):
                if u % p == 0:
                    continue
                assert (u % p**e0 in low) == (u in high), (u, p, k)
                checked += 1
    _report(
        3,
        f"p^k-th power residue status identical at exponents k+v_p(2)+1 and "
        f"k+v_p(2)+4 for all {checked} units (p in 2,3,5; k in 1,2): exact",
    )


# ---------------------------------------------------------------------------
# 4. Newton-lift residuals at K = 50
# ---------------------------------------------------------------------------


def test_criterion_4_hensel_residuals():
    rng = random.Random(2026)
    K = 50
    lifted = 0
    while lifted < 500:
        p = rng.choice(SWEEP_PRIMES)
        n = rng.randint(2, 10)
        w = rng.randint(1, p**5)
        if w % p == 0:
            continue
        c = pow(w, n) * p ** (n * rng.randint(0, 2))
        assert is_nth_power_in_Zp(c, n, p)
        x = nth_root_in_Zp(c, n, p, K)
        assert pow(x, n, p**K) == c % p**K, (c, n, p)
        lifted += 1
    _report(4, f"{lifted} lifted roots satisfy x^n = c mod p^50 exactly")


# ---------------------------------------------------------------------------
# 5. non-singular zero search for ternary cubics
# ---------------------------------------------------------------------------


def test_criterion_5_nonsingular_zero_search():
    rng = random.Random(31415)
    primes = [q for q in range(2, 51) if q != 3 and _is_prime_small(q)]
    successes = 0
    for p in primes:
        for _ in range(200):
            coeffs = []
            while len(coeffs) < 3:
                c = rng.randint(-100, 100)
                if c and c % p:
                    coeffs.append(c)
            form = DiagonalForm(3, tuple(coeffs))
            vec = find_nonsingular_zero_mod_p(form, p)
            assert any(vec)
            assert form.evaluate(vec) % p == 0
            assert any(3 * a * x * x % p for a, x in zip(coeffs, vec))
            successes += 1
    _report(
        5,
        f"non-singular zero found and re-verified for {successes} random "
        f"ternary cubics across {len(primes)} primes p != 3 up to 50: 100%",
    )


def _is_prime_small(q):
    return q > 1 and all(q % d for d in range(2, int(q**0.5) + 1))


# ---------------------------------------------------------------------------
# 6. threshold law at r = floor(n/2) and floor(n/2) + 1
# ---------------------------------------------------------------------------


def test_criterion_6_threshold_law():
    from math import gcd

    rng = random.Random(64)
    for n in (5, 7, 9, 11):
        p = next(q for q in range(2, 100) if _is_prime_small(q) and gcd(n, q * (q - 1)) == 1)
        t = n // 2
        boundary = DiagonalForm(n, tuple(p**i for i in range(t)))
        verdict = decide(boundary, p)
        assert verdict.status == NOT_DENSE, (n, p)
        assert t in verdict.certificate.forbidden, (n, p, verdict.certificate)
        for _ in range(25):
            exponents = rng.sample(range(n), t + 1)
            coeffs = tuple(
                rng.choice([-7, -3, -1, 1, 3, 7, 9]) * p**e for e in exponents
            )
            dense_verdict = decide(DiagonalForm(n, coeffs), p)
            assert dense_verdict.status == DENSE, (n, p, coeffs)
    _report(
        6,
        "boundary form sum p^(i-1) x_i^n on floor(n/2) variables is NotDense "
        "with floor(n/2) in the forbidden residue set, and 25 random "
        "(floor(n/2)+1)-variable forms with pairwise-distinct classes are "
        "Dense, for n in {5,7,9,11}: exact",
    )


# ---------------------------------------------------------------------------
# 7. oracle corroboration of Dense binary verdicts
# ---------------------------------------------------------------------------


def _dense_sample(per_cell=3, total=50):
    sample = []
    for p in SWEEP_PRIMES:
        for n in SWEEP_DEGREES:
            found = 0
            for a, b in itertools.product(COEFFS, repeat=2):
                if decide_binary(DiagonalForm(n, (a, b)), p).status == DENSE:
                    sample.append((p, n, a, b))
                    found += 1
                    if found == per_cell:
                        break
    return sample[:total]


def test_criterion_7_oracle_corroboration():
    sample = _dense_sample()
    assert len(sample) == 50
    for p, n, a, b in sample:
        form = DiagonalForm(n, (a, b))
        trend = coverage_trend(form, p, K=1, V=n, boxes=[25, 50, 100])
        fracs = [r.overall_coverage() for r in trend]
        assert all(y >= x for x, y in zip(fracs, fracs[1:])), (p, n, a, b, fracs)
        per_level = [
            {v: r.coverage[v] for v in r.coverage} for r in trend
        ]
        for early, late in zip(per_level, per_level[1:]):
            assert all(late[v] >= early[v] for v in early)
        assert trend[-1].coverage[0] == 1.0, (p, n, a, b)
    # deeper-precision regression baselines (recorded, not gated at 1.0)
    baselines = {
        ((1, 1), 7, 3): 1.0,
        ((1, -2), 5, 3): 1.0,
        ((1, 1), 13, 4): 1.0,
    }
    for (coeffs, p, n), expected in baselines.items():
        rep = quotient_coverage(DiagonalForm(n, coeffs), p, B=100, K=2, V=n)
        assert rep.coverage[0] == expected
    _report(
        7,
        "50 Dense binary forms: unit-class coverage 1.0 at valuation 0 "
        "(B=100, K=1), per-level coverage nondecreasing over boxes "
        "[25, 50, 100]; K=2 regression baselines reproduced",
    )


# ---------------------------------------------------------------------------
# 8. anisotropy obstruction
# ---------------------------------------------------------------------------


def _random_anisotropic_forms(count, rng):
    pool = [
        (2, 3, 2),
        (2, 7, 2),
        (2, 11, 2),
        (2, 19, 2),
        (4, 5, 3),
        (4, 5, 4),
        (4, 13, 3),
        (6, 7, 3),
        (6, 7, 4),
        (6, 13, 3),
    ]
    found = []
    while len(found) < count:
        n, p, r = rng.choice(pool)
        coeffs = tuple(rng.choice(range(1, p)) for _ in range(r))
        form = DiagonalForm(n, coeffs)
        if math.gcd(*form.coeffs) != 1:
            continue
        aniso, _ = is_anisotropic_mod_p(form, p)
        if aniso:
            found.append((form, p))
    return found


def test_criterion_8_anisotropy_obstruction():
    rng = random.Random(1818)
    cases = [(DiagonalForm(2, (1, 1)), 3)]
    cases += _random_anisotropic_forms(20, rng)
    for form, p in cases:
        verdict = decide(form, p)
        assert verdict.status == NOT_DENSE, (form.coeffs, p)
        rules = tuple(e.rule for e in verdict.trace)
        assert rules == ("R4",), (form.coeffs, p, rules)
        assert verdict.certificate == ValuationGap(
            p=p, n=form.n, forbidden=frozenset(range(1, form.n))
        )
        B = {1: 40, 2: 20, 3: 8, 4: 5, 5: 4, 6: 3}[form.r]
        values = enumerate_values(form, p, B=B, K=1)
        assert all(v % form.n == 0 for v in values.valuations), (form.coeffs, p)
    _report(
        8,
        "x^2+y^2 at p=3 plus 20 random anisotropic primitive forms all "
        "decided NotDense via R4; enumerated value valuations all divisible "
        "by n: exact",
    )


# ---------------------------------------------------------------------------
# 9. known instance regressions
# ---------------------------------------------------------------------------


def test_criterion_9_known_instances():
    sum_of_cubes = DiagonalForm(3, (1, 1))
    for p in range(2, 51):
        if not _is_prime_small(p):
            continue
        assert decide_binary(sum_of_cubes, p).status == DENSE, p
    v = decide_binary(DiagonalForm(3, (1, 2)), 7)
    assert v.status == NOT_DENSE
    v = decide_binary(DiagonalForm(4, (1, 1)), 2)
    assert v.status == NOT_DENSE
    _report(
        9,
        "x^3+y^3 Dense for every prime p <= 50; x^3+2y^3 NotDense at p=7; "
        "x^4+y^4 NotDense at p=2: exact",
    )
