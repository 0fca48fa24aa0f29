import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdense.denseness import (
    DENSE,
    INCONCLUSIVE,
    NOT_DENSE,
    ResidueGap,
    ValuationGap,
    decide,
    decide_binary,
    difference_cover_check,
    verdict_from_dict,
    verdict_to_dict,
)
from qdense.errors import DEFAULT_BUDGET, BudgetExceeded
from qdense.forms import DiagonalForm, valuation_profile
from qdense.residues import is_nth_power_residue

# ---------------------------------------------------------------------------
# difference covers
# ---------------------------------------------------------------------------


def test_difference_cover_examples():
    assert difference_cover_check({0, 1, 3}, 6) == (True, [])
    assert difference_cover_check({0, 2}, 5) == (False, [1, 4])
    assert difference_cover_check({0}, 4) == (False, [1, 2, 3])


# ---------------------------------------------------------------------------
# decide_binary: frozen instances
# ---------------------------------------------------------------------------


def test_binary_sum_of_cubes_dense_mod7():
    v = decide_binary(DiagonalForm(3, (1, 1)), 7)
    assert v.status == DENSE  # -1 = 6 is a cube mod 7


def test_binary_cube_with_noncube_ratio_mod7():
    v = decide_binary(DiagonalForm(3, (1, 2)), 7)
    assert v.status == NOT_DENSE
    # No cancellation is possible (-2 = 5 is not a cube mod 7), so value
    # valuations stay in 3Z and quotient valuations miss 1 and 2 mod 3.
    assert v.certificate == ValuationGap(p=7, n=3, forbidden=frozenset({1, 2}))


def test_binary_quartic_sum_not_dense_mod2():
    v = decide_binary(DiagonalForm(4, (1, 1)), 2)
    assert v.status == NOT_DENSE
    # -1 = 15 is not a fourth power mod 16; cancellation depth is
    # v_2(1-15) = 1, so quotient valuations cover only {0,1,3} mod 4.
    assert v.certificate == ValuationGap(p=2, n=4, forbidden=frozenset({2}))


def test_binary_valuation_offset_not_dense_for_n_at_least_4():
    v = decide_binary(DiagonalForm(5, (5, 1)), 5)
    assert v.status == NOT_DENSE
    assert v.certificate == ValuationGap(p=5, n=5, forbidden=frozenset({2, 3}))


def test_binary_residue_gap_for_cubics_at_1_mod_3_primes():
    # 7x^3 + y^3 over Q_7: all valuation classes are attained, but every
    # valuation-zero quotient is a cube times 1 + 7Z_7.
    v = decide_binary(DiagonalForm(3, (7, 1)), 7)
    assert v.status == NOT_DENSE
    assert v.certificate == ResidueGap(p=7, n=3, unit_class=2, modulus_exponent=1)
    assert not is_nth_power_residue(2, 3, 7, 1)


def test_binary_shifted_cubics_dense_when_every_unit_is_a_cube():
    # gcd(3, p(p-1)) = 1: every unit is a cube in Z_p, so distinct
    # valuation classes with r = 2 > 3/2 make the quotient set dense
    # regardless of the coefficient p-power offset.
    for coeffs, p in [((5, 1), 5), ((2, 1), 2), ((11, 3), 11)]:
        v = decide_binary(DiagonalForm(3, coeffs), p)
        assert v.status == DENSE, (coeffs, p)


def test_binary_cubics_over_Q3_all_dense():
    # Exhaustive over small coefficients: every binary cubic form has a
    # dense quotient set in the 3-adics.  Exact ratio witness for the
    # deep-cancellation case: with F = x^3 - 4y^3,
    # F(-192, -88) / F(-200, -120) = -4352000 / -1088000 = 4 exactly,
    # although 4 is not a cube in Z_3.
    f = DiagonalForm(3, (1, -4))
    assert f.evaluate((-192, -88)) == 4 * f.evaluate((-200, -120))
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a == 0 or b == 0:
                continue
            assert decide_binary(DiagonalForm(3, (a, b)), 3).status == DENSE


def test_binary_never_inconclusive():
    rng = random.Random(8)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        n = rng.choice([3, 4, 5, 6])
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        if a == 0 or b == 0:
            continue
        v = decide_binary(DiagonalForm(n, (a, b)), p)
        assert v.status in (DENSE, NOT_DENSE)


def test_binary_offsets_respect_the_budget():
    # M = 1 (p does not divide n): the non-residue m0 is no cancellation
    # target mod p, so the offsets are {0} without enumerating p units.
    v = decide(DiagonalForm(3, (1, 2)), 1000003, budget=1)
    assert v.status == NOT_DENSE
    assert v.trace[-1].params["offsets"] == [0]
    # M = 3 for n = 9 at p = 3: the offsets enumerate the units mod 3^3.
    form = DiagonalForm(9, (1, 2))
    with pytest.raises(BudgetExceeded):
        decide(form, 3, budget=26)
    assert decide(form, 3, budget=27).status == NOT_DENSE


def test_binary_rejects_quadratics():
    with pytest.raises(ValueError, match="require degree n >= 3"):
        decide_binary(DiagonalForm(2, (1, 1)), 3)


def test_binary_scaling_and_swap_invariance():
    rng = random.Random(12)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.choice([3, 4, 5, 6])
        a = rng.randint(-15, 15)
        b = rng.randint(-15, 15)
        if a == 0 or b == 0:
            continue
        base = decide_binary(DiagonalForm(n, (a, b)), p)
        for c in (2, -1, p, 3 * p):
            scaled = decide_binary(DiagonalForm(n, (c * a, c * b)), p)
            assert scaled.status == base.status
            assert scaled.certificate == base.certificate
        swapped = decide_binary(DiagonalForm(n, (b, a)), p)
        assert swapped.status == base.status
        assert swapped.certificate == base.certificate


# ---------------------------------------------------------------------------
# decide: general forms
# ---------------------------------------------------------------------------


def test_decide_r2_distinct_cover():
    v = decide(DiagonalForm(5, (1, 7, 49)), 7)
    assert v.status == DENSE
    assert v.rules_fired == ("R2",)


def test_decide_r2_distinct_gap():
    v = decide(DiagonalForm(7, (1, 2, 4)), 2)
    assert v.status == NOT_DENSE
    assert v.certificate == ValuationGap(p=2, n=7, forbidden=frozenset({3, 4}))


def test_decide_sum_of_three_cubes_mod5():
    # gcd(3, 5*4) = 1 and all three valuations agree, so the matching-pair
    # rule fires before the ternary-cubic rule.
    v = decide(DiagonalForm(3, (1, 1, 1)), 5)
    assert v.status == DENSE
    assert v.rules_fired[0] == "R2"


def test_decide_ternary_cubic_rule_fires_mod7():
    # p = 7 = 1 mod 3 blocks R2; three unit coefficients trigger the
    # non-singular-zero route.
    v = decide(DiagonalForm(3, (1, 1, 1)), 7)
    assert v.status == DENSE
    assert "R3" in v.rules_fired
    zero = v.trace[-1].params["nonsingular_zero"]
    assert sum(a * x**3 for a, x in zip((1, 1, 1), zero)) % 7 == 0


def test_decide_anisotropic_quadratic():
    v = decide(DiagonalForm(2, (1, 1)), 3)
    assert v.status == NOT_DENSE
    assert v.rules_fired == ("R4",)
    assert v.certificate == ValuationGap(p=3, n=2, forbidden=frozenset({1}))


def test_decide_threshold_form_n6():
    # x^6 + 5y^6 + 25z^6 over Q_5: distinct classes {0,1,2} mod 6 whose
    # differences cover {0,1,2,4,5}, missing exactly 3.  The gap rule does
    # not need gcd(6, p(p-1)) = 1 (which no prime satisfies for even n).
    v = decide(DiagonalForm(6, (1, 5, 25)), 5)
    assert v.status == NOT_DENSE
    assert v.rules_fired == ("R2",)
    assert v.certificate == ValuationGap(p=5, n=6, forbidden=frozenset({3}))


def test_decide_subform_closure_mod3():
    # p = 3 skips R2 (gcd = 3) and R3 (p = 3); the pair (1, 1) is a dense
    # binary subform, so R5 concludes.
    v = decide(DiagonalForm(3, (1, 1, 1)), 3)
    assert v.status == DENSE
    assert v.rules_fired[0] == "R5"


def test_decide_isotropic_quadratic_inconclusive():
    v = decide(DiagonalForm(2, (1, -1)), 5)
    assert v.status == INCONCLUSIVE
    assert v.rules_fired == ("R6",)
    assert v.trace[-1].params == {}


def test_decide_anisotropy_on_the_unit_part_form():
    # Scaling and x_i -> p^t x_i preserve the quotient set, so these forms
    # take the verdict of x^2 at p = 3 and x^4 + y^4 + z^4 at p = 5.
    for coeffs, n, p, units in [
        ((4,), 2, 3, [4]),
        ((5, 5, 5), 4, 5, [1, 1, 1]),
        ((1, 1, 625), 4, 5, [1, 1, 1]),
    ]:
        v = decide(DiagonalForm(n, coeffs), p)
        assert v.status == NOT_DENSE, coeffs
        assert v.rules_fired == ("R4",)
        assert v.trace[0].params["unit_coeffs"] == units
        assert v.certificate == ValuationGap(
            p=p, n=n, forbidden=frozenset(range(1, n))
        )


def test_decide_rejects_negative_budget():
    with pytest.raises(ValueError):
        decide(DiagonalForm(2, (1, -1)), 5, budget=-1)


def test_decide_single_variable_not_dense():
    v = decide(DiagonalForm(4, (3,)), 5)
    assert v.status == NOT_DENSE
    assert v.certificate == ValuationGap(p=5, n=4, forbidden=frozenset({1, 2, 3}))


def test_decide_permutation_invariance():
    rng = random.Random(71)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([3, 4, 5])
        r = rng.randint(3, 4)
        coeffs = [rng.choice([-9, -5, -2, -1, 1, 2, 5, 9]) * p ** rng.randint(0, 2)
                  for _ in range(r)]
        base = decide(DiagonalForm(n, tuple(coeffs)), p)
        shuffled = coeffs[:]
        rng.shuffle(shuffled)
        other = decide(DiagonalForm(n, tuple(shuffled)), p)
        assert other.status == base.status


def test_r5_skips_over_budget_subform_in_every_order():
    # At n = 3^14, p = 3 the binary subform (1, 2) exceeds the budget while
    # (1, 1) decides Dense, so the verdict must not depend on which pair
    # R5 reaches first.
    n = 3**14
    with pytest.raises(BudgetExceeded):
        decide_binary(DiagonalForm(n, (1, 2)), 3)
    for coeffs in sorted(set(itertools.permutations((1, 2, 1)))):
        verdict = decide(DiagonalForm(n, coeffs), 3)
        assert verdict.status == DENSE
        assert verdict.deciding_rule == "R5"
        for entry in verdict.trace:
            if "skipped" in entry.statement:
                assert sorted(coeffs[i] for i in entry.params["indices"]) == [1, 2]
        assert verdict_from_dict(verdict_to_dict(verdict)) == verdict


def test_r3_skips_over_budget_zero_search():
    # The 1009^2 search pairs exceed the budget, so R3 records a skip; R4's
    # enumeration is skipped too, and R5 still finds the Dense subform (1, 1),
    # whose unit ratio -1 is a cube and needs no enumeration.
    verdict = decide(DiagonalForm(3, (1, 1, 1)), 1009, budget=1000)
    assert verdict.status == DENSE
    assert verdict.deciding_rule == "R5"
    skip = verdict.trace[0]
    assert (skip.rule, skip.params) == ("R3", {"indices": [0, 1, 2]})
    assert "skipped" in skip.statement
    assert verdict_from_dict(verdict_to_dict(verdict)) == verdict


def test_r5_charges_its_pairs_at_the_budget_boundary():
    # R3 (7^2 pairs) and R4 ((7^4 - 1)/6 vectors) are skipped at these
    # budgets; the r(r-1)/2 = 6 pairs fit exactly at 6, and (1, 1) is Dense
    # with no enumeration.
    form = DiagonalForm(3, (1, 1, 1, 1))
    assert decide(form, 7, budget=6).deciding_rule == "R5"
    verdict = decide(form, 7, budget=5)
    assert verdict.status == INCONCLUSIVE
    assert verdict.trace[-2] == (
        "R5",
        "subform search skipped: its r(r-1)/2 pairs exceed the budget",
        {"pairs": 6},
    )
    assert verdict_from_dict(verdict_to_dict(verdict)) == verdict


@st.composite
def _r5_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(3, 12))
    r = draw(st.integers(3, 5))
    coeffs = tuple(
        draw(st.integers(1, 30) | st.integers(-30, -1)) * p ** draw(st.integers(0, 2))
        for _ in range(r)
    )
    budget = draw(st.sampled_from([0, 1, 4, 10, 30, 100, 1_000, DEFAULT_BUDGET]))
    return n, p, coeffs, budget


@settings(max_examples=300, deadline=None)
@given(_r5_case())
def test_r5_agrees_with_decide_binary_on_every_subform(case):
    # R5 by definition: when the r(r-1)/2 pairs exceed the budget, record
    # one skip and try none; otherwise walk the pairs in lexicographic
    # order, record a skip for each pair whose decide_binary exceeds the
    # budget, and cite the first Dense one with its R1 trace; R6 means no
    # pair is Dense.
    n, p, coeffs, budget = case
    form = DiagonalForm(n, coeffs)
    verdict = decide(form, p, budget)
    if verdict.deciding_rule not in ("R5", "R6"):
        return
    pairs = form.r * (form.r - 1) // 2
    if pairs > budget:
        assert verdict.status == INCONCLUSIVE
        r5 = [e for e in verdict.trace if e.rule == "R5"]
        assert [(e.statement, e.params) for e in r5] == [
            (
                "subform search skipped: its r(r-1)/2 pairs exceed the budget",
                {"pairs": pairs},
            )
        ]
        return
    skipped, dense = [], None
    for pair in itertools.combinations(range(form.r), 2):
        try:
            sub = decide_binary(DiagonalForm(n, [coeffs[i] for i in pair]), p, budget)
        except BudgetExceeded:
            skipped.append(list(pair))
            continue
        if sub.status == DENSE:
            dense = list(pair), sub
            break
    r5 = [e for e in verdict.trace if e.rule == "R5"]
    assert [e.params["indices"] for e in r5 if "skipped" in e.statement] == skipped
    if dense is None:
        assert verdict.status == INCONCLUSIVE
        assert len(r5) == len(skipped)
        return
    assert verdict.status == DENSE
    cited = r5[-1]
    assert cited.params == {
        "indices": dense[0],
        "subform_coeffs": [coeffs[i] for i in dense[0]],
    }
    assert verdict.trace[verdict.trace.index(cited) + 1 :] == dense[1].trace


def test_decide_scaling_invariance():
    rng = random.Random(72)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([3, 4, 5])
        r = rng.randint(1, 4)
        coeffs = tuple(
            rng.choice([-9, -5, -2, -1, 1, 2, 5, 9]) * p ** rng.randint(0, 2)
            for _ in range(r)
        )
        base = decide(DiagonalForm(n, coeffs), p)
        for c in (2, -3, p):
            scaled = decide(DiagonalForm(n, tuple(c * a for a in coeffs)), p)
            assert scaled.status == base.status
        # substituting x_i -> p^t x_i means multiplying a_i by p^(n t)
        i = rng.randrange(r)
        substituted = list(coeffs)
        substituted[i] *= p**n
        assert decide(DiagonalForm(n, tuple(substituted)), p).status == base.status


@st.composite
def _rescaled_pair(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(2, 12))
    coeffs = draw(
        st.lists(st.integers(1, 30) | st.integers(-30, -1), min_size=1, max_size=4)
    )
    c = draw(st.integers(1, 50) | st.integers(-50, -1))
    shifts = draw(
        st.lists(st.integers(0, 2), min_size=len(coeffs), max_size=len(coeffs))
    )
    units = draw(
        st.lists(
            st.integers(2, 9).filter(lambda w: w % p),
            min_size=len(coeffs),
            max_size=len(coeffs),
        )
    )
    order = draw(st.permutations(range(len(coeffs))))
    other = [c * coeffs[i] * units[i] ** n * p ** (n * shifts[i]) for i in order]
    return n, p, tuple(coeffs), tuple(other)


@settings(max_examples=150, deadline=None)
@given(_rescaled_pair())
def test_decide_invariant_under_quotient_preserving_maps(case):
    # Scaling by c, permuting, a_i -> p^(n t) a_i (x_i -> p^t x_i) and
    # a_i -> w^n a_i for a unit w (x_i -> w x_i) all leave the quotient set
    # unchanged.  budget=10_000 changes no verdict:
    # at p <= 13, r <= 4, n <= 12 every rule's enumeration fits under it.
    n, p, coeffs, other = case
    base = decide(DiagonalForm(n, coeffs), p, budget=10_000)
    moved = decide(DiagonalForm(n, other), p, budget=10_000)
    assert (moved.status, moved.certificate) == (base.status, base.certificate)


def test_decide_complete_when_gcd_condition_holds():
    from math import gcd

    rng = random.Random(73)
    checked = 0
    while checked < 300:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        n = rng.choice([3, 5, 7, 9, 11])
        if gcd(n, p * (p - 1)) != 1:
            continue
        r = rng.randint(1, 4)
        coeffs = tuple(
            rng.choice([-9, -5, -1, 1, 3, 7]) * p ** rng.randint(0, 4)
            for _ in range(r)
        )
        v = decide(DiagonalForm(n, coeffs), p)
        assert v.status in (DENSE, NOT_DENSE), (n, coeffs, p)
        checked += 1


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_soundness_random():
    rng = random.Random(90)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.choice([3, 4, 5, 6])
        r = rng.randint(1, 3)
        coeffs = tuple(
            rng.choice([-7, -3, -1, 1, 2, 5]) * p ** rng.randint(0, 2)
            for _ in range(r)
        )
        form = DiagonalForm(n, coeffs)
        v = decide(form, p)
        if v.status != NOT_DENSE:
            continue
        cert = v.certificate
        if isinstance(cert, ValuationGap):
            assert cert.forbidden
            prof = valuation_profile(form, p)
            if prof.pairwise_distinct:
                diffs = {
                    (x - y) % n for x in prof.residues for y in prof.residues
                }
                assert not (cert.forbidden & diffs)
        else:
            assert isinstance(cert, ResidueGap)
            assert not is_nth_power_residue(
                cert.unit_class, n, p, cert.modulus_exponent
            )


def test_valuation_gap_requires_nonempty_forbidden_set():
    with pytest.raises(ValueError):
        ValuationGap(p=3, n=3, forbidden=frozenset())


def test_not_dense_requires_certificate():
    from qdense.denseness import RuleApplication, Verdict

    with pytest.raises(ValueError):
        Verdict(NOT_DENSE, (RuleApplication("R1", "x"),), None)
    with pytest.raises(ValueError):
        Verdict(DENSE, ())


def test_rule_params_are_never_shared():
    from qdense.denseness import RuleApplication

    first, second = RuleApplication("R6", "x"), RuleApplication("R6", "x")
    assert first.params == {} and first.params is not second.params
    first.params["k"] = 1
    assert second.params == {}


# ---------------------------------------------------------------------------
# threshold family (small slice; the full sweep is in acceptance)
# ---------------------------------------------------------------------------


def test_threshold_family_n5():
    # floor(5/2) = 2 variables: x^5 + 2y^5 over Q_2 misses valuation
    # classes {2, 3}; adding one variable with a fresh class tips to Dense.
    v = decide(DiagonalForm(5, (1, 2)), 2)
    assert v.status == NOT_DENSE
    assert 2 in v.certificate.forbidden
    v = decide(DiagonalForm(5, (1, 2, 4)), 2)
    assert v.status == DENSE


def test_remark_pattern_flag_for_n5():
    # exponents {0, 2} with t = floor(5/2): the verdict follows the cover
    # analysis, and the trace carries no boundary-family note.
    v = decide(DiagonalForm(5, (1, 4)), 2)
    assert v.status == NOT_DENSE
    assert not any("boundary-family" in e.statement for e in v.trace)
    # the analogous pattern for n = 7 covers and is dense
    v = decide(DiagonalForm(7, (1, 2, 8)), 2)
    assert v.status == DENSE


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_verdict_json_round_trip():
    import json

    rng = random.Random(55)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([2, 3, 4, 5])
        r = rng.randint(1, 3)
        coeffs = tuple(
            rng.choice([-5, -1, 1, 2, 3]) * p ** rng.randint(0, 2) for _ in range(r)
        )
        v = decide(DiagonalForm(n, coeffs), p)
        payload = json.dumps(verdict_to_dict(v))
        assert verdict_from_dict(json.loads(payload)) == v
