import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdense.denseness import ResidueGap, ValuationGap, decide
from qdense.errors import BudgetExceeded, ParameterMismatch
from qdense.forms import DiagonalForm
from qdense.oracle import (
    _quotient_map,
    check_certificate,
    coverage_trend,
    enumerate_values,
    quotient_coverage,
)
from qdense.padic import TruncatedPAdic, inverse_mod, split_power

# ---------------------------------------------------------------------------
# value enumeration
# ---------------------------------------------------------------------------


def test_enumerate_values_unit_classes_tiny_box():
    vals = enumerate_values(DiagonalForm(3, (1, 2)), 7, B=2, K=1)
    assert {u for (v, u) in vals.classes if v == 0} == {1, 2, 3, 4, 5, 6}


def test_enumerate_values_single_variable():
    vals = enumerate_values(DiagonalForm(3, (1,)), 5, B=5, K=1)
    assert vals.valuations == {0, 3}


def test_enumerate_values_skips_zero_and_respects_budget():
    vals = enumerate_values(DiagonalForm(3, (1, -1)), 5, B=3, K=1)
    assert all(
        vals.form.evaluate(w) != 0 for w in vals.classes.values()
    )
    with pytest.raises(BudgetExceeded):
        enumerate_values(DiagonalForm(3, (1, 1)), 7, B=10**8, K=1)


def test_witness_integrity():
    form = DiagonalForm(4, (3, -5))
    vals = enumerate_values(form, 3, B=6, K=2)
    for (v, u), point in vals.classes.items():
        value = form.evaluate(point)
        w = 0
        while value % 3 == 0:
            value //= 3
            w += 1
        assert (w, value % 9) == (v, u)


def test_hit_set_monotone_in_box():
    form = DiagonalForm(3, (1, 2))
    small = enumerate_values(form, 7, B=5, K=2)
    large = enumerate_values(form, 7, B=11, K=2)
    assert set(small.classes) <= set(large.classes)


def test_anisotropic_values_have_valuations_divisible_by_n():
    form = DiagonalForm(2, (1, 1))
    vals = enumerate_values(form, 3, B=20, K=1)
    assert all(v % 2 == 0 for v in vals.valuations)


# ---------------------------------------------------------------------------
# reference kernel: every box point, every class pair, witnesses stored
# ---------------------------------------------------------------------------


def _reference_classes(form, p, B, K):
    classes = {}
    for point in itertools.product(range(-B, B + 1), repeat=form.r):
        value = form.evaluate(point)
        if value:
            v, unit = split_power(value, p)
            classes.setdefault((v, unit % p**K), point)
    return classes


def _reference_hits(classes, p, K, V):
    pK = p**K
    hits = {}
    for (v1, u1), w1 in sorted(classes.items()):
        for (v2, u2), w2 in sorted(classes.items()):
            if abs(v1 - v2) <= V:
                key = (v1 - v2, u1 * inverse_mod(u2, pK) % pK)
                hits.setdefault(key, (w1, w2))
    return hits


@st.composite
def _oracle_case(draw):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    coeffs = tuple(
        draw(st.integers(1, 30)) * draw(st.sampled_from([-1, 1])) for _ in range(r)
    )
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    B = draw(st.integers(0, (6, 4, 2)[r - 1]))
    K = draw(st.integers(1, 3))
    V = draw(st.integers(0, n))
    return DiagonalForm(n, coeffs), p, B, K, V


@settings(max_examples=200, deadline=None)
@given(_oracle_case())
def test_kernel_matches_reference(case):
    form, p, B, K, V = case
    values = enumerate_values(form, p, B, K)
    classes = _reference_classes(form, p, B, K)
    assert values.classes == classes
    assert list(values.classes) == list(classes)  # same discovery order
    quotients = _quotient_map(values, V)
    hits = _reference_hits(classes, p, K, V)
    assert quotients.hits == set(hits)
    for key in quotients.hits:
        assert quotients.witness(key) == hits[key]


# ---------------------------------------------------------------------------
# quotient coverage
# ---------------------------------------------------------------------------


def test_full_coverage_for_dense_sum_of_cubes():
    report = quotient_coverage(DiagonalForm(3, (1, 1)), 7, B=20, K=1, V=3)
    assert all(f == 1.0 for f in report.coverage.values())
    assert report.overall_coverage() == 1.0


def test_partial_coverage_for_non_dense_form():
    report = quotient_coverage(DiagonalForm(3, (5, 1)), 5, B=20, K=1, V=3)
    # all three valuation residues are observed for this (dense) form
    assert report.quotient_valuation_residues == frozenset({0, 1, 2})


def test_threshold_form_misses_middle_class():
    report = quotient_coverage(DiagonalForm(6, (1, 5, 25)), 5, B=8, K=1, V=6)
    assert report.quotient_valuation_residues == frozenset({0, 1, 2, 4, 5})
    assert 3 not in report.quotient_valuation_residues


def test_quotient_class_arithmetic_matches_truncated_padics():
    rng = random.Random(14)
    form = DiagonalForm(3, (1, 2))
    vals = enumerate_values(form, 7, B=8, K=2)
    items = sorted(vals.classes)
    for _ in range(10_000):
        v1, u1 = items[rng.randrange(len(items))]
        v2, u2 = items[rng.randrange(len(items))]
        t = TruncatedPAdic(7, v1, u1, 2) / TruncatedPAdic(7, v2, u2, 2)
        assert (t.v, t.u) == (v1 - v2, u1 * inverse_mod(u2, 49) % 49)


def test_coverage_trend_monotone():
    trend = coverage_trend(DiagonalForm(3, (1, 1)), 7, K=2, V=2, boxes=[5, 10, 20, 40])
    fracs = [r.overall_coverage() for r in trend]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] >= 0.99


def test_coverage_trend_empty_boxes():
    assert coverage_trend(DiagonalForm(3, (1, 1)), 7, K=1, V=1, boxes=[]) == []


def test_coverage_trend_plateau_below_one_for_gap_form():
    trend = coverage_trend(DiagonalForm(3, (1, 2)), 7, K=2, V=2, boxes=[5, 10, 20, 40])
    fracs = [r.overall_coverage() for r in trend]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] < 1.0  # regression baseline: 0.2 at these parameters
    assert abs(fracs[-1] - 0.2) < 1e-9


# ---------------------------------------------------------------------------
# certificate checking
# ---------------------------------------------------------------------------


def test_check_valuation_gap_consistent():
    form = DiagonalForm(7, (1, 2, 4))
    report = quotient_coverage(form, 2, B=6, K=2, V=7)
    verdict = decide(form, 2)
    result = check_certificate(verdict.certificate, report)
    assert result.consistent


def test_check_fabricated_gap_contradicted():
    report = quotient_coverage(DiagonalForm(3, (1, 1)), 7, B=5, K=1, V=3)
    result = check_certificate(
        ValuationGap(p=7, n=3, forbidden=frozenset({0})), report
    )
    assert not result.consistent
    assert result.witness == ((-5, 0), (-5, 0))  # quotient 1 has valuation 0


def test_check_residue_gap_consistent():
    form = DiagonalForm(3, (7, 1))
    report = quotient_coverage(form, 7, B=30, K=2, V=3)
    verdict = decide(form, 7)
    assert isinstance(verdict.certificate, ResidueGap)
    result = check_certificate(verdict.certificate, report)
    assert result.consistent


def test_check_fabricated_residue_gap_contradicted():
    # x^3 + 2y^3 over Q_7 *does* hit unit class 5 at valuation zero
    # (F(0, 3)/F(1, 0) = 54), so a residue-gap claim for m = 5 is refuted.
    report = quotient_coverage(DiagonalForm(3, (1, 2)), 7, B=30, K=2, V=3)
    result = check_certificate(
        ResidueGap(p=7, n=3, unit_class=5, modulus_exponent=1), report
    )
    assert not result.consistent
    num, den = result.witness
    f = DiagonalForm(3, (1, 2))
    q_num, q_den = f.evaluate(num), f.evaluate(den)
    assert q_num % 7 != 0 and q_den % 7 != 0
    assert q_num * inverse_mod(q_den % 7, 7) % 7 == 5


def test_check_parameter_mismatch():
    report = quotient_coverage(DiagonalForm(3, (1, 1)), 7, B=5, K=1, V=3)
    with pytest.raises(ParameterMismatch):
        check_certificate(ValuationGap(p=5, n=3, forbidden=frozenset({1})), report)
    with pytest.raises(ParameterMismatch):
        check_certificate(
            ResidueGap(p=7, n=3, unit_class=5, modulus_exponent=2), report
        )  # needs unit precision 2, report has K=1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_report_json_and_csv():
    import json

    report = quotient_coverage(DiagonalForm(3, (1, 1)), 5, B=6, K=1, V=2)
    data = json.loads(report.to_json())
    assert data["p"] == 5 and data["coeffs"] == [1, 1]
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "valuation,1,2,3,4"
    assert len(lines) == 1 + 5  # header + levels -2..2
    for line in lines[1:]:
        cells = line.split(",")
        assert all(c in ("0", "1") for c in cells[1:])
