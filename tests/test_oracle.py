import csv
import io
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdense import oracle
from qdense.denseness import ResidueGap, ValuationGap, decide
from qdense.errors import BudgetExceeded
from qdense.forms import DiagonalForm
from qdense.oracle import (
    CheckResult,
    _quotient_map,
    _unit_coordinates,
    check_certificate,
    coverage_trend,
    enumerate_values,
    quotient_coverage,
)
from qdense.padic import inverse_mod, split_power, unit_residue, valuation

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
    assert all(vals.form.evaluate(vals.witness(k)) != 0 for k in vals.classes)
    with pytest.raises(KeyError):
        vals.witness((0, 0))
    with pytest.raises(BudgetExceeded):
        enumerate_values(DiagonalForm(3, (1, 1)), 7, B=10**8, K=1)


def test_enumerate_values_counts_residue_bitmask_against_budget():
    # The unit classes of a row are read from a p^K-bit mask, so a large
    # p^K fails closed even for a tiny box.
    with pytest.raises(BudgetExceeded):
        enumerate_values(DiagonalForm(3, (1, 1)), 2, B=1, K=40)


@pytest.mark.parametrize(
    "coeffs, p, B, K, V, count",
    [
        ((1, 2), 7, 2, 1, 0, 25),  # (2B + 1)^r box points
        ((1,), 7, 0, 2, 0, 49),  # the p^K-bit residue mask
        ((1, 2), 7, 1, 1, 3, 42),  # (2V + 1) levels x phi(p^K) units
    ],
)
def test_oracle_charges_at_the_budget_boundary(coeffs, p, B, K, V, count):
    form = DiagonalForm(3, coeffs)
    at_budget = quotient_coverage(form, p, B=B, K=K, V=V, budget=count)
    unbounded = quotient_coverage(form, p, B=B, K=K, V=V)
    assert at_budget.quotients.hits == unbounded.quotients.hits
    with pytest.raises(BudgetExceeded):
        quotient_coverage(form, p, B=B, K=K, V=V, budget=count - 1)


def test_budget_checked_before_building_the_box_size():
    # 2*10^18 + 1 to the power 300000 takes seconds to build; r alone
    # already exceeds the budget.
    form = DiagonalForm(3, (1,) * 300_000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        enumerate_values(form, 7, B=10**18, K=1, budget=1000)
    assert time.perf_counter() - start < 1


def test_budget_checked_before_building_p_to_the_K():
    # 13^(10^9) would take minutes to build; K alone already exceeds the budget.
    form = DiagonalForm(3, (1, 2))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        enumerate_values(form, 13, B=1, K=10**9)
    with pytest.raises(BudgetExceeded):
        quotient_coverage(form, 13, B=1, K=10**9, V=3)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "B, K, V, name",
    [(-1, 1, 3, "box bound B"), (2, 0, 3, "unit precision K"),
     (2, -1, 3, "unit precision K"), (2, 1, -2, "valuation window V")],
)
def test_bad_box_precision_or_window_raises_value_error(B, K, V, name):
    with pytest.raises(ValueError, match=name):
        quotient_coverage(DiagonalForm(3, (1, 2)), 7, B=B, K=K, V=V)


def test_witness_integrity():
    form = DiagonalForm(4, (3, -5))
    vals = enumerate_values(form, 3, B=6, K=2)
    for v, u in vals.classes:
        value = form.evaluate(vals.witness((v, u)))
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
def _oracle_case(draw, boxes):
    """A random (form, p, B, K, V); `boxes[r - 1]` bounds B for r variables."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    # p-power factors make p divide whole box rows.
    coeffs = tuple(
        draw(st.integers(1, 30))
        * draw(st.sampled_from([-1, 1]))
        * p ** draw(st.integers(0, 2))
        for _ in range(r)
    )
    B = draw(st.integers(*boxes[r - 1]))
    K = draw(st.integers(1, 4))  # at p = 2, K >= 3 the units are {+-1} x <5>
    V = draw(st.integers(0, n))
    return DiagonalForm(n, coeffs), p, B, K, V


def _compare_with_reference(form, p, B, K, V):
    """Check the value classes, every value witness and the hit set against
    the reference; return the quotient map and the reference hits."""
    values = enumerate_values(form, p, B, K)
    classes = _reference_classes(form, p, B, K)
    assert values.classes == classes.keys()
    for key, point in classes.items():
        assert values.witness(key) == point
    quotients = _quotient_map(values, V)
    hits = _reference_hits(classes, p, K, V)
    assert quotients.hits == set(hits)
    return quotients, hits


@settings(max_examples=200, deadline=None)
@given(_oracle_case([(0, 6), (0, 4), (0, 2)]))
@example((DiagonalForm(3, (1, 2)), 1009, 3, 2, 3))  # a 1009^2-bit residue mask
@example((DiagonalForm(5, (3,)), 2, 9, 3, 2))  # odd n: the one coordinate is folded
@example((DiagonalForm(4, (1, -3)), 3, 0, 2, 1))  # B = 0: the origin only
@example((DiagonalForm(3, (1, 2, 7)), 7, 2, 2, 3))  # odd n, a p-power coefficient
@example((DiagonalForm(4, (1, -3)), 2, 40, 2, 2))  # buckets split 3+ digits deep
@example((DiagonalForm(4, (2, -27)), 3, 12, 9, 4))  # 3^9, short tail: all exact
@example((DiagonalForm(3, (1, 6)), 2, 12, 4, 3))  # odd n reflected in {+-1} x <5>
def test_kernel_matches_reference(case):
    quotients, hits = _compare_with_reference(*case)
    for key in quotients.hits:
        assert quotients.witness(key) == hits[key]


@settings(max_examples=100, deadline=None)
@given(_oracle_case([(7, 20), (5, 12), (3, 3)]))
def test_kernel_matches_reference_on_wide_boxes(case):
    # Boxes wide enough that a row's residues wrap around mod p^K.
    quotients, hits = _compare_with_reference(*case)
    for key in quotients.hits:
        assert quotients.witness(key) == hits[key]


def _split_depths(monkeypatch, form, p, B, K):
    """The level of every bucket split while enumerating, root = 0."""
    depths, level = [], {}
    split = oracle._split

    def recording(bucket, p, pK):
        depth = level.get(id(bucket), 0)
        depths.append(depth)
        node = split(bucket, p, pK)
        for child in node[1].values():
            level[id(child)] = depth + 1
        return node

    monkeypatch.setattr(oracle, "_split", recording)
    enumerate_values(form, p, B, K)
    return depths


def test_bucket_walk_reaches_the_paths_the_examples_name(monkeypatch):
    # The kernel examples above exercise each path of the bucket walk.
    deep = _split_depths(monkeypatch, DiagonalForm(4, (1, -3)), 2, 40, 2)
    assert max(deep) >= 3
    # 13 monomials fit the exact-path limit 3^9 // 64 = 307: nothing splits.
    assert _split_depths(monkeypatch, DiagonalForm(4, (2, -27)), 3, 12, 9) == []
    assert _split_depths(monkeypatch, DiagonalForm(3, (1, 6)), 2, 12, 4)
    # One row (r = 1) shares no bucket, so every value takes the exact path.
    assert _split_depths(monkeypatch, DiagonalForm(3, (5,)), 2, 500, 2) == []


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_unit_coordinates_are_a_group_isomorphism(p, K):
    pK = p**K
    T, units, index = _unit_coordinates(p, K)
    assert sorted(units) == [u for u in range(1, pK) if u % p]
    assert all(index[units[i]] == i for i in range(len(units)))
    m = len(units) // T
    rng = random.Random(pK)
    for _ in range(300):
        u, w = rng.choice(units), rng.choice(units)
        (bu, au), (bw, aw) = divmod(index[u], T), divmod(index[w], T)
        assert index[u * w % pK] == (bu + bw) % m * T + (au + aw) % T


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
    # A class (v, u) stands for the rationals p^v * (u + p^K * t); the
    # quotient of two representatives, taken exactly, lands in the class
    # the kernel's formula names.
    rng = random.Random(14)
    form = DiagonalForm(3, (1, 2))
    vals = enumerate_values(form, 7, B=8, K=2)
    items = sorted(vals.classes)
    for _ in range(10_000):
        v1, u1 = items[rng.randrange(len(items))]
        v2, u2 = items[rng.randrange(len(items))]
        x = Fraction(7) ** v1 * (u1 + 49 * rng.randint(-50, 50))
        y = Fraction(7) ** v2 * (u2 + 49 * rng.randint(-50, 50))
        q = x / y
        assert valuation(q, 7) == v1 - v2
        assert unit_residue(q, 7, 2) == u1 * inverse_mod(u2, 49) % 49


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


def _reference_check(certificate, form, p, K, classes, hits):
    """check_certificate on the (v, u) key sets and stored witnesses."""
    n = form.n
    vals = {v for v, _ in classes}
    if isinstance(certificate, ValuationGap):
        bad = {(a - b) % n for a in vals for b in vals} & certificate.forbidden
        if not bad:
            return CheckResult(True, detail="no forbidden quotient valuation observed")
        residue = min(bad)
        in_window = [k for k in hits if k[0] % n == residue]
        if in_window:
            key = min(in_window)
            return CheckResult(
                False,
                witness=hits[key],
                detail=f"quotient valuation {key[0]} = {residue} mod {n} is forbidden",
            )
        detail = f"forbidden valuation residue {residue} observed outside window"
        return CheckResult(False, detail=detail)
    e = certificate.modulus_exponent
    target = certificate.unit_class % p**e
    matching = [k for k in hits if k[0] == 0 and k[1] % p**e == target]
    if matching:
        key = min(matching)
        detail = f"valuation-0 quotient with unit {key[1]} = {target} mod {p}^{e} observed"
        return CheckResult(False, witness=hits[key], detail=detail)
    return CheckResult(True, detail=f"no valuation-0 quotient hits {target} mod {p}^{e}")


@st.composite
def _certificate_case(draw):
    form, p, B, K, V = draw(_oracle_case([(0, 6), (0, 4), (0, 2)]))
    n = form.n
    if draw(st.booleans()):
        forbidden = draw(st.sets(st.integers(0, n - 1), min_size=1))
        certificate = ValuationGap(p=p, n=n, forbidden=frozenset(forbidden))
    else:
        e = draw(st.integers(1, K))
        unit = draw(st.integers(1, p**e - 1).filter(lambda u: u % p))
        certificate = ResidueGap(p=p, n=n, unit_class=unit, modulus_exponent=e)
    return (form, p, B, K, V), certificate


@settings(max_examples=150, deadline=None)
@given(_certificate_case())
@example(  # a refuted ResidueGap: F(0, 3) / F(1, 0) = 54 = 5 mod 7
    ((DiagonalForm(3, (1, 2)), 7, 4, 2, 3), ResidueGap(7, 3, 5, 1))
)
@example(  # a ValuationGap refuted only outside the window V = 0
    ((DiagonalForm(3, (1, 7)), 7, 3, 1, 0), ValuationGap(7, 3, frozenset({1})))
)
def test_check_certificate_matches_per_class_reference(case):
    (form, p, B, K, V), certificate = case
    classes = _reference_classes(form, p, B, K)
    hits = _reference_hits(classes, p, K, V)
    report = quotient_coverage(form, p, B, K, V)
    expected = _reference_check(certificate, form, p, K, classes, hits)
    assert check_certificate(certificate, report) == expected


@settings(max_examples=100, deadline=None)
@given(_oracle_case([(0, 6), (0, 4), (0, 2)]))
def test_report_matches_per_class_definitions(case):
    # coverage, missed and the CSV hit matrix as read off the (v, u) hit set.
    form, p, B, K, V = case
    hits = _reference_hits(_reference_classes(form, p, B, K), p, K, V)
    units = [u for u in range(1, p**K) if u % p]
    missed = {
        v: tuple(u for u in units if (v, u) not in hits) for v in range(-V, V + 1)
    }
    report = quotient_coverage(form, p, B, K, V)
    assert report.missed == missed
    assert report.coverage == {
        v: (len(units) - len(missed[v])) / len(units) for v in missed
    }
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["valuation"] + units)
    for v in range(-V, V + 1):
        writer.writerow([v] + [1 if (v, u) in hits else 0 for u in units])
    assert report.to_csv() == out.getvalue()


def test_check_parameter_mismatch():
    report = quotient_coverage(DiagonalForm(3, (1, 1)), 7, B=5, K=1, V=3)
    with pytest.raises(ValueError, match="disagree on"):
        check_certificate(ValuationGap(p=5, n=3, forbidden=frozenset({1})), report)
    with pytest.raises(ValueError, match="needs unit precision 2"):
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
