import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdense.errors import BudgetExceeded
from qdense.forms import (
    DiagonalForm,
    _zeros_mod_p,
    find_nonsingular_zero_mod_p,
    is_anisotropic_mod_p,
    normalize_binary,
    valuation_profile,
)

# ---------------------------------------------------------------------------
# evaluation and validation
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    f = DiagonalForm(3, (1, 2))
    assert f.evaluate((1, 1)) == 3
    assert f.evaluate((0, 0)) == 0
    assert DiagonalForm(3, (5, 1)).evaluate((1, 2)) == 13


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError, match="form has 2 variables, point has 3"):
        DiagonalForm(3, (1, 2)).evaluate((1, 2, 3))


def test_invalid_forms_rejected():
    with pytest.raises(ValueError):
        DiagonalForm(3, (0, 1))
    with pytest.raises(ValueError):
        DiagonalForm(1, (1, 2))
    with pytest.raises(ValueError):
        DiagonalForm(3, ())
    # Non-integers are rejected, not truncated (1.5 used to become 1), and
    # so are bools (True used to become the coefficient 1).
    # So are coefficients that are not a sequence.
    for n, coeffs in [(3, (1.5, 1)), (3, ("2", 1)), (3.0, (1, 1)),
                      (3, (True, 2)), (True, (1, 2)), (3, 5)]:
        with pytest.raises(ValueError):
            DiagonalForm(n, coeffs)


def test_evaluate_rejects_non_integer_points():
    form = DiagonalForm(3, (1, 1))
    assert form.evaluate((2, -1)) == 7
    # 1.5 used to become 1 and "2" used to become 2; 5 is not a sequence.
    for point in [(1.5, 0), ("2", 0), (0, 2.0), (True, 0), 5]:
        with pytest.raises(ValueError):
            form.evaluate(point)


# ---------------------------------------------------------------------------
# binary normalization
# ---------------------------------------------------------------------------


def test_normalize_binary_examples():
    delta, la, lb = normalize_binary(DiagonalForm(3, (1, 2)), 7)
    assert (delta, la, lb) == (0, 1, 2)

    delta, la, lb = normalize_binary(DiagonalForm(3, (5, 1)), 5)
    assert (delta, la, lb) == (1, 1, 1)

    delta, la, lb = normalize_binary(DiagonalForm(3, (125, 1)), 5)
    assert (delta, delta % 3, la, lb) == (3, 0, 1, 1)


def test_normalize_binary_needs_a_binary_form():
    with pytest.raises(ValueError, match="needs a binary form"):
        normalize_binary(DiagonalForm(3, (1, 1, 1)), 7)


def test_normalize_keeps_signs_on_units():
    delta, la, lb = normalize_binary(DiagonalForm(4, (-8, 6)), 2)
    assert (la, lb) == (-1, 3)
    assert delta == 2


# ---------------------------------------------------------------------------
# anisotropy
# ---------------------------------------------------------------------------


def test_anisotropy_examples():
    assert is_anisotropic_mod_p(DiagonalForm(2, (1, 1)), 3) == (True, None)
    assert is_anisotropic_mod_p(DiagonalForm(2, (1, -1)), 3) == (False, (1, 1))
    aniso, witness = is_anisotropic_mod_p(DiagonalForm(3, (1, 1, 1)), 7)
    assert not aniso and witness == (0, 1, 3)
    assert (0 + 1 + 27) % 7 == 0


@pytest.mark.parametrize(
    "n, coeffs, p, count",
    [(3, (1, 1, 1), 7, 57), (2, (1, 1, 1), 2, 7), (2, (1,), 5, 1), (2, (1, 1), 13, 14)],
)
def test_anisotropy_charges_its_vectors_at_the_budget_boundary(n, coeffs, p, count):
    # (p^r - 1)/(p - 1) vectors: a budget of exactly that many suffices.
    form = DiagonalForm(n, coeffs)
    assert is_anisotropic_mod_p(form, p, budget=count) == is_anisotropic_mod_p(form, p)
    with pytest.raises(BudgetExceeded):
        is_anisotropic_mod_p(form, p, budget=count - 1)


def test_anisotropy_budget_checked_before_building_p_to_the_r():
    # p^300000 at p = 2^61 - 1 takes seconds to build; p^(r-1) alone already
    # exceeds the budget.
    form = DiagonalForm(2, (1,) * 300_000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        is_anisotropic_mod_p(form, 2**61 - 1, budget=1000)
    assert time.perf_counter() - start < 1


def test_anisotropy_witness_is_projective_representative():
    # first nonzero coordinate of any reported witness is 1
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        r = rng.randint(1, 3)
        n = rng.choice([2, 3, 4])
        coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r))
        aniso, witness = is_anisotropic_mod_p(DiagonalForm(n, coeffs), p)
        if witness is not None:
            lead = next(x for x in witness if x)
            assert lead == 1
            value = sum(a * x**n for a, x in zip(coeffs, witness))
            assert value % p == 0


def test_anisotropy_vs_full_enumeration():
    rng = random.Random(50)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 3)
        n = rng.choice([2, 3, 4])
        coeffs = tuple(rng.choice([-2, -1, 1, 2, 5]) for _ in range(r))
        aniso, _ = is_anisotropic_mod_p(DiagonalForm(n, coeffs), p)
        brute = not any(
            sum(a * x**n for a, x in zip(coeffs, vec)) % p == 0
            for vec in itertools.product(range(p), repeat=r)
            if any(vec)
        )
        assert aniso == brute


def test_anisotropic_implies_unit_coefficients():
    rng = random.Random(51)
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        r = rng.randint(2, 3)
        n = rng.choice([2, 4])
        coeffs = tuple(rng.randint(1, 30) for _ in range(r))
        aniso, _ = is_anisotropic_mod_p(DiagonalForm(n, coeffs), p)
        if aniso:
            assert all(a % p for a in coeffs)


def _least_zero(coeffs, n, p, nonsingular=False):
    """Brute force: the lexicographically least nonzero zero mod p, or None."""
    for vec in itertools.product(range(p), repeat=len(coeffs)):
        if not any(vec) or sum(a * x**n for a, x in zip(coeffs, vec)) % p:
            continue
        partials = [n * a * x ** (n - 1) % p for a, x in zip(coeffs, vec)]
        if not nonsingular or any(partials):
            return vec
    return None


small_primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def forms_mod_p(draw, r=st.integers(1, 4), n=st.integers(2, 8), primes=small_primes):
    """(form, p) with coefficients a*p^k, k <= 2, so p divides some of them."""
    p, r, n = draw(primes), draw(r), draw(n)
    units = st.integers(-30, 30).filter(bool)
    coeffs = [draw(units) * p ** draw(st.integers(0, 2)) for _ in range(r)]
    return DiagonalForm(n, coeffs), p


@given(forms_mod_p())
def test_anisotropy_witness_is_least_zero(case):
    form, p = case
    least = _least_zero(form.coeffs, form.n, p)
    assert is_anisotropic_mod_p(form, p) == (least is None, least)


ternary_cubics = forms_mod_p(
    r=st.just(3), n=st.just(3), primes=st.sampled_from([2, 3, 5, 7, 13])
)


@given(ternary_cubics)
def test_nonsingular_zero_is_least(case):
    form, p = case
    least = _least_zero(form.coeffs, 3, p, nonsingular=True)
    if least is None:
        with pytest.raises(ValueError, match="no non-singular zero"):
            find_nonsingular_zero_mod_p(form, p)
    else:
        assert find_nonsingular_zero_mod_p(form, p) == least


def _reference_zeros(form, p):
    """The F_p zero walk as one loop per vector: build the vector, then sum
    its r terms from a power table."""
    residues = [a % p for a in form.coeffs]
    pow_table = [pow(x, form.n, p) for x in range(p)]
    for lead in reversed(range(form.r)):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=form.r - 1 - lead):
            vec = prefix + tail
            if sum(a * pow_table[x] for a, x in zip(residues, vec)) % p == 0:
                yield vec


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@settings(deadline=None)
@given(forms_mod_p(n=st.integers(2, 16), primes=st.sampled_from(PRIMES_TO_31)))
def test_zero_walk_matches_the_per_vector_reference(case):
    # Same vectors in the same order, so every caller's witness is unchanged.
    form, p = case
    assert list(_zeros_mod_p(form, p)) == list(_reference_zeros(form, p))


@given(st.sampled_from([p for p in PRIMES_TO_31 if p != 3]),
       st.lists(st.integers(1, 60), min_size=3, max_size=3))
def test_nonsingular_zero_matches_the_reference_walk(p, coeffs):
    # A unit ternary cubic at p != 3 always has a non-singular zero.
    form = DiagonalForm(3, [a if a % p else a + 1 for a in coeffs])
    expected = next(
        vec for vec in _reference_zeros(form, p)
        if any(3 * a * x * x % p for a, x in zip(form.coeffs, vec))
    )
    assert find_nonsingular_zero_mod_p(form, p) == expected


# ---------------------------------------------------------------------------
# non-singular zeros of ternary cubics
# ---------------------------------------------------------------------------


def test_nonsingular_zero_examples():
    f = DiagonalForm(3, (1, 1, 1))
    assert find_nonsingular_zero_mod_p(f, 7) == (0, 1, 3)
    assert find_nonsingular_zero_mod_p(f, 2) == (0, 1, 1)
    vec = find_nonsingular_zero_mod_p(DiagonalForm(3, (1, 2, 3)), 5)
    assert vec == (0, 1, 1)


def _check_nonsingular(form, p, vec):
    assert any(vec)
    assert form.evaluate(vec) % p == 0
    assert any(3 * a * x * x % p for a, x in zip(form.coeffs, vec))


def test_nonsingular_zero_random_slice():
    rng = random.Random(2024)
    primes = [2, 5, 7, 11, 13]
    for _ in range(60):
        p = rng.choice(primes)
        coeffs = []
        while len(coeffs) < 3:
            c = rng.randint(-40, 40)
            if c and c % p:
                coeffs.append(c)
        form = DiagonalForm(3, tuple(coeffs))
        vec = find_nonsingular_zero_mod_p(form, p)
        _check_nonsingular(form, p, vec)


def test_nonsingular_zero_charges_p_squared_at_the_budget_boundary():
    f = DiagonalForm(3, (1, 1, 1))
    assert find_nonsingular_zero_mod_p(f, 7, budget=49) == (0, 1, 3)
    with pytest.raises(BudgetExceeded, match="over 7\\^2 pairs exceeds budget 48"):
        find_nonsingular_zero_mod_p(f, 7, budget=48)


def test_nonsingular_zero_requires_ternary_cubic():
    with pytest.raises(ValueError, match="defined for ternary cubics"):
        find_nonsingular_zero_mod_p(DiagonalForm(3, (1, 1)), 7)
    with pytest.raises(ValueError, match="defined for ternary cubics"):
        find_nonsingular_zero_mod_p(DiagonalForm(4, (1, 1, 1)), 7)


def test_nonsingular_zero_absent_outside_preconditions():
    # p = 3 divides every coefficient, so every partial derivative vanishes.
    with pytest.raises(ValueError, match="no non-singular zero"):
        find_nonsingular_zero_mod_p(DiagonalForm(3, (3, 3, 3)), 3)


# ---------------------------------------------------------------------------
# valuation profiles
# ---------------------------------------------------------------------------


def test_valuation_profile_examples():
    prof = valuation_profile(DiagonalForm(5, (1, 7, 49)), 7)
    assert prof.residues == (0, 1, 2)
    assert prof.pairwise_distinct
    assert set(prof.residues) == {0, 1, 2}

    prof = valuation_profile(DiagonalForm(3, (1, 8)), 2)
    assert prof.residues == (0, 0)  # v_2(8) = 3 = 0 mod 3
    assert not prof.pairwise_distinct
    assert len(set(prof.residues)) < len(prof.residues)

    prof = valuation_profile(DiagonalForm(6, (1, 5, 25)), 5)
    assert prof.residues == (0, 1, 2)
    assert set(prof.residues) == {0, 1, 2}


def test_valuation_profile_unit_parts():
    prof = valuation_profile(DiagonalForm(3, (-24, 10)), 2)
    assert prof.valuations == (3, 1)
    assert prof.unit_parts == (-3, 5)
    assert all(u % 2 for u in prof.unit_parts)


def test_profile_predicts_observed_valuations():
    rng = random.Random(9)
    checked = 0
    while checked < 40:
        p = rng.choice([2, 3, 5])
        n = rng.choice([3, 4, 5])
        r = rng.randint(2, 3)
        coeffs = tuple(
            rng.choice([-3, -1, 1, 2]) * p ** rng.randint(0, 3) for _ in range(r)
        )
        form = DiagonalForm(n, coeffs)
        prof = valuation_profile(form, p)
        if not prof.pairwise_distinct:
            continue
        for vec in itertools.product(range(-4, 5), repeat=r):
            value = form.evaluate(vec)
            if value == 0:
                continue
            v = 0
            while value % p == 0:
                value //= p
                v += 1
            assert v % n in set(prof.residues)
        checked += 1
