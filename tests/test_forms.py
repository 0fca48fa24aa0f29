import random
from fractions import Fraction

import pytest

from qdense.errors import DimensionMismatch
from qdense.forms import (
    DiagonalForm,
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
    with pytest.raises(DimensionMismatch):
        DiagonalForm(3, (1, 2)).evaluate((1, 2, 3))


def test_invalid_forms_rejected():
    with pytest.raises(ValueError):
        DiagonalForm(3, (0, 1))
    with pytest.raises(ValueError):
        DiagonalForm(1, (1, 2))
    with pytest.raises(ValueError):
        DiagonalForm(3, ())
    # Non-integers are rejected, not truncated (1.5 used to become 1).
    for n, coeffs in [(3, (1.5, 1)), (3, ("2", 1)), (3.0, (1, 1))]:
        with pytest.raises(TypeError):
            DiagonalForm(n, coeffs)


def test_evaluate_rejects_non_integer_points():
    form = DiagonalForm(3, (1, 1))
    assert form.evaluate((2, -1)) == 7
    # 1.5 used to become 1 and "2" used to become 2.
    for point in [(1.5, 0), ("2", 0), (0, 2.0)]:
        with pytest.raises(TypeError):
            form.evaluate(point)


# ---------------------------------------------------------------------------
# binary normalization
# ---------------------------------------------------------------------------


def test_normalize_binary_examples():
    norm = normalize_binary(DiagonalForm(3, (1, 2)), 7)
    assert (norm.delta, norm.units) == (0, (1, 2))

    norm = normalize_binary(DiagonalForm(3, (5, 1)), 5)
    assert (norm.delta, norm.units) == (1, (1, 1))

    norm = normalize_binary(DiagonalForm(3, (125, 1)), 5)
    assert (norm.delta, norm.delta_class, norm.units) == (3, 0, (1, 1))
    assert norm.normalized.coeffs == (1, 1)


def test_normalize_keeps_signs_on_units():
    norm = normalize_binary(DiagonalForm(4, (-8, 6)), 2)
    assert norm.units == (-1, 3)
    assert norm.delta == 2


def quotient_identity_holds(form: DiagonalForm, p, points) -> bool:
    """F(x,y)/F(z,w) == normalized(scaled points), exactly in Q."""
    norm = normalize_binary(form, p)
    qa, qb = norm.point_scale
    x, y, z, w = points
    lhs = Fraction(form.evaluate((x, y)), form.evaluate((z, w)))
    rhs = Fraction(
        norm.normalized.evaluate((p**qa * x, p**qb * y)),
        norm.normalized.evaluate((p**qa * z, p**qb * w)),
    )
    return lhs == rhs


def test_quotient_invariance_of_normalization():
    rng = random.Random(777)
    checked = 0
    while checked < 1000:
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([3, 4, 5])
        a = rng.randint(-50, 50) * p ** rng.randint(0, 4)
        b = rng.randint(-50, 50) * p ** rng.randint(0, 4)
        if a == 0 or b == 0:
            continue
        form = DiagonalForm(n, (a, b))
        pts = tuple(rng.randint(-9, 9) for _ in range(4))
        if form.evaluate(pts[2:]) == 0:
            continue
        assert quotient_identity_holds(form, p, pts)
        checked += 1


# ---------------------------------------------------------------------------
# anisotropy
# ---------------------------------------------------------------------------


def test_anisotropy_examples():
    assert is_anisotropic_mod_p(DiagonalForm(2, (1, 1)), 3) == (True, None)
    assert is_anisotropic_mod_p(DiagonalForm(2, (1, -1)), 3) == (False, (1, 1))
    aniso, witness = is_anisotropic_mod_p(DiagonalForm(3, (1, 1, 1)), 7)
    assert not aniso and witness == (1, 0, 3)
    assert (1 + 0 + 27) % 7 == 0


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
    import itertools

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


def test_nonsingular_zero_requires_ternary_cubic():
    with pytest.raises(DimensionMismatch):
        find_nonsingular_zero_mod_p(DiagonalForm(3, (1, 1)), 7)
    with pytest.raises(DimensionMismatch):
        find_nonsingular_zero_mod_p(DiagonalForm(4, (1, 1, 1)), 7)


# ---------------------------------------------------------------------------
# valuation profiles
# ---------------------------------------------------------------------------


def test_valuation_profile_examples():
    prof = valuation_profile(DiagonalForm(5, (1, 7, 49)), 7)
    assert prof.residues == (0, 1, 2)
    assert prof.pairwise_distinct
    assert prof.attainable_value_residues == frozenset({0, 1, 2})

    prof = valuation_profile(DiagonalForm(3, (1, 8)), 2)
    assert prof.residues == (0, 0)  # v_2(8) = 3 = 0 mod 3
    assert not prof.pairwise_distinct
    assert prof.attainable_value_residues is None

    prof = valuation_profile(DiagonalForm(6, (1, 5, 25)), 5)
    assert prof.residues == (0, 1, 2)
    assert prof.attainable_value_residues == frozenset({0, 1, 2})


def test_valuation_profile_unit_parts():
    prof = valuation_profile(DiagonalForm(3, (-24, 10)), 2)
    assert prof.valuations == (3, 1)
    assert prof.unit_parts == (-3, 5)
    assert all(u % 2 for u in prof.unit_parts)


def test_profile_predicts_observed_valuations():
    import itertools

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
            assert v % n in prof.attainable_value_residues
        checked += 1
