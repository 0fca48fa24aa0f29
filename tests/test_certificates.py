import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdense.certificates import ResidueGap, ValuationGap, from_dict, to_dict
from qdense.denseness import verdict_from_dict

primes = st.sampled_from([2, 3, 5, 7, 11, 13])
degrees = st.integers(min_value=2, max_value=12)


@st.composite
def certificates(draw):
    """Valid certificates: classes in [0, n), a unit class prime to p."""
    p, n = draw(primes), draw(degrees)
    if draw(st.booleans()):
        forbidden = draw(st.frozensets(st.integers(0, n - 1), min_size=1))
        return ValuationGap(p=p, n=n, forbidden=forbidden)
    unit_class = draw(st.integers(1, 10**6).filter(lambda u: u % p))
    return ResidueGap(
        p=p, n=n, unit_class=unit_class, modulus_exponent=draw(st.integers(1, 6))
    )


@given(certificates())
def test_certificate_json_round_trip(cert):
    data = to_dict(cert)
    assert next(iter(data)) == "kind"
    assert data["kind"] == type(cert).__name__
    assert from_dict(json.loads(json.dumps(data))) == cert


def test_certificate_key_order_and_unknown_kind():
    cert = ValuationGap(p=7, n=3, forbidden=frozenset({2, 1}))
    assert json.dumps(to_dict(cert)) == (
        '{"kind": "ValuationGap", "p": 7, "n": 3, "forbidden": [1, 2]}'
    )
    cert = ResidueGap(p=7, n=3, unit_class=2, modulus_exponent=1)
    assert list(to_dict(cert)) == ["kind", "p", "n", "unit_class", "modulus_exponent"]
    with pytest.raises(ValueError):
        from_dict({"kind": "Nonsense", "p": 7, "n": 3})


BAD_CERTIFICATES = [
    (ValuationGap, {"p": 7, "n": 3, "forbidden": [-1]}, r"\[0, 3\)"),
    (ValuationGap, {"p": 7, "n": 3, "forbidden": [1, 5]}, r"\[0, 3\)"),
    (
        ResidueGap,
        {"p": 7, "n": 3, "unit_class": 14, "modulus_exponent": 1},
        "not a unit mod 7",
    ),
    (
        ResidueGap,
        {"p": 0, "n": 3, "unit_class": 2, "modulus_exponent": 1},
        "not a unit mod 0",
    ),
    (
        ResidueGap,
        {"p": 7, "n": 3, "unit_class": 2, "modulus_exponent": 0},
        "exponent must be >= 1",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, message",
    BAD_CERTIFICATES,
    ids=["class-below-0", "class-past-n", "unit-multiple-of-p", "p-0", "exponent-0"],
)
def test_certificates_the_oracle_cannot_refute_are_rejected(cls, fields, message):
    # Class -1 would name class 2 and class 5 no class at all, so the oracle
    # could refute neither; a unit class divisible by p claims nothing, and
    # p = 0 must fail as bad input, not with ZeroDivisionError.
    with pytest.raises(ValueError, match=message):
        cls(**fields)
    with pytest.raises(ValueError, match=message):
        from_dict({"kind": cls.__name__, **fields})


_VALUATION_GAP = {"kind": "ValuationGap", "p": 7, "n": 3, "forbidden": [1]}
_RESIDUE_GAP = {
    "kind": "ResidueGap", "p": 7, "n": 3, "unit_class": 2, "modulus_exponent": 1
}
_RULE = {"id": "R2", "citation": "a rule"}
MALFORMED = {
    "not-a-dict": (from_dict, [_VALUATION_GAP]),
    "none": (from_dict, None),
    "no-kind": (from_dict, {k: v for k, v in _VALUATION_GAP.items() if k != "kind"}),
    "unhashable-kind": (from_dict, {**_VALUATION_GAP, "kind": ["ValuationGap"]}),
    "missing-field": (from_dict, {"kind": "ValuationGap", "p": 7, "n": 3}),
    "p-string": (from_dict, {**_VALUATION_GAP, "p": "7"}),
    "p-bool": (from_dict, {**_VALUATION_GAP, "p": True}),
    "n-float": (from_dict, {**_VALUATION_GAP, "n": 3.0}),
    "unit-class-string": (from_dict, {**_RESIDUE_GAP, "unit_class": "2"}),
    "exponent-string": (from_dict, {**_RESIDUE_GAP, "modulus_exponent": "1"}),
    "exponent-bool": (from_dict, {**_RESIDUE_GAP, "modulus_exponent": True}),
    "forbidden-strings": (from_dict, {**_VALUATION_GAP, "forbidden": ["1"]}),
    "forbidden-int": (from_dict, {**_VALUATION_GAP, "forbidden": 1}),
    "forbidden-bools": (from_dict, {**_VALUATION_GAP, "forbidden": [True]}),
    "verdict-not-a-dict": (verdict_from_dict, [_RULE]),
    "verdict-no-status": (verdict_from_dict, {"rules": [_RULE]}),
    "verdict-no-rules": (verdict_from_dict, {"status": "Dense"}),
    "rule-no-id": (verdict_from_dict, {"status": "Dense", "rules": [{"citation": ""}]}),
    "rule-no-citation": (verdict_from_dict, {"status": "Dense", "rules": [{"id": ""}]}),
    "rule-int-id": (
        verdict_from_dict,
        {
            "status": "Dense",
            "rules": [
                {"id": 5, "citation": None, "params": [1]},
                {"id": "R1", "citation": "x"},
            ],
        },
    ),
    "rule-null-citation": (
        verdict_from_dict,
        {"status": "Dense", "rules": [{"id": "R1", "citation": None}]},
    ),
    "rule-list-params": (
        verdict_from_dict,
        {"status": "Dense", "rules": [{"id": "R1", "citation": "x", "params": [1]}]},
    ),
    "verdict-bad-certificate": (
        verdict_from_dict,
        {
            "status": "NotDense",
            "rules": [_RULE],
            "certificate": {**_VALUATION_GAP, "forbidden": ["1"]},
        },
    ),
}


@pytest.mark.parametrize("parse, data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_json_raises_value_error(parse, data):
    # Certificates and verdicts read back from JSON follow the error
    # contract: anything to_dict could not have written is a ValueError,
    # never a TypeError, a KeyError or a certificate with a string prime.
    with pytest.raises(ValueError):
        parse(data)
