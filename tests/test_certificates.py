import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdense.certificates import ResidueGap, ValuationGap, from_dict, to_dict

primes = st.sampled_from([2, 3, 5, 7, 11, 13])
degrees = st.integers(min_value=2, max_value=12)

certificates = st.one_of(
    st.builds(
        ValuationGap,
        p=primes,
        n=degrees,
        forbidden=st.frozensets(st.integers(0, 11), min_size=1),
    ),
    st.builds(
        ResidueGap,
        p=primes,
        n=degrees,
        unit_class=st.integers(1, 10**6),
        modulus_exponent=st.integers(1, 6),
    ),
)


@given(certificates)
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
