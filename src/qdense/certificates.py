"""NotDense obstruction certificates and their JSON form.

A ValuationGap lists residues mod n that no quotient valuation attains; a
ResidueGap names a unit class mod p^e never hit by a valuation-zero
quotient.  Both are exact finite claims that the oracle can check against
enumeration.  Each constructor is the certificate's one validator, also
under `_make` and `_replace`: a field or forbidden class that is not an int
(a bool included) raises ValueError, and so does a claim the oracle could
not refute (a class outside [0, n), a unit class that is not a unit mod p,
an exponent below 1).  Certificates are named tuples, so like `Verdict`
they compare equal to the plain tuple of their fields.  The JSON form is
{"kind": class name, then the fields in declaration order}, with frozensets
written as sorted lists.
"""

from __future__ import annotations

from .errors import record

__all__ = ["ValuationGap", "ResidueGap", "to_dict", "from_dict"]


class ValuationGap(record("ValuationGap", "p n forbidden")):
    """No quotient of nonzero values has valuation in `forbidden` mod n."""

    __slots__ = ()

    def __new__(cls, p, n, forbidden):
        try:
            classes = frozenset(forbidden)
        except TypeError:  # not iterable, or an unhashable member
            classes = {None}
        if not classes:
            raise ValueError("a valuation gap must forbid at least one class")
        if {type(p), type(n), *map(type, classes)} != {int}:
            raise ValueError(
                "ValuationGap needs an int p, n and forbidden classes, "
                f"got {(p, n, forbidden)!r:.200}"
            )
        if min(classes) < 0 or max(classes) >= n:
            raise ValueError(
                f"forbidden classes must lie in [0, {n}), got {sorted(classes)}"
            )
        return tuple.__new__(cls, (p, n, classes))


class ResidueGap(record("ResidueGap", "p n unit_class modulus_exponent")):
    """No valuation-zero quotient is congruent to `unit_class` mod p^modulus_exponent."""

    __slots__ = ()

    def __new__(cls, p, n, unit_class, modulus_exponent):
        fields = (p, n, unit_class, modulus_exponent)
        if set(map(type, fields)) != {int}:
            raise ValueError(f"ResidueGap fields must be ints, got {fields!r:.200}")
        if p < 2 or unit_class % p == 0:
            raise ValueError(f"unit class {unit_class} is not a unit mod {p}")
        if modulus_exponent < 1:
            raise ValueError(f"modulus exponent must be >= 1, got {modulus_exponent}")
        return tuple.__new__(cls, fields)


_KINDS = {cls.__name__: cls for cls in (ValuationGap, ResidueGap)}


def to_dict(certificate) -> dict:
    data = {"kind": type(certificate).__name__}
    for name, value in zip(certificate._fields, certificate):
        data[name] = sorted(value) if isinstance(value, frozenset) else value
    return data


def from_dict(data: dict):
    """The certificate `to_dict` wrote; anything else raises ValueError.

    Only the shape is checked here (a dict of a known kind with every
    field present); the certificate's constructor checks the fields.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"not a certificate of a known kind: {data!r:.200}")
    missing = [name for name in cls._fields if name not in data]
    if missing:
        raise ValueError(f"{kind} certificate has no {missing[0]!r} field")
    return cls(*[data[name] for name in cls._fields])
