"""NotDense obstruction certificates and their JSON form.

A ValuationGap lists residues mod n that no quotient valuation attains; a
ResidueGap names a unit class mod p^e never hit by a valuation-zero
quotient.  Both are exact finite claims that the oracle can check against
enumeration; one it could not refute (a class outside [0, n), a unit class
that is not a unit mod p, an exponent below 1) raises ValueError.  The JSON form is
{"kind": class name, then the fields in declaration order}, with frozensets
written as sorted lists.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ValuationGap", "ResidueGap", "to_dict", "from_dict"]


@dataclass(frozen=True)
class ValuationGap:
    """No quotient of nonzero values has valuation in `forbidden` mod n."""

    p: int
    n: int
    forbidden: frozenset

    def __post_init__(self):
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if not self.forbidden:
            raise ValueError("a valuation gap must forbid at least one class")
        if not all(0 <= c < self.n for c in self.forbidden):
            raise ValueError(
                f"forbidden classes must lie in [0, {self.n}), "
                f"got {sorted(self.forbidden)}"
            )


@dataclass(frozen=True)
class ResidueGap:
    """No valuation-zero quotient is congruent to `unit_class` mod p^modulus_exponent."""

    p: int
    n: int
    unit_class: int
    modulus_exponent: int

    def __post_init__(self):
        if self.p < 2 or self.unit_class % self.p == 0:
            raise ValueError(f"unit class {self.unit_class} is not a unit mod {self.p}")
        if self.modulus_exponent < 1:
            raise ValueError(
                f"modulus exponent must be >= 1, got {self.modulus_exponent}"
            )


_KINDS = {cls.__name__: cls for cls in (ValuationGap, ResidueGap)}


def to_dict(certificate) -> dict:
    data = {"kind": type(certificate).__name__}
    for f in fields(certificate):
        value = getattr(certificate, f.name)
        data[f.name] = sorted(value) if isinstance(value, frozenset) else value
    return data


def from_dict(data: dict):
    """The certificate `to_dict` wrote; anything else raises ValueError."""
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"not a certificate of a known kind: {data!r:.200}")
    values = {}
    for f in fields(cls):
        if f.name not in data:
            raise ValueError(f"{kind} certificate has no {f.name!r} field")
        value = values[f.name] = data[f.name]
        # An int field, or a frozenset of ints written as a list.
        ints = value if f.type == "frozenset" else [value]
        if type(ints) is not list or set(map(type, ints)) - {int}:
            shape = "a list of ints" if f.type == "frozenset" else "an int"
            raise ValueError(f"{kind} field {f.name!r} is not {shape}: {value!r:.200}")
    return cls(**values)
