"""Brute-force evidence, independent of the decision engine.

Enumerates form values over integer boxes, classifies every nonzero value
into its ball (valuation v, unit residue u mod p^K), forms all pairwise
quotient classes, measures how much of each valuation level is covered,
and checks NotDense certificates against the observed data.

Each valuation level's classes stay one bitmask from the enumeration to
the report; the sets of (v, u) keys are built only when read.

The oracle is one-sided on purpose: it can refute a certificate exactly
(any observed quotient inside a forbidden region is a disproof) but can
only corroborate Dense verdicts through growing coverage; density is a
limit statement no finite box settles.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .certificates import ResidueGap, ValuationGap
from .errors import DEFAULT_BUDGET, charge
from .forms import DiagonalForm
from .padic import as_prime, inverse_mod, split_power

__all__ = [
    "ValueClasses",
    "QuotientClassMap",
    "CoverageReport",
    "CheckResult",
    "enumerate_values",
    "quotient_coverage",
    "check_certificate",
    "coverage_trend",
]


def _bits(mask: int):
    """The positions of the set bits of mask, in increasing order."""
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _mask(positions, size: int) -> int:
    """The int with the given bit positions (each below size) set.

    Up to 4096 bits the bits are OR-ed in one by one.  Above that they are
    set in one bytearray: OR-ing each bit into a size-bit int would copy
    the int once per bit.
    """
    if size <= 4096:
        mask = 0
        for i in positions:
            mask |= 1 << i
        return mask
    buf = bytearray((size >> 3) + 1)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class ValueClasses:
    """Observed (valuation, unit mod p^K) classes of F over a box.

    `levels` maps each observed valuation v, in increasing order, to a
    bitmask over the residues mod p^K with bit u set when (v, u) is
    observed.  `classes` is the set of (v, u) keys, built when first read;
    `witness(key)` is the lexicographically least box point realizing a
    key, from one scan of the whole box in lexicographic order that keeps
    the least point of every class.
    """

    form: DiagonalForm
    p: int
    K: int
    B: int
    levels: dict  # valuation -> bitmask of the units mod p^K observed there

    @property
    def valuations(self) -> set:
        return set(self.levels)

    @cached_property
    def classes(self) -> frozenset:
        return frozenset(
            (v, u) for v, mask in self.levels.items() for u in _bits(mask)
        )

    @cached_property
    def _least_points(self) -> dict:
        """The lexicographically least point of [-B, B]^r realizing each
        class, from one scan of the whole box in lexicographic order."""
        pK = self.p**self.K
        least = {}
        for point in itertools.product(range(-self.B, self.B + 1), repeat=self.form.r):
            value = self.form.evaluate(point)
            if value:
                v, unit = split_power(value, self.p)
                least.setdefault((v, unit % pK), point)
        return least

    def witness(self, key) -> tuple:
        """The lexicographically least point of [-B, B]^r realizing a key."""
        if key not in self.classes:
            raise KeyError(key)
        if key not in self._least_points:
            raise AssertionError(f"class {key} has no witness point")
        return self._least_points[key]


@dataclass(frozen=True)
class QuotientClassMap:
    """Quotient classes (v1 - v2 in [-V, V], u1/u2 mod p^K) hit by the
    observed values.

    `levels` maps each quotient valuation hit to a bitmask over unit
    indices (`_unit_coordinates`), and `units[i]` is the unit of index i.
    `hits` is the set of (v, u) keys, built when first read;
    `witness(key)` finds the pair of points realizing a key on demand.
    """

    values: ValueClasses = field(repr=False)
    levels: dict  # quotient valuation -> bitmask of the unit indices hit
    units: list = field(repr=False)

    @cached_property
    def hits(self) -> frozenset:
        units = self.units
        return frozenset(
            (v, units[i]) for v, mask in self.levels.items() for i in _bits(mask)
        )

    def witness(self, key) -> tuple:
        """(numerator point, denominator point) for a hit key.

        The pair is the first in sorted (numerator class, denominator
        class) order: for a fixed numerator class (v1, u1) the denominator
        class (v1 - v, u1 / u) is unique, so walking the sorted numerator
        classes finds it, skipping each level v1 with no level v1 - v.
        """
        if key not in self.hits:
            raise KeyError(key)
        v, u = key
        values = self.values
        pK = values.p**values.K
        u_inv = inverse_mod(u, pK)
        for v1, mask in values.levels.items():
            if v1 - v not in values.levels:
                continue
            partners = set(_bits(values.levels[v1 - v]))
            for u1 in _bits(mask):
                u2 = u1 * u_inv % pK
                if u2 in partners:
                    return values.witness((v1, u1)), values.witness((v1 - v, u2))
        raise AssertionError(f"hit {key} has no witness pair")


@dataclass(frozen=True)
class CoverageReport:
    form: DiagonalForm
    p: int
    K: int
    V: int
    B: int
    coverage: dict  # valuation level -> fraction of unit classes hit
    quotient_valuation_residues: frozenset  # all v1 - v2 mod n, unwindowed
    value_valuation_residues: frozenset  # all v_p(F(x)) mod n observed
    quotients: QuotientClassMap = field(repr=False)

    @cached_property
    def missed(self) -> dict:
        """Valuation level -> sorted tuple of unit classes not hit."""
        units, levels = self.quotients.units, self.quotients.levels
        full = (1 << len(units)) - 1
        return {
            v: tuple(sorted(units[i] for i in _bits(full & ~levels.get(v, 0))))
            for v in range(-self.V, self.V + 1)
        }

    def overall_coverage(self) -> float:
        if not self.coverage:
            return 0.0
        return sum(self.coverage.values()) / len(self.coverage)

    def to_json(self) -> str:
        return json.dumps(
            {
                "coeffs": list(self.form.coeffs),
                "n": self.form.n,
                "p": self.p,
                "K": self.K,
                "V": self.V,
                "B": self.B,
                "coverage": {str(v): f for v, f in sorted(self.coverage.items())},
                "missed": {
                    str(v): list(m) for v, m in sorted(self.missed.items())
                },
                "quotient_valuation_residues": sorted(
                    self.quotient_valuation_residues
                ),
                "value_valuation_residues": sorted(self.value_valuation_residues),
            },
            indent=2,
        )

    def to_csv(self) -> str:
        """Hit matrix: rows are valuation levels, columns unit classes mod p^K."""
        units = self.quotients.units
        columns = sorted(units)
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["valuation"] + columns)
        for v in range(-self.V, self.V + 1):
            hit = {units[i] for i in _bits(self.quotients.levels.get(v, 0))}
            writer.writerow([v] + [1 if u in hit else 0 for u in columns])
        return out.getvalue()


@dataclass(frozen=True)
class CheckResult:
    consistent: bool
    witness: tuple = None  # (numerator point, denominator point) on refutation
    detail: str = ""


def _split(bucket: list, p: int, pK: int) -> tuple:
    """Split a bucket of monomial quotients q one p-adic digit down.

    Returns the bucket's residue bitmask of q mod p^K, doubled so that one
    right shift by pK - c is the cyclic shift by c, and its children: digit
    d -> the quotients q // p of the q = d mod p.
    """
    children = {}
    for q in bucket:
        d = q % p
        if d in children:
            children[d].append(q // p)
        else:
            children[d] = [q // p]
    mask = _mask([q % pK for q in bucket], pK)
    return mask | mask << pK, children


def enumerate_values(
    form: DiagonalForm, p, B: int, K: int, budget: int = DEFAULT_BUDGET
) -> ValueClasses:
    """Classify F(x) for every x in [-B, B]^r with F(x) != 0.

    The box is folded by sign.  For even n, F is unchanged by flipping the
    sign of a coordinate, so the points with every coordinate <= 0 reach
    every class.  For odd n, F(-x) = -F(x), so the points whose first
    coordinate is <= 0 are visited, and each level's mask is reflected,
    u -> -u mod p^K, and joined to itself.

    A box row is a prefix sum s over the leading coordinates plus every
    monomial t of the last one.  Each valuation level v is read off a row
    in one step.  The monomials are bucketed by t0 = t mod p^v, one p-adic
    digit per level; a bucket keeps the quotients q = (t - t0) / p^v.  The
    values s + t divisible by p^v are those of the bucket t0 = -s mod p^v,
    and (s + t) / p^v = r + q with r = (s + t0) / p^v, so the bucket's
    residue bitmask of q mod p^K shifted cyclically by r holds them all.
    The shifted mask's bits prime to p are the row's level-v units; its
    other bits belong to deeper levels.  A bucket is split (`_split`) the
    first time a row reaches it.  A bucket of at most max(1, p^K // 64)
    monomials, about the word count of one shift, takes the exact path
    instead: each of its values, at every depth, is split into p^v * unit,
    the residues are collected in a set, and each level's mask is built
    from them once.  With one variable there is one row and nothing to
    share, so every value takes the exact path.  The bitmasks have p^K
    bits, so p^K counts against the budget.
    """
    p = as_prime(p)
    if B < 0:
        raise ValueError(f"box bound B must be >= 0, got {B}")
    if K < 1:
        raise ValueError(f"unit precision K must be >= 1, got {K}")
    charge(budget, f"box of ({2*B+1})^{form.r} points", 2 * B + 1, form.r)
    pK = charge(budget, f"residue bitmask mod {p}^{K}", p, K)
    n = form.n
    odd = n % 2
    folded, whole = range(-B, 1), range(-B, B + 1)
    ranges = [whole if odd and i else folded for i in range(form.r)]
    *heads, tail = [[a * x**n for x in xs] for a, xs in zip(form.coeffs, ranges)]
    limit = max(1, pK // 64) if heads else len(tail)
    # A bucket is a list of quotients until it is split, then a tuple.
    root = _split(tail, p, pK) if len(tail) > limit else tail
    shifted = defaultdict(int)  # level -> the rows' shifted bucket masks
    exact = defaultdict(set)  # level -> residues found on the exact path
    for prefix in map(sum, itertools.product(*heads)):
        node, r, v = root, prefix, 0
        while type(node) is tuple and node:
            doubled, children = node
            shifted[v] |= doubled >> pK - r % pK
            d = -r % p
            node = children.get(d, ())
            if len(node) > limit and type(node) is list:
                node = children[d] = _split(node, p, pK)
            r = (r + d) // p
            v += 1
        for q in node:
            value = r + q
            if value == 0:
                continue
            # Inline, not split_power: a call per value slows this loop.
            w = v
            while value % p == 0:
                value //= p
                w += 1
            exact[w].add(value % pK)
    # full // (2^p - 1) has bits 0, p, 2p, ...: the multiples of p.
    full = (1 << pK) - 1
    unit_bits = full & ~(full // ((1 << p) - 1))
    levels = {v: mask & unit_bits for v, mask in shifted.items() if mask & unit_bits}
    for v, residues in exact.items():
        levels[v] = levels.get(v, 0) | _mask(residues, pK)
    if odd:
        # Reversing the pK-bit string sends bit u to pK - 1 - u; one more
        # left shift gives -u mod pK (bit 0, a non-unit, is never set).
        levels = {
            v: mask | int(format(mask, f"0{pK}b")[::-1], 2) << 1
            for v, mask in levels.items()
        }
    return ValueClasses(form=form, p=p, K=K, B=B, levels=dict(sorted(levels.items())))


def _primitive_root(p: int, K: int) -> int:
    """A generator of the cyclic group (Z/p^K)^*, for odd p or K <= 2.

    g is a primitive root mod p when g^((p-1)/q) != 1 mod p for every
    prime q dividing p - 1; then g or g + p generates mod every p^K.
    """
    primes, m, q = [], p - 1, 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    g = next(
        g
        for g in itertools.count(1)
        if all(pow(g, (p - 1) // q, p) != 1 for q in primes)
    )
    if K >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _unit_coordinates(p: int, K: int):
    """Exponent coordinates of the units mod p^K, as bit indices.

    Every unit is u = t^a * g^b with a < T and b < m.  The group is cyclic
    (T = 1, g a primitive root) except for p = 2, K >= 3, where t = -1,
    g = 5 and T = 2.  The unit's index is b*T + a, so multiplying by a unit
    of coordinates (a', b') shifts every index by T*b' cyclically and, if
    a' = 1, swaps the two indices of each pair.

    Returns (T, units, index): `units[i]` is the unit with index i and
    `index[u]` the index of unit u.
    """
    pK = p**K
    T, g = (2, 5) if p == 2 and K >= 3 else (1, _primitive_root(p, K))
    units = [0] * (pK - pK // p)
    index = [0] * pK
    x = 1
    for i in range(0, len(units), T):
        units[i], index[x] = x, i
        if T == 2:
            units[i + 1], index[pK - x] = pK - x, i + 1
        x = x * g % pK
    return T, units, index


def _quotient_map(values: ValueClasses, V: int) -> QuotientClassMap:
    """The quotient classes u1/u2 of every pair of observed value classes
    whose valuations differ by at most V.

    Each valuation level's residue mask is re-indexed into a bitmask over
    unit coordinates (`_unit_coordinates`), so the units of level v1 times
    the inverses of level v2 are a union of cyclic shifts of one bitmask,
    one per unit of the smaller level, instead of a product of every pair.
    The result keeps one unit-index mask per quotient level.
    """
    T, units, index = _unit_coordinates(values.p, values.K)
    phi = len(units)
    full = (1 << phi) - 1
    even_bits = full // 3  # the index a = 0 of every pair, when T = 2
    masks, inverse_masks = {}, {}  # valuation level -> bitmask of U, of U^-1
    for v, residues in values.levels.items():
        indices = [index[u] for u in _bits(residues)]
        masks[v] = _mask(indices, phi)
        # (t^a * g^b)^-1 = t^a * g^-b, as t^2 = 1.
        inverse_masks[v] = _mask((-(i - i % T) % phi + i % T for i in indices), phi)

    def times(mask, other):
        # The product set mask * other: one shift of mask per unit of other.
        # Doubling the mask turns a cyclic shift by s into a shift by phi - s.
        doubled = [mask | mask << phi]
        if T == 2:
            swapped = (mask & even_bits) << 1 | (mask >> 1) & even_bits
            doubled.append(swapped | swapped << phi)
        product = 0
        while other and product & full != full:
            low = other & -other
            i = low.bit_length() - 1
            a = i % T
            product |= doubled[a] >> (phi - i + a)
            other ^= low
        return product & full

    per_level = {}
    for v1, mask in masks.items():
        for v2, inverse_mask in inverse_masks.items():
            v = v1 - v2
            if abs(v) > V or per_level.get(v, 0) == full:
                continue
            if inverse_mask.bit_count() <= mask.bit_count():
                product = times(mask, inverse_mask)
            else:
                product = times(inverse_mask, mask)
            per_level[v] = per_level.get(v, 0) | product
    return QuotientClassMap(values=values, levels=per_level, units=units)


def quotient_coverage(
    form: DiagonalForm,
    p,
    B: int,
    K: int,
    V: int,
    budget: int = DEFAULT_BUDGET,
) -> CoverageReport:
    """Enumerate, quotient, and measure per-level unit-class coverage.

    enumerate_values charges p^K against the budget; the (2V + 1) x phi(p^K)
    level x unit table that `missed` and the reports hold is charged here.
    Coverage is each level's popcount over phi(p^K); `missed` is built
    when first read.
    """
    if V < 0:
        raise ValueError(f"valuation window V must be >= 0, got {V}")
    p = as_prime(p)
    values = enumerate_values(form, p, B, K, budget)
    pK = p**K
    phi = pK - pK // p
    charge(budget, f"{2*V+1} x {phi} coverage table", (2 * V + 1) * phi)
    quotients = _quotient_map(values, V)
    levels = quotients.levels
    coverage = {v: levels.get(v, 0).bit_count() / phi for v in range(-V, V + 1)}
    vals = values.valuations
    return CoverageReport(
        form=form,
        p=p,
        K=K,
        V=V,
        B=B,
        coverage=coverage,
        quotient_valuation_residues=frozenset(
            (v1 - v2) % form.n for v1 in vals for v2 in vals
        ),
        value_valuation_residues=frozenset(v % form.n for v in vals),
        quotients=quotients,
    )


def check_certificate(certificate, report: CoverageReport) -> CheckResult:
    """Verify an obstruction certificate against enumerated quotients.

    ValuationGap: no observed quotient valuation may fall in the forbidden
    residue set mod n.  ResidueGap at exponent e: no observed valuation-0
    quotient class may be congruent to the named unit mod p^e; only the
    level-0 mask is read.  Any violation is returned with its witness
    pair: a concrete disproof of the engine verdict.
    """
    if certificate.p != report.p or certificate.n != report.form.n:
        raise ValueError(
            "certificate and report disagree on (p, n): "
            f"({certificate.p}, {certificate.n}) vs ({report.p}, {report.form.n})"
        )
    n = report.form.n
    if isinstance(certificate, ValuationGap):
        # Check the unwindowed valuation data first, then locate a witness.
        bad = report.quotient_valuation_residues & certificate.forbidden
        if not bad:
            return CheckResult(True, detail="no forbidden quotient valuation observed")
        residue = min(bad)
        in_window = [k for k in report.quotients.hits if k[0] % n == residue]
        if in_window:
            key = min(in_window)
            return CheckResult(
                False,
                witness=report.quotients.witness(key),
                detail=f"quotient valuation {key[0]} = {residue} mod {n} is forbidden",
            )
        return CheckResult(
            False,
            detail=f"forbidden valuation residue {residue} observed outside window",
        )
    if isinstance(certificate, ResidueGap):
        e = certificate.modulus_exponent
        if e > report.K:
            raise ValueError(
                f"certificate needs unit precision {e}, report has K={report.K}"
            )
        pe = report.p**e
        target = certificate.unit_class % pe
        units = report.quotients.units
        level0 = report.quotients.levels.get(0, 0)
        matching = [units[i] for i in _bits(level0) if units[i] % pe == target]
        if matching:
            key = (0, min(matching))
            return CheckResult(
                False,
                witness=report.quotients.witness(key),
                detail=f"valuation-0 quotient with unit {key[1]} = "
                f"{target} mod {report.p}^{e} observed",
            )
        return CheckResult(
            True, detail=f"no valuation-0 quotient hits {target} mod {report.p}^{e}"
        )
    raise TypeError(f"unknown certificate type {type(certificate).__name__}")


def coverage_trend(
    form: DiagonalForm,
    p,
    K: int,
    V: int,
    boxes,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """Coverage reports over an increasing sequence of boxes.

    For genuinely dense quotient sets the per-level fractions climb toward
    1; hit classes are never lost when the box grows.
    """
    return [quotient_coverage(form, p, B, K, V, budget) for B in boxes]
