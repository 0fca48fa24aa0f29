"""Seeded input families for the three benchmark workloads.

Every family is built from the mathematics of diagonal forms, never by
asking qdense which inputs behave how: the generator imports nothing from
the package.  The same seed always yields the same inputs.

A request is a dict.  `forms` is how many forms it carries (a survey batch
carries many), and `expect` lists the statuses the theory allows.
"""

from __future__ import annotations

import itertools
import json
import random

DENSE, NOT_DENSE = "Dense", "NotDense"
CONCLUSIVE = (DENSE, NOT_DENSE)

SURVEY_PRIMES = (2, 3, 5, 7, 11, 13)
PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _sign(rng):
    return rng.choice((-1, 1))


def _unit(rng, p):
    """A coefficient in ±[1, 30] that p does not divide."""
    while True:
        u = rng.randint(1, 30)
        if u % p:
            return _sign(rng) * u


# ---------------------------------------------------------------------------
# survey-mixed: the ROADMAP's survey traffic.  Each batch visits every
# (r, n, p) stratum once in a seeded order; only the coefficients are drawn
# freely, so content and p-power factors appear.  Fixing the strata per
# batch keeps the share of Inconclusive (R6) forms, which costs ~170 ms
# each, from swinging with the seed.
# ---------------------------------------------------------------------------


def survey_batch(rng) -> list:
    strata = [
        (r, n, p) for r in (2, 3, 4) for n in range(2, 7) for p in SURVEY_PRIMES
    ]
    rng.shuffle(strata)
    return [
        {
            "n": n,
            "coeffs": [
                _sign(rng) * rng.randint(1, 30) * p ** rng.randint(0, 2)
                for _ in range(r)
            ],
            "p": p,
        }
        for r, n, p in strata
    ]


def survey_requests(seed: int, workdir, batches: int) -> list:
    """JSON-lines batch files for `qdense survey --input FILE --json`."""
    rng = random.Random(f"survey-mixed/{seed}")
    requests = []
    for i in range(batches):
        rows = survey_batch(rng)
        path = workdir / f"survey-{seed}-{i}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        requests.append({"path": str(path), "rows": rows, "forms": len(rows)})
    return requests


# ---------------------------------------------------------------------------
# decide-conclusive: families the implemented theory always decides.  They
# come in equal shares, cycled in a fixed order, and each family cycles
# through a fixed grid of its structural parameters (p, n, r); only the
# coefficients are drawn.  Latency percentiles then sit at the same place in
# the cost mix for every seed.
# ---------------------------------------------------------------------------

R1_GRID = list(itertools.product(PRIMES_TO_31, range(3, 13)))
CUBIC_GRID = [p for p in PRIMES_TO_31 if p != 3]
R5_GRID = list(itertools.product(PRIMES_TO_31, (4, 6, 8)))
# Anisotropy enumerates (p^r - 1)/(p - 1) points.  Seven (p, r) cost levels,
# an odd count, put the family median (the workload's p90) inside a level
# rather than on the step between two.
R4_GRID = list(itertools.product(
    ((5, 3), (7, 3), (11, 3), (13, 3), (5, 4), (7, 4), (11, 4)), (1, 2)))
R2_GRID = list(itertools.product((2, 3, 5, 7, 11, 13), range(8, 13)))


def _binary_r1(rng, k):
    """a*x^n + b*y^n with p-power factors: R1 is complete for r = 2, n >= 3."""
    p, n = R1_GRID[k % len(R1_GRID)]
    coeffs = [_unit(rng, p) * p ** rng.randint(0, 2) for _ in range(2)]
    return n, coeffs, p, CONCLUSIVE


def _unit_ternary_cubic(rng, k):
    """Unit ternary cubic, p != 3: the plane cubic is smooth, so by the Hasse
    bound it has an F_p-point, which is non-singular; Dense (R2 or R3)."""
    p = CUBIC_GRID[k % len(CUBIC_GRID)]
    return 3, [_unit(rng, p) for _ in range(3)], p, (DENSE,)


def _subform_closure(rng, k):
    """x^n - y^n + c*z^n: the binary subform x^n - y^n has the simple root
    (1, 1) and is dense, so the whole form is; Dense (R5)."""
    p, n = R5_GRID[k % len(R5_GRID)]
    c = _sign(rng) * rng.randint(1, 30) * p ** rng.randint(0, 2)
    coeffs = [1, -1, c]
    rng.shuffle(coeffs)
    return n, coeffs, p, (DENSE,)


def _anisotropic_monic(rng, k):
    """x_1^n + sum a_i x_i^n with (p-1) | n, a_i = 1 mod p and r < p: every unit
    nth power is 1 mod p, so F(x) = #(unit coordinates) mod p is never 0 for
    x != 0 mod p; the form is anisotropic and NotDense (R4).  Monic, because
    non-primitive anisotropic forms fall through to R6 today."""
    (p, r), m = R4_GRID[k % len(R4_GRID)]
    coeffs = [1] + [1 + p * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r - 1)]
    rng.shuffle(coeffs)
    return (p - 1) * m, coeffs, p, (NOT_DENSE,)


def _distinct_valuation_classes(rng, k):
    """Three coefficients whose valuations are pairwise distinct mod n >= 8:
    their difference set has at most 7 classes, so it misses part of Z/nZ;
    NotDense (R2)."""
    p, n = R2_GRID[k % len(R2_GRID)]
    exponents = rng.sample(range(n), 3)
    coeffs = [_unit(rng, p) * p**e for e in exponents]
    return n, coeffs, p, (NOT_DENSE,)


DECIDE_FAMILIES = (
    ("binary-R1", _binary_r1),
    ("cubic-R2R3", _unit_ternary_cubic),
    ("subform-R5", _subform_closure),
    ("monic-R4", _anisotropic_monic),
    ("distinct-R2", _distinct_valuation_classes),
)


def decide_requests(seed: int, count: int) -> list:
    rng = random.Random(f"decide-conclusive/{seed}")
    requests = []
    for i in range(count):
        family, make = DECIDE_FAMILIES[i % len(DECIDE_FAMILIES)]
        n, coeffs, p, expect = make(rng, i // len(DECIDE_FAMILIES))
        requests.append(
            {"family": family, "n": n, "coeffs": tuple(coeffs), "p": p,
             "expect": expect, "forms": 1}
        )
    return requests


# ---------------------------------------------------------------------------
# oracle-check: the acceptance-1 population (binary, n in 3..6, a, b in
# [-10, 10] minus 0, p <= 13) sent through `qdense oracle ... --check`.  The
# per-form cost follows how many unit classes mod p^K the values reach, which
# is set by (p, n) and by whether a*x^n + b*y^n has a nonzero zero mod p (the
# isotropic forms cost 3-5x more at p = 11, 13).  So the (p, n) strata are
# cycled in equal shares and, within a stratum, the three zero-mod-p classes
# are visited in their population proportions; only a and b are drawn.
# ---------------------------------------------------------------------------


def _zero_class(a: int, b: int, n: int, p: int) -> str:
    if a % p == 0 or b % p == 0:
        return "p-divides"
    target = -b * pow(a, -1, p) % p
    if any(pow(w, n, p) == target for w in range(1, p)):
        return "isotropic"
    return "anisotropic"


def oracle_requests(seed: int, count: int) -> list:
    rng = random.Random(f"oracle-check/{seed}")
    nonzero = [c for c in range(-10, 11) if c]
    strata = [(p, n) for p in SURVEY_PRIMES for n in range(3, 7)]
    pairs = {}  # (p, n) -> {class: [(a, b), ...]}
    for p, n in strata:
        by_class = pairs[p, n] = {}
        for a in nonzero:
            for b in nonzero:
                by_class.setdefault(_zero_class(a, b, n, p), []).append((a, b))
    visits = {stratum: dict.fromkeys(pairs[stratum], 0) for stratum in strata}
    requests = []
    for i in range(count):
        p, n = strata[i % len(strata)]
        by_class, seen = pairs[p, n], visits[p, n]
        # The class furthest behind its population share goes next.
        k = i // len(strata) + 1
        cls = max(sorted(by_class),
                  key=lambda c: len(by_class[c]) / len(nonzero) ** 2 * k - seen[c])
        seen[cls] += 1
        a, b = rng.choice(by_class[cls])
        argv = ["oracle", "--n", str(n), f"--coeffs={a},{b}", "--p", str(p),
                "--box", "40", "--K", "2", "--check"]
        requests.append({"argv": argv, "forms": 1})
    return requests
