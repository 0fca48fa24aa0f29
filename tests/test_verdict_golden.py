"""Golden verdicts: `decide` on a seeded grid of about 1,000 forms must give
the verdict JSON (or the exception) it gave when the file was written.

Each line of verdict_golden.txt is `n coeffs p budget digest`, the digest
being the first 16 hex digits of the SHA-256 of `decide --json`'s output
(`json.dumps(verdict_to_dict(v), indent=2)`) or of "ExceptionName: message".
The grid spans n = 2..8, p in {2, 3, 5, 7, 11, 13}, r = 1..4 and
coefficients ±[1, 30]·p^(0..2), at budgets 10^7, 60, 6 and 5, so it reaches
every rule and status, R1's BudgetExceeded, and the R3, R4 and R5 skips.

Regenerate the file only for an intended verdict change, and list that
change in CHANGES.md:  PYTHONPATH=src python tests/test_verdict_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from qdense import DiagonalForm, decide, verdict_to_dict

GOLDEN = Path(__file__).with_name("verdict_golden.txt")
SEED, CASES = 24, 1000


def _digest(n, coeffs, p, budget) -> str:
    try:
        verdict = decide(DiagonalForm(n, coeffs), p, budget)
        text = json.dumps(verdict_to_dict(verdict), indent=2)
    except (ValueError, RuntimeError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _grid():
    rng = random.Random(SEED)
    for _ in range(CASES):
        n, p = rng.randint(2, 8), rng.choice((2, 3, 5, 7, 11, 13))
        coeffs = tuple(
            rng.choice((1, -1)) * rng.randint(1, 30) * p ** rng.randint(0, 2)
            for _ in range(rng.randint(1, 4))
        )
        yield n, coeffs, p, rng.choice((10**7, 60, 6, 5))


def _read(line):
    n, coeffs, p, budget, digest = line.split()
    return (int(n), tuple(map(int, coeffs.split(","))), int(p), int(budget)), digest


def test_verdicts_match_golden_digests():
    golden = [_read(line) for line in GOLDEN.read_text().splitlines()]
    assert len(golden) == CASES
    for case, digest in golden:
        assert _digest(*case) == digest, f"first differing (n, coeffs, p, budget) {case}"


if __name__ == "__main__":
    with GOLDEN.open("w") as out:
        for n, coeffs, p, budget in _grid():
            cells = n, ",".join(map(str, coeffs)), p, budget, _digest(n, coeffs, p, budget)
            out.write(" ".join(map(str, cells)) + "\n")
