"""Command-line frontend.

Subcommands: decide, oracle, survey, lift, residues, aniso.
Exit codes: 0 Dense / consistent, 1 NotDense, 2 Inconclusive,
3 oracle contradiction, 64 usage or validation error, 65 budget exceeded.
The enumeration budget defaults to 10^7 points and can be overridden by
--budget or the QDENSE_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .certificates import to_dict as certificate_to_dict
from .denseness import (
    DENSE,
    INCONCLUSIVE,
    NOT_DENSE,
    decide,
    verdict_to_dict,
)
from .errors import DEFAULT_BUDGET, BudgetExceeded, NoRoot, charge
from .forms import DiagonalForm, is_anisotropic_mod_p
from .oracle import check_certificate, quotient_coverage
from .padic import as_prime, valuation
from .residues import nth_power_residues, nth_root_in_Zp

EXIT_BY_STATUS = {DENSE: 0, NOT_DENSE: 1, INCONCLUSIVE: 2}
EXIT_CONTRADICTION = 3
EXIT_USAGE = 64
EXIT_BUDGET = 65

_ROW_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int):
    """argparse type: an int >= lo, so bad values exit 64 before any work."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _int_list(text: str) -> list:
    """argparse type: comma-separated integers such as 3,5,7."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _form_from_args(args) -> DiagonalForm:
    return DiagonalForm(args.n, args.coeffs)


def _budget(args) -> int:
    env = os.environ.get("QDENSE_BUDGET")
    try:
        budget = args.budget if args.budget is not None else int(env or DEFAULT_BUDGET)
    except ValueError:
        raise ValueError(f"QDENSE_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


def _print_verdict(verdict, as_json: bool):
    if as_json:
        print(json.dumps(verdict_to_dict(verdict), indent=2))
        return
    print(f"verdict: {verdict.status}")
    for entry in verdict.trace:
        print(f"  [{entry.rule}] {entry.statement}")
        if entry.params:
            print(f"        params: {entry.params}")
    if verdict.certificate is not None:
        print(f"certificate: {certificate_to_dict(verdict.certificate)}")


def cmd_decide(args) -> int:
    form = _form_from_args(args)
    verdict = decide(form, args.p, budget=_budget(args))
    _print_verdict(verdict, args.json)
    return EXIT_BY_STATUS[verdict.status]


def cmd_oracle(args) -> int:
    form = _form_from_args(args)
    budget = _budget(args)
    V = args.V if args.V is not None else form.n
    report = quotient_coverage(form, args.p, B=args.box, K=args.K, V=V, budget=budget)
    if args.csv:
        print(report.to_csv(), end="")
    elif args.json:
        print(report.to_json())
    else:
        print(
            f"form {form}, p={report.p}, box={report.B}, K={report.K}, V={report.V}"
        )
        for v in sorted(report.coverage):
            print(f"  valuation {v:+d}: coverage {report.coverage[v]:.3f}")
        print(
            "  quotient valuation residues mod n:",
            sorted(report.quotient_valuation_residues),
        )
    if args.check:
        verdict = decide(form, args.p, budget=budget)
        print(f"engine verdict: {verdict.status}")
        if verdict.certificate is not None:
            result = check_certificate(verdict.certificate, report)
            if result.consistent:
                print(f"certificate check: consistent ({result.detail})")
            else:
                print(f"certificate check: CONTRADICTION ({result.detail})")
                print(f"  witness pair: {result.witness}")
                return EXIT_CONTRADICTION
        else:
            print("certificate check: nothing to check (no certificate)")
    return 0


def _survey_rows(args, budget: int):
    if args.input:
        try:
            handle = open(args.input)
        except OSError as exc:
            raise ValueError(f"cannot read {args.input}: {exc.strerror}") from None
        with handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    query = json.loads(line)
                    n, coeffs, p = query["n"], query["coeffs"], query["p"]
                    ok = type(coeffs) is list and (
                        set(map(type, (n, p, *coeffs))) == {int}
                    )
                except (json.JSONDecodeError, KeyError, TypeError):
                    ok = False
                if not ok:
                    raise ValueError(
                        f"{args.input} line {lineno}: expected "
                        '{"n": int, "coeffs": [int, ...], "p": int}'
                    )
                yield n, tuple(coeffs), p
    else:
        lo, hi = args.coeff_range
        width = max(hi - lo + 1 - (lo <= 0 <= hi), 0)  # nonzero coefficients
        grid = len(args.n_list) * len(args.p_list)
        what = f"survey grid of {grid}*{width}^{args.vars} forms"
        charge(budget, what, grid * charge(budget, what, width, args.vars))
        coeff_values = [c for c in range(lo, hi + 1) if c != 0]
        for n in args.n_list:
            for p in args.p_list:
                for coeffs in itertools.product(coeff_values, repeat=args.vars):
                    yield n, coeffs, p


def cmd_survey(args) -> int:
    if not args.input and not (args.n_list and args.p_list and args.coeff_range):
        raise ValueError(
            "survey needs --input FILE or all of --n-list/--p-list/--coeff-range"
        )
    budget = _budget(args)
    rows = []
    for n, coeffs, p in _survey_rows(args, budget):
        status = rule = certificate = error = ""
        try:
            verdict = decide(DiagonalForm(n, coeffs), p, budget=budget)
            status, rule = verdict.status, verdict.deciding_rule
            if verdict.certificate is not None:
                certificate = type(verdict.certificate).__name__
        except (BudgetExceeded, ValueError) as exc:
            error = str(exc)
        rows.append(
            {
                "n": n,
                "coeffs": ",".join(map(str, coeffs)),
                "p": p,
                "status": status,
                "rule": rule,
                "certificate": certificate,
                "error": error,
            }
        )
    if args.json:
        # json.dumps(rows, indent=2) byte for byte, from the C encoder (indent
        # selects the pure-Python one).  Rows are flat, so the separator
        # indents their items; "},\n    {" is then a row boundary, because an
        # encoded string never holds a raw newline, and gets the list indent.
        body = _ROW_ENCODER.encode(rows)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
        print("[\n  {\n    " + body + "\n  }\n]" if rows else "[]")
    else:
        writer = csv.DictWriter(
            sys.stdout,
            fieldnames=["n", "coeffs", "p", "status", "rule", "certificate", "error"],
        )
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_lift(args) -> int:
    try:
        c = Fraction(args.c)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational {args.c!r}") from None
    if c == 0:
        raise ValueError("c must be nonzero")
    # The root and modulus are printed in decimal, which Python refuses past
    # its int-to-str digit limit (0 or absent before 3.10.7: none).  p >= 2
    # has p^prec >= 2^prec > 10^limit once prec > 4*limit, so only smaller
    # powers are built for the exact test.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    p = as_prime(args.p)
    if limit and (args.prec > 4 * limit or p**args.prec >= 10**limit):
        raise ValueError(
            f"--prec {args.prec}: {p}^{args.prec} has more than {limit} digits, "
            "past Python's int-to-str limit"
        )
    try:
        if valuation(c, p) < 0:
            raise NoRoot(f"x^{args.n} = {c} has no solution in Z_{p}")
        root = nth_root_in_Zp(c, args.n, p, args.prec, budget=_budget(args))
    except NoRoot as exc:
        print(f"NoRoot: {exc}", file=sys.stderr)
        return 1
    modulus = p**args.prec
    if args.json:
        print(
            json.dumps(
                {"root": root, "modulus": modulus, "p": p, "prec": args.prec}
            )
        )
    else:
        print(f"x = {root}  (x^{args.n} = {c} mod {p}^{args.prec})")
    return 0


def cmd_residues(args) -> int:
    members = sorted(nth_power_residues(args.n, args.p, args.M, budget=_budget(args)))
    if args.json:
        print(
            json.dumps(
                {"n": args.n, "p": args.p, "M": args.M, "members": members}
            )
        )
    else:
        print(
            f"{args.n}th-power residues mod {args.p}^{args.M}: "
            f"{members} ({len(members)} classes)"
        )
    return 0


def cmd_aniso(args) -> int:
    form = _form_from_args(args)
    aniso, witness = is_anisotropic_mod_p(form, args.p, budget=_budget(args))
    if args.json:
        print(
            json.dumps(
                {
                    "anisotropic": aniso,
                    "witness": list(witness) if witness else None,
                }
            )
        )
    else:
        if aniso:
            print(f"{form} is anisotropic mod {args.p}")
        else:
            print(f"{form} is isotropic mod {args.p}: witness {witness}")
    return 0


def _add_form_args(sub):
    sub.add_argument(
        "--n", type=_int_at_least(1), required=True, help="degree of the form"
    )
    sub.add_argument(
        "--coeffs",
        type=_int_list,
        required=True,
        help="comma-separated nonzero coefficients",
    )
    sub.add_argument("--p", type=int, required=True, help="prime")


@functools.cache
def build_parser() -> _Parser:
    """The qdense parser, built once per process: parse_args keeps no state."""
    parser = _Parser(prog="qdense", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_decide = subs.add_parser("decide", help="decide denseness of R(F) in Q_p")
    _add_form_args(p_decide)
    p_decide.add_argument("--json", action="store_true")
    p_decide.set_defaults(func=cmd_decide)

    p_oracle = subs.add_parser("oracle", help="brute-force coverage report")
    _add_form_args(p_oracle)
    p_oracle.add_argument("--box", "-B", type=_int_at_least(0), default=50)
    p_oracle.add_argument("--K", type=_int_at_least(1), default=2)
    p_oracle.add_argument(
        "--V", type=_int_at_least(0), default=None, help="default: n"
    )
    p_oracle.add_argument(
        "--check",
        action="store_true",
        help="also run the engine and validate its certificate",
    )
    oracle_format = p_oracle.add_mutually_exclusive_group()
    oracle_format.add_argument("--json", action="store_true")
    oracle_format.add_argument("--csv", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_survey = subs.add_parser("survey", help="verdict table for many forms")
    p_survey.add_argument("--input", help="JSON-lines file of {n, coeffs, p}")
    p_survey.add_argument("--n-list", type=_int_list, default=None)
    p_survey.add_argument("--p-list", type=_int_list, default=None)
    p_survey.add_argument(
        "--coeff-range",
        nargs=2,
        type=int,
        metavar=("LO", "HI"),
        default=None,
    )
    p_survey.add_argument("--vars", type=_int_at_least(1), default=2)
    p_survey.add_argument("--json", action="store_true")
    p_survey.set_defaults(func=cmd_survey)

    p_lift = subs.add_parser(
        "lift", help="constructive nth-root witness mod p^prec"
    )
    p_lift.add_argument("--c", required=True, help="rational, e.g. -1 or 8/27")
    p_lift.add_argument("--n", type=_int_at_least(1), required=True)
    p_lift.add_argument("--p", type=int, required=True)
    p_lift.add_argument("--prec", type=_int_at_least(1), required=True)
    p_lift.add_argument("--json", action="store_true")
    p_lift.set_defaults(func=cmd_lift)

    p_res = subs.add_parser("residues", help="dump nth-power residues mod p^M")
    p_res.add_argument("--n", type=_int_at_least(1), required=True)
    p_res.add_argument("--p", type=int, required=True)
    p_res.add_argument("--M", type=int, required=True)
    p_res.add_argument("--json", action="store_true")
    p_res.set_defaults(func=cmd_residues)

    p_aniso = subs.add_parser("aniso", help="exhaustive anisotropy check mod p")
    _add_form_args(p_aniso)
    p_aniso.add_argument("--json", action="store_true")
    p_aniso.set_defaults(func=cmd_aniso)

    for sub in subs.choices.values():
        sub.add_argument("--budget", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
