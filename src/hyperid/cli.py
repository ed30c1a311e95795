"""Command-line interface: evaluate a series, verify identities, list the catalog.

Exit codes: 0 success, 1 evaluation/verification failure, 2 usage or
configuration error. HYPERID_DIGITS overrides the default precision.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import mpmath
from mpmath import mp

from .catalog import CATALOG
from .errors import HyperidError, UnknownIdentityError
from .harness import SuiteConfig, run_suite
from .precision import PrecisionContext, format_value
from .qseries import QContext, QSeriesSpec, sum_q_series
from .series import SeriesSpec, sum_bilateral, sum_unilateral

_COMPLEX_RE = re.compile(r"^\s*([+-]?[^+-]+?)\s*([+-])\s*([^+-]+?)\s*[ij]\s*$")


def default_digits() -> int:
    """HYPERID_DIGITS when set, else 30; ValueError when it is no integer."""
    env = os.environ.get("HYPERID_DIGITS")
    if not env:
        return 30
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"HYPERID_DIGITS must be an integer, not {env!r}") from None


def parse_scalar(text: str):
    """Parse 'RE' or 'RE+IMi' complex literals at the ambient precision."""
    text = text.strip()
    m = _COMPLEX_RE.match(text)
    if m:
        re_part, sign, im_part = m.groups()
        im = mpmath.mpf(im_part)
        return mpmath.mpc(mpmath.mpf(re_part), -im if sign == "-" else im)
    if text.endswith(("i", "j")):
        return mpmath.mpc(0, mpmath.mpf(text[:-1] or "1"))
    return mpmath.mpf(text)


def parse_list(text: str):
    text = (text or "").strip()
    if not text:
        return []
    return [parse_scalar(part) for part in text.split(",")]


def _print_result(res, digits):
    print(f"value: {format_value(res.value, digits)}")
    print(f"err_estimate: {mpmath.nstr(res.err_estimate, 3)}")
    print(f"terms_used: {res.terms_used}")
    print(f"method: {res.method}")


def _terminates_at(uppers, q, n, ctx) -> bool:
    """Whether some upper parameter equals q^-n at working precision."""
    with ctx.working():
        return any(abs(a * q**n - 1) <= (n + 2) * ctx.eps() for a in uppers)


def _cmd_eval(args) -> int:
    q_series = args.series in ("phi", "psi")
    n = args.terminating if q_series else None
    try:
        ctx = PrecisionContext(digits=args.digits, max_terms=args.max_terms)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if n is not None and n < 0:
        print("usage error: --terminating must be >= 0", file=sys.stderr)
        return 2
    try:
        with mp.workdps(ctx.dps):
            uppers = parse_list(args.upper)
            lowers = parse_list(args.lower)
            z = parse_scalar(args.z)
            q = parse_scalar(args.q) if q_series else None
    except ValueError as exc:
        print(f"usage error: bad numeric literal ({exc})", file=sys.stderr)
        return 2
    try:
        if not q_series:
            kind = "unilateral" if args.series == "pfq" else "bilateral"
            spec = SeriesSpec(tuple(uppers), tuple(lowers), z, kind)
        else:
            if n is not None and not _terminates_at(uppers, q, n, ctx):
                raise ValueError(f"--terminating {n} needs an upper parameter equal to q^-{n}")
            spec = QSeriesSpec(tuple(uppers), tuple(lowers), z, args.series,
                               terminating_index=n)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        if spec.kind == "unilateral":
            res = sum_unilateral(spec, ctx)
        elif spec.kind == "bilateral":
            res = sum_bilateral(spec, ctx)
        else:
            res = sum_q_series(spec, QContext(q, ctx))
    except HyperidError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _print_result(res, args.digits)
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        print("usage error: --samples must be >= 1", file=sys.stderr)
        return 2
    ids = tuple(part.strip() for part in args.identity.split(",") if part.strip())
    config = SuiteConfig(
        identities=ids or ("all",),
        samples=args.samples,
        seed=args.seed,
        digits=args.digits,
        max_terms=args.max_terms,
    )
    try:
        config.resolve_ids()
        config.context()
    except UnknownIdentityError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report = run_suite(config)
    out = report.to_json() if args.json else report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0 if report.failed == 0 else 1


def _cmd_list(args) -> int:
    if args.json:
        payload = {
            "identities": [
                {
                    "id": case.id,
                    "description": case.description,
                    "params": case.schema,
                    "constraints": list(case.constraints),
                }
                for case in CATALOG.values()
            ]
        }
        print(json.dumps(payload, indent=2))
        return 0
    for case in CATALOG.values():
        print(case.id)
        print(f"    {case.description}")
        print(f"    params: {', '.join(f'{k}: {v}' for k, v in case.schema.items())}")
        for constraint in case.constraints:
            print(f"    constraint: {constraint}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperid",
        description="evaluate hypergeometric / q-series and verify the identity catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single series")
    eval_sub = p_eval.add_subparsers(dest="series", required=True)
    for name, text in (
        ("pfq", "generalized hypergeometric series"),
        ("hseries", "bilateral hypergeometric series"),
        ("phi", "basic hypergeometric series"),
        ("psi", "bilateral basic hypergeometric series"),
    ):
        p = eval_sub.add_parser(name, help=text)
        p.add_argument("--upper", default="", help="comma-separated upper parameters")
        p.add_argument("--lower", default="", help="comma-separated lower parameters")
        p.add_argument("--z", default="1", help="series argument (RE or RE+IMi)")
        if name in ("phi", "psi"):
            p.add_argument("--q", required=True, help="nome, |q|<1")
            p.add_argument("--terminating", type=int, default=None,
                           help="known terminating index n")
        p.add_argument("--digits", type=int, default=default_digits())
        p.add_argument("--max-terms", type=int, default=1_000_000)
        p.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="verify catalog identities on seeded samples")
    p_verify.add_argument("--identity", default="all",
                          help="identity id, comma-separated ids, or 'all'")
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--digits", type=int, default=default_digits())
    p_verify.add_argument("--max-terms", type=int, default=None)
    p_verify.add_argument("--json", action="store_true", help="emit the JSON report schema")
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list", help="list the identity catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    """Run the command line argv and return its exit code."""
    try:
        parser = build_parser()
    except ValueError as exc:  # a bad HYPERID_DIGITS
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
        return exc.code
    return args.func(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
