"""Command-line interface: evaluate a series, verify identities, list the catalog.

Exit codes: 0 success, 1 evaluation/verification failure, 2 usage or
configuration error. HYPERID_DIGITS overrides the default precision.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .qseries import QContext, sum_q_series
from .series import SeriesSpec, sum_bilateral, sum_unilateral


class _UsageError(Exception):
    """Bad command-line input, which `main` reports as a usage error."""


def default_digits() -> int:
    """HYPERID_DIGITS when set, else 30; a usage error when it is no integer."""
    env = os.environ.get("HYPERID_DIGITS")
    if not env:
        return 30
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"HYPERID_DIGITS must be an integer, not {env!r}") from None


def parse_scalar(text: str):
    """Parse 'RE', 'IMi' or 'RE+IMi' literals (i or j; IM may be left out
    for 1, and RE and IM may carry exponents) at the ambient precision."""
    text = text.strip()
    if not text.endswith(("i", "j")):
        return mpmath.mpf(text)
    body = text[:-1].rstrip()
    # the imaginary part opens at the last sign that opens neither the
    # literal nor an exponent
    cut = max((k for k in range(1, len(body))
               if body[k] in "+-" and body[k - 1] not in "eE"), default=0)
    re_part, im_part = body[:cut].rstrip(), body[cut:]
    if im_part[:1] in ("+", "-"):
        im_part = im_part[0] + (im_part[1:].lstrip() or "1")
    return mpmath.mpc(mpmath.mpf(re_part) if re_part else 0, mpmath.mpf(im_part or "1"))


def parse_list(text: str):
    text = (text or "").strip()
    if not text:
        return []
    return [parse_scalar(part) for part in text.split(",")]


def _cmd_eval(args) -> int:
    try:
        ctx = PrecisionContext(digits=args.digits, max_terms=args.max_terms)
        with mp.workdps(ctx.dps):
            try:
                uppers, lowers = parse_list(args.upper), parse_list(args.lower)
                z = parse_scalar(args.z)
                q = parse_scalar(args.q) if "q" in args else None
            except ValueError as exc:
                raise _UsageError(f"bad numeric literal ({exc})") from None
        spec = SeriesSpec(tuple(uppers), tuple(lowers), z, args.kind)
    except ValueError as exc:
        raise _UsageError(exc) from None
    if spec.kind == "unilateral":
        res = sum_unilateral(spec, ctx)
    elif spec.kind == "bilateral":
        res = sum_bilateral(spec, ctx)
    else:
        res = sum_q_series(spec, QContext(q, ctx))
    print(f"value: {format_value(res.value, args.digits)}")
    print(f"err_estimate: {mpmath.nstr(res.err_estimate, 3)}")
    print(f"terms_used: {res.terms_used}")
    print(f"method: {res.method}")
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise _UsageError("--samples must be >= 1")
    ids = tuple(part.strip() for part in args.identity.split(",") if part.strip())
    config = SuiteConfig(
        identities=ids or ("all",),
        samples=args.samples,
        seed=args.seed,
        digits=args.digits,
        max_terms=args.max_terms,
    )
    config.resolve_ids()
    try:
        config.context()
        sink = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except ValueError as exc:
        raise _UsageError(exc) from None
    except OSError as exc:  # before the suite runs, not after
        raise _UsageError(f"cannot write {args.out} ({exc.strerror})") from None
    with sink as fh:
        report = run_suite(config)
        if args.json:
            report.write_json(fh)
        else:
            fh.write(report.to_text())
        fh.write("\n")
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
    for name, kind, text in (
        ("pfq", "unilateral", "generalized hypergeometric series"),
        ("hseries", "bilateral", "bilateral hypergeometric series"),
        ("phi", "phi", "basic hypergeometric series"),
        ("psi", "psi", "bilateral basic hypergeometric series"),
    ):
        p = eval_sub.add_parser(name, help=text)
        p.add_argument("--upper", default="", help="comma-separated upper parameters")
        p.add_argument("--lower", default="", help="comma-separated lower parameters")
        p.add_argument("--z", default="1", help="series argument (RE or RE+IMi)")
        if name in ("phi", "psi"):
            p.add_argument("--q", required=True, help="nome, |q|<1")
        p.add_argument("--digits", type=int, default=default_digits())
        p.add_argument("--max-terms", type=int, default=PrecisionContext.max_terms)
        p.set_defaults(func=_cmd_eval, kind=kind)

    p_verify = sub.add_parser("verify", help="verify catalog identities on seeded samples")
    p_verify.add_argument("--identity", default="all",
                          help="identity id, comma-separated ids, or 'all'")
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--digits", type=int, default=default_digits())
    p_verify.add_argument("--max-terms", type=int, default=PrecisionContext.max_terms)
    p_verify.add_argument("--json", action="store_true", help="emit the JSON report schema")
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list", help="list the identity catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list)
    return parser


def _join_values(argv):
    """Join --upper/--lower/--z/--q to a value that opens with '-' ('-0.5,1',
    '-0.5+0.5i', '-i'), which argparse would take for an option."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--upper", "--lower", "--z", "--q") and re.match(r"-[\d.ij]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    return argv


def main(argv=None) -> int:
    """Run the command line argv and return its exit code, the one place where
    an error becomes a code and a line on stderr."""
    try:
        args = build_parser().parse_args(_join_values(argv))
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
        return exc.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UnknownIdentityError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HyperidError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry():
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # the reader left: no traceback, the rest of stdout to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
