"""Check every digit the catalog's reports print against oracles.

Each side of each identity is taken as `hyperid verify` prints it in its
report, and evaluated once more for its value and err_estimate. Its
oracle is mpmath `hyper` at twice the working precision for the float sides
of the terminating 3F2 identities (the complex samples of `saalschuetz` and
`theorem-1-b-neg-n`), and the same side evaluated at three times the
working digits for every other side, with every infinite q-product
(x;q)_inf of those 3x evaluations taken from mpmath `qp` instead of the
engine's own Euler series. A printed part, real or imaginary, is
off when it misses the oracle's by more than one unit in its last printed
place. A side whose oracle is exactly 0 has no right digits to print; it is
counted apart and is off when its printed modulus exceeds its err_estimate.
Each run also gives the largest relative gap between the two oracles of a
sample, which the identity says is 0, and for each id the smallest margin of
the verdict: how many digits the sample's rel_err lies below the pass bound
10^-digits (negative when a verdict failed).

Run from the repository root; without options it sweeps every id at sample
indices 0-19, seeds 0-3 at 30 digits and seeds 0-1 at 60 digits:

    PYTHONPATH=src python scripts/oracle_sweep.py
    PYTHONPATH=src python scripts/oracle_sweep.py --digits 30 --seeds 3 --indices 9 --ids saalschuetz

Prints one line per side that is off or failed and a summary per run, and
exits 1 when any side is off or failed.
"""

import argparse
import math
import re
import sys
from fractions import Fraction
from unittest import mock

import mpmath
from mpmath import mp, mpf

from hyperid import qseries
from hyperid.catalog import CATALOG
from hyperid.harness import sample_parameters, verify_one
from hyperid.precision import PrecisionContext, to_mp

FLOAT_3F2 = {
    "saalschuetz": lambda a, b, c, n: ([a, b, -n], [c, 1 + a + b - c - n]),
    "theorem-1-b-neg-n": lambda a, c, d, n: ([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n]),
}


def oracles(case, params, ctx):
    """(lhs oracle, rhs oracle, name of the lhs oracle) of one sample."""
    high = PrecisionContext(digits=3 * ctx.digits, max_terms=ctx.max_terms)
    with mock.patch.object(qseries, "_infinite_product", lambda x, q, _: mpmath.qp(x, q)):
        rhs = case.rhs(params, high).value
        if case.id in FLOAT_3F2 and not all(
                isinstance(v, Fraction) for k, v in params.items() if k != "n"):
            with mp.workdps(2 * ctx.dps):
                mp_params = {k: v if k == "n" else to_mp(v) for k, v in params.items()}
                return mpmath.hyper(*FLOAT_3F2[case.id](**mp_params), 1), rhs, "hyper"
        return case.lhs(params, high).value, rhs, "3x"


def ulps_off(printed: str, oracle, digits: int):
    """The largest miss, in units of the last printed place, of the printed
    parts (real, then imaginary when printed) against the oracle's."""
    m = re.fullmatch(r"(\S+) ([+-]) (\S+)j", printed)
    parts = [(m[1], oracle.real), (m[2] + m[3], oracle.imag)] if m else [(printed, mpmath.re(oracle))]
    worst = mpf(0)
    for text, exact in parts:
        x = mpf(text)
        size = abs(x) or abs(oracle)
        ulp = mpf(10) ** (int(mpmath.floor(mpmath.log10(size))) - digits + 1)
        worst = max(worst, abs(x - exact) / ulp)
    return worst


def sweep(digits, seeds, indices, ids):
    """Check one run; returns the number of sides off or failed."""
    ctx = PrecisionContext(digits=digits)
    sides = hyper_sides = zero_sides = bad = 0
    worst, worst_at, gap, gap_at = mpf(0), None, mpf(0), None
    margins = {}  # id -> (smallest margin in digits, seed, index, rel_err)
    for ident in ids:
        case = CATALOG[ident]
        for seed in seeds:
            for index in indices:
                params = sample_parameters(case, seed, index)
                at = f"{ident} seed {seed} index {index}"
                report = verify_one(case, params, ctx, index=index)
                rel = report.rel_err
                margin = -math.log10(rel) - digits if rel else math.inf
                if ident not in margins or margin < margins[ident][0]:
                    margins[ident] = (margin, seed, index, rel)
                if not report.passed:
                    print(f"{digits} digits, {at}: FAILED verdict {report.error or ''}")
                    bad += 1
                try:
                    results = case.lhs(params, ctx), case.rhs(params, ctx)
                    truths = oracles(case, params, ctx)
                except Exception as exc:
                    print(f"{digits} digits, {at}: FAILED {type(exc).__name__}: {exc}")
                    bad += 1
                    continue
                hyper_sides += truths[2] == "hyper"
                with mp.workdps(4 * ctx.dps):
                    if truths[1] != 0:
                        rel = abs(truths[0] - truths[1]) / abs(truths[1])
                        if rel >= gap:
                            gap, gap_at = rel, at
                    for side, result, truth in zip(("lhs", "rhs"), results, truths):
                        sides += 1
                        printed = getattr(report, side)
                        if truth == 0:
                            zero_sides += 1
                            off = abs(result.value) > result.err_estimate
                            miss = f"|value| {mpmath.nstr(abs(result.value), 3)} " \
                                   f"against err_estimate {mpmath.nstr(result.err_estimate, 3)}"
                        else:
                            ulps = ulps_off(printed, truth, digits)
                            if ulps >= worst:
                                worst, worst_at = ulps, f"{at} {side}"
                            off = ulps > 1
                            miss = f"{mpmath.nstr(ulps, 3)} ulp"
                        if off:
                            bad += 1
                            print(f"{digits} digits, {at} {side}: OFF by {miss}, "
                                  f"printed {printed}, oracle {mpmath.nstr(truth, digits + 5)}")
    print(f"{digits} digits, seeds {min(seeds)}-{max(seeds)}, {len(indices)} indices: "
          f"{sides} sides ({hyper_sides} lhs against mpmath.hyper, the rest against "
          f"themselves at {3 * digits} digits), {zero_sides} of value 0; worst "
          f"{mpmath.nstr(worst, 3)} ulp ({worst_at}); largest oracle lhs/rhs gap "
          f"{mpmath.nstr(gap, 3)} ({gap_at}); off or failed: {bad}")
    for ident, (margin, seed, index, rel) in margins.items():
        print(f"  {ident}: smallest verdict margin {margin:.2f} digits below 10^-{digits} "
              f"(seed {seed} index {index}, rel_err {rel:.2g})")
    sys.stdout.flush()
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digits", type=int, help="one run at these digits (default: 30 and 60)")
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="seeds (default: 0-3 at 30 digits, 0-1 otherwise)")
    parser.add_argument("--indices", type=int, nargs="+", default=list(range(20)))
    parser.add_argument("--ids", nargs="+", default=list(CATALOG), choices=list(CATALOG))
    args = parser.parse_args(argv)
    bad = 0
    for digits in [args.digits] if args.digits else [30, 60]:
        seeds = args.seeds or list(range(4 if digits == 30 else 2))
        bad += sweep(digits, seeds, args.indices, args.ids)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
