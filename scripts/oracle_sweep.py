"""Check every digit the catalog's reports print against oracles.

Each side of each identity is taken as `hyperid verify` prints it in its
report, and evaluated once more for its value and err_estimate. It is
checked against two oracles:

  independent  the same side at digits + 20 with every series summed by
               mpmath instead of the engine: unilateral pFq by `hyper`,
               bilateral 2H2 by `bihyper`, phi by `qhyper` (a terminating
               phi by its finite sum of `qp` products), psi by the sum over
               k = -N..N of its terms built from `qp`, and every infinite
               q-product by `qp`. Gamma ratios are mpmath's already. The
               exact sides of `saalschuetz`, `theorem-1-b-neg-n` and
               `jackson-8phi7` have their own (TERMINATING): the terminating
               3F2 by `hyper` and the Pochhammer ratio by `rf` products;
               the 8phi7 as the finite sum of its terms built from `qp`,
               with the very-well-poised pairs +-q sqrt(a) over +-sqrt(a)
               among its parameters, and its bracket by `qp` products.
  3x           the same side at three times the working digits on the
               engine's own routes, with its infinite q-products from `qp`.

A printed part, real or imaginary, is off when it misses an oracle's by more
than one unit in its last printed place. A side whose oracle is exactly 0
has no right digits to print; it is counted apart and is off when its
printed modulus exceeds its err_estimate.

Each run also reports, for each oracle, the largest relative gap between the
two sides of a sample, which the identity says is 0; the largest relative
error of a series the engine summed against mpmath's sum of the same series
(the parameters the engine received, at digits + 20), which isolates the
summation from the rounding of the parameters; and for each id the smallest
margin of the verdict: how many digits the sample's rel_err lies below the
pass bound 10^-digits (negative when a verdict failed).

Run from the repository root; without options it sweeps every id at sample
indices 0-19, seeds 0-3 at 30 digits and seeds 0-1 at 60 digits, except the
ids in SLOW, whose independent oracles take 3-20 s a series (`hyper` at
z = 1, `bihyper`, the psi sum): they run at seed 0, indices 0 and 9 (real
and complex) at 30 digits and index 0 at 60 digits, 2 of 80 and 1 of 40
samples. Given --seeds or --indices, every id runs at all of them:

    PYTHONPATH=src python scripts/oracle_sweep.py
    PYTHONPATH=src python scripts/oracle_sweep.py --digits 30 --seeds 3 --indices 9 --ids saalschuetz

Prints one line per side that is off or failed and a summary per run, and
exits 1 when any side is off or failed.
"""

import argparse
import contextlib
import math
import re
import sys
from unittest import mock

import mpmath
from mpmath import mp, mpf

from hyperid import catalog, qseries
from hyperid.catalog import CATALOG
from hyperid.harness import sample_parameters, verify_one
from hyperid.precision import PrecisionContext, to_mp
from hyperid.series import SeriesResult, mp_parameters

SLOW = ("saalschuetz-nt", "dougall-2h2", "dixon", "theorem-1", "theorem-1-ca-db", "phi-as-3f2",
        "h22-split", "bailey-6psi6")


def _qp(x, q, k):
    """(x;q)_k for any integer k, by mpmath.qp."""
    return mpmath.qp(x, q, k) if k >= 0 else 1 / mpmath.qp(x * q**k, q, -k)


def _psi_sum(uppers, lowers, q, z):
    """sum_k prod (a;q)_k / (b;q)_k z^k over k = -N..N, each term built from
    mpmath.qp, until the terms on both sides stay below 10^-(dps+5) |sum|."""
    total, k, small = mpf(0), 0, 0
    while small < 4:
        for j in ((k,) if k == 0 else (k, -k)):
            term = z**j
            for a, b in zip(uppers, lowers):
                term *= _qp(a, q, j) / _qp(b, q, j)
            total += term
            small = small + 1 if abs(term) < mpf(10) ** -(mp.dps + 5) * abs(total) else 0
        k += 1
        if k > 20000:
            raise RuntimeError("psi oracle did not converge")
    return total


def _phi_sum(uppers, lowers, q, z, n):
    """The finite phi sum over k = 0..n, each term built from mpmath.qp."""
    extra = len(lowers) - len(uppers) + 1
    total = mpf(0)
    for k in range(n + 1):
        term = z**k * ((-1) ** k * q ** (k * (k - 1) // 2)) ** extra / mpmath.qp(q, q, k)
        for a in uppers:
            term *= mpmath.qp(a, q, k)
        for b in lowers:
            term /= mpmath.qp(b, q, k)
        total += term
    return total


def _last_term(uppers, q, z):
    """The n after which every term of a phi series vanishes: 0 at z = 0,
    else the least n >= 0 with a q^n = 1 exactly for an upper a (the factor
    1 - a q^n of every later term), or None. Exact on the dyadic mp
    numbers; mpmath.qhyper never stops on the zero terms of such a series."""
    if z == 0:
        return 0
    ends = []
    for a in uppers:
        power, n = a, 0
        while abs(power) >= 1:
            if power == 1:
                ends.append(n)
                break
            power, n = mpmath.fmul(power, q, exact=True), n + 1
    return min(ends, default=None)


def mpmath_series(spec, ctx_or_qc):
    """mpmath's sum of a series spec at the ambient precision."""
    ups, lows, z = mp_parameters(spec)
    if spec.kind == "unilateral":
        return mpmath.hyper(ups, lows, z)
    if spec.kind == "bilateral":
        return mpmath.bihyper(ups, lows, z)
    q = to_mp(ctx_or_qc.q)
    if spec.kind == "psi":
        return _psi_sum(ups, lows, q, z)
    n = _last_term(ups, q, z)
    if n is not None:
        return _phi_sum(ups, lows, q, z, n)
    return mpmath.qhyper(ups, lows, q, z)


def _rf_ratio(numers, denoms, n):
    """prod (x)_n / prod (y)_n by mpmath.rf."""
    return mpmath.fprod(mpmath.rf(x, n) for x in numers) / mpmath.fprod(
        mpmath.rf(y, n) for y in denoms)


def _terminating_3f2(uppers, lowers):
    """The terminating 3F2 at 1 by mpmath.hyper, taken as 0 when its terms
    cancel by more than 4x the working bits: hyper cannot otherwise end on
    an exact 0. A sum wrongly taken as 0 shows as a side off, since the
    exact side must then be 0 too."""
    return mpmath.hyper(uppers, lowers, 1, zeroprec=4 * mp.prec)


def _jackson_8phi7(a, b, c, d, q, n):
    """The terminating very-well-poised 8phi7 with e = q^(1+n) a^2 / (b c d)
    by `_phi_sum`, at the argument q."""
    r, e = mpmath.sqrt(a), q ** (1 + n) * a**2 / (b * c * d)
    return _phi_sum([a, q * r, -q * r, b, c, d, e, q**-n],
                    [r, -r, q * a / b, q * a / c, q * a / d, q * a / e, q ** (1 + n) * a], q, q, n)


def _qp_ratio(numers, denoms, q, n):
    """prod (x;q)_n / prod (y;q)_n by mpmath.qp."""
    return mpmath.fprod(mpmath.qp(x, q, n) for x in numers) / mpmath.fprod(
        mpmath.qp(y, q, n) for y in denoms)


# id -> (lhs, rhs) of an exact entry, by mpmath from its parameters
TERMINATING = {
    "saalschuetz": (
        lambda a, b, c, n: _terminating_3f2([a, b, -n], [c, 1 + a + b - c - n]),
        lambda a, b, c, n: _rf_ratio([c - a, c - b], [c, c - a - b], n),
    ),
    "theorem-1-b-neg-n": (
        lambda a, c, d, n: _terminating_3f2([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n]),
        lambda a, c, d, n: _rf_ratio([1 - c, 1 - d], [1 - a - c, 1 - a - d], n),
    ),
    "jackson-8phi7": (
        _jackson_8phi7,
        lambda a, b, c, d, q, n: _qp_ratio([q * a, q * a / (b * c), q * a / (b * d), q * a / (c * d)],
                                           [q * a / b, q * a / c, q * a / d, q * a / (b * c * d)],
                                           q, n),
    ),
}


def _ctx_of(ctx_or_qc):
    return getattr(ctx_or_qc, "ctx", ctx_or_qc)


def _oracle_sum(spec, ctx_or_qc):
    with _ctx_of(ctx_or_qc).working():
        return SeriesResult(mpmath_series(spec, ctx_or_qc), mpf(0), 0, "oracle")


@contextlib.contextmanager
def _patched(replacement, qp=True):
    """Every series sum of the catalog through replacement(original, spec,
    ctx or QContext), and every infinite q-product from mpmath.qp if qp."""
    names = ("sum_unilateral", "sum_bilateral", "sum_q_series")
    with contextlib.ExitStack() as stack:
        if qp:
            stack.enter_context(
                mock.patch.object(qseries, "_infinite_product", lambda x, q, _: mpmath.qp(x, q)))
        for name in names:
            original = getattr(catalog, name)
            stack.enter_context(mock.patch.object(
                catalog, name, lambda spec, c, f=original: replacement(f, spec, c)))
        yield


def oracles(case, params, ctx):
    """((lhs, rhs) independent, (lhs, rhs) at 3x digits) of one sample."""
    # working precision digits + 20
    high = PrecisionContext(digits=ctx.digits + 10, max_terms=ctx.max_terms)
    if case.id in TERMINATING:
        with high.working():
            args = {k: v if k == "n" else to_mp(v) for k, v in params.items()}
            independent = tuple(side(**args) for side in TERMINATING[case.id])
    else:
        with _patched(lambda _, spec, c: _oracle_sum(spec, c)):
            independent = case.lhs(params, high).value, case.rhs(params, high).value
    triple = PrecisionContext(digits=3 * ctx.digits, max_terms=ctx.max_terms)
    with _patched(lambda f, spec, c: f(spec, c)):
        return independent, (case.lhs(params, triple).value, case.rhs(params, triple).value)


def engine_sides(case, params, ctx):
    """(lhs, rhs) results at ctx, and the relative error of each series the
    engine summed for them against mpmath's sum of the same spec at
    digits + 20 (0 when mpmath's is 0)."""
    errors = []

    def recorded(f, spec, c):
        result = f(spec, c)
        with mp.workdps(_ctx_of(c).digits + 20):
            exact = mpmath_series(spec, c)
            errors.append(abs(result.value - exact) / abs(exact) if exact else mpf(0))
        return result

    with _patched(recorded, qp=False):
        return (case.lhs(params, ctx), case.rhs(params, ctx)), errors


def ulps_off(printed: str, oracle, digits: int):
    """The largest miss, in units of the last printed place, of the printed
    parts (real, then imaginary when printed) against the oracle's. The
    printed text is read, and the miss taken, at digits + 10 whatever the
    ambient precision."""
    m = re.fullmatch(r"(\S+) ([+-]) (\S+)j", printed)
    parts = [(m[1], oracle.real), (m[2] + m[3], oracle.imag)] if m else [(printed, mpmath.re(oracle))]
    worst = mpf(0)
    with mp.workdps(digits + 10):
        for text, exact in parts:
            x = mpf(text)
            size = abs(x) or abs(oracle)
            ulp = mpf(10) ** (int(mpmath.floor(mpmath.log10(size))) - digits + 1)
            worst = max(worst, abs(x - exact) / ulp)
    return worst


class _Worst:
    """The largest value seen, and where."""

    def __init__(self):
        self.value, self.at = mpf(0), None

    def see(self, value, at):
        if value >= self.value:
            self.value, self.at = value, at

    def __str__(self):
        return f"{mpmath.nstr(self.value, 3)} ({self.at})"


def sweep(digits, samples):
    """Check one run over the (id, seed, index) samples; returns the number
    of sides off or failed."""
    ctx = PrecisionContext(digits=digits)
    sides = zero_sides = bad = series = 0
    worst = {"independent": _Worst(), "3x": _Worst()}
    gap = {"independent": _Worst(), "3x": _Worst()}
    summed = _Worst()
    margins = {}  # id -> (smallest margin in digits, seed, index, rel_err)
    for ident, seed, index in samples:
        case = CATALOG[ident]
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
            results, errors = engine_sides(case, params, ctx)
            truths = dict(zip(("independent", "3x"), oracles(case, params, ctx)))
        except Exception as exc:
            print(f"{digits} digits, {at}: FAILED {type(exc).__name__}: {exc}")
            bad += 1
            continue
        series += len(errors)
        for err in errors:
            summed.see(err, at)
        with mp.workdps(4 * ctx.dps):
            for name, (lhs, rhs) in truths.items():
                if rhs != 0:
                    gap[name].see(abs(lhs - rhs) / abs(rhs), at)
            for i, (side, result) in enumerate(zip(("lhs", "rhs"), results)):
                sides += 1
                printed = getattr(report, side)
                zero_sides += truths["independent"][i] == 0
                for name, pair in truths.items():
                    truth = pair[i]
                    if truth == 0:
                        off = abs(result.value) > result.err_estimate
                        miss = f"|value| {mpmath.nstr(abs(result.value), 3)} " \
                               f"against err_estimate {mpmath.nstr(result.err_estimate, 3)}"
                    else:
                        ulps = ulps_off(printed, truth, digits)
                        worst[name].see(ulps, f"{at} {side}")
                        off = ulps > 1
                        miss = f"{mpmath.nstr(ulps, 3)} ulp"
                    if off:
                        bad += 1
                        print(f"{digits} digits, {at} {side}: OFF by {miss} against the "
                              f"{name} oracle, printed {printed}, oracle "
                              f"{mpmath.nstr(truth, digits + 5)}")
    print(f"{digits} digits, {len(samples)} samples: {sides} sides, {zero_sides} of value 0; "
          f"off or failed: {bad}")
    for name in worst:
        print(f"  {name} oracle: worst {worst[name]} ulp; largest lhs/rhs gap {gap[name]}")
    print(f"  largest error of {series} engine series against mpmath on the same "
          f"parameters: {summed}")
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
    parser.add_argument("--indices", type=int, nargs="+", help="sample indices (default: 0-19)")
    parser.add_argument("--ids", nargs="+", default=list(CATALOG), choices=list(CATALOG))
    args = parser.parse_args(argv)
    bad = 0
    for digits in [args.digits] if args.digits else [30, 60]:
        seeds = args.seeds or list(range(4 if digits == 30 else 2))
        samples = [(ident, seed, index) for ident in args.ids for seed in seeds
                   for index in args.indices or range(20)]
        if not (args.seeds or args.indices):
            slow = [(seeds[0], 0), (seeds[0], 9)][:2 if digits == 30 else 1]
            samples = [s for s in samples if s[0] not in SLOW or s[1:] in slow]
        bad += sweep(digits, samples)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
