"""Summation engine for generalized and bilateral hypergeometric series.

A unilateral series here is sum_{k>=0} of prod (a_i)_k / (k! prod (b_j)_k)
z^k; a bilateral series extends the sum over all integers k (with no k!).
Terms are always generated by the running term ratio (`exact.term_stream`),
one multiply/divide per parameter per term, never by recomputing Pochhammer
products.

Routes, chosen by convergence class:
  terminating  exact finite sum (an upper parameter is a nonpositive integer)
  geometric    direct summation with a geometric tail bound: every z when
               there are no more uppers than lowers, |z| < 1 with one upper
               more than lowers
  algebraic    |z| = 1 with decay exponent s > 1: direct summation plus an
               integral tail bound when the needed term count fits the
               budget, otherwise the Levin u-transform
Bilateral sums are split at k = 0; the negative tail becomes a unilateral
series with reflected parameters via (x)_{-k} = (-1)^k / (1-x)_k.

The routes here and in `qseries` share their summation steps: `partial_sum`
(the loop that stops after three small terms), `sum_terminating`, the
direct route with its geometric tail bound `sum_direct`, the reflected
prefactor of a split's negative tail `reflected_factors` and the bilateral
recombination `join_halves`, whose method ranking `combined_method` also
labels the catalog's sums of sides.

Error estimates are heuristic, not certified; callers compare at tolerances
well above them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import mpmath
from mpmath import mp, mpf

from .accel import levin_core
from .errors import (
    BudgetExceeded,
    DivergentError,
    IndeterminateError,
    LowerPoleError,
    NotConvergent,
    PoleError,
)
from .exact import term_stream
from .precision import PrecisionContext, nonpositive_int, to_mp


@dataclass(frozen=True)
class SeriesSpec:
    """Parameter lists and argument of a (bi)lateral hypergeometric series."""

    uppers: tuple
    lowers: tuple
    argument: object
    kind: str = "unilateral"  # or "bilateral"

    def __post_init__(self):
        if self.kind not in ("unilateral", "bilateral"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if self.kind == "unilateral" and len(self.uppers) < 1:
            raise ValueError("unilateral series needs at least one upper parameter")
        if self.kind == "bilateral" and len(self.uppers) != len(self.lowers):
            raise ValueError("bilateral series requires equal parameter counts")
        object.__setattr__(self, "uppers", tuple(self.uppers))
        object.__setattr__(self, "lowers", tuple(self.lowers))


@dataclass(frozen=True)
class ConvergenceClass:
    tag: str  # terminating | geometric | algebraic | divergent
    n: Optional[int] = None  # terminating index
    ratio: object = None  # floor of the geometric route's tail ratio (mpf)
    exponent: object = None  # real decay exponent s at |z| = 1 (mpf)


@dataclass
class SeriesResult:
    value: object
    err_estimate: object
    terms_used: int
    method: str  # terminating | direct | direct+tail | levin


_DIRECT_CAP = 20_000  # direct algebraic summation beyond this is slower than Levin


def tail_bound_algebraic(K: int, s, last_term_mag):
    """Integral-comparison bound on sum_{k>K} C k^-s given |term_K|.

    The bound is last_term_mag * K / (s - 1); monotone in each argument.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    s = to_mp(s)
    if not s > 1:
        raise ValueError("tail bound requires s > 1")
    return to_mp(last_term_mag) * K / (s - 1)


def _unit_argument(spec: SeriesSpec, offset) -> ConvergenceClass:
    """The class at |z| = 1, carrying the decay exponent
    s = Re(sum lowers + offset - sum uppers): algebraic when s > 1, else
    divergent."""
    s = sum(to_mp(b) for b in spec.lowers) + offset - sum(to_mp(a) for a in spec.uppers)
    s = s.real if hasattr(s, "real") else s
    return ConvergenceClass("algebraic" if s > 1 else "divergent", exponent=s)


def classify(spec: SeriesSpec) -> ConvergenceClass:
    """Convergence class of a series spec.

    Terminating when an upper parameter is a nonpositive integer (bilateral
    series additionally need a positive-integer lower parameter to cut the
    negative tail). A unilateral series with p uppers and q lowers is
    otherwise balanced by its parameter counts: p <= q converges for every
    z (geometric, tail-ratio floor 0), p > q + 1 only at z = 0, and
    p = q + 1 for |z| < 1 (geometric, floor |z|). At |z| = 1 the decay
    exponent is Re(sum lowers + 1 - sum uppers) for balanced unilateral
    series and Re(sum lowers - sum uppers) for bilateral ones; exponents
    <= 1 diverge. Runs at the ambient precision; the engines call it at
    working precision.
    """
    ns = [nonpositive_int(u) for u in spec.uppers]
    term_n = min((n for n in ns if n is not None), default=None)
    az = abs(to_mp(spec.argument))
    if spec.kind == "unilateral":
        if term_n is not None:
            return ConvergenceClass("terminating", n=term_n)
        excess = len(spec.uppers) - len(spec.lowers) - 1
        if excess < 0 or az == 0:
            return ConvergenceClass("geometric", ratio=mpf(0))
        if excess == 0 and az < 1:
            return ConvergenceClass("geometric", ratio=az)
        if excess == 0 and az == 1:
            return _unit_argument(spec, 1)
        return ConvergenceClass("divergent")
    # bilateral
    low_cut = None
    for b in spec.lowers:
        m = nonpositive_int(-to_mp(b))  # positive integer lower
        if m is not None and m > 0:
            low_cut = m if low_cut is None else min(low_cut, m)
    if term_n is not None and low_cut is not None:
        return ConvergenceClass("terminating", n=term_n)
    if az == 1:
        return _unit_argument(spec, 0)
    return ConvergenceClass("divergent")


def _lower_pole_check(uppers, lowers, term_n):
    """Reject lower parameters that hit zero before the terminating index."""
    for b in lowers:
        m = nonpositive_int(b)
        if m is None:
            continue
        if term_n is None or m < term_n:
            raise LowerPoleError(
                f"lower parameter {b} is a nonpositive integer reached before termination"
            )


def partial_sum(terms, ctx: PrecisionContext, limit: int):
    """Add terms until three in a row fall below eps*|total|, or until
    `limit` terms are used; the iterator is left after the last term used.

    Returns (total, peak |term|, terms used, last term, the term before it
    or None, and whether the small-term rule stopped the sum).
    """
    stop_eps = ctx.eps()
    total = peak = mpf(0)
    last = prev = None
    used = small_run = 0
    for t in terms:
        total = total + t
        peak = max(peak, abs(t))
        used += 1
        prev, last = last, t
        scale = abs(total) if total != 0 else mpf(1)
        if abs(t) < stop_eps * scale:
            small_run += 1
            if small_run >= 3:
                return total, peak, used, last, prev, True
        else:
            small_run = 0
        if used >= limit:
            break
    return total, peak, used, last, prev, False


def sum_terminating(terms, ctx: PrecisionContext) -> SeriesResult:
    """Sum a finite term stream; the error is the rounding of its additions."""
    total = peak = mpf(0)
    used = 0
    for t in terms:
        total = total + t
        peak = max(peak, abs(t))
        used += 1
    return SeriesResult(total, peak * ctx.eps() * (used + 1), used, "terminating")


def sum_direct(terms, ctx: PrecisionContext, floor) -> SeriesResult:
    """Sum a convergent term stream directly, up to ctx.max_terms terms.

    The tail after the last term is bounded geometrically with the ratio
    rho = max(floor, |last/prev|), or floor after a zero term (every later
    term is zero then); rho >= 1 raises BudgetExceeded. Callers pass floor
    = |z| for a balanced series, whose term ratio tends to z, and 0 for one
    whose ratio tends to 0.
    """
    total, peak, used, last, prev, settled = partial_sum(terms, ctx, ctx.max_terms)
    if not settled:
        raise BudgetExceeded(f"direct summation needs more than {ctx.max_terms} terms")
    rho = max(floor, abs(last) / abs(prev)) if last != 0 else floor
    if rho >= 1:
        raise BudgetExceeded(f"direct summation tail ratio {mpmath.nstr(rho, 5)} is not below 1")
    err = abs(last) * rho / (1 - rho) + peak * ctx.eps() * used
    return SeriesResult(total, err, used, "direct")


def combined_method(*methods) -> str:
    """The method label of a result combined from results with these
    methods: the least exact of them, levin, then direct+tail, then direct,
    then terminating."""
    return next((m for m in ("levin", "direct+tail", "direct") if m in methods), "terminating")


def join_halves(plus: SeriesResult, pref, minus) -> SeriesResult:
    """plus + pref * minus for a bilateral sum split at k = 0 (minus is None
    when the negative tail vanishes), under the halves' `combined_method`."""
    if minus is None:
        return plus
    value = plus.value + pref * minus.value
    err = plus.err_estimate + abs(pref) * minus.err_estimate
    method = combined_method(plus.method, minus.method)
    return SeriesResult(value, err, plus.terms_used + minus.terms_used, method)


def _levin(terms, ctx, accept_digits):
    """Levin u-transform at doubled working precision, accepting a stagnated
    estimate within 10^-accept_digits relative."""
    cap = min(4 * ctx.digits + 40, ctx.max_terms, 400)
    with mp.workdps(2 * ctx.dps + 10):
        value, err, used = levin_core(
            iter(terms),
            tol_target=mpf(10) ** (-(ctx.dps - 3)),
            accept_tol=mpf(10) ** (-accept_digits),
            cap=cap,
            err_floor=mpf(10) ** (-ctx.dps),
        )
    return SeriesResult(value, err, used, "levin")


def _sum_algebraic(uppers, lowers, z, ctx, s):
    gen = term_stream(uppers, lowers, z)
    total, peak, used, last, _, settled = partial_sum(gen, ctx, 48)
    # unsettled after the probe: sum on to the term count that the tail
    # bound needs (a zero term leaves no tail at all)
    if not settled and last != 0:
        scale = max(mpf(1), abs(total), peak)
        target = mpf(10) ** (-(ctx.digits + 4)) * scale
        c_coeff = abs(last) * mpf(used) ** s
        k_needed = (c_coeff / target) ** (1 / (s - 1))
        # the direct route is only worth it while it stays cheap; slowly
        # decaying series (small exponents) go to the accelerator, which
        # regenerates the terms at its boosted precision
        if k_needed > min(ctx.max_terms, _DIRECT_CAP):
            return _levin(term_stream(uppers, lowers, z), ctx, ctx.digits + 1)
        k_stop = max(used + 1, int(k_needed) + 1)
        for t in gen:
            total = total + t
            peak = max(peak, abs(t))
            used += 1
            last = t
            if used >= k_stop:
                break
            if used >= ctx.max_terms:
                raise BudgetExceeded(f"algebraic summation needs more than {ctx.max_terms} terms")
    err = tail_bound_algebraic(used, s, abs(last)) + peak * ctx.eps() * used
    return SeriesResult(total, err, used, "direct+tail")


def sum_unilateral(spec: SeriesSpec, ctx: PrecisionContext) -> SeriesResult:
    """Sum a unilateral series, dispatching on its convergence class."""
    if spec.kind != "unilateral":
        raise ValueError("sum_unilateral expects a unilateral spec")
    with ctx.working():
        cls = classify(spec)
        if cls.tag == "divergent":
            raise DivergentError("series diverges at the given argument")
        ups = [to_mp(u) for u in spec.uppers]
        lows = [to_mp(b) for b in spec.lowers]
        z = to_mp(spec.argument)
        _lower_pole_check(ups, lows, cls.n if cls.tag == "terminating" else None)
        if cls.tag == "terminating":
            return sum_terminating(term_stream(ups, lows, z, max_k=cls.n), ctx)
        if cls.tag == "geometric":
            return sum_direct(term_stream(ups, lows, z), ctx, cls.ratio)
        return _sum_algebraic(ups, lows, z, ctx, cls.exponent)


def reflected_factors(uppers, lowers, reflect, point: str):
    """(prod reflect(b) over lowers, prod reflect(a) over uppers): the
    prefactor parts of a bilateral sum's negative tail once split at k = 0.

    Returns None when the numerator vanishes (a lower parameter at `point`
    kills the whole tail); raises IndeterminateError when both vanish and
    PoleError when only the denominator does.
    """
    pnum = mpf(1)
    for b in lowers:
        pnum = pnum * reflect(b)
    pden = mpf(1)
    for a in uppers:
        pden = pden * reflect(a)
    if pnum == 0 and pden == 0:
        raise IndeterminateError(
            f"an upper and a lower parameter both equal {point}; cancel the pair first"
        )
    if pnum == 0:
        return None
    if pden == 0:
        raise PoleError(f"an upper parameter equal to {point} makes the negative tail singular")
    return pnum, pden


def split_bilateral(spec: SeriesSpec, ctx: PrecisionContext):
    """Split a bilateral series at k = 0.

    Returns (plus_spec, prefactor, minus_spec): the k >= 0 part as a
    unilateral spec (an extra upper 1 absorbs the k! of the unilateral
    definition), and the k <= -1 part re-expressed through the reflection
    (x)_{-k} = (-1)^k / (1-x)_k as prefactor * unilateral series at 1/z.
    minus_spec is None when the reflected prefactor is exactly zero (a lower
    parameter equal to 1 kills the whole negative tail).
    """
    if spec.kind != "bilateral":
        raise ValueError("split_bilateral expects a bilateral spec")
    with ctx.working():
        ups = [to_mp(u) for u in spec.uppers]
        lows = [to_mp(b) for b in spec.lowers]
        z = to_mp(spec.argument)
        if z == 0:
            raise DivergentError("bilateral series undefined at z = 0")
        plus = SeriesSpec((mpf(1), *ups), tuple(lows), z, "unilateral")
        reflected = reflected_factors(ups, lows, lambda x: 1 - x, "1")
        if reflected is None:
            return plus, mpf(0), None
        pnum, pden = reflected
        pref = pnum / pden / z
        minus = SeriesSpec(
            (mpf(1), *(2 - b for b in lows)),
            tuple(2 - a for a in ups),
            1 / z,
            "unilateral",
        )
        return plus, pref, minus


def sum_bilateral(spec: SeriesSpec, ctx: PrecisionContext) -> SeriesResult:
    """Sum a bilateral series by splitting at k = 0."""
    if spec.kind != "bilateral":
        raise ValueError("sum_bilateral expects a bilateral spec")
    with ctx.working():
        cls = classify(spec)
        if cls.tag == "divergent":
            if cls.exponent is not None:
                raise NotConvergent(f"bilateral decay exponent Re = {cls.exponent} is not > 1")
            raise DivergentError("bilateral series diverges at the given argument")
    plus, pref, minus = split_bilateral(spec, ctx)
    res_plus = sum_unilateral(plus, ctx)
    res_minus = sum_unilateral(minus, ctx) if minus is not None else None
    with ctx.working():
        return join_halves(res_plus, pref, res_minus)


def levin_u(terms, ctx: PrecisionContext) -> SeriesResult:
    """Levin u-transform of a term stream (terms, not partial sums).

    The table runs at doubled working precision to absorb its own
    cancellation. Terms supplied from outside carry the caller's rounding
    noise, which the table amplifies, so the acceptance threshold here is
    looser than the engine-internal one (the engine regenerates terms at the
    boosted precision itself). The reported err_estimate is the last
    diagonal difference. Raises AccelerationFailed when the estimate
    stagnates above tolerance.
    """
    return _levin(terms, ctx, max(ctx.digits - 8, 6))
