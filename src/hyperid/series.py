"""Summation engine for generalized and bilateral hypergeometric series.

A unilateral series here is sum_{k>=0} of prod (a_i)_k / (k! prod (b_j)_k)
z^k; a bilateral series extends the sum over all integers k (with no k!).
Terms are always generated by the running term ratio (`ratio_terms`), one
multiply per parameter per term, never by recomputing Pochhammer products.

Routes, chosen by convergence class:
  terminating  direct summation of every term of the finite stream (an
               upper parameter is a nonpositive integer), with no tail
  geometric    direct summation with a geometric tail bound: every z when
               there are no more uppers than lowers, |z| < 1 with one upper
               more than lowers; summed again at raised precision while its
               terms cancel by more than the digits kept beyond the
               reported ones, up to ten times the working precision
  algebraic    |z| = 1 with decay exponent s > 1: when a 48-term probe
               puts the terms needed below the direct cap, the first K
               terms summed directly plus the tail t_K f(K), where
               f(K) = T_K / t_K is an inverse factorial series on a
               banded int recurrence, `_factorial_tail` (direct+tail);
               otherwise the Levin u-transform, and direct+tail with
               K = max(48, dps + 20) where the transform fails, as it
               does when one of its terms rounds to 0
Bilateral sums are split at k = 0; the negative tail becomes a unilateral
series with reflected parameters via (x)_{-k} = (-1)^k / (1-x)_k, and the
series converges where both halves do, so each half's class decides. Both
engines' direct+tail sums run in `sum_direct`, with the geometric route's
passes: here the factorial tail after the probe's terms, in `qseries` a
nonterminating balanced phi series' tail ratio, a power series in q^K.

The term streams of both engines (`ratio_terms` here, `qseries.q_ratio_terms`)
run on Python ints scaled by 2^W, W = `precision.fixed_prec()`, the ambient
precision plus GUARD_BITS. Every exact dyadic and fixed-point value of both
engines is an int when real and a Gaussian int `Gauss` when complex, so one
path of + - * // << >> serves both; `dyadic` alone reads an mp number's
exact value (`precision.rounded` alone writes one), and `nonpositive_int`
through it decides every integer and pole test of both engines and of
`gammafn.gamma_ratio`. `fixed_terms`, their one stepping loop, takes each
step's ratio as ready products, num and den, of exact values, and rounds
each term once; a real stream steps one int, a complex one its two parts.
`partial_sum` adds the terms exactly, so the rounding of a sum is the bound
that `fixed_terms` states. The Levin transform reads the same terms,
generated at its raised precision, and sums them exactly too.

The routes here and in `qseries` share their summation steps: `partial_sum`
(the one loop that adds terms, of heads and of summed tails, on ints: to a
stream's end, to a limit or to three small terms in a row), `sum_direct`
(the one pass driver, for finite and infinite streams) with its geometric
tail bound or its summed tail, whose head K doubles while the tail does
not settle, and its precision passes against cancellation, the conversion
of a spec's parameters `mp_parameters`, the reflected prefactor of a
split's negative tail `reflected_factors` and the bilateral recombination
`join_halves`, whose method ranking `combined_method` also labels the
catalog's sums of sides.

Error estimates are heuristic, not certified; the catalog's pass rule
compares the two sides' values alone and reads no error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, count, repeat
from math import inf, prod
from typing import Optional

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .accel import levin_core
from .errors import (
    AccelerationFailed,
    BudgetExceeded,
    CancellationError,
    DivergentError,
    DomainError,
    IndeterminateError,
    LowerPoleError,
    NotConvergent,
    PoleError,
)
from .precision import PrecisionContext, fixed_prec, pow10, to_mp


@dataclass(frozen=True)
class SeriesSpec:
    """Parameter lists, argument and kind of a series: unilateral or bilateral
    here, basic phi or psi in `qseries`, where `QSeriesSpec` names it too."""

    uppers: tuple
    lowers: tuple
    argument: object
    kind: str = "unilateral"  # | "bilateral" | "phi" | "psi"

    def __post_init__(self):
        if self.kind not in ("unilateral", "bilateral", "phi", "psi"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if self.kind == "unilateral" and len(self.uppers) < 1:
            raise ValueError("unilateral series needs at least one upper parameter")
        if self.kind in ("bilateral", "psi") and len(self.uppers) != len(self.lowers):
            raise ValueError(f"{self.kind} series requires equal parameter counts")
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


# the probe's estimate k_needed from which the Levin route takes a series at
# |z| = 1; below it direct+tail starts at K = max(48, min(dps + 20, k_needed + 1))
# head terms and doubles K while the tail does not settle, and a different cap
# would move report methods
_DIRECT_CAP = 20_000
_CANCELLATION_CEILING = 10  # no direct pass runs above this many times the working precision


def _unit_argument(uppers, lowers) -> ConvergenceClass:
    """The class at |z| = 1, carrying the decay exponent
    s = Re(sum lowers + 1 - sum uppers): algebraic when s > 1, else
    divergent."""
    s = (sum(lowers) + 1 - sum(uppers)).real
    return ConvergenceClass("algebraic" if s > 1 else "divergent", exponent=s)


def classify(spec: SeriesSpec) -> ConvergenceClass:
    """Convergence class of a unilateral series spec; ValueError for any
    other kind, before any parameter is read. A bilateral series has no one
    class (one half may be geometric while the other terminates): it
    converges where both halves of `split_bilateral` do.

    Terminating when an upper parameter is a nonpositive integer. Otherwise
    a series with p uppers and q lowers is balanced by its parameter counts:
    p <= q converges for every z (geometric, tail-ratio floor 0), p > q + 1
    only at z = 0, and p = q + 1 for |z| < 1 (geometric, floor |z|). At
    |z| = 1 the decay exponent is Re(sum lowers + 1 - sum uppers);
    exponents <= 1 diverge. Reads the parameters as mp numbers at the
    ambient precision: the engines call it at working precision, on the
    values their term streams step on. Raises DomainError on a non-finite
    parameter.
    """
    if spec.kind != "unilateral":
        raise ValueError("classify expects a unilateral spec")
    return _classify(*mp_parameters(spec))


def _classify(ups, lows, z) -> ConvergenceClass:
    """`classify` of a unilateral spec whose `mp_parameters` are ups, lows and z."""
    term_n = min((n for n in map(nonpositive_int, ups) if n is not None), default=None)
    if term_n is not None:
        return ConvergenceClass("terminating", n=term_n)
    excess, az = len(ups) - len(lows) - 1, abs(z)
    if excess < 0 or az == 0:
        return ConvergenceClass("geometric", ratio=mpf(0))
    if excess == 0 and az < 1:
        return ConvergenceClass("geometric", ratio=az)
    if excess == 0 and az == 1:
        return _unit_argument(ups, lows)
    return ConvergenceClass("divergent")


def mp_parameters(spec):
    """The uppers, lowers and argument of a classical or q-series spec as
    mp numbers at the ambient precision: (list, list, scalar); DomainError
    when one is infinite or nan."""
    ups, lows = [to_mp(a) for a in spec.uppers], [to_mp(b) for b in spec.lowers]
    z = to_mp(spec.argument)
    if not all(map(mpmath.isfinite, (*ups, *lows, z))):
        raise DomainError("series parameters and argument must be finite")
    return ups, lows, z


def _term_budget_check(n, ctx: PrecisionContext):
    """Raise sum_direct's BudgetExceeded before the first term when a series
    that ends at term n has too many terms: its n + 1 terms reach
    ctx.max_terms from n = max_terms - 1 on, and the limit wins that tie."""
    if n is not None and n >= ctx.max_terms - 1:
        raise BudgetExceeded(f"direct summation needs more than {ctx.max_terms} terms")


def _lower_pole_check(lowers, term_n):
    """Reject lower parameters that hit zero before the terminating index."""
    for b in lowers:
        m = nonpositive_int(b)
        if m is None:
            continue
        if term_n is None or m < term_n:
            raise LowerPoleError(
                f"lower parameter {b} is a nonpositive integer reached before termination"
            )


class Gauss(tuple):
    """The Gaussian int re + im i as the immutable pair (re, im), the complex
    counterpart of an int: ints mix in on either side of +, -, * and ==,
    and // by an int, << and >> act on each part as on an int. It is false
    only when both parts are 0, and no hash key (it defines ==)."""

    __slots__ = ()

    def __add__(self, other):
        re, im = other if type(other) is Gauss else (other, 0)
        return Gauss((self[0] + re, self[1] + im))

    __radd__ = __add__

    def __neg__(self):
        return Gauss((-self[0], -self[1]))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is Gauss:
            (a, b), (c, d) = self, other
            return Gauss((a * c - b * d, a * d + b * c))
        return Gauss((self[0] * other, self[1] * other))

    __rmul__ = __mul__

    def __floordiv__(self, n):
        return Gauss((self[0] // n, self[1] // n))

    def __lshift__(self, n):
        return Gauss((self[0] << n, self[1] << n))

    def __rshift__(self, n):
        return Gauss((self[0] >> n, self[1] >> n))

    def __bool__(self):
        return bool(self[0] or self[1])

    def conjugate(self):
        return Gauss((self[0], -self[1]))

    def __eq__(self, other):
        re, im = other if type(other) is Gauss else (other, 0)
        return self[0] == re and self[1] == im

    def __ne__(self, other):
        return not self == other


def _parts(x):
    """(re, im) of an int or a `Gauss` value."""
    return x if type(x) is Gauss else (x, 0)


def dyadic(x):
    """(n, s) with x = n / 2^s exactly and s >= 0 for an mpf or mpc x: n is
    an int for an mpf and a `Gauss` for an mpc."""
    if type(x) is mpf:
        sign, man, exp, _ = x._mpf_
        return (-man if sign else man) << max(exp, 0), max(-exp, 0) if man else 0
    ns = [((-man if sign else man), exp) for sign, man, exp, _ in x._mpc_]
    s = max([0, *(-exp for n, exp in ns if n)])
    return Gauss(n << exp + s for n, exp in ns), s


def nonpositive_int(x):
    """n >= 0 with x = -n exactly for an mp number x, else None: read off
    `dyadic(x)`, an integer when s == 0 and its imaginary part is 0. A
    non-finite x, which `dyadic` reads as 0, is none."""
    if not mpmath.isfinite(x):
        return None
    n, s = dyadic(x)
    re, im = _parts(n)
    return -re if re <= 0 and not (s or im) else None


def to_fixed(x, wp):
    """The mp number x at scale 2^wp, rounded to nearest in each part, halves up
    (exact for a value of `from_fixed` at wp): `_rshift` of its `dyadic` n / 2^s
    at scale 2^(wp+s), an int for an mpf, a `Gauss` for an mpc."""
    n, s = dyadic(x)
    return _rshift(n << wp, s)


def from_fixed(t, wp=None):
    """The exact mp number of a fixed-point int or `Gauss` t at scale 2^wp
    (default fixed_prec()): an mpf when its imaginary part is 0, else an
    mpc. It rounds nothing, so it is no writer of a quotient (`rounded`)."""
    wp = fixed_prec() if wp is None else wp
    re, im = _parts(t)
    re = from_man_exp(re, -wp)
    return mp.make_mpc((re, from_man_exp(im, -wp))) if im else mp.make_mpf(re)


def _rdiv(x, d):
    """x / d rounded to the nearest (Gaussian) int, halves up in each part,
    for a nonzero d; x and d are ints or `Gauss` values."""
    if type(d) is Gauss:
        x, d = x * d.conjugate(), _norm(d)
    # t = floor(2x / d) for d of either sign, and t - floor(t / 2) = ceil(t / 2)
    # is floor(x / d + 1/2); in that form no constant is added to a part
    t = (x << 1) // d
    return t - (t >> 1)


def _rshift(x, r):
    """`_rdiv(x, 1 << r)`, r >= 0, by shifts: t - floor(t / 2), t = floor(2x / 2^r), per part."""
    if type(x) is Gauss:
        return Gauss((_rshift(x[0], r), _rshift(x[1], r)))
    t = (x << 1) >> r
    return t - (t >> 1)


def _norm(x):
    """|x|^2 of an int or a `Gauss` value."""
    return x[0] * x[0] + x[1] * x[1] if type(x) is Gauss else x * x


def _bits(x):
    """The bit length of the larger part of an int or a `Gauss` value."""
    return x.bit_length() if type(x) is int else max(x[0].bit_length(), x[1].bit_length())


def fixed_terms(ratio, max_k, wp, pole):
    """Yield the terms t_0 = 1, t_1, ... as ints at scale 2^wp, up to
    t_{max_k}, where t_{k+1} = t_k num 2^sh / den for the exact ints or
    `Gauss` values num and den and the int sh of (num, den, sh) = ratio(k).
    A zero den raises LowerPoleError(pole.format(k)). A real stream steps one
    int; from the first step with a `Gauss` num or den on, it steps the two
    parts as ints and yields `Gauss` terms.

    A term is kept at the scale 2^(wp+s), s >= 0, at which its larger part
    exceeds 2^(wp+1) (s = 0 for a larger term), so that the step's one
    rounding to the nearest unit of that scale errs by less than
    u = 2^-(wp+1) (sqrt(2) 2^-(wp+1) when complex) of the new term. The kept
    t_k is thus within (1 + u)^k - 1 of t_k, relative, for the ratio's
    values, and the yielded t_k is the kept one rounded to the nearest unit
    2^-wp (exact when s = 0), which adds at most half a unit to each part.
    """
    re, im, s, k, cplx = 1 << wp, 0, 0, 0, False
    while True:
        half = 1 << s >> 1
        yield Gauss(((re + half) >> s, (im + half) >> s)) if cplx else (re + half) >> s
        if max_k is not None and k >= max_k:
            return
        num, den, sh = ratio(k)
        if not den:
            raise LowerPoleError(pole.format(k))
        if not cplx and type(num) is type(den) is int:
            re *= num
            bits = re.bit_length()
        else:
            # t num conj(den) / |den|^2
            cplx = True
            (nre, nim), (dre, dim) = _parts(num), _parts(den)
            nre, nim, den = nre * dre + nim * dim, nim * dre - nre * dim, dre * dre + dim * dim
            re, im = re * nre - im * nim, re * nim + im * nre
            bits = max(abs(re), abs(im)).bit_length()
        # the new term lies in (2^(bits - den bits + sh - 1), ...); rescale it by
        # 2^d past 2^(wp+1), or back towards s = 0
        d = max(wp + 2 - bits + den.bit_length() - sh, -s) if bits else 0
        s += d
        # for den of either sign, x 2^(sh+d) / den rounds to floor((x 2^(sh+d+1) + den) / (2 den))
        e = sh + d + 1
        if e >= 0:
            re, im = re << e, im << e
        else:
            den <<= -e
        two = den << 1
        re = (re + den) // two
        if cplx:
            im = (im + den) // two
        k += 1


def ratio_terms(uppers, lowers, z, max_k=None):
    """Yield t_0, t_1, ... of sum_k prod (a)_k / (k! prod (b)_k) z^k as
    `fixed_terms` values, from t_0 = 1 via
    t_{k+1} = t_k z prod(a+k) / ((1+k) prod(b+k)), up to t_{max_k}. Every
    mp number is a dyadic rational, so the ratio is exact: each factor
    x + k = (n + k 2^s) / 2^s runs as the int or `Gauss` n + k 2^s, which
    steps by 2^s. The scale 2^W is read when the first term is asked for.
    """
    (zn, zs), nu = dyadic(z), len(uppers)
    # the uppers, 1 (for the k!) and the lowers; itertools.count takes no Gauss start
    ns, ss = zip(*(dyadic(x) for x in (*uppers, mpf(1), *lowers)))
    fs = [accumulate(repeat(1 << s), initial=n) for n, s in zip(ns, ss)]
    sh = sum(ss[nu:]) - sum(ss[:nu]) - zs
    ratios = zip(map(prod, zip(repeat(zn), *fs[:nu])), map(prod, zip(*fs[nu:])), repeat(sh))
    yield from fixed_terms(lambda k: next(ratios), max_k, fixed_prec(),
                           "denominator parameter reaches a pole at k = {}")


def _below(eps):
    """(s, b) such that |x| < eps |y| iff |x|^2 2^s < b |y|^2, for an mpf
    eps > 0: with eps = n / 2^t (`dyadic`), s = 2t and b = n^2."""
    n, t = dyadic(eps)
    return 2 * t, n * n


def _root(norm, wp):
    """sqrt(norm) 2^-wp rounded to the ambient precision: |x| of |x|^2 at scale 2^(2 wp)."""
    return mpmath.sqrt(mp.make_mpf(from_man_exp(norm, -2 * wp)))


def partial_sum(terms, stop_eps, limit: int, s=None, h=0):
    """Add terms until three in a row are small, until `limit` terms are
    used, or until the stream ends, leaving the iterator after the last term
    used. A term e is small when |s e| < stop_eps |h + s total| (read as 1
    when 0): s = 1 and h = 0 for a plain sum, s = t_K and h the head's total
    for a summed tail t_K sum e; stop_eps = 0 turns the rule off.

    Terms, s and h are ints or `Gauss` values at scale 2^W (W = fixed_prec()),
    as `fixed_terms` yields them, and add and compare exactly in ints. With B
    the bit length of a value's larger part, 2^(2B - 2) <= |x|^2 < 2^(2B + 1).
    The largest term is kept on B, exact norms deciding only between two B
    within 1 of each other, and squared once at the end. |h + s total| is
    below 2^(max(B(h), B(s) + B(total)) + 2) at scale 2^(2W): a term whose
    side, read with the bit length 2B - 1 of its |e|^2, has two bits more is
    not small, and only others form the products.

    Returns ints (total, peak |term|^2, terms used, last term, the one before
    or None, the largest |term|^2 of the last small run, settled), |term|^2
    at scale 2^(2W); settled is false when the limit stopped the sum (which
    wins a tie with the stream's end and loses one with a third small term).
    """
    wp = fixed_prec()
    sre = sim = big = top = small = used = run = 0
    last = prev = None
    settled = True
    if stop_eps:
        sh, b = _below(stop_eps)
        (sr, si), (hr, hi) = _parts(1 << wp if s is None else s), _parts(h << wp)
        lhs = (sr * sr + si * si) << sh  # |e s|^2 2^sh < b |h + s total|^2 at scale 2^(4W)
        bb, lb = b.bit_length(), lhs.bit_length() - 2 if lhs else -inf
        lo = max(bb + 4 + 2 * max(hr.bit_length(), hi.bit_length()), bb + 4 * wp) - lb
        up = bb + 4 + 2 * max(sr.bit_length(), si.bit_length()) - lb
    for t in terms:
        if type(t) is int:
            sre += t
            bits = t.bit_length()
        else:
            re, im = t
            sre += re
            sim += im
            bits = max(re.bit_length(), im.bit_length())
        if bits > top + 1 or bits >= top - 1 and _norm(t) > _norm(big):
            big, top = t, bits
        used += 1
        prev, last = last, t
        if stop_eps:
            if bits and 2 * bits - 1 >= max(lo, up + 2 * (abs(sre) | abs(sim)).bit_length()):
                run = small = 0
            elif (mag := _norm(t)) * lhs < b * ((hr + sr * sre - si * sim) ** 2
                                                + (hi + sr * sim + si * sre) ** 2 or 1 << 4 * wp):
                run, small = run + 1, max(small, mag)
                if run == 3:
                    break
            else:
                run = small = 0
        if used >= limit:
            settled = False
            break
    return Gauss((sre, sim)) if sim else sre, _norm(big), used, last, prev, small, settled


def sum_direct(stream, params, convert, ctx: PrecisionContext, floor, tail=None,
               head=None) -> SeriesResult:
    """Sum a series directly, up to ctx.max_terms terms a pass.

    stream(*params) builds the fixed-point term stream at the ambient
    precision; each pass calls it once, on `params` (the series' parameters
    as the caller converted them at the working precision) in the first
    pass and on convert() in a raised one, so that a non-dyadic Fraction
    gains bits there. floor = None marks a finite stream: it adds
    every term, has no tail and keeps the method "terminating". Otherwise
    the tail after the last term is bounded geometrically with the ratio
    rho = max(floor, |last/prev|), or floor after a zero term (every later
    term is zero then); rho >= 1 raises BudgetExceeded. Callers pass
    floor = |z| for a balanced series, whose term ratio tends to z, and 0
    for one whose ratio tends to 0.

    tail = (K, tail_terms) sums an infinite stream as direct+tail instead:
    a pass adds exactly its first K terms, with no small-term stop, then
    t_K times the `partial_sum` (s = t_K, h = the head's total) of
    tail_terms(*params, K), the (Gaussian) ints at scale 2^W of the tail
    ratio T_K / t_K, T_K = sum_{k>=K} t_k. While max(3K, dps + 20) of them
    do not settle, K doubles and the head sums on. terms_used is the last K,
    the tail's estimate, 3 |t_K| times the largest of its last three terms
    plus |t_K| 2^-W a term added, joins err_estimate and |t_K T_K / t_K| the
    peak |term|; a K past ctx.max_terms raises BudgetExceeded. head =
    (stream, total, peak |term|^2, terms used), `partial_sum`'s ints, lets
    the first pass go on along terms the caller already summed at the
    working precision; a raised pass builds its stream anew.

    Cancellation costs a pass log10(peak |term| / |total|) digits. While
    that is more than the digits the pass kept beyond ctx.digits, another
    pass runs with those digits added, or at three times the precision when
    the total lies within its own rounding error (not one digit survived,
    so the loss is known only to exceed the pass's digits). A finite sum
    still within its rounding at raised precision may be exactly 0, so it
    returns that total with the rounding as its absolute error. Any other
    pass beyond _CANCELLATION_CEILING times the working precision raises
    CancellationError instead. `+total` rounds the value, a dyadic and no
    quotient (so no `precision.rounded` call), to the working precision, and
    that rounding, |value| 2^-prec, joins err_estimate.
    A pass keeps total and peak as ints and ends on one test of their mp
    numbers, where |t_K T_K / t_K| joins the peak (>= |t_0| = 1).
    """
    dps, k = ctx.dps, tail and tail[0]
    while True:
        pass_ctx = ctx if dps == ctx.dps else replace(ctx, digits=ctx.digits + dps - ctx.dps)
        with pass_ctx.working():
            eps, wp, err = pass_ctx.eps(), fixed_prec(), 0
            if dps > ctx.dps:
                params, head = convert(), None
            if tail is None:
                total, peak, used, last, prev, _, settled = partial_sum(
                    stream(*params), 0 if floor is None else eps, ctx.max_terms)
                if not settled:
                    raise BudgetExceeded(f"direct summation needs more than {ctx.max_terms} terms")
                peak, scale = _root(peak, wp), wp
                if floor is not None:
                    last, rho = abs(from_fixed(last)), floor
                    if last:  # a term that regrows after one rounded to 0 has no finite ratio
                        rho = max(floor, last / abs(from_fixed(prev))) if prev else mpmath.inf
                    if rho >= 1:
                        raise BudgetExceeded(
                            f"direct summation tail ratio {mpmath.nstr(rho, 5)} is not below 1")
                    err = last * rho / (1 - rho)
            else:
                terms, total, peak, used = head or (stream(*params), 0, 0, 0)
                while True:
                    if k > ctx.max_terms:
                        raise BudgetExceeded(f"direct+tail needs more than {ctx.max_terms} terms")
                    if k > used:
                        more, more_peak, more_used, *_ = partial_sum(terms, 0, k - used)
                        total, peak, used = total + more, max(peak, more_peak), used + more_used
                    t_k = next(terms)
                    tail_sum, _, n, _, _, small, done = partial_sum(
                        tail[1](*params, k), eps, max(3 * k, dps + 20), t_k, total)
                    if done:
                        break
                    total, used, k = total + t_k, used + 1, 2 * k
                tk = abs(from_fixed(t_k, wp)) if type(t_k) is int else _root(_norm(t_k), wp)
                err = tk * (3 * _root(small, wp) + mpmath.ldexp(n, -wp))
                v = t_k * tail_sum  # at scale 2^(2 wp)
                peak = max(_root(peak, wp), abs(from_fixed(v, 2 * wp)))
                total, scale = (total << wp) + v, 2 * wp
            total = from_fixed(total, scale)
            rounding = peak * eps * used
            err += rounding
            lost = None
            if (size := abs(total)) > rounding:
                # lost = ceil(log10(peak / |total|)) digits; the log only sizes a raised pass
                if peak <= size * pow10(dps - ctx.digits):
                    break
                lost = int(mpmath.ceil(mpmath.log10(peak / size)))
            elif floor is None and dps > ctx.dps:
                break
        raised = 3 * dps if lost is None else dps + lost
        if raised > _CANCELLATION_CEILING * ctx.dps:
            raise CancellationError(
                f"direct summation loses {'all' if lost is None else lost} of its {dps} "
                f"working digits to cancellation; {raised} digits would pass the ceiling "
                f"of {_CANCELLATION_CEILING * ctx.dps}")
        dps = raised
    method = "terminating" if floor is None else "direct" if tail is None else "direct+tail"
    with ctx.working():
        value = +total
        return SeriesResult(value, err + mpmath.ldexp(abs(value), -mp.prec), used, method)


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


def _newton(values):
    """In place, the values A(k), A(k+1), ..., A(k+n) of a polynomial A of
    degree <= n with exact (Gaussian) int Newton coefficients become those
    coefficients (Delta^m A)(k) / m!, m = 0 .. n."""
    for m in range(1, len(values)):
        for i in range(len(values) - 1, m - 1, -1):
            values[i] = (values[i] - values[i - 1]) // m  # exact
    return values


def _factorial_tail(uppers, lowers, z, k):
    """Yield c_j u_j(K) at scale 2^W (W = fixed_prec()), K = k, j = 0, 1, ...,
    rounded to nearest (Gaussian) ints: the terms of the tail ratio
    f(K) = T_K / t_K of sum_k prod (a)_k / (k! prod (b)_k) z^k, with
    T_K = sum_{k>=K} t_k, as the inverse factorial series f(K) = sum_j c_j u_j(K),
    u_j(K) = Gamma(K) / Gamma(K + j - 1): u_0 = K - 1, u_1 = 1 and
    u_j = 1 / (K (K + 1) ... (K + j - 2)) (Nörlund 1924; Weniger 1989).

    With t_{k+1} / t_k = z Q(k) / P(k), Q(k) = prod (k + a) and
    P(k) = (k + 1) prod (k + b), both of degree d = len(uppers), f solves
    P(K) f(K) - z Q(K) f(K+1) = P(K). As K u_j = u_{j-1} - (j - 2) u_j and
    u_j(K+1) = u_j(K) - (j - 1) u_{j+1}(K), a polynomial A(K) times u_j is
    sum_m A_m(2 - j) u_{j-m}, A_m(k) = (Delta^m A)(k) / m! its Newton
    coefficients at k, so the equation maps u_j to
    (P - zQ)(K) u_j + z (j - 1) Q(K) u_{j+1} = sum_r E_r(j) u_{j+1-r},
    E_r(j) = (P - zQ)_{r-1}(2 - j) + z (j - 1) Q_r(1 - j), r = 0 .. rho.
    At z = 1, P - Q has degree d - 1, rho = d and the pivot E_d(j) is
    s + j - 1, s = 1 + sum b - sum a (so c_0 = 1 / (s - 1)); at any other z,
    rho = d + 1 and the pivot is 1 - z. Matching P(K) = sum_m P_m(1) u_{1-m}
    in row j + 1 - rho gives c_j from the rho coefficients before it.

    Every parameter is a dyadic rational, so over their common denominator
    2^S (and z's 2^zs) the Newton coefficients are small exact ints
    (Gaussian ones when complex); from one column to the next they step by
    forward differences, A_m(k - 1) = A_m(k) - (m + 1) A_{m+1}(k - 1). Only
    the c_j carry the scale 2^W, one rounding each; a term c_j u_j(K), j >= 2,
    is rounded once more, from 2^W c_j over the int 1 / u_j(K).
    """
    wp = fixed_prec()
    (zn, zs), *ps = map(dyadic, (z, *uppers, *lowers))
    sc = max(s for _, s in ps)
    ps, d, den = [n << sc - s for n, s in ps], len(uppers), 1 << sc
    ps.insert(d, den)  # the 1 of k!
    # 2^(zs + d S) P and 2^(d S) Q at k = 1 .. d + 2
    qv = [prod(den * k + a for a in ps[:d]) for k in range(1, d + 3)]
    pv = [prod(den * k + b for b in ps[d:]) * (1 << zs) for k in range(1, d + 3)]
    # Newton coefficients: (P - zQ)_m(2), z Q_m(1) (with Q_{d+1} = 0), P_m(1)
    nn = _newton([p - zn * q for p, q in zip(pv[1:], qv[1:])])
    zq = [zn * q for q in _newton(qv[:-1])] + [0]
    rhs = {1 - m: p * (1 << wp) for m, p in enumerate(_newton(pv[:-1]))}
    rho = d if zn == 1 << zs else d + 1
    cols = [(0, ())] * rho  # (2^wp c, band entries) of columns j - rho .. j - 1
    div = 1  # 1 / u_j(k) for j >= 2
    for j in count():
        entries = [(j - 1) * zq[0], *(n + (j - 1) * q for n, q in zip(nn, zq[1:]))]
        for m in range(d - 1, -1, -1):
            nn[m] -= (m + 1) * nn[m + 1]
            zq[m] -= (m + 1) * zq[m + 1]
        acc = rhs.get(j + 1 - rho, 0)
        for r, (c, es) in enumerate(cols):
            if es:
                acc -= c * es[r]
        c = _rdiv(acc, entries[rho])
        cols = [*cols[1:], (c, entries)]
        if j >= 2:
            div *= k + j - 2
        yield c * (k - 1) if j == 0 else _rdiv(c, div)


def _sum_algebraic(spec, params, ctx, s):
    """Sum a unilateral series at |z| = 1 with decay exponent s > 1; params
    are its `mp_parameters` at the working precision.

    A 48-term probe estimates the count k_needed at which C k^-s, fitted at
    its last term, falls below 10^-(digits+4) of the sum; from
    min(max_terms, _DIRECT_CAP) on, the Levin u-transform sums the series,
    and where it raises AccelerationFailed direct+tail does, with
    K = max(48, dps + 20). Otherwise K = max(48, min(dps + 20, k_needed + 1))
    (or the probe's count when its terms already fell below eps).
    `sum_direct` sums it as direct+tail, going on from the probe: the head
    t_0 .. t_{K-1} exactly, then t_K f(K), f the `_factorial_tail`, with K
    doubling while the tail does not settle and its passes against
    cancellation. Its error estimate is heuristic, as Levin's is.
    """
    gen = ratio_terms(*params)
    total, peak, used, last, _, _, settled = partial_sum(gen, ctx.eps(), 48)
    if not settled and last != 0:
        scale = max(mpf(1), abs(from_fixed(total)), _root(peak, fixed_prec()))
        target = pow10(-(ctx.digits + 4)) * scale
        c_coeff = abs(from_fixed(last)) * mpf(used) ** s
        k_needed = (c_coeff / target) ** (1 / (s - 1))
        # the direct route is only worth it while it stays cheap; slowly
        # decaying series (small exponents) go to the accelerator, which
        # regenerates the terms at its boosted precision
        if k_needed < min(ctx.max_terms, _DIRECT_CAP):
            head_len = max(used, min(ctx.dps + 20, int(k_needed) + 1))
        else:
            try:
                value, err, levin_used = levin_core(ratio_terms(*params), ctx)
            except AccelerationFailed:  # the factorial tail takes what the table cannot
                head_len = max(used, ctx.dps + 20)
            else:
                return SeriesResult(value, err, levin_used, "levin")
    else:
        head_len = used
    return sum_direct(ratio_terms, params, lambda: mp_parameters(spec), ctx, mpf(1),
                      (head_len, _factorial_tail), (gen, total, peak, used))


def sum_unilateral(spec: SeriesSpec, ctx: PrecisionContext) -> SeriesResult:
    """Sum a unilateral series, dispatching on its convergence class."""
    if spec.kind != "unilateral":
        raise ValueError("sum_unilateral expects a unilateral spec")
    with ctx.working():
        _, lows, _ = params = mp_parameters(spec)
        cls = _classify(*params)
        if cls.tag == "divergent":
            if cls.exponent is not None:
                raise NotConvergent(f"decay exponent Re = {cls.exponent} is not > 1")
            raise DivergentError("series diverges at the given argument")
        _lower_pole_check(lows, cls.n)
        _term_budget_check(cls.n, ctx)
        if cls.tag != "algebraic":  # terminating (n, no floor) or geometric
            return sum_direct(partial(ratio_terms, max_k=cls.n), params,
                              lambda: mp_parameters(spec), ctx, cls.ratio)
        return _sum_algebraic(spec, params, ctx, cls.exponent)


def reflected_factors(uppers, lowers, reflect, point: str):
    """(prod reflect(b) over lowers, prod reflect(a) over uppers): the
    prefactor parts of a bilateral sum's negative tail once split at k = 0.

    Returns None when the numerator vanishes (a lower parameter at `point`
    kills the whole tail); raises IndeterminateError when both vanish and
    PoleError when only the denominator does.
    """
    pnum, pden = mpmath.fprod(map(reflect, lowers)), mpmath.fprod(map(reflect, uppers))
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
        ups, lows, z = mp_parameters(spec)
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
    """Sum a bilateral series by splitting at k = 0. It converges exactly
    where both halves converge or terminate (Slater, 6.1), so each half's own
    class decides: `sum_unilateral` raises for a half that diverges, the
    positive half first, with NotConvergent naming the decay exponent
    s = Re(sum lowers - sum uppers) that both halves share at |z| = 1."""
    if spec.kind != "bilateral":
        raise ValueError("sum_bilateral expects a bilateral spec")
    with ctx.working():
        plus, pref, minus = split_bilateral(spec, ctx)
        return join_halves(sum_unilateral(plus, ctx), pref, minus and sum_unilateral(minus, ctx))
