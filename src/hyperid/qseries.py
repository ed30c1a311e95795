"""q-shifted factorials, q-Pochhammer brackets and basic hypergeometric sums.

A phi-type series with uppers (a_0, ..., a_r) and lowers (b_1, ..., b_s) is
sum_{k>=0} of prod (a_i;q)_k / ((q;q)_k prod (b_j;q)_k) times
{(-1)^k q^C(k,2)}^(s-r) z^k. A psi-type (bilateral) series runs over all
integers with no (q;q)_k and no balancing factor exponent offset.

Bilateral sums are split at k = 0 exactly as in the classical engine; the
negative tail is re-expressed through
(x;q)_{-m} = (-1/x)^m q^(m(m+1)/2) / (q/x;q)_m,
whose sign and q-binomial factors cancel identically against the series'
own, leaving a plain geometric-type sum in w = prod(lowers)/(prod(uppers) z).
Both tails must converge: |z| < 1 and |w| < 1, or the tail terminates. Each
half's own phi rule decides that; the psi branch makes no test of its own.
A series is the one record `series.SeriesSpec` (or QSeriesSpec), kind phi or psi.

Terms come from the running term ratio (`q_ratio_terms`), on the classical
engine's fixed-point ints: the powers x q^k are running fixed-point
products, and `series.fixed_terms` rounds each term once; (x;q)_inf runs
on ints from exact dyadic x and q (`q_pochhammer`), and a q-bracket
multiplies their exact values; `precision.rounded` rounds each once.
A complex value is a `series.Gauss` wherever a real one is an int, and the
same code runs on both.
Every phi series runs through the classical engine's `series.sum_direct`,
with its passes at raised precision against cancellation. A terminating
one (an upper q^-n at working precision, n found by `_terminating_index`)
adds all its terms and has no tail; an exactly zero total comes back with
an absolute error. A lower q^-m (the same rule) raises LowerPoleError
unless an upper ends the series first. A nonterminating one with at least
as many lowers as uppers, whose term ratio tends to 0, gets a geometric
tail bound (direct).
A nonterminating balanced one (one more upper than lowers, as every
catalog phi and both halves of each psi) sums all K head terms (no stop
on terms that dip near a lower's q-pole and regrow), K from
`_head_length` (x = q^K within 1/16 of the tail ratio's radius; 1/64 and
1/256 ran no faster), and then t_K times the tail ratio T_K / t_K,
T_K = sum_{k>=K} t_k, as a power series in x = q^K whose terms a banded
recurrence on dyadic ints gives (`_tail_ratio_terms`; direct+tail). Its
band is exact until it is rounded, once per tail, to scale 2^(W+32), which
moves each term by far less than the unit per term that the tail's
estimate counts (the bound is in `_tail_ratio_terms`).
An exactly zero nonterminating sum raises CancellationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import count
from operator import mul
from typing import Optional

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import round_nearest, to_float

from .errors import BudgetExceeded, DivisionByZero, DomainError, IndeterminateError, LowerPoleError
from .precision import INF, PrecisionContext, fixed_prec, rounded, to_mp
from .series import (
    SeriesResult, SeriesSpec, _bits, _norm, _rdiv, _rshift, _term_budget_check,
    dyadic, fixed_terms, join_halves, mp_parameters, reflected_factors, sum_direct, to_fixed,
)


@dataclass(frozen=True)
class QContext:
    """The nome q together with a precision context; requires |q| < 1."""

    q: object
    ctx: PrecisionContext

    def __post_init__(self):
        with self.ctx.working():
            if not abs(to_mp(self.q)) < 1:
                raise DomainError("QContext requires |q| < 1")


QSeriesSpec = SeriesSpec  # a second name for the one record


def principal_sqrt(a):
    """Principal-branch square root (builds the +-sqrt(a) well-poised pairs)."""
    return mpmath.sqrt(to_mp(a))


def q_pochhammer(x, qc: QContext, n):
    """(x;q)_inf for n = INF; any other n raises DomainError (a finite
    (x;q)_n is the q-bracket of [x] over [x q^n]).

    The factors 1 - x q^i while |x q^i| >= 1/2 (an exact zero among them
    returns 0), times Euler's series (y;q)_inf = sum c_n y^n,
    c_n = (-1)^n q^C(n,2) / (q;q)_n, in y = x q^m (Gasper-Rahman, 1.3), by
    Horner over a row of c_n cached per (q, precision), looked up by q's raw
    mpmath tuple, up to the first term below 2^-wp,
    wp = working precision + ceil(guard) + 10 bits. All on ints
    (`series.Gauss` values when complex) from the exact dyadics x and q: the
    factors exactly, their product kept to wp + 2 bits, the Horner sum at
    scale 2^wp on the exact y, rounded to the nearest unit a step; the two
    multiply with one rounding to working precision (`precision.rounded`).

    guard = log2((-1/2;|q|)_inf / (1/2;|q|)_inf) bounds the bits lost to
    cancellation: |(y;q)_inf| >= (|y|;|q|)_inf >= 2^-guard for |y| < 1/2.
    The sum is within 5 units 2^-wp of (y;q)_inf: 3/2 from the row (see
    _euler_row), 3/2 from the Horner steps, 2 from the terms cut off (each
    below half the one before, as for 0 < q < 1). With 2^-(wp+1) for each
    of the m factors and 2^-prec for the last rounding, a product is within
    2^-prec (1 + (m + 6) 2^-10) of (x;q)_inf, relative. The guard's loop,
    factors and row are held to 100 dps + 10000 steps, else BudgetExceeded.
    Called at the working precision already, as from q_bracket, it enters
    no second precision context (`PrecisionContext.working`).
    """
    if n is not INF and n != mpmath.inf:
        raise DomainError(f"(x;q)_n is evaluated at n = INF only, not {n!r}")
    ctx = qc.ctx
    with ctx.working():
        xx = to_mp(x)
        if not xx:
            return mpf(1)
        return _infinite_product(xx, to_mp(qc.q), ctx)


# one row per nome of the 1/64 grid in (1/10, 4/5), looked up by its raw mpmath
# tuple, whose shape keeps an mpc nome (a row of Gauss values, so complex
# products) apart from an equal mpf one
@lru_cache(maxsize=64)
def _euler_row(raw, prec, budget):
    """(wp, (a, s), row, |q|) for the nome q whose `_mpf_` or `_mpc_` tuple
    is raw (see q_pochhammer), q = a / 2^s exactly (`series.dyadic`) and
    |q| a float: row holds c_n, n = 0 .. N, as ints or `series.Gauss`
    values at scale 2^wp with bounds b_n >= log2 |c_n|, N the first n with
    b_n - n < -wp.
    `series.fixed_terms` steps them on the exact ratio q^n / (q^(n+1) - 1)
    at scale 2^(wp+g), g = ceil(guard) + 30, within |c_n| n + 1/2 units
    there; as |c_n| <= (-1;|q|)_inf <= 2^guard, an entry rounded to 2^-wp
    is within 1/2 + (n + 1) 2^-30 units of c_n."""
    q = mp.make_mpc(raw) if len(raw) == 2 else mp.make_mpf(raw)
    aq, u, guard = float(abs(q)), 0.5, 0.0
    for _ in range(budget):
        guard += math.log2((1 + u) / (1 - u))
        u *= aq
        if u < 2.0 ** -60:
            break
    else:
        raise BudgetExceeded("infinite q-product failed to truncate")
    wp, g = prec + math.ceil(guard) + 10, math.ceil(guard) + 30
    (a, s), power = dyadic(q), 1  # power = a^n

    def ratio(n):
        nonlocal power
        num, power = power, power * a
        return num, power - (1 << s * (n + 1)), s

    row = []
    for t in fixed_terms(ratio, None, wp + g, "q^({} + 1) = 1"):
        if len(row) > budget:
            raise BudgetExceeded("infinite q-product failed to truncate")
        b = _bits(t) - wp - g + 1
        # + 0 a: c_0 comes before the stream's first step, an int even for a complex q
        row.append((_rshift(t, g) + 0 * a, b))
        if b - len(row) + 1 < -wp:
            return wp, (a, s), tuple(row), aq


def _infinite_product(x, q, ctx: PrecisionContext):
    """(x;q)_inf for nonzero x at working precision (see q_pochhammer)."""
    budget = 100 * ctx.dps + 10000
    wp, (qn, qs), row, fq = _euler_row(q._mpf_ if type(q) is mpf else q._mpc_, mp.prec, budget)
    p, e = dyadic(x)
    # log2 |x| >= k, and the float bound below is >= log2(1/|q|): past it, the loop
    # would step budget - len(row) + 1 factors with |x q^i| > 1, none of them zero
    if (k := _bits(p) - 1 - e) > 0 and fq:
        if k > max(budget - len(row), 0) * (-math.log2(fq) * (1 + 1e-12) + 1e-15):
            raise BudgetExceeded("infinite q-product failed to truncate")
    # 1 - x q^i = (2^e - p) / 2^e of the exact x q^i = p / 2^e into h / 2^hs
    h, hs, used = 1, 0, 0
    while (0 < (bl := _bits(p)) >= e  # |p| >= 2^(e-1)
           or bl == e - 1 and 4 * _norm(p) >= 1 << 2 * e):
        if p == 1 << e:
            return mpf(0)
        h *= (1 << e) - p
        d = max(_bits(h) - wp - 2, 0)
        h, hs = _rshift(h, d), hs + e - d
        p, e, used = p * qn, e + qs, used + 1
        if used + len(row) > budget:
            raise BudgetExceeded("infinite q-product failed to truncate")
    # Horner over c_n up to the first n with |c_n| |y|^n < 2^-wp, on ints at
    # scale 2^wp with y = p / 2^e, each step rounded to the nearest unit: as in
    # `series._rshift`, t - (t >> 1) with t = floor(2 acc y) rounds acc y halves up
    ly, p2, acc = (_norm(p).bit_length() + 1) // 2 - e, p << 1, 0
    n = 0
    for _, b in row:
        if b + n * ly < -wp:
            break
        n += 1
    for c, _ in reversed(row[:n]):
        acc = (t := acc * p2 >> e) - (t >> 1) + c
    return rounded(acc * h, e=-hs - wp)


def q_bracket(numers, denoms, qc: QContext):
    """prod (x_i;q)_inf / prod (y_j;q)_inf.

    Returns exact 0 when a numerator entry vanishes and no denominator entry
    does; IndeterminateError when both vanish. The entries' exact values
    n / 2^s (`series.dyadic`: n an int, a `series.Gauss` when complex) multiply
    exactly, a zero entry zeroing its side, and `precision.rounded` rounds the
    quotient once, so the bracket is within the sum of its entries' relative
    errors (see q_pochhammer) plus 2^-prec of its value in each part.
    """
    with qc.ctx.working():
        sides = []
        for xs in (numers, denoms):
            m, e = 1, 0  # the side's product m 2^e
            for x in xs:
                n, s = dyadic(q_pochhammer(x, qc, INF))
                m, e = m * n, e - s
            sides.append((m, e))
        (pn, pe), (dn, de) = sides
        if not dn:
            if not pn:
                raise IndeterminateError("q-bracket vanishes in numerator and denominator")
            raise DivisionByZero("q-bracket denominator entry vanishes")
        if not pn:
            return mpf(0)
        return rounded(pn, dn, pe - de)


def split_psi(spec: SeriesSpec, qc: QContext):
    """Split a psi-type series at k = 0.

    Returns (plus_spec, prefactor, minus_spec): the k >= 0 tail as a
    phi-kind spec (a leading upper q cancels the (q;q)_k of the phi
    definition), and the k <= -1 tail as prefactor times a phi-kind spec in
    w = prod(lowers) / (prod(uppers) z). minus_spec is None when the
    prefactor vanishes exactly (a lower parameter equal to q).
    """
    if spec.kind != "psi":
        raise ValueError("split_psi expects a psi-kind spec")
    ctx = qc.ctx
    with ctx.working():
        q = to_mp(qc.q)
        ups, lows, z = mp_parameters(spec)
        if z == 0:
            raise DomainError("bilateral q-series undefined at z = 0")
        if any(a == 0 for a in ups) or any(b == 0 for b in lows):
            raise DomainError("zero parameters are not supported in psi-type series")
        plus = SeriesSpec((q, *ups), tuple(lows), z, "phi")
        w = mpmath.fprod(lows)
        for a in ups:
            w = w / a
        w = w / z
        reflected = reflected_factors(ups, lows, lambda x: 1 - q / x, "q")
        if reflected is None:
            return plus, mpf(0), None
        pnum, pden = reflected
        pref = w * pnum / pden
        minus = SeriesSpec(
            (q, *(q * q / b for b in lows)),
            tuple(q * q / a for a in ups),
            w,
            "phi",
        )
        return plus, pref, minus


def q_ratio_terms(uppers, lowers, z, q, extra, max_k=None):
    """Yield the phi-series terms t_0, t_1, ... as `series.fixed_terms`
    values, from t_0 = 1 via t_{k+1} = t_k z prod(1 - a q^k) (-q^k)^extra /
    ((1 - q^{k+1}) prod(1 - b q^k)), up to t_{max_k}.

    The scale 2^W is read when the first term is asked for. The powers
    x q^k (x an upper, a lower, or q for 1 - q^{k+1}) are running products
    p <- p q at that scale: x enters rounded to the nearest unit 2^-W in
    each part, and each step rounds each part of p q to the nearest unit,
    halves up. z and the balancing factor (-q^k)^extra are exact. The ratio
    is exact on those factors; `fixed_terms` gets it as the products of the
    numerator's and the denominator's factors and rounds each term once.
    """
    wp = fixed_prec()
    one = 1 << wp
    nu, e = len(uppers), abs(extra)
    (zn, zs), (qn, qs) = dyadic(z), dyadic(q)
    pows, power, q2 = [to_fixed(x, wp) for x in (*uppers, *lowers, q)], 1, qn << 1

    def ratio(k):
        nonlocal pows, power
        fs = [one - p for p in pows]
        # as in `series._rshift`, t - (t >> 1) with t = floor(2 p q) rounds p q halves up
        pows = [(t := p * q2 >> qs) - (t >> 1) for p in pows]
        # (-q^k)^extra = balance^sign(extra) / 2^(qs k extra)
        balance, power = [-power] * e, power * qn
        if extra < 0 and not balance[0]:
            raise ZeroDivisionError  # q = 0, as the recurrence's division by (-0)^|extra|
        nums, dens = [zn, *fs[:nu]], fs[nu:]
        (nums if extra > 0 else dens).extend(balance)
        return math.prod(nums), math.prod(dens), sh - qs * k * extra

    sh = wp * (len(lowers) + 1 - nu) - zs
    yield from fixed_terms(ratio, max_k, wp, "q-series denominator vanishes at k = {}")


def _log_abs(v):
    """log |v| as a float, from the float of |v| (an mpf's read off its raw
    tuple); mpmath's log where that float is 0, 1 or inf, so that a |v|
    past the float range, or within 2^-53 of 1, keeps its own log (-inf at
    v = 0)."""
    f = abs(to_float(v._mpf_, rnd=round_nearest)) if type(v) is mpf else float(abs(v))
    return math.log(f) if 0 < f < math.inf and f != 1 else float(mpmath.log(abs(v)))


def _head_length(uppers, lowers, q) -> int:
    """K of the direct+tail route: the least k >= 1 with
    |q|^k max(|q|, |a|, |b|) <= 1/16 over the uppers a and lowers b, so
    that x = q^K lies within a sixteenth of the tail ratio's radius, or 1
    when |q| is 0 as a float (|q| <= 2^-1075), as at q = 0. It is decided
    on the float logs of `_log_abs`, to within 10^-9 of a step; that margin
    also keeps K at a magnitude that rounds onto 1/16 from above."""
    lq = -_log_abs(q)
    if lq > 745:  # 1075 log 2 = 745.13 or more; a float |q| > 0 has lq <= 744.44
        return 1
    lb = max(map(_log_abs, (q, *uppers, *lowers)))
    return max(1, math.ceil((math.log(16) + lb) / lq - 1e-9))


def _tail_ratio_terms(uppers, lowers, z, q, k):
    """Yield 2^W g_m (W = fixed_prec()), rounded to the nearest (Gaussian)
    int, for m = 0, 1, ...: g_m = f_m x^m, x = q^k, where f(x) = sum f_m x^m
    is the tail ratio T_k / t_k of a balanced phi series (one more upper
    than lowers) with T_k = sum_{j>=k} t_j.

    T_k = t_k + T_{k+1} and t_{k+1} / t_k = z N(x) / D(x) with
    N(y) = prod (1 - a y), D(y) = (1 - q y) prod (1 - b y) give
    D(x) f(x) = D(x) + z N(x) f(qx) (Gasper & Rahman, ch. 1); matching
    powers of x, g_0 = 1 / (1 - z) and, with N_i, D_i the coefficients of
    y^i (i <= d = the number of uppers),
    (1 - z q^m) g_m = D_m x^m - sum_{i=1..d} (D_i x^i - z N_i x^i q^(m-i)) g_{m-i}.
    f is analytic for |y| max(|q|, |b|) < 1 and `_head_length` puts x
    sixteen times inside that, so the g_m fall by about 2^-4 a step.

    Every parameter is a dyadic rational, so the coefficients of N and D
    are exact ints over 2^S_N and 2^S_D, S_N and S_D the sums of the
    parameters' own exponents; x^i = n^(ki) / 2^(s k i) for q = n / 2^s,
    and z and the powers q^(m-i) are exact too. The band entries D_i x^i
    and z N_i x^i (times the 2^(s i) that q^(m-i) leaves over 2^(s m)) are
    thus exact ints over 2^L and 2^(L + zs), L = max(S_N, S_D) + s k d:
    hundreds of bits wider than W when the parameters carry full mantissas.
    Once per tail, each is rounded by one shift to scale 2^(W+32), to the
    nearest unit in each part, which moves D_i x^i and z N_i x^i by at
    most c 2^-(W+33) (c = 1, or sqrt(2) when complex); D_0 = 1 stays exact.
    The right-hand side over 2^(W + 32 + zs + s m) is then an exact int
    given the rounded g_{m-i}, and each g_m is that int divided by the
    pivot's, rounded once. Beyond that half unit, the rounded band moves g_m
    by at most c 2^-33 ([m <= d] + 2 sum_{i=1..d} |g_{m-i}|) / |1 - z q^m|
    units 2^-W: at most (1 + 2d) c 2^-32 units when every |g_{m-i}| <= 1
    and |z q^m| <= 1/2, far inside the unit per term that `series.sum_direct`
    charges a summed tail.
    """
    wp = fixed_prec()
    (zn, zs), (qn, qs), d = dyadic(z), dyadic(q), len(uppers)

    def poly(roots):  # (c, S): prod (1 - r y) = sum c_i y^i / 2^S, r = n / 2^s exactly
        cs, total = [1], 0
        for n, s in map(dyadic, roots):
            total += s
            cs.append(0)
            for i in range(len(cs) - 1, 0, -1):
                cs[i] = (cs[i] << s) - n * cs[i - 1]
            cs[0] <<= s
        return cs, total

    (nc, ns), (dc, ds) = poly(uppers), poly([*lowers, q])
    xs, xn = qs * k, math.prod([qn] * k)  # x = xn / 2^xs
    # D_i x^i = e[i] / 2^L and z N_i x^i q^(m-i) = p[i] n^(m-i) / 2^(L + zs + s m),
    # L = max(S_N, S_D) + xs d, or wp + 32 past it (see above): each entry goes to scale 2^L
    # by one shift of its exact product; p[i] carries the 2^(s i) q^(m-i) leaves over 2^(s m)
    big_l = max(ns, ds) + xs * d
    big_l -= max(big_l - wp - 32, 0)
    e, p, xp = [], [], 1  # xp = xn^i
    for i in range(d + 1):
        for band, c, sh in ((e, dc[i], big_l - ds - xs * i),
                            (p, zn * nc[i], big_l - ns - (xs - qs) * i)):
            band.append(c * xp << sh if sh >= 0 else _rshift(c * xp, -sh))
        xp *= xn
    eb, pb = e[1:], p[1:]
    gs, hs, qm = [], [], 1  # the last d of g_m and of n^m g_m, newest first; n^m
    for m in count():
        top = zs + qs * m  # 1 - z q^m = (2^top - zn n^m) / 2^top
        acc = (e[m] << wp if m <= d else 0) - sum(map(mul, eb, gs))
        g = _rdiv((acc << top) + sum(map(mul, pb, hs)), ((1 << top) - zn * qm) << big_l)
        gs.insert(0, g)
        hs.insert(0, qm * g)
        del gs[d:], hs[d:]
        qm = qm * qn
        yield g


def _terminating_index(uppers, q, eps) -> Optional[int]:
    """The least n >= 0 with |a q^n - 1| <= (n + 2) eps for some upper a
    (eps = `PrecisionContext.eps`), after which a phi series with these
    uppers ends, or None. Only |a| >= 1/2 can pass, at
    n = round(log|a| / log(1/|q|)) (0 at q = 0): that n is tried on the
    float logs of `_log_abs` first, with a margin 10^6 times their
    rounding, and on mp numbers only when it passes there.
    """
    lq = -_log_abs(q)  # inf at q = 0
    hits = []
    for a in uppers:
        if (la := _log_abs(a)) >= -math.log(2):  # |a| >= 1/2
            n = round(t := la / lq)
            if (n >= 0 and abs(t - n) <= 1e-9 * (1 + n) * (1 + 1 / lq)
                    and abs(a * q**n - 1) <= (n + 2) * eps):
                hits.append(n)
    return min(hits, default=None)


def sum_q_series(spec: SeriesSpec, qc: QContext) -> SeriesResult:
    """Sum a phi- or psi-type basic hypergeometric series; a psi series
    converges exactly where both halves of `split_psi` converge or terminate
    (Gasper-Rahman, 5.1), so each half's own rule decides, k >= 0 first."""
    if spec.kind not in ("phi", "psi"):
        raise ValueError("sum_q_series expects a phi or psi spec")
    ctx = qc.ctx
    with ctx.working():
        if spec.kind == "psi":
            plus, pref, minus = split_psi(spec, qc)
            return join_halves(sum_q_series(plus, qc), pref, minus and sum_q_series(minus, qc))
        q = to_mp(qc.q)
        ups, lows, z = mp_parameters(spec)
        extra = len(lows) - (len(ups) - 1)
        n = _terminating_index(ups, q, ctx.eps())
        floor = tail = None  # a finite stream has no tail
        if n is None:
            if extra < 0:
                raise DomainError(
                    "phi series with more uppers than lowers diverges unless terminating"
                )
            if extra == 0 and not abs(z) < 1:
                raise DomainError("phi series requires |z| < 1 or termination, not "
                                  f"|z| = {mpmath.nstr(abs(z), 5)}")
            # a balanced series' term ratio tends to z, any other's to 0
            floor = abs(z) if extra == 0 else mpf(0)
            if extra == 0:
                k = _head_length(ups, lows, q)
                tail = k, _tail_ratio_terms
        m = _terminating_index(lows, q, ctx.eps())
        if m is not None and (n is None or m < n):
            raise LowerPoleError(f"lower parameter q^-{m}: a pole reached before termination")
        _term_budget_check(n, ctx)
        return sum_direct(partial(q_ratio_terms, extra=extra, max_k=n), (ups, lows, z, q),
                          lambda: (*mp_parameters(spec), to_mp(qc.q)), ctx, floor, tail)
