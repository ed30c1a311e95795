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
Both tails must converge: |z| < 1 (or termination) and |w| < 1.

Terms come from the running term ratio (`q_ratio_terms`), on raw libmp
values with the classical engine's operator tables, so they carry the bits
of the same recurrence written with mp numbers. Every phi series takes the
classical engine's direct route,
`series.sum_direct`, with its passes at raised precision against
cancellation. A terminating one adds all its terms and has no tail; an
exactly zero total comes back with an absolute error. A nonterminating one
gets a geometric tail bound, and an exactly zero sum raises
CancellationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    fhalf, fone, fzero, mpc_abs, mpc_neg, mpc_pow_int, mpc_sub, mpf_abs, mpf_cmp, mpf_neg,
    mpf_pow_int, mpf_sub, round_nearest,
)

from .errors import BudgetExceeded, DivisionByZero, DomainError, IndeterminateError, LowerPoleError
from .precision import INF, PrecisionContext, to_mp
from .series import (
    ADD, DIV, MUL, SeriesResult, from_raw, join_halves, mp_parameters, raw, reflected_factors,
    sum_direct,
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


@dataclass(frozen=True)
class QSeriesSpec:
    """Parameter lists, argument and kind of a basic hypergeometric series.

    terminating_index marks an upper parameter equal to q^-n exactly; the
    engine cannot detect that reliably from rounded values, so callers that
    construct terminating series state n themselves.
    """

    uppers: tuple
    lowers: tuple
    argument: object
    kind: str  # "phi" | "psi"
    terminating_index: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("phi", "psi"):
            raise ValueError(f"unknown q-series kind {self.kind!r}")
        if self.kind == "psi" and len(self.uppers) != len(self.lowers):
            raise ValueError("psi series requires equal parameter counts")
        object.__setattr__(self, "uppers", tuple(self.uppers))
        object.__setattr__(self, "lowers", tuple(self.lowers))


def principal_sqrt(a):
    """Principal-branch square root (builds the +-sqrt(a) well-poised pairs)."""
    return mpmath.sqrt(to_mp(a))


def q_pochhammer(x, qc: QContext, n):
    """(x;q)_n for an int n or INF; any other n raises DomainError.

    n >= 0: finite product prod_{i<n} (1 - x q^i). n < 0: the divisor form
    (x;q)_{-m} = 1 / ((x q^-m; q)_m), which raises DivisionByZero at a zero
    factor. n = INF: the factors 1 - x q^i while |x q^i| >= 1/2 (an exact
    zero among them returns 0), times Euler's series (y;q)_inf = sum c_n y^n,
    c_n = (-1)^n q^C(n,2) / (q;q)_n, in y = x q^m (Gasper-Rahman, 1.3), by
    Horner over a row of c_n cached per (q, precision) up to the first term
    below 2^-wp. Both run on raw libmp values (mpc when x or q is complex) at
    wp = working precision + ceil(log2((-1/2;|q|)_inf / (1/2;|q|)_inf)) + 10
    bits, rounded once to working precision: for |y| < 1/2, sum |c_n y^n| <=
    (-|y|;|q|)_inf and |(y;q)_inf| >= (|y|;|q|)_inf, so that ratio bounds the
    bits lost to cancellation. The guard's loop, factors plus row length are
    held to 100 dps + 10000 steps, past which BudgetExceeded is raised.
    """
    ctx = qc.ctx
    with ctx.working():
        q = to_mp(qc.q)
        xx = to_mp(x)
        if n is INF or n == mpmath.inf:
            if xx == 0:
                return mpf(1)
            return _infinite_product(xx, q, ctx)
        if not isinstance(n, int):
            raise DomainError(f"(x;q)_n needs an integer n or INF, not {n!r}")
        prod = mpmath.mpc(1) if isinstance(xx, mpmath.mpc) else mpf(1)
        xq = xx if n >= 0 else xx * q**n
        for _ in range(abs(n)):
            factor = 1 - xq
            if n < 0 and factor == 0:
                raise DivisionByZero(f"(x;q)_{n} hits a zero factor")
            prod = prod * factor
            xq = xq * q
        return prod if n >= 0 else 1 / prod


def _log2_abs(v):
    """log2 |v| as a float for a raw mpf or mpc value v; -inf at zero."""
    _, man, exp, _ = mpc_abs(v, 53, round_nearest) if len(v) == 2 else v
    return math.log2(man) + exp if man else -math.inf


@lru_cache(maxsize=4)
def _euler_row(qv, prec, budget):
    """(wp, raw c_0 .. c_N at wp, float log2 |c_n|) for a raw q (see
    q_pochhammer); N is the first n with |c_n| 2^-n < 2^-wp."""
    aq, u, guard = 2.0 ** _log2_abs(qv), 0.5, 0.0
    for _ in range(budget):
        guard += math.log2((1 + u) / (1 - u))
        u *= aq
        if u < 2.0 ** -60:
            break
    else:
        raise BudgetExceeded("infinite q-product failed to truncate")
    wp, qc, rnd = prec + math.ceil(guard) + 10, len(qv) == 2, round_nearest
    one, sub = ((fone, fzero), mpc_sub) if qc else (fone, mpf_sub)
    row, logs, qn = [one], [0.0], one
    while logs[-1] - len(logs) + 1 >= -wp:
        if len(row) > budget:
            raise BudgetExceeded("infinite q-product failed to truncate")
        # c_{n+1} = c_n q^n / (q^(n+1) - 1)
        c, qn = MUL[qc][qc](row[-1], qn, wp, rnd), MUL[qc][qc](qn, qv, wp, rnd)
        row.append(DIV[qc][qc](c, sub(qn, one, wp, rnd), wp, rnd))
        logs.append(_log2_abs(row[-1]))
    return wp, tuple(row), tuple(logs)


def _infinite_product(x, q, ctx: PrecisionContext):
    """(x;q)_inf for nonzero x at working precision (see q_pochhammer)."""
    prec, rnd, budget = mp.prec, round_nearest, 100 * ctx.dps + 10000
    (xc, xq), (qc, qv) = raw(x), raw(q)
    wp, row, logs = _euler_row(qv, prec, budget)
    cplx = xc or qc
    one, sub, size = ((fone, fzero), mpc_sub, mpc_abs) if cplx else (fone, mpf_sub, mpf_abs)
    mul, step, add = MUL[cplx][cplx], MUL[cplx][qc], ADD[cplx][qc]
    if cplx and not xc:
        xq = (xq, fzero)
    prod, zero, used = one, sub(one, one, wp, rnd), 0
    while mpf_cmp(size(xq, wp, rnd), fhalf) >= 0:
        factor = sub(one, xq, wp, rnd)
        if factor == zero:
            return mpf(0)
        prod = mul(prod, factor, wp, rnd)
        xq = step(xq, qv, wp, rnd)
        used += 1
        if used + len(row) > budget:
            raise BudgetExceeded("infinite q-product failed to truncate")
    total, ly = zero, _log2_abs(xq)
    n = next((n for n, lc in enumerate(logs) if lc + n * ly < -wp), len(row))
    for c in reversed(row[:n]):
        total = add(mul(total, xq, wp, rnd), c, wp, rnd)
    return from_raw(mul(prod, total, prec, rnd))


def q_bracket(numers, denoms, qc: QContext, n):
    """prod (x_i;q)_n / prod (y_j;q)_n with a shared index n (or INF).

    Returns exact 0 when a numerator entry vanishes and no denominator entry
    does; IndeterminateError when both vanish.
    """
    with qc.ctx.working():
        nums = [q_pochhammer(x, qc, n) for x in numers]
        dens = [q_pochhammer(y, qc, n) for y in denoms]
        if 0 in dens:
            if 0 in nums:
                raise IndeterminateError("q-bracket vanishes in numerator and denominator")
            raise DivisionByZero("q-bracket denominator entry vanishes")
        if 0 in nums:
            return mpf(0)
        return mpmath.fprod(nums) / mpmath.fprod(dens)


def split_psi(spec: QSeriesSpec, qc: QContext):
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
        plus = QSeriesSpec((q, *ups), tuple(lows), z, "phi", spec.terminating_index)
        w = mpf(1)
        for b in lows:
            w = w * b
        for a in ups:
            w = w / a
        w = w / z
        reflected = reflected_factors(ups, lows, lambda x: 1 - q / x, "q")
        if reflected is None:
            return plus, mpf(0), None
        pnum, pden = reflected
        pref = w * pnum / pden
        minus = QSeriesSpec(
            (q, *(q * q / b for b in lows)),
            tuple(q * q / a for a in ups),
            w,
            "phi",
        )
        return plus, pref, minus


def q_ratio_terms(uppers, lowers, z, q, extra, max_k=None):
    """Yield the phi-series terms t_0, t_1, ... as raw libmp values, from
    t_0 = 1 (complex when z is) via t_{k+1} = t_k z prod(1 - a q^k)
    (-q^k)^extra / ((1 - q^{k+1}) prod(1 - b q^k)), up to t_{max_k}.

    Like `series.ratio_terms`, it reads its mp arguments and the ambient
    precision when the first term is asked for, and its terms are those of
    the recurrence written with mp operators: 1 - x is mpf_sub(1, x), or
    mpc_sub((1, 0), x) for a complex x, and (-q^k)^extra is mpf_pow_int (or
    mpc_pow_int) of the negated power.
    """
    prec, rnd = mp.prec, round_nearest
    zc, zv = raw(z)
    qc, qv = raw(q)

    def factors(params, acc_c):
        # (x, the routine of x q^k, 1 - x q^k, and of acc * (1 - x q^k))
        plan = []
        for x in params:
            xc, xv = raw(x)
            fc = xc or qc
            sub, one = (mpc_sub, (fone, fzero)) if fc else (mpf_sub, fone)
            plan.append((xv, MUL[xc][qc], sub, one, MUL[acc_c][fc]))
            acc_c = acc_c or fc
        return plan, acc_c

    ups, num_c = factors(uppers, zc)
    lows, den_c = factors(lowers, qc)
    qmul = MUL[qc][qc]
    sub1, one1 = (mpc_sub, (fone, fzero)) if qc else (mpf_sub, fone)
    # the balancing factor (-q^k)^extra joins the numerator last
    neg, power = (mpc_neg, mpc_pow_int) if qc else (mpf_neg, mpf_pow_int)
    xmul = MUL[num_c][qc]
    if extra:
        num_c = num_c or qc
    zero = (fzero, fzero) if den_c else fzero
    t, tc = (mpc_pow_int if zc else mpf_pow_int)(zv, 0, prec, rnd), zc
    qk = (mpc_pow_int if qc else mpf_pow_int)(qv, 0, prec, rnd)
    k = 0
    while True:
        yield t
        if max_k is not None and k >= max_k:
            return
        num = zv
        for xv, xq, sub, one, mul in ups:
            num = mul(num, sub(one, xq(xv, qk, prec, rnd), prec, rnd), prec, rnd)
        den = sub1(one1, qmul(qv, qk, prec, rnd), prec, rnd)
        for xv, xq, sub, one, mul in lows:
            den = mul(den, sub(one, xq(xv, qk, prec, rnd), prec, rnd), prec, rnd)
        if den == zero:
            raise LowerPoleError(f"q-series denominator vanishes at k = {k}")
        if extra:
            num = xmul(num, power(neg(qk, prec, rnd), extra, prec, rnd), prec, rnd)
        t = DIV[tc or num_c][den_c](MUL[tc][num_c](t, num, prec, rnd), den, prec, rnd)
        tc = tc or num_c or den_c
        qk = qmul(qk, qv, prec, rnd)
        k += 1


def sum_q_series(spec: QSeriesSpec, qc: QContext) -> SeriesResult:
    """Sum a phi- or psi-type basic hypergeometric series."""
    ctx = qc.ctx
    with ctx.working():
        z = to_mp(spec.argument)
        if spec.kind == "phi":
            extra = len(spec.lowers) - (len(spec.uppers) - 1)
            n = spec.terminating_index
            floor = None  # a finite stream has no tail
            if n is None:
                if extra < 0:
                    raise DomainError(
                        "phi series with more uppers than lowers diverges unless terminating"
                    )
                if extra == 0 and not abs(z) < 1:
                    raise DomainError("phi series requires |z| < 1 or termination")
                # a balanced series' term ratio tends to z, any other's to 0
                floor = abs(z) if extra == 0 else mpf(0)
            return sum_direct(
                lambda: q_ratio_terms(*mp_parameters(spec), to_mp(qc.q), extra, max_k=n), ctx, floor)
        # psi
        plus, pref, minus = split_psi(spec, qc)
        w = to_mp(minus.argument) if minus is not None else None
        if spec.terminating_index is None and not abs(z) < 1:
            raise DomainError("psi series requires |z| < 1 (or a terminating upper)")
        if minus is not None and not abs(w) < 1:
            raise DomainError(
                "psi series outside its convergence annulus: |prod(b)/(prod(a) z)| >= 1"
            )
        res_plus = sum_q_series(plus, qc)
        res_minus = sum_q_series(minus, qc) if minus is not None else None
        return join_halves(res_plus, pref, res_minus)
