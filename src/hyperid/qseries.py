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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import mpmath
from mpmath import mpf

from .errors import BudgetExceeded, DivisionByZero, DomainError, IndeterminateError
from .exact import q_term_stream, qpoch
from .precision import INF, PrecisionContext, to_mp
from .series import (
    ConvergenceClass,
    SeriesResult,
    join_halves,
    partial_sum,
    reflected_factors,
    sum_terminating,
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
        object.__setattr__(self, "uppers", tuple(self.uppers))
        object.__setattr__(self, "lowers", tuple(self.lowers))


def principal_sqrt(a):
    """Principal-branch square root (builds the +-sqrt(a) well-poised pairs)."""
    return mpmath.sqrt(to_mp(a))


def q_pochhammer(x, qc: QContext, n):
    """(x;q)_n for integer n or INF.

    n >= 0: finite product prod_{i<n} (1 - x q^i). n = INF: the infinite
    product, truncated once |x q^i| drops below working epsilon, with a
    first-order tail correction exp(-x q^N / (1-q)). n < 0: the divisor form
    (x;q)_{-m} = 1 / ((x q^-m; q)_m).
    """
    ctx = qc.ctx
    with ctx.working():
        q = to_mp(qc.q)
        xx = to_mp(x)
        if n is INF or n == mpmath.inf:
            if not abs(q) < 1:
                raise DomainError("infinite q-product requires |q| < 1")
            if xx == 0:
                return mpf(1)
            eps = ctx.eps()
            prod = mpf(1)
            xq = xx
            used = 0
            while abs(xq) >= eps:
                factor = 1 - xq
                if factor == 0:
                    return mpf(0)
                prod = prod * factor
                xq = xq * q
                used += 1
                if used > 100 * ctx.dps + 10000:
                    raise BudgetExceeded("infinite q-product failed to truncate")
            return prod * mpmath.exp(-xq / (1 - q))
        return qpoch(xx, q, int(n))


def q_bracket(numers, denoms, qc: QContext, n):
    """prod (x_i;q)_n / prod (y_j;q)_n with a shared index n (or INF).

    Returns exact 0 when a numerator entry vanishes and no denominator entry
    does; IndeterminateError when both vanish.
    """
    with qc.ctx.working():
        num = mpf(1)
        num_zero = False
        for x in numers:
            p = q_pochhammer(x, qc, n)
            if p == 0:
                num_zero = True
            num = num * p
        den = mpf(1)
        den_zero = False
        for y in denoms:
            p = q_pochhammer(y, qc, n)
            if p == 0:
                den_zero = True
            den = den * p
        if num_zero and den_zero:
            raise IndeterminateError("q-bracket vanishes in numerator and denominator")
        if den_zero:
            raise DivisionByZero("q-bracket denominator entry vanishes")
        if num_zero:
            return mpf(0)
        return num / den


def _sum_q_direct(uppers, lowers, z, qc, extra, cls):
    ctx = qc.ctx
    total, peak, used, last, prev, settled = partial_sum(
        q_term_stream(uppers, lowers, z, to_mp(qc.q), extra), ctx, ctx.max_terms
    )
    if not settled:
        raise BudgetExceeded(f"q-series needs more than {ctx.max_terms} terms")
    # a zero term makes every later term zero, and then the tail is zero
    ratio_mag = abs(last) / abs(prev) if last != 0 else abs(z)
    rho = max(abs(z), ratio_mag) if extra == 0 else ratio_mag
    if rho >= 1:
        raise BudgetExceeded(f"q-series tail ratio {mpmath.nstr(rho, 5)} is not below 1")
    tail = abs(last) * rho / (1 - rho)
    err = tail + peak * ctx.eps() * used
    return SeriesResult(total, err, used, "direct", cls)


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
    if len(spec.uppers) != len(spec.lowers):
        raise DomainError("bilateral q-series support requires equally many uppers and lowers")
    ctx = qc.ctx
    with ctx.working():
        q = to_mp(qc.q)
        ups = [to_mp(a) for a in spec.uppers]
        lows = [to_mp(b) for b in spec.lowers]
        z = to_mp(spec.argument)
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


def sum_q_series(spec: QSeriesSpec, qc: QContext) -> SeriesResult:
    """Sum a phi- or psi-type basic hypergeometric series."""
    ctx = qc.ctx
    with ctx.working():
        q = to_mp(qc.q)
        z = to_mp(spec.argument)
        if spec.kind == "phi":
            ups = [to_mp(a) for a in spec.uppers]
            lows = [to_mp(b) for b in spec.lowers]
            extra = len(lows) - (len(ups) - 1)
            n = spec.terminating_index
            if n is None:
                if extra < 0:
                    raise DomainError(
                        "phi series with more uppers than lowers diverges unless terminating"
                    )
                if extra == 0 and not abs(z) < 1:
                    raise DomainError("phi series requires |z| < 1 or termination")
            if n is not None:
                terms = q_term_stream(ups, lows, z, q, extra, max_k=n)
                return sum_terminating(terms, ctx, ConvergenceClass.terminating(n))
            cls = ConvergenceClass.geometric(min(abs(z), mpf("0.999999")))
            return _sum_q_direct(ups, lows, z, qc, extra, cls)
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
        if minus is None:
            return res_plus
        res_minus = sum_q_series(minus, qc)
        cls = ConvergenceClass.geometric(min(max(abs(z), abs(w)), mpf("0.999999")))
        return join_halves(res_plus, pref, res_minus, cls)
