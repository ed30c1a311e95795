"""Executable identity catalog.

Each entry couples a parameter schema, machine-checkable constraints, a
seedable sampler over dyadic rationals, and independent left/right-side
evaluators returning SeriesResult. Left sides run through the series
engines; right sides are gamma ratios, q-brackets, or independent series
routes, so an indexing bug on either side breaks the comparison.

Terminating entries at rational parameters are evaluated in exact Fraction
arithmetic (zero error); everything else runs at working precision with a
pass rule of

    rel_err < max(10^(8-digits), 100 (err_lhs + err_rhs) / |rhs|).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mpmath import mpf

from . import exact
from .errors import DomainError
from .gammafn import gamma_ratio, pochhammer
from .precision import INF, PrecisionContext, exact_int, nonpositive_int, to_mp
from .qseries import QContext, QSeriesSpec, principal_sqrt, q_bracket, sum_q_series
from .series import ConvergenceClass, SeriesResult, SeriesSpec, sum_bilateral, sum_unilateral

GRAIN = 64  # dyadic sampling grid 1/64


@dataclass(frozen=True)
class IdentityCase:
    """One identity: schema, constraints, sampler and both-side evaluators."""

    id: str
    description: str
    schema: dict
    constraints: tuple
    sampler: Callable
    check: Callable
    lhs: Callable
    rhs: Callable


# ---------------------------------------------------------------------------
# sampling helpers

def _dyadic(rng, lo, hi) -> Fraction:
    """Dyadic rational strictly inside (lo, hi) on the 1/GRAIN grid."""
    lo_n = int(lo * GRAIN) + 1
    hi_n = int(hi * GRAIN) - 1
    return Fraction(rng.randint(lo_n, hi_n), GRAIN)


def _dyadic_noninteger(rng, lo, hi) -> Fraction:
    while True:
        v = _dyadic(rng, lo, hi)
        if v.denominator > 1:
            return v


def _complexify(params, rng, index, fields):
    """Every tenth sample gets imaginary dyadic parts on the given fields."""
    if index % 10 != 9:
        return params
    for f in fields:
        while True:
            im = Fraction(rng.randint(-GRAIN, GRAIN), GRAIN)
            if im != 0:
                break
        params[f] = complex(float(params[f]), float(im))
    return params


def _re(v):
    if isinstance(v, complex):
        return Fraction(v.real)
    return Fraction(v)


def _is_integer(v) -> bool:
    return exact_int(v) is not None


def _bad_nonpositive(v, window: Optional[int] = None) -> bool:
    """True when v is a nonpositive integer (within -window+1..0 if given)."""
    m = nonpositive_int(v)
    if m is None:
        return False
    return True if window is None else m <= window - 1


def _clear_of_q_poles(x, q: Fraction, upto: Optional[int] = None) -> bool:
    """False when x == q**-i for some admissible i >= 0 (i < upto if given)."""
    x = Fraction(x)
    if x <= 0:
        return True
    i = 0
    v = x
    while True:
        if upto is not None and i >= upto:
            return True
        if v == 1:
            return False
        if v < 1:
            return True
        v *= q
        i += 1


# ---------------------------------------------------------------------------
# evaluator helpers

def _pfq(uppers, lowers, ctx, z=1) -> SeriesResult:
    return sum_unilateral(SeriesSpec(tuple(uppers), tuple(lowers), z, "unilateral"), ctx)


def _hh(uppers, lowers, ctx, z=1) -> SeriesResult:
    return sum_bilateral(SeriesSpec(tuple(uppers), tuple(lowers), z, "bilateral"), ctx)


def _closed(value, ctx) -> SeriesResult:
    return SeriesResult(value, abs(value) * ctx.eps() * 20, 0, "direct", None)


def _exact_pair(lhs: Fraction, rhs: Fraction, ctx, terms):
    with ctx.working():
        lv = to_mp(lhs)
        rv = to_mp(rhs)
    zero = mpf(0)
    cls = ConvergenceClass.terminating(terms - 1)
    return (
        SeriesResult(lv, zero, terms, "terminating", cls),
        SeriesResult(rv, zero, 0, "terminating", cls),
    )


def _scaled(result: SeriesResult, factor, ctx) -> SeriesResult:
    with ctx.working():
        value = factor * result.value
        err = abs(factor) * result.err_estimate + abs(value) * ctx.eps() * 10
    return SeriesResult(value, err, result.terms_used, result.method, result.convergence)


def _added(a: SeriesResult, b: SeriesResult, ctx) -> SeriesResult:
    with ctx.working():
        value = a.value + b.value
        err = a.err_estimate + b.err_estimate + abs(value) * ctx.eps() * 10
    method = "levin" if "levin" in (a.method, b.method) else a.method
    return SeriesResult(value, err, a.terms_used + b.terms_used, method, a.convergence)


def phi_sum(a, b, c, d, ctx) -> SeriesResult:
    """Phi(a,b;c,d) = sum_k G(a+k)G(b+k)G(a+b+c+d-1+k) / (k! G(a+b+c+k)G(a+b+d+k)).

    Terms decay like k^-2 for every parameter choice, so the evaluation runs
    through the Levin route of the series engine behind a gamma prefactor.
    """
    with ctx.working():
        a, b, c, d = (to_mp(v) for v in (a, b, c, d))
        s1 = a + b + c + d - 1
        pref = gamma_ratio([a, b, s1], [a + b + c, a + b + d], ctx)
        series = _pfq([a, b, s1], [a + b + c, a + b + d], ctx)
        return _scaled(series, pref, ctx)


def phi_via_3f2(c, d, a, b, ctx) -> SeriesResult:
    """Phi(c,d;a,b) through its 3F2 representation
    3F2(1, a+d, b+d; 1+d, a+b+c+d; 1) / (d (a+b+c+d-1))."""
    with ctx.working():
        a, b, c, d = (to_mp(v) for v in (a, b, c, d))
        denom = d * (a + b + c + d - 1)
        if denom == 0:
            raise DomainError("prefactor pole: d (a+b+c+d-1) = 0")
        series = _pfq([1, a + d, b + d], [1 + d, a + b + c + d], ctx)
        return _scaled(series, 1 / denom, ctx)


def _vwp_phi(base, extras, arg, qc, sqrt_base=None) -> SeriesResult:
    """Very-well-poised phi series: uppers (base, +-q sqrt(base), extras),
    lowers (+-sqrt(base), q base/x for x in extras)."""
    with qc.ctx.working():
        q = to_mp(qc.q)
        r = sqrt_base if sqrt_base is not None else principal_sqrt(base)
        uppers = (base, q * r, -q * r, *extras)
        lowers = (r, -r, *(q * base / x for x in extras))
    return sum_q_series(QSeriesSpec(uppers, lowers, arg, "phi"), qc)


def _vwp_psi(base, extras, arg, qc) -> SeriesResult:
    """Very-well-poised psi series: uppers (+-q sqrt(base), extras), lowers
    (+-sqrt(base), q base/x for x in extras)."""
    with qc.ctx.working():
        q = to_mp(qc.q)
        r = principal_sqrt(base)
        uppers = (q * r, -q * r, *extras)
        lowers = (r, -r, *(q * base / x for x in extras))
    return sum_q_series(QSeriesSpec(uppers, lowers, arg, "psi"), qc)


def _qp(params, ctx):
    """mp views of the q-entry parameters and their QContext."""
    qc = QContext(params["q"], ctx)
    with ctx.working():
        vals = {k: to_mp(v) for k, v in params.items() if k not in ("q", "n")}
        return qc, to_mp(params["q"]), vals


# ---------------------------------------------------------------------------
# classical entries

def _mk_saalschuetz():
    def sampler(rng, index):
        p = {
            "a": _dyadic(rng, 0, 4), "b": _dyadic(rng, 0, 4),
            "c": _dyadic(rng, 0, 4), "n": rng.randint(0, 30),
        }
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        n = p["n"]
        if not (isinstance(n, int) and 0 <= n <= 30):
            return False
        if not _re(p["c"]) > 0:
            return False
        for w in (p["c"] - p["a"] - p["b"], p["c"] - p["a"], p["c"] - p["b"]):
            if _bad_nonpositive(w, window=n):
                return False
        return True

    def lhs(p, ctx):
        if all(isinstance(p[k], Fraction) for k in ("a", "b", "c")):
            lv, rv = exact.saalschuetz_sides(p["a"], p["b"], p["c"], p["n"])
            return _exact_pair(lv, rv, ctx, p["n"] + 1)[0]
        with ctx.working():
            a, b, c = (to_mp(p[k]) for k in ("a", "b", "c"))
            n = p["n"]
            return _pfq([a, b, -n], [c, 1 + a + b - c - n], ctx)

    def rhs(p, ctx):
        if all(isinstance(p[k], Fraction) for k in ("a", "b", "c")):
            lv, rv = exact.saalschuetz_sides(p["a"], p["b"], p["c"], p["n"])
            return _exact_pair(lv, rv, ctx, p["n"] + 1)[1]
        with ctx.working():
            a, b, c = (to_mp(p[k]) for k in ("a", "b", "c"))
            n = p["n"]
            v = (
                pochhammer(c - a, n, ctx) * pochhammer(c - b, n, ctx)
                / (pochhammer(c, n, ctx) * pochhammer(c - a - b, n, ctx))
            )
            return _closed(v, ctx)

    return IdentityCase(
        "saalschuetz",
        "terminating balanced 3F2(a,b,-n; c,1+a+b-c-n; 1) as a Pochhammer ratio",
        {"a": "complex", "b": "complex", "c": "complex", "n": "int 0..30"},
        ("c > 0", "c-a-b, c-a, c-b not in {0,-1,...,-(n-1)}"),
        sampler, check, lhs, rhs,
    )


def _mk_saalschuetz_nt():
    def sampler(rng, index):
        a = _dyadic(rng, 0, 2)
        b = _dyadic(rng, 0, 2)
        c = _dyadic(rng, 0, 4)
        d = a + b + _dyadic(rng, 15, 25)
        p = {"a": a, "b": b, "c": c, "d": d}
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        if _re(d) - _re(a) - _re(b) < 14:
            return False
        if _is_integer(c - a - b):
            return False
        if abs(_re(a) + _re(b) - _re(c)) < Fraction(1, 1000):
            return False
        # c+d-a-b-1 at a nonpositive integer degenerates the two-term right
        # side (vanishing gamma prefactor against a divergent series)
        if _bad_nonpositive(c + d - a - b - 1):
            return False
        for w in (c - a, c - b, d - a, d - b):
            if _bad_nonpositive(w):
                return False
        return True

    def lhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in ("a", "b", "c", "d"))
            return _pfq([a, b, c + d - a - b - 1], [c, d], ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in ("a", "b", "c", "d"))
            series = _pfq([1, c - a, c - b], [c - a - b + 1, c + d - a - b], ctx)
            pref = gamma_ratio([c, d], [a, b, c + d - a - b], ctx) / (a + b - c)
            term1 = _scaled(series, pref, ctx)
            term2 = gamma_ratio([c, d, c - a - b, d - a - b], [c - a, c - b, d - a, d - b], ctx)
            return _added(term1, _closed(term2, ctx), ctx)

    return IdentityCase(
        "saalschuetz-nt",
        "nonterminating balanced 3F2(a,b,c+d-a-b-1; c,d; 1) two-term evaluation",
        {"a": "complex", "b": "complex", "c": "complex", "d": "complex"},
        ("Re(d-a-b)>0", "sampler margin Re(d-a-b) in [15,25]",
         "|a+b-c| >= 1/1000", "c-a-b not an integer"),
        sampler, check, lhs, rhs,
    )


def _mk_dougall_2h2():
    def sampler(rng, index):
        a = _dyadic_noninteger(rng, 0, 2)
        b = _dyadic_noninteger(rng, 0, 2)
        while True:
            d1 = _dyadic(rng, 7, 15)
            d2 = _dyadic(rng, 7, 15)
            if 15 <= d1 + d2 <= 30:
                break
        p = {"a": a, "b": b, "c": a + d1, "d": b + d2}
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        for v in (a, b):
            if _is_integer(v):
                return False
        s = _re(c) + _re(d) - _re(a) - _re(b)
        if not (15 <= s <= 30):
            return False
        for w in (c - a, c - b, d - a, d - b):
            if _bad_nonpositive(w):
                return False
        return True

    def lhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in ("a", "b", "c", "d"))
            return _hh([a, b], [c, d], ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in ("a", "b", "c", "d"))
            v = gamma_ratio(
                [1 - a, 1 - b, c, d, c + d - a - b - 1],
                [c - a, c - b, d - a, d - b], ctx,
            )
            return _closed(v, ctx)

    return IdentityCase(
        "dougall-2h2",
        "Dougall bilateral 2H2(a,b;c,d;1) as a gamma ratio",
        {"a": "complex", "b": "complex", "c": "complex", "d": "complex"},
        ("Re(c+d-a-b)>1", "sampler: Re(c+d-a-b) in [15,30]", "a, b not integers"),
        sampler, check, lhs, rhs,
    )


def _mk_gauss_2f1():
    def sampler(rng, index):
        a = _dyadic(rng, 0, 2)
        b = _dyadic(rng, 0, 2)
        c = a + b + _dyadic(rng, 5, 25)
        p = {"a": a, "b": b, "c": c}
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        s = _re(p["c"]) - _re(p["a"]) - _re(p["b"])
        return 4 <= s <= 26 and _re(p["c"]) > 0

    def lhs(p, ctx):
        with ctx.working():
            a, b, c = (to_mp(p[k]) for k in ("a", "b", "c"))
            return _pfq([a, b], [c], ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b, c = (to_mp(p[k]) for k in ("a", "b", "c"))
            return _closed(gamma_ratio([c, c - a - b], [c - a, c - b], ctx), ctx)

    return IdentityCase(
        "gauss-2f1",
        "Gauss 2F1(a,b;c;1) as a gamma ratio",
        {"a": "complex", "b": "complex", "c": "complex"},
        ("Re(c-a-b)>0", "sampler: Re(c-a-b) in [5,25]"),
        sampler, check, lhs, rhs,
    )


def _mk_dixon():
    def sampler(rng, index):
        while True:
            a = _dyadic(rng, 1, 4)
            b = _dyadic_noninteger(rng, Fraction(-7, 2), Fraction(-1, 2))
            c = _dyadic_noninteger(rng, Fraction(-7, 2), Fraction(-1, 2))
            if 5 <= 1 + Fraction(a, 2) - b - c <= 9:
                break
        p = {"a": a, "b": b, "c": c}
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        a, b, c = p["a"], p["b"], p["c"]
        if _is_integer(b) or _is_integer(c):
            return False
        m = 1 + _re(a) / 2 - _re(b) - _re(c)
        return 5 <= m <= 9

    def lhs(p, ctx):
        with ctx.working():
            a, b, c = (to_mp(p[k]) for k in ("a", "b", "c"))
            return _pfq([a, b, c], [1 + a - b, 1 + a - c], ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b, c = (to_mp(p[k]) for k in ("a", "b", "c"))
            h = a / 2
            v = gamma_ratio(
                [1 + h, 1 + a - b, 1 + a - c, 1 + h - b - c],
                [1 + a, 1 + h - b, 1 + h - c, 1 + a - b - c], ctx,
            )
            return _closed(v, ctx)

    return IdentityCase(
        "dixon",
        "Dixon 3F2(a,b,c; 1+a-b,1+a-c; 1) as a gamma ratio with half-argument factors",
        {"a": "complex", "b": "complex", "c": "complex"},
        ("Re(1+a/2-b-c)>0", "sampler margin Re(1+a/2-b-c) in [5,9]", "b, c not integers"),
        sampler, check, lhs, rhs,
    )


def _mk_theorem1():
    def sampler(rng, index):
        while True:
            p = {k: _dyadic(rng, Fraction(1, 4), 3) for k in "abcd"}
            if sum(p.values()) > 1 + Fraction(1, 16):
                break
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        if any(_re(p[k]) <= 0 for k in "abcd"):
            return False
        return sum(_re(p[k]) for k in "abcd") > 1 + Fraction(1, 32)

    def lhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            return _added(phi_sum(a, b, c, d, ctx), phi_sum(c, d, a, b, ctx), ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            v = gamma_ratio(
                [a, b, c, d, a + b + c + d - 1],
                [a + c, a + d, b + c, b + d], ctx,
            )
            return _closed(v, ctx)

    return IdentityCase(
        "theorem-1",
        "symmetric identity Phi(a,b;c,d) + Phi(c,d;a,b) = gamma-product ratio",
        {"a": "complex", "b": "complex", "c": "complex", "d": "complex"},
        ("Re(a+b+c+d)>1 margin 1/32", "Re(a),Re(b),Re(c),Re(d)>0"),
        sampler, check, lhs, rhs,
    )


def _mk_theorem1_ca_db():
    def sampler(rng, index):
        while True:
            p = {"a": _dyadic(rng, Fraction(1, 4), 2), "b": _dyadic(rng, Fraction(1, 4), 2)}
            if 2 * p["a"] + 2 * p["b"] - 1 > Fraction(1, 16):
                break
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        if any(_re(p[k]) <= 0 for k in "ab"):
            return False
        return 2 * _re(p["a"]) + 2 * _re(p["b"]) - 1 > Fraction(1, 32)

    def lhs(p, ctx):
        with ctx.working():
            a, b = to_mp(p["a"]), to_mp(p["b"])
            return _pfq([a, b, 2 * a + 2 * b - 1], [a + 2 * b, 2 * a + b], ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b = to_mp(p["a"]), to_mp(p["b"])
            v = gamma_ratio([a, b, a + 2 * b, 2 * a + b], [2 * a, 2 * b, a + b, a + b], ctx) / 2
            return _closed(v, ctx)

    return IdentityCase(
        "theorem-1-ca-db",
        "3F2(a,b,2a+2b-1; a+2b,2a+b; 1) = (1/2) gamma-product ratio",
        {"a": "complex", "b": "complex"},
        ("Re(a)>0, Re(b)>0", "2a+2b-1 > 0 margin 1/32"),
        sampler, check, lhs, rhs,
    )


def _mk_theorem1_b_neg_n():
    def sampler(rng, index):
        p = {
            "a": _dyadic(rng, Fraction(1, 4), 3),
            "c": _dyadic(rng, Fraction(1, 4), 3),
            "d": _dyadic(rng, Fraction(1, 4), 3),
            "n": rng.randint(0, 20),
        }
        return _complexify(p, rng, index, ("a",))

    def check(p):
        if not (isinstance(p["n"], int) and 0 <= p["n"] <= 20):
            return False
        return not (_is_integer(p["a"] + p["c"]) or _is_integer(p["a"] + p["d"]))

    def lhs(p, ctx):
        if all(isinstance(p[k], Fraction) for k in ("a", "c", "d")):
            lv, rv = exact.phi_symmetric_terminating_sides(p["a"], p["c"], p["d"], p["n"])
            return _exact_pair(lv, rv, ctx, p["n"] + 1)[0]
        with ctx.working():
            a, c, d = (to_mp(p[k]) for k in ("a", "c", "d"))
            n = p["n"]
            return _pfq([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n], ctx)

    def rhs(p, ctx):
        if all(isinstance(p[k], Fraction) for k in ("a", "c", "d")):
            lv, rv = exact.phi_symmetric_terminating_sides(p["a"], p["c"], p["d"], p["n"])
            return _exact_pair(lv, rv, ctx, p["n"] + 1)[1]
        with ctx.working():
            a, c, d = (to_mp(p[k]) for k in ("a", "c", "d"))
            n = p["n"]
            v = (
                pochhammer(1 - c, n, ctx) * pochhammer(1 - d, n, ctx)
                / (pochhammer(1 - a - c, n, ctx) * pochhammer(1 - a - d, n, ctx))
            )
            return _closed(v, ctx)

    return IdentityCase(
        "theorem-1-b-neg-n",
        "terminating reduction 3F2(a,a+c+d-1-n,-n; a+c-n,a+d-n; 1) as a Pochhammer ratio",
        {"a": "complex", "c": "complex", "d": "complex", "n": "int 0..20"},
        ("a+c, a+d not integers",),
        sampler, check, lhs, rhs,
    )


def _mk_phi_as_3f2():
    def sampler(rng, index):
        p = {
            "a": _dyadic(rng, Fraction(1, 4), 3),
            "b": _dyadic(rng, Fraction(1, 4), 3),
            "c": _dyadic(rng, 5, 8),
            "d": _dyadic(rng, Fraction(1, 4), 3),
        }
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        if any(_re(p[k]) <= 0 for k in "abcd"):
            return False
        return _re(p["c"]) >= 5

    def lhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            return phi_sum(c, d, a, b, ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            return phi_via_3f2(c, d, a, b, ctx)

    return IdentityCase(
        "phi-as-3f2",
        "Phi(c,d;a,b) route equivalence: direct sum vs 3F2(1,a+d,b+d;1+d,a+b+c+d;1)/(d(a+b+c+d-1))",
        {"a": "complex", "b": "complex", "c": "complex", "d": "complex"},
        ("Re(c) >= 5 (3F2 route decay exponent 1+c)", "d != 0"),
        sampler, check, lhs, rhs,
    )


def _mk_h22_split():
    def sampler(rng, index):
        while True:
            p = {
                "a": _dyadic_noninteger(rng, Fraction(1, 4), 2),
                "b": _dyadic_noninteger(rng, Fraction(1, 4), 2),
                "c": _dyadic_noninteger(rng, 6, 15),
                "d": _dyadic_noninteger(rng, 6, 15),
            }
            if 15 <= sum(p.values()) <= 30:
                break
        return _complexify(p, rng, index, ("a", "b"))

    def check(p):
        for k in "abcd":
            if _is_integer(p[k]) or _re(p[k]) <= 0:
                return False
        return 15 <= sum(_re(p[k]) for k in "abcd") <= 30

    def lhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            both = _added(phi_sum(c, d, a, b, ctx), phi_sum(a, b, c, d, ctx), ctx)
            return _scaled(both, c * d, ctx)

    def rhs(p, ctx):
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            return _hh([1 - a, 1 - b], [1 + c, 1 + d], ctx)

    return IdentityCase(
        "h22-split",
        "cd (Phi(c,d;a,b) + Phi(a,b;c,d)) = 2H2(1-a,1-b;1+c,1+d;1), the bilateral split",
        {"a": "complex", "b": "complex", "c": "complex", "d": "complex"},
        ("Re(a+b+c+d)>1", "sampler: Re(a+b+c+d) in [15,30]",
         "a,b,c,d not integers", "c,d != 0"),
        sampler, check, lhs, rhs,
    )


# ---------------------------------------------------------------------------
# q-entries

def _sample_q(rng):
    return _dyadic(rng, Fraction(1, 10), Fraction(4, 5))


def _mk_bailey_6psi6():
    def sampler(rng, index):
        while True:
            q = _sample_q(rng)
            p = {
                "a": _dyadic(rng, 1, 6),
                "b": _dyadic(rng, 1, 4), "c": _dyadic(rng, 1, 4),
                "d": _dyadic(rng, 1, 4), "e": _dyadic(rng, 1, 4),
                "q": q,
            }
            z = q * p["a"] ** 2 / (p["b"] * p["c"] * p["d"] * p["e"])
            if Fraction(1, 20) <= z <= Fraction(4, 5):
                return p

    def check(p):
        a, b, c, d, e, q = (p[k] for k in "abcdeq")
        z = q * a * a / (b * c * d * e)
        if not Fraction(1, 20) <= z <= Fraction(4, 5):
            return False
        if not _clear_of_q_poles(a, q) or not _clear_of_q_poles(a, q * q):
            return False
        for x in (b, c, d, e):
            if not _clear_of_q_poles(q * a / x, q):
                return False
        for x, y in ((b, c), (b, d), (b, e), (c, d), (c, e), (d, e)):
            if not _clear_of_q_poles(q * a / (x * y), q):
                return False
        return True

    def lhs(p, ctx):
        qc, q, v = _qp(p, ctx)
        with ctx.working():
            a, b, c, d, e = (v[k] for k in "abcde")
            z = q * a * a / (b * c * d * e)
        return _vwp_psi(a, (b, c, d, e), z, qc)

    def rhs(p, ctx):
        qc, q, v = _qp(p, ctx)
        with ctx.working():
            a, b, c, d, e = (v[k] for k in "abcde")
            z = q * a * a / (b * c * d * e)
            numers = [q, q * a, q / a, q * a / (b * c), q * a / (b * d), q * a / (b * e),
                      q * a / (c * d), q * a / (c * e), q * a / (d * e)]
            denoms = [q / b, q / c, q / d, q / e, q * a / b, q * a / c, q * a / d, q * a / e, z]
        return _closed(q_bracket(numers, denoms, qc, INF), ctx)

    return IdentityCase(
        "bailey-6psi6",
        "Bailey very-well-poised 6psi6 sum as an infinite q-bracket",
        {"a": "positive", "b": "positive", "c": "positive", "d": "positive",
         "e": "positive", "q": "in (0.1,0.8)"},
        ("|q a^2/(b c d e)| < 1", "sampler: |q a^2/(b c d e)| <= 0.8",
         "no parameter on a q-power pole"),
        sampler, check, lhs, rhs,
    )


def _mk_phi65():
    def sampler(rng, index):
        while True:
            q = _sample_q(rng)
            p = {
                "a": _dyadic(rng, 1, 6), "b": _dyadic(rng, 1, 4),
                "c": _dyadic(rng, 1, 4), "d": _dyadic(rng, 1, 4), "q": q,
            }
            z = q * p["a"] / (p["b"] * p["c"] * p["d"])
            if Fraction(1, 20) <= z <= Fraction(4, 5):
                return p

    def check(p):
        a, b, c, d, q = (p[k] for k in "abcdq")
        z = q * a / (b * c * d)
        if not Fraction(1, 20) <= z <= Fraction(4, 5):
            return False
        if not _clear_of_q_poles(a, q) or not _clear_of_q_poles(a, q * q):
            return False
        for x in (b, c, d):
            if not _clear_of_q_poles(q * a / x, q):
                return False
        for x, y in ((b, c), (b, d), (c, d)):
            if not _clear_of_q_poles(q * a / (x * y), q):
                return False
        return True

    def lhs(p, ctx):
        qc, q, v = _qp(p, ctx)
        with ctx.working():
            a, b, c, d = (v[k] for k in "abcd")
            arg = q * a / (b * c * d)
        return _vwp_phi(a, (b, c, d), arg, qc)

    def rhs(p, ctx):
        qc, q, v = _qp(p, ctx)
        with ctx.working():
            a, b, c, d = (v[k] for k in "abcd")
            numers = [q * a, q * a / (b * c), q * a / (b * d), q * a / (c * d)]
            denoms = [q * a / b, q * a / c, q * a / d, q * a / (b * c * d)]
        return _closed(q_bracket(numers, denoms, qc, INF), ctx)

    return IdentityCase(
        "phi65",
        "very-well-poised 6phi5(a,...;qa/bcd) sum as an infinite q-bracket",
        {"a": "positive", "b": "positive", "c": "positive", "d": "positive",
         "q": "in (0.1,0.8)"},
        ("|q a/(b c d)| < 1", "no parameter on a q-power pole"),
        sampler, check, lhs, rhs,
    )


def _mk_jackson_8phi7():
    def sampler(rng, index):
        return {
            "a": _dyadic(rng, 1, 4), "b": _dyadic(rng, 1, 3),
            "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
            "q": _sample_q(rng), "n": rng.randint(0, 15),
        }

    def check(p):
        a, b, c, d, q, n = (p[k] for k in "abcdqn")
        if not (isinstance(n, int) and 0 <= n <= 15):
            return False
        if not _clear_of_q_poles(a, q) or not _clear_of_q_poles(a, q * q):
            return False
        for x in (b, c, d):
            if not _clear_of_q_poles(q * a / x, q):
                return False
        big_a = q ** (1 + n) * a * a / (b * c * d)
        low_b = b * c * d / (a * q**n)
        low_c = q ** (1 + n) * a
        return (
            _clear_of_q_poles(big_a, q, upto=n + 1)
            and _clear_of_q_poles(low_b, q, upto=n)
            and _clear_of_q_poles(low_c, q, upto=n)
        )

    def lhs(p, ctx):
        lv, rv = exact.jackson_8phi7_sides(p["a"], p["b"], p["c"], p["d"], p["q"], p["n"])
        return _exact_pair(lv, rv, ctx, p["n"] + 1)[0]

    def rhs(p, ctx):
        lv, rv = exact.jackson_8phi7_sides(p["a"], p["b"], p["c"], p["d"], p["q"], p["n"])
        return _exact_pair(lv, rv, ctx, p["n"] + 1)[1]

    return IdentityCase(
        "jackson-8phi7",
        "terminating very-well-poised 8phi7 sum as a finite q-bracket (exact rational)",
        {"a": "positive", "b": "positive", "c": "positive", "d": "positive",
         "q": "in (0.1,0.8)", "n": "int 0..15"},
        ("no lower parameter truncates before index n",),
        sampler, check, lhs, rhs,
    )


def _mk_jackson_nt():
    def sampler(rng, index):
        while True:
            p = {
                "a": _dyadic(rng, 1, 3), "b": _dyadic(rng, 1, 3),
                "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
                "e": _dyadic(rng, 1, 3),
                "q": _dyadic(rng, Fraction(1, 10), Fraction(7, 10)),
            }
            f = p["q"] * p["a"] ** 2 / (p["b"] * p["c"] * p["d"] * p["e"])
            if Fraction(1, 32) <= f <= 32:
                return p

    def check(p):
        a, b, c, d, e, q = (p[k] for k in "abcdeq")
        f = q * a * a / (b * c * d * e)
        if not Fraction(1, 32) <= f <= 32:
            return False
        values = [a, b, c, d, e, f,
                  q * a / b, q * a / c, q * a / d, q * a / e, b * c * d * e / a,
                  b * c / a, b * d / a, b * e / a, b * f / a,
                  q * b / a, q * b / c, q * b / d, q * b / e, b * b * c * d * e / (a * a),
                  b * b * q / a, q * a / (c * d * e)]
        if not all(_clear_of_q_poles(x, q) for x in values):
            return False
        return _clear_of_q_poles(a, q * q) and _clear_of_q_poles(b * b / a, q * q)

    def lhs(p, ctx):
        qc, q, v = _qp(p, ctx)
        with ctx.working():
            a, b, c, d, e = (v[k] for k in "abcde")
            f = q * a * a / (b * c * d * e)
        return _vwp_phi(a, (b, c, d, e, f), q, qc)

    def rhs(p, ctx):
        qc, q, v = _qp(p, ctx)
        with ctx.working():
            a, b, c, d, e = (v[k] for k in "abcde")
            f = q * a * a / (b * c * d * e)
            ra = principal_sqrt(a)
            br1 = q_bracket(
                [q * a, c, d, e, f, q * b / a, q * b / c, q * b / d, q * b / e, q * b / f],
                [q * a / b, q * a / c, q * a / d, q * a / e, q * a / f,
                 b * c / a, b * d / a, b * e / a, b * f / a, b * b * q / a],
                qc, INF,
            )
            t87 = _vwp_phi(
                b * b / a, (b, b * c / a, b * d / a, b * e / a, b * f / a), q, qc,
                sqrt_base=b / ra,
            )
            br2 = q_bracket(
                [q * a, b / a, q * a / (c * d), q * a / (c * e), q * a / (c * f),
                 q * a / (d * e), q * a / (d * f), q * a / (e * f)],
                [q * a / c, q * a / d, q * a / e, q * a / f,
                 b * c / a, b * d / a, b * e / a, b * f / a],
                qc, INF,
            )
            term1 = _scaled(t87, (b / a) * br1, ctx)
            return _added(term1, _closed(br2, ctx), ctx)

    return IdentityCase(
        "jackson-nt",
        "nonterminating very-well-poised 8phi7 with q a^2 = b c d e f, two-term evaluation",
        {"a": "positive", "b": "positive", "c": "positive", "d": "positive",
         "e": "positive", "q": "in (0.1,0.7)"},
        ("f = q a^2/(b c d e) derived", "f in [1/32, 32]",
         "no parameter on a q-power pole"),
        sampler, check, lhs, rhs,
    )


def _sample_split_family(rng, index):
    while True:
        p = {
            "a": _dyadic(rng, 1, 8),
            "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
            "e": _dyadic(rng, 1, 3), "f": _dyadic(rng, 1, 3),
            "q": _sample_q(rng),
        }
        z = p["q"] * p["a"] ** 2 / (p["c"] * p["d"] * p["e"] * p["f"])
        if Fraction(1, 20) <= z <= Fraction(4, 5):
            return p


def _check_split_family(p):
    a, c, d, e, f, q = (p[k] for k in "acdefq")
    cdef = c * d * e * f
    z = q * a * a / cdef
    if not Fraction(1, 20) <= z <= Fraction(4, 5):
        return False
    big_a = cdef / a
    values = [c, d, e, f, a,
              q * a / c, q * a / d, q * a / e, q * a / f,
              big_a,
              q * a / (c * d * e), q * a / (c * d * f), q * a / (c * e * f), q * a / (d * e * f),
              q * q * a / cdef,
              q * q * a * a / (c * d * e * f * f), q * q * a * a / (c * d * e * e * f),
              q * q * a * a / (c * d * d * e * f), q * q * a * a / (c * c * d * e * f),
              q * a / (c * d), q * a / (c * e), q * a / (c * f),
              q * a / (d * e), q * a / (d * f), q * a / (e * f)]
    if not all(_clear_of_q_poles(x, q) for x in values):
        return False
    q2 = q * q
    gg = q * q * a**3 / cdef**2
    return all(_clear_of_q_poles(x, q2) for x in (a, big_a, gg, a / cdef))


def _omega_raw(p, ctx):
    qc, q, v = _qp(p, ctx)
    with ctx.working():
        a, c, d, e, f = (v[k] for k in "acdef")
        z = q * a * a / (c * d * e * f)
        big_a = c * d * e * f / a
        r = principal_sqrt(big_a)
        spec = QSeriesSpec(
            (q, q * r, -q * r, c * d * e / a, c * d * f / a, c * e * f / a, d * e * f / a),
            (r, -r, q * f, q * e, q * d, q * c),
            z, "phi",
        )
    return sum_q_series(spec, qc)


def _omega_closed(p, ctx):
    qc, q, v = _qp(p, ctx)
    with ctx.working():
        a, c, d, e, f = (v[k] for k in "acdef")
        z = q * a * a / (c * d * e * f)
        br = q_bracket(
            [q, q * a / c, q * a / d, q * a / e, q * a / f, q * c * d * e * f / a],
            [q * a, q * c, q * d, q * e, q * f, z],
            qc, INF,
        )
        t87 = _vwp_phi(a, (z, c, d, e, f), q, qc)
        return _scaled(t87, br, ctx)


def _theta_prefactor(q, a, c, d, e, f):
    cdef = c * d * e * f
    z = q * a * a / cdef
    num = z * (1 - q * q * a / cdef) * (1 - 1 / c) * (1 - 1 / d) * (1 - 1 / e) * (1 - 1 / f)
    den = (
        (1 - a / cdef) * (1 - q * a / (c * d * e)) * (1 - q * a / (c * d * f))
        * (1 - q * a / (c * e * f)) * (1 - q * a / (d * e * f))
    )
    if den == 0:
        raise DomainError("reflected-sum prefactor denominator vanishes")
    return num / den


def _theta_raw(p, ctx):
    qc, q, v = _qp(p, ctx)
    with ctx.working():
        a, c, d, e, f = (v[k] for k in "acdef")
        cdef = c * d * e * f
        z = q * a * a / cdef
        pref = _theta_prefactor(q, a, c, d, e, f)
        r = principal_sqrt(a / cdef)
        spec = QSeriesSpec(
            (q, q * q * r, -q * q * r, q / c, q / d, q / e, q / f),
            (q * r, -q * r, q * q * a / (d * e * f), q * q * a / (c * e * f),
             q * q * a / (c * d * f), q * q * a / (c * d * e)),
            z, "phi",
        )
        return _scaled(sum_q_series(spec, qc), pref, ctx)


def _theta_closed(p, ctx):
    qc, q, v = _qp(p, ctx)
    with ctx.working():
        a, c, d, e, f = (v[k] for k in "acdef")
        cdef = c * d * e * f
        z = q * a * a / cdef
        pref = _theta_prefactor(q, a, c, d, e, f)
        gg = q * q * a**3 / cdef**2
        br = q_bracket(
            [q, q**3 * a / cdef, q * q * a * a / (c * c * d * e * f),
             q * q * a * a / (c * d * d * e * f), q * q * a * a / (c * d * e * e * f),
             q * q * a * a / (c * d * e * f * f)],
            [q * q * a / (c * d * e), q * q * a / (c * d * f), q * q * a / (c * e * f),
             q * q * a / (d * e * f), z, q**3 * a**3 / cdef**2],
            qc, INF,
        )
        t87 = _vwp_phi(
            gg,
            (z, q * a / (c * d * e), q * a / (c * d * f), q * a / (c * e * f), q * a / (d * e * f)),
            q, qc,
        )
        return _scaled(t87, pref * br, ctx)


def _mk_omega():
    return IdentityCase(
        "omega",
        "k>=0 half of the split Bailey sum vs its well-poised 8phi7 closed form",
        {"a": "positive", "c": "positive", "d": "positive", "e": "positive",
         "f": "positive", "q": "in (0.1,0.8)"},
        ("|q a^2/(c d e f)| <= 0.8", "no parameter on a q-power pole"),
        _sample_split_family, _check_split_family, _omega_raw, _omega_closed,
    )


def _mk_theta():
    return IdentityCase(
        "theta",
        "reflected half of the split Bailey sum vs its well-poised 8phi7 closed form",
        {"a": "positive", "c": "positive", "d": "positive", "e": "positive",
         "f": "positive", "q": "in (0.1,0.8)"},
        ("|q a^2/(c d e f)| <= 0.8", "prefactor numerator and denominator nonzero",
         "no parameter on a q-power pole"),
        _sample_split_family, _check_split_family, _theta_raw, _theta_closed,
    )


def _mk_bailey_split():
    def lhs(p, ctx):
        return _added(_omega_raw(p, ctx), _theta_raw(p, ctx), ctx)

    def rhs(p, ctx):
        qc, q, v = _qp(p, ctx)
        with ctx.working():
            a, c, d, e, f = (v[k] for k in "acdef")
            cdef = c * d * e * f
            z = q * a * a / cdef
            numers = [q, q * a / (c * d), q * a / (c * e), q * a / (c * f), q * a / (d * e),
                      q * a / (d * f), q * a / (e * f), q * a / cdef, q * cdef / a]
            denoms = [q * c, q * d, q * e, q * f, q * a / (c * d * e), q * a / (c * d * f),
                      q * a / (c * e * f), q * a / (d * e * f), z]
        return _closed(q_bracket(numers, denoms, qc, INF), ctx)

    return IdentityCase(
        "bailey-split",
        "two k>=0 halves of the split Bailey sum recombine to the full bracket",
        {"a": "positive", "c": "positive", "d": "positive", "e": "positive",
         "f": "positive", "q": "in (0.1,0.8)"},
        ("|q a^2/(c d e f)| <= 0.8", "no parameter on a q-power pole"),
        _sample_split_family, _check_split_family, lhs, rhs,
    )


def _build():
    cases = [
        _mk_saalschuetz(), _mk_saalschuetz_nt(), _mk_dougall_2h2(), _mk_gauss_2f1(),
        _mk_dixon(), _mk_theorem1(), _mk_theorem1_ca_db(), _mk_theorem1_b_neg_n(),
        _mk_phi_as_3f2(), _mk_h22_split(),
        _mk_bailey_6psi6(), _mk_phi65(), _mk_jackson_8phi7(), _mk_jackson_nt(),
        _mk_omega(), _mk_theta(), _mk_bailey_split(),
    ]
    return {c.id: c for c in cases}


CATALOG = _build()


def tolerance_rule(lhs: SeriesResult, rhs: SeriesResult, ctx: PrecisionContext):
    """Return (abs_err, rel_err, passed) under the catalog pass rule."""
    with ctx.working():
        diff = abs(lhs.value - rhs.value)
        scale = abs(rhs.value)
        rel = diff / scale if scale > 0 else diff
        floor = mpf(10) ** (8 - ctx.digits)
        if scale > 0:
            bound = max(floor, 100 * (lhs.err_estimate + rhs.err_estimate) / scale)
        else:
            bound = floor
        return diff, rel, bool(rel < bound)
