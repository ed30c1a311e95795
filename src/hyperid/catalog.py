"""Executable identity catalog.

Each entry couples a parameter schema, machine-checkable constraints, a
seedable sampler over dyadic rationals, and independent left/right-side
evaluators returning SeriesResult. Left sides run through the series
engines; right sides are gamma ratios, q-brackets, or independent series
routes, so an indexing bug on either side breaks the comparison.

`CATALOG` is one table of `IdentityCase` entries built from the module-level
functions below. A side is written as a function of the sample's parameters
by name plus `ctx`, and `_mp` turns it into the `(params, ctx)` callable an
entry holds: it converts every parameter but the integer `n` with `to_mp`
under `ctx.working()` and runs the side at working precision; q sides build
their `QContext` from the converted q. Terminating entries at Fraction
parameters are evaluated in exact Fraction arithmetic (zero error) through
`_exact_or_float`, which looks `exact.<name>_sides` up on the `exact` module
at each call, so a rebinding of that attribute is seen. Everything else runs
at working precision with a pass rule of

    rel_err < max(10^(8-digits), 100 (err_lhs + err_rhs) / |rhs|).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from mpmath import mpf

from . import exact
from .errors import DomainError
from .gammafn import gamma_ratio, pochhammer
from .precision import INF, PrecisionContext, exact_int, nonpositive_int, to_mp
from .qseries import QContext, QSeriesSpec, principal_sqrt, q_bracket, sum_q_series
from .series import SeriesResult, SeriesSpec, combined_method, sum_bilateral, sum_unilateral

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


def _clear(q, values, squared=()) -> bool:
    """No value on a q-power pole and none of `squared` on a q^2-power pole."""
    return (all(_clear_of_q_poles(x, q) for x in values)
            and all(_clear_of_q_poles(x, q * q) for x in squared))


def _vwp_clear(q, a, xs) -> bool:
    """The pole rule of a very-well-poised sum in a with extras xs."""
    pairs = (q * a / (x * y) for x, y in combinations(xs, 2))
    return _clear(q, [a, *(q * a / x for x in xs), *pairs], [a])


def _z_in_range(z) -> bool:
    return Fraction(1, 20) <= z <= Fraction(4, 5)


# ---------------------------------------------------------------------------
# side wrappers, then evaluator helpers that assume working precision

def _mp(side):
    """The (params, ctx) callable of `side`: every parameter but the integer
    n converted with to_mp and passed by name, at working precision."""

    def run(p, ctx):
        with ctx.working():
            return side(ctx=ctx, **{k: v if k == "n" else to_mp(v) for k, v in p.items()})

    return run


def _exact_or_float(name, which, float_side=None):
    """Side `which` (0 lhs, 1 rhs) of a terminating entry: that side of
    `exact.<name>_sides` with zero error when every parameter but n is a
    Fraction (always, without a float side), else `float_side` via `_mp`."""
    float_side = float_side and _mp(float_side)

    def run(p, ctx):
        if float_side and not all(isinstance(v, Fraction) for k, v in p.items() if k != "n"):
            return float_side(p, ctx)
        pair = getattr(exact, f"{name}_sides")(**p)
        with ctx.working():
            value = to_mp(pair[which])
        terms = p["n"] + 1 if which == 0 else 0
        return SeriesResult(value, mpf(0), terms, "terminating")

    return run


def _pfq(uppers, lowers, ctx) -> SeriesResult:
    return sum_unilateral(SeriesSpec(uppers, lowers, 1, "unilateral"), ctx)


def _hh(uppers, lowers, ctx) -> SeriesResult:
    return sum_bilateral(SeriesSpec(uppers, lowers, 1, "bilateral"), ctx)


def _closed(value, ctx) -> SeriesResult:
    return SeriesResult(value, abs(value) * ctx.eps() * 20, 0, "direct")


def _gamma_side(numers, denoms, ctx) -> SeriesResult:
    return _closed(gamma_ratio(numers, denoms, ctx), ctx)


def _bracket_side(numers, denoms, q, ctx) -> SeriesResult:
    return _closed(q_bracket(numers, denoms, QContext(q, ctx), INF), ctx)


def _scaled(result: SeriesResult, factor, ctx) -> SeriesResult:
    value = factor * result.value
    err = abs(factor) * result.err_estimate + abs(value) * ctx.eps() * 10
    return SeriesResult(value, err, result.terms_used, result.method)


def _added(a: SeriesResult, b: SeriesResult, ctx) -> SeriesResult:
    value = a.value + b.value
    err = a.err_estimate + b.err_estimate + abs(value) * ctx.eps() * 10
    method = combined_method(a.method, b.method)
    return SeriesResult(value, err, a.terms_used + b.terms_used, method)


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


def _vwp(base, extras, arg, qc, kind="phi", r=None) -> SeriesResult:
    """Very-well-poised series: uppers (base [phi only], +-q r, extras),
    lowers (+-r, q base/x for x in extras), with r = sqrt(base) by default."""
    q = qc.q
    r = principal_sqrt(base) if r is None else r
    uppers = ((base,) if kind == "phi" else ()) + (q * r, -q * r, *extras)
    lowers = (r, -r, *(q * base / x for x in extras))
    return sum_q_series(QSeriesSpec(uppers, lowers, arg, kind), qc)


# ---------------------------------------------------------------------------
# classical entries

def _saalschuetz_sampler(rng, index):
    p = {
        "a": _dyadic(rng, 0, 4), "b": _dyadic(rng, 0, 4),
        "c": _dyadic(rng, 0, 4), "n": rng.randint(0, 30),
    }
    return _complexify(p, rng, index, ("a", "b"))


def _saalschuetz_check(p):
    n = p["n"]
    if not (isinstance(n, int) and 0 <= n <= 30):
        return False
    if not _re(p["c"]) > 0:
        return False
    for w in (p["c"] - p["a"] - p["b"], p["c"] - p["a"], p["c"] - p["b"]):
        if _bad_nonpositive(w, window=n):
            return False
    return True


def _saalschuetz_lhs(a, b, c, n, ctx):
    return _pfq([a, b, -n], [c, 1 + a + b - c - n], ctx)


def _saalschuetz_rhs(a, b, c, n, ctx):
    v = (
        pochhammer(c - a, n, ctx) * pochhammer(c - b, n, ctx)
        / (pochhammer(c, n, ctx) * pochhammer(c - a - b, n, ctx))
    )
    return _closed(v, ctx)


def _saalschuetz_nt_sampler(rng, index):
    a = _dyadic(rng, 0, 2)
    b = _dyadic(rng, 0, 2)
    c = _dyadic(rng, 0, 4)
    d = a + b + _dyadic(rng, 15, 25)
    return _complexify({"a": a, "b": b, "c": c, "d": d}, rng, index, ("a", "b"))


def _saalschuetz_nt_check(p):
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
    return not any(_bad_nonpositive(w) for w in (c - a, c - b, d - a, d - b))


def _saalschuetz_nt_lhs(a, b, c, d, ctx):
    return _pfq([a, b, c + d - a - b - 1], [c, d], ctx)


def _saalschuetz_nt_rhs(a, b, c, d, ctx):
    series = _pfq([1, c - a, c - b], [c - a - b + 1, c + d - a - b], ctx)
    pref = gamma_ratio([c, d], [a, b, c + d - a - b], ctx) / (a + b - c)
    term2 = gamma_ratio([c, d, c - a - b, d - a - b], [c - a, c - b, d - a, d - b], ctx)
    return _added(_scaled(series, pref, ctx), _closed(term2, ctx), ctx)


def _dougall_sampler(rng, index):
    a = _dyadic_noninteger(rng, 0, 2)
    b = _dyadic_noninteger(rng, 0, 2)
    while True:
        d1 = _dyadic(rng, 7, 15)
        d2 = _dyadic(rng, 7, 15)
        if 15 <= d1 + d2 <= 30:
            break
    return _complexify({"a": a, "b": b, "c": a + d1, "d": b + d2}, rng, index, ("a", "b"))


def _dougall_check(p):
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    if _is_integer(a) or _is_integer(b):
        return False
    if not 15 <= _re(c) + _re(d) - _re(a) - _re(b) <= 30:
        return False
    return not any(_bad_nonpositive(w) for w in (c - a, c - b, d - a, d - b))


def _dougall_lhs(a, b, c, d, ctx):
    return _hh([a, b], [c, d], ctx)


def _dougall_rhs(a, b, c, d, ctx):
    return _gamma_side([1 - a, 1 - b, c, d, c + d - a - b - 1],
                       [c - a, c - b, d - a, d - b], ctx)


def _gauss_sampler(rng, index):
    a = _dyadic(rng, 0, 2)
    b = _dyadic(rng, 0, 2)
    c = a + b + _dyadic(rng, 5, 25)
    return _complexify({"a": a, "b": b, "c": c}, rng, index, ("a", "b"))


def _gauss_check(p):
    s = _re(p["c"]) - _re(p["a"]) - _re(p["b"])
    return 4 <= s <= 26 and _re(p["c"]) > 0


def _gauss_lhs(a, b, c, ctx):
    return _pfq([a, b], [c], ctx)


def _gauss_rhs(a, b, c, ctx):
    return _gamma_side([c, c - a - b], [c - a, c - b], ctx)


def _dixon_sampler(rng, index):
    while True:
        a = _dyadic(rng, 1, 4)
        b = _dyadic_noninteger(rng, Fraction(-7, 2), Fraction(-1, 2))
        c = _dyadic_noninteger(rng, Fraction(-7, 2), Fraction(-1, 2))
        if 5 <= 1 + Fraction(a, 2) - b - c <= 9:
            break
    return _complexify({"a": a, "b": b, "c": c}, rng, index, ("a", "b"))


def _dixon_check(p):
    a, b, c = p["a"], p["b"], p["c"]
    if _is_integer(b) or _is_integer(c):
        return False
    return 5 <= 1 + _re(a) / 2 - _re(b) - _re(c) <= 9


def _dixon_lhs(a, b, c, ctx):
    return _pfq([a, b, c], [1 + a - b, 1 + a - c], ctx)


def _dixon_rhs(a, b, c, ctx):
    h = a / 2
    return _gamma_side([1 + h, 1 + a - b, 1 + a - c, 1 + h - b - c],
                       [1 + a, 1 + h - b, 1 + h - c, 1 + a - b - c], ctx)


def _theorem1_sampler(rng, index):
    while True:
        p = {k: _dyadic(rng, Fraction(1, 4), 3) for k in "abcd"}
        if sum(p.values()) > 1 + Fraction(1, 16):
            break
    return _complexify(p, rng, index, ("a", "b"))


def _theorem1_check(p):
    if any(_re(p[k]) <= 0 for k in "abcd"):
        return False
    return sum(_re(p[k]) for k in "abcd") > 1 + Fraction(1, 32)


def _theorem1_lhs(a, b, c, d, ctx):
    return _added(phi_sum(a, b, c, d, ctx), phi_sum(c, d, a, b, ctx), ctx)


def _theorem1_rhs(a, b, c, d, ctx):
    return _gamma_side([a, b, c, d, a + b + c + d - 1], [a + c, a + d, b + c, b + d], ctx)


def _ca_db_sampler(rng, index):
    while True:
        p = {"a": _dyadic(rng, Fraction(1, 4), 2), "b": _dyadic(rng, Fraction(1, 4), 2)}
        if 2 * p["a"] + 2 * p["b"] - 1 > Fraction(1, 16):
            break
    return _complexify(p, rng, index, ("a", "b"))


def _ca_db_check(p):
    if any(_re(p[k]) <= 0 for k in "ab"):
        return False
    return 2 * _re(p["a"]) + 2 * _re(p["b"]) - 1 > Fraction(1, 32)


def _ca_db_lhs(a, b, ctx):
    return _pfq([a, b, 2 * a + 2 * b - 1], [a + 2 * b, 2 * a + b], ctx)


def _ca_db_rhs(a, b, ctx):
    v = gamma_ratio([a, b, a + 2 * b, 2 * a + b], [2 * a, 2 * b, a + b, a + b], ctx) / 2
    return _closed(v, ctx)


def _b_neg_n_sampler(rng, index):
    p = {
        "a": _dyadic(rng, Fraction(1, 4), 3),
        "c": _dyadic(rng, Fraction(1, 4), 3),
        "d": _dyadic(rng, Fraction(1, 4), 3),
        "n": rng.randint(0, 20),
    }
    return _complexify(p, rng, index, ("a",))


def _b_neg_n_check(p):
    if not (isinstance(p["n"], int) and 0 <= p["n"] <= 20):
        return False
    return not (_is_integer(p["a"] + p["c"]) or _is_integer(p["a"] + p["d"]))


def _b_neg_n_lhs(a, c, d, n, ctx):
    return _pfq([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n], ctx)


def _b_neg_n_rhs(a, c, d, n, ctx):
    v = (
        pochhammer(1 - c, n, ctx) * pochhammer(1 - d, n, ctx)
        / (pochhammer(1 - a - c, n, ctx) * pochhammer(1 - a - d, n, ctx))
    )
    return _closed(v, ctx)


def _phi_as_3f2_sampler(rng, index):
    p = {
        "a": _dyadic(rng, Fraction(1, 4), 3),
        "b": _dyadic(rng, Fraction(1, 4), 3),
        "c": _dyadic(rng, 5, 8),
        "d": _dyadic(rng, Fraction(1, 4), 3),
    }
    return _complexify(p, rng, index, ("a", "b"))


def _phi_as_3f2_check(p):
    if any(_re(p[k]) <= 0 for k in "abcd"):
        return False
    return _re(p["c"]) >= 5


def _phi_as_3f2_lhs(a, b, c, d, ctx):
    return phi_sum(c, d, a, b, ctx)


def _phi_as_3f2_rhs(a, b, c, d, ctx):
    return phi_via_3f2(c, d, a, b, ctx)


def _h22_sampler(rng, index):
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


def _h22_check(p):
    if any(_is_integer(p[k]) or _re(p[k]) <= 0 for k in "abcd"):
        return False
    return 15 <= sum(_re(p[k]) for k in "abcd") <= 30


def _h22_lhs(a, b, c, d, ctx):
    both = _added(phi_sum(c, d, a, b, ctx), phi_sum(a, b, c, d, ctx), ctx)
    return _scaled(both, c * d, ctx)


def _h22_rhs(a, b, c, d, ctx):
    return _hh([1 - a, 1 - b], [1 + c, 1 + d], ctx)


# ---------------------------------------------------------------------------
# q-entries; a sampler may return parameters its check rejects, and
# sample_parameters then draws again from the same stream

def _sample_q(rng):
    return _dyadic(rng, Fraction(1, 10), Fraction(4, 5))


def _bailey_sampler(rng, index):
    q = _sample_q(rng)
    return {
        "a": _dyadic(rng, 1, 6),
        "b": _dyadic(rng, 1, 4), "c": _dyadic(rng, 1, 4),
        "d": _dyadic(rng, 1, 4), "e": _dyadic(rng, 1, 4),
        "q": q,
    }


def _bailey_check(p):
    a, b, c, d, e, q = (p[k] for k in "abcdeq")
    return _z_in_range(q * a * a / (b * c * d * e)) and _vwp_clear(q, a, (b, c, d, e))


def _bailey_lhs(a, b, c, d, e, q, ctx):
    return _vwp(a, (b, c, d, e), q * a * a / (b * c * d * e), QContext(q, ctx), "psi")


def _bailey_rhs(a, b, c, d, e, q, ctx):
    z = q * a * a / (b * c * d * e)
    numers = [q, q * a, q / a, q * a / (b * c), q * a / (b * d), q * a / (b * e),
              q * a / (c * d), q * a / (c * e), q * a / (d * e)]
    denoms = [q / b, q / c, q / d, q / e, q * a / b, q * a / c, q * a / d, q * a / e, z]
    return _bracket_side(numers, denoms, q, ctx)


def _phi65_sampler(rng, index):
    q = _sample_q(rng)
    return {
        "a": _dyadic(rng, 1, 6), "b": _dyadic(rng, 1, 4),
        "c": _dyadic(rng, 1, 4), "d": _dyadic(rng, 1, 4), "q": q,
    }


def _phi65_check(p):
    a, b, c, d, q = (p[k] for k in "abcdq")
    return _z_in_range(q * a / (b * c * d)) and _vwp_clear(q, a, (b, c, d))


def _phi65_lhs(a, b, c, d, q, ctx):
    return _vwp(a, (b, c, d), q * a / (b * c * d), QContext(q, ctx))


def _phi65_rhs(a, b, c, d, q, ctx):
    numers = [q * a, q * a / (b * c), q * a / (b * d), q * a / (c * d)]
    denoms = [q * a / b, q * a / c, q * a / d, q * a / (b * c * d)]
    return _bracket_side(numers, denoms, q, ctx)


def _jackson_sampler(rng, index):
    return {
        "a": _dyadic(rng, 1, 4), "b": _dyadic(rng, 1, 3),
        "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
        "q": _sample_q(rng), "n": rng.randint(0, 15),
    }


def _jackson_check(p):
    a, b, c, d, q, n = (p[k] for k in "abcdqn")
    if not (isinstance(n, int) and 0 <= n <= 15):
        return False
    if not _clear(q, [a, *(q * a / x for x in (b, c, d))], [a]):
        return False
    big_a = q ** (1 + n) * a * a / (b * c * d)
    low_b = b * c * d / (a * q**n)
    low_c = q ** (1 + n) * a
    return (
        _clear_of_q_poles(big_a, q, upto=n + 1)
        and _clear_of_q_poles(low_b, q, upto=n)
        and _clear_of_q_poles(low_c, q, upto=n)
    )


def _jackson_nt_sampler(rng, index):
    return {
        "a": _dyadic(rng, 1, 3), "b": _dyadic(rng, 1, 3),
        "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
        "e": _dyadic(rng, 1, 3),
        "q": _dyadic(rng, Fraction(1, 10), Fraction(7, 10)),
    }


def _jackson_nt_check(p):
    a, b, c, d, e, q = (p[k] for k in "abcdeq")
    f = q * a * a / (b * c * d * e)
    if not Fraction(1, 32) <= f <= 32:
        return False
    values = [a, b, c, d, e, f,
              q * a / b, q * a / c, q * a / d, q * a / e, b * c * d * e / a,
              b * c / a, b * d / a, b * e / a, b * f / a,
              q * b / a, q * b / c, q * b / d, q * b / e, b * b * c * d * e / (a * a),
              b * b * q / a, q * a / (c * d * e)]
    return _clear(q, values, [a, b * b / a])


def _jackson_nt_lhs(a, b, c, d, e, q, ctx):
    f = q * a * a / (b * c * d * e)
    return _vwp(a, (b, c, d, e, f), q, QContext(q, ctx))


def _jackson_nt_rhs(a, b, c, d, e, q, ctx):
    qc = QContext(q, ctx)
    f = q * a * a / (b * c * d * e)
    br1 = q_bracket(
        [q * a, c, d, e, f, q * b / a, q * b / c, q * b / d, q * b / e, q * b / f],
        [q * a / b, q * a / c, q * a / d, q * a / e, q * a / f,
         b * c / a, b * d / a, b * e / a, b * f / a, b * b * q / a],
        qc, INF,
    )
    t87 = _vwp(b * b / a, (b, b * c / a, b * d / a, b * e / a, b * f / a), q, qc,
               r=b / principal_sqrt(a))
    br2 = q_bracket(
        [q * a, b / a, q * a / (c * d), q * a / (c * e), q * a / (c * f),
         q * a / (d * e), q * a / (d * f), q * a / (e * f)],
        [q * a / c, q * a / d, q * a / e, q * a / f,
         b * c / a, b * d / a, b * e / a, b * f / a],
        qc, INF,
    )
    return _added(_scaled(t87, (b / a) * br1, ctx), _closed(br2, ctx), ctx)


def _split_sampler(rng, index):
    return {
        "a": _dyadic(rng, 1, 8),
        "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
        "e": _dyadic(rng, 1, 3), "f": _dyadic(rng, 1, 3),
        "q": _sample_q(rng),
    }


def _split_check(p):
    a, c, d, e, f, q = (p[k] for k in "acdefq")
    cdef = c * d * e * f
    if not _z_in_range(q * a * a / cdef):
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
    return _clear(q, values, [a, big_a, q * q * a**3 / cdef**2, a / cdef])


def _omega_lhs(a, c, d, e, f, q, ctx):
    z = q * a * a / (c * d * e * f)
    r = principal_sqrt(c * d * e * f / a)
    spec = QSeriesSpec(
        (q, q * r, -q * r, c * d * e / a, c * d * f / a, c * e * f / a, d * e * f / a),
        (r, -r, q * f, q * e, q * d, q * c),
        z, "phi",
    )
    return sum_q_series(spec, QContext(q, ctx))


def _omega_rhs(a, c, d, e, f, q, ctx):
    qc = QContext(q, ctx)
    z = q * a * a / (c * d * e * f)
    br = q_bracket(
        [q, q * a / c, q * a / d, q * a / e, q * a / f, q * c * d * e * f / a],
        [q * a, q * c, q * d, q * e, q * f, z],
        qc, INF,
    )
    return _scaled(_vwp(a, (z, c, d, e, f), q, qc), br, ctx)


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


def _theta_lhs(a, c, d, e, f, q, ctx):
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
    return _scaled(sum_q_series(spec, QContext(q, ctx)), pref, ctx)


def _theta_rhs(a, c, d, e, f, q, ctx):
    qc = QContext(q, ctx)
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
    t87 = _vwp(
        gg,
        (z, q * a / (c * d * e), q * a / (c * d * f), q * a / (c * e * f), q * a / (d * e * f)),
        q, qc,
    )
    return _scaled(t87, pref * br, ctx)


def _split_lhs(ctx, **v):
    return _added(_omega_lhs(ctx=ctx, **v), _theta_lhs(ctx=ctx, **v), ctx)


def _split_rhs(a, c, d, e, f, q, ctx):
    cdef = c * d * e * f
    numers = [q, q * a / (c * d), q * a / (c * e), q * a / (c * f), q * a / (d * e),
              q * a / (d * f), q * a / (e * f), q * a / cdef, q * cdef / a]
    denoms = [q * c, q * d, q * e, q * f, q * a / (c * d * e), q * a / (c * d * f),
              q * a / (c * e * f), q * a / (d * e * f), q * a * a / cdef]
    return _bracket_side(numers, denoms, q, ctx)


# ---------------------------------------------------------------------------
# the table

_COMPLEX4 = dict.fromkeys("abcd", "complex")
_SPLIT_SCHEMA = {**dict.fromkeys("acdef", "positive"), "q": "in (0.1,0.8)"}
_SPLIT_RANGE = "|q a^2/(c d e f)| <= 0.8"
_NO_Q_POLE = "no parameter on a q-power pole"

CATALOG = {c.id: c for c in (
    IdentityCase(
        "saalschuetz",
        "terminating balanced 3F2(a,b,-n; c,1+a+b-c-n; 1) as a Pochhammer ratio",
        {"a": "complex", "b": "complex", "c": "complex", "n": "int 0..30"},
        ("c > 0", "c-a-b, c-a, c-b not in {0,-1,...,-(n-1)}"),
        _saalschuetz_sampler, _saalschuetz_check,
        _exact_or_float("saalschuetz", 0, _saalschuetz_lhs),
        _exact_or_float("saalschuetz", 1, _saalschuetz_rhs),
    ),
    IdentityCase(
        "saalschuetz-nt",
        "nonterminating balanced 3F2(a,b,c+d-a-b-1; c,d; 1) two-term evaluation",
        _COMPLEX4,
        ("Re(d-a-b)>0", "sampler margin Re(d-a-b) in [15,25]",
         "|a+b-c| >= 1/1000", "c-a-b not an integer"),
        _saalschuetz_nt_sampler, _saalschuetz_nt_check,
        _mp(_saalschuetz_nt_lhs), _mp(_saalschuetz_nt_rhs),
    ),
    IdentityCase(
        "dougall-2h2",
        "Dougall bilateral 2H2(a,b;c,d;1) as a gamma ratio",
        _COMPLEX4,
        ("Re(c+d-a-b)>1", "sampler: Re(c+d-a-b) in [15,30]", "a, b not integers"),
        _dougall_sampler, _dougall_check, _mp(_dougall_lhs), _mp(_dougall_rhs),
    ),
    IdentityCase(
        "gauss-2f1",
        "Gauss 2F1(a,b;c;1) as a gamma ratio",
        dict.fromkeys("abc", "complex"),
        ("Re(c-a-b)>0", "sampler: Re(c-a-b) in [5,25]"),
        _gauss_sampler, _gauss_check, _mp(_gauss_lhs), _mp(_gauss_rhs),
    ),
    IdentityCase(
        "dixon",
        "Dixon 3F2(a,b,c; 1+a-b,1+a-c; 1) as a gamma ratio with half-argument factors",
        dict.fromkeys("abc", "complex"),
        ("Re(1+a/2-b-c)>0", "sampler margin Re(1+a/2-b-c) in [5,9]", "b, c not integers"),
        _dixon_sampler, _dixon_check, _mp(_dixon_lhs), _mp(_dixon_rhs),
    ),
    IdentityCase(
        "theorem-1",
        "symmetric identity Phi(a,b;c,d) + Phi(c,d;a,b) = gamma-product ratio",
        _COMPLEX4,
        ("Re(a+b+c+d)>1 margin 1/32", "Re(a),Re(b),Re(c),Re(d)>0"),
        _theorem1_sampler, _theorem1_check, _mp(_theorem1_lhs), _mp(_theorem1_rhs),
    ),
    IdentityCase(
        "theorem-1-ca-db",
        "3F2(a,b,2a+2b-1; a+2b,2a+b; 1) = (1/2) gamma-product ratio",
        {"a": "complex", "b": "complex"},
        ("Re(a)>0, Re(b)>0", "2a+2b-1 > 0 margin 1/32"),
        _ca_db_sampler, _ca_db_check, _mp(_ca_db_lhs), _mp(_ca_db_rhs),
    ),
    IdentityCase(
        "theorem-1-b-neg-n",
        "terminating reduction 3F2(a,a+c+d-1-n,-n; a+c-n,a+d-n; 1) as a Pochhammer ratio",
        {"a": "complex", "c": "complex", "d": "complex", "n": "int 0..20"},
        ("a+c, a+d not integers",),
        _b_neg_n_sampler, _b_neg_n_check,
        _exact_or_float("phi_symmetric_terminating", 0, _b_neg_n_lhs),
        _exact_or_float("phi_symmetric_terminating", 1, _b_neg_n_rhs),
    ),
    IdentityCase(
        "phi-as-3f2",
        "Phi(c,d;a,b) route equivalence: direct sum vs 3F2(1,a+d,b+d;1+d,a+b+c+d;1)/(d(a+b+c+d-1))",
        _COMPLEX4,
        ("Re(c) >= 5 (3F2 route decay exponent 1+c)", "d != 0"),
        _phi_as_3f2_sampler, _phi_as_3f2_check, _mp(_phi_as_3f2_lhs), _mp(_phi_as_3f2_rhs),
    ),
    IdentityCase(
        "h22-split",
        "cd (Phi(c,d;a,b) + Phi(a,b;c,d)) = 2H2(1-a,1-b;1+c,1+d;1), the bilateral split",
        _COMPLEX4,
        ("Re(a+b+c+d)>1", "sampler: Re(a+b+c+d) in [15,30]",
         "a,b,c,d not integers", "c,d != 0"),
        _h22_sampler, _h22_check, _mp(_h22_lhs), _mp(_h22_rhs),
    ),
    IdentityCase(
        "bailey-6psi6",
        "Bailey very-well-poised 6psi6 sum as an infinite q-bracket",
        {**dict.fromkeys("abcde", "positive"), "q": "in (0.1,0.8)"},
        ("|q a^2/(b c d e)| < 1", "sampler: |q a^2/(b c d e)| <= 0.8", _NO_Q_POLE),
        _bailey_sampler, _bailey_check, _mp(_bailey_lhs), _mp(_bailey_rhs),
    ),
    IdentityCase(
        "phi65",
        "very-well-poised 6phi5(a,...;qa/bcd) sum as an infinite q-bracket",
        {**dict.fromkeys("abcd", "positive"), "q": "in (0.1,0.8)"},
        ("|q a/(b c d)| < 1", _NO_Q_POLE),
        _phi65_sampler, _phi65_check, _mp(_phi65_lhs), _mp(_phi65_rhs),
    ),
    IdentityCase(
        "jackson-8phi7",
        "terminating very-well-poised 8phi7 sum as a finite q-bracket (exact rational)",
        {**dict.fromkeys("abcd", "positive"), "q": "in (0.1,0.8)", "n": "int 0..15"},
        ("no lower parameter truncates before index n",),
        _jackson_sampler, _jackson_check,
        _exact_or_float("jackson_8phi7", 0), _exact_or_float("jackson_8phi7", 1),
    ),
    IdentityCase(
        "jackson-nt",
        "nonterminating very-well-poised 8phi7 with q a^2 = b c d e f, two-term evaluation",
        {**dict.fromkeys("abcde", "positive"), "q": "in (0.1,0.7)"},
        ("f = q a^2/(b c d e) derived", "f in [1/32, 32]", _NO_Q_POLE),
        _jackson_nt_sampler, _jackson_nt_check, _mp(_jackson_nt_lhs), _mp(_jackson_nt_rhs),
    ),
    IdentityCase(
        "omega",
        "k>=0 half of the split Bailey sum vs its well-poised 8phi7 closed form",
        _SPLIT_SCHEMA, (_SPLIT_RANGE, _NO_Q_POLE),
        _split_sampler, _split_check, _mp(_omega_lhs), _mp(_omega_rhs),
    ),
    IdentityCase(
        "theta",
        "reflected half of the split Bailey sum vs its well-poised 8phi7 closed form",
        _SPLIT_SCHEMA, (_SPLIT_RANGE, "prefactor numerator and denominator nonzero", _NO_Q_POLE),
        _split_sampler, _split_check, _mp(_theta_lhs), _mp(_theta_rhs),
    ),
    IdentityCase(
        "bailey-split",
        "two k>=0 halves of the split Bailey sum recombine to the full bracket",
        _SPLIT_SCHEMA, (_SPLIT_RANGE, _NO_Q_POLE),
        _split_sampler, _split_check, _mp(_split_lhs), _mp(_split_rhs),
    ),
)}


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
