"""Executable identity catalog.

Each entry couples a parameter schema, machine-checkable constraints, a
seedable sampler over dyadic rationals, and independent left/right-side
evaluators returning SeriesResult. Left sides run through the series
engines; right sides are gamma ratios, q-brackets, or independent series
routes, so an indexing bug on either side breaks the comparison.

Each entry's schema and its tuple of constraint strings are its check:
`IdentityCase` reads them once, when the table is built (`_checker`), and
`hyperid list` prints them. The schema bounds each parameter (`int lo..hi`,
`positive`, `in (lo,hi)`) before any constraint is read, so that every pole
loop sees 0 < q < 1. A constraint is one predicate on comma-separated items:
    Re(F) > x   Re(F) >= x   |Re(F)| >= x   Re(F) in [x, y]
    F not integers (or an integer)   F not in {0, -1, ...}   F not in {0, ..., 1-n}
    M in [x, y]   M off q-poles   M off q^2-poles   M off q-poles up to q^-n (or q^(1-n))
F is a linear form in the parameters, such as c+d-a-b-1 or 1+a/2-b-c, M a
monomial of a q entry, such as q a^2/(b c d e) or q^(1+n) a, x and y
rationals, n the sample's int n; M is off q-poles when M != q^-i for every
i >= 0 (i <= n up to q^-n, i < n up to q^(1-n)). A `sampler:` string notes
a draw range of the sampler, which the check never reads. The check decides
on ints: classical parameters over one denominator (`exact.common`), q ones
as int pairs (`exact.quot`).

`CATALOG` is one table of `IdentityCase` entries built from the module-level
functions below. A side is written as a function of the sample's parameters
by name plus `ctx`, and `_mp` turns it into the `(params, ctx)` callable an
entry holds: it converts every parameter but the integer `n` with `to_mp`
under `ctx.working()` and runs the side at working precision; q sides build
their `QContext` from the converted q. Terminating entries are evaluated
exactly (zero error) on every sample, real or complex, through `_exact`,
which looks `exact.<name>_sides` up on the `exact` module at each call, so a
rebinding of that attribute is seen. Its values, unreduced pairs, are
rounded once a sample (`precision.rounded`): the lhs and rhs share a one-entry
memo, and the rhs reuses the rounded lhs when the two pairs are equal. A sample passes when
its sides agree to every reported digit, rel_err < 10^-digits (relative to
|rhs|, absolute when rhs = 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from operator import mul, pos
from typing import Callable, Optional

from mpmath import mp, mpf

from . import exact
from .errors import DomainError
from .exact import quot
from .gammafn import gamma_ratio
from .precision import PrecisionContext, pow10, rounded, to_mp
from .qseries import QContext, principal_sqrt, q_bracket, sum_q_series
from .series import (Gauss, SeriesResult, SeriesSpec, _parts, combined_method, sum_bilateral,
                     sum_unilateral)

GRAIN = 64  # dyadic sampling grid 1/64


@dataclass(frozen=True)
class IdentityCase:
    """One identity: schema, constraints, sampler, both-side evaluators and
    the check, built here from the schema and the constraints (`_checker`)
    unless one is given."""

    id: str
    description: str
    schema: dict
    constraints: tuple
    sampler: Callable
    lhs: Callable
    rhs: Callable
    check: Optional[Callable] = None

    def __post_init__(self):
        if self.check is None:
            object.__setattr__(self, "check", _checker(self.schema, self.constraints))


# ---------------------------------------------------------------------------
# sampling helpers

def _dyadic(rng, lo, hi, d=1) -> Fraction:
    """Dyadic rational strictly inside (lo/d, hi/d) on the 1/GRAIN grid, for
    ints lo, hi and d > 0; a bound is truncated towards 0 onto the grid."""
    lo, hi = lo * GRAIN, hi * GRAIN  # over d: the floor from 0 up, the ceiling below
    return Fraction(rng.randint((lo if lo >= 0 else lo + d - 1) // d + 1,
                                (hi if hi >= 0 else hi + d - 1) // d - 1), GRAIN)


def _dyadic_noninteger(rng, lo, hi, d=1) -> Fraction:
    while True:
        v = _dyadic(rng, lo, hi, d)
        if v.denominator > 1:
            return v


def _complexify(params, rng, index, fields):
    """Every tenth sample gets imaginary dyadic parts on the given fields."""
    if index % 10 != 9:
        return params
    for f in fields:
        im = 0
        while not im:
            im = rng.randint(-GRAIN, GRAIN)
        params[f] = complex(float(params[f]), im / GRAIN)
    return params


def _clear_of_q_poles(x, q, upto: Optional[int] = None) -> bool:
    """False when x == q**-i for some admissible i >= 0 (i < upto if given),
    for 0 < q < 1: x = a/b (b > 0) and q = m/n are int pairs, a m^i and b n^i compared."""
    (a, b), (m, n) = x, q
    for _ in count() if upto is None else range(upto):
        if a <= b:
            return a != b
        a, b = a * m, b * n
    return True


# ---------------------------------------------------------------------------
# constraints: each string read once into a test, the tests of an entry its check

_CONSTRAINT = re.compile(
    r"(?P<items>.+?) (?:(?P<op>>=?) (?P<x>\S+)|in \[(?P<lo>\S+), (?P<hi>\S+)\]|not (?P<set>"
    r"integers|an integer|in \{0, -1, \.\.\.\}|in \{0, \.\.\., 1-n\})|off (?P<poles>q|q\^2)-poles"
    r"(?: up to q\^(?P<upto>-n|\(1-n\)))?)")
_EXCLUDED = {  # whether the integer k is in the named set, for the sample p
    "integers": lambda k, p: True, "an integer": lambda k, p: True,
    "in {0, -1, ...}": lambda k, p: k <= 0, "in {0, ..., 1-n}": lambda k, p: -p["n"] < k <= 0}


def _linear(text, names, bar=""):
    """The form `text` in `names`, of terms such as 1, -b, 2a and a/2, as the
    function of (d, re, im, p) that gives ints (v, w, m), the form being
    (v + w i) / m, m > 0; v is |v| when `bar`."""
    terms = [re.fullmatch(r"([+-]?\d*)([a-z]?)(?:/(\d+))?", t).groups()
             for t in re.findall(r"[+-]?[^+-]+", text)]
    m = lcm(*(int(den or 1) for _, _, den in terms))
    coefs = dict.fromkeys(["", *names], 0)
    for k, name, den in terms:
        coefs[name] += int(k if k.strip("+-") else k + "1") * (m // int(den or 1))
    c, *cs = coefs.values()
    sign = abs if bar else pos
    return lambda s: (sign(c * s[0] + sum(map(mul, cs, s[1]))),
                      s[2] and sum(map(mul, cs, s[2])), m * s[0])


def _monomial(text):
    """The monomial `text`, such as q a^2/(b c d e), as (ups, downs), the names
    of its factors above and below the line, each as often as its power; q^n
    is one name, q^(1+n) is q q^n."""
    return [[f for f, k in re.findall(r"(q\^n|\w)(?:\^(\d+))?", side) for _ in range(int(k or 1))]
            for side in text.replace("q^(1+n)", "q q^n").partition("/")[::2]]


def _test(text, names, q):
    """The test of one constraint on what the check reads: the parameters'
    int pairs by name for a q entry, else (d, re, im, p) (`_checker`)."""
    g = _CONSTRAINT.fullmatch(text)
    if g is None:
        raise ValueError(f"constraint outside the grammar: {text!r}")
    items = g["items"].split(", ")
    if q:
        monomials = [_monomial(i) for i in items]
        values = lambda v: (quot(map(v.__getitem__, ups), map(v.__getitem__, downs))
                            for ups, downs in monomials)
    else:
        parts = ([("", i) for i in items] if g["set"] else
                 [re.fullmatch(r"(\|?)Re\((.+)\)\1", i).groups() for i in items])
        forms = [_linear(form, names, bar) for bar, form in parts]
        values = lambda s: (f(s) for f in forms)
    if g["poles"]:  # up to q^-n: i < n + 1; up to q^(1-n): i < n
        key, extra = g["poles"], {"-n": 1, "(1-n)": 0}.get(g["upto"])
        holds = lambda x, v: _clear_of_q_poles(x, v[key], None if extra is None else v["n"] + extra)
    elif g["set"]:
        excluded = _EXCLUDED[g["set"]]
        holds = lambda x, s: x[1] or x[0] % x[2] or not excluded(x[0] // x[2], s[3])
    elif g["op"]:  # on ints, v / m > x reads v xd - xn m >= 1
        (xn, xd), least = Fraction(g["x"]).as_integer_ratio(), g["op"] == ">"
        holds = lambda x, s: x[0] * xd - xn * x[-1] >= least
    else:
        (ln, ld), (hn, hd) = (Fraction(g[k]).as_integer_ratio() for k in ("lo", "hi"))
        holds = lambda x, s: ln * x[-1] <= x[0] * ld and x[0] * hd <= hn * x[-1]
    return lambda s: all(holds(x, s) for x in values(s))


def _checker(schema, constraints):
    """The check of an entry: its schema's bounds, then its constraints but the
    `sampler:` notes, on q parameters as int pairs (and q^n), on others as the
    parts re and im (empty when all are 0) of their numerators over d."""
    ranges = [(k, *map(int, v[4:].split(".."))) for k, v in schema.items() if v[:4] == "int "]
    bounds = [(k, *(((0, 1), (1, 0)) if v == "positive" else  # (1, 0) stands for +inf
                    (Fraction(x).as_integer_ratio() for x in v[4:-1].split(","))))
              for k, v in schema.items() if v != "complex" and v[:4] != "int "]
    names = [k for k, v in schema.items() if v[:4] != "int "]
    tests = [_test(c, names, "q" in schema) for c in constraints if not c.startswith("sampler:")]

    def check(p):
        if not (all(isinstance(p[k], int) and lo <= p[k] <= hi for k, lo, hi in ranges)
                and all(ln * d < v * ld and v * hd < hn * d for k, (ln, ld), (hn, hd) in bounds
                        for v, d in [p[k].as_integer_ratio()])):
            return False
        if "q" in schema:
            s = {k: p[k].as_integer_ratio() for k in names}
            s["n"] = n = p.get("n", 0)
            s["q^2"], s["q^n"] = quot([s["q"]] * 2), quot([s["q"]] * n)
        else:
            nums, d = exact.common([p[k] for k in names])
            s = d, *(zip(*map(_parts, nums)) if Gauss in map(type, nums) else (nums, ())), p
        return all(t(s) for t in tests)

    return check


# ---------------------------------------------------------------------------
# side wrappers, then evaluator helpers that assume working precision

def _mp(side):
    """The (params, ctx) callable of `side`: every parameter but the integer
    n converted with to_mp and passed by name, at working precision."""

    def run(p, ctx):
        with ctx.working():
            return side(ctx=ctx, **{k: v if k == "n" else to_mp(v) for k, v in p.items()})

    return run


def _exact(name):
    """The (lhs, rhs) of a terminating entry: the values of
    `exact.<name>_sides` with zero error, each `rounded` once, or the rhs
    the rounded lhs when the two are `_equal`. A one-entry memo keyed by
    that function, ctx.dps and the parameters serves both sides of a sample."""
    memo = [None, None]  # key and the rounded (lhs, rhs) of the last evaluation

    def side(which):
        def run(p, ctx):
            sides = getattr(exact, f"{name}_sides")
            key = (sides, ctx.dps, dict(p))
            if memo[0] != key:
                left, right = sides(**p)
                with ctx.working():
                    lhs = rounded(*left)
                    memo[:] = key, (lhs, lhs if _equal(left, right) else rounded(*right))
            return SeriesResult(memo[1][which], mpf(0), 0 if which else p["n"] + 1, "terminating")

        return run

    return side(0), side(1)


def _equal(x, y) -> bool:
    """Whether two values (n, d) of `exact` are equal, cross-multiplied."""
    return x[0] * y[1] == y[0] * x[1]


def _pfq(uppers, lowers, ctx) -> SeriesResult:
    return sum_unilateral(SeriesSpec(uppers, lowers, 1, "unilateral"), ctx)


def _hh(uppers, lowers, ctx) -> SeriesResult:
    return sum_bilateral(SeriesSpec(uppers, lowers, 1, "bilateral"), ctx)


def _closed(value, ctx) -> SeriesResult:
    return SeriesResult(value, abs(value) * ctx.eps() * 20, 0, "direct")


def _gamma_side(numers, denoms, ctx) -> SeriesResult:
    return _closed(gamma_ratio(numers, denoms, ctx), ctx)


def _bracket_side(numers, denoms, q, ctx) -> SeriesResult:
    return _closed(q_bracket(numers, denoms, QContext(q, ctx)), ctx)


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
    return sum_q_series(SeriesSpec(uppers, lowers, arg, kind), qc)


# ---------------------------------------------------------------------------
# classical entries

def _saalschuetz_sampler(rng, index):
    p = {
        "a": _dyadic(rng, 0, 4), "b": _dyadic(rng, 0, 4),
        "c": _dyadic(rng, 0, 4), "n": rng.randint(0, 30),
    }
    return _complexify(p, rng, index, ("a", "b"))


def _saalschuetz_nt_sampler(rng, index):
    a = _dyadic(rng, 0, 2)
    b = _dyadic(rng, 0, 2)
    c = _dyadic(rng, 0, 4)
    d = a + b + _dyadic(rng, 15, 25)
    return _complexify({"a": a, "b": b, "c": c, "d": d}, rng, index, ("a", "b"))


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


def _gauss_lhs(a, b, c, ctx):
    return _pfq([a, b], [c], ctx)


def _gauss_rhs(a, b, c, ctx):
    return _gamma_side([c, c - a - b], [c - a, c - b], ctx)


def _dixon_sampler(rng, index):
    while True:
        a = _dyadic(rng, 1, 4)
        b = _dyadic_noninteger(rng, -7, -1, 2)
        c = _dyadic_noninteger(rng, -7, -1, 2)
        if 5 <= 1 + Fraction(a, 2) - b - c <= 9:
            break
    return _complexify({"a": a, "b": b, "c": c}, rng, index, ("a", "b"))


def _dixon_lhs(a, b, c, ctx):
    return _pfq([a, b, c], [1 + a - b, 1 + a - c], ctx)


def _dixon_rhs(a, b, c, ctx):
    h = a / 2
    return _gamma_side([1 + h, 1 + a - b, 1 + a - c, 1 + h - b - c],
                       [1 + a, 1 + h - b, 1 + h - c, 1 + a - b - c], ctx)


def _theorem1_sampler(rng, index):
    while True:
        p = {k: _dyadic(rng, 1, 12, 4) for k in "abcd"}
        if sum(p.values()) > 1 + Fraction(1, 16):
            break
    return _complexify(p, rng, index, ("a", "b"))


def _theorem1_lhs(a, b, c, d, ctx):
    return _added(phi_sum(a, b, c, d, ctx), phi_sum(c, d, a, b, ctx), ctx)


def _theorem1_rhs(a, b, c, d, ctx):
    return _gamma_side([a, b, c, d, a + b + c + d - 1], [a + c, a + d, b + c, b + d], ctx)


def _ca_db_sampler(rng, index):
    while True:
        p = {"a": _dyadic(rng, 1, 8, 4), "b": _dyadic(rng, 1, 8, 4)}
        if 2 * p["a"] + 2 * p["b"] - 1 > Fraction(1, 16):
            break
    return _complexify(p, rng, index, ("a", "b"))


def _ca_db_lhs(a, b, ctx):
    return _pfq([a, b, 2 * a + 2 * b - 1], [a + 2 * b, 2 * a + b], ctx)


def _ca_db_rhs(a, b, ctx):
    v = gamma_ratio([a, b, a + 2 * b, 2 * a + b], [2 * a, 2 * b, a + b, a + b], ctx) / 2
    return _closed(v, ctx)


def _b_neg_n_sampler(rng, index):
    p = {
        "a": _dyadic(rng, 1, 12, 4),
        "c": _dyadic(rng, 1, 12, 4),
        "d": _dyadic(rng, 1, 12, 4),
        "n": rng.randint(0, 20),
    }
    return _complexify(p, rng, index, ("a",))


def _phi_as_3f2_sampler(rng, index):
    p = {
        "a": _dyadic(rng, 1, 12, 4),
        "b": _dyadic(rng, 1, 12, 4),
        "c": _dyadic(rng, 5, 8),
        "d": _dyadic(rng, 1, 12, 4),
    }
    return _complexify(p, rng, index, ("a", "b"))


def _phi_as_3f2_lhs(a, b, c, d, ctx):
    return phi_sum(c, d, a, b, ctx)


def _phi_as_3f2_rhs(a, b, c, d, ctx):
    return phi_via_3f2(c, d, a, b, ctx)


def _h22_sampler(rng, index):
    while True:
        p = {
            "a": _dyadic_noninteger(rng, 1, 8, 4),
            "b": _dyadic_noninteger(rng, 1, 8, 4),
            "c": _dyadic_noninteger(rng, 6, 15),
            "d": _dyadic_noninteger(rng, 6, 15),
        }
        if 15 <= sum(p.values()) <= 30:
            break
    return _complexify(p, rng, index, ("a", "b"))


def _h22_lhs(a, b, c, d, ctx):
    both = _added(phi_sum(c, d, a, b, ctx), phi_sum(a, b, c, d, ctx), ctx)
    return _scaled(both, c * d, ctx)


def _h22_rhs(a, b, c, d, ctx):
    return _hh([1 - a, 1 - b], [1 + c, 1 + d], ctx)


# ---------------------------------------------------------------------------
# q-entries; a sampler may return parameters its check rejects, and
# sample_parameters then draws again from the same stream

def _sample_q(rng):
    return _dyadic(rng, 1, 8, 10)


def _bailey_sampler(rng, index):
    q = _sample_q(rng)
    return {
        "a": _dyadic(rng, 1, 6),
        "b": _dyadic(rng, 1, 4), "c": _dyadic(rng, 1, 4),
        "d": _dyadic(rng, 1, 4), "e": _dyadic(rng, 1, 4),
        "q": q,
    }


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


def _jackson_nt_sampler(rng, index):
    return {
        "a": _dyadic(rng, 1, 3), "b": _dyadic(rng, 1, 3),
        "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
        "e": _dyadic(rng, 1, 3),
        "q": _dyadic(rng, 1, 7, 10),
    }


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
        qc,
    )
    t87 = _vwp(b * b / a, (b, b * c / a, b * d / a, b * e / a, b * f / a), q, qc,
               r=b / principal_sqrt(a))
    br2 = q_bracket(
        [q * a, b / a, q * a / (c * d), q * a / (c * e), q * a / (c * f),
         q * a / (d * e), q * a / (d * f), q * a / (e * f)],
        [q * a / c, q * a / d, q * a / e, q * a / f,
         b * c / a, b * d / a, b * e / a, b * f / a],
        qc,
    )
    return _added(_scaled(t87, (b / a) * br1, ctx), _closed(br2, ctx), ctx)


def _split_sampler(rng, index):
    return {
        "a": _dyadic(rng, 1, 8),
        "c": _dyadic(rng, 1, 3), "d": _dyadic(rng, 1, 3),
        "e": _dyadic(rng, 1, 3), "f": _dyadic(rng, 1, 3),
        "q": _sample_q(rng),
    }


def _omega_lhs(a, c, d, e, f, q, ctx):
    z = q * a * a / (c * d * e * f)
    r = principal_sqrt(c * d * e * f / a)
    spec = SeriesSpec(
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
        qc,
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
    return cdef, z, num / den


def _theta_lhs(a, c, d, e, f, q, ctx):
    cdef, z, pref = _theta_prefactor(q, a, c, d, e, f)
    r = principal_sqrt(a / cdef)
    spec = SeriesSpec(
        (q, q * q * r, -q * q * r, q / c, q / d, q / e, q / f),
        (q * r, -q * r, q * q * a / (d * e * f), q * q * a / (c * e * f),
         q * q * a / (c * d * f), q * q * a / (c * d * e)),
        z, "phi",
    )
    return _scaled(sum_q_series(spec, QContext(q, ctx)), pref, ctx)


def _theta_rhs(a, c, d, e, f, q, ctx):
    qc = QContext(q, ctx)
    cdef, z, pref = _theta_prefactor(q, a, c, d, e, f)
    gg = q * q * a**3 / cdef**2
    br = q_bracket(
        [q, q**3 * a / cdef, q * q * a * a / (c * c * d * e * f),
         q * q * a * a / (c * d * d * e * f), q * q * a * a / (c * d * e * e * f),
         q * q * a * a / (c * d * e * f * f)],
        [q * q * a / (c * d * e), q * q * a / (c * d * f), q * q * a / (c * e * f),
         q * q * a / (d * e * f), z, q**3 * a**3 / cdef**2],
        qc,
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
_RE4 = "Re(a), Re(b), Re(c), Re(d) > 0"
_Q, _DRAWN_Q = "in (0,1)", "sampler: q in (1/10, 4/5)"
_SPLIT_SCHEMA = {**dict.fromkeys("acdef", "positive"), "q": _Q}
_SPLIT = (
    "q a^2/(c d e f) in [1/20, 4/5]",
    "c, d, e, f, a, q a/c, q a/d, q a/e, q a/f, c d e f/a, q a/(c d e), q a/(c d f), q a/(c e f), "
    "q a/(d e f), q^2 a/(c d e f), q^2 a^2/(c d e f^2), q^2 a^2/(c d e^2 f), q^2 a^2/(c d^2 e f), "
    "q^2 a^2/(c^2 d e f), q a/(c d), q a/(c e), q a/(c f), q a/(d e), q a/(d f), q a/(e f) "
    "off q-poles",
    "q^2 a^3/(c^2 d^2 e^2 f^2) off q^2-poles", _DRAWN_Q,
)

CATALOG = {c.id: c for c in (
    IdentityCase(
        "saalschuetz",
        "terminating balanced 3F2(a,b,-n; c,1+a+b-c-n; 1) as a Pochhammer ratio",
        {"a": "complex", "b": "complex", "c": "complex", "n": "int 0..30"},
        ("Re(c) > 0", "c-a-b, c-a, c-b not in {0, ..., 1-n}"),
        _saalschuetz_sampler, *_exact("saalschuetz"),
    ),
    IdentityCase(
        "saalschuetz-nt",
        "nonterminating balanced 3F2(a,b,c+d-a-b-1; c,d; 1) two-term evaluation",
        _COMPLEX4,
        ("Re(d-a-b) >= 14", "|Re(a+b-c)| >= 1/1000", "c-a-b not an integer",
         "c+d-a-b-1, c-a, c-b, d-a, d-b not in {0, -1, ...}", "sampler: Re(d-a-b) in (15, 25)"),
        _saalschuetz_nt_sampler, _mp(_saalschuetz_nt_lhs), _mp(_saalschuetz_nt_rhs),
    ),
    IdentityCase(
        "dougall-2h2",
        "Dougall bilateral 2H2(a,b;c,d;1) as a gamma ratio",
        _COMPLEX4,
        ("a, b not integers", "Re(c+d-a-b) in [15, 30]", "c-a, c-b, d-a, d-b not in {0, -1, ...}"),
        _dougall_sampler, _mp(_dougall_lhs), _mp(_dougall_rhs),
    ),
    IdentityCase(
        "gauss-2f1",
        "Gauss 2F1(a,b;c;1) as a gamma ratio",
        dict.fromkeys("abc", "complex"),
        ("Re(c-a-b) in [4, 26]", "Re(c) > 0", "sampler: Re(c-a-b) in (5, 25)"),
        _gauss_sampler, _mp(_gauss_lhs), _mp(_gauss_rhs),
    ),
    IdentityCase(
        "dixon",
        "Dixon 3F2(a,b,c; 1+a-b,1+a-c; 1) as a gamma ratio with half-argument factors",
        dict.fromkeys("abc", "complex"),
        ("b, c not integers", "Re(1+a/2-b-c) in [5, 9]"),
        _dixon_sampler, _mp(_dixon_lhs), _mp(_dixon_rhs),
    ),
    IdentityCase(
        "theorem-1",
        "symmetric identity Phi(a,b;c,d) + Phi(c,d;a,b) = gamma-product ratio",
        _COMPLEX4, (_RE4, "Re(a+b+c+d) > 33/32"),
        _theorem1_sampler, _mp(_theorem1_lhs), _mp(_theorem1_rhs),
    ),
    IdentityCase(
        "theorem-1-ca-db",
        "3F2(a,b,2a+2b-1; a+2b,2a+b; 1) = (1/2) gamma-product ratio",
        {"a": "complex", "b": "complex"},
        ("Re(a), Re(b) > 0", "Re(2a+2b-1) > 1/32"),
        _ca_db_sampler, _mp(_ca_db_lhs), _mp(_ca_db_rhs),
    ),
    IdentityCase(
        "theorem-1-b-neg-n",
        "terminating reduction 3F2(a,a+c+d-1-n,-n; a+c-n,a+d-n; 1) as a Pochhammer ratio",
        {"a": "complex", "c": "complex", "d": "complex", "n": "int 0..20"},
        ("a+c, a+d not integers",),
        _b_neg_n_sampler, *_exact("phi_symmetric_terminating"),
    ),
    IdentityCase(
        "phi-as-3f2",
        "Phi(c,d;a,b) route equivalence: direct sum vs 3F2(1,a+d,b+d;1+d,a+b+c+d;1)/(d(a+b+c+d-1))",
        _COMPLEX4, ("Re(a), Re(b), Re(d) > 0", "Re(c) >= 5"),
        _phi_as_3f2_sampler, _mp(_phi_as_3f2_lhs), _mp(_phi_as_3f2_rhs),
    ),
    IdentityCase(
        "h22-split",
        "cd (Phi(c,d;a,b) + Phi(a,b;c,d)) = 2H2(1-a,1-b;1+c,1+d;1), the bilateral split",
        _COMPLEX4, ("a, b, c, d not integers", _RE4, "Re(a+b+c+d) in [15, 30]"),
        _h22_sampler, _mp(_h22_lhs), _mp(_h22_rhs),
    ),
    IdentityCase(
        "bailey-6psi6",
        "Bailey very-well-poised 6psi6 sum as an infinite q-bracket",
        {**dict.fromkeys("abcde", "positive"), "q": _Q},
        ("q a^2/(b c d e) in [1/20, 4/5]",
         "a, q a/b, q a/c, q a/d, q a/e, q a/(b c), q a/(b d), q a/(b e), q a/(c d), q a/(c e), "
         "q a/(d e) off q-poles", _DRAWN_Q),
        _bailey_sampler, _mp(_bailey_lhs), _mp(_bailey_rhs),
    ),
    IdentityCase(
        "phi65",
        "very-well-poised 6phi5(a,...;qa/bcd) sum as an infinite q-bracket",
        {**dict.fromkeys("abcd", "positive"), "q": _Q},
        ("q a/(b c d) in [1/20, 4/5]",
         "a, q a/b, q a/c, q a/d, q a/(b c), q a/(b d), q a/(c d) off q-poles", _DRAWN_Q),
        _phi65_sampler, _mp(_phi65_lhs), _mp(_phi65_rhs),
    ),
    IdentityCase(
        "jackson-8phi7",
        "terminating very-well-poised 8phi7 sum as a finite q-bracket (exact rational)",
        {**dict.fromkeys("abcd", "positive"), "q": _Q, "n": "int 0..15"},
        ("a, q a/b, q a/c, q a/d off q-poles", "q^(1+n) a^2/(b c d) off q-poles up to q^-n",
         "b c d/(a q^n), q^(1+n) a off q-poles up to q^(1-n)", _DRAWN_Q),
        _jackson_sampler, *_exact("jackson_8phi7"),
    ),
    IdentityCase(
        "jackson-nt",
        "nonterminating very-well-poised 8phi7 with q a^2 = b c d e f, two-term evaluation",
        {**dict.fromkeys("abcde", "positive"), "q": _Q},
        ("q a^2/(b c d e) in [1/32, 32]",
         "a, b, c, d, e, q a^2/(b c d e), q a/b, q a/c, q a/d, q a/e, b c d e/a, b c/a, b d/a, "
         "b e/a, q a/(c d e), q b/a, q b/c, q b/d, q b/e, b^2 c d e/a^2, q b^2/a off q-poles",
         "b^2/a off q^2-poles", "sampler: q in (1/10, 7/10)"),
        _jackson_nt_sampler, _mp(_jackson_nt_lhs), _mp(_jackson_nt_rhs),
    ),
    IdentityCase(
        "omega",
        "k>=0 half of the split Bailey sum vs its well-poised 8phi7 closed form",
        _SPLIT_SCHEMA, _SPLIT, _split_sampler, _mp(_omega_lhs), _mp(_omega_rhs),
    ),
    IdentityCase(
        "theta",
        "reflected half of the split Bailey sum vs its well-poised 8phi7 closed form",
        _SPLIT_SCHEMA, _SPLIT, _split_sampler, _mp(_theta_lhs), _mp(_theta_rhs),
    ),
    IdentityCase(
        "bailey-split",
        "two k>=0 halves of the split Bailey sum recombine to the full bracket",
        _SPLIT_SCHEMA, _SPLIT, _split_sampler, _mp(_split_lhs), _mp(_split_rhs),
    ),
)}


def tolerance_rule(lhs: SeriesResult, rhs: SeriesResult, ctx: PrecisionContext):
    """Return (abs_err, rel_err, passed), passed when rel_err < 10^-digits: |lhs - rhs|
    relative to |rhs|, absolute when rhs = 0; equal finite sides give its zeros and pass
    without the arithmetic. The values alone decide; error estimates do not enter."""
    if lhs.value == rhs.value and mp.isfinite(lhs.value):
        return mp.zero, mp.zero, True
    with ctx.working():
        diff = abs(lhs.value - rhs.value)
        rel = diff / abs(rhs.value) if rhs.value != 0 else diff
        return diff, rel, bool(rel < pow10(-ctx.digits))
