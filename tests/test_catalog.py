import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from hashlib import sha256
from math import prod
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from hyperid import catalog, exact
from hyperid.catalog import CATALOG, phi_sum, phi_via_3f2, tolerance_rule
from hyperid.errors import DomainError
from hyperid.gammafn import gamma_ratio
from hyperid.harness import REJECTION_CAP, rng_for, sample_parameters, verify_one
from hyperid.precision import PrecisionContext, to_mp
from hyperid.qseries import QContext, QSeriesSpec, principal_sqrt, q_bracket, sum_q_series
from hyperid.series import Gauss, SeriesResult, SeriesSpec, sum_unilateral

from oracles import (
    REFERENCE_CHECKS,
    b_neg_n_check,
    chu_vandermonde,
    clear_of_q_poles,
    fraction_value,
    jackson_check,
    saalschuetz_check,
    term_stream,
)


def _sides(ident, params, ctx):
    case = CATALOG[ident]
    return case.lhs(params, ctx), case.rhs(params, ctx)


def _assert_close(lhs, rhs, ctx, tol_exp):
    with ctx.working():
        scale = abs(rhs.value) if abs(rhs.value) > 0 else mpf(1)
        assert abs(lhs.value - rhs.value) / scale < mpf(10) ** tol_exp


def test_catalog_has_seventeen_entries():
    assert len(CATALOG) == 17
    assert set(CATALOG) == {
        "saalschuetz", "saalschuetz-nt", "dougall-2h2", "gauss-2f1", "dixon",
        "theorem-1", "theorem-1-ca-db", "theorem-1-b-neg-n", "phi-as-3f2",
        "h22-split", "bailey-6psi6", "phi65", "jackson-8phi7", "jackson-nt",
        "omega", "theta", "bailey-split",
    }


# q in (0, 1): dyadic, as the samplers draw it, or not
_POLE_Q = st.one_of(
    st.integers(1, 255).map(lambda n: Fraction(n, 256)),
    st.fractions(0, 1, max_denominator=1000).filter(lambda f: 0 < f < 1),
)


@st.composite
def _pole_cases(draw):
    # x on a pole q^-i, one unit of 2^-40 beside it, or anywhere in (-2, 40)
    q, i = draw(_POLE_Q), draw(st.integers(0, 20))
    x = draw(st.one_of(
        st.sampled_from([q**-i, q**-i * (1 + Fraction(1, 2**40)), q**-i * (1 - Fraction(1, 2**40))]),
        st.fractions(-2, 40, max_denominator=2**12),
    ))
    return x, q, draw(st.one_of(st.none(), st.integers(0, 16)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pole_cases())
def test_pole_check_on_ints_matches_the_fraction_loop(case):
    x, q, upto = case
    assert catalog._clear_of_q_poles(x.as_integer_ratio(), q.as_integer_ratio(), upto) == \
        clear_of_q_poles(x, q, upto)


@st.composite
def _jackson_params(draw):
    # a parameter q^i puts q a/b, A = q^(1+n) a^2/(b c d) or b c d/(a q^n)
    # on a q-power pole whenever the exponents line up
    q = draw(_POLE_Q)
    param = st.one_of(st.fractions(Fraction(1, 64), 4, max_denominator=64).filter(bool),
                      st.integers(-20, 20).map(lambda i: q**i))
    return {**{k: draw(param) for k in "abcd"}, "q": q, "n": draw(st.integers(-1, 16))}


_HALF = Fraction(1, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_jackson_params())
@example(dict(zip("abcdqn", (Fraction(209, 64), Fraction(5, 4), Fraction(129, 64),
                             Fraction(43681, 82560), _HALF, 2))))  # A = q^-1
@example(dict(zip("abcdqn", (Fraction(209, 64), Fraction(5, 4), Fraction(129, 64),
                             Fraction(209, 645), _HALF, 2))))  # b c d/(a q^n) = q^-1
@example(dict(zip("abcdqn", (Fraction(3), Fraction(9, 8), _HALF, _HALF, _HALF, 2))))  # e = q^-n
def test_jackson_check_on_ints_matches_the_fraction_form(p):
    assert CATALOG["jackson-8phi7"].check(p) == jackson_check(p)


@st.composite
def _q_params(draw):
    # parameters q^i put products such as q a/b on a q-power pole whenever
    # the exponents line up; fractions near 1 keep z in range often enough
    q = draw(_POLE_Q)
    param = st.one_of(st.fractions(Fraction(1, 4), 4, max_denominator=64),
                      st.integers(-6, 6).map(lambda i: q**i))
    return {**{k: draw(param) for k in "abcdef"}, "q": q}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_q_params())
def test_q_checks_on_int_pairs_match_the_fraction_forms(p):
    # each check reads its own parameters of the one dict
    for ident in ("bailey-6psi6", "phi65", "jackson-nt", "omega", "theta", "bailey-split"):
        assert CATALOG[ident].check(p) == REFERENCE_CHECKS[ident](p)


@st.composite
def _terminating_params(draw):
    # integer shifts put c - a - b, c - a, c - b, a + c or a + d on an
    # integer; complex parameters have dyadic parts, as sampled
    grid = st.integers(-256, 256).map(lambda i: Fraction(i, 64))
    parts = st.integers(-64, 64).map(lambda i: i / 16)
    a, b = (draw(st.one_of(grid, st.builds(complex, parts, parts))) for _ in "ab")
    shift = st.integers(-32, 3)
    c, d = (draw(st.one_of(grid, shift.map(lambda j: a + b + j), shift.map(lambda j: a + j),
                           shift.map(lambda j: j - a), st.builds(complex, parts, parts)))
            for _ in "cd")
    return {"a": a, "b": b, "c": c, "d": d, "n": draw(st.integers(-1, 31))}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_terminating_params())
def test_terminating_checks_on_ints_match_the_fraction_forms(p):
    assert CATALOG["saalschuetz"].check(p) == saalschuetz_check(p)
    assert CATALOG["theorem-1-b-neg-n"].check(p) == b_neg_n_check(p)


@st.composite
def _classical_params(draw):
    # a quarter grid out to 32 and integer shifts of a, b and a + b put each
    # form of the classical constraints on its bounds and on integers;
    # complex parameters have dyadic parts, as sampled
    grid = st.integers(-128, 128).map(lambda i: Fraction(i, 4))
    parts = st.integers(-128, 128).map(lambda i: i / 4)
    a, b = (draw(st.one_of(grid, st.builds(complex, parts, parts))) for _ in "ab")
    shift = st.integers(-40, 40)
    near = [grid, shift.map(lambda j: a + j), shift.map(lambda j: b + j), shift.map(lambda j: a + b + j)]
    c = draw(st.one_of(near))
    return {"a": a, "b": b, "c": c, "d": draw(st.one_of(*near, shift.map(lambda j: a + b - c + j)))}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_classical_params())
def test_built_classical_checks_match_the_references(p):
    for ident in ("saalschuetz-nt", "dougall-2h2", "gauss-2f1", "dixon", "theorem-1",
                  "theorem-1-ca-db", "phi-as-3f2", "h22-split"):
        assert CATALOG[ident].check(p) == REFERENCE_CHECKS[ident](p), ident


def test_terminating_samples_are_pinned():
    # the sampled dicts of the three exact ids, seeds 1-3, indices 0-99, as
    # drawn by the checks of Fraction arithmetic
    ids = ("saalschuetz", "theorem-1-b-neg-n", "jackson-8phi7")
    dicts = [sample_parameters(CATALOG[i], seed, index)
             for i in ids for seed in (1, 2, 3) for index in range(100)]
    digest = "6c7ffd73532ff89eb4efef873e353ded9ffc01a3d8339e4838ccdb02f640a369"
    assert sha256(repr(dicts).encode()).hexdigest() == digest
    forms = (saalschuetz_check, b_neg_n_check, jackson_check)
    assert dicts == [sample_parameters(replace(CATALOG[i], check=form), seed, index)
                     for i, form in zip(ids, forms) for seed in (1, 2, 3) for index in range(100)]


def test_equal_exact_values_are_found_unreduced():
    # raw pairs as `exact` forms them: denominators of either sign, Gaussian
    # numerators and denominators, (1 + 2i) / (1 - i) = (-1 + 3i) / 2 = (-3 - i) / 2i
    assert catalog._equal((6, -4), (-3, 2)) and not catalog._equal((6, 4), (3, -2))
    z = Gauss((1, 2)), 3
    assert catalog._equal(z, (Gauss((2, 4)), 6)) and not catalog._equal(z, (1, 3))
    assert not catalog._equal((1, 3), z)
    w = Gauss((1, 2)), Gauss((1, -1))
    assert catalog._equal(w, (Gauss((-1, 3)), 2)) and catalog._equal(w, (Gauss((-3, -1)), Gauss((0, 2))))
    assert not catalog._equal(w, (Gauss((1, 3)), 2))
    assert catalog._equal((2, Gauss((1, 1))), (Gauss((1, -1)), 1))


def test_a_constraint_outside_the_grammar_is_refused_by_name():
    with pytest.raises(ValueError, match=re.escape("constraint outside the grammar: 'Re(a) ~ 1'")):
        catalog._checker({"a": "complex"}, ("Re(a) ~ 1",))


def test_q_samples_are_pinned():
    # the sampled dicts of the other six q ids, seeds 1-3, indices 0-99, as
    # drawn by the checks of Fraction arithmetic
    ids = ("bailey-6psi6", "phi65", "jackson-nt", "omega", "theta", "bailey-split")
    dicts = [sample_parameters(CATALOG[i], seed, index)
             for i in ids for seed in (1, 2, 3) for index in range(100)]
    digest = "1fea403bca4a94ffbb43bb6d96f7c0319936df7a491b0152c98f251b2557eb62"
    assert sha256(repr(dicts).encode()).hexdigest() == digest


def test_saalschuetz_examples(ctx30):
    l, r = _sides("saalschuetz", {"a": Fraction(1), "b": Fraction(2), "c": Fraction(5), "n": 1}, ctx30)
    with ctx30.working():
        assert l.value == r.value == mpf(6) / 5
    l, r = _sides("saalschuetz", {"a": Fraction(1, 3), "b": Fraction(7, 8), "c": Fraction(5, 2), "n": 0}, ctx30)
    assert l.value == r.value == 1
    # dyadic inputs give literally zero error
    l, r = _sides("saalschuetz", {"a": Fraction(19, 64), "b": Fraction(99, 64), "c": Fraction(13, 8), "n": 27}, ctx30)
    assert l.value == r.value
    assert l.err_estimate == 0


def test_saalschuetz_complex_route(ctx30):
    # complex parameters with dyadic parts are exact Gaussian dyadics: both
    # sides come from the exact path, equal, with zero error
    p = {"a": complex(0.5, 0.25), "b": complex(1.25, -0.5), "c": Fraction(7, 4), "n": 9}
    l, r = _sides("saalschuetz", p, ctx30)
    assert isinstance(l.value, mpmath.mpc) and l.value == r.value
    assert l.err_estimate == r.err_estimate == 0
    assert l.method == r.method == "terminating"
    assert tolerance_rule(l, r, ctx30) == (0, 0, True)


@pytest.mark.parametrize("ident", ["saalschuetz", "theorem-1-b-neg-n"])
def test_every_terminating_sample_is_exact(ident, ctx30):
    # real and complex samples alike (every tenth is complex) take the exact
    # sides: both terminating, with zero error and equal values
    case = CATALOG[ident]
    for index in range(100):
        p = sample_parameters(case, 1, index)
        l, r = case.lhs(p, ctx30), case.rhs(p, ctx30)
        assert l.method == r.method == "terminating"
        assert l.err_estimate == r.err_estimate == 0 and l.value == r.value
        assert l.terms_used == p["n"] + 1 and r.terms_used == 0
        assert (index % 10 == 9) == any(isinstance(v, complex) for v in p.values())


_FLOAT_3F2 = {
    "saalschuetz": lambda a, b, c, n: ([a, b, -n], [c, 1 + a + b - c - n]),
    "theorem-1-b-neg-n": lambda a, c, d, n: ([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n]),
}


@pytest.mark.parametrize("ident, seed, index, digits", [
    ("saalschuetz", 3, 9, 30),  # terms cancel by 12 digits
    # c or d = 1 zeroes the rhs factor (1-c)_n (1-d)_n: the lhs sums to 0
    ("theorem-1-b-neg-n", 1, 1159, 30),
    ("theorem-1-b-neg-n", 1, 1159, 60),
    ("theorem-1-b-neg-n", 1, 369, 60),
])
def test_cancelling_complex_terminating_samples(ident, seed, index, digits):
    # the exact lhs against mpmath at twice the working precision: right to
    # every reported digit, or within its absolute error when the value is 0
    case = CATALOG[ident]
    p = sample_parameters(case, seed, index)
    ctx = PrecisionContext(digits=digits)
    assert verify_one(case, p, ctx, index=index).passed
    lhs = case.lhs(p, ctx)
    assert lhs.method == "terminating"
    with mp.workdps(2 * ctx.dps):
        ups, lows = _FLOAT_3F2[ident](**{k: v if k == "n" else to_mp(v) for k, v in p.items()})
        oracle = mpmath.hyper(ups, lows, 1)
        bound = lhs.err_estimate if oracle == 0 else mpf(10) ** -digits * abs(oracle)
        assert abs(lhs.value - oracle) <= bound


def test_saalschuetz_nt_point(ctx30):
    p = {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(3), "d": Fraction(25, 2)}
    l, r = _sides("saalschuetz-nt", p, ctx30)
    _assert_close(l, r, ctx30, -20)


def test_saalschuetz_nt_terminating_reduction(ctx30):
    # c+d-a-b-1 = -n turns the left side into the balanced terminating sum;
    # at that point the two-term right side degenerates (0 x infinity), so
    # the consistency check is left side against the terminating product
    a, b, n = Fraction(1, 4), Fraction(1, 8), 2
    d = a + b + Fraction(127, 8) + Fraction(1, 64)
    c = 1 + a + b - n - d
    p = {"a": a, "b": b, "c": c, "d": d}
    assert not CATALOG["saalschuetz-nt"].check(p)  # excluded from sampling
    l = CATALOG["saalschuetz-nt"].lhs(p, ctx30)
    assert l.method == "terminating"
    ls, rs = map(fraction_value, exact.saalschuetz_sides(a, b, c, n))
    assert ls == rs
    with ctx30.working():
        assert abs(l.value - to_mp(rs)) < abs(l.value) * mpf(10) ** -30


def test_dougall_2h2_sample_and_symmetry(ctx30):
    a, b = Fraction(5, 8), Fraction(19, 16)
    p = {"a": a, "b": b, "c": a + 11, "d": b + 9}
    l, r = _sides("dougall-2h2", p, ctx30)
    _assert_close(l, r, ctx30, -22)
    # swapping (a,b) and (c,d) leaves both sides invariant
    q = {"a": b, "b": a, "c": b + 9 + (a - b), "d": a + 11 - (a - b)}
    q = {"a": b, "b": a, "c": p["d"], "d": p["c"]}
    l2, r2 = _sides("dougall-2h2", q, ctx30)
    with ctx30.working():
        assert abs(l.value - l2.value) < abs(l.value) * mpf(10) ** -25
        assert abs(r.value - r2.value) < abs(r.value) * mpf(10) ** -25


def test_dougall_constraint_excludes_pole(ctx30):
    # integer upper: Gamma(1-a) pole
    p = {"a": Fraction(1), "b": Fraction(5, 8), "c": Fraction(12), "d": Fraction(9)}
    assert not CATALOG["dougall-2h2"].check(p)
    # a = c: Gamma(c-a) pole on the product side
    p = {"a": Fraction(5, 8), "b": Fraction(5, 8), "c": Fraction(5, 8), "d": Fraction(5, 8) + 20}
    assert not CATALOG["dougall-2h2"].check(p)


_F = Fraction

# one parameter moved out of an input that passes; the cases after the first
# eleven each break exactly one printed constraint of their entry
_CLASSICAL_REJECTS = [
    # Re(d - a - b) < 14
    ("saalschuetz-nt", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(3, 2), "d": _F(163, 8)}, "d", _F(107, 8)),
    # |a + b - c| < 1/1000, c - a - b no integer
    ("saalschuetz-nt", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(3, 2), "d": _F(163, 8)},
     "c", _F(3, 8) + _F(1, 2048)),
    # Re(c + d - a - b) below 15 and above 30
    ("dougall-2h2", {"a": _F(5, 8), "b": _F(19, 16), "c": _F(93, 8), "d": _F(163, 16)}, "c", _F(29, 8)),
    ("dougall-2h2", {"a": _F(5, 8), "b": _F(19, 16), "c": _F(93, 8), "d": _F(163, 16)}, "d", _F(419, 16)),
    # b or c an integer
    ("dixon", {"a": _F(2), "b": _F(-3, 2), "c": _F(-5, 2)}, "b", _F(-2)),
    ("dixon", {"a": _F(2), "b": _F(-3, 2), "c": _F(-5, 2)}, "c", _F(-2)),
    # a part with real part <= 0
    ("theorem-1", {"a": _F(1, 2), "b": _F(1, 2), "c": _F(1, 2), "d": _F(1, 2)}, "a", _F(-1, 2)),
    ("theorem-1-ca-db", {"a": _F(1, 2), "b": _F(1, 2)}, "a", _F(-1, 4)),
    ("phi-as-3f2", {"a": _F(1, 2), "b": _F(1, 2), "c": _F(6), "d": _F(1, 2)}, "d", _F(-1, 2)),
    # a part that is an integer, or has real part <= 0
    ("h22-split", {"a": _F(1, 2), "b": _F(3, 4), "c": _F(15, 2), "d": _F(17, 2)}, "a", _F(1)),
    ("h22-split", {"a": _F(1, 2), "b": _F(3, 4), "c": _F(15, 2), "d": _F(17, 2)}, "a", _F(-1, 2)),
    # Re(c) = 0; c - a = 0 with n = 5
    ("saalschuetz", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(3, 2), "n": 5}, "c", _F(-1, 2)),
    ("saalschuetz", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(3, 2), "n": 5}, "a", _F(3, 2)),
    # c - a - b = 2; c - a = 0
    ("saalschuetz-nt", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(3, 2), "d": _F(163, 8)}, "c", _F(19, 8)),
    ("saalschuetz-nt", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(3, 2), "d": _F(163, 8)}, "c", _F(1, 4)),
    # a = 1; c - a = 0 with Re(c + d - a - b) = 15
    ("dougall-2h2", {"a": _F(5, 8), "b": _F(19, 16), "c": _F(93, 8), "d": _F(163, 16)}, "a", _F(1)),
    ("dougall-2h2", {"a": _F(5, 8), "b": _F(19, 16), "c": _F(13, 8), "d": _F(259, 16)}, "a", _F(13, 8)),
    # Re(c - a - b) = 27; Re(c) = 0
    ("gauss-2f1", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(83, 8)}, "c", _F(219, 8)),
    ("gauss-2f1", {"a": _F(-6), "b": _F(1, 8), "c": _F(1)}, "c", _F(0)),
    # Re(1 + a/2 - b - c) = 10
    ("dixon", {"a": _F(2), "b": _F(-3, 2), "c": _F(-5, 2)}, "a", _F(10)),
    # Re(a) = 0; Re(a + b + c + d) = 33/32
    ("theorem-1", {"a": _F(1, 2), "b": _F(1, 2), "c": _F(1, 2), "d": _F(1, 2)}, "a", _F(0)),
    ("theorem-1", {"a": _F(1, 4), "b": _F(1, 4), "c": _F(1, 4), "d": _F(1, 2)}, "d", _F(9, 32)),
    # Re(a) = 0; Re(2a + 2b - 1) = 1/32
    ("theorem-1-ca-db", {"a": _F(1, 2), "b": _F(2)}, "a", _F(0)),
    ("theorem-1-ca-db", {"a": _F(1, 2), "b": _F(1, 2)}, "a", _F(1, 64)),
    # a + c = 1
    ("theorem-1-b-neg-n", {"a": _F(1, 4), "c": _F(1, 2), "d": _F(1, 8), "n": 3}, "c", _F(3, 4)),
    # Re(c) = 4
    ("phi-as-3f2", {"a": _F(1, 2), "b": _F(1, 2), "c": _F(6), "d": _F(1, 2)}, "c", _F(4)),
    # Re(a + b + c + d) = 33.25
    ("h22-split", {"a": _F(1, 2), "b": _F(3, 4), "c": _F(15, 2), "d": _F(17, 2)}, "d", _F(49, 2)),
    # one form of each multi-item constraint that no case above breaks:
    # c + d - a - b - 1 = 0; d - b = 0; c - b = 0; b, c, d integers; Re(b) < 0
    ("saalschuetz-nt", {"a": _F(1, 4), "b": _F(1, 8), "c": _F(3, 2), "d": _F(163, 8)}, "c", _F(-19)),
    ("saalschuetz-nt", {"a": _F(-14), "b": _F(1, 8), "c": _F(3, 2), "d": _F(163, 8)}, "d", _F(1, 8)),
    ("dougall-2h2", {"a": _F(5, 8), "b": _F(19, 16), "c": _F(5), "d": _F(165, 8)}, "c", _F(19, 16)),
    *(("h22-split", {"a": _F(1, 2), "b": _F(3, 4), "c": _F(15, 2), "d": _F(17, 2)}, key, bad)
      for key, bad in (("b", _F(1)), ("c", _F(8)), ("d", _F(9)), ("b", _F(-1, 4)))),
]

_SPLIT_GOOD = {"a": _F(97, 32), "c": _F(9, 4), "d": _F(81, 32), "e": _F(53, 32), "f": _F(89, 32),
               "q": _F(11, 16)}
_Q_REJECTS = [
    # q a^2/(b c d e) = 0.004; q a = e
    *(("bailey-6psi6", {"a": _F(93, 32), "b": _F(15, 4), "c": _F(53, 16), "d": _F(49, 16),
                        "e": _F(7, 4), "q": _F(17, 32)}, "a", bad) for bad in (_F(1, 2), _F(56, 17))),
    # q a/(b c d) = 0.022; q a = 1
    *(("phi65", {"a": _F(7, 4), "b": _F(71, 32), "c": _F(75, 64), "d": _F(13, 4), "q": _F(3, 8)},
       "a", bad) for bad in (_F(1, 2), _F(8, 3))),
    # q a^2/(b c d e) below 1/32; a = 1; b^2/a = 1
    *(("jackson-nt", {"a": _F(7, 4), "b": _F(37, 32), "c": _F(31, 16), "d": _F(85, 64),
                      "e": _F(19, 16), "q": _F(5, 8)}, "a", bad)
      for bad in (_F(1, 3), _F(1), _F(1369, 1024))),
    # q a^2/(c d e f) = 0.006; q a = 1; q^2 a^3/(c d e f)^2 = 1
    *((ident, good, "a", bad) for ident in ("omega", "theta", "bailey-split")
      for good, bad in ((_SPLIT_GOOD, _F(1, 2)), (_SPLIT_GOOD, _F(16, 11)),
                        ({"a": _F(1, 5), "c": _F(3, 4), "d": _F(3, 4), "e": _F(3, 4), "f": _F(1, 9),
                          "q": _F(3, 8)}, _F(1, 4)))),
    # one of q a/(c d e), q a/(c d f), q a/(c e f), q a/(d e f), q^2 a/(c d e f) and the four
    # q^2 a^2/(...) on a q-pole with q a^2/(c d e f) in range, which no move of a sample
    # reaches (the split ids share one tuple)
    *(("omega", dict(zip("acdefq", good)), key, bad) for good, key, bad in (
        ((_F(9, 8), _F(5, 2), _F(19, 8), _F(3, 4), _F(13, 8), _F(3, 4)), "c", _F(9, 19)),
        ((_F(9, 8), _F(11, 4), _F(3, 4), _F(9, 4), _F(7, 4), _F(1, 2)), "c", _F(3, 7)),
        ((_F(7, 4), _F(3), _F(5, 2), _F(3, 2), _F(19, 8), _F(5, 8)), "c", _F(35, 114)),
        ((_F(11, 8), _F(21, 8), _F(5, 4), _F(3, 4), _F(3), _F(1, 2)), "d", _F(11, 36)),
        ((_F(1, 2), _F(9, 8), _F(7, 8), _F(19, 8), _F(3, 2), _F(3, 4)), "c", _F(12, 133)),
        ((_F(7, 4), _F(19, 8), _F(7, 4), _F(11, 8), _F(1, 2), _F(5, 8)), "c", _F(175, 88)),
        ((_F(1, 2), _F(5, 8), _F(9, 8), _F(1, 4), _F(9, 8), _F(5, 8)), "c", _F(100, 81)),
        ((_F(3, 4), _F(9, 4), _F(1, 4), _F(17, 8), _F(2), _F(5, 8)), "c", _F(225, 272)),
        ((_F(9, 8), _F(1, 4), _F(7, 4), _F(9, 4), _F(19, 8), _F(5, 8)), "d", _F(225, 152)))),
    # q a/b = 1; q^(1+n) a^2/(b c d) = q^-1; b c d/(a q^n) = q^-1
    *(("jackson-8phi7", {"a": _F(9, 4), "b": _F(3, 2), "c": _F(5, 4), "d": _F(7, 4), "q": _F(1, 2), "n": 3},
       key, bad) for key, bad in (("b", _F(9, 8)), ("d", _F(27, 320)), ("d", _F(3, 10)))),
]
# each bound of a q entry's schema broken on the entry's first sample, on its
# edge: a parameter 0, q = 1
_EDGES = {"positive": _F(0), "in (0,1)": _F(1)}
_DOMAIN_REJECTS = [(case.id, sample_parameters(case, 1, 0), key, _EDGES[word])
                   for case in CATALOG.values() for key, word in case.schema.items()
                   if word != "complex" and not word.startswith("int ")]


@pytest.mark.parametrize("ident, good, key, bad", _CLASSICAL_REJECTS)
def test_classical_checks_reject_what_no_sampler_draws(ident, good, key, bad):
    # one parameter moved out of a passing sample fails the one test it breaks
    assert CATALOG[ident].check(good)
    assert not CATALOG[ident].check({**good, key: bad})


@pytest.mark.parametrize("ident, good, key, bad", _Q_REJECTS + _DOMAIN_REJECTS)
def test_q_checks_reject_what_no_sampler_draws(ident, good, key, bad):
    assert CATALOG[ident].check(good)
    assert not CATALOG[ident].check({**good, key: bad})


def test_every_printed_constraint_is_enforced():
    # for each schema bound and constraint an entry prints, some reject case
    # breaks it and no other; every check is built from its schema and
    # constraints, and reads a constraint only inside the bounds, where its
    # pole loops end
    assert set(REFERENCE_CHECKS) == set(CATALOG)
    rejects = _CLASSICAL_REJECTS + _Q_REJECTS + _DOMAIN_REJECTS
    for case in CATALOG.values():
        bounds = {f"{k}: {v}": catalog._checker({k: v}, ()) for k, v in case.schema.items()
                  if v != "complex" and not v.startswith("int ")}
        plain = {k: v if v.startswith("int ") else "complex" for k, v in case.schema.items()}
        single = {c: catalog._checker(plain, (c,))
                  for c in case.constraints if not c.startswith("sampler:")}
        alone = set()
        for ident, good, key, bad in rejects:
            if ident == case.id:
                p = {**good, key: bad}
                broken = ([b for b, check in bounds.items() if not check(p)]
                          or [c for c, check in single.items() if not check(p)])
                alone.update(broken if len(broken) == 1 else ())
        assert alone == {*bounds, *single}, case.id


_OUT_OF_BOUNDS = """
from fractions import Fraction
from hyperid.catalog import CATALOG
from hyperid.harness import sample_parameters
for case in CATALOG.values():
    if "q" in case.schema:
        p = sample_parameters(case, 1, 0)
        bad = [{**p, "q": Fraction(q)} for q in ("1", "3/2", "0", "-1/2")]
        bad += [{**p, k: Fraction(v)} for k, word in case.schema.items() if word == "positive"
                for v in ("0", "-1/2")]
        assert not any(map(case.check, bad)), case.id
"""


def test_q_checks_end_outside_their_bounds():
    # q in {1, 3/2, 0, -1/2} or a parameter <= 0 fails a schema bound before
    # any pole loop, which need not end for q >= 1 or a parameter 0; in a
    # child process, so that a loop that does not end fails by the timeout
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _OUT_OF_BOUNDS], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


_NOTE = re.compile(r"sampler: (?:Re\((.+)\)|(q)) in \((\S+), (\S+)\)")


def test_sampler_notes_hold_on_every_sample():
    # each `sampler:` note, a draw range that no check reads, holds on the
    # samples at seeds 1-3, indices 0-199
    notes = [(case, *_NOTE.fullmatch(c).groups()) for case in CATALOG.values()
             for c in case.constraints if c.startswith("sampler:")]
    assert len(notes) == 9
    for case, form, q, lo, hi in notes:
        terms = re.findall(r"([+-]?)(\w)", form or q)
        for seed in (1, 2, 3):
            for index in range(200):
                p = sample_parameters(case, seed, index)
                value = sum(Fraction(p[k].real) * (-1 if sign == "-" else 1) for sign, k in terms)
                assert Fraction(lo) < value < Fraction(hi), (case.id, seed, index)


def _pole_moves(case, p):
    """p with one parameter of power +-1 in one monomial of a pole constraint
    moved so that the monomial is q^-i (q^-2i for q^2-poles), i = 0, 1, 2."""
    factors = {**p, "q^n": p["q"] ** p.get("n", 0)}
    for text in case.constraints:
        g = catalog._CONSTRAINT.fullmatch(text)
        if g and g["poles"]:
            e = 2 if g["poles"] == "q^2" else 1
            for item in g["items"].split(", "):
                ups, downs = catalog._monomial(item)
                value = prod(map(factors.get, ups)) / prod(map(factors.get, downs))
                for x in {*ups, *downs} - {"q", "q^n"}:
                    power = ups.count(x) - downs.count(x)
                    if abs(power) == 1:
                        yield from ({**p, x: p[x] * (p["q"] ** (-e * i) / value) ** power}
                                    for i in range(3))


def test_built_checks_decide_as_the_reference_checks():
    # every candidate the rejection loop draws at seeds 1-3, indices 0-199,
    # every reject case and, for q entries, the first ten samples with each
    # monomial of each pole constraint moved onto a pole: the check built
    # from the constraint strings decides as the check written out by hand
    rejects = _CLASSICAL_REJECTS + _Q_REJECTS
    for ident, reference in REFERENCE_CHECKS.items():
        case = CATALOG[ident]
        inputs = [p for i, good, key, bad in rejects if i == ident
                  for p in (good, {**good, key: bad})]
        for seed in (1, 2, 3):
            for index in range(200):
                rng = rng_for(seed, ident, index)
                for _ in range(REJECTION_CAP):
                    inputs.append(case.sampler(rng, index))
                    if reference(inputs[-1]):
                        break
        if "q" in case.schema:
            inputs += [m for index in range(10)
                       for m in _pole_moves(case, sample_parameters(case, 1, index))]
        assert [case.check(p) for p in inputs] == [reference(p) for p in inputs], ident
        assert not all(map(case.check, inputs))


def test_gauss_2f1_examples(ctx30):
    l, r = _sides("gauss-2f1", {"a": Fraction(1), "b": Fraction(1), "c": Fraction(3)}, ctx30)
    with ctx30.working():
        assert abs(l.value - 2) < mpf(10) ** -27
        assert abs(r.value - 2) < mpf(10) ** -27
    l, r = _sides("gauss-2f1", {"a": Fraction(0), "b": Fraction(7, 8), "c": Fraction(17, 2)}, ctx30)
    assert l.value == 1
    with ctx30.working():
        assert abs(r.value - 1) < mpf(10) ** -35


def test_gauss_chu_vandermonde(ctx30):
    # b = -n reduces to the finite Chu-Vandermonde sum
    a, c, n = Fraction(5, 8), Fraction(23, 4), 6
    res = sum_unilateral(SeriesSpec((to_mp(a), -n), (to_mp(c),), 1), ctx30)
    with ctx30.working():
        assert abs(res.value - to_mp(chu_vandermonde(a, c, n))) < mpf(10) ** -35


def test_dixon_examples(ctx30):
    # c = 0 terminates immediately: both sides 1
    l, r = _sides("dixon", {"a": Fraction(3, 2), "b": Fraction(-5, 4), "c": Fraction(0)}, ctx30)
    assert l.value == 1
    with ctx30.working():
        assert abs(r.value - 1) < mpf(10) ** -35
    # terminating instance b = -n against the finite sum
    p = {"a": Fraction(5, 2), "b": Fraction(-3), "c": Fraction(-9, 8)}
    l, r = _sides("dixon", p, ctx30)
    with ctx30.working():
        finite = sum(term_stream(
            [p["a"], p["b"], p["c"]],
            [1 + p["a"] - p["b"], 1 + p["a"] - p["c"]],
            Fraction(1), max_k=3,
        ))
        assert abs(l.value - to_mp(finite)) < mpf(10) ** -33
        assert abs(r.value - to_mp(finite)) < abs(r.value) * mpf(10) ** -30
    # generic sample
    p = {"a": Fraction(17, 8), "b": Fraction(-21, 8), "c": Fraction(-13, 8)}
    l, r = _sides("dixon", p, ctx30)
    _assert_close(l, r, ctx30, -25)


def test_theorem1_anchor(ctx40):
    half = Fraction(1, 2)
    p = {"a": half, "b": half, "c": half, "d": half}
    l, r = _sides("theorem-1", p, ctx40)
    with mp.workdps(60):
        target = mpmath.pi**2
        assert abs(l.value - target) < mpf(10) ** -30
        assert abs(r.value - target) < mpf(10) ** -38


def test_theorem1_swap_invariance(ctx30):
    p = {"a": Fraction(3, 8), "b": Fraction(7, 4), "c": Fraction(5, 8), "d": Fraction(9, 8)}
    q = {"a": p["c"], "b": p["d"], "c": p["a"], "d": p["b"]}
    lp, rp = _sides("theorem-1", p, ctx30)
    lq, rq = _sides("theorem-1", q, ctx30)
    with ctx30.working():
        assert abs(lp.value - lq.value) < abs(lp.value) * mpf(10) ** -25
        assert abs(rp.value - rq.value) < abs(rp.value) * mpf(10) ** -30


def test_phi_sum_values(ctx30):
    with ctx30.working():
        half = mpf(1) / 2
        v = phi_sum(half, half, half, half, ctx30)
        assert abs(v.value - mpmath.pi**2 / 2) < mpf(10) ** -28
        assert v.method == "levin"
        # Phi(1,1;1,1) = sum 1/((k+1)(k+2)) = 1
        v2 = phi_sum(1, 1, 1, 1, ctx30)
        assert abs(v2.value - 1) < mpf(10) ** -28
        # symmetry in (a,b) and in (c,d)
        va = phi_sum(mpf("0.75"), mpf("1.5"), mpf("0.5"), mpf("2.25"), ctx30)
        vb = phi_sum(mpf("1.5"), mpf("0.75"), mpf("2.25"), mpf("0.5"), ctx30)
        assert abs(va.value - vb.value) < abs(va.value) * mpf(10) ** -25


def test_phi_via_3f2_prefactor_pole(ctx30):
    with pytest.raises(DomainError, match=r"^prefactor pole: d \(a\+b\+c\+d-1\) = 0$"):
        phi_via_3f2(mpf("0.5"), 0, mpf("0.5"), mpf("0.5"), ctx30)


def test_phi_route_equivalence(ctx30):
    # direct Phi summation vs the 3F2 representation
    with ctx30.working():
        half = mpf(1) / 2
        direct = phi_sum(half, half, half, half, ctx30)
        routed = phi_via_3f2(half, half, half, half, ctx30)
        assert abs(direct.value - routed.value) < 100 * (
            direct.err_estimate + routed.err_estimate
        ) + mpf(10) ** -35
    for idx in range(6):
        p = sample_parameters(CATALOG["phi-as-3f2"], 5, idx)
        l, r = _sides("phi-as-3f2", p, ctx30)
        with ctx30.working():
            assert abs(l.value - r.value) <= 100 * (l.err_estimate + r.err_estimate) + mpf(10) ** -35


def test_h22_split_half_point(ctx30):
    half = Fraction(1, 2)
    p = {"a": half, "b": half, "c": half, "d": half}
    # outside the sampler window but well-defined; both routes must agree
    l = CATALOG["h22-split"].lhs(p, ctx30)
    r = CATALOG["h22-split"].rhs(p, ctx30)
    with mp.workdps(50):
        target = mpmath.pi**2 / 4
        assert abs(l.value - target) < mpf(10) ** -27
        assert abs(r.value - target) < mpf(10) ** -27


def test_h22_split_sample(ctx30):
    p = sample_parameters(CATALOG["h22-split"], 2, 0)
    l, r = _sides("h22-split", p, ctx30)
    _assert_close(l, r, ctx30, -20)


def test_theorem1_b_neg_n_examples(ctx30):
    l, r = _sides("theorem-1-b-neg-n", {"a": Fraction(3, 8), "c": Fraction(5, 8), "d": Fraction(7, 8), "n": 0}, ctx30)
    assert l.value == r.value == 1
    l, r = _sides("theorem-1-b-neg-n", {"a": Fraction(1), "c": Fraction(2), "d": Fraction(3), "n": 1}, ctx30)
    with ctx30.working():
        assert l.value == r.value
        assert abs(l.value - mpf(1) / 3) < mpf(10) ** -38
    l, r = _sides("theorem-1-b-neg-n", {"a": Fraction(21, 16), "c": Fraction(11, 8), "d": Fraction(53, 64), "n": 17}, ctx30)
    assert l.value == r.value and l.err_estimate == 0


def test_theorem1_b_neg_n_matches_saalschuetz(ctx30):
    # parameter mapping onto the balanced terminating sum
    a, c, d, n = Fraction(5, 8), Fraction(9, 8), Fraction(13, 16), 7
    lv, rv = map(fraction_value, exact.phi_symmetric_terminating_sides(a, c, d, n))
    ls, rs = map(fraction_value, exact.saalschuetz_sides(a, a + c + d - 1 - n, a + c - n, n))
    assert lv == ls
    assert rv == rs
    assert not isinstance(lv, tuple)


@pytest.mark.parametrize("a, c, d", [
    (complex(0.625, -0.75), Fraction(9, 8), Fraction(13, 16)),
    (complex(0.625, 0.5), complex(1.125, -0.25), complex(-0.5, 1.75)),
])
def test_theorem1_b_neg_n_matches_saalschuetz_on_gaussian_dyadics(a, c, d):
    # the same mapping with Gaussian dyadic parameters: both entries return
    # equal pairs of int pairs, read as (re, im) pairs of Fractions
    n = 7
    lv, rv = map(fraction_value, exact.phi_symmetric_terminating_sides(a, c, d, n))
    ls, rs = map(fraction_value, exact.saalschuetz_sides(a, a + c + d - 1 - n, a + c - n, n))
    assert lv == ls
    assert rv == rs
    assert isinstance(lv, tuple)


def test_theorem1_ca_db_coherence(ctx30):
    a, b = Fraction(5, 8), Fraction(9, 16)
    p = {"a": a, "b": b}
    l1, r1 = _sides("theorem-1-ca-db", p, ctx30)
    _assert_close(l1, r1, ctx30, -25)
    # against the symmetric identity at (a,b,a,b), through the Phi prefactor
    with ctx30.working():
        am, bm = to_mp(a), to_mp(b)
        pref = gamma_ratio([am, bm, 2 * am + 2 * bm - 1], [2 * am + bm, am + 2 * bm], ctx30)
        l2, r2 = _sides("theorem-1", {"a": a, "b": b, "c": a, "d": b}, ctx30)
        assert abs(l2.value / (2 * pref) - l1.value) < abs(l1.value) * mpf(10) ** -22
        assert abs(r2.value / (2 * pref) - r1.value) < abs(r1.value) * mpf(10) ** -25
    # against the Dixon evaluation at (2a+2b-1, b, a)
    ld, rd = _sides("dixon", {"a": 2 * a + 2 * b - 1, "b": b, "c": a}, ctx30)
    with ctx30.working():
        assert abs(ld.value - l1.value) < abs(l1.value) * mpf(10) ** -22
        assert abs(rd.value - r1.value) < abs(r1.value) * mpf(10) ** -25


def test_substitution_reproduces_nonterminating_saalschuetz(ctx30):
    # replacing (c,d) by (d-a-b, c-a-b) in the combined symmetric-identity
    # display must reproduce the two-term nonterminating evaluation
    for idx in range(3):
        p = sample_parameters(CATALOG["saalschuetz-nt"], 11, idx)
        with ctx30.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            t1s = sum_unilateral(SeriesSpec((a, b, c + d - a - b - 1), (d, c), 1), ctx30)
            g1 = gamma_ratio([a, b, c + d - a - b - 1], [c, d], ctx30)
            t2s = sum_unilateral(SeriesSpec((1, c - b, c - a), (1 + c - a - b, c + d - a - b), 1), ctx30)
            t2 = t2s.value / ((c - a - b) * (c + d - a - b - 1))
            rhsp = gamma_ratio(
                [a, b, d - a - b, c - a - b, c + d - a - b - 1],
                [d - b, c - b, d - a, c - a], ctx30,
            )
            # the substituted display itself
            assert abs(g1 * t1s.value + t2 - rhsp) < abs(rhsp) * mpf(10) ** -16
            # its rearrangement equals the catalog's two-term right side
            cat_rhs = CATALOG["saalschuetz-nt"].rhs(p, ctx30)
            assert abs((rhsp - t2) / g1 - cat_rhs.value) < abs(cat_rhs.value) * mpf(10) ** -16


def test_bailey_e_equals_a_collapses_to_phi65(ctx30):
    qv = Fraction(1, 2)
    a, b, c, d = Fraction(17, 4), Fraction(2), Fraction(7, 4), Fraction(9, 4)
    qc = QContext(qv, ctx30)
    with ctx30.working():
        am, bm, cm, dm, qm = (to_mp(v) for v in (a, b, c, d, qv))
        ra = principal_sqrt(am)
        z = qm * am / (bm * cm * dm)
        psi = QSeriesSpec(
            (qm * ra, -qm * ra, bm, cm, dm, am),
            (ra, -ra, qm * am / bm, qm * am / cm, qm * am / dm, qm),
            z, "psi",
        )
        collapsed = sum_q_series(psi, qc)
    l65, r65 = _sides("phi65", {"a": a, "b": b, "c": c, "d": d, "q": qv}, ctx30)
    with ctx30.working():
        assert abs(collapsed.value - l65.value) < abs(l65.value) * mpf(10) ** -25
        assert abs(collapsed.value - r65.value) < abs(r65.value) * mpf(10) ** -25


def test_phi65_terminating_instance(ctx30):
    # b = q^-n cuts the series; both sides stay finite and equal
    qv = Fraction(1, 2)
    n = 3
    a, c, d = Fraction(17, 4), Fraction(7, 4), Fraction(9, 4)
    qc = QContext(qv, ctx30)
    with ctx30.working():
        am, cm, dm, qm = (to_mp(v) for v in (a, c, d, qv))
        bm = qm**-n
        ra = principal_sqrt(am)
        z = qm * am / (bm * cm * dm)
        spec = QSeriesSpec(
            (am, qm * ra, -qm * ra, bm, cm, dm),
            (ra, -ra, qm * am / bm, qm * am / cm, qm * am / dm),
            z, "phi",
        )
        lhs = sum_q_series(spec, qc)
        rhs = q_bracket(
            [qm * am, qm * am / (bm * cm), qm * am / (bm * dm), qm * am / (cm * dm)],
            [qm * am / bm, qm * am / cm, qm * am / dm, qm * am / (bm * cm * dm)],
            qc,
        )
        assert abs(lhs.value - rhs) < abs(rhs) * mpf(10) ** -30


def test_jackson_8phi7_small_n(ctx30):
    l, r = _sides("jackson-8phi7", {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(1, 2), "n": 0}, ctx30)
    assert l.value == r.value == 1
    l, r = _sides("jackson-8phi7", {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(2, 5), "n": 1}, ctx30)
    assert l.value == r.value
    l, r = _sides("jackson-8phi7", {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(3, 8), "n": 15}, ctx30)
    assert l.value == r.value and l.err_estimate == 0


def test_jackson_8phi7_engine_matches_exact(ctx30):
    # the mp series engine reproduces the exact rational route
    p = {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(1, 2), "n": 4}
    lv, rv = map(fraction_value, exact.jackson_8phi7_sides(*(p[k] for k in "abcdqn")))
    qc = QContext(p["q"], ctx30)
    with ctx30.working():
        a, b, c, d, qm = (to_mp(p[k]) for k in "abcdq")
        n = p["n"]
        ra = principal_sqrt(a)
        big_a = qm ** (1 + n) * a * a / (b * c * d)
        spec = QSeriesSpec(
            (a, qm * ra, -qm * ra, b, c, d, big_a, qm**-n),
            (ra, -ra, qm * a / b, qm * a / c, qm * a / d,
             b * c * d / (a * qm**n), qm ** (1 + n) * a),
            qm, "phi",
        )
        res = sum_q_series(spec, qc)
        assert abs(res.value - to_mp(lv)) < abs(res.value) * mpf(10) ** -30


def test_jackson_nt_sample_and_termination(ctx30):
    # e = 2 sits exactly on q^-1 at q = 1/2 and b = 3/2 makes b^2 = a;
    # these generic values avoid every such coincidence
    p = {"a": Fraction(9, 4), "b": Fraction(25, 16), "c": Fraction(5, 4), "d": Fraction(7, 4), "e": Fraction(17, 8), "q": Fraction(1, 2)}
    assert CATALOG["jackson-nt"].check(p)
    l, r = _sides("jackson-nt", p, ctx30)
    _assert_close(l, r, ctx30, -25)
    # e chosen so the balancing parameter becomes q^-n: the evaluation
    # degenerates to the terminating sum
    n = 2
    a, b, c, d, qv = Fraction(9, 4), Fraction(25, 16), Fraction(5, 4), Fraction(7, 4), Fraction(1, 2)
    e = qv ** (1 + n) * a * a / (b * c * d)
    p2 = {"a": a, "b": b, "c": c, "d": d, "e": e, "q": qv}
    l2, r2 = _sides("jackson-nt", p2, ctx30)
    lv, rv = map(fraction_value, exact.jackson_8phi7_sides(a, b, c, d, qv, n))
    with ctx30.working():
        assert abs(l2.value - to_mp(lv)) < abs(l2.value) * mpf(10) ** -25
        assert abs(r2.value - to_mp(rv)) < abs(r2.value) * mpf(10) ** -25


def test_omega_theta_and_split(ctx30):
    p = {"a": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(3, 2), "e": Fraction(7, 4), "f": Fraction(9, 8), "q": Fraction(1, 2)}
    assert CATALOG["omega"].check(p)
    lo, ro = _sides("omega", p, ctx30)
    _assert_close(lo, ro, ctx30, -25)
    lt, rt = _sides("theta", p, ctx30)
    _assert_close(lt, rt, ctx30, -25)
    ls, rs = _sides("bailey-split", p, ctx30)
    _assert_close(ls, rs, ctx30, -25)
    # three-way: the engine's own bilateral split reproduces raw omega + theta
    qc = QContext(p["q"], ctx30)
    with ctx30.working():
        a, c, d, e, f, qm = (to_mp(p[k]) for k in "acdefq")
        z = qm * a * a / (c * d * e * f)
        big_a = c * d * e * f / a
        ra = principal_sqrt(big_a)
        psi = QSeriesSpec(
            (qm * ra, -qm * ra, c * d * e / a, c * d * f / a, c * e * f / a, d * e * f / a),
            (ra, -ra, qm * f, qm * e, qm * d, qm * c),
            z, "psi",
        )
        engine = sum_q_series(psi, qc)
        assert abs(engine.value - ls.value) < abs(ls.value) * mpf(10) ** -30


def test_theta_prefactor_zero_excluded(ctx30):
    p = {"a": Fraction(3, 2), "c": Fraction(1), "d": Fraction(3, 2), "e": Fraction(7, 4), "f": Fraction(9, 8), "q": Fraction(1, 2)}
    assert not CATALOG["theta"].check(p)
    # a = cdef zeroes the prefactor's denominator: both sides raise a typed error
    p = {"a": Fraction(16), "c": Fraction(2), "d": Fraction(2), "e": Fraction(2), "f": Fraction(2),
         "q": Fraction(1, 2)}
    for side in (CATALOG["theta"].lhs, CATALOG["theta"].rhs):
        with pytest.raises(DomainError, match="^reflected-sum prefactor denominator vanishes$"):
            side(p, ctx30)


def test_exact_sides_called_through_the_module(monkeypatch, ctx30):
    # tracers rebind these attributes of `exact`; the terminating entries
    # must reach the exact layer through them, once per sample
    calls = {}
    for name in ("saalschuetz_sides", "phi_symmetric_terminating_sides", "jackson_8phi7_sides"):
        def counting(*args, _name=name, _original=getattr(exact, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exact, name, counting)
    for ident in ("saalschuetz", "theorem-1-b-neg-n", "jackson-8phi7"):
        p = sample_parameters(CATALOG[ident], 0, 0)
        assert all(isinstance(v, Fraction) for k, v in p.items() if k != "n")
        l, r = _sides(ident, p, ctx30)
        assert l.method == r.method == "terminating" and l.value == r.value
    assert calls == {"saalschuetz_sides": 1, "phi_symmetric_terminating_sides": 1,
                     "jackson_8phi7_sides": 1}


def test_exact_memo_follows_the_sample(monkeypatch, ctx30):
    # the lhs and rhs of one sample, real or complex, share one exact call,
    # and the rhs of a sample right after the lhs of another is its own
    case = CATALOG["saalschuetz"]
    pa, pb, pc = (sample_parameters(case, 0, i) for i in (0, 1, 9))
    assert isinstance(pc["a"], complex)
    calls = []
    original = exact.saalschuetz_sides

    def counting(**p):
        calls.append(p)
        return original(**p)

    monkeypatch.setattr(exact, "saalschuetz_sides", counting)
    values = []
    for p in (pa, pc, pb):
        case.lhs(pa, ctx30)
        values.append(case.rhs(p, ctx30).value)
        assert case.lhs(p, ctx30).value == values[-1]
    assert calls == [pa, pc, pa, pb]
    assert isinstance(values[1], mpmath.mpc) and values[0] != values[2]


def test_negative_control_perturbed_rhs(ctx30):
    case = CATALOG["gauss-2f1"]

    def corrupted_rhs(p, ctx):
        res = case.rhs(p, ctx)
        with ctx.working():
            return SeriesResult(
                res.value * (1 + mpf(10) ** -5), res.err_estimate,
                res.terms_used, res.method,
            )

    broken = replace(case, id="gauss-2f1-broken", rhs=corrupted_rhs)
    params = sample_parameters(case, 0, 0)
    report = verify_one(broken, params, ctx30)
    assert not report.passed
    good = verify_one(case, params, ctx30)
    assert good.passed


def _rule_by_arithmetic(x, y, ctx):
    # the rule's arithmetic, spelled out: what tolerance_rule returns
    with ctx.working():
        diff = abs(x - y)
        rel = diff / abs(y) if y != 0 else diff
        return diff, rel, bool(rel < mpf(10) ** -ctx.digits)


def _same_triple(got, want):
    return all(type(g) is type(w) and (g == w or (g != g and w != w)) for g, w in zip(got, want))


@pytest.mark.parametrize("digits", [30, 60])
def test_tolerance_rule_on_equal_sides_is_its_arithmetic(digits):
    # equal finite sides (mpf, mpc, zero, mixed mpf/mpc) give the arithmetic's
    # zeros and pass; inf == inf and nan sides keep (nan, nan, False)
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        big, tiny = mpf(10) ** 1000, mpf(10) ** -1000
        pairs = [(mpf(1), mpf(1)), (mpf(-2.5), mpf(-2.5)), (big, big), (tiny, tiny),
                 (mpf(1) / 3, mpf(1) / 3), (mpf(0), mpf(0)), (mpc(0, 0), mpc(0, 0)),
                 (mpc(1, -3), mpc(1, -3)), (mpc(0, tiny), mpc(0, tiny)),
                 (mpf(2), mpc(2, 0)), (mpc(2, 0), mpf(2)), (mpf(0), mpc(0, 0)),
                 (mp.inf, mp.inf), (-mp.inf, -mp.inf), (mpc(mp.inf, 1), mpc(mp.inf, 1)),
                 (mp.nan, mp.nan), (mpf(1), mp.nan), (mp.nan, mpf(0)),
                 (mpf(1), mpf(1) + mpf(10) ** -35), (mpf(0), tiny), (mpc(1, 1), mpf(1))]
    for x, y in pairs:
        got = tolerance_rule(SeriesResult(x, 0, 0, "direct"), SeriesResult(y, 0, 0, "direct"), ctx)
        assert _same_triple(got, _rule_by_arithmetic(x, y, ctx)), (x, y, got)
        if x == y and mpmath.isfinite(x):
            assert got == (0, 0, True)
    for x in (mp.inf, mp.nan):
        got = tolerance_rule(SeriesResult(x, 0, 0, "direct"), SeriesResult(x, 0, 0, "direct"), ctx)
        assert mpmath.isnan(got[0]) and mpmath.isnan(got[1]) and got[2] is False


def test_tolerance_rule_checks_every_reported_digit(ctx30):
    with ctx30.working():
        one = mpf(1)

        def side(value, err=mpf(0)):
            return SeriesResult(value, err, 0, "direct")

        # large error estimates no longer buy a pass
        big = mpf(10) ** -25
        assert not tolerance_rule(side(one, big), side(one + mpf(10) ** -24, big), ctx30)[2]
        # a gap of 10^-(digits + 1) relative passes, one of 10^-digits fails
        # (10^31 + 1 and 10^30 + 1 are exact at working precision)
        for exp, ok in ((31, True), (30, False)):
            scale = mpf(10) ** exp
            diff, rel, passed = tolerance_rule(side(scale + 1), side(scale), ctx30)
            assert passed is ok and diff == 1 and rel == 1 / scale
        # against rhs = 0 the absolute difference decides
        for gap, ok in ((mpf(10) ** -31, True), (mpf(10) ** -30, False)):
            diff, rel, passed = tolerance_rule(side(2 * gap), side(mpf(0)), ctx30)
            assert passed is ok and diff == rel == 2 * gap
