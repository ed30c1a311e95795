from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec

from hyperid import precision
from hyperid.errors import CancellationError
from hyperid.precision import PrecisionContext, format_value, pow10, rounded, to_mp
from hyperid.qseries import QContext, QSeriesSpec, sum_q_series
from hyperid.series import Gauss


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(digits=5)
    with pytest.raises(ValueError):
        PrecisionContext(max_terms=10)
    assert PrecisionContext(digits=25).dps == 35


def test_working_precision_scoping():
    ctx = PrecisionContext(digits=30)
    outer = mp.dps
    with ctx.working():
        assert mp.dps == 40
    assert mp.dps == outer
    # mp.prec set directly to the held precision holds mp.dps too, since
    # dps -> prec -> dps round-trips: the entry installs nothing
    for digits in range(10, 1000):
        with mp.workprec(dps_to_prec(digits + 10)):
            assert mp.dps == digits + 10
            assert PrecisionContext(digits=digits).working() is precision._HELD


def test_nested_working_precision_holds_and_raised_passes_restore(monkeypatch):
    # an entry at the precision already held installs nothing; an entry at
    # another one, as a raised pass makes, restores the held one on exit,
    # also when it exits through an exception
    ctx, outer = PrecisionContext(digits=30), mp.dps
    with ctx.working():
        held = mp.prec
        entries = []
        workdps = mp.workdps
        monkeypatch.setattr(mp, "workdps", lambda n: entries.append(n) or workdps(n))
        with ctx.working():
            assert (mp.prec, mp.dps) == (held, 40)
            with PrecisionContext(digits=70).working():
                assert mp.dps == 80
            assert (mp.prec, mp.dps) == (held, 40)
            with pytest.raises(ZeroDivisionError):
                with PrecisionContext(digits=70).working():
                    1 / mpf(0)
            assert (mp.prec, mp.dps) == (held, 40)
        assert entries == [80, 80]
        monkeypatch.undo()
        # 8phi0's sum is exactly 0: its raised passes end in CancellationError
        with pytest.raises(CancellationError):
            sum_q_series(QSeriesSpec((8,), (), Fraction(1, 2), "phi"), QContext(Fraction(-1, 2), ctx))
        assert (mp.prec, mp.dps) == (held, 40)
    assert mp.dps == outer


def test_to_mp_exact_dyadics():
    with mp.workdps(30):
        assert to_mp(Fraction(3, 8)) == mpf("0.375")
        assert to_mp(complex(0.5, -0.25)) == mpc("0.5", "-0.25")
        assert to_mp(7) == 7
    with pytest.raises(TypeError):
        to_mp(object())


def _rounded(v, prec):
    """The Fraction v rounded to prec bits, ties to even, as a Fraction."""
    if not v:
        return v
    e = v.numerator.bit_length() - v.denominator.bit_length() - prec
    m = abs(v) / Fraction(2) ** e
    while m >= 2**prec:
        m, e = m / 2, e + 1
    while m < 2 ** (prec - 1):
        m, e = m * 2, e - 1
    return (1 if v > 0 else -1) * round(m) * Fraction(2) ** e


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    num=st.one_of(st.integers(-2**300, 2**300), st.sampled_from([0, 1, -1, 2**1000 + 1, -3**700])),
    k=st.integers(0, 400),
    den=st.sampled_from([1, 3, 10, 2**64 + 1]),
    prec=st.sampled_from([53, 136, 233]),
)
# 2^54 + 1 rounded to 53 bits before the division by 3 would give 2^54 / 3
@example(num=2**54 + 1, k=0, den=3, prec=53)
def test_to_mp_fraction_rounds_as_the_division(num, k, den, prec):
    # the exact quotient rounded once to the nearest, ties to even, for a
    # dyadic Fraction and any other
    with mp.workprec(prec):
        for v in (Fraction(num, 2**k), Fraction(num, den << k)):
            sign, man, exp, _ = to_mp(v)._mpf_
            assert (-1) ** sign * man * Fraction(2) ** exp == _rounded(v, prec)


_BIG = st.one_of(st.integers(-2**40, 2**40), st.integers(-2**900, 2**900))
_GAUSS = st.builds(lambda re, im: Gauss((re, im)), _BIG, _BIG)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_BIG, _GAUSS),
       st.one_of(st.just(1), st.just(Gauss((1, 0))), _BIG, _GAUSS).filter(bool),
       st.one_of(st.just(0), st.integers(-1100, 1100)), st.integers(53, 400))
# a Gaussian d of norm 1 takes the d == 1 path once divided out
@example(n=3, d=Gauss((0, -1)), e=-2, prec=53)
def test_rounded_is_each_exact_part_rounded_once(n, d, e, prec):
    # each part of n 2^e / d, denominators of either sign, real or Gaussian,
    # rounds bit for bit as to_mp rounds its reduced Fraction, and as the
    # Fraction reference does; an mpc exactly when n or d is a pair
    (a, b), (c, f) = (x if isinstance(x, tuple) else (x, 0) for x in (n, d))
    scale = Fraction(2) ** e / (c * c + f * f)
    parts = (a * c + b * f) * scale, (b * c - a * f) * scale
    with mp.workprec(prec):
        v = rounded(n, d, e)
        pair = isinstance(n, tuple) or isinstance(d, tuple)
        assert type(v) is (mpc if pair else mpf)
        got = v._mpc_ if pair else (v._mpf_,)
        for raw, part in zip(got, parts):
            assert raw == to_mp(part)._mpf_
            sign, man, exp, _ = raw
            assert (-1) ** sign * man * Fraction(2) ** exp == _rounded(part, prec)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-250, 250), st.sampled_from([53, 136, 233])),
                min_size=1, max_size=12))
def test_pow10_is_the_power_bit_for_bit(reads):
    # each read, the first and the cached second, at its own precision,
    # whatever precisions came before it
    precision._pow10.cache_clear()
    for n, prec in reads + reads:
        with mp.workprec(prec):
            assert pow10(n)._mpf_ == (mpf(10) ** n)._mpf_
            assert PrecisionContext(digits=n % 50 + 10).eps() is pow10(-(n % 50 + 20))


def _nstr_form(v, digits):
    # format_value's contract in mpmath.nstr: the real part, and a nonzero
    # imaginary part with its sign moved in front of it
    if isinstance(v, mpc) and v.imag:
        im = mpmath.nstr(v.imag, digits)
        sign, im = ("-", im[1:]) if im.startswith("-") else ("+", im)
        return f"{mpmath.nstr(v.real, digits)} {sign} {im}j"
    return mpmath.nstr(v.real, digits)


def _near_powers_of_ten(prec):
    # 10^k rounded to prec bits and its two neighbours at that precision
    out = []
    for k in (-1000, -61, -31, -16, -1, 0, 1, 15, 16, 30, 31, 60, 61, 1000):
        with mp.workprec(prec):
            t = mpf(10) ** k
        man, exp = t.man, t.exp
        shift = prec - man.bit_length()
        with mp.workprec(prec):
            out += [mpf(((man << shift) + d, exp - shift)) for d in (-1, 0, 1)]
    return out


@pytest.mark.parametrize("digits", [15, 30, 60])
def test_format_value_is_nstr(digits):
    values = [mpf(0), mpf(1), mpf(-1), mpf(2), mpf("-0.1"), mpf(1) / 3, -mpf(2) / 3,
              mpf(2) ** 3321, -mpf(2) ** -3321, mp.inf, -mp.inf, mp.nan]
    for prec in (53, 113, 233):
        with mp.workprec(prec):
            values += [mpf(10) ** 1000 / 7, -mpf(10) ** -1000 * 3, mpf(1) - mpf(10) ** -digits / 2]
        values += _near_powers_of_ten(prec)
    with mp.workprec(300):  # exact, so the parts keep their precision
        values += [mpc(v, 0) for v in values[:12]] + [mpc(0, v) for v in values[:12]]
        values += [mpc(v, w) for v, w in zip(values[:40], values[40:80])]
    for v in values:
        assert format_value(v, digits) == _nstr_form(v, digits), (v, digits)
    for v in values[:40]:
        assert format_value(v, digits) == mpmath.nstr(v, digits)


def test_format_value():
    with mp.workdps(30):
        assert format_value(mpf(2), 10) == "2.0"
        assert format_value(mpc(2, 0), 10) == "2.0"
        s = format_value(mpc(1, -3), 10)
        assert "1.0" in s and "3.0" in s and "-" in s
