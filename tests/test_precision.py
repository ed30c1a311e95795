from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from hyperid.precision import (
    PrecisionContext,
    exact_int,
    format_value,
    nonpositive_int,
    to_mp,
)


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


def test_to_mp_exact_dyadics():
    with mp.workdps(30):
        assert to_mp(Fraction(3, 8)) == mpf("0.375")
        assert to_mp(complex(0.5, -0.25)) == mpc("0.5", "-0.25")
        assert to_mp(7) == 7
    with pytest.raises(TypeError):
        to_mp(object())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    num=st.one_of(st.integers(-2**300, 2**300), st.sampled_from([0, 1, -1, 2**1000 + 1, -3**700])),
    k=st.integers(0, 400),
    den=st.sampled_from([1, 3, 10, 2**64 + 1]),
    prec=st.sampled_from([53, 136, 233]),
)
def test_to_mp_fraction_rounds_as_the_division(num, k, den, prec):
    # a dyadic Fraction skips the division, bit for bit
    with mp.workprec(prec):
        for v in (Fraction(num, 2**k), Fraction(num, den << k)):
            assert to_mp(v)._mpf_ == (mpf(v.numerator) / mpf(v.denominator))._mpf_


def test_integer_detection():
    with mp.workdps(30):
        assert exact_int(mpf(4)) == 4
        assert exact_int(mpf("4.5")) is None
        assert exact_int(mpc(3, 0)) == 3
        assert exact_int(mpc(3, 1)) is None
        assert exact_int(Fraction(8, 2)) == 4
        assert nonpositive_int(mpf(-7)) == 7
        assert nonpositive_int(mpf(0)) == 0
        assert nonpositive_int(mpf(2)) is None
        assert nonpositive_int(mpf("-6.5")) is None


def test_format_value():
    with mp.workdps(30):
        assert format_value(mpf(2), 10) == "2.0"
        assert format_value(mpc(2, 0), 10) == "2.0"
        s = format_value(mpc(1, -3), 10)
        assert "1.0" in s and "3.0" in s and "-" in s
