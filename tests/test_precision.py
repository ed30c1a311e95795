from fractions import Fraction

import pytest
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
