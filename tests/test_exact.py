from fractions import Fraction
from itertools import islice

import pytest
from mpmath import mp, mpf

from hyperid import exact
from hyperid.errors import DivisionByZero
from hyperid.precision import to_mp


def test_rising_values():
    assert exact.rising(Fraction(1), 4) == 24
    assert exact.rising(Fraction(3), -2) == Fraction(1, 2)
    assert exact.rising(Fraction(5, 2), 0) == 1
    with pytest.raises(DivisionByZero):
        exact.rising(Fraction(2), -3)


def test_pfq_terminating_matches_hand_sum():
    # 3F2(1,2,-1; 5,-2; 1) = 1 + (1*2*(-1))/(1*5*(-2)) = 6/5
    v = exact.pfq_terminating([1, 2, -1], [5, -2], Fraction(1), 1)
    assert v == Fraction(6, 5)


def test_qpoch_negative_and_zero():
    q = Fraction(1, 2)
    assert exact.qpoch(Fraction(3, 4), q, 0) == 1
    # (x;q)_n (x q^n;q)_m == (x;q)_(n+m) across signs
    x = Fraction(-5, 4)
    for n, m in ((3, -2), (-3, 5), (-2, -2)):
        lhs = exact.qpoch(x, q, n + m)
        rhs = exact.qpoch(x, q, n) * exact.qpoch(x * q**n, q, m)
        assert lhs == rhs
    with pytest.raises(DivisionByZero):
        exact.qpoch(Fraction(1, 4), q, -3)


def test_qbracket_n():
    q = Fraction(1, 3)
    v = exact.qbracket_n([Fraction(1, 2)], [Fraction(1, 2)], q, 5)
    assert v == 1


def test_jackson_sides_equal_for_range_of_n():
    for n in (0, 1, 2, 5, 9):
        l, r = exact.jackson_8phi7_sides(
            Fraction(9, 4), Fraction(5, 4), Fraction(4, 3), Fraction(7, 4), Fraction(2, 5), n
        )
        assert l == r


def test_jackson_sides_at_a_equal_one():
    b, c, d, q = Fraction(5, 4), Fraction(4, 3), Fraction(7, 4), Fraction(2, 5)
    assert exact.jackson_8phi7_sides(Fraction(1), b, c, d, q, 0) == (1, 1)
    with pytest.raises(DivisionByZero):
        exact.jackson_8phi7_sides(Fraction(1), b, c, d, q, 1)


def test_streams_keep_the_arithmetic_of_their_inputs():
    ups, lows = [Fraction(1, 2), Fraction(3, 4)], [Fraction(5, 4)]
    z, q = Fraction(1, 3), Fraction(1, 2)
    exact_terms = list(islice(exact.term_stream(ups, lows, z), 8))
    exact_terms += islice(exact.q_term_stream(ups, lows, z, q, 1), 8)
    assert all(type(t) is Fraction for t in exact_terms)
    with mp.workdps(40):
        ups, lows, z, q = [to_mp(u) for u in ups], [to_mp(b) for b in lows], to_mp(z), to_mp(q)
        mp_terms = list(islice(exact.term_stream(ups, lows, z), 8))
        mp_terms += islice(exact.q_term_stream(ups, lows, z, q, 1), 8)
        for e, f in zip(exact_terms, mp_terms):
            assert abs(f - to_mp(e)) <= abs(f) * mpf(10) ** -38
