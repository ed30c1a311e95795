from fractions import Fraction
from itertools import islice
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from hyperid import exact
from hyperid.errors import DivisionByZero, LowerPoleError
from hyperid.precision import to_mp

from oracles import fraction_value, q_term_stream, qpoch, rising, term_stream


# The int kernels of the sides on lists of rationals: a terminating pFq sum,
# a rising bracket over one common denominator and a q-bracket, each
# checking n first, as the sides do, and each value read as a Fraction. The
# three sides are read the same way through `fractions`.

def pfq_terminating(uppers, lowers, z, n):
    exact._check_n(n)
    ups, lows = ([x.as_integer_ratio() for x in xs] for xs in (uppers, lowers))
    return fraction_value(exact._sum(ups, lows, z.as_integer_ratio(), n))


def bracket_n(numers, denoms, n):
    exact._check_n(n)
    xs, d = exact.common([*numers, *denoms])
    return fraction_value(exact._rising_bracket(xs[:len(numers)], xs[len(numers):], d, n))


def qbracket_n(numers, denoms, q, n):
    exact._check_n(n)
    numers, denoms = ([x.as_integer_ratio() for x in xs] for xs in (numers, denoms))
    return fraction_value(exact._qbracket(numers, denoms, q.as_integer_ratio(), n))


def fractions(sides):
    """The exact entry `sides` with both its values read by `fraction_value`."""
    def read(*args):
        return tuple(map(fraction_value, sides(*args)))

    return read


def test_rising_values():
    assert rising(Fraction(1), 4) == 24
    assert rising(Fraction(3), -2) == Fraction(1, 2)
    assert rising(Fraction(5, 2), 0) == 1
    with pytest.raises(DivisionByZero):
        rising(Fraction(2), -3)


def test_pfq_terminating_matches_hand_sum():
    # 3F2(1,2,-1; 5,-2; 1) = 1 + (1*2*(-1))/(1*5*(-2)) = 6/5
    v = pfq_terminating([1, 2, -1], [5, -2], Fraction(1), 1)
    assert v == Fraction(6, 5)


def test_qpoch_negative_and_zero():
    q = Fraction(1, 2)
    assert qpoch(Fraction(3, 4), q, 0) == 1
    # (x;q)_n (x q^n;q)_m == (x;q)_(n+m) across signs
    x = Fraction(-5, 4)
    for n, m in ((3, -2), (-3, 5), (-2, -2)):
        lhs = qpoch(x, q, n + m)
        rhs = qpoch(x, q, n) * qpoch(x * q**n, q, m)
        assert lhs == rhs
    with pytest.raises(DivisionByZero):
        qpoch(Fraction(1, 4), q, -3)


def test_qbracket_n():
    q = Fraction(1, 3)
    v = qbracket_n([Fraction(1, 2)], [Fraction(1, 2)], q, 5)
    assert v == 1
    with pytest.raises(ValueError):
        qbracket_n([Fraction(1, 2)], [Fraction(1, 2)], q, -1)
    with pytest.raises(ValueError):
        bracket_n([Fraction(1, 2)], [Fraction(1, 2)], -1)


def test_jackson_sides_equal_for_range_of_n():
    for n in (0, 1, 2, 5, 9):
        l, r = fractions(exact.jackson_8phi7_sides)(
            Fraction(9, 4), Fraction(5, 4), Fraction(4, 3), Fraction(7, 4), Fraction(2, 5), n
        )
        assert l == r


def test_jackson_sides_at_a_equal_one():
    b, c, d, q = Fraction(5, 4), Fraction(4, 3), Fraction(7, 4), Fraction(2, 5)
    assert fractions(exact.jackson_8phi7_sides)(Fraction(1), b, c, d, q, 0) == (1, 1)
    with pytest.raises(DivisionByZero):
        exact.jackson_8phi7_sides(Fraction(1), b, c, d, q, 1)


def test_jackson_sides_reject_zero_parameters():
    # a = 0 or b c d = 0 zeroes a denominator of the parameter set-up, and
    # q = 0 one of q^-n for n >= 1
    b, c, d, q, n = Fraction(9, 4), Fraction(43, 2), Fraction(60), Fraction(-4, 5), 12
    for args in ((0, b, c, d), (b, 0, c, d), (b, c, 0, d), (b, c, d, 0)):
        with pytest.raises(DivisionByZero, match="nonzero a, b, c and d"):
            exact.jackson_8phi7_sides(*args, q, n)
    with pytest.raises(DivisionByZero, match="q != 0"):
        exact.jackson_8phi7_sides(b, b, c, d, 0, n)
    assert fractions(exact.jackson_8phi7_sides)(b, b, c, d, 0, 0) == (1, 1)


_ONE, _HALF = Fraction(1), Fraction(1, 2)


@pytest.mark.parametrize("entry, args", [
    (pfq_terminating, ([1], [2], _ONE)),
    (bracket_n, ([_HALF], [_ONE])),
    (qbracket_n, ([_HALF], [_ONE], _HALF)),
    (exact.saalschuetz_sides, (_HALF, _HALF, _ONE)),
    (exact.phi_symmetric_terminating_sides, (_HALF, _HALF, _HALF)),
    (exact.jackson_8phi7_sides, (_ONE, Fraction(5, 4), Fraction(4, 3), Fraction(7, 4), _HALF)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_every_exact_entry_rejects_a_negative_n(entry, args):
    # checked before any parameter algebra, so that jackson at a = 1 cannot
    # end in a bare ZeroDivisionError nor pfq_terminating sum no terms to 1
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"needs n >= 0, not {n}"):
            entry(*args, n)


def test_streams_keep_the_arithmetic_of_their_inputs():
    ups, lows = [Fraction(1, 2), Fraction(3, 4)], [Fraction(5, 4)]
    z, q = Fraction(1, 3), Fraction(1, 2)
    exact_terms = list(islice(term_stream(ups, lows, z), 8))
    exact_terms += islice(q_term_stream(ups, lows, z, q, 1), 8)
    assert all(type(t) is Fraction for t in exact_terms)
    with mp.workdps(40):
        ups, lows, z, q = [to_mp(u) for u in ups], [to_mp(b) for b in lows], to_mp(z), to_mp(q)
        mp_terms = list(islice(term_stream(ups, lows, z), 8))
        mp_terms += islice(q_term_stream(ups, lows, z, q, 1), 8)
        for e, f in zip(exact_terms, mp_terms):
            assert abs(f - to_mp(e)) <= abs(f) * mpf(10) ** -38


# The integer kernels, through pfq_terminating, bracket_n, qbracket_n and the
# three exact sides, against sums and products of the Fraction reference
# streams and Pochhammer symbols of `oracles`: equal values, or the same
# exception and message.

_RAT = st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=8)).map(Fraction)
_NONZERO = _RAT.filter(bool)
_Q = st.fractions(-2, 2, max_denominator=8).filter(bool)
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:  # the exception itself is compared
        return type(e), str(e)


def _bracket_reference(numers, denoms, poch, message):
    den = prod(poch(y) for y in denoms)
    if den == 0:
        raise DivisionByZero(message)
    return prod(poch(x) for x in numers) / den


_PRODUCT_MESSAGE = "exact product side vanishes in the denominator"


def _saalschuetz_reference(a, b, c, n):
    lhs = sum(term_stream([a, b, -n], [c, 1 + a + b - c - n], Fraction(1), max_k=n))
    rhs = _bracket_reference([c - a, c - b], [c, c - a - b], lambda x: rising(x, n),
                             _PRODUCT_MESSAGE)
    return lhs, rhs


def _phi_terminating_reference(a, c, d, n):
    lhs = sum(term_stream([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n], Fraction(1), max_k=n))
    rhs = _bracket_reference([1 - c, 1 - d], [1 - a - c, 1 - a - d], lambda x: rising(x, n),
                             _PRODUCT_MESSAGE)
    return lhs, rhs


def _jackson_reference(a, b, c, d, q, n):
    if a == 1 and n >= 1:
        raise DivisionByZero("exact 8phi7 very-well-poised factor needs a != 1")
    big_a = q ** (1 + n) * a**2 / (b * c * d)
    low_b = b * c * d / (a * q**n)
    low_c = q ** (1 + n) * a
    terms = q_term_stream(
        [a, b, c, d, big_a, q**-n], [q * a / b, q * a / c, q * a / d, low_b, low_c],
        q, q, 0, max_k=n,
    )
    lhs = next(terms) + sum(t * (1 - a * q ** (2 * k)) / (1 - a) for k, t in enumerate(terms, 1))
    rhs = _bracket_reference(
        [q * a, q * a / (b * c), q * a / (b * d), q * a / (c * d)],
        [q * a / b, q * a / c, q * a / d, q * a / (b * c * d)],
        lambda x: qpoch(x, q, n), "exact q-bracket denominator vanishes",
    )
    return lhs, rhs


@_SETTINGS
@given(st.lists(_RAT, max_size=3), st.lists(_RAT, max_size=3), _RAT, st.integers(0, 30))
@example([Fraction(1, 2), Fraction(-3)], [Fraction(-4)], Fraction(1), 8)  # pole at k = 4
@example([Fraction(1)], [Fraction(0)], Fraction(1), 3)  # pole at k = 0
@example([Fraction(-5, 2), Fraction(-7)], [Fraction(-9, 4)], Fraction(-3, 8), 30)
def test_pfq_terminating_matches_the_term_stream(ups, lows, z, n):
    reference = _outcome(lambda: sum(term_stream(ups, lows, z, max_k=n)))
    assert _outcome(pfq_terminating, ups, lows, z, n) == reference


@_SETTINGS
@given(st.lists(_RAT, max_size=4), st.lists(_RAT, max_size=4), st.integers(0, 30))
@example([Fraction(5, 2)], [Fraction(-3, 1), Fraction(1, 2)], 6)  # (-3)_6 = 0
def test_bracket_n_matches_rising(numers, denoms, n):
    reference = _outcome(_bracket_reference, numers, denoms, lambda x: rising(x, n),
                         _PRODUCT_MESSAGE)
    assert _outcome(bracket_n, numers, denoms, n) == reference


@_SETTINGS
@given(st.data(), _Q, st.integers(0, 30))
def test_qbracket_n_matches_qpoch(data, q, n):
    # y = q^-i makes (y;q)_n vanish for n > i
    params = st.lists(st.one_of(_RAT, st.integers(0, 30).map(lambda i: q**-i)), max_size=4)
    numers, denoms = data.draw(params), data.draw(params)
    reference = _outcome(_bracket_reference, numers, denoms, lambda x: qpoch(x, q, n),
                         "exact q-bracket denominator vanishes")
    assert _outcome(qbracket_n, numers, denoms, q, n) == reference


@_SETTINGS
@given(st.data(), _Q, _NONZERO, _NONZERO, _NONZERO, st.integers(0, 30))
def test_jackson_8phi7_sides_match_the_q_term_stream(data, q, b, c, d, n):
    # a = q^-2j puts a zero on the very-well-poised weight of term j (a = 1 at j = 0)
    a = data.draw(st.one_of(_NONZERO, st.integers(0, 4).map(lambda j: q ** (-2 * j))))
    reference = _outcome(_jackson_reference, a, b, c, d, q, n)
    assert _outcome(fractions(exact.jackson_8phi7_sides), a, b, c, d, q, n) == reference


_SHIFT = st.integers(-30, 30)


@_SETTINGS
@given(st.data(), _RAT, _RAT, st.integers(0, 30))
def test_saalschuetz_sides_match_the_term_stream(data, a, b, n):
    # c = -j or 1 + a + b - c - n = -j puts a lower parameter on a pole;
    # c - a - b = -j zeroes the bracket's denominator, c - a = -j its numerator
    c = data.draw(st.one_of(_RAT, _SHIFT.map(Fraction), _SHIFT.map(lambda j: a + b + j),
                            _SHIFT.map(lambda j: a + j), _SHIFT.map(lambda j: 1 + a + b - n + j)))
    reference = _outcome(_saalschuetz_reference, a, b, c, n)
    assert _outcome(fractions(exact.saalschuetz_sides), a, b, c, n) == reference


@_SETTINGS
@given(st.data(), _RAT, st.integers(0, 30))
def test_phi_symmetric_terminating_sides_match_the_term_stream(data, a, n):
    # an integer a + c puts a + c - n on a pole or zeroes 1 - a - c in the
    # bracket's denominator; an integer c >= 1 zeroes 1 - c in its numerator
    def param():
        return data.draw(st.one_of(_RAT, _SHIFT.map(lambda j: j - a), _SHIFT.map(Fraction)))

    c, d = param(), param()
    reference = _outcome(_phi_terminating_reference, a, c, d, n)
    assert _outcome(fractions(exact.phi_symmetric_terminating_sides), a, c, d, n) == reference


# The same two sides on Gaussian dyadics, the sampled complex parameters,
# mixed with dyadic Fractions: the two must be equal (an (re, im) pair for
# n >= 1), the rhs must match mpmath's Pochhammer ratio, and a lower
# parameter on a pole below n must raise at its first k. The draws put lower
# parameters on poles and zeros in the brackets as above.

_SIXTEENTHS = st.integers(-64, 64)
_DYADIC = _SIXTEENTHS.map(lambda i: Fraction(i, 16))
_GAUSS = st.builds(complex, *[_SIXTEENTHS.map(lambda i: i / 16)] * 2)


def _check_gaussian_sides(sides, args, lows, numers, denoms, n):
    outcome = _outcome(fractions(sides), *args, n)
    pole = next((k for k in range(n) for y in lows if y + k == 0), None)
    if pole is not None:
        assert outcome == (LowerPoleError, f"denominator parameter reaches a pole at k = {pole}")
        return
    lhs, rhs = outcome
    assert lhs == rhs and isinstance(rhs, tuple) == (n > 0)
    with mp.workdps(50):
        ratio = prod(mp.rf(to_mp(x), n) for x in numers) / prod(mp.rf(to_mp(y), n) for y in denoms)
        value = mp.mpc(*map(to_mp, rhs)) if n else to_mp(rhs)
        assert abs(value - ratio) <= abs(ratio) * mpf(10) ** -45


@_SETTINGS
@given(st.data(), _GAUSS, _GAUSS, st.integers(0, 30))
def test_saalschuetz_sides_on_gaussian_dyadics(data, a, b, n):
    c = data.draw(st.one_of(_DYADIC, _GAUSS, _SHIFT.map(Fraction), _SHIFT.map(lambda j: a + b + j),
                            _SHIFT.map(lambda j: a + j), _SHIFT.map(lambda j: 1 + a + b - n + j)))
    _check_gaussian_sides(exact.saalschuetz_sides, (a, b, c), [c, 1 + a + b - c - n],
                          [c - a, c - b], [c, c - a - b], n)


@_SETTINGS
@given(st.data(), _GAUSS, st.integers(0, 30))
def test_phi_symmetric_terminating_sides_on_gaussian_dyadics(data, a, n):
    def param():
        return data.draw(st.one_of(_DYADIC, _GAUSS, _SHIFT.map(lambda j: j - a),
                                   _SHIFT.map(Fraction)))

    c, d = param(), param()
    _check_gaussian_sides(exact.phi_symmetric_terminating_sides, (a, c, d),
                          [a + c - n, a + d - n], [1 - c, 1 - d], [1 - a - c, 1 - a - d], n)
