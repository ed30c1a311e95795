"""The raw libmp term streams of both engines, and `partial_sum` over them,
against the mp-operator loops of `oracles`: every term and every field of
the sum carries the same bits and type, and a pole raises the same error."""

from fractions import Fraction
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from hyperid.precision import to_mp
from hyperid.qseries import q_ratio_terms
from hyperid.series import partial_sum, ratio_terms

import oracles

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
_TERMS = 40  # terms compared per stream

_REAL = st.fractions(-3, 3, max_denominator=12)
# a complex value is drawn as its (re, im) pair of Fractions
_SCALAR = st.one_of(_REAL, st.tuples(_REAL, _REAL))
_PARAMS = st.lists(_SCALAR, max_size=3)
_Q = st.one_of(st.fractions(-1, 1, max_denominator=12),
               st.tuples(st.fractions(-1, 1, max_denominator=8), st.fractions(-1, 1, max_denominator=8)))
_PREC = st.sampled_from([53, 100, 167])
_MAX_K = st.sampled_from([None, 0, 1, 7])
_SPLIT = st.integers(1, 12)  # terms summed before the resumed call
_SMALL = st.booleans()  # the small-term rule on (stop_eps = 2^-prec) or off (0)


def _mp(v):
    return mpc(to_mp(v[0]), to_mp(v[1])) if isinstance(v, tuple) else to_mp(v)


def _bits(v):
    """The raw libmp value of an mp number; anything else as it is."""
    if hasattr(v, "_mpc_"):
        return v._mpc_
    return v._mpf_ if hasattr(v, "_mpf_") else v


def _terms(stream):
    """The first _TERMS terms as raw values, closed by the (type, message)
    of an exception if the stream raises."""
    out = []
    try:
        out.extend(_bits(t) for t in islice(stream, _TERMS))
    except Exception as e:  # the exception itself is compared
        out.append((type(e), str(e)))
    return out


def _sums(stream, psum, stop_eps, split):
    """Two calls of psum on one stream, the second resuming the first, as
    raw values; or the (type, message) of an exception."""
    try:
        first = psum(stream, stop_eps, split)
        second = psum(stream, stop_eps, split + _TERMS, first[:5])
    except Exception as e:  # the exception itself is compared
        return type(e), str(e)
    return [_bits(v) for v in first + second]


def _check(kernel, reference, split, small):
    stop_eps = mpf(2) ** -mp.prec if small else 0
    assert _terms(kernel()) == _terms(reference())
    assert _sums(kernel(), partial_sum, stop_eps, split) == \
        _sums(reference(), oracles.partial_sum, stop_eps, split)


@_SETTINGS
@given(_PARAMS, _PARAMS, _SCALAR, _PREC, _MAX_K, _SPLIT, _SMALL)
@example([Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 3)], Fraction(2, 3), 100, None, 5, True)
@example([Fraction(1, 3)], [Fraction(5, 3), Fraction(1, 7)], (Fraction(1, 2), Fraction(1, 3)),
         100, None, 5, True)  # complex z
@example([(Fraction(1, 3), Fraction(1))], [Fraction(5, 3), (Fraction(2), Fraction(-1, 3))],
         Fraction(-1, 2), 167, None, 3, False)  # complex parameters, real z
@example([Fraction(1, 2), Fraction(-3)], [Fraction(-2)], Fraction(1), 53, None, 1, False)  # pole
@example([Fraction(1, 3)], [], Fraction(1, 5), 100, 7, 12, False)  # max_k cuts the resumed sum
@example([Fraction(-1)], [], Fraction(1), 53, None, 12, True)  # 1 - 1 + 0 + ...: |total| = 0
# these two tell mpc_mpf_div(x, y) and mpc_div_mpf(x, y) from mpc_div on (x, 0) and (y, 0)
@example([Fraction(-31, 12)], [(Fraction(-4), Fraction(6, 11))], Fraction(-12, 11), 53, None, 1,
         False)
@example([Fraction(4)], [Fraction(7, 3)], (Fraction(-3), Fraction(26)), 167, None, 12, False)
def test_ratio_terms_match_the_mp_loop(ups, lows, z, prec, max_k, split, small):
    with mp.workprec(prec):
        ups, lows, z = [_mp(a) for a in ups], [_mp(b) for b in lows], _mp(z)
        _check(lambda: ratio_terms(ups, lows, z, max_k),
               lambda: oracles.term_stream(ups, lows, z, max_k), split, small)


@_SETTINGS
@given(_PARAMS, _PARAMS, _SCALAR, _Q, st.sampled_from([-1, 0, 1, 2]), _PREC, _MAX_K, _SPLIT,
       _SMALL)
@example([Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 3)], Fraction(2, 3), Fraction(1, 3), 1,
         100, None, 5, True)
@example([Fraction(1, 3)], [Fraction(5, 3)], (Fraction(1, 2), Fraction(1, 3)), Fraction(2, 3), 0,
         100, None, 5, True)  # complex z
@example([(Fraction(1, 3), Fraction(1))], [Fraction(5, 3)], Fraction(-1, 2), Fraction(1, 3), 2,
         167, None, 3, False)  # complex parameters, real z
@example([Fraction(1, 3)], [Fraction(5, 3)], Fraction(1, 2), (Fraction(1, 2), Fraction(1, 4)), -1,
         100, None, 4, True)  # complex q
@example([Fraction(1, 3)], [Fraction(4)], Fraction(1, 2), Fraction(1, 2), 1, 53, None, 1,
         False)  # 1 - 4 q^2 = 0: a pole at k = 2
@example([Fraction(1, 3), Fraction(3)], [], Fraction(1, 5), Fraction(1, 2), -1, 100, 7, 12,
         False)  # max_k cuts the resumed sum
# these two tell mpc_mpf_div(x, y) and mpc_div_mpf(x, y) from mpc_div on (x, 0) and (y, 0)
@example([Fraction(-13, 4), Fraction(-12, 11)], [(Fraction(-31, 9), Fraction(30)), Fraction(27, 11)],
         Fraction(-29, 9), Fraction(-1, 3), 0, 53, None, 1, False)
@example([Fraction(17, 5)], [Fraction(-9, 8), Fraction(-1, 2)], (Fraction(27, 10), Fraction(-11, 2)),
         Fraction(-3, 4), -1, 100, None, 12, False)
def test_q_ratio_terms_match_the_mp_loop(ups, lows, z, q, extra, prec, max_k, split, small):
    with mp.workprec(prec):
        ups, lows, z, q = [_mp(a) for a in ups], [_mp(b) for b in lows], _mp(z), _mp(q)
        _check(lambda: q_ratio_terms(ups, lows, z, q, extra, max_k),
               lambda: oracles.q_term_stream(ups, lows, z, q, extra, max_k), split, small)
