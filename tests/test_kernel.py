"""The fixed-point term streams of both engines, and `partial_sum` over them,
against the mp-operator loops of `oracles` at twice the precision: every term
and every partial sum lies within the rounding bound that the kernel states
(`series.fixed_terms`, `qseries.q_ratio_terms`), the sums stop after the same
terms, and a pole raises the same error after the same terms. The streams
also equal, bit for bit, the kernel's loop in its list form
(`oracles.list_ratio_terms`, `oracles.list_q_ratio_terms`), which
multiplies out the ratio's lists of factors on every term."""

from fractions import Fraction
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, sqrt

from hyperid.precision import fixed_prec, to_mp
from hyperid.qseries import q_ratio_terms
from hyperid.series import Gauss, fixed_terms, from_fixed, partial_sum, ratio_terms

import oracles

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
_TERMS = 40  # limit of the second call
_EXACT_TERMS = 200  # terms compared with the list form

_REAL = st.fractions(-3, 3, max_denominator=12)
# a complex value is drawn as its (re, im) pair of Fractions
_SCALAR = st.one_of(_REAL, st.tuples(_REAL, _REAL))
_PARAMS = st.lists(_SCALAR, max_size=3)
_Q = st.one_of(st.fractions(-1, 1, max_denominator=12),
               st.tuples(st.fractions(-1, 1, max_denominator=8), st.fractions(-1, 1, max_denominator=8)))
_PREC = st.sampled_from([53, 100, 167])
_MAX_K = st.sampled_from([None, 0, 1, 7])
_SPLIT = st.integers(1, 12)  # limit of the first call
_SMALL = st.booleans()  # the small-term rule on (stop_eps = 2^-prec) or off (0)


def _mp(v):
    return mpc(to_mp(v[0]), to_mp(v[1])) if isinstance(v, tuple) else to_mp(v)


def _is_complex(*values):
    return any(isinstance(v, mpc) for v in values)


def _stream(stream, convert, n):
    """The first n terms through convert, and the (type, message) of the
    exception that ended the stream, or None."""
    out = []
    try:
        out.extend(map(convert, islice(stream, n)))
    except Exception as e:  # the exception itself is compared
        return out, (type(e), str(e))
    return out, None


def _sums(stream, psum, stop_eps, split):
    """Two calls of psum, the second going on along the stream where the
    first stopped; or the (type, message) of an exception."""
    try:
        return psum(stream, stop_eps, split), psum(stream, stop_eps, _TERMS)
    except Exception as e:  # the exception itself is compared
        return type(e), str(e)


def _check(kernel, list_form, reference, relative_bounds, cplx, split, small):
    """Compare a kernel stream with its list form, pair for pair and error
    for error, and with its reference at twice the precision.

    relative_bounds(n) gives, for k < n, the bound on the relative error of
    the kernel's kept term t_k; a yielded term adds half a unit 2^-W to each
    part. The reference's own rounding is allowed for by 2^-(2 prec - 8)
    times |t_k| per term.
    """
    prec = mp.prec
    stop_eps = mpf(2) ** -prec if small else 0
    wp = fixed_prec()
    assert _stream(kernel(), oracles.pair, _EXACT_TERMS) == _stream(list_form(), tuple, _EXACT_TERMS)
    # an int when real, a Gauss when complex (t_0 = 1 comes before the first step)
    kinds = {type(t) for t in _stream(kernel(), lambda t: t, _EXACT_TERMS)[0][1:]}
    assert kinds <= {Gauss if cplx else int}
    # as many terms as the two sums below can use
    terms, error = _stream(kernel(), from_fixed, split + _TERMS)
    with mp.workprec(2 * prec):
        half_unit = (sqrt(2) if cplx else 1) * mpf(2) ** -(wp + 1)
        exact, ref_error = _stream(reference(), lambda t: +t, split + _TERMS)
        assert error == ref_error and len(terms) == len(exact)
        slack = mpf(2) ** (8 - 2 * prec)
        bound = [abs(t) * (r + slack) + half_unit
                 for t, r in zip(exact, relative_bounds(len(exact)))]
        for k, (t, ref) in enumerate(zip(terms, exact)):
            assert abs(t - ref) <= bound[k], k
    sums = _sums(kernel(), lambda *args: oracles.mp_sum(partial_sum(*args)), stop_eps, split)
    with mp.workprec(2 * prec):
        ref_sums = _sums(reference(), oracles.partial_sum, stop_eps, split)
        if not isinstance(sums[0], tuple):  # both raised
            assert sums == ref_sums
            return
        offset = 0  # terms the first call used
        for got, ref in zip(sums, ref_sums):
            total, peak, used, last, prev, settled = got
            assert (used, settled) == (ref[2], ref[5])
            own = bound[offset:offset + used]
            assert abs(total - ref[0]) <= sum(own)
            assert last is ref[3] is None or abs(last - ref[3]) <= own[-1]
            assert prev is ref[4] is None or abs(prev - ref[4]) <= own[-2]
            # peak is rounded to the working precision
            assert abs(peak - ref[1]) <= max(own, default=0) + ref[1] * 2 ** (1 - prec)
            offset += used


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
@example([Fraction(-31, 12)], [(Fraction(-4), Fraction(6, 11))], Fraction(-12, 11), 53, None, 1,
         False)
@example([Fraction(4)], [Fraction(7, 3)], (Fraction(-3), Fraction(26)), 167, None, 12, False)
def test_ratio_terms_within_the_stated_bound(ups, lows, z, prec, max_k, split, small):
    with mp.workprec(prec):
        ups, lows, z = [_mp(a) for a in ups], [_mp(b) for b in lows], _mp(z)
        cplx = _is_complex(*ups, *lows, z)
        _check(lambda: ratio_terms(ups, lows, z, max_k),
               lambda: oracles.list_ratio_terms(ups, lows, z, max_k),
               lambda: oracles.term_stream(ups, lows, z, max_k), oracles.ratio_stream_bounds(cplx), cplx,
               split, small)


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
@example([Fraction(-13, 4), Fraction(-12, 11)], [(Fraction(-31, 9), Fraction(30)), Fraction(27, 11)],
         Fraction(-29, 9), Fraction(-1, 3), 0, 53, None, 1, False)
@example([Fraction(17, 5)], [Fraction(-9, 8), Fraction(-1, 2)], (Fraction(27, 10), Fraction(-11, 2)),
         Fraction(-3, 4), -1, 100, None, 12, False)
def test_q_ratio_terms_within_the_stated_bound(ups, lows, z, q, extra, prec, max_k, split, small):
    with mp.workprec(prec):
        ups, lows, z, q = [_mp(a) for a in ups], [_mp(b) for b in lows], _mp(z), _mp(q)
        cplx = _is_complex(*ups, *lows, z, q)
        _check(lambda: q_ratio_terms(ups, lows, z, q, extra, max_k),
               lambda: oracles.list_q_ratio_terms(ups, lows, z, q, extra, max_k),
               lambda: oracles.q_term_stream(ups, lows, z, q, extra, max_k),
               oracles.q_stream_bounds(ups, lows, q, cplx), cplx, split, small)


def test_fixed_terms_rounds_a_tie_up():
    # at wp = 2, t_1 = 4 * 1056 / 1024 (times 1 + i when complex) lies half
    # way between 16 and 17 units of its scale 2^-4 in each part; t_1 is kept
    # as 17 (17 + 17i), and t_2 shows it: 5 (9i at the scale 2^-2), where 16
    # would give 4 (8i)
    for cplx, num, den in ((False, 1056, 1024), (True, Gauss((1056, 1056)), 1024)):
        terms = list(fixed_terms(lambda k: (num, den, 0), 2, 2, ""))
        list_form = oracles.list_fixed_terms(
            lambda k: ([oracles.pair(num) if cplx else num], [(den, 0) if cplx else den], 0),
            cplx, 2, 2, "")
        assert list(map(oracles.pair, terms)) == list(list_form)
        assert terms[2] == (Gauss((0, 9)) if cplx else 5)
