import itertools
from fractions import Fraction
from math import comb, floor

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from hyperid import accel
from hyperid.accel import levin_core
from hyperid.errors import AccelerationFailed
from hyperid.precision import PrecisionContext, fixed_prec
from hyperid.series import SeriesSpec, ratio_terms, sum_unilateral, to_fixed

HALF = mpf(1) / 2


def _fixed(values):
    """The mp values as the fixed-point ints (Gauss values when complex)
    Levin reads, each computed and converted when it is asked for, at the
    table's raised precision."""
    return (to_fixed(v, fixed_prec()) for v in values)


def _zeta2_stream():
    return _fixed(1 / mpf(k + 1) ** 2 for k in itertools.count())


def _alternating_stream():
    # sum (-1)^k / (k + 1)^2 = pi^2 / 12: every other entry divides by a negative t
    return _fixed((-1) ** k / mpf(k + 1) ** 2 for k in itertools.count())


def _complex_stream():
    # sum 1 / (k + 1 + i)^2 = trigamma(1 + i): every term is complex, the first too
    shift = mpmath.mpc(1, 1)
    return _fixed(1 / (k + shift) ** 2 for k in itertools.count())


def _trigamma30_stream():
    # sum 1 / (k + 30)^2 = trigamma(30): 172 terms at 90 digits
    return _fixed(1 / (mpf(k) + 30) ** 2 for k in itertools.count())


def _periodic_stream():
    return _fixed(mpf(1) if k % 3 else mpf(-1) for k in itertools.count())


def _closed_form_sum(column):
    """sum_j w_mj v_j over v_0..v_m, w_mj = (-1)^j C(m, j) (j + 1)^(m - 1)."""
    m = len(column) - 1
    return sum((-1) ** j * comb(m, j) * Fraction(j + 1) ** (m - 1) * v for j, v in enumerate(column))


def _model_terms(total):
    """Exact terms t_n of a series with sum `total` whose remainders follow
    the Levin u model exactly: total - S_n = (n+1) t_n P(1/(n+1)) with
    P(x) = 1 + 2^130 x^24, so t_n = R_(n-1) / (n + 2 + 2^130 / (n+1)^23).
    The terms grow by about 2^110 over the first 28, then decay like n^-2."""
    rest = Fraction(total)
    for n in itertools.count():
        t = rest / (n + 2 + Fraction(2**130, (n + 1) ** 23))
        rest -= t
        yield t


def test_levin_zeta2(ctx30):
    # zeta(2) = 3F2(1, 1, 1; 2, 2; 1), a k^-2 tail the engine hands to Levin
    res = sum_unilateral(SeriesSpec((1, 1, 1), (2, 2), 1), ctx30)
    assert res.method == "levin"
    assert res.terms_used <= 60
    with mp.workdps(80):
        err = abs(res.value - mpmath.pi**2 / 6)
        assert err < mpf(10) ** -(ctx30.digits + 1)
        # honesty: the true error stays within 100x of the estimate
        assert err < 100 * res.err_estimate


def test_levin_geometric(ctx30):
    value, err, used = levin_core(_fixed(mpf(2) ** -k for k in itertools.count()), ctx30)
    assert used <= 10
    with mp.workdps(80):
        assert abs(value - 2) < mpf(10) ** -(ctx30.digits + 1)
        assert abs(value - 2) <= err


def test_levin_half_shifted_zeta(ctx30):
    # sum over k>=0 of (k+1/2)^-2 = 4 3F2(1/2, 1/2, 1; 3/2, 3/2; 1) = pi^2/2
    res = sum_unilateral(SeriesSpec((HALF, HALF, 1), (3 * HALF, 3 * HALF), 1), ctx30)
    assert res.method == "levin"
    with mp.workdps(80):
        err = abs(4 * res.value - mpmath.pi**2 / 2)
        assert err < mpf(10) ** -(ctx30.digits + 1)
        assert err < 100 * 4 * res.err_estimate


def test_levin_honesty_on_known_sums(ctx30):
    specs = [
        (SeriesSpec((1, 1, 1), (2, 2), 1), 1, 6),
        (SeriesSpec((HALF, HALF, 1), (3 * HALF, 3 * HALF), 1), 4, 2),
    ]
    for spec, scale, pi2_over in specs:
        res = sum_unilateral(spec, ctx30)
        with mp.workdps(80):
            err = abs(scale * res.value - mpmath.pi**2 / pi2_over)
            assert err < 100 * scale * res.err_estimate
    value, err, _ = levin_core(_fixed(mpf(3) ** -k for k in itertools.count()), ctx30)
    with mp.workdps(80):
        assert abs(value - mpf(3) / 2) < 100 * err


def test_levin_acceleration_failed(ctx30):
    with pytest.raises(AccelerationFailed) as info:
        levin_core(_periodic_stream(), ctx30)
    # the best error prints with 3 digits, not at the raised precision
    assert len(str(info.value)) < 80
    # the message names the stop and the trend of |t_m| there
    assert "reached its cap at 160 terms; |t_m| not growing" in str(info.value)


@pytest.mark.parametrize("a, b, c, digits, stop", [
    # terms that grow until k ~ 180
    ("20.25", "20.125", "41.375", 30, "at 31 terms; |t_m| growing"),
    ("480", "0.5", "500.5", 60, "at 234 terms; |t_m| not growing"),
], ids=["growing", "not-growing"])
def test_levin_degraded_past_its_best_names_the_trend(a, b, c, digits, stop):
    # Gauss 2F1(a, b; c; 1) streams that the table cannot sum (the algebraic
    # route sums them direct+tail instead): the message names the stop and
    # the trend of |t_m| there
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        terms = ratio_terms([mpf(a), mpf(b)], [mpf(c)], mpf(1))
    with pytest.raises(AccelerationFailed) as info:
        levin_core(terms, ctx)
    assert str(info.value).startswith(f"Levin degraded past its best {stop}; best error ")


def test_levin_keeps_no_state_between_calls(ctx30):
    # raised precisions 90 and 150 digits; neither a call at the other
    # precision nor a failing one that reaches the 160-term cap moves the next
    ctx60 = PrecisionContext(digits=60)
    first = levin_core(_zeta2_stream(), ctx30)
    with pytest.raises(AccelerationFailed):
        levin_core(_periodic_stream(), ctx30)
    value, err, _ = levin_core(_zeta2_stream(), ctx60)
    third = levin_core(_zeta2_stream(), ctx30)
    assert repr(third) == repr(first)
    with mp.workdps(170):
        assert abs(value - mpmath.pi**2 / 6) < mpf(10) ** -66
        assert abs(value - mpmath.pi**2 / 6) < 100 * err


def test_levin_mixed_real_and_complex_stream(ctx30):
    # 2F1(a, 1/2; 9/4; 1) with complex a: the first term is the real 1, the rest mpc
    a, b, c = mpmath.mpc("0.25", "0.5"), mpf("0.5"), mpf("2.25")
    res = sum_unilateral(SeriesSpec((a, b), (c,), mpf(1)), ctx30)
    assert res.method == "levin"
    with mp.workdps(50):
        gauss = (mpmath.gamma(c) * mpmath.gamma(c - a - b)
                 / (mpmath.gamma(c - a) * mpmath.gamma(c - b)))
        assert abs(res.value - gauss) < mpf(10) ** -28 * abs(gauss)
        assert abs(res.value - gauss) < 100 * res.err_estimate + mpf(10) ** -45


@pytest.mark.parametrize("digits, stream", [
    pytest.param(30, _zeta2_stream, id="30"),
    pytest.param(60, _zeta2_stream, id="60"),
    pytest.param(30, _alternating_stream, id="alternating-30"),
    pytest.param(60, _alternating_stream, id="alternating-60"),
])
def test_levin_value_is_the_weighted_ratio_rounded_once(digits, stream):
    # sum_j w_mj x_j / sum_j w_mj y_j over the entries rounded from the terms
    # read, evaluated in Fractions; both streams' terms only decay in size, so
    # the first term sets the entries' scale 2^F for all of them. Real entries
    # divide by (j + 1) t, negative for every odd j of the alternating stream
    ctx = PrecisionContext(digits=digits)
    read = []
    value, _, used = levin_core((read.append(t) or t for t in stream()), ctx)
    with mp.workdps(2 * ctx.dps + 10):
        prec, w = mp.prec, fixed_prec()
    f = prec + accel.EXTRA_BITS + 1 + read[0].bit_length() - w
    xs, ys, partial = [], [], 0
    for j, t in enumerate(read[:used]):
        partial += t
        xs.append(floor(Fraction(partial << f, (j + 1) * t) + Fraction(1, 2)))
        ys.append(floor(Fraction(1 << w + f, (j + 1) * t) + Fraction(1, 2)))
    exact = _closed_form_sum(xs) / _closed_form_sum(ys)
    # half a unit in the last place, and the sums' shift to G bits before
    # the division, well below 2^-60 of that
    man, exp = value.man_exp
    assert abs(man * Fraction(2) ** exp - exact) <= abs(exact) / 2**prec * (1 + Fraction(1, 2**60))


def test_levin_accepts_its_best_estimate_at_a_stop(ctx30):
    # zeta(2) terms rounded to 48 digits: the diagonal never meets the stop
    # test twice in a row and degrades past its best after about 50 terms,
    # and that best estimate passes the acceptance test
    def noisy():
        for k in itertools.count():
            with mp.workdps(48):
                t = 1 / mpf(k + 1) ** 2
            yield to_fixed(t, fixed_prec())

    value, err, used = levin_core(noisy(), ctx30)
    # an error above the stop tolerance is returned only through acceptance
    assert 30 < used < 160 and err > mpf(10) ** -(ctx30.dps - 3) * value
    with mp.workdps(80):
        true_err = abs(value - mpmath.pi**2 / 6)
        assert true_err < mpf(10) ** -(ctx30.digits + 1) * value
        assert true_err < 100 * err


def test_levin_terms_that_grow_before_they_decay(ctx30):
    # the table is exact on this model from 26 terms on, so the value is the
    # model's sum up to rounding; the terms used grow from 2^270 to 2^380,
    # and the entries' scale must follow them
    total = 2**400
    terms = (round(t * 2 ** fixed_prec()) for t in _model_terms(total))
    value, err, used = levin_core(terms, ctx30)
    head = list(itertools.islice(_model_terms(1), used))
    assert max(head) / head[0] > 2**100
    assert abs(value - total) < mpf(10) ** -60 * total
    assert err < mpf(10) ** -(ctx30.digits + 1) * total


def test_levin_complex_from_the_first_term(ctx30):
    # every term, the first one too, is complex, and the phase turns from
    # term to term
    value, err, used = levin_core(_complex_stream(), ctx30)
    assert isinstance(value, mpmath.mpc) and used <= 60
    with mp.workdps(80):
        exact = mpmath.psi(1, mpmath.mpc(1, 1))
        assert abs(value - exact) < mpf(10) ** -(ctx30.digits + 1) * abs(exact)
        assert abs(value - exact) < 100 * err


# levin_core's (value, err, used), printed at the raised precision: a change
# to the entries' divisors, to the table's sums or to the tests' comparisons
# that moves any bit of them, or the stop, shows here
@pytest.mark.parametrize("digits, stream, exact, pinned", [
    pytest.param(
        30, _alternating_stream, lambda: mpmath.pi**2 / 12,
        "(mpf('0.822467033424113218236207583323012594609560622122580042573359382428084193662334891762612391088'),"
        " mpf('3.14873112523165713411795245512885937821991781953438247890649069526046184555265580952452551088e-39'),"
        " 33)",
        id="alternating"),
    pytest.param(
        30, _complex_stream, lambda: mpmath.psi(1, mpmath.mpc(1, 1)),
        "(mpc(real='0.463000096622763786298326518184185794410240665584192191870259526227671369891838659607595334636',"
        " imag='-0.794233542759318865583013617156902995904984302736140217870079100304169666907185487750163171728'),"
        " mpf('4.53937997374933291945268106334292740493353319055696141446793291361223559349138193617964615734e-39'),"
        " 46)",
        id="complex"),
    pytest.param(
        90, _trigamma30_stream, lambda: mpmath.psi(1, 30),
        "(mpf('0.0338950603577399442137593888443374498029082374721280108851379838609026401695981767212320026429952995474716181948025512984067058221668844628863159028271554482379538423229238400039275249595783386656648426653305951988'),"
        " mpf('1.99440602062210821202710238309765157794403959681051529441705155577233712174822660499833483550389179464303805455043685158178180453135444041636210345823589265125221098382440310010801605847541925338933617580564459411e-100'),"
        " 172)",
        id="trigamma-90"),
])
def test_levin_triples_are_pinned(digits, stream, exact, pinned):
    ctx = PrecisionContext(digits=digits)
    result = levin_core(stream(), ctx)
    with mp.workdps(2 * ctx.dps + 10):
        assert repr(result) == pinned
        assert abs(result[0] - exact()) < min(result[1], mpf(10) ** -(digits + 1) * abs(exact()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2**400, 2**400), min_size=1, max_size=61),
       st.integers(0, 60), st.integers(0, 200), st.integers(0, 60))
@example([(-1) ** j * 3 ** (4 * j) + j for j in range(61)], 23, 97, 11)
def test_antidiagonal_ends_in_the_weighted_sum(entries, raised_at, shift, start):
    # the column is 0 before `start` (imaginary parts from the first complex
    # term on); at step `raised_at` the scale rises by `shift` bits, and the
    # entries so far and the anti-diagonal shift left exactly
    start = min(start, len(entries) - 1)
    column, diag = [0] * start, [0] * start
    for m in range(start, len(entries)):
        if m == raised_at:
            column = [v << shift for v in column]
            diag = [e << shift for e in diag]
        column.append(entries[m])
        accel._antidiagonal(diag, entries[m])
        assert len(diag) == m + 1 and diag[-1] == _closed_form_sum(column)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(-2**300, 2**300), st.integers(0, 200), st.integers(1, 2**200),
       st.sampled_from([1, -1]), st.booleans())
@example(-3, 0, 1, -1, True)
@example(5, 7, 3, -1, True)
def test_entry_is_the_quotient_rounded_half_up(p, f, d, sign, tie):
    # the entries of the table: p 2^f / d rounded to the nearest int, halves
    # up, for either sign of the divisor; a tie makes the quotient (2p + 1) / 2
    if tie:
        p, d = (2 * p + 1) * d, d << f + 1
    d *= sign
    assert accel._entry(p, f, d) == floor(Fraction(p << f, d) + Fraction(1, 2))


operand = st.one_of(st.just(0), st.integers(1, 2**12), st.integers(1, 2**400))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(operand, operand, operand, st.integers(-2, 2), st.integers(0, 2**400), st.booleans())
@example(0, 5, 0, 0, 0, False)
@example(3, 3, 1, 1, 0, False)  # sums 4 and 5, yet 3 * 3 > 1 * 8
@example(2**100, 2**100, 2**199, 1, 0, False)
def test_less_is_the_exact_product_comparison(a, b, c, gap, low, zero):
    # d takes the bit length that puts the sums of bit lengths `gap` apart
    # (0, 1 or 2 either way, where c leaves room), or is 0
    n = max(a.bit_length() + b.bit_length() + gap - c.bit_length(), 1)
    d = 0 if zero else (1 << n - 1) | low % (1 << n - 1)
    assert accel._less(a, b, c, d) is (a * b < c * d)
    assert accel._less(c, d, a, b) is (c * d < a * b)
