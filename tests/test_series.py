import contextlib
import io
import itertools
import random
import re
from fractions import Fraction
from math import floor, prod

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from hyperid.cli import main
from hyperid.errors import (
    BudgetExceeded,
    CancellationError,
    DivergentError,
    HyperidError,
    IndeterminateError,
    LowerPoleError,
    NotConvergent,
    PoleError,
)
from hyperid.gammafn import gamma_ratio
from hyperid.precision import PrecisionContext, fixed_prec, to_mp
from hyperid.qseries import QContext, QSeriesSpec, split_psi, sum_q_series
from hyperid import series
from hyperid.series import (
    Gauss,
    SeriesSpec,
    _factorial_tail,
    _norm,
    _rdiv,
    _rshift,
    classify,
    dyadic,
    from_fixed,
    mp_parameters,
    partial_sum,
    split_bilateral,
    sum_bilateral,
    sum_direct,
    sum_unilateral,
    to_fixed,
)

import oracles
from oracles import brute_bilateral_h


def test_classify_terminating():
    cls = classify(SeriesSpec((mpf("0.3"), mpf("1.7"), -5), (mpf("2.2"), mpf("4.1")), 1))
    assert cls.tag == "terminating" and cls.n == 5
    # minimal index wins
    cls = classify(SeriesSpec((-7, -2), (mpf("3.5"),), 1))
    assert cls.n == 2


def test_classify_takes_the_halves_of_a_bilateral_spec(ctx30):
    # a bilateral series has no one class: each half of split_bilateral has
    # its own. An upper -3 ends the k >= 0 half at k = 3; a positive-integer
    # lower 4 ends the k < 0 half (uppers 1, 2 - 4 = -2, ...) at k = -3, and a
    # zero or a complex lower does not, so that half at 1/z = 2 diverges
    spec = SeriesSpec((-3, mpf("0.5")), (mpf("2.5"), 4), mpf("0.5"), "bilateral")
    with pytest.raises(ValueError, match="^classify expects a unilateral spec$"):
        classify(spec)
    plus, _, minus = split_bilateral(spec, ctx30)
    assert (classify(plus).tag, classify(plus).n) == ("terminating", 3)
    assert (classify(minus).tag, classify(minus).n) == ("terminating", 2)
    plus, _, minus = split_bilateral(
        SeriesSpec((-3, mpf("0.5")), (mpc(4, 1), 0), mpf("0.5"), "bilateral"), ctx30)
    assert (classify(plus).tag, classify(plus).n) == ("terminating", 3)
    assert classify(minus).tag == "divergent"


def test_classify_algebraic():
    cls = classify(SeriesSpec((1, 1), (3,), 1))
    assert cls.tag == "algebraic"
    assert abs(cls.exponent - 2) < 1e-12


def test_classify_bilateral_exponent(ctx30):
    # 2H2 at z=1 decays like k^-(c+d-a-b) both ways: both halves carry the
    # exponent c+d-a-b, and converge when it is above 1
    a, b = mpf("0.5"), mpf("0.25")
    for (c, d), tag, s in (((a + 12, b + 8), "algebraic", 20),
                           ((a + mpf("0.75"), b + mpf("0.25")), "divergent", 1)):
        for half in split_bilateral(SeriesSpec((a, b), (c, d), 1, "bilateral"), ctx30)[::2]:
            cls = classify(half)
            assert cls.tag == tag and abs(cls.exponent - s) < 1e-12


def test_classify_geometric_and_divergent():
    assert classify(SeriesSpec((1, 2), (3,), mpf("0.5"))).tag == "geometric"
    assert classify(SeriesSpec((1, 2), (3,), mpf("1.5"))).tag == "divergent"
    # |z| = 1 with decay exponent <= 1 diverges
    assert classify(SeriesSpec((1, 1), (mpf("1.5"),), 1)).tag == "divergent"


def test_classify_by_parameter_balance():
    # fewer uppers than lowers plus one: convergent for every z, ratio floor 0
    for spec in (SeriesSpec((1,), (2,), 2), SeriesSpec((1,), (2, 3), 1),
                 SeriesSpec((mpf("0.5"),), (mpf("1.5"),), mpf("-40"))):
        cls = classify(spec)
        assert cls.tag == "geometric" and cls.ratio == 0, spec
    # one upper more than lowers: the floor is |z|
    cls = classify(SeriesSpec((1, 2), (3,), mpf("-0.5")))
    assert cls.tag == "geometric" and cls.ratio == mpf("0.5")
    # more uppers than that: divergent except at z = 0
    assert classify(SeriesSpec((1, 1, 1), (2,), mpf("0.5"))).tag == "divergent"
    assert classify(SeriesSpec((1, 1, 1), (2,), 1)).tag == "divergent"
    assert classify(SeriesSpec((1, 1, 1), (2,), 0)).tag == "geometric"


def test_classify_at_working_precision():
    # |z| exceeds 1 by 1e-38: the series diverges, which a 30-digit
    # classification would miss
    ctx = PrecisionContext(digits=50)
    with ctx.working():
        z = mpf("1.00000000000000000000000000000000000001")
    with pytest.raises(DivergentError):
        sum_unilateral(SeriesSpec((mpf("0.5"), mpf("0.5")), (20,), z), ctx)


def test_sum_telescoping(ctx30):
    # 2F1(1,1;3;1) = sum 2/((k+1)(k+2)) telescopes to exactly 2
    res = sum_unilateral(SeriesSpec((1, 1), (3,), 1), ctx30)
    with ctx30.working():
        assert abs(res.value - 2) < mpf(10) ** -30
    assert res.method == "levin"


def test_sum_terminating_value(ctx30):
    # two-term sum: 1 + (1*2*(-1)) / (1 * 5 * (-2)) = 6/5; the lower -2 sits
    # past the termination index and must not trip a pole
    res = sum_unilateral(SeriesSpec((1, 2, -1), (5, -2), 1), ctx30)
    with ctx30.working():
        assert abs(res.value - mpf(6) / 5) < mpf(10) ** -35
    assert res.method == "terminating"
    assert res.err_estimate <= abs(res.value) * mpf(10) ** -30
    # 6F1(-2+2^-130, 1, 1, 1, 1, -30; 1; 10^-3): terms 3 to 5 carry the factor
    # 2^-130, then (k!)^2 lifts them back; the small-term rule would stop
    # after 6 terms, 2.7e-4 off
    ups = (Fraction(-2) + Fraction(1, 2**130), 1, 1, 1, 1, -30)
    res = sum_unilateral(SeriesSpec(ups, (1,), Fraction(1, 1000)), ctx30)
    assert res.method == "terminating" and res.terms_used == 31
    with mp.workdps(2 * ctx30.dps):
        exact = mpmath.hyper([to_mp(a) for a in ups], [1], mpf(1) / 1000)
        assert abs(res.value - exact) <= abs(exact) * mpf(10) ** -30


def test_sum_z_zero(ctx30):
    res = sum_unilateral(SeriesSpec((mpf("0.5"),), (), 0), ctx30)
    assert res.value == 1


def test_sum_direct_tail_route(ctx30):
    a, b = mpf("0.5"), mpf("0.25")
    c = a + b + 20
    res = sum_unilateral(SeriesSpec((a, b), (c,), 1), ctx30)
    with ctx30.working():
        rhs = gamma_ratio([c, c - a - b], [c - a, c - b], ctx30)
        assert abs(res.value - rhs) / abs(rhs) < mpf(10) ** -28
    assert res.method == "direct+tail"
    assert res.terms_used <= 10_000


@pytest.mark.parametrize("uppers, lowers, kind, message", [
    ((1,), (), "hyper", "unknown series kind 'hyper'"),
    ((), (2,), "unilateral", "unilateral series needs at least one upper parameter"),
    ((1,), (), "bilateral", "bilateral series requires equal parameter counts"),
])
def test_series_spec_validates_each_kind(uppers, lowers, kind, message):
    # psi's count check is in test_qseries.test_psi_requires_balanced_counts
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SeriesSpec(uppers, lowers, mpf("0.5"), kind)


def test_each_engine_takes_only_its_own_kinds(ctx30):
    # one record for the four kinds; QSeriesSpec is a second name for it
    assert QSeriesSpec is SeriesSpec
    qc = QContext(mpf("0.5"), ctx30)
    for spec in (SeriesSpec((1,), (2,), mpf("0.5"), "bilateral"),
                 QSeriesSpec((1,), (2,), mpf("0.5"))):  # no kind: a unilateral spec
        with pytest.raises(ValueError, match="^sum_q_series expects a phi or psi spec$"):
            sum_q_series(spec, qc)
        with pytest.raises(ValueError, match="^split_psi expects a psi-kind spec$"):
            split_psi(spec, qc)
    for kind in ("phi", "psi"):
        spec = SeriesSpec((mpf("0.5"),), (mpf("0.25"),), mpf("0.5"), kind)
        with pytest.raises(ValueError, match="^sum_unilateral expects a unilateral spec$"):
            sum_unilateral(spec, ctx30)
        with pytest.raises(ValueError, match="^sum_bilateral expects a bilateral spec$"):
            sum_bilateral(spec, ctx30)
        with pytest.raises(ValueError, match="^split_bilateral expects a bilateral spec$"):
            split_bilateral(spec, ctx30)
        # nor is a phi or psi spec a unilateral series to classify
        with pytest.raises(ValueError, match="^classify expects a unilateral spec$"):
            classify(spec)


def test_lower_pole_error(ctx30):
    with pytest.raises(LowerPoleError):
        sum_unilateral(SeriesSpec((mpf("0.5"), mpf("0.5")), (-2,), mpf("0.3")), ctx30)
    # terminating before the pole is fine
    sum_unilateral(SeriesSpec((-1, mpf("0.5")), (-2,), 1), ctx30)
    # pole before termination is not
    with pytest.raises(LowerPoleError):
        sum_unilateral(SeriesSpec((-5, mpf("0.5")), (-2,), 1), ctx30)


_MPF = st.one_of(
    st.builds(lambda m, e: mpmath.ldexp(mpf(m), e), st.integers(-2**53, 2**53),
              st.integers(-1200, 1200)),
    st.sampled_from([mpf(0), mp.inf, -mp.inf, mp.nan, mpf(10) ** 400, mpf(2) ** -1100]),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(_MPF, st.builds(mpc, _MPF, st.one_of(st.just(0), _MPF))))
def test_nonpositive_int_is_the_type_ladder(value):
    # the one reader of exact values decides integers as the per-type ladder
    # does, on mp values of every size, complex ones and inf and nan
    with mp.workprec(113):
        assert series.nonpositive_int(value) == oracles.nonpositive_int(value)


def test_nonpositive_int_edges():
    with mp.workdps(30):
        big, tiny = mpf(2) ** 1100, mpf(2) ** -1100
        for v, want in ((mpf(0), 0), (mpf(1), None), (mpf(-1), 1), (mpf(-7), 7),
                        (mpf("-7.5"), None), (big, None), (-big, 2**1100), (tiny, None),
                        (-tiny, None), (mpc(-3, 0), 3), (mpc(-3, mpf(2) ** -200), None),
                        (mp.inf, None), (-mp.inf, None), (mp.nan, None)):
            assert series.nonpositive_int(v) == want == oracles.nonpositive_int(v), v


def test_budget_exceeded():
    ctx = PrecisionContext(digits=30, max_terms=1000)
    with pytest.raises(BudgetExceeded):
        sum_unilateral(SeriesSpec((1,), (), mpf("0.999")), ctx)


def test_a_terminating_index_past_the_budget_fails_before_the_first_term(monkeypatch):
    # n + 1 terms tie a budget of max_terms at n = max_terms - 1, and the limit
    # wins the tie: n = 998 sums in 999 terms, n = 999 and past fail before a
    # term stream is built, after a lower pole reached first
    ctx = PrecisionContext(max_terms=1000)
    assert sum_unilateral(SeriesSpec((-998, 1), (), 1), ctx).terms_used == 999
    monkeypatch.setattr(series, "ratio_terms", lambda *a, **k: pytest.fail("a stream was built"))
    for n in (999, 2 * 10**33):
        with pytest.raises(BudgetExceeded, match="^direct summation needs more than 1000 terms$"):
            sum_unilateral(SeriesSpec((-n, 1), (), 1), ctx)
    with pytest.raises(LowerPoleError):
        sum_unilateral(SeriesSpec((-(10**40), 1), (-2,), 1), ctx)


def test_str_parameters_terminate_as_their_ints(ctx30):
    # termination is read off the working-precision values that the lower
    # pole check and the term streams read: "-3" ends a sum as -3 does,
    # before the lower "-5" is reached, and "-3" and "4" end both halves of a
    # bilateral sum
    for ups, lows, z in (("-3",), ("-5",), 0.5), (("-2", "1"), ("3", "-4"), 1):
        res = sum_unilateral(SeriesSpec(ups, lows, z), ctx30)
        assert res == sum_unilateral(SeriesSpec(tuple(map(int, ups)), tuple(map(int, lows)), z), ctx30)
        assert res.method == "terminating"
    spec = SeriesSpec((-3, mpf("0.5")), (mpf("2.5"), 4), mpf("0.5"), "bilateral")
    res = sum_bilateral(SeriesSpec(("-3", "0.5"), ("2.5", "4"), "0.5", "bilateral"), ctx30)
    assert res == sum_bilateral(spec, ctx30)
    assert res.method == "terminating" and res.terms_used == 4 + 3


def test_partial_sum_contract(ctx30):
    def raw(*values):
        return iter([to_fixed(v, fixed_prec()) for v in values])

    with ctx30.working():
        tiny = mpf(2) ** -133  # below eps = 10^-40, and exact in the fixed-point sums
        # a big term resets the run; the sum stops on the third small term
        terms = raw(mpf(1), tiny, tiny, mpf(-5), tiny, 2 * tiny, 3 * tiny, mpf(9))
        result = partial_sum(terms, ctx30.eps(), 100)
        total, peak, used, last, prev, settled = oracles.mp_sum(result)
        assert settled and used == 7
        assert (last, prev) == (3 * tiny, 2 * tiny)
        assert peak == 5 and total == mpf(-4) + 8 * tiny
        assert result[5] == to_fixed(3 * tiny, fixed_prec()) ** 2  # the run's largest |term|^2
        assert from_fixed(next(terms)) == 9
        # the limit stops an unsettled sum and leaves the stream after it
        terms = raw(*(mpf(k) for k in range(1, 100)))
        total, peak, used, last, prev, settled = oracles.mp_sum(partial_sum(terms, ctx30.eps(), 10))
        assert not settled and used == 10
        assert (total, peak, last, prev) == (55, 10, 10, 9)
        assert from_fixed(next(terms)) == 11
        # a second call goes on along the same stream (11 was taken above)
        assert oracles.mp_sum(partial_sum(terms, ctx30.eps(), 3)) == (12 + 13 + 14, 14, 3, 14, 13, False)
        assert from_fixed(next(terms)) == 15
        # the stream's end settles the sum; stop_eps = 0 adds every small term
        terms = raw(mpf(1), tiny, tiny, tiny, mpf(2))
        assert oracles.mp_sum(partial_sum(terms, 0, 100)) == (3 + 3 * tiny, 2, 5, 2, tiny, True)
        # the peak is the largest |term|, which a complex term with one bit
        # fewer in its larger part can be
        terms = raw(mpf(1), mpc(0.75, 0.75), mpf(-1))
        assert partial_sum(terms, 0, 10)[1] == _norm(to_fixed(mpc(0.75, 0.75), fixed_prec()))


def _cancelling_stream(loss):
    """A counting stream factory: 3e`loss` + (1/3 - 3e`loss`) sums to 1/3
    at more than `loss` digits and to 0 below, and the falling powers of
    s = 10^(-2 dps) after it settle the sum either way, as fixed-point pairs.
    Returns the factory and the list of ambient dps it was called at."""
    calls = []

    def stream():
        calls.append(mp.dps)
        big = 3 * mpf(10) ** loss
        s = mpf(10) ** (-2 * mp.dps)
        return iter([to_fixed(t, fixed_prec()) for t in (big, mpf(1) / 3 - big, s, s**2, s**3, s**4)])

    return stream, calls


def test_a_unilateral_sum_converts_its_parameters_once_a_pass(ctx30, monkeypatch):
    # the route and the first pass share one conversion, at the working
    # precision; each raised pass converts again at its own
    precs = []

    def counting(spec):
        precs.append(mp.prec)
        return mp_parameters(spec)

    monkeypatch.setattr(series, "mp_parameters", counting)
    sum_unilateral(SeriesSpec((Fraction(1, 3), Fraction(5, 4)), (Fraction(3, 2),), Fraction(1, 2)), ctx30)
    assert len(precs) == 1
    precs.clear()
    # 1F1(1; 2; -60): terms up to about 10^24 sum to 1/60, so a second pass runs
    res = sum_unilateral(SeriesSpec((1,), (2,), -60), ctx30)
    with mp.workdps(60):
        assert abs(res.value - (mpmath.exp(-60) - 1) / -60) < mpf(10) ** -40
    assert len(precs) == 2 and precs[1] > precs[0]


def test_sum_direct_pass_contract(ctx30):
    # ctx30 works at 40 digits, 10 beyond the 30 reported
    stream, calls = _cancelling_stream(5)  # loses 6 digits: within the guard
    res = sum_direct(stream, (), tuple, ctx30, mpf(0))
    with ctx30.working():
        total = mpf(0)
        for t in itertools.islice(stream(), res.terms_used):
            total += from_fixed(t)
    assert calls == [40, 40]
    assert res.value == total and res.terms_used == 5 and res.method == "direct"
    assert res.err_estimate < mpf(10) ** -33
    # loses 26 digits: the second pass adds them
    stream, calls = _cancelling_stream(25)
    res = sum_direct(stream, (), tuple, ctx30, mpf(0))
    assert calls == [40, 66]
    with mp.workdps(200):
        assert abs(res.value - mpf(1) / 3) <= res.err_estimate < mpf(10) ** -38
    # not one digit survives at 40: the second pass runs at three times that
    stream, calls = _cancelling_stream(50)
    res = sum_direct(stream, (), tuple, ctx30, mpf(0))
    assert calls == [40, 120]
    with mp.workdps(200):
        assert abs(res.value - mpf(1) / 3) <= res.err_estimate
    # 1080 digits would pass the ceiling of ten times the working precision
    stream, calls = _cancelling_stream(500)
    with pytest.raises(CancellationError, match="360 working digits"):
        sum_direct(stream, (), tuple, ctx30, mpf(0))
    assert calls == [40, 120, 360]


def _halving_stream(calls, lead=()):
    """A counting stream factory: the mp values `lead` (at the ambient
    precision), then 2^-k for k from len(lead) on, as fixed-point ints; the
    ambient dps of each call goes to `calls`."""
    def stream():
        calls.append(mp.dps)
        wp = fixed_prec()
        head = [to_fixed(v(), wp) for v in lead]
        return itertools.chain(head, ((1 << wp) >> k for k in itertools.count(len(head))))

    return stream


def test_sum_direct_tail_contract(ctx30):
    # 2^-k has the tail ratio T_K / t_K = 2 at every K; this tail gives it
    # only from K = 8 on, and never settles below, so K = 4 doubles once
    calls, tails = [], []

    def tail_terms(k):
        tails.append(k)
        one = 1 << fixed_prec()
        return itertools.chain([2 * one], itertools.repeat(0)) if k >= 8 else itertools.repeat(one)

    res = sum_direct(_halving_stream(calls), (), tuple, ctx30, mpf(1), (4, tail_terms))
    assert (res.value, res.terms_used, res.method) == (2, 8, "direct+tail")
    assert calls == [40] and tails == [4, 8]
    # a given head goes on along its stream, which is not built again
    with ctx30.working():
        terms = _halving_stream([])()
        total, peak, used, *_ = partial_sum(terms, 0, 3)
    calls.clear()
    res = sum_direct(_halving_stream(calls), (), tuple, ctx30, mpf(1), (8, tail_terms),
                     (terms, total, peak, used))
    assert (res.value, res.terms_used) == (2, 8) and calls == []
    # 3e25 + (1/3 - 3e25) + 1/4 + 1/8 + ... loses 26 digits: the raised pass
    # builds the stream anew at 66 digits instead of reusing the head
    big = lambda: 3 * mpf(10) ** 25
    lead = (big, lambda: mpf(1) / 3 - big())
    with ctx30.working():
        terms = _halving_stream([], lead)()
        head = (terms, *partial_sum(terms, 0, 2)[:2], 2)
    res = sum_direct(_halving_stream(calls, lead), (), tuple, ctx30, mpf(1), (8, tail_terms), head)
    assert calls == [66] and res.terms_used == 8
    with mp.workdps(200):
        assert abs(res.value - mpf(5) / 6) <= res.err_estimate < mpf(10) ** -38


def test_divergent_error(ctx30):
    with pytest.raises(DivergentError):
        sum_unilateral(SeriesSpec((1, 2), (3,), mpf("1.5")), ctx30)


def test_bilateral_quarter_pi_squared(ctx30):
    # 2H2(1/2,1/2;3/2,3/2;1) = Gamma(1/2)^2 Gamma(3/2)^2 = pi^2/4
    h = mpf(1) / 2
    res = sum_bilateral(SeriesSpec((h, h), (h + 1, h + 1), 1, "bilateral"), ctx30)
    with ctx30.working():
        target = mpmath.pi**2 / 4
        assert abs(res.value - target) < mpf(10) ** -28
        assert abs(res.value - target) < 100 * res.err_estimate + mpf(10) ** -35


def test_bilateral_lower_one_reduces_to_unilateral(ctx30):
    # a lower parameter 1 kills the reflected tail: 2H2(a,b;1,d;1) = 2F1(a,b;d;1)
    a, b, d = mpf("0.25"), mpf("0.5"), mpf("18.5")
    res = sum_bilateral(SeriesSpec((a, b), (1, d), 1, "bilateral"), ctx30)
    plus, pref, minus = split_bilateral(SeriesSpec((a, b), (1, d), 1, "bilateral"), ctx30)
    assert minus is None and pref == 0
    with ctx30.working():
        rhs = gamma_ratio([d, d - a - b], [d - a, d - b], ctx30)
        assert abs(res.value - rhs) / abs(rhs) < mpf(10) ** -28


def test_bilateral_dougall_sample(ctx30):
    a, b = mpf("0.625"), mpf("1.1875")
    c, d = a + 11, b + 9
    res = sum_bilateral(SeriesSpec((a, b), (c, d), 1, "bilateral"), ctx30)
    with ctx30.working():
        rhs = gamma_ratio([1 - a, 1 - b, c, d, c + d - a - b - 1], [c - a, c - b, d - a, d - b], ctx30)
        assert abs(res.value - rhs) / abs(rhs) < mpf(10) ** -25


def test_bilateral_off_the_unit_circle_diverges(ctx30):
    # one half of a bilateral series has ratio z, the other 1/z: off |z| = 1,
    # one of them diverges unless it ends; here the k < 0 half at 1/z = 2, also
    # where the k >= 0 half ends (at k = 3). z = 0 has no negative half at all
    for ups, lows in (((mpf("0.5"), mpf("0.5")), (mpf("1.5"), mpf("1.5"))),
                      ((-3, mpf("0.25")), (mpf("0.7"), mpf("1.5")))):
        spec = SeriesSpec(ups, lows, mpf("0.5"), "bilateral")
        _, _, minus = split_bilateral(spec, ctx30)
        assert classify(minus).tag == "divergent"
        with pytest.raises(DivergentError, match="^series diverges at the given argument$") as exc:
            sum_bilateral(spec, ctx30)
        assert exc.type is DivergentError  # not NotConvergent, which names a decay exponent
    with pytest.raises(DivergentError, match="^bilateral series undefined at z = 0$"):
        split_bilateral(SeriesSpec(spec.uppers, spec.lowers, 0, "bilateral"), ctx30)


def test_bilateral_error_cases(ctx30):
    # decay exponent (0.75 + 1.25) - (0.5 + 0.5) = 1 is not > 1, in both halves
    with pytest.raises(NotConvergent, match=r"^decay exponent Re = 1\.0 is not > 1$"):
        sum_bilateral(SeriesSpec((mpf("0.5"), mpf("0.5")), (mpf("0.75"), mpf("1.25")), 1, "bilateral"), ctx30)
    with pytest.raises(IndeterminateError):
        split_bilateral(SeriesSpec((1, mpf("0.5")), (1, mpf("7.5")), 1, "bilateral"), ctx30)
    with pytest.raises(PoleError):
        split_bilateral(SeriesSpec((1, mpf("0.5")), (mpf("3.5"), mpf("7.5")), 1, "bilateral"), ctx30)
    # a lower 3 would end the k < 0 half at k = -2, but the upper 2 puts a pole
    # there: (2)_{-2} = 1 / ((2 - 1)(2 - 2))
    with pytest.raises(LowerPoleError):
        sum_bilateral(SeriesSpec((2, mpf("0.25")), (3, mpf("1.5")), mpf("0.5"), "bilateral"), ctx30)


def test_bilateral_split_vs_brute_force(ctx30):
    rng = random.Random(11)
    for _ in range(4):
        a = Fraction(rng.randint(5, 100), 64)
        b = Fraction(rng.randint(5, 100), 64)
        c = a + Fraction(rng.randint(8 * 64, 14 * 64), 64)
        d = b + Fraction(rng.randint(8 * 64, 14 * 64), 64)
        res = sum_bilateral(SeriesSpec((a, b), (c, d), 1, "bilateral"), ctx30)
        brute, tail, rounding = brute_bilateral_h([a, b], [c, d], 10_000)
        assert abs(float(res.value) - brute) <= tail + rounding + 1e-12 * abs(brute)


def test_every_verification_bilateral_sample_vs_brute_force(ctx30):
    # split-consistency holds on every bilateral sample the suite draws
    from hyperid.catalog import CATALOG
    from hyperid.harness import sample_parameters

    for index in range(20):
        p = sample_parameters(CATALOG["dougall-2h2"], 0, index)
        res = sum_bilateral(SeriesSpec((p["a"], p["b"]), (p["c"], p["d"]), 1, "bilateral"), ctx30)
        brute, tail, rounding = brute_bilateral_h([p["a"], p["b"]], [p["c"], p["d"]], 10_000)
        err = abs(complex(res.value) - brute)
        assert err <= tail + rounding + 1e-11 * abs(brute), (index, err)
    for index in range(20):
        p = sample_parameters(CATALOG["h22-split"], 0, index)
        ups = [1 - complex(p["a"]), 1 - complex(p["b"])]
        lows = [1 + complex(p["c"]), 1 + complex(p["d"])]
        res = sum_bilateral(SeriesSpec(tuple(ups), tuple(lows), 1, "bilateral"), ctx30)
        brute, tail, rounding = brute_bilateral_h(ups, lows, 10_000)
        err = abs(complex(res.value) - brute)
        assert err <= tail + rounding + 1e-11 * abs(brute), (index, err)


def test_bilateral_terminating_both_tails(ctx30):
    # upper -2 cuts k > 2, lower 3 cuts k < -2: only k in [-2, 2] survive
    spec = SeriesSpec((-2, mpf("0.5")), (3, mpf("7.5")), 1, "bilateral")
    plus, _, minus = split_bilateral(spec, ctx30)
    assert (classify(plus).n, classify(minus).n) == (2, 1)  # minus's k = 0, 1 are k = -1, -2
    res = sum_bilateral(spec, ctx30)
    brute, _, _ = brute_bilateral_h([-2, 0.5], [3, 7.5], 10)
    assert abs(float(res.value) - brute) < 1e-13 * max(1.0, abs(brute))


def _bilateral_k_sum(ups, lows, z, dps):
    """sum over all integers k of prod (a)_k / prod (b)_k z^k at dps digits,
    with (x)_{-m} = (-1)^m / (1-x)_m: k from -N to N, N = 4 dps + 80, past
    which every half here (ratio 1/2 or ended) is below 10^-dps of the sum."""
    with mp.workdps(dps):
        ups, lows, z = [mpf(a) for a in ups], [mpf(b) for b in lows], mpf(z)
        n = 4 * dps + 80
        plus = sum(mpmath.fprod(mpmath.rf(a, k) for a in ups)
                   / mpmath.fprod(mpmath.rf(b, k) for b in lows) * z**k for k in range(n))
        # (-1)^m of each upper's and each lower's reflection cancel: equal counts
        minus = sum(mpmath.fprod(mpmath.rf(1 - b, m) for b in lows)
                    / mpmath.fprod(mpmath.rf(1 - a, m) for a in ups) / z**m for m in range(1, n))
        return plus + minus


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("ups, lows, z", [
    (("0.5", "0.25"), (1, "1.5"), "0.5"),  # the lower 1 zeroes the k < 0 half
    (("0.5", "0.25"), (3, "1.5"), "0.5"),  # the k < 0 half ends at k = -2
    ((-3, "0.25"), ("0.7", "1.5"), 2),  # k >= 0 ends at k = 3, k < 0 converges at 1/z
], ids=["lower-one", "negative-half-ends", "positive-half-ends"])
def test_bilateral_where_one_half_ends_or_vanishes(ups, lows, z, digits):
    # a two-sided series converges where both halves converge or end, off
    # |z| = 1 too; with a lower 1 it is the unilateral 2F1(a, b; c; z)
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        spec = SeriesSpec(tuple(map(mpf, ups)), tuple(map(mpf, lows)), mpf(z), "bilateral")
    res = sum_bilateral(spec, ctx)
    if lows[0] == 1:
        with mp.workdps(digits + 20):
            exact = mpmath.hyp2f1(mpf(ups[0]), mpf(ups[1]), mpf(lows[1]), mpf(z))
    else:
        exact = _bilateral_k_sum(ups, lows, z, digits + 20)
    with mp.workdps(digits + 20):
        assert abs(res.value - exact) < abs(exact) * mpf(10) ** -digits


_GRID = st.integers(-48, 48).map(lambda n: Fraction(n, 8))
_CUT_Z = (Fraction(1, 4), Fraction(1, 2), 2, 4, 1, -1)
_TWO_SIDED = settings(max_examples=200, deadline=None, derandomize=True)


def _typed_or_finite(call):
    """call()'s SeriesResult, whose value must be finite, or None when it
    raised a HyperidError."""
    try:
        res = call()
    except HyperidError:
        return None
    assert mpmath.isfinite(res.value), res
    return res


def _two_sided_exact(ups, lows, z):
    """The exact sum over its finite k range of a bilateral series whose
    k >= 0 half ends at an upper -n and whose k < 0 half at a lower m > 0,
    k in [1 - m, n] with (x)_{-j} = 1 / ((x - 1) ... (x - j)); None when a
    term there has a zero denominator, a pole that the engine must refuse."""
    n = int(min(-a for a in ups if a <= 0 and a.denominator == 1))
    m = int(min(b for b in lows if b > 0 and b.denominator == 1))
    total = Fraction(0)
    for k in range(1 - m, n + 1):
        num = prod(x + i for x in ups for i in range(k))
        num *= prod(x - i for x in lows for i in range(1, 1 - k))
        den = prod(x + i for x in lows for i in range(k))
        den *= prod(x - i for x in ups for i in range(1, 1 - k))
        if not den:
            return None
        total += Fraction(num, den) * Fraction(z) ** k
    return total


@_TWO_SIDED
@given(st.data(), st.integers(1, 3), st.sampled_from(("upper", "lower", "both")),
       st.sampled_from(_CUT_Z))
def test_cut_bilateral_sums_are_typed_or_finite(data, r, cut, z):
    # a nonpositive-integer upper ends the k >= 0 half and a positive-integer
    # lower the k < 0 one; the other half converges, diverges or hits a pole,
    # and each ends in a finite value or a typed error. Where both halves end,
    # the value is the exact sum over the finite k range, within its estimate
    ups, lows = (data.draw(st.lists(_GRID, min_size=r, max_size=r)) for _ in range(2))
    if cut != "lower":
        ups[data.draw(st.integers(0, r - 1))] = Fraction(-data.draw(st.integers(0, 6)))
    if cut != "upper":
        lows[data.draw(st.integers(0, r - 1))] = Fraction(data.draw(st.integers(1, 6)))
    res = _typed_or_finite(lambda: sum_bilateral(
        SeriesSpec(tuple(ups), tuple(lows), z, "bilateral"), PrecisionContext(max_terms=1000)))
    if (any(a <= 0 and a.denominator == 1 for a in ups)
            and any(b > 0 and b.denominator == 1 for b in lows)):
        exact = _two_sided_exact(ups, lows, z)
        assert res is None or exact is not None, (ups, lows, z)
        if res is not None:
            with mp.workdps(60):
                assert abs(res.value - to_mp(exact)) <= res.err_estimate, (ups, lows, z, exact)


@_TWO_SIDED
@given(st.data(), st.integers(1, 3), st.sampled_from(("upper", "lower", "both")),
       st.sampled_from(_CUT_Z), st.sampled_from((Fraction(1, 2), Fraction(1, 4))),
       st.integers(0, 6))
def test_cut_psi_sums_are_typed_or_finite(data, r, cut, z, q, n):
    # an upper q^-n ends the k >= 0 half, a lower q^(n+2) the k < 0 one
    grid = _GRID.filter(bool)
    ups, lows = (data.draw(st.lists(grid, min_size=r, max_size=r)) for _ in range(2))
    if cut != "lower":
        ups[data.draw(st.integers(0, r - 1))] = q ** -n
    if cut != "upper":
        lows[data.draw(st.integers(0, r - 1))] = q ** (n + 2)
    _typed_or_finite(lambda: sum_q_series(QSeriesSpec(tuple(ups), tuple(lows), z, "psi"),
                                          QContext(q, PrecisionContext(max_terms=1000))))


# parameters at -n +- 2^-m or on the 1/64 grid up to 64 in magnitude, one in
# five complex; phi lowers also at q^-n (1 + 2^-m) and phi uppers at q^-n
_NEAR_POLE = st.builds(lambda n, m, sign: Fraction(-n) + sign * Fraction(1, 2**m),
                       st.integers(0, 20), st.integers(1, 60), st.sampled_from((1, -1)))
_GRID64 = st.integers(-64 * 64, 64 * 64).map(lambda n: Fraction(n, 64))
_ONE_SIDED_Z = (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2), 1, -1)


@st.composite
def _one_sided_specs(draw):
    """(kind, uppers, lowers, z, q): Fractions and (re, im) pairs of them; z
    is +-1 only for a unilateral series whose decay exponent s is > 1."""
    kind = draw(st.sampled_from(("unilateral", "phi")))
    q = draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(15, 16))))
    at_q = st.builds(lambda n, m: q ** -n * (1 + Fraction(1, 2**m)), st.integers(0, 12),
                     st.integers(1, 60))
    real = st.one_of(_NEAR_POLE, _GRID64)
    upper, lower = (real, real) if kind == "unilateral" else (
        st.one_of(real, st.integers(0, 12).map(lambda n: q ** -n)), st.one_of(real, at_q))

    def params(part, count):
        return [p if draw(st.integers(0, 4)) else (p, draw(_GRID64))
                for p in draw(st.lists(part, min_size=count, max_size=count))]

    r = draw(st.integers(1, 3))
    ups, lows = params(upper, r), params(lower, draw(st.integers(max(r - 2, 0), r)))
    z = draw(st.sampled_from(_ONE_SIDED_Z))
    re = lambda p: p[0] if isinstance(p, tuple) else p
    s = sum(map(re, lows)) + 1 - sum(map(re, ups))
    if abs(z) == 1 and (kind == "phi" or len(lows) != r - 1 or s <= 1):
        z /= 4
    return kind, ups, lows, z, q


def _one_sided_sum(kind, ups, lows, z, q):
    """(spec, q, call) of a `_one_sided_specs` draw: every parameter, z and q
    as mp numbers at the working precision, and call() the engine's sum at
    max_terms = 1000."""
    ctx = PrecisionContext(max_terms=1000)
    with ctx.working():
        mp_of = lambda p: mpc(to_mp(p[0]), to_mp(p[1])) if isinstance(p, tuple) else to_mp(p)
        spec = SeriesSpec(tuple(map(mp_of, ups)), tuple(map(mp_of, lows)), to_mp(z), kind)
        q = to_mp(q)
    if kind == "unilateral":
        return spec, q, lambda: sum_unilateral(spec, ctx)
    return spec, q, lambda: sum_q_series(spec, QContext(q, ctx))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_sided_specs())
def test_one_sided_sums_are_typed_or_finite(draw):
    # near poles, on a wide grid, complex, at |z| = 1 and near q-poles: each
    # call returns a finite value or raises a HyperidError
    _typed_or_finite(_one_sided_sum(*draw)[2])


def _literal(x):
    """The exact decimal literal of an mp number, as `cli.parse_scalar` reads it."""
    n, s = dyadic(x)
    re, im = n if type(n) is Gauss else (n, None)
    text = f"{re * 5**s}e-{s}"
    return text if im is None else f"{text}{'-' if im < 0 else '+'}{abs(im) * 5**s}e-{s}i"


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_one_sided_specs())
def test_one_sided_sums_through_the_cli(draw):
    # the same specs through cli.main: exit code 0 where the engine returns a
    # value, 1 where it raises a HyperidError, and no traceback
    spec, q, call = _one_sided_sum(*draw)
    want = 0 if _typed_or_finite(call) else 1
    argv = ["eval", "pfq" if spec.kind == "unilateral" else "phi",
            "--upper", ",".join(map(_literal, spec.uppers)),
            "--lower", ",".join(map(_literal, spec.lowers)),
            "--z", _literal(spec.argument), "--max-terms", "1000"]
    if spec.kind == "phi":
        argv += ["--q", _literal(q)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == want and "Traceback" not in err.getvalue(), (argv, err.getvalue())


def test_redundant_pair_invariance(ctx30):
    base = sum_unilateral(SeriesSpec((1, 1), (3,), 1), ctx30)
    for x in (Fraction(5, 8), Fraction(47, 16), Fraction(13, 4)):
        padded = sum_unilateral(SeriesSpec((1, 1, x), (3, x), 1), ctx30)
        with ctx30.working():
            assert abs(padded.value - base.value) <= abs(base.value) * mpf(10) ** -25


def test_budget_invariant(ctx30):
    for spec in (
        SeriesSpec((1, 1), (3,), 1),
        SeriesSpec((mpf("0.5"), mpf("0.25")), (21,), 1),
        SeriesSpec((mpf("0.5"),), (), mpf("0.5")),
    ):
        res = sum_unilateral(spec, ctx30)
        assert res.terms_used <= ctx30.max_terms


def _gauss_2f1(a, b, c, digits):
    """Gauss's closed form Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    of 2F1(a, b; c; 1), at digits + 40."""
    with mp.workdps(digits + 40):
        a, b, c = (to_mp(x) for x in (a, b, c))
        return mpmath.gammaprod([c, c - a - b], [c - a, c - b])


def _gauss_tail_miss(a, b, c, ctx):
    """The Gauss sum's result and its true error."""
    res = sum_unilateral(SeriesSpec((a, b), (c,), 1), ctx)
    with mp.workdps(ctx.dps + 40):
        return res, abs(res.value - _gauss_2f1(a, b, c, ctx.digits))


_GRAIN = st.integers(min_value=1, max_value=127).map(lambda n: Fraction(n, 64))


@settings(max_examples=40, deadline=None)
@given(digits=st.sampled_from((30, 60)), a=_GRAIN, b=_GRAIN, im=st.none() | _GRAIN.map(lambda x: x - 1),
       excess=st.integers(min_value=4 * 64, max_value=26 * 64))
def test_direct_tail_error_within_estimate(digits, a, b, im, excess):
    # real and complex dyadic Gauss sums with c - a - b in [4, 26]: the
    # factorial tail's estimate covers the error against the closed form
    # wherever the probe sends the sum to direct+tail
    a = a if im is None else complex(a, im)
    c = a + b + Fraction(excess, 64)
    res, miss = _gauss_tail_miss(a, b, c, PrecisionContext(digits=digits))
    assume(res.method == "direct+tail")
    assert miss <= res.err_estimate


def test_direct_tail_estimate_counts_the_final_rounding():
    # 150 seeded real Gauss sums, a and b on the 1/64 grid in [-10, 60] and
    # s = c - a - b in [1/32, 25/8], at 30 and 60 digits: the estimate of
    # each direct+tail sum covers its error against the closed form, which
    # for a large value is mostly the rounding of the returned value to the
    # working precision (Levin's estimate stays heuristic and is not checked).
    # One draw, 2F1(-29/4, 2769/64; 2449/64; 1), has c - b = -5 and so the
    # sum 0, which no pass resolves: it raises, as every nonterminating exact
    # zero does
    rng, checked, zeros = random.Random(1), 0, 0
    for _ in range(150):
        a, b = (Fraction(rng.randint(-640, 3840), 64) for _ in range(2))
        c = a + b + Fraction(rng.randint(2, 200), 64)
        if c <= 0 and c.denominator == 1:
            continue
        zero = any(x <= 0 and x.denominator == 1 for x in (c - a, c - b))
        for digits in (30, 60):
            if zero:
                with pytest.raises(CancellationError):
                    sum_unilateral(SeriesSpec((a, b), (c,), 1), PrecisionContext(digits=digits))
                zeros += 1
                continue
            res, miss = _gauss_tail_miss(a, b, c, PrecisionContext(digits=digits))
            if res.method == "direct+tail":
                assert miss <= res.err_estimate, (a, b, c, digits)
                checked += 1
    assert checked > 100 and zeros == 2


def test_direct_tail_estimate_covers_the_integral_bound_miss(ctx30):
    # `eval pfq --upper 0.921875,1.859375 --lower 26.625 --z 1`: the integral
    # bound |t_K| K / (s - 1) after 261 terms estimated 3.68e-34 against a
    # true error of 3.69e-34
    res, miss = _gauss_tail_miss(Fraction(59, 64), Fraction(119, 64), Fraction(213, 8), ctx30)
    assert res.method == "direct+tail"
    assert miss <= res.err_estimate
    assert miss < mpf(10) ** -40


def test_direct_tail_large_constant_takes_few_terms(ctx30):
    # the classical-30 seed-1 Gauss sum whose slow decay constant took 17385
    # terms to the integral bound: the head and the factorial tail take K
    a, b, c = complex(Fraction(49, 64), Fraction(43, 64)), complex(1, Fraction(-35, 64)), \
        Fraction(727, 64)
    res, miss = _gauss_tail_miss(a, b, c, ctx30)
    assert res.method == "direct+tail" and res.terms_used <= 120
    assert miss <= res.err_estimate


def test_direct_tail_doubles_its_head(ctx30):
    # 2F1(240, 1/2; 533/2; 1): 180 tail terms at K = 60 do not settle, so K
    # doubles once and the coefficients are reused
    res, miss = _gauss_tail_miss(240, Fraction(1, 2), Fraction(533, 2), ctx30)
    assert (res.method, res.terms_used) == ("direct+tail", 120)
    assert miss <= res.err_estimate
    assert miss < mpf(10) ** -40 * abs(res.value)


@pytest.mark.parametrize("uppers, lowers, digits, method", [
    # probe estimates k_needed of 12289 and 30576 terms at 30 digits
    ((Fraction(123, 64), Fraction(15, 64)), (Fraction(387, 32),), 30, "direct+tail"),
    ((Fraction(109, 64), Fraction(1, 32)), (Fraction(653, 64),), 30, "levin"),
    # 17188, 19862, 21071 and 35736 terms at 60 digits
    ((Fraction(91, 64), Fraction(11, 16)), (Fraction(85, 4),), 60, "direct+tail"),
    ((1, Fraction(57, 32), Fraction(23, 8)), (Fraction(69, 32), Fraction(1455, 64)), 60, "direct+tail"),
    ((1, Fraction(9, 8), Fraction(51, 32)), (Fraction(583, 64), Fraction(777, 64)), 60, "levin"),
    ((Fraction(25, 64), Fraction(41, 64)), (Fraction(573, 32),), 60, "levin"),
])
def test_routes_on_both_sides_of_the_direct_cap(uppers, lowers, digits, method):
    ctx = PrecisionContext(digits=digits)
    res = sum_unilateral(SeriesSpec(uppers, lowers, 1), ctx)
    assert res.method == method
    if len(uppers) == 2:
        with mp.workdps(ctx.dps + 40):
            exact = _gauss_2f1(*uppers, *lowers, digits)
            assert abs(res.value - exact) <= mpf(10) ** -(digits + 2) * abs(exact)


@pytest.mark.parametrize("z", [-1, 1j, -1j])
def test_direct_tail_off_one(ctx30, z):
    # at z != 1 on the unit circle the band gains a row and its pivot is 1 - z
    ups, lows = (Fraction(1, 2), Fraction(1, 4)), (Fraction(83, 4),)
    res = sum_unilateral(SeriesSpec(ups, lows, z), ctx30)
    assert res.method == "direct+tail"
    with mp.workdps(2 * ctx30.dps):
        exact = mpmath.hyp2f1(*map(to_mp, ups + lows), to_mp(z))
        assert abs(res.value - exact) <= mpf(10) ** -ctx30.dps * abs(exact)
        assert abs(res.value - exact) <= res.err_estimate


def _dixon(a, b, c):
    """Dixon's closed form of 3F2(a, b, c; 1 + a - b, 1 + a - c; 1)."""
    return mpmath.gammaprod([1 + a / 2, 1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
                            [1 + a, 1 + a / 2 - b, 1 + a / 2 - c, 1 + a - b - c])


@pytest.mark.parametrize("uppers, lowers", [
    ((Fraction(1, 2), Fraction(1, 4)), (Fraction(83, 4),)),
    ((complex(Fraction(49, 64), Fraction(43, 64)), complex(1, Fraction(-35, 64))),
     (Fraction(727, 64),)),
    ((240, Fraction(1, 2)), (Fraction(533, 2),)),
    ((Fraction(25, 2), Fraction(-3, 8), Fraction(-5, 16)), (Fraction(111, 8), Fraction(221, 16))),
    # terms up to 10^10 .. 10^20 that cancel to sums of 10^-46 .. 10^-23
    ((Fraction(-121, 2), Fraction(241, 4)), (Fraction(91, 2),)),
    ((Fraction(-81, 2), Fraction(161, 4)), (30,)),
    ((Fraction(-61, 2), Fraction(121, 4)), (20,)),
])
def test_direct_tail_within_the_working_digits(ctx30, uppers, lowers):
    # the factorial tail against closed forms at twice the working digits,
    # to within 10^-dps of the value: a tail cut short or dropped shows here
    # where err_estimate, set by the head's rounding, hides it, and so does
    # a sum that cancels without the passes at raised precision
    res = sum_unilateral(SeriesSpec(uppers, lowers, 1), ctx30)
    assert res.method == "direct+tail"
    with ctx30.working():
        ups = [to_mp(a) for a in uppers]
    with mp.workdps(2 * ctx30.dps):
        exact = _gauss_2f1(*uppers, *lowers, ctx30.dps) if len(ups) == 2 else _dixon(*ups)
        assert abs(res.value - exact) <= mpf(10) ** -ctx30.dps * abs(exact)


def test_tail_coefficients_of_a_finite_expansion(ctx30):
    # t_k = k! / (1 + s)_k, 2F1(1, 1; 1 + s; 1), has the tail ratio
    # f(K) = (K + s) / (s - 1) = c_0 (K - 1) + c_1 exactly; at K = 2,
    # u_0 = u_1 = 1, so the first two terms are c_0 and c_1 themselves
    s = Fraction(5, 2)
    with ctx30.working():
        wp = fixed_prec()
        cs = list(itertools.islice(_factorial_tail([mpf(1), mpf(1)], [to_mp(1 + s)], mpf(1), 2), 12))
    assert cs[:2] == [round(Fraction(2**wp) / (s - 1)), round(Fraction(2**wp) * (s + 1) / (s - 1))]
    assert all(abs(c) <= 2 for c in cs[2:])


_HALF = Fraction(1, 2)


@pytest.mark.parametrize("uppers, lowers, z, q", [
    ((5, 5), (1,), _HALF, None),
    ((Fraction(5, 2), Fraction(7, 2)), (_HALF,), Fraction(9, 10), None),  # ratio falls to |z|
    ((1,), (2,), 2, None),
    ((1,), (2,), -10, None),
    ((_HALF,), (Fraction(3, 2), Fraction(5, 2)), -30, None),
    ((_HALF,), (Fraction(1, 4),), 3, _HALF),
    ((_HALF, Fraction(3, 10)), (Fraction(1, 4), Fraction(7, 10)), -5, _HALF),
    # cancelling inputs, summed again at raised precision and rounded back
    ((1,), (2,), -200, None),
    ((), (), "1048576.0000000000001", _HALF),
], ids=["2F1(5,5;1;1/2)", "2F1(5/2,7/2;1/2;9/10)", "1F1(1;2;2)", "1F1(1;2;-10)",
        "1F2(1/2;3/2,5/2;-30)", "1phi1(1/2;1/4;1/2,3)", "2phi2(1/2,3/10;1/4,7/10;1/2,-5)",
        "1F1(1;2;-200)", "0phi0(;;1/2,2^20+1e-13)"])
def test_direct_route_error_bound(ctx30, uppers, lowers, z, q):
    # true error <= err_estimate, against mpmath at twice the working
    # precision on the same rounded parameters
    with ctx30.working():
        ups, lows, zz = [to_mp(a) for a in uppers], [to_mp(b) for b in lowers], to_mp(z)
    if q is None:
        res = sum_unilateral(SeriesSpec(ups, lows, zz), ctx30)
    else:
        res = sum_q_series(QSeriesSpec(ups, lows, zz, "phi"), QContext(q, ctx30))
    assert res.method == "direct"
    with mp.workdps(2 * ctx30.dps):
        if q is None:
            exact = mpmath.hyper(ups, lows, zz)
        else:
            exact = mpmath.qhyper(ups, lows, to_mp(q), zz)
        assert abs(res.value - exact) <= res.err_estimate


# Gauss against Fraction arithmetic on (re, im) pairs; small ints make ties
# and zero parts common, big ones carry
_INT = st.one_of(st.integers(-40, 40), st.integers(-2**130, 2**130))
_GAUSS = st.builds(lambda re, im: Gauss((re, im)), _INT, _INT)
_VALUE = st.one_of(_INT, _GAUSS)


def _pair(x):
    """(re, im) of an int or a Gauss as Fractions."""
    return tuple(map(Fraction, oracles.pair(x)))


def _is(x, re, im, gauss):
    """x is the int re (im = 0), or the Gauss (re, im) when gauss."""
    return type(x) is (Gauss if gauss else int) and _pair(x) == (re, im)


def _round(v):
    return floor(v + Fraction(1, 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_VALUE, _VALUE, _INT.filter(bool), st.integers(0, 200))
def test_gauss_arithmetic_against_fractions(x, y, n, k):
    (a, b), (c, d) = _pair(x), _pair(y)
    gauss = isinstance(x, Gauss) or isinstance(y, Gauss)
    assert _is(x + y, a + c, b + d, gauss) and _is(x - y, a - c, b - d, gauss)
    assert _is(x * y, a * c - b * d, a * d + b * c, gauss)
    one = isinstance(x, Gauss)
    assert _is(-x, -a, -b, one) and _is(x // n, floor(a / n), floor(b / n), one)
    assert _is(x << k, a * 2**k, b * 2**k, one) and _is(x >> k, floor(a / 2**k), floor(b / 2**k), one)
    assert _is(x.conjugate(), a, -b, one)
    assert bool(x) == (a != 0 or b != 0) and (x == y) == ((a, b) == (c, d)) != (x != y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_VALUE, _VALUE.filter(bool))
def test_rdiv_rounds_each_part_half_up(x, d):
    # x / d = x conj(d) / |d|^2, for int and Gaussian divisors of either sign
    (a, b), (c, e) = _pair(x), _pair(d)
    norm = c * c + e * e
    re, im = (a * c + b * e) / norm, (b * c - a * e) / norm
    assert _is(_rdiv(x, d), _round(re), _round(im), isinstance(x, Gauss) or isinstance(d, Gauss))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_VALUE, st.one_of(st.integers(0, 2), st.integers(0, 400)), st.booleans())
def test_rshift_is_rdiv_by_a_power_of_two(x, r, half):
    # negatives, exact halves (odd multiples of 2^(r-1), in each part) and r
    # from 0 to far past the bit length of x
    if half and r:
        x = (x * 2 + (Gauss((1, 1)) if isinstance(x, Gauss) else 1)) << r - 1
    got, want = _rshift(x, r), _rdiv(x, 1 << r)
    assert type(got) is type(want) and got == want


def _pairs(values):
    """Ints and Gauss values as oracles.pair tuples, None kept."""
    return [v if v is None else oracles.pair(v) for v in values]


def _exact_partial_sum(terms, eps, limit, s, h):
    """`series.partial_sum` deciding every term on the exact products."""
    wp = fixed_prec()
    sh, b = series._below(eps)
    lhs, h = _norm(s) << sh, h << wp
    total = peak = small = used = run = 0
    last = prev = None
    settled = True
    for e in terms:
        total, used, prev, last = total + e, used + 1, last, e
        mag = _norm(e)
        peak = max(peak, mag)
        if mag * lhs < b * (_norm(h + s * total) or 1 << 4 * wp):
            run, small = run + 1, max(small, mag)
            if run == 3:
                break
        else:
            run = small = 0
        if used >= limit:
            settled = False
            break
    return total, peak, used, last, prev, small, settled


def _scaled(wp):
    """m 2^k at scale 2^wp, an int or a Gauss value: from far below a unit to far above 1."""
    part = st.builds(lambda m, k: m << wp + k if wp + k >= 0 else m >> -wp - k,
                     st.integers(-2**24, 2**24), st.integers(-260, 30))
    return st.one_of(part, st.builds(lambda re, im: Gauss((re, im)), part, part))


def _streams(wp):
    """Random magnitudes, or terms falling by 0 to 6 bits each, which meet
    the small-term bound near its edge."""
    return st.one_of(st.lists(_scaled(wp), min_size=1, max_size=40), st.builds(
        lambda k, drops, ms: [m << wp + k - d if wp + k >= d else m >> d - wp - k
                              for d, m in zip(itertools.accumulate(drops), ms)],
        st.integers(-40, 30), st.lists(st.integers(0, 6), min_size=1, max_size=40),
        st.lists(_VALUE, min_size=40, max_size=40)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([15, 30, 60]), st.integers(0, 12), st.booleans())
def test_tail_sum_decides_as_the_exact_comparison(data, digits, zero_at, zero_t_k):
    # for a summed tail (s = t_k, h = head), the bit-length pre-decision gives
    # the results of the exact comparisons: terms from far below eps to far
    # above 1, t_k = 0, and a head with head + t_k total = 0 after the first
    # zero_at terms (the test's 1)
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        wp = fixed_prec()
        terms = data.draw(_streams(wp))
        t_k, head = data.draw(_scaled(wp)), data.draw(_scaled(wp))
        if zero_t_k:
            t_k = 0
        elif zero_at <= len(terms):
            c = data.draw(st.one_of(st.integers(1, 2**40), st.builds(
                lambda re, im: Gauss((re, im)), st.integers(-99, 99), st.integers(1, 99))))
            t_k, head = c << wp, -c * sum(terms[:zero_at])
        limit = data.draw(st.integers(1, 45))
        got = partial_sum(iter(terms), ctx.eps(), limit, t_k, head)
        want = _exact_partial_sum(iter(terms), ctx.eps(), limit, t_k, head)
    assert _pairs(got) == _pairs(want)


def test_tail_sum_under_a_head_far_above_its_terms():
    # |t_k e| < eps |head| for every term: small on the head's size alone,
    # where the pre-decision's bound for the head is the one that binds
    ctx = PrecisionContext(digits=15)
    with ctx.working():
        one = 1 << fixed_prec()
        terms, t_k, head = [one >> k for k in range(5)], one >> 52, one << 100
        got = partial_sum(iter(terms), ctx.eps(), 10, t_k, head)
        assert got == _exact_partial_sum(iter(terms), ctx.eps(), 10, t_k, head)
    assert got[2] == 3 and got[5] == one * one and got[6]


def test_tail_sum_reads_a_term_at_its_least_bit_length():
    # a term of bit length B may be as small as |e|^2 = 2^(2B - 2), all the
    # pre-decision may assume: here e = 2^18 is small on the exact products
    # against an aligned head and s total, by less than reading |e|^2 at its
    # largest, 2^(2B + 1), would take away
    ctx = PrecisionContext(digits=15)
    with ctx.working():
        s, h = Gauss((-2**162, 2**163 - 1)), Gauss((2**147 - 1, 2**147 - 1))
        terms = [Gauss((2**99 - 2**18, 1 - 2**100)), 2**18]
        got = partial_sum(iter(terms), ctx.eps(), 5, s, h)
        assert got == _exact_partial_sum(iter(terms), ctx.eps(), 5, s, h)
    assert got[5] == 2**36  # e was small


def _plain_rule_sum(terms, stop_eps, limit):
    """(total, used, last, prev, settled) of a plain sum that stops on three
    terms in a row with |t|^2 2^s < b (|total|^2 or 2^(2W)), (s, b) =
    `series._below(stop_eps)`, exact in ints."""
    wp = fixed_prec()
    total, used, run, last, prev, settled = 0, 0, 0, None, None, True
    if stop_eps:
        sh, b = series._below(stop_eps)
    for t in terms:
        total, used, prev, last = total + t, used + 1, last, t
        if stop_eps:
            if _norm(t) << sh < b * (_norm(total) or 1 << 2 * wp):
                run += 1
                if run >= 3:
                    break
            else:
                run = 0
        if used >= limit:
            settled = False
            break
    return total, used, last, prev, settled


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([15, 30, 60]), st.booleans(), st.booleans(), st.booleans())
def test_plain_sum_keeps_the_plain_rule(data, digits, cplx, rule, tie):
    # s = 1 and h = 0, given or by default, stop where |t| < eps (|total| or 1)
    # does: real and complex streams with zero terms, the rule on and off, and
    # a limit on the stopping term (the third small one or the stream's last)
    # or anywhere
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        wp, eps = fixed_prec(), ctx.eps() if rule else 0
        terms = [Gauss(oracles.pair(t)) if cplx else oracles.pair(t)[0]
                 for t in data.draw(_streams(wp))]
        for i in data.draw(st.lists(st.integers(0, len(terms) - 1), max_size=4)):
            terms[i] = 0
        limit = (_plain_rule_sum(iter(terms), eps, len(terms) + 1)[1] if tie
                 else data.draw(st.integers(1, len(terms) + 1)))
        want = _plain_rule_sum(iter(terms), eps, limit)
        for args in ((), (1 << wp, 0)):
            stream = iter(terms)
            total, _, used, last, prev, _, settled = partial_sum(stream, eps, limit, *args)
            assert _pairs((total, used, last, prev, settled)) == _pairs(want)
            assert list(stream) == terms[used:]


_MP_PART = st.builds(lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
                     st.integers(-2**200, 2**200), st.integers(-300, 100))


def _fraction(v):
    sign, man, exp, _ = v._mpf_  # mpf.man_exp drops the sign
    return (-man if sign else man) * Fraction(2) ** exp


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_MP_PART, st.builds(lambda re, im: mp.make_mpc((re._mpf_, im._mpf_)), _MP_PART,
                                      _MP_PART)), st.integers(0, 400))
def test_dyadic_and_fixed_round_trip(x, wp):
    # dyadic is exact; to_fixed rounds each part halves up, and from_fixed
    # reads the value back exactly: an int for an mpf, a Gauss for an mpc
    gauss = isinstance(x, mpc)
    re, im = (_fraction(x.real), _fraction(x.imag)) if gauss else (_fraction(x), 0)
    n, s = dyadic(x)
    assert s >= 0 and _is(n, re * 2**s, im * 2**s, gauss)
    t = to_fixed(x, wp)
    assert _is(t, _round(re * 2**wp), _round(im * 2**wp), gauss)
    back = from_fixed(t, wp)
    t_re, t_im = _pair(t)
    assert isinstance(back, mpc) == (t_im != 0)
    assert (_fraction(back.real), _fraction(back.imag)) == (t_re / 2**wp, t_im / 2**wp)
    assert to_fixed(back, wp) == t


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the geometric route's three-small-terms stop ends a "
                          "sum whose terms dip and regrow near a lower pole")
def test_geometric_route_past_terms_that_regrow_near_a_lower_pole(ctx30):
    # 2F1(1, 1; -59 + 2^-60; 1/4) = 0.995798765791465235450616449575...: the
    # terms fall below eps and regrow up to k = 79; the direct route stops
    # after 47 terms, 2.2e-9 off
    c = Fraction(-59) + Fraction(1, 2**60)
    res = sum_unilateral(SeriesSpec((1, 1), (c,), Fraction(1, 4)), ctx30)
    with mp.workdps(200):
        exact = mpmath.hyp2f1(1, 1, mpf(c.numerator) / c.denominator, mpf(1) / 4)
    assert abs(res.value - exact) <= mpf(10) ** -30 * abs(exact)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the geometric route's three-small-terms stop ends a "
                          "sum of plain decimal parameters whose terms regrow near a lower pole")
def test_geometric_route_on_decimal_input_past_terms_that_regrow(ctx30):
    # 2F1(1.046875, 2.671875; -192.9375; 1/2) = -120737834.10899522901...: the
    # terms fall below eps by k = 32 and regrow past 1e8 near k = 193, where
    # c + 193 = 1/16; the direct route stops after 32 terms at 0.99282...
    ups, lows, z = (1.046875, 2.671875), (-192.9375,), 0.5
    res = sum_unilateral(SeriesSpec(ups, lows, z), ctx30)
    with mp.workdps(120):  # the terms summed past the regrowth, not a low-precision hyp2f1
        exact = mpf(0)
        for k, t in enumerate(oracles.term_stream([mpf(a) for a in ups], [mpf(lows[0])], mpf(z))):
            exact += t
            if k > 193 and abs(t) < mpf(10) ** -60 * abs(exact):
                break
    assert abs(res.value - exact) <= mpf(10) ** -30 * abs(exact)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: near a pole of the Gauss sum the Levin route returns "
                          "a value 57 times too large under a heuristic err_estimate of 5e-70")
def test_levin_route_near_a_pole_of_the_gauss_sum(ctx30):
    # 2F1(-1227/16, -2277/64; -3571/32; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b))
    # = 3.2778623327894251673e-33; the Levin route returns 1.89e-31, 57 times
    # too large, with err_estimate 5.4e-70
    params = Fraction(-1227, 16), Fraction(-2277, 64), Fraction(-3571, 32)
    res = sum_unilateral(SeriesSpec(params[:2], params[2:], 1), ctx30)
    with mp.workdps(80):
        a, b, c = (mpf(x.numerator) / x.denominator for x in params)
        exact = mpmath.gammaprod([c, c - a - b], [c - a, c - b])
        err = abs(res.value - exact)
    assert err <= mpf(10) ** -30 * abs(exact)
    assert res.err_estimate >= err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: on large parameters the Levin route returns a value "
                          "off by a factor 44 under a heuristic err_estimate of 4e-52")
def test_levin_route_on_large_parameters_of_the_gauss_sum(ctx30):
    # 2F1(-5.640625, -92.515625; -95.140625; 1) = -4.25582581219351283197e-11;
    # the Levin route returns -9.66398076799913e-13 with err_estimate 3.98e-52
    params = Fraction(-361, 64), Fraction(-5921, 64), Fraction(-6089, 64)
    res = sum_unilateral(SeriesSpec(params[:2], params[2:], 1), ctx30)
    with mp.workdps(80):
        a, b, c = (mpf(x.numerator) / x.denominator for x in params)
        exact = mpmath.gammaprod([c, c - a - b], [c - a, c - b])
        err = abs(res.value - exact)
    assert err <= mpf(10) ** -30 * abs(exact)
    assert res.err_estimate >= err


def test_levin_term_that_rounds_to_zero_hands_the_sum_to_the_factorial_tail(ctx30):
    # 2F1(-156.65625, -131.90625; -283.125; 1) = -1.93836981447928065e-94: a
    # Levin term rounds to 0 at the table's precision, the table raises
    # AccelerationFailed, and direct+tail gives Gauss's closed form
    params = Fraction(-5013, 32), Fraction(-4221, 32), Fraction(-2265, 8)
    res = sum_unilateral(SeriesSpec(params[:2], params[2:], 1), ctx30)
    assert res.method == "direct+tail"
    with mp.workdps(80):
        a, b, c = (mpf(x.numerator) / x.denominator for x in params)
        exact = mpmath.gammaprod([c, c - a - b], [c - a, c - b])
        assert abs(res.value - exact) <= mpf(10) ** -30 * abs(exact)
