import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from hyperid.errors import (
    BudgetExceeded,
    DivergentError,
    IndeterminateError,
    LowerPoleError,
    NotConvergent,
    PoleError,
)
from hyperid.gammafn import gamma_ratio
from hyperid.precision import PrecisionContext, to_mp
from hyperid.qseries import QContext, QSeriesSpec, sum_q_series
from hyperid.series import (
    SeriesSpec,
    classify,
    partial_sum,
    split_bilateral,
    sum_bilateral,
    sum_unilateral,
    tail_bound_algebraic,
)

from oracles import brute_bilateral_h


def test_classify_terminating():
    cls = classify(SeriesSpec((mpf("0.3"), mpf("1.7"), -5), (mpf("2.2"), mpf("4.1")), 1))
    assert cls.tag == "terminating" and cls.n == 5
    # minimal index wins
    cls = classify(SeriesSpec((-7, -2), (mpf("3.5"),), 1))
    assert cls.n == 2


def test_classify_algebraic():
    cls = classify(SeriesSpec((1, 1), (3,), 1))
    assert cls.tag == "algebraic"
    assert abs(cls.exponent - 2) < 1e-12


def test_classify_bilateral_exponent():
    # 2H2 at z=1 decays like k^-(c+d-a-b); condition Re(c+d-a-b) > 1
    a, b = mpf("0.5"), mpf("0.25")
    c, d = a + 12, b + 8
    cls = classify(SeriesSpec((a, b), (c, d), 1, "bilateral"))
    assert cls.tag == "algebraic"
    assert abs(cls.exponent - 20) < 1e-12
    # below the threshold: divergent
    cls2 = classify(SeriesSpec((a, b), (a + mpf("0.5"), b + mpf("0.25")), 1, "bilateral"))
    assert cls2.tag == "divergent"


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


def test_lower_pole_error(ctx30):
    with pytest.raises(LowerPoleError):
        sum_unilateral(SeriesSpec((mpf("0.5"), mpf("0.5")), (-2,), mpf("0.3")), ctx30)
    # terminating before the pole is fine
    sum_unilateral(SeriesSpec((-1, mpf("0.5")), (-2,), 1), ctx30)
    # pole before termination is not
    with pytest.raises(LowerPoleError):
        sum_unilateral(SeriesSpec((-5, mpf("0.5")), (-2,), 1), ctx30)


def test_budget_exceeded():
    ctx = PrecisionContext(digits=30, max_terms=1000)
    with pytest.raises(BudgetExceeded):
        sum_unilateral(SeriesSpec((1,), (), mpf("0.999")), ctx)


def test_partial_sum_contract(ctx30):
    with ctx30.working():
        tiny = mpf(10) ** -50
        # a big term resets the run; the sum stops on the third small term
        terms = iter([mpf(1), tiny, tiny, mpf(-5), tiny, 2 * tiny, 3 * tiny, mpf(9)])
        total, peak, used, last, prev, settled = partial_sum(terms, ctx30, 100)
        assert settled and used == 7
        assert (last, prev) == (3 * tiny, 2 * tiny)
        assert peak == 5 and total == mpf(-4) + 8 * tiny
        assert next(terms) == 9
        # the limit stops an unsettled sum and leaves the stream after it
        terms = iter([mpf(k) for k in range(1, 100)])
        total, peak, used, last, prev, settled = partial_sum(terms, ctx30, 10)
        assert not settled and used == 10
        assert (total, peak, last, prev) == (55, 10, 10, 9)
        assert next(terms) == 11


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


def test_bilateral_error_cases(ctx30):
    # decay exponent (0.75 + 1.25) - (0.5 + 0.5) = 1 is not > 1
    with pytest.raises(NotConvergent):
        sum_bilateral(SeriesSpec((mpf("0.5"), mpf("0.5")), (mpf("0.75"), mpf("1.25")), 1, "bilateral"), ctx30)
    with pytest.raises(IndeterminateError):
        split_bilateral(SeriesSpec((1, mpf("0.5")), (1, mpf("7.5")), 1, "bilateral"), ctx30)
    with pytest.raises(PoleError):
        split_bilateral(SeriesSpec((1, mpf("0.5")), (mpf("3.5"), mpf("7.5")), 1, "bilateral"), ctx30)


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
    cls = classify(spec)
    assert cls.tag == "terminating"
    res = sum_bilateral(spec, ctx30)
    brute, _, _ = brute_bilateral_h([-2, 0.5], [3, 7.5], 10)
    assert abs(float(res.value) - brute) < 1e-13 * max(1.0, abs(brute))


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


def test_tail_bound_examples():
    with mp.workdps(40):
        v = tail_bound_algebraic(40, 20, mpf(40) ** -20)
        assert abs(v - mpf(40) ** -19 / 19) < mpf(10) ** -40
        assert tail_bound_algebraic(1, 2, 1) == 1
        # bound decreases as s grows
        assert tail_bound_algebraic(40, 200, mpf(40) ** -20) < v


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=10_000),
    s_num=st.integers(min_value=65, max_value=2000),
    mag_exp=st.integers(min_value=-30, max_value=0),
)
def test_tail_bound_monotone(k, s_num, mag_exp):
    with mp.workdps(30):
        s = Fraction(s_num, 64)  # > 1
        mag = mpf(10) ** mag_exp
        base = tail_bound_algebraic(k, s, mag)
        assert tail_bound_algebraic(k + 1, s, mag) >= base * mpf(k) / (k + 1) - mpf(10) ** -40
        assert tail_bound_algebraic(k, s + 1, mag) <= base
        assert tail_bound_algebraic(k, s, mag / 2) <= base


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        tail_bound_algebraic(0, 2, 1)
    with pytest.raises(ValueError):
        tail_bound_algebraic(5, 1, 1)


_HALF = Fraction(1, 2)


@pytest.mark.parametrize("uppers, lowers, z, q", [
    ((5, 5), (1,), _HALF, None),
    ((Fraction(5, 2), Fraction(7, 2)), (_HALF,), Fraction(9, 10), None),  # ratio falls to |z|
    ((1,), (2,), 2, None),
    ((1,), (2,), -10, None),
    ((_HALF,), (Fraction(3, 2), Fraction(5, 2)), -30, None),
    ((_HALF,), (Fraction(1, 4),), 3, _HALF),
    ((_HALF, Fraction(3, 10)), (Fraction(1, 4), Fraction(7, 10)), -5, _HALF),
], ids=["2F1(5,5;1;1/2)", "2F1(5/2,7/2;1/2;9/10)", "1F1(1;2;2)", "1F1(1;2;-10)",
        "1F2(1/2;3/2,5/2;-30)", "1phi1(1/2;1/4;1/2,3)", "2phi2(1/2,3/10;1/4,7/10;1/2,-5)"])
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
