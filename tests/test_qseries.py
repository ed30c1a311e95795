import itertools
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, mpf_div, round_nearest

from hyperid import qseries
from hyperid.errors import (
    BudgetExceeded,
    DivisionByZero,
    DomainError,
    IndeterminateError,
    LowerPoleError,
    PoleError,
)
from hyperid.precision import INF, PrecisionContext, fixed_prec, to_mp
from hyperid.qseries import (
    QContext,
    QSeriesSpec,
    principal_sqrt,
    q_bracket,
    q_pochhammer,
    split_psi,
    sum_q_series,
)
from hyperid.series import Gauss, dyadic, mp_parameters

import oracles
from oracles import gmul
from oracles import brute_bilateral_psi


def _raw(q):
    """The raw mpmath tuple by which `qseries._euler_row` looks a nome up."""
    return getattr(q, "_mpc_", None) or q._mpf_


@pytest.fixture(scope="module")
def qc_half(ctx30):
    return QContext(Fraction(1, 2), ctx30)


def test_qpoch_basics(qc_half, ctx30):
    assert q_pochhammer(0, qc_half, INF) == 1
    # a finite (x;q)_n is the bracket of [x] over [x q^n]: (x;q)_0 and (0;q)_5
    assert q_bracket([mpf("0.37")], [mpf("0.37")], qc_half) == 1
    assert q_bracket([0], [0], qc_half) == 1


def test_qpoch_infinite_value(qc_half, ctx30):
    # oracle: direct partial product at extended precision
    with mp.workdps(60):
        q = mpf(1) / 2
        prod = mpf(1)
        for i in range(220):
            prod *= 1 - q ** (i + 1)
    v = q_pochhammer(Fraction(1, 2), qc_half, INF)
    with mp.workdps(50):
        assert abs(v - prod) < mpf(10) ** -38
        assert abs(v - mpf("0.2887880950866")) < mpf(10) ** -13


def _rel_err_vs_qp(x, qc):
    """|q_pochhammer(x, qc, INF) / (x;q)_inf - 1| in units of the working
    eps, against mpmath.qp at twice the working precision. The oracle takes
    x and q as q_pochhammer does, rounded to the working precision, so that
    a product sensitive to the last bit of a non-dyadic q is not charged for
    that rounding."""
    ctx = qc.ctx
    v = q_pochhammer(x, qc, INF)
    with ctx.working():
        x, q = to_mp(x), to_mp(qc.q)
    with mp.workdps(2 * ctx.dps):
        exact = mpmath.qp(x, q)
        return abs(v - exact) / abs(exact) / ctx.eps()


@pytest.mark.parametrize("x, q", [
    (Fraction(-45, 8), Fraction(1, 2)),
    (1 - Fraction(1, 2**30), Fraction(3, 4)),
    (Fraction(1, 3), Fraction(51, 64)),
    (Fraction(231, 32), Fraction(7, 64)),
    (Fraction(187, 16), Fraction(2, 3)),
    (mpc("0.75", "-1.5"), Fraction(1, 2)),
    (mpc("-3.25", "0.125"), Fraction(5, 8)),
    (Fraction(-3, 4), mpc("0.3", "0.2")),
    (Fraction(5, 2), mpc("-0.1", "0.6")),
    # the finite product runs while |x q^i| >= 1/2, Euler's series after it
    (Fraction(1, 2), Fraction(3, 4)),
    (Fraction(-1, 2), Fraction(3, 4)),
    (Fraction(1, 2) - Fraction(1, 2**80), Fraction(3, 4)),
    (Fraction(1, 2) + Fraction(1, 2**80), Fraction(3, 4)),
    (Fraction(2, 3), Fraction(3, 4)),
    (Fraction(2, 3) - Fraction(1, 2**80), Fraction(3, 4)),
    (Fraction(2, 3) + Fraction(1, 2**80), Fraction(3, 4)),
    (Fraction(-2, 3), Fraction(3, 4)),
    (mpc(0, "0.5"), Fraction(3, 4)),
    (mpc("-0.5", 0), mpc(0, "0.75")),
    (mpc(0, "-0.6667"), mpc(0, "0.75")),
    (Fraction(1, 2), mpc("0.5", "0.5")),
    # |x| >= 1/2 with both parts below 1/2: a head factor, which Euler's
    # series at q near 1 could not stand in for
    (mpc("0.4921875", "0.4921875"), Fraction(31, 32)),
    # q = 0: (x;0)_inf = 1 - x, with y = x q = 0 after the switch
    (Fraction(3, 4), 0),
    (Fraction(1, 4), 0),
], ids=["x<0", "x just below 1", "q large", "x well above 1", "x above 1, q=0.67",
        "complex x", "complex x, q=0.625", "complex q", "x above 1, complex q",
        "x=1/2", "x=-1/2", "x just below 1/2", "x just above 1/2", "x=1/(2q)",
        "x just below 1/(2q)", "x just above 1/(2q)", "x=-1/(2q)", "complex x, |x|=1/2",
        "x=-1/2, complex q", "complex x near 1/(2q), complex q", "x=1/2, complex q",
        "complex x, parts below 1/2, q near 1",
        "q=0, x=3/4", "q=0, x=1/4"])
@pytest.mark.parametrize("digits", [30, 60])
def test_qpoch_infinite_against_mpmath(x, q, digits):
    qc = QContext(q, PrecisionContext(digits=digits))
    assert _rel_err_vs_qp(x, qc) < 1
    _assert_product_bound(x, qc)


def _assert_product_bound(x, qc):
    """The stated rounding of one product: within 2^-prec (1 + (m + 6) 2^-10)
    of (x;q)_inf, relative, for the m head factors |x q^i| >= 1/2, against
    mpmath.qp at twice the working precision on x and q as given."""
    ctx = qc.ctx
    v = q_pochhammer(x, qc, INF)
    with ctx.working():
        x, q, prec = to_mp(x), to_mp(qc.q), mp.prec
    with mp.workprec(2 * prec):
        m = next(i for i in itertools.count() if abs(x * q**i) < mpf(1) / 2)
        exact = mpmath.qp(x, q)
        assert v != 0 and exact != 0
        assert abs(v - exact) <= abs(exact) * mpf(2) ** -prec * (1 + (m + 6) * mpf(2) ** -10)


def test_qpoch_infinite_exact_cases(qc_half, ctx30):
    # 1 - 2 (1/2) vanishes exactly: the product is an exact zero
    assert q_pochhammer(2, qc_half, INF) == 0
    assert q_pochhammer(mpc(2, 0), qc_half, INF) == 0
    for zero in (0, mpc(0, 0)):
        v = q_pochhammer(zero, qc_half, INF)
        assert v == 1 and isinstance(v, mpf)
    # q = 1 - 2^-20 needs about 2^20 * 92 factors, past the loop's budget,
    # and the guard bits of Euler's series alone take about 2^20 * 60 steps,
    # so the guard's loop fails at once
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        q_pochhammer(Fraction(1, 2), QContext(1 - Fraction(1, 2**20), ctx30), INF)
    assert time.perf_counter() - start < 0.5


def test_qpoch_infinite_head_past_the_budget_fails_at_once(qc_half, ctx30):
    # 1e20000 needs about 66,440 head factors at q = 1/2, past the budget of
    # 13,981 left beside the Euler row: it fails before stepping any of them
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        q_pochhammer(mpf("1e20000"), qc_half, INF)
    assert time.perf_counter() - start < 0.1
    # 1e3000 steps its 9,967 factors and keeps every bit of its product
    v = q_pochhammer(mpf("1e3000"), qc_half, INF)
    assert v._mpf_ == (0, 68764168138005246780262092428230762056241, 49663269, 136)
    # at the edge: 2^N q^N = 1 is the last factor the budget leaves room for,
    # an exact zero, and 2^(N+1) needs one factor more
    with ctx30.working():
        budget = 100 * ctx30.dps + 10000
        n = budget - len(qseries._euler_row(_raw(to_mp(qc_half.q)), mp.prec, budget)[2])
    assert n == 13981
    assert q_pochhammer(mpf(2) ** n, qc_half, INF) == 0
    with pytest.raises(BudgetExceeded):
        q_pochhammer(mpf(2) ** (n + 1), qc_half, INF)
    # 1.5 2^N passes the float bound, which counts only the factors with
    # |x q^i| > 1; the head loop steps on while |x q^i| >= 1/2, and its own
    # guard stops it at factor N + 1
    with pytest.raises(BudgetExceeded):
        q_pochhammer(3 * mpf(2) ** (n - 1), qc_half, INF)


def test_euler_row_longer_than_its_budget():
    # q = 1/2's guard bits settle in 60 steps, within a budget of 100; the
    # row runs to 65 entries at 2000 bits, but to 201 at 20000 bits, where
    # the row's own guard stops it. Through q_pochhammer, whose budget is
    # 100 dps + 10000, a row never gets that long: the guard bits' loop
    # fails first
    assert len(qseries._euler_row(_raw(mpf(0.5)), 2000, 100)[2]) == 65
    with pytest.raises(BudgetExceeded, match="^infinite q-product failed to truncate$"):
        qseries._euler_row(_raw(mpf(0.5)), 20000, 100)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    xnum=st.integers(min_value=-512, max_value=512),
    qnum=st.integers(min_value=7, max_value=51),
    digits=st.sampled_from([30, 60]),
)
def test_qpoch_infinite_error_property(xnum, qnum, digits):
    # one dyadic product in x in [-8, 8], q in [7/64, 51/64] is within one
    # working eps of mpmath.qp
    qc = QContext(Fraction(qnum, 64), PrecisionContext(digits=digits))
    x = Fraction(xnum, 64)
    if q_pochhammer(x, qc, INF) == 0:
        # x = q^-i for some i: a factor vanishes exactly
        with mp.workdps(2 * qc.ctx.dps):
            assert mpmath.qp(to_mp(x), to_mp(qc.q)) == 0
        return
    assert _rel_err_vs_qp(x, qc) < 1


def _exact_row_entry(q, n):
    """c_n = (-1)^n q^C(n,2) / (q;q)_n for a dyadic q given as an (re, im)
    pair of Fractions, as such a pair."""
    num, den, qi = (Fraction((-1) ** n), Fraction(0)), (Fraction(1), Fraction(0)), q
    for _ in range(n * (n - 1) // 2):
        num = gmul(num, q)
    for _ in range(n):
        den, qi = gmul(den, (1 - qi[0], -qi[1])), gmul(qi, q)
    norm = den[0] ** 2 + den[1] ** 2
    re, im = gmul(num, (den[0], -den[1]))
    return re / norm, im / norm


@pytest.mark.parametrize("q", [
    Fraction(1, 2), Fraction(3, 4), Fraction(51, 64), Fraction(7, 64), Fraction(-5, 8),
    Fraction(-1, 2), 0, mpc("0.25", "0.5"), mpc("-0.375", "0.625"),
], ids=str)
@pytest.mark.parametrize("digits", [30, 60])
def test_euler_row_entries_against_fractions(q, digits):
    # each entry within half a unit 2^-wp (plus the (n + 1) 2^-30 units the
    # row's docstring allows) of the exact c_n in each part, each bound
    # b_n >= log2 |c_n|, and the row cut at the first n with b_n - n < -wp
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        qm = to_mp(q)
        wp, _, row, _ = qseries._euler_row(_raw(qm), mp.prec, 100 * ctx.dps + 10000)
    n, s = dyadic(qm)
    exact_q = tuple(Fraction(v, 2**s) for v in oracles.pair(n))
    for n, (entry, b) in enumerate(row):
        c = _exact_row_entry(exact_q, n)
        for got, want in zip(oracles.pair(entry), c):
            assert abs(got - want * 2**wp) <= Fraction(1, 2) + Fraction(n + 1, 2**30)
        assert c[0] ** 2 + c[1] ** 2 < Fraction(2) ** (2 * b)
        assert (b - n < -wp) == (n == len(row) - 1)


def test_qpoch_infinite_integer_x(ctx30):
    # an integer x has exponent 0 in its dyadic form, before and after the
    # head (q = 0 keeps it 0)
    for x, q in ((3, Fraction(1, 2)), (-2, Fraction(3, 4)), (5, Fraction(1, 4)), (3, 0), (-7, 0)):
        _assert_product_bound(x, QContext(q, ctx30))
    assert q_pochhammer(1, QContext(0, ctx30), INF) == 0
    assert q_pochhammer(4, QContext(Fraction(1, 4), ctx30), INF) == 0


@pytest.mark.parametrize("digits", [30, 60])
def test_qpoch_infinite_one_unit_off_a_zero(digits):
    # x = q^-i (1 +- 2^-prec), held exactly in an mpf of more bits: the
    # factor 1 - x q^i = -+2^-prec is no zero, and the product keeps its
    # relative precision
    ctx = PrecisionContext(digits=digits)
    for q in (Fraction(1, 2), Fraction(1, 4)):
        qc = QContext(q, ctx)
        with ctx.working():
            prec = mp.prec
        for i in (0, 1, 3):
            for sign in (1, -1):
                with mp.workprec(2 * prec):
                    x = (1 / to_mp(q)) ** i * (1 + sign * mpf(2) ** -prec)
                _assert_product_bound(x, qc)


def test_qpoch_infinite_mpf_wider_than_working(ctx30):
    # an x of three times the working precision enters the factors exactly
    with ctx30.working():
        prec = mp.prec
    with mp.workprec(3 * prec):
        xs = [mpf(7) / 3, -mpf(11) / 7, mpf(1) / 3, mpc(5, 1) / 3]
    for x in xs:
        for q in (Fraction(1, 2), Fraction(51, 64)):
            _assert_product_bound(x, QContext(q, ctx30))


@pytest.mark.parametrize("digits", [30, 60])
def test_qpoch_infinite_non_dyadic_q(digits):
    # q = 2/3 rounded to the working precision carries a mantissa of that many
    # bits, so the exact ratio's powers grow by it each step; a cold row
    # still takes milliseconds
    ctx = PrecisionContext(digits=digits)
    for q in (Fraction(2, 3), 0.3):
        qc = QContext(q, ctx)
        for x in (Fraction(7, 4), Fraction(-3, 2), Fraction(1, 3), Fraction(2, 5)):
            _assert_product_bound(x, qc)
        with ctx.working():
            qm = to_mp(q)
            start = time.perf_counter()
            qseries._euler_row.__wrapped__(_raw(qm), mp.prec, 100 * ctx.dps + 10000)
            assert time.perf_counter() - start < 0.05


def test_qpoch_infinite_negative_q(ctx30):
    for q in (Fraction(-1, 2), Fraction(-3, 4), Fraction(-51, 64)):
        qc = QContext(q, ctx30)
        for x in (Fraction(5, 2), Fraction(-9, 4), Fraction(1, 3), Fraction(3, 4)):
            _assert_product_bound(x, qc)
    # -2 q = 1 and 4 q^2 = 1 at q = -1/2
    qc = QContext(Fraction(-1, 2), ctx30)
    assert q_pochhammer(-2, qc, INF) == 0
    assert q_pochhammer(4, qc, INF) == 0


def test_qpoch_negative_index_forms(qc_half, ctx30):
    # (x;q)_-m = (x;q)_inf / (x q^-m;q)_inf against the variant
    # (-q/x)^m q^(m(m-1)/2) / (q/x;q)_m, both through infinite products
    with ctx30.working():
        q = mpf(1) / 2
        for x, m in ((mpf("0.3"), 3), (mpf("2.6"), 5), (mpf("-1.25"), 4)):
            mine = q_bracket([x], [x * q**-m], qc_half)
            variant = (-q / x) ** m * q ** (m * (m - 1) // 2) / q_bracket(
                [q / x], [q ** (m + 1) / x], qc_half)
            assert abs(mine - variant) <= abs(mine) * mpf(10) ** -35


def test_qpoch_errors(ctx30):
    with pytest.raises(DomainError):
        QContext(mpf("1.5"), ctx30)
    qc = QContext(Fraction(1, 2), ctx30)
    # x = q^2 makes (x q^-3;q)_inf = (2;q)_inf vanish, so (x;q)_-3 has none
    with pytest.raises(DivisionByZero):
        q_bracket([Fraction(1, 4)], [Fraction(1, 4) / qc.q**3], qc)


def test_qpoch_rejects_a_non_integer_index(ctx30):
    # only n = INF is evaluated, so neither int(n) nor a finite product takes
    # n = 2.5 or an int
    qc = QContext(0.5, ctx30)
    for n in (2.5, -2.5, 2, -2, 0):
        with pytest.raises(DomainError, match="n = INF only"):
            q_pochhammer(0.25, qc, n)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=-5, max_value=5),
    m=st.integers(min_value=-5, max_value=5),
    xnum=st.integers(min_value=-192, max_value=-16),
    qnum=st.integers(min_value=7, max_value=51),
)
def test_qpoch_functional_equation(n, m, xnum, qnum):
    # negative x keeps every factor 1 - x q^i away from zero
    ctx = PrecisionContext(digits=30)
    qc = QContext(Fraction(qnum, 64), ctx)
    x = Fraction(xnum, 64)
    with ctx.working():
        q = to_mp(qc.q)
        # (x;q)_n = (x;q)_inf / (x q^n;q)_inf
        lhs = q_bracket([x], [x * q ** (n + m)], qc)
        rhs = q_bracket([x], [x * q**n], qc) * q_bracket([x * q**n], [x * q ** (n + m)], qc)
        assert abs(lhs - rhs) <= abs(lhs) * mpf(10) ** -33


def test_qpoch_finite_vs_infinite_ratio(qc_half, ctx30):
    with ctx30.working():
        q = mpf(1) / 2
        for x in (mpf("0.45"), mpf("-2.3"), mpf("3.75")):
            for n in (1, 3, 6):
                fin = oracles.qpoch(x, q, n)
                ratio = q_bracket([x], [x * q**n], qc_half)
                assert abs(fin - ratio) <= abs(fin) * mpf(10) ** -35


def test_q_bracket_values(qc_half, ctx30):
    with ctx30.working():
        assert abs(q_bracket([mpf("0.8")], [mpf("0.8")], qc_half) - 1) < mpf(10) ** -38
        # (q;q)_inf / (q^2;q)_inf = 1 - q
        v = q_bracket([Fraction(1, 2)], [Fraction(1, 4)], qc_half)
        assert abs(v - mpf("0.5")) < mpf(10) ** -38
        assert q_bracket([1], [mpf("0.7")], qc_half) == 0
    with pytest.raises(DivisionByZero):
        q_bracket([mpf("0.3")], [1], qc_half)
    with pytest.raises(IndeterminateError):
        q_bracket([1], [1], qc_half)


def _bracket_reference(numers, denoms, qc):
    """`q_bracket` from `dyadic` of each `q_pochhammer` entry and mp zero tests."""
    with qc.ctx.working():
        nums = [q_pochhammer(x, qc, INF) for x in numers]
        dens = [q_pochhammer(y, qc, INF) for y in denoms]
        if 0 in dens:
            raise (IndeterminateError if 0 in nums else DivisionByZero)("zero entry")
        if 0 in nums:
            return mpf(0)
        pairs = [dyadic(v) for v in (*nums, *dens)]
        (pn, ps), (dn, ds) = ((math.prod(n for n, _ in vs), sum(s for _, s in vs))
                              for vs in (pairs[:len(nums)], pairs[len(nums):]))
        num, norm = pn * dn.conjugate(), from_man_exp(sum(v * v for v in oracles.pair(dn)), 0)
        re, im = (mpf_div(from_man_exp(v, ds - ps), norm, mp.prec, round_nearest)
                  for v in oracles.pair(num))
        return mp.make_mpc((re, im)) if isinstance(num, Gauss) else mp.make_mpf(re)


def _outcome(f, *args):
    try:
        v = f(*args)
    except (DivisionByZero, IndeterminateError) as exc:
        return type(exc)
    return type(v), getattr(v, "_mpc_", None) or v._mpf_


# an entry: a dyadic, a full-mantissa decimal, a complex value, or q^-k, which
# makes (x;q)_inf exactly 0
_ENTRY = st.one_of(
    st.integers(-64, 64).map(lambda n: Fraction(n, 32)),
    st.integers(-10**6, 10**6).map(lambda n: mpf(n) / 10**5),
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(lambda p: mpc(*p) / 16),
    st.integers(0, 3).map(lambda k: ("pole", k)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_ENTRY, max_size=5), st.lists(_ENTRY, max_size=5),
       st.sampled_from([Fraction(1, 2), Fraction(-3, 8), mpf("0.3"), mpc("0.3", "0.2"),
                        mpc(0, "-0.45")]), st.sampled_from([30, 60]))
def test_q_bracket_matches_the_dyadic_reference(numers, denoms, nome, digits):
    # the raw mantissa products give the reference's bits, its zero result, its
    # DivisionByZero and its IndeterminateError, for real and complex nomes
    qc = QContext(nome, PrecisionContext(digits=digits))
    with qc.ctx.working():
        q = to_mp(nome)
        numers, denoms = ([q ** -x[1] if isinstance(x, tuple) else x for x in xs]
                          for xs in (numers, denoms))
    assert _outcome(q_bracket, numers, denoms, qc) == _outcome(_bracket_reference, numers,
                                                               denoms, qc)


def test_q_bracket_zero_entries_and_a_complex_nome():
    # each case of the reference once: an exactly zero numerator entry, a zero
    # denominator entry, both, and a complex nome with a zero entry and without
    ctx = PrecisionContext(digits=30)
    for nome in (Fraction(1, 2), mpc("0.25", "0.25")):
        qc = QContext(nome, ctx)
        with ctx.working():
            zero = 1 / to_mp(nome) ** 2  # exactly q^-2: (q^-2;q)_inf has the factor 1 - q^-2 q^2
        for numers, denoms, want in (([zero, mpf("0.3")], [mpf("0.7")], "zero"),
                                     ([mpf("0.3")], [mpf("0.7"), zero], DivisionByZero),
                                     ([zero], [zero], IndeterminateError),
                                     ([mpf("0.3"), mpc("0.1", "-0.7")], [mpf("0.7")], "value")):
            got = _outcome(q_bracket, numers, denoms, qc)
            assert got == _outcome(_bracket_reference, numers, denoms, qc)
            assert got == want if want in (DivisionByZero, IndeterminateError) else (
                (got[1] == mpf(0)._mpf_) == (want == "zero"))


_MAGNITUDE = st.builds(
    lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
    st.one_of(st.just(0), st.integers(-2**20, 2**20), st.builds(  # mantissas of 64 to 120 bits
        lambda hi, lo, sign: sign * (hi << 64 | lo), st.integers(1, 2**56),
        st.integers(0, 2**64 - 1), st.sampled_from([1, -1]))),
    st.integers(-1300, 1300))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_MAGNITUDE, st.builds(lambda re, im: mp.make_mpc((re._mpf_, im._mpf_)),
                                       _MAGNITUDE, _MAGNITUDE)))
def test_log_abs_is_the_log_of_the_float_of_abs(v):
    # 0, mantissas past 53 bits (rounded to nearest), values beyond the float
    # range either way (inf and 0.0) and within 2^-53 of 1: the float logs
    # that K and n are read from, mpmath's where the float is 0, 1 or inf
    with PrecisionContext(digits=30).working():
        f = float(abs(v))
        want = math.log(f) if 0 < f < math.inf and f != 1 else float(mpmath.log(abs(v)))
        assert qseries._log_abs(v) == want


def _magnitudes():
    two = mpf(2)
    return [mpf(0), two**-1100, 1 - two**-60, mpf(1), 1 + two**-60, two**1100, mpf(10) ** 400,
            mpc(-3, 4)]


def test_log_abs_edges():
    with mp.workdps(50):
        for v in _magnitudes():
            got, want = qseries._log_abs(v), float(mpmath.log(abs(v)))
            assert got == want if v != mpc(-3, 4) else math.isclose(got, want, rel_tol=2**-52), v


# n = _terminating_index([a], q, eps) and K = _head_length at 30 digits for q
# in the rows (0, 2^-1100, 1 - 2^-60, 1/2, -1/4, 0.375 - 0.5i) and a in the
# columns (`_magnitudes`), as both float readers decided them before they
# became one, `_log_abs`: 2^1100 is q^-1, q^-1100 and q^-550 of rows 2, 4 and 5
_TERMINATING_TABLE = [
    [None, None, None, 0, None, None, None, None],
    [None, None, None, 0, None, 1, None, None],
    [None, None, None, 0, None, None, None, None],
    [None, None, None, 0, None, 1100, None, None],
    [None, None, None, 0, None, 550, None, None],
    [None, None, None, 0, None, None, None, None],
]
_HEAD_TABLE = [
    [1] * 8,
    [1] * 8,  # |q| is 0 as a float
    [3196577161300663808] * 5 + [882255296518983254016, 1065076525121297448960,
                                 5052132740875489280],
    [3, 3, 4, 4, 4, 1104, 1333, 7],
    [1, 1, 2, 2, 2, 552, 667, 4],
    [5, 5, 6, 6, 6, 1629, 1966, 10],
]


def test_float_log_readers_keep_their_table():
    ctx = PrecisionContext(digits=30)
    with ctx.working():
        quarter = mpf(1) / 4
        qs = _magnitudes()[:3] + [mpf(1) / 2, -quarter, mpc("0.375", "-0.5")]
        for q, ns, ks in zip(qs, _TERMINATING_TABLE, _HEAD_TABLE):
            for a, n, k in zip(_magnitudes(), ns, ks):
                assert qseries._terminating_index([a], q, ctx.eps()) == n, (q, a)
                assert qseries._head_length([a], [quarter], q) == k, (q, a)
                assert qseries._head_length([quarter], [a], q) == k, (q, a)


def _omega_bracket(a, c, d, e, f, q):
    """The q-bracket entries of the omega entry's closed form."""
    return ([q, q * a / c, q * a / d, q * a / e, q * a / f, q * c * d * e * f / a],
            [q * a, q * c, q * d, q * e, q * f, q * a * a / (c * d * e * f)])


@pytest.mark.parametrize("seed, index", [(35, 40), (1, 0), (1, 7), (1, 23)])
def test_q_bracket_rounds_its_quotient_once(seed, index):
    # against mpmath.qp at three times the digits: after the entries' own
    # errors (to first order), one rounding of the quotient is left, within
    # 2^-prec relative; the omega bracket at seed 35, index 40 was 1.7 units
    # past its entries when the products were rounded one factor at a time
    from hyperid.catalog import CATALOG
    from hyperid.harness import sample_parameters

    ctx = PrecisionContext(digits=30)
    p = sample_parameters(CATALOG["omega"], seed, index)
    q = p.pop("q")
    cases = [(*_omega_bracket(*(p[k] for k in "acdef"), q), q),
             # a complex nome: one rounding in each part
             ([mpf("0.3"), mpc("0.1", "-0.7")], [mpc("-0.2", "0.4")], mpc("0.3", "0.2"))]
    for numers, denoms, nome in cases:
        qc = QContext(nome, ctx)
        with ctx.working():
            value, prec = q_bracket(numers, denoms, qc), mp.prec
            xs, ys, qq = [to_mp(x) for x in numers], [to_mp(y) for y in denoms], to_mp(nome)
            entries = [q_pochhammer(x, qc, INF) for x in xs], [q_pochhammer(y, qc, INF) for y in ys]
        with mp.workdps(3 * ctx.dps):
            refs = [mpmath.qp(x, qq) for x in xs], [mpmath.qp(y, qq) for y in ys]
            ref = mpmath.fprod(refs[0]) / mpmath.fprod(refs[1])
            first = (sum(v / r - 1 for v, r in zip(entries[0], refs[0]))
                     - sum(v / r - 1 for v, r in zip(entries[1], refs[1])))
            # a complex quotient rounds each part, within sqrt(2) 2^-prec of it
            bound = mpf(2) ** -prec * (1.5 if isinstance(ref, mpc) else 1)
            assert abs(value / ref - 1 - first) <= bound


def test_sum_phi_z_zero(qc_half):
    res = sum_q_series(QSeriesSpec((mpf("0.5"), mpf("0.25")), (mpf("0.75"),), 0, "phi"), qc_half)
    assert res.value == 1


def test_sum_phi_domain_error(qc_half):
    with pytest.raises(DomainError):
        sum_q_series(QSeriesSpec((mpf("0.5"), mpf("0.25")), (mpf("0.75"),), mpf("1.5"), "phi"), qc_half)


def test_a_terminating_phi_index_past_the_budget_fails_before_the_first_term(monkeypatch):
    # the upper 2^n = q^-n ends the sum at term n: n = 998 sums in 999 terms
    # under a budget of 1000, n = 999 and past fail before a term stream is built
    qc = QContext(Fraction(1, 2), PrecisionContext(max_terms=1000))
    assert sum_q_series(QSeriesSpec((2**998,), (), 1, "phi"), qc).terms_used == 999
    monkeypatch.setattr(qseries, "q_ratio_terms", lambda *a, **k: pytest.fail("a stream was built"))
    for n in (999, 4000):
        with pytest.raises(BudgetExceeded, match="^direct summation needs more than 1000 terms$"):
            sum_q_series(QSeriesSpec((2**n,), (), 1, "phi"), qc)


def test_sum_phi_budget_exceeded():
    # at q = 0.999 the head alone is K = 2771 terms (0.999^K 0.999 <= 1/16),
    # past a budget of 1000, and its first 1000 terms do not settle
    qc = QContext(0.999, PrecisionContext(max_terms=1000))
    with pytest.raises(BudgetExceeded):
        sum_q_series(QSeriesSpec((0.5,), (), 0.999, "phi"), qc)


def test_sum_phi_near_one_within_a_small_budget():
    # 1phi0(1/2;;1/2, 0.999) = (0.4995;q)_inf / (0.999;q)_inf: its terms
    # fall by 0.999 a step, but the head is K = 3 terms and the tail a few
    # dozen, well inside a budget of 1000
    ctx = PrecisionContext(max_terms=1000)
    res = sum_q_series(QSeriesSpec((0.5,), (), 0.999, "phi"), QContext(0.5, ctx))
    assert (res.method, res.terms_used) == ("direct+tail", 3)
    with mp.workdps(2 * ctx.dps):
        z, q = mpf(0.999), mpf(0.5)
        exact = mpmath.qp(z / 2, q) / mpmath.qp(z, q)
        assert abs(res.value - exact) <= mpf(10) ** -ctx.dps * abs(exact)


def test_balanced_phi_head_sums_past_a_dip(ctx30):
    # 3phi2(9/32, -17/64, 109/64; 161/64, -61/64; q = 63/64, z = 9/32): its
    # terms fall to 1e-38 of the sum of 50.75 at k = 52 and climb back to
    # 2.3e-34 at k = 68 (161/64 (63/64)^k nears 1 at k = 59); the head runs
    # to K = 235 past that dip instead of stopping on small terms
    ups, lows = (Fraction(9, 32), Fraction(-17, 64), Fraction(109, 64)), \
        (Fraction(161, 64), Fraction(-61, 64))
    z, q = Fraction(9, 32), Fraction(63, 64)
    res = sum_q_series(QSeriesSpec(ups, lows, z, "phi"), QContext(q, ctx30))
    assert res.method == "direct+tail"
    with mp.workdps(2 * ctx30.dps):
        exact = mpmath.qhyper(*(list(map(to_mp, v)) for v in (ups, lows)), to_mp(q), to_mp(z))
        assert abs(res.value - exact) <= res.err_estimate


def test_phi_tail_bound_near_one(ctx30):
    # 1phi0(a;;q,z) = (az;q)_inf / (z;q)_inf; at |z| = 0.999 nearly all of
    # the sum is the tail t_K f(q^K), which must be right to the working
    # digits, not only within err_estimate
    z = mpf("0.999")
    res = sum_q_series(QSeriesSpec((mpf("0.5"),), (), z, "phi"), QContext(Fraction(1, 2), ctx30))
    assert res.method == "direct+tail"
    with mp.workdps(2 * ctx30.dps):
        exact = mpmath.qp(z / 2, mpf("0.5")) / mpmath.qp(z, mpf("0.5"))
        assert abs(res.value - exact) <= mpf(10) ** -ctx30.dps * abs(exact)
        assert abs(res.value - exact) <= res.err_estimate


@pytest.mark.parametrize("uppers, lowers, q, z", [
    ((Fraction(-101, 64),), (), Fraction(25, 32), Fraction(-27, 32)),  # head and tail cancel
    ((Fraction(3, 4), Fraction(-5, 4)), (Fraction(7, 8),), Fraction(-5, 8), Fraction(11, 16)),
    ((Fraction(1, 2),), (), complex(0.3, 0.2), Fraction(1, 4)),
    ((complex(0.5, 0.25), Fraction(3, 2)), (complex(-0.75, 0.5),), Fraction(3, 4), Fraction(-7, 8)),
    ((Fraction(17, 4), Fraction(13, 8), Fraction(7, 4), Fraction(9, 4)),
     (Fraction(5, 4), Fraction(3, 2), Fraction(11, 16)), Fraction(1, 2), Fraction(5, 8)),
], ids=["1phi0-cancelling", "2phi1-negative-q", "1phi0-complex-q", "2phi1-complex", "4phi3"])
def test_q_tail_within_the_working_digits(ctx30, uppers, lowers, q, z):
    # balanced phi series on the direct+tail route against mpmath.qhyper at
    # twice the working digits, to within 10^-dps of the value
    res = sum_q_series(QSeriesSpec(uppers, lowers, z, "phi"), QContext(q, ctx30))
    assert res.method == "direct+tail"
    with ctx30.working():
        ups, lows, zz, qq = [to_mp(a) for a in uppers], [to_mp(b) for b in lowers], to_mp(z), to_mp(q)
    with mp.workdps(2 * ctx30.dps):
        exact = mpmath.qhyper(ups, lows, qq, zz)
        assert abs(res.value - exact) <= mpf(10) ** -ctx30.dps * abs(exact)
        assert abs(res.value - exact) <= res.err_estimate


def _mp_head_length(uppers, lowers, q):
    """`qseries._head_length` deciding its first comparison and its max on
    mp magnitudes."""
    big, fq = max(abs(v) for v in (q, *uppers, *lowers)), float(abs(q))
    if fq == 0 or 16 * big <= 1:
        return 1
    lb = math.log(fb) if (fb := float(big)) < math.inf else float(mpmath.log(big))
    lq = -math.log(fq) if fq < 1 else -float(mpmath.log(abs(q)))
    return max(1, math.ceil((math.log(16) + lb) / lq - 1e-9))


@pytest.mark.parametrize("params", [
    # the largest magnitude rounds onto 1/16 as a float
    lambda: ((mpf(1) / 16 + mpf(2) ** -200,), (), mpf(1) / 32),
    lambda: ((mpf(1) / 16,), (mpf(2) ** -200,), mpf(1) / 32),
    lambda: ((mpf(1) / 32,), (-mpf(1) / 16 - mpf(2) ** -200,), mpf(1) / 16 - mpf(2) ** -200),
    lambda: ((mpf(1) + mpf(2) ** -200, mpf("0.25")), (mpf("0.5"),), mpf("0.5")),
    lambda: ((mpf(10) ** 400, mpf("0.5")), (mpf("-3.25"),), mpf("0.5")),  # past the float range
    lambda: ((mpf("0.5"),), (mpc(0, -mpf(10) ** 400),), mpc("0.25", "0.5")),
    lambda: ((mpf("0.5"),), (), mpf(2) ** -2000),  # q underflows to 0.0
], ids=["edge", "edge-at", "edge-q-and-lower", "one", "huge-upper", "huge-complex-lower",
        "tiny-q"])
def test_head_length_matches_the_mp_decision(params):
    # float magnitudes pick the same K as mp ones, at the 1/16 edge and past
    # the float range (the parameters are built at 60 digits)
    with PrecisionContext(digits=60).working():
        uppers, lowers, q = params()
        assert qseries._head_length(uppers, lowers, q) == _mp_head_length(uppers, lowers, q)


def _f(n, d, im=None):
    """n/d, or n/d + i im, rounded to the working precision: full mantissas."""
    return to_mp(Fraction(n, d)) if im is None else mpc(to_mp(Fraction(n, d)), to_mp(im))


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("params", [
    lambda: ((_f(1, 3), _f(5, 7), _f(11, 13), _f(7, 3)), (_f(9, 7), _f(4, 11), _f(6, 5)),
             _f(3, 7), _f(5, 13)),
    lambda: ((_f(1, 3, Fraction(1, 5)), _f(5, 7), _f(2, 9, Fraction(-1, 7))),
             (_f(9, 7, Fraction(1, 11)), _f(4, 11)), _f(1, 3, Fraction(-1, 6)),
             _f(2, 5, Fraction(1, 7))),
], ids=["real-4phi3", "complex-3phi2"])
def test_tail_ratio_terms_against_the_exact_recurrence(digits, params):
    # the band rounded to scale 2^(W+32) keeps every g_m within one unit
    # 2^-W of the exact recurrence on the same (full-mantissa) parameters
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        ups, lows, z, q = params()
        k, wp = qseries._head_length(ups, lows, q), fixed_prec()
        # the largest g_m, on which the band's rounding weighs most (the exact
        # recurrence's Fractions grow quickly beyond them)
        got = list(itertools.islice(qseries._tail_ratio_terms(ups, lows, z, q, k), 16))

    def exact(x):
        n, s = dyadic(x)
        return tuple(Fraction(v, 2**s) for v in oracles.pair(n))

    want = oracles.tail_ratio_terms([exact(a) for a in ups], [exact(b) for b in lows],
                                    exact(z), exact(q), k, len(got))
    for g, w in zip(got, want):
        for part, exact_part in zip(oracles.pair(g), w):
            assert abs(part - exact_part * 2**wp) <= 1


_DYADIC = st.integers(-96, 96).map(lambda n: Fraction(n, 32))
# r + 1 uppers and r lowers
_BALANCED = st.integers(0, 2).flatmap(lambda r: st.tuples(
    st.lists(_DYADIC, min_size=r + 1, max_size=r + 1), st.lists(_DYADIC, min_size=r, max_size=r)))
# nonzero, |x| <= 3/4: mpmath.qhyper does not stop at z = 0
_SMALL_NONZERO = st.integers(-48, 48).filter(bool).map(lambda n: Fraction(n, 64))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_BALANCED, _SMALL_NONZERO, _SMALL_NONZERO)
def test_phi_error_within_estimate_and_kernel_bound(params, q, z):
    # a real balanced phi at 30 digits against mpmath.qhyper on the same
    # parameters: the error is at most err_estimate plus the rounding bound
    # that the q term stream states, over the terms summed
    uppers, lowers = params
    # nor does it stop on a series that terminates through an upper q^-n
    assume(not any(a * q**n == 1 for a in uppers for n in range(200)))
    ctx = PrecisionContext(digits=30)
    try:
        res = sum_q_series(QSeriesSpec(uppers, lowers, z, "phi"), QContext(q, ctx))
    except LowerPoleError:
        assume(False)
    with ctx.working():
        ups, lows, zz, qq = [to_mp(a) for a in uppers], [to_mp(b) for b in lowers], to_mp(z), to_mp(q)
        bounds, wp = oracles.q_stream_bounds(ups, lows, qq, False), fixed_prec()
    with mp.workdps(2 * ctx.dps):
        exact = mpmath.qhyper(ups, lows, qq, zz)
        terms = itertools.islice(oracles.q_term_stream(ups, lows, zz, qq, 0), res.terms_used)
        # each summed term: its relative bound, and half a unit 2^-W
        half_unit = mpf(2) ** -(wp + 1)
        rounding = sum(abs(t) * r + half_unit for t, r in zip(terms, bounds(res.terms_used)))
        assert abs(res.value - exact) <= res.err_estimate + rounding


def test_split_psi_reflected_prefactor(qc_half):
    q, z = mpf("0.5"), mpf("0.25")
    # a lower parameter equal to q kills the negative tail
    plus, pref, minus = split_psi(QSeriesSpec((mpf(2), mpf(3)), (q, mpf("0.75")), z, "psi"), qc_half)
    assert pref == 0 and minus is None
    assert plus.uppers == (q, mpf(2), mpf(3))
    with pytest.raises(IndeterminateError):
        split_psi(QSeriesSpec((q, mpf(3)), (q, mpf("0.75")), z, "psi"), qc_half)
    with pytest.raises(PoleError):
        split_psi(QSeriesSpec((q, mpf(3)), (mpf("1.5"), mpf("0.75")), z, "psi"), qc_half)


def test_sum_psi_domain_errors(qc_half, ctx30):
    # each half's own rule decides, the k >= 0 half first: |z| >= 1 rejected
    # when no upper is a power q^-n (3 is none at q = 1/2)
    with pytest.raises(DomainError, match=r"^phi series requires \|z\| < 1 or termination, not \|z\| = 1\.5$"):
        sum_q_series(
            QSeriesSpec((mpf(3), mpf(3)), (mpf("0.5"), mpf("0.5")), mpf("1.5"), "psi"), qc_half
        )
    # annulus violation: |w| = |prod(lowers)/(prod(uppers) z)| = 9 / 0.18 = 50 >= 1
    with pytest.raises(DomainError, match=r", not \|z\| = 50\.0$"):
        sum_q_series(
            QSeriesSpec((mpf("0.6"), mpf("0.6")), (mpf(3), mpf(3)), mpf("0.5"), "psi"), qc_half
        )
    # lowers 2 = q^-1 are a pole of the k >= 0 half, which comes first
    with pytest.raises(LowerPoleError, match=r"^lower parameter q\^-1: a pole reached before termination"):
        sum_q_series(
            QSeriesSpec((mpf("0.6"), mpf("0.6")), (mpf(2), mpf(2)), mpf("0.5"), "psi"), qc_half
        )


def test_q_series_typed_errors_before_any_term(qc_half):
    half = mpf("0.5")
    with pytest.raises(DomainError, match="^bilateral q-series undefined at z = 0$"):
        split_psi(QSeriesSpec((mpf("0.3"),), (mpf("0.6"),), 0, "psi"), qc_half)
    for ups, lows in (((0,), (mpf("0.6"),)), ((mpf("0.3"),), (0,))):
        with pytest.raises(DomainError, match="^zero parameters are not supported in psi-type series$"):
            split_psi(QSeriesSpec(ups, lows, half, "psi"), qc_half)
    # two uppers over no lowers, neither a power q^-n
    with pytest.raises(DomainError,
                       match="^phi series with more uppers than lowers diverges unless terminating$"):
        sum_q_series(QSeriesSpec((mpf("0.3"), mpf("0.6")), (), half, "phi"), qc_half)


@pytest.mark.parametrize("uppers, lowers, q, m", [
    # b = 2^60 = q^-10 exactly: the terms fall below eps by k = 6, before the pole
    (("0.5",), ("1152921504606846976", "0.25"), "0.015625", 10),
    # b = 1000 is q^-3 only to within q's rounding, so 1 - b q^3 rounds off zero
    (("0.5",), ("1000",), "0.1", 3),
    (("0.5", "0.3"), ("1000",), "0.1", 3),  # balanced: direct+tail
], ids=["dyadic", "rounded", "balanced"])
def test_phi_lower_on_a_q_pole_is_rejected(ctx30, uppers, lowers, q, m):
    # the uppers' termination rule |b q^m - 1| <= (m + 2) eps, applied to the
    # lowers, finds the pole before any term is summed
    with pytest.raises(LowerPoleError,
                       match=rf"^lower parameter q\^-{m}: a pole reached before termination$"):
        sum_q_series(QSeriesSpec(uppers, lowers, "0.5", "phi"), QContext(q, ctx30))


@pytest.mark.parametrize("m", [2, 5])
def test_phi_lower_pole_at_or_past_the_terminating_index_sums(qc_half, m):
    # 2phi1(q^-2, 5/16; q^-m; q, 1/2) at q = 1/2 ends after t_2, and the
    # lower's factor 1 - q^-m q^k first vanishes in t_(m+1)
    q, a, z = Fraction(1, 2), Fraction(5, 16), Fraction(1, 2)

    def poch(x, k):
        return math.prod((1 - x * q**i for i in range(k)), start=Fraction(1))

    exact = sum(poch(q**-2, k) * poch(a, k) / (poch(q, k) * poch(q**-m, k)) * z**k
                for k in range(3))
    res = sum_q_series(QSeriesSpec((q**-2, a), (q**-m,), z, "phi"), qc_half)
    assert res.method == "terminating" and res.terms_used == 3
    with mp.workdps(60):
        assert abs(res.value - to_mp(exact)) <= abs(to_mp(exact)) * mpf(10) ** -30


def test_psi_negative_half_on_a_lower_q_pole(ctx30):
    # 1psi1(1e-5; 2e-6; q, 1/2) at q = 0.1: the upper a = q^5 (rounded) reflects
    # to the negative half's lower q^2 / a, q^-3 to within the rounding
    spec = QSeriesSpec(("0.00001",), ("0.000002",), "0.5", "psi")
    with pytest.raises(LowerPoleError, match=r"^lower parameter q\^-3: a pole "):
        sum_q_series(spec, QContext("0.1", ctx30))


def test_terminating_phi_index(qc_half, ctx30):
    # an upper q^-n cuts the series after n+1 terms; n = 0 gives 1
    with ctx30.working():
        q = mpf(1) / 2
        spec = QSeriesSpec((q ** -0, mpf("0.3")), (mpf("0.7"),), q, "phi")
        res = sum_q_series(spec, qc_half)
        assert res.value == 1
        assert res.method == "terminating"


def test_terminating_index_found_from_the_uppers(qc_half, ctx30):
    with ctx30.working():
        # 2psi2(2,2; 0.6,0.6; q, 1.5) at q = 1/2: 2 q = 1 ends the positive
        # half at k = 1, so the series converges though |z| > 1; the value is
        # a k = -400..2 sum of mpmath.qp terms at 60 digits
        spec = QSeriesSpec((mpf(2), mpf(2)), (mpf("0.6"), mpf("0.6")), mpf("1.5"), "psi")
        ref = mpf("10.378045539558202330532638592780807")
        assert abs(sum_q_series(spec, qc_half).value - ref) < ref * mpf(10) ** -30
        # a near miss: q^-3 (1 + 10^-25) is no power of q at 30 digits, and
        # 1phi0(a;;q,1/2) = (a/2;q)_inf / (1/2;q)_inf does not terminate
        a, half = 8 * (1 + mpf(10) ** -25), mpf(1) / 2
        res = sum_q_series(QSeriesSpec((a,), (), half, "phi"), qc_half)
        assert res.method == "direct+tail"
        with mp.workdps(80):
            ref = mpmath.qp(a * half, half) / mpmath.qp(half, half)
        assert abs(res.value - ref) < abs(ref) * mpf(10) ** -30


def test_psi_with_a_terminating_negative_half(qc_half, ctx30):
    # 1psi1(0.3; 0.25; q, 1/2) at q = 1/2: b = q^2, so 1/(b;q)_k = 0 for every
    # k <= -2 and the negative half is its k = -1 term alone, though
    # |b / (a z)| > 1; (x;q)_{-1} = 1 / (x/q;q)_1
    a, b, q, z = mpf("0.3"), mpf("0.25"), mpf(1) / 2, mpf(1) / 2
    res = sum_q_series(QSeriesSpec((a,), (b,), z, "psi"), qc_half)
    with mp.workdps(60):
        ref = mpmath.qp(b / q, q, 1) / (mpmath.qp(a / q, q, 1) * z) + sum(
            mpmath.qp(a, q, k) / mpmath.qp(b, q, k) * z**k for k in range(200))
    assert abs(res.value - ref) < abs(ref) * mpf(10) ** -30


def test_bailey_6psi6_point(qc_half, ctx30):
    # nondegenerate instance near the classic q=1/2 sample point
    with ctx30.working():
        q = mpf(1) / 2
        a = mpf(17) / 4
        b = c = d = e = mpf(2)
        ra = principal_sqrt(a)
        z = q * a**2 / (b * c * d * e)
        spec = QSeriesSpec(
            (q * ra, -q * ra, b, c, d, e),
            (ra, -ra, q * a / b, q * a / c, q * a / d, q * a / e),
            z, "psi",
        )
        lhs = sum_q_series(spec, qc_half)
        rhs = q_bracket(
            [q, q * a, q / a, q * a / (b * c), q * a / (b * d), q * a / (b * e),
             q * a / (c * d), q * a / (c * e), q * a / (d * e)],
            [q / b, q / c, q / d, q / e, q * a / b, q * a / c, q * a / d, q * a / e, z],
            qc_half,
        )
        assert abs(lhs.value - rhs) / abs(rhs) < mpf(10) ** -25


def test_psi_split_vs_brute_force(ctx30):
    from hyperid.catalog import CATALOG
    from hyperid.harness import sample_parameters

    cases = [
        (Fraction(17, 4), Fraction(2), Fraction(2), Fraction(2), Fraction(2), Fraction(1, 2)),
        (Fraction(45, 8), Fraction(63, 32), Fraction(7, 4), Fraction(19, 8), Fraction(219, 64), Fraction(5, 16)),
    ]
    for index in range(8):
        p = sample_parameters(CATALOG["bailey-6psi6"], 0, index)
        cases.append(tuple(p[k] for k in "abcdeq"))
    for a, b, c, d, e, q in cases:
        qc = QContext(q, ctx30)
        with ctx30.working():
            am, bm, cm, dm, em, qm = (to_mp(v) for v in (a, b, c, d, e, q))
            ra = principal_sqrt(am)
            z = qm * am**2 / (bm * cm * dm * em)
            uppers = (qm * ra, -qm * ra, bm, cm, dm, em)
            lowers = (ra, -ra, qm * am / bm, qm * am / cm, qm * am / dm, qm * am / em)
            res = sum_q_series(QSeriesSpec(uppers, lowers, z, "psi"), qc)
        fu = [float(qm * ra), -float(qm * ra), float(b), float(c), float(d), float(e)]
        fl = [float(ra), -float(ra), float(q * a / b), float(q * a / c), float(q * a / d), float(q * a / e)]
        brute, tail, rounding = brute_bilateral_psi(fu, fl, float(q), float(q * a * a / (b * c * d * e)), 2000)
        assert abs(float(res.value) - brute) <= tail + rounding + 1e-11 * abs(brute)


def test_sqrt_sign_invariance(qc_half, ctx30):
    # the +-sqrt pairs enter symmetrically: flipping the branch cannot change
    # any very-well-poised series value; checked on all four catalog shapes
    with ctx30.working():
        q = mpf(1) / 2
        a = mpf(17) / 4
        b, c, d = mpf(2), mpf("1.75"), mpf("2.25")
        ra = principal_sqrt(a)

        def both(make):
            v1 = sum_q_series(make(ra), qc_half).value
            v2 = sum_q_series(make(-ra), qc_half).value
            assert abs(v1 - v2) <= abs(v1) * mpf(10) ** -33

        # unilateral 6phi5 shape
        z65 = q * a / (b * c * d)
        both(lambda r: QSeriesSpec(
            (a, q * r, -q * r, b, c, d),
            (r, -r, q * a / b, q * a / c, q * a / d), z65, "phi"))
        # bilateral 6psi6 shape
        e = mpf("1.5")
        zb = q * a * a / (b * c * d * e)
        both(lambda r: QSeriesSpec(
            (q * r, -q * r, b, c, d, e),
            (r, -r, q * a / b, q * a / c, q * a / d, q * a / e), zb, "psi"))
        # terminating 8phi7 shape
        n = 3
        big_a = q ** (1 + n) * a * a / (b * c * d)
        both(lambda r: QSeriesSpec(
            (a, q * r, -q * r, b, c, d, big_a, q**-n),
            (r, -r, q * a / b, q * a / c, q * a / d,
             b * c * d / (a * q**n), q ** (1 + n) * a),
            q, "phi"))
        # nonterminating 8phi7 shape at argument q
        f = q * a * a / (b * c * d * e)
        both(lambda r: QSeriesSpec(
            (a, q * r, -q * r, b, c, d, e, f),
            (r, -r, q * a / b, q * a / c, q * a / d, q * a / e, q * a / f),
            q, "phi"))


def test_complex_q_supported(ctx30):
    # complex nome accepted by the evaluators (not sampled by the harness)
    qc = QContext(mpc("0.3", "0.2"), ctx30)
    with ctx30.working():
        x, q = mpf("0.5"), to_mp(qc.q)
        # (x;q)_4 as the bracket of [x] over [x q^4], split at 2, and as the
        # finite product
        whole = q_bracket([x], [x * q**4], qc)
        split = q_bracket([x], [x * q**2], qc) * q_bracket([x * q**2], [x * q**4], qc)
        assert abs(whole - split) <= abs(whole) * mpf(10) ** -35
        assert abs(whole - oracles.qpoch(x, q, 4)) <= abs(whole) * mpf(10) ** -35
        res = sum_q_series(QSeriesSpec((x,), (), mpf("0.25"), "phi"), qc)
        assert res.terms_used > 1


def test_principal_sqrt(ctx30):
    with ctx30.working():
        assert principal_sqrt(4) == 2
        for a in (mpf("2.3"), mpc(1, 2), mpf("0.04")):
            assert abs(principal_sqrt(a) ** 2 - a) <= abs(a) * mpf(10) ** -38


def test_psi_requires_balanced_counts():
    with pytest.raises(ValueError, match="^psi series requires equal parameter counts$"):
        QSeriesSpec((mpf(2),), (mpf("0.5"), mpf("0.5")), mpf("0.5"), "psi")
    # a phi series takes any counts
    QSeriesSpec((mpf(2),), (mpf("0.5"), mpf("0.5")), mpf("0.5"), "phi")


def test_qpoch_type_follows_its_inputs(ctx30):
    # the Euler row is cached per nome and type: a complex nome with a zero
    # imaginary part keeps complex products, and the real nome equal to it
    # real ones, whichever of the two came first; x = 2^-300 takes c_0 alone
    for order in ((mpf("0.5"), mpc("0.5", 0)), (mpc("0.5", 0), mpf("0.5"))):
        qseries._euler_row.cache_clear()
        for qv in order:
            for x in (mpf("-1.5"), mpf("0.25"), mpf(2) ** -300):
                v = q_pochhammer(x, QContext(qv, ctx30), INF)
                assert isinstance(v, mpc) == isinstance(qv, mpc)


def test_a_one_pass_phi_sum_converts_its_parameters_once(ctx30, monkeypatch):
    # the route and both of the pass's streams (head and tail) share one conversion
    calls = []

    def counting(spec):
        calls.append(spec)
        return mp_parameters(spec)

    monkeypatch.setattr(qseries, "mp_parameters", counting)
    spec = QSeriesSpec((Fraction(1, 3), Fraction(5, 4)), (Fraction(3, 2),), Fraction(1, 2), "phi")
    res = sum_q_series(spec, QContext(Fraction(1, 2), ctx30))
    assert res.method == "direct+tail" and calls == [spec]
