import mpmath
import pytest
from mpmath import mp, mpf

from hyperid.accel import levin_core
from hyperid.errors import AccelerationFailed
from hyperid.series import SeriesSpec, levin_u, sum_unilateral


def _zeta2_terms(n, dps):
    with mp.workdps(dps):
        return [mpf(1) / (k + 1) ** 2 for k in range(n)]


def test_levin_zeta2(ctx30):
    res = levin_u(_zeta2_terms(60, ctx30.dps), ctx30)
    assert res.terms_used <= 60
    with mp.workdps(50):
        err = abs(res.value - mpmath.pi**2 / 6)
        assert err < mpf(10) ** -20
        # honesty: the true error stays within 100x of the estimate
        assert err < 100 * res.err_estimate


def test_levin_geometric(ctx30):
    with ctx30.working():
        terms = [mpf(2) ** -k for k in range(120)]
    res = levin_u(terms, ctx30)
    with ctx30.working():
        assert abs(res.value - 2) < mpf(10) ** -25


def test_levin_half_shifted_zeta(ctx30):
    # sum over k>=0 of (k+1/2)^-2 = pi^2/2
    with mp.workdps(ctx30.dps):
        terms = [1 / (mpf(k) + mpf(1) / 2) ** 2 for k in range(120)]
    res = levin_u(terms, ctx30)
    with mp.workdps(50):
        err = abs(res.value - mpmath.pi**2 / 2)
        assert err < mpf(10) ** -20
        assert err < 100 * res.err_estimate


def test_levin_honesty_on_known_sums(ctx30):
    cases = []
    with mp.workdps(ctx30.dps):
        cases.append(([mpf(1) / (k + 1) ** 2 for k in range(80)], mpmath.pi**2 / 6))
        cases.append(([1 / (mpf(k) + mpf(1) / 2) ** 2 for k in range(80)], mpmath.pi**2 / 2))
        cases.append(([mpf(3) ** -k for k in range(80)], mpf(3) / 2))
    for terms, target in cases:
        res = levin_u(terms, ctx30)
        with mp.workdps(50):
            assert abs(res.value - target) < 100 * res.err_estimate + mpf(10) ** -45


def test_levin_acceleration_failed(ctx30):
    with ctx30.working():
        bad = [mpf(1) if k % 3 else mpf(-1) for k in range(200)]
    with pytest.raises(AccelerationFailed):
        levin_u(bad, ctx30)


def _levin_zeta2_at(dps, n=200):
    with mp.workdps(dps):
        terms = [mpf(1) / (k + 1) ** 2 for k in range(n)]
        return levin_core(iter(terms), tol_target=mpf(10) ** (-(dps // 2)),
                          accept_tol=mpf(10) ** (-(dps // 3)), cap=n)


def test_levin_coefficient_rows_follow_the_precision():
    first = _levin_zeta2_at(90)
    value, err, _ = _levin_zeta2_at(130)
    third = _levin_zeta2_at(90)
    assert repr(third) == repr(first)
    with mp.workdps(150):
        # rows left over from 90 digits reach only ~1e-62 here
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
