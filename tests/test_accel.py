import mpmath
import pytest
from mpmath import mp, mpf

from hyperid.errors import AccelerationFailed
from hyperid.series import levin_u


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
