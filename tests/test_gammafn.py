import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from hyperid.errors import DivisionByZero, DomainError, IndeterminateError, PoleError
from hyperid.gammafn import gamma_ratio, pochhammer
from hyperid.precision import PrecisionContext, to_mp

from oracles import gamma


def test_gamma_values(ctx30):
    with ctx30.working():
        assert gamma(1, ctx30) == 1
        assert gamma(5, ctx30) == 24
        assert abs(gamma(Fraction(1, 2), ctx30) - mpmath.sqrt(mpmath.pi)) < mpf(10) ** -38
    with pytest.raises(PoleError):
        gamma(0, ctx30)
    with pytest.raises(PoleError):
        gamma(-3, ctx30)


def test_gamma_recurrence_and_reflection_sample(ctx30):
    rng = random.Random(7)
    with ctx30.working():
        checked = 0
        while checked < 60:
            z = mpc(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if min(abs(z - m) for m in range(-12, 1)) < 0.05:
                continue
            if min(abs(1 - z - m) for m in range(-12, 1)) < 0.05:
                continue
            g = gamma(z, ctx30)
            g1 = gamma(z + 1, ctx30)
            assert abs(g1 - z * g) / abs(g1) < mpf(10) ** (1 - ctx30.digits)
            refl = gamma(1 - z, ctx30)
            assert abs(g * refl * mpmath.sin(mpmath.pi * z) / mpmath.pi - 1) < mpf(10) ** (
                2 - ctx30.digits
            )
            checked += 1


def test_pochhammer_values(ctx30):
    with ctx30.working():
        assert pochhammer(mpf("0.37"), 0, ctx30) == 1
        assert pochhammer(1, 4, ctx30) == 24
        # (3)_(-2) against the direct gamma ratio oracle
        oracle = gamma(1, ctx30) / gamma(3, ctx30)
        assert abs(pochhammer(3, -2, ctx30) - oracle) < mpf(10) ** -38
        assert pochhammer(3, -2, ctx30) == mpf(1) / 2
    with pytest.raises(DivisionByZero):
        pochhammer(2, -3, ctx30)


def test_pochhammer_rejects_a_non_integer_index(ctx30):
    with pytest.raises(DomainError, match="integer n"):
        pochhammer(0.25, 2.5, ctx30)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=-6, max_value=6),
    m=st.integers(min_value=-6, max_value=6),
    num=st.integers(min_value=1, max_value=511),
)
def test_pochhammer_functional_equation(n, m, num):
    # x = num/64 + 1/128 is never an integer, so no factor can vanish
    ctx = PrecisionContext(digits=30)
    x = Fraction(num, 64) + Fraction(1, 128)
    with ctx.working():
        lhs = pochhammer(x, n + m, ctx)
        rhs = pochhammer(x, n, ctx) * pochhammer(x + n, m, ctx)
        assert abs(lhs - rhs) <= abs(lhs) * mpf(10) ** -35


def test_pochhammer_vs_gamma_ratio(ctx30):
    with ctx30.working():
        for x, n in ((Fraction(5, 8), 7), (Fraction(13, 16), -4), (Fraction(9, 4), 3)):
            direct = pochhammer(x, n, ctx30)
            ratio = gamma_ratio([Fraction(x) + n], [x], ctx30)
            assert abs(direct - ratio) <= abs(direct) * mpf(10) ** -35


def test_gamma_ratio_values(ctx30):
    with ctx30.working():
        oracle = gamma(3, ctx30) * gamma(1, ctx30) / (gamma(2, ctx30) * gamma(2, ctx30))
        assert abs(gamma_ratio([3, 1], [2, 2], ctx30) - oracle) < mpf(10) ** -36
        assert abs(gamma_ratio([mpf("1.7")], [mpf("1.7")], ctx30) - 1) < mpf(10) ** -38
        assert gamma_ratio([1], [0], ctx30) == 0
        assert gamma_ratio([mpf("2.5")], [-4], ctx30) == 0


def test_gamma_ratio_pole_handling(ctx30):
    with pytest.raises(PoleError):
        gamma_ratio([0], [mpf("2.5")], ctx30)
    with pytest.raises(IndeterminateError):
        gamma_ratio([-1], [-2], ctx30)


def test_gamma_ratio_negative_real_sign(ctx30):
    # Gamma(-0.5) < 0, Gamma(-1.5) > 0; the real fast path must track signs
    with ctx30.working():
        v1 = gamma_ratio([mpf("-0.5")], [1], ctx30)
        assert abs(v1 - gamma(mpf("-0.5"), ctx30)) < mpf(10) ** -36
        assert v1 < 0
        v2 = gamma_ratio([mpf("-1.5")], [1], ctx30)
        assert v2 > 0


def test_gamma_complex_argument_consistency(ctx30):
    with ctx30.working():
        z = mpc("1.25", "0.75")
        value = gamma(z, ctx30)
    with mp.workdps(2 * ctx30.dps):
        assert abs(value - mpmath.gamma(z)) < mpf(10) ** -38 * abs(value)


def _rel_err_vs_gamma(numer, denom, digits):
    """Relative error of gamma_ratio against mpmath.gamma at 3*dps + 30."""
    ctx = PrecisionContext(digits=digits)
    value = gamma_ratio(numer, denom, ctx)
    with mp.workdps(3 * ctx.dps + 30):
        oracle = mpmath.fprod(mpmath.gamma(to_mp(v)) for v in numer) / mpmath.fprod(
            mpmath.gamma(to_mp(v)) for v in denom
        )
        return abs(value - oracle) / abs(oracle) / ctx.eps()


def test_gamma_ratio_dougall_worst_case():
    # the dougall-2h2 rhs of seed 0, index 14 at 30 digits, once 24.5 eps off
    a, b, c, d = Fraction(127, 64), Fraction(75, 64), Fraction(723, 64), Fraction(373, 32)
    numer = [1 - a, 1 - b, c, d, c + d - a - b - 1]
    denom = [c - a, c - b, d - a, d - b]
    assert _rel_err_vs_gamma(numer, denom, 30) < 1


_dyadic = st.builds(
    lambda n, j: Fraction(n) + Fraction(j, 64),
    st.integers(min_value=-20, max_value=39),
    st.integers(min_value=1, max_value=63),
)
# a real dyadic non-integer, or a complex one with dyadic parts
_gamma_arg = st.one_of(
    _dyadic, _dyadic, st.builds(lambda re, im: complex(re, im), _dyadic, _dyadic)
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    numer=st.lists(_gamma_arg, min_size=1, max_size=5),
    denom=st.lists(_gamma_arg, max_size=4),
    digits=st.sampled_from([30, 60]),
)
def test_gamma_ratio_error_property(numer, denom, digits):
    assert _rel_err_vs_gamma(numer, denom, digits) < 1
