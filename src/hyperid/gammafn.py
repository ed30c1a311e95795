"""Pochhammer symbols and gamma-product ratios.

mpmath supplies the precision-scalable gamma kernel (Stirling series with
argument shifting, reflection on the left half plane). This module adds the
bookkeeping the identity evaluators rely on: exact-integer pole detection
(`series.nonpositive_int`), Pochhammer symbols for negative index, and gamma
ratios that return an exact zero when a denominator pole wins.
"""

from __future__ import annotations

import mpmath
from mpmath import mpc, mpf

from .errors import DivisionByZero, DomainError, IndeterminateError, PoleError
from .precision import PrecisionContext, to_mp
from .series import nonpositive_int


def pochhammer(x, n: int, ctx: PrecisionContext):
    """Shifted factorial (x)_n for an int n; any other n raises DomainError.

    (x)_0 = 1; for n > 0 the rising product x (x+1) ... (x+n-1); for n < 0
    the reciprocal falling product 1 / ((x-1)(x-2)...(x+n)), which raises
    DivisionByZero at a zero factor. Exact when x is exactly representable.
    """
    if not isinstance(n, int):
        raise DomainError(f"(x)_n needs an integer n, not {n!r}")
    with ctx.working():
        x = to_mp(x)
        prod = mpc(1) if isinstance(x, mpc) else mpf(1)
        if n >= 0:
            for i in range(n):
                prod = prod * (x + i)
            return prod
        for j in range(1, -n + 1):
            factor = x - j
            if factor == 0:
                raise DivisionByZero(f"(x)_n with n={n} hits zero factor at x-{j}")
            prod = prod * factor
        return 1 / prod


def gamma_ratio(numer, denom, ctx: PrecisionContext):
    """prod Gamma(numer_i) / prod Gamma(denom_j) by mpmath.gammaprod.

    Returns exact 0 when a denominator argument is a nonpositive integer and
    no numerator argument is. Raises PoleError for a numerator-only pole and
    IndeterminateError when poles coincide on both sides (the caller must
    cancel those through pochhammer instead). Otherwise gammaprod multiplies
    the gammas at 15 guard bits and rounds once; mpmath exponents are
    unbounded, so no factor can overflow on the way.
    """
    with ctx.working():
        ns = [to_mp(v) for v in numer]
        ds = [to_mp(v) for v in denom]
        n_poles = [v for v in ns if nonpositive_int(v) is not None]
        d_poles = [v for v in ds if nonpositive_int(v) is not None]
        if n_poles and d_poles:
            raise IndeterminateError(
                "coinciding gamma poles in numerator and denominator"
            )
        if n_poles:
            raise PoleError(f"gamma pole in numerator at {n_poles[0]}")
        if d_poles:
            return mpf(0)
        return mpmath.gammaprod(ns, ds)
