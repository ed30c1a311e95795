"""Term streams and Pochhammer products in the arithmetic of their inputs,
and exact big-rational evaluation of terminating sums.

The recurrences here start from the one of their input's type (``z ** 0``)
and use only ring operations and division, so the same code runs in
Fraction arithmetic for the exact path and at working precision for mpf/mpc
inputs; the float engines in `series`, `qseries` and `gammafn` call it
directly.

Terminating identities at rational q and dyadic parameters are checked in
Fraction arithmetic, where equality is literal; a tolerance window cannot
hide an off-by-one in a termination index. The very-well-poised +-sqrt(a)
parameter pairs only ever enter through pairwise products, which stay
rational: (sqrt(a);q)_k (-sqrt(a);q)_k = (a;q^2)_k, so the q-side helpers
take the paired product directly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, LowerPoleError


def term_stream(uppers, lowers, z, max_k=None):
    """Yield t_0, t_1, ... via t_{k+1} = t_k z prod(a+k) / ((1+k) prod(b+k))."""
    t = z**0
    k = 0
    while True:
        yield t
        if max_k is not None and k >= max_k:
            return
        num = z
        for a in uppers:
            num = num * (a + k)
        den = k + 1
        for b in lowers:
            den = den * (b + k)
        if den == 0:
            raise LowerPoleError(f"denominator parameter reaches a pole at k = {k}")
        t = t * num / den
        k += 1


def q_term_stream(uppers, lowers, z, q, extra, max_k=None):
    """Yield phi-series terms via the running ratio, including the balancing
    factor {(-1) q^k}^extra per step."""
    t = z**0
    qk = q**0  # q^k
    k = 0
    while True:
        yield t
        if max_k is not None and k >= max_k:
            return
        num = z
        for a in uppers:
            num = num * (1 - a * qk)
        den = 1 - q * qk
        for b in lowers:
            den = den * (1 - b * qk)
        if den == 0:
            raise LowerPoleError(f"q-series denominator vanishes at k = {k}")
        if extra:
            num = num * (-qk) ** extra
        t = t * num / den
        qk = qk * q
        k += 1


def rising(x, n: int):
    """Shifted factorial (x)_n for any integer n.

    (x)_0 = 1; for n > 0 the rising product x (x+1) ... (x+n-1); for n < 0
    the reciprocal falling product 1 / ((x-1)(x-2)...(x+n)).
    """
    prod = x**0
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


def qpoch(x, q, n: int):
    """(x;q)_n for any integer n: prod_{i<n} (1 - x q^i) for n >= 0, and the
    divisor form (x;q)_{-m} = 1 / ((x q^-m; q)_m) for n < 0."""
    prod = x**0
    xq = x if n >= 0 else x * q ** n
    for _ in range(abs(n)):
        factor = 1 - xq
        if n < 0 and factor == 0:
            raise DivisionByZero(f"(x;q)_{n} hits a zero factor")
        prod = prod * factor
        xq = xq * q
    return prod if n >= 0 else 1 / prod


def pfq_terminating(uppers, lowers, z: Fraction, n: int) -> Fraction:
    """Exact finite sum of a hypergeometric series terminating at index n."""
    uppers = [Fraction(u) for u in uppers]
    lowers = [Fraction(b) for b in lowers]
    return sum(term_stream(uppers, lowers, Fraction(z), max_k=n))


def qbracket_n(numers, denoms, q: Fraction, n: int) -> Fraction:
    """prod (x;q)_n / prod (y;q)_n in exact rational arithmetic."""
    q = Fraction(q)
    num = Fraction(1)
    for x in numers:
        num *= qpoch(Fraction(x), q, n)
    den = Fraction(1)
    for y in denoms:
        den *= qpoch(Fraction(y), q, n)
    if den == 0:
        raise DivisionByZero("exact q-bracket denominator vanishes")
    return num / den


def saalschuetz_sides(a, b, c, n: int):
    """Both sides of the balanced terminating 3F2 summation, exactly."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    lhs = pfq_terminating([a, b, -n], [c, 1 + a + b - c - n], 1, n)
    rhs_den = rising(c, n) * rising(c - a - b, n)
    if rhs_den == 0:
        raise DivisionByZero("exact product side vanishes in the denominator")
    rhs = rising(c - a, n) * rising(c - b, n) / rhs_den
    return lhs, rhs


def phi_symmetric_terminating_sides(a, c, d, n: int):
    """Both sides of the terminating reduction of the symmetric Phi identity."""
    a, c, d = Fraction(a), Fraction(c), Fraction(d)
    lhs = pfq_terminating([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n], 1, n)
    rhs_den = rising(1 - a - c, n) * rising(1 - a - d, n)
    if rhs_den == 0:
        raise DivisionByZero("exact product side vanishes in the denominator")
    rhs = rising(1 - c, n) * rising(1 - d, n) / rhs_den
    return lhs, rhs


def jackson_8phi7_sides(a, b, c, d, q, n: int):
    """Both sides of the terminating very-well-poised 8phi7 summation, exactly.

    The +-sqrt(a) pairs are folded: uppers contribute (q^2 a; q^2)_k, lowers
    (a; q^2)_k, which telescope to the (1 - a q^2k)/(1 - a) kernel without
    leaving the rationals; the other six uppers and five lowers run through
    the shared q term stream.
    """
    a, b, c, d, q = (Fraction(v) for v in (a, b, c, d, q))
    if a == 1 and n >= 1:
        raise DivisionByZero("exact 8phi7 very-well-poised factor needs a != 1")
    big_a = q ** (1 + n) * a**2 / (b * c * d)
    low_b = b * c * d / (a * q**n)
    low_c = q ** (1 + n) * a
    terms = q_term_stream(
        [a, b, c, d, big_a, q**-n], [q * a / b, q * a / c, q * a / d, low_b, low_c],
        q, q, 0, max_k=n,
    )
    lhs = next(terms)
    for k, t in enumerate(terms, 1):
        lhs += t * (1 - a * q ** (2 * k)) / (1 - a)
    rhs = qbracket_n(
        [q * a, q * a / (b * c), q * a / (b * d), q * a / (c * d)],
        [q * a / b, q * a / c, q * a / d, q * a / (b * c * d)],
        q, n,
    )
    return lhs, rhs
