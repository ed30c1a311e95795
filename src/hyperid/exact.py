"""Exact big-rational evaluation of terminating sums and Pochhammer brackets.

Terminating identities at rational q and dyadic parameters are checked
exactly, where equality is literal; a tolerance window cannot hide an
off-by-one in a termination index. The exact sums and brackets run on ints:
each parameter is carried as a (numerator, denominator) pair, each step's
term ratio is an int pair (A_k, B_k), the finite sum is taken by backward
Horner, (P, Q) <- (B_k Q + A_k P, B_k Q), and a bracket multiplies int
numerators and denominators, so each value is reduced by one gcd at the end,
in `Fraction(P, Q)`, instead of after every operation. The very-well-poised
+-sqrt(a) parameter pairs only ever enter through pairwise products, which
stay rational: (sqrt(a);q)_k (-sqrt(a);q)_k = (a;q^2)_k, so they fold into a
rational weight per term.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, LowerPoleError


def _ints(x):
    """x as an int pair (numerator, denominator)."""
    x = Fraction(x)
    return x.numerator, x.denominator


def _horner(ratios, weights):
    """sum_k w_k r_0 ... r_{k-1} for int ratios r_k = A_k/B_k and int weights
    w_0..w_n, as an unreduced int pair by backward Horner:
    (P, Q) <- (w_k B_k Q + A_k P, B_k Q)."""
    p, q = weights[-1], 1
    for (a, b), w in zip(reversed(ratios), reversed(weights[:-1])):
        p, q = w * b * q + a * p, b * q
    return p, q


def _bracket(numers, denoms, message):
    """prod of int-pair products `numers` over prod of `denoms`, reduced once."""
    num = den = 1
    for p, d in numers:
        num, den = num * p, den * d
    for p, d in denoms:
        num, den = num * d, den * p
    if den == 0:
        raise DivisionByZero(message)
    return Fraction(num, den)


def _check_n(n: int):
    if n < 0:
        raise ValueError(f"an exact bracket needs n >= 0, not {n}")


def _rising_ints(x, n: int):
    """(x)_n for n >= 0 as an int pair: prod_i (xn + i xd) over xd^n."""
    xn, xd = _ints(x)
    p = 1
    for i in range(n):
        p *= xn + i * xd
    return p, xd**n


def _qpoch_ints(x, qn, qd, n: int):
    """(x;q)_n for n >= 0 at q = qn/qd as an int pair:
    prod_i (xd qd^i - xn qn^i) over prod_i xd qd^i."""
    u, v = _ints(x)
    p = d = 1
    for _ in range(n):
        p, d = p * (v - u), d * v
        u, v = u * qn, v * qd
    return p, d


def pfq_terminating(uppers, lowers, z: Fraction, n: int) -> Fraction:
    """Exact finite sum of a hypergeometric series terminating at index n."""
    ups = [_ints(a) for a in uppers]
    lows = [_ints(b) for b in lowers]
    zn, zd = _ints(z)
    ratios = []
    for k in range(n):
        num, den = zn, zd * (k + 1)
        for an, ad in ups:
            num, den = num * (an + k * ad), den * ad
        for bn, bd in lows:
            num, den = num * bd, den * (bn + k * bd)
        if den == 0:
            raise LowerPoleError(f"denominator parameter reaches a pole at k = {k}")
        ratios.append((num, den))
    return Fraction(*_horner(ratios, [1] * (len(ratios) + 1)))


def bracket_n(numers, denoms, n: int) -> Fraction:
    """prod (x)_n / prod (y)_n in exact rational arithmetic, n >= 0."""
    _check_n(n)
    return _bracket([_rising_ints(x, n) for x in numers], [_rising_ints(y, n) for y in denoms],
                    "exact product side vanishes in the denominator")


def qbracket_n(numers, denoms, q: Fraction, n: int) -> Fraction:
    """prod (x;q)_n / prod (y;q)_n in exact rational arithmetic, n >= 0."""
    _check_n(n)
    qn, qd = _ints(q)
    return _bracket([_qpoch_ints(x, qn, qd, n) for x in numers],
                    [_qpoch_ints(y, qn, qd, n) for y in denoms],
                    "exact q-bracket denominator vanishes")


def saalschuetz_sides(a, b, c, n: int):
    """Both sides of the balanced terminating 3F2 summation, exactly."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    lhs = pfq_terminating([a, b, -n], [c, 1 + a + b - c - n], 1, n)
    return lhs, bracket_n([c - a, c - b], [c, c - a - b], n)


def phi_symmetric_terminating_sides(a, c, d, n: int):
    """Both sides of the terminating reduction of the symmetric Phi identity."""
    a, c, d = Fraction(a), Fraction(c), Fraction(d)
    lhs = pfq_terminating([a, a + c + d - 1 - n, -n], [a + c - n, a + d - n], 1, n)
    return lhs, bracket_n([1 - c, 1 - d], [1 - a - c, 1 - a - d], n)


def jackson_8phi7_sides(a, b, c, d, q, n: int):
    """Both sides of the terminating very-well-poised 8phi7 summation, exactly.

    The +-sqrt(a) pairs are folded: uppers contribute (q^2 a; q^2)_k, lowers
    (a; q^2)_k, which telescope to the weight (1 - a q^2k)/(1 - a) of term k
    without leaving the rationals. The other six uppers and five lowers give
    the int term ratio: with 1 - x q^k = (xd qd^k - xn qn^k) / (xd qd^k) the
    powers of qd cancel, and the terms absorb 1/qd^2k so that the weights
    are the ints ad qd^2k - an qn^2k, over ad - an once at the end. A weight
    that vanishes (a = q^-2k) stays a weight, never a ratio's denominator.
    """
    a, b, c, d, q = (Fraction(v) for v in (a, b, c, d, q))
    if a == 0 or b * c * d == 0:
        raise DivisionByZero("exact 8phi7 needs nonzero a, b, c and d")
    if a == 1 and n >= 1:
        raise DivisionByZero("exact 8phi7 very-well-poised factor needs a != 1")
    big_a = q ** (1 + n) * a**2 / (b * c * d)
    low_b = b * c * d / (a * q**n)
    low_c = q ** (1 + n) * a
    ups = [_ints(x) for x in (a, b, c, d, big_a, q**-n)]
    lows = [_ints(x) for x in (q * a / b, q * a / c, q * a / d, low_b, low_c)]
    (qn, qd), (an, ad) = _ints(q), _ints(a)
    ratios, weights = [], [ad - an]
    qnk, qdk = 1, 1  # qn^k, qd^k
    for k in range(n):
        num, den = qn, qd * qd * (qd * qdk - qn * qnk)
        for xn, xd in ups:
            num, den = num * (xd * qdk - xn * qnk), den * xd
        for xn, xd in lows:
            num, den = num * xd, den * (xd * qdk - xn * qnk)
        if den == 0:
            raise LowerPoleError(f"q-series denominator vanishes at k = {k}")
        ratios.append((num, den))
        qnk, qdk = qnk * qn, qdk * qd
        weights.append(ad * qdk * qdk - an * qnk * qnk)
    p, s = _horner(ratios, weights)
    lhs = Fraction(p, s * (ad - an)) if n else Fraction(1)  # a = 1 is allowed at n = 0
    rhs = qbracket_n(
        [q * a, q * a / (b * c), q * a / (b * d), q * a / (c * d)],
        [q * a / b, q * a / c, q * a / d, q * a / (b * c * d)],
        q, n,
    )
    return lhs, rhs
