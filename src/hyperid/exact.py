"""Both sides of the terminating identities in exact big-rational arithmetic.

Equality is literal, so a tolerance window cannot hide an off-by-one in a
termination index. Each value runs on ints and is returned unreduced, the
int pair (P, Q) of P/Q (no gcd of the big ints is taken; `precision.rounded`
rounds it once): the classical sides put their parameters over one common
denominator D, so 1 + a + b - c - n is (D + A + B - C - nD)/D, the q side
forms products such as q a / (b c) as gcd-reduced int pairs, each step's
term ratio is an int pair (A_k, B_k), the sum is taken by backward Horner,
(P, Q) <- (B_k Q + A_k P, B_k Q), and a bracket multiplies int numerators
and denominators. The very-well-poised +-sqrt(a) pairs enter only through
pairwise products, which stay rational: (sqrt(a);q)_k (-sqrt(a);q)_k =
(a;q^2)_k, so they fold into a rational weight per term.

A complex classical parameter with dyadic parts, as sampled, has a Gaussian
int `series.Gauss` for its numerator over D, and the same loops run on it; real
ones stay on plain ints, as everywhere in the package. A Gaussian P/Q is
returned as the loops form it, P and Q each an int or a `Gauss`.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .errors import DivisionByZero, LowerPoleError
from .series import Gauss


def quot(ups, downs=()):
    """prod(ups) / prod(downs) of int pairs x = a/b, b > 0, with positive
    downs: an unreduced int pair of the same kind (the catalog's q checks)."""
    n = d = 1
    for u, v in ups:
        n, d = n * u, d * v
    for u, v in downs:
        n, d = n * v, d * u
    return n, d


def _over(x, ys=()):
    """x / prod ys for int pairs: `quot`'s pair gcd-reduced, its (nonzero) denominator > 0."""
    p, d = quot([x], ys)
    g = gcd(p, d) if d > 0 else -gcd(p, d)
    return p // g, d // g


def common(xs):
    """The numerators of xs over their least common denominator, and it: an
    int, or for a complex x a `Gauss` of its two parts read exactly."""
    parts = [(x.real, x.imag) if isinstance(x, complex) else (x,) for x in xs]
    pairs = [v.as_integer_ratio() for xp in parts for v in xp]
    den = lcm(*(d for _, d in pairs))
    nums = iter([p * (den // d) for p, d in pairs])
    return [Gauss((next(nums), next(nums))) if len(xp) == 2 else next(nums) for xp in parts], den


def _check_n(n: int):
    if n < 0:
        raise ValueError(f"an exact terminating sum or bracket needs n >= 0, not {n}")


def _horner(ratios, weights):
    """sum_k w_k r_0 ... r_{k-1} for int ratios r_k = A_k/B_k and int weights
    w_0..w_n, as an unreduced int pair by backward Horner:
    (P, Q) <- (w_k B_k Q + A_k P, B_k Q)."""
    p, q = weights[-1], 1
    for (a, b), w in zip(reversed(ratios), reversed(weights[:-1])):
        p, q = w * b * q + a * p, b * q
    return p, q


def _sum(ups, lows, z, n: int):
    """sum_{k<=n} of the hypergeometric terms of int-pair parameters and
    argument; their denominators give every ratio one constant factor."""
    cn, cd = _over((z[0] * prod(d for _, d in lows), z[1] * prod(d for _, d in ups)))
    ratios = []
    for k in range(n):
        num, den = cn, cd * (k + 1)
        for an, ad in ups:
            num *= an + k * ad
        for bn, bd in lows:
            den *= bn + k * bd
        if den == 0:
            raise LowerPoleError(f"denominator parameter reaches a pole at k = {k}")
        ratios.append((num, den))
    return _horner(ratios, [1] * (n + 1))


def _bracket(numers, denoms, s, message):
    """The product of the int pairs `numers` over that of `denoms`, each pair
    also over s, whose powers cancel but for the difference of the counts."""
    num = prod(p for p, _ in numers) * prod(d for _, d in denoms)
    den = prod(p for p, _ in denoms) * prod(d for _, d in numers)
    k = len(denoms) - len(numers)
    num, den = (num * s**k, den) if k >= 0 else (num, den * s**-k)
    if den == 0:
        raise DivisionByZero(message)
    return num, den


def _rising_bracket(numers, denoms, d, n: int):
    """prod (x/d)_n / prod (y/d)_n for ints x, y: (x/d)_n = prod_i (x + i d) / d^n."""
    return _bracket([(prod(x + i * d for i in range(n)), 1) for x in numers],
                    [(prod(y + i * d for i in range(n)), 1) for y in denoms],
                    d**n, "exact product side vanishes in the denominator")


def _qbracket(numers, denoms, q, n: int):
    """prod (x;q)_n / prod (y;q)_n for int pairs x, y and q:
    (x;q)_n = prod_i (xd qd^i - xn qn^i) / (xd^n qd^(n(n-1)/2))."""
    powers = [(q[0] ** i, q[1] ** i) for i in range(n)]
    pairs = [(prod(v * d - u * p for p, d in powers), v**n) for u, v in (*numers, *denoms)]
    return _bracket(pairs[:len(numers)], pairs[len(numers):], q[1] ** (n * (n - 1) // 2),
                    "exact q-bracket denominator vanishes")


def saalschuetz_sides(a, b, c, n: int):
    """Both sides of the balanced terminating 3F2 summation, exactly."""
    _check_n(n)
    (a, b, c), d = common([a, b, c])
    lhs = _sum([(a, d), (b, d), (-n, 1)], [(c, d), (d + a + b - c - n * d, d)], (1, 1), n)
    return lhs, _rising_bracket([c - a, c - b], [c, c - a - b], d, n)


def phi_symmetric_terminating_sides(a, c, d, n: int):
    """Both sides of the terminating reduction of the symmetric Phi identity."""
    _check_n(n)
    (a, c, d), e = common([a, c, d])
    ups = [(a, e), (a + c + d - e - n * e, e), (-n, 1)]
    lhs = _sum(ups, [(a + c - n * e, e), (a + d - n * e, e)], (1, 1), n)
    return lhs, _rising_bracket([e - c, e - d], [e - a - c, e - a - d], e, n)


def jackson_8phi7_sides(a, b, c, d, q, n: int):
    """Both sides of the terminating very-well-poised 8phi7 summation, exactly.

    The +-sqrt(a) pairs are folded: uppers contribute (q^2 a; q^2)_k, lowers
    (a; q^2)_k, which telescope to the weight (1 - a q^2k)/(1 - a) of term k
    without leaving the rationals. The other six uppers, a, b, c, d,
    q^(1+n) a^2/(b c d) and q^-n, and the five lowers, q a/b, q a/c, q a/d,
    b c d/(a q^n) and q^(1+n) a, formed once as reduced int pairs, give the
    int term ratio: with 1 - x q^k = (xd qd^k - xn qn^k) / (xd qd^k) the
    powers of qd cancel, and the terms absorb 1/qd^2k so that the weights
    are the ints ad qd^2k - an qn^2k, over ad - an once at the end. A weight
    that vanishes (a = q^-2k) stays a weight, never a ratio's denominator.
    """
    _check_n(n)
    if not (a and b and c and d):
        raise DivisionByZero("exact 8phi7 needs nonzero a, b, c and d")
    if n and not q:
        raise DivisionByZero("exact 8phi7 needs q != 0 for n >= 1")
    a, q, b, c, d = (x.as_integer_ratio() for x in (a, q, b, c, d))
    (an, ad), (qn, qd) = a, q
    if an == ad and n:
        raise DivisionByZero("exact 8phi7 very-well-poised factor needs a != 1")
    qa, qpow = _over((qn * an, qd * ad)), (qn**n, qd**n)
    low_c = _over(quot([qpow, qa]))
    ups = [a, b, c, d, _over(quot([low_c, a]), [b, c, d]), _over((1, 1), [qpow])]
    lows = [*(_over(qa, [x]) for x in (b, c, d)), _over(quot([b, c, d], [a, qpow])), low_c]
    fn, fd = _over((qn * prod(y for _, y in lows), qd * qd * prod(y for _, y in ups)))
    ratios, weights = [], [ad - an]
    qnk, qdk = 1, 1  # qn^k, qd^k
    for k in range(n):
        num, den = fn, fd * (qd * qdk - qn * qnk)
        for xn, xd in ups:
            num *= xd * qdk - xn * qnk
        for xn, xd in lows:
            den *= xd * qdk - xn * qnk
        if den == 0:
            raise LowerPoleError(f"q-series denominator vanishes at k = {k}")
        ratios.append((num, den))
        qnk, qdk = qnk * qn, qdk * qd
        weights.append(ad * qdk * qdk - an * qnk * qnk)
    p, s = _horner(ratios, weights)
    lhs = (p, s * (ad - an)) if n else (1, 1)  # a = 1 is allowed at n = 0
    numers = [qa, _over(qa, [b, c]), _over(qa, [b, d]), _over(qa, [c, d])]
    return lhs, _qbracket(numers, [*lows[:3], _over(qa, [b, c, d])], q, n)
