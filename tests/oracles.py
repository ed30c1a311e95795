"""Independent oracles and reference recurrences used by the tests.

The brute-force sums run in plain Python floats on purpose: they share no
code with the extended-precision engines they check.

The reference recurrences (`term_stream`, `q_term_stream`, `rising`, `qpoch`)
start from the one of their input's type (``z ** 0``) and use only ring
operations and division, so the same code runs in Fraction arithmetic, as
the reference of the exact int kernels, and on mpf/mpc inputs, where at
twice the precision it is the reference of the engines' fixed-point term
streams. `list_fixed_terms` is the fixed-point stepping loop in its list
form, which multiplies out the ratio's lists of factors on every term, and
`list_ratio_terms` and `list_q_ratio_terms` feed it the engines' ratios in
that form: the engines' streams must equal them bit for bit. They keep a
complex value as an (re, im) pair of ints with their own arithmetic
(`gmul`), where the engines use `series.Gauss`; `pair` reads an engine's
int or Gauss value as such a pair.
`partial_sum` is the mp-operator form of `series.partial_sum`, whose ints
`mp_sum` reads as the mp numbers they stand for,
`clear_of_q_poles` the Fraction form of the catalog's int pole check, and
`jackson_check`, `bailey_check`, `phi65_check`, `jackson_nt_check` and
`split_check` the Fraction forms of the q samplers' checks, which the
catalog runs on int pairs, as it runs `saalschuetz_check` and
`b_neg_n_check` of the classical terminating samplers. The other classical
checks (`saalschuetz_nt_check` to `h22_check`) are written out by hand, one
branch per constraint; `REFERENCE_CHECKS` maps every id whose check the
catalog builds from its constraint strings to its reference.
`fraction_value` reads an exact side of `hyperid.exact`, one unreduced pair
(n, d) of ints or Gaussian ints, as a Fraction or an (re, im) pair of
Fractions.
`tail_ratio_terms` is the exact recurrence of the q tail ratio's power
series, on pairs of Fractions.
`ratio_stream_bounds` and `q_stream_bounds` are the rounding bounds that
the fixed-point streams state. `gamma` is mpmath's gamma function at a
context's working precision, with a PoleError at its poles: the reference
of the gamma-ratio and Pochhammer tests. `exact_int_ladder` reads an
exact integer one branch per type, and `nonpositive_int`, built on it, is
the Fraction checks' pole test and the reference of `series.nonpositive_int`.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import prod

import mpmath
from mpmath import mpc, mpf, sqrt

from hyperid.errors import DivisionByZero, LowerPoleError, PoleError
from hyperid.precision import fixed_prec, to_mp
from hyperid.series import _root, dyadic, from_fixed, to_fixed


def gamma(z, ctx):
    """Gamma(z) at ctx's working precision; PoleError at a nonpositive
    integer."""
    with ctx.working():
        zz = to_mp(z)
        if nonpositive_int(zz) is not None:
            raise PoleError(f"gamma pole at z = {zz}")
        return mpmath.gamma(zz)


def exact_int_ladder(value):
    """value as a Python int when it is exactly an integer, else None, by
    type: the imaginary part of a complex value must be 0; then a Fraction
    with denominator 1, a bool, an int, an integral float or an integral
    mpf, and nothing of any other type."""
    v = value
    if isinstance(v, (mpc, complex)):
        if v.imag != 0:
            return None
        v = v.real
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else None
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return int(v) if v.is_integer() else None
    if isinstance(v, mpf):
        return int(v) if mpmath.isint(v) else None
    return None


def nonpositive_int(value):
    """n >= 0 with value == -n exactly (`exact_int_ladder`), else None."""
    m = exact_int_ladder(value)
    return -m if m is not None and m <= 0 else None


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


def gmul(x, y):
    """The product of two Gaussian integers given as (re, im) pairs."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def pair(n):
    """An int or `series.Gauss` value as an (re, im) tuple of ints."""
    return tuple(n) if isinstance(n, tuple) else (n, 0)


def _dyadic(x, cplx):
    """`series.dyadic` with n as an (re, im) pair when cplx, else an int."""
    n, s = dyadic(x)
    return (pair(n) if cplx else n), s


def list_fixed_terms(ratio, cplx, max_k, wp, pole):
    """`series.fixed_terms` with a ratio(k) that returns (num factors,
    den factors, sh), the factors' products taken on every term."""
    t, s, k = (1 << wp, 0), 0, 0
    while True:
        yield ((t[0] + (1 << s - 1)) >> s, (t[1] + (1 << s - 1)) >> s) if s else t
        if max_k is not None and k >= max_k:
            return
        nums, dens, sh = ratio(k)
        num, den = (reduce(gmul, nums), reduce(gmul, dens)) if cplx else (prod(nums), prod(dens))
        if not (any(den) if cplx else den):
            raise LowerPoleError(pole.format(k))
        if cplx:
            num, den = gmul(num, (den[0], -den[1])), den[0] * den[0] + den[1] * den[1]
        x = gmul(t, num) if cplx else (t[0] * num, 0)
        bits = max(x[0].bit_length(), x[1].bit_length())
        d = max(wp + 2 - bits + den.bit_length() - sh, -s) if bits else 0
        s += d
        e = sh + d + 1
        if e >= 0:
            x = (x[0] << e, x[1] << e)
        else:
            den <<= -e
        two = den << 1
        t = ((x[0] + den) // two, (x[1] + den) // two)
        k += 1


def list_ratio_terms(uppers, lowers, z, max_k=None):
    """`series.ratio_terms` with its factors x + k rebuilt as lists on every
    term, through `list_fixed_terms`."""
    cplx = any(hasattr(x, "_mpc_") for x in (*uppers, *lowers, z))
    (zn, zs), ups, lows = _dyadic(z, cplx), [_dyadic(a, cplx) for a in uppers], \
        [_dyadic(b, cplx) for b in lowers]

    def ratio(k):
        shifted = [((n[0] + (k << s), n[1]) if cplx else n + (k << s)) for n, s in ups + lows]
        return [zn, *shifted[:len(ups)]], [(k + 1, 0) if cplx else k + 1, *shifted[len(ups):]], sh

    sh = sum(s for _, s in lows) - sum(s for _, s in ups) - zs
    yield from list_fixed_terms(ratio, cplx, max_k, fixed_prec(),
                                "denominator parameter reaches a pole at k = {}")


def list_q_ratio_terms(uppers, lowers, z, q, extra, max_k=None):
    """`qseries.q_ratio_terms` with its factors handed over as lists, through
    `list_fixed_terms`."""
    wp = fixed_prec()
    one = 1 << wp
    cplx = any(hasattr(x, "_mpc_") for x in (*uppers, *lowers, z, q))
    nu, e = len(uppers), abs(extra)
    (zn, zs), (qn, qs) = _dyadic(z, cplx), _dyadic(q, cplx)
    half = (1 << qs) >> 1
    pows = [pair(to_fixed(x, wp)) if cplx else to_fixed(x, wp) for x in (*uppers, *lowers, q)]
    power = (1, 0) if cplx else 1

    def ratio(k):
        nonlocal pows, power
        if cplx:
            fs = [(one - re, -im) for re, im in pows]
            pows = [((p * qn[0] - r * qn[1] + half) >> qs, (p * qn[1] + r * qn[0] + half) >> qs)
                    for p, r in pows]
            balance, power = [(-power[0], -power[1])] * e, gmul(power, qn)
        else:
            fs = [one - p for p in pows]
            pows = [(p * qn + half) >> qs for p in pows]
            balance, power = [-power] * e, power * qn
        if extra < 0 and not (any(balance[0]) if cplx else balance[0]):
            raise ZeroDivisionError
        nums, dens = [zn, *fs[:nu]], fs[nu:]
        (nums if extra > 0 else dens).extend(balance)
        return nums, dens, sh - qs * k * extra

    sh = wp * (len(lowers) + 1 - nu) - zs
    yield from list_fixed_terms(ratio, cplx, max_k, wp, "q-series denominator vanishes at k = {}")


def tail_ratio_terms(uppers, lowers, z, q, k, count):
    """The first `count` g_m = f_m x^m, x = q^k, of `qseries._tail_ratio_terms`,
    exactly, from the recurrence its docstring states:
    (1 - z q^m) g_m = D_m x^m - sum_{i=1..d} (D_i x^i - z N_i x^i q^(m-i)) g_{m-i}
    with N(y) = prod (1 - a y), D(y) = (1 - q y) prod (1 - b y), d the
    number of uppers and D_m = 0 past d. Parameters and g_m are (re, im)
    pairs of Fractions."""
    def sub(x, y):
        return x[0] - y[0], x[1] - y[1]

    def div(x, y):
        norm = y[0] * y[0] + y[1] * y[1]
        re, im = gmul(x, (y[0], -y[1]))
        return re / norm, im / norm

    def poly(roots):  # the coefficients of prod (1 - r y)
        cs = [(Fraction(1), Fraction(0))]
        for r in roots:
            cs = [sub(c, gmul(r, prev)) for c, prev in zip([*cs, (0, 0)], [(0, 0), *cs])]
        return cs

    one, d = (Fraction(1), Fraction(0)), len(uppers)
    nc, dc = poly(uppers), poly([*lowers, q])
    x = one
    for _ in range(k):
        x = gmul(x, q)
    xp, qp = [one], [one]  # x^i, q^i
    for _ in range(max(d, count)):
        xp.append(gmul(xp[-1], x))
        qp.append(gmul(qp[-1], q))
    gs = []
    for m in range(count):
        rhs = gmul(dc[m], xp[m]) if m <= d else (0, 0)
        for i in range(1, min(m, d) + 1):
            band = sub(gmul(dc[i], xp[i]), gmul(gmul(z, nc[i]), gmul(xp[i], qp[m - i])))
            rhs = sub(rhs, gmul(band, gs[m - i]))
        gs.append(div(rhs, sub(one, gmul(z, qp[m]))))
    return gs


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


def clear_of_q_poles(x, q, upto=None):
    """`catalog._clear_of_q_poles` in Fraction arithmetic: False when
    x == q**-i for some i >= 0 (i < upto if given), for 0 < q < 1."""
    x = Fraction(x)
    if x <= 0:
        return True
    i = 0
    v = x
    while True:
        if upto is not None and i >= upto:
            return True
        if v == 1:
            return False
        if v < 1:
            return True
        v *= q
        i += 1


def jackson_check(p):
    """The `jackson-8phi7` check with its parameters formed in Fraction
    arithmetic and tested by `clear_of_q_poles`."""
    a, b, c, d, q, n = (p[k] for k in "abcdqn")
    if not (isinstance(n, int) and 0 <= n <= 15):
        return False
    if not (all(clear_of_q_poles(x, q) for x in [a, *(q * a / x for x in (b, c, d))])
            and clear_of_q_poles(a, q * q)):
        return False
    big_a = q ** (1 + n) * a * a / (b * c * d)
    low_b = b * c * d / (a * q**n)
    low_c = q ** (1 + n) * a
    return (
        clear_of_q_poles(big_a, q, upto=n + 1)
        and clear_of_q_poles(low_b, q, upto=n)
        and clear_of_q_poles(low_c, q, upto=n)
    )


def _re(v):
    return Fraction(v.real) if isinstance(v, complex) else Fraction(v)


def saalschuetz_check(p):
    """The `saalschuetz` check in Fraction arithmetic: c - a - b, c - a
    and c - b are tested by `nonpositive_int`."""
    a, b, c, n = (p[k] for k in "abcn")
    if not (isinstance(n, int) and 0 <= n <= 30) or not _re(c) > 0:
        return False
    return not any(nonpositive_int(w) is not None and nonpositive_int(w) <= n - 1
                   for w in (c - a - b, c - a, c - b))


def b_neg_n_check(p):
    """The `theorem-1-b-neg-n` check in Fraction arithmetic."""
    if not (isinstance(p["n"], int) and 0 <= p["n"] <= 20):
        return False
    return exact_int_ladder(p["a"] + p["c"]) is None and exact_int_ladder(p["a"] + p["d"]) is None


def _is_integer(v):
    return exact_int_ladder(v) is not None


def saalschuetz_nt_check(p):
    """The `saalschuetz-nt` check written out by hand."""
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    if _re(d) - _re(a) - _re(b) < 14:
        return False
    if _is_integer(c - a - b):
        return False
    if abs(_re(a) + _re(b) - _re(c)) < Fraction(1, 1000):
        return False
    if nonpositive_int(c + d - a - b - 1) is not None:
        return False
    return not any(nonpositive_int(w) is not None for w in (c - a, c - b, d - a, d - b))


def dougall_check(p):
    """The `dougall-2h2` check written out by hand."""
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    if _is_integer(a) or _is_integer(b):
        return False
    if not 15 <= _re(c) + _re(d) - _re(a) - _re(b) <= 30:
        return False
    return not any(nonpositive_int(w) is not None for w in (c - a, c - b, d - a, d - b))


def gauss_check(p):
    """The `gauss-2f1` check written out by hand."""
    s = _re(p["c"]) - _re(p["a"]) - _re(p["b"])
    return 4 <= s <= 26 and _re(p["c"]) > 0


def dixon_check(p):
    """The `dixon` check written out by hand."""
    a, b, c = p["a"], p["b"], p["c"]
    if _is_integer(b) or _is_integer(c):
        return False
    return 5 <= 1 + _re(a) / 2 - _re(b) - _re(c) <= 9


def theorem1_check(p):
    """The `theorem-1` check written out by hand."""
    if any(_re(p[k]) <= 0 for k in "abcd"):
        return False
    return sum(_re(p[k]) for k in "abcd") > 1 + Fraction(1, 32)


def ca_db_check(p):
    """The `theorem-1-ca-db` check written out by hand."""
    if any(_re(p[k]) <= 0 for k in "ab"):
        return False
    return 2 * _re(p["a"]) + 2 * _re(p["b"]) - 1 > Fraction(1, 32)


def phi_as_3f2_check(p):
    """The `phi-as-3f2` check written out by hand."""
    if any(_re(p[k]) <= 0 for k in "abcd"):
        return False
    return _re(p["c"]) >= 5


def h22_check(p):
    """The `h22-split` check written out by hand."""
    if any(_is_integer(p[k]) or _re(p[k]) <= 0 for k in "abcd"):
        return False
    return 15 <= sum(_re(p[k]) for k in "abcd") <= 30


def fraction_value(v):
    """An exact side (n, d) of `hyperid.exact` as the Fraction n / d for ints
    n and d, or as the (re, im) pair of Fractions of n / d, n conj(d) / |d|^2,
    when n or d is a Gaussian int."""
    n, d = v
    if not isinstance(d, tuple):
        return (Fraction(n[0], d), Fraction(n[1], d)) if isinstance(n, tuple) else Fraction(n, d)
    (a, b), (c, f) = n if isinstance(n, tuple) else (n, 0), d
    return Fraction(a * c + b * f, c * c + f * f), Fraction(b * c - a * f, c * c + f * f)


def _clear(q, values, squared=()):
    return (all(clear_of_q_poles(x, q) for x in values)
            and all(clear_of_q_poles(x, q * q) for x in squared))


def _vwp_clear(q, a, xs):
    pairs = (q * a / (x * y) for x, y in combinations(xs, 2))
    return _clear(q, [a, *(q * a / x for x in xs), *pairs], [a])


def _z_in_range(z):
    return Fraction(1, 20) <= z <= Fraction(4, 5)


def bailey_check(p):
    """The `bailey-6psi6` check in Fraction arithmetic."""
    a, b, c, d, e, q = (p[k] for k in "abcdeq")
    return _z_in_range(q * a * a / (b * c * d * e)) and _vwp_clear(q, a, (b, c, d, e))


def phi65_check(p):
    """The `phi65` check in Fraction arithmetic."""
    a, b, c, d, q = (p[k] for k in "abcdq")
    return _z_in_range(q * a / (b * c * d)) and _vwp_clear(q, a, (b, c, d))


def jackson_nt_check(p):
    """The `jackson-nt` check in Fraction arithmetic."""
    a, b, c, d, e, q = (p[k] for k in "abcdeq")
    f = q * a * a / (b * c * d * e)
    if not Fraction(1, 32) <= f <= 32:
        return False
    values = [a, b, c, d, e, f,
              q * a / b, q * a / c, q * a / d, q * a / e, b * c * d * e / a,
              b * c / a, b * d / a, b * e / a, b * f / a,
              q * b / a, q * b / c, q * b / d, q * b / e, b * b * c * d * e / (a * a),
              b * b * q / a, q * a / (c * d * e)]
    return _clear(q, values, [a, b * b / a])


def split_check(p):
    """The check of omega, theta and bailey-split in Fraction arithmetic."""
    a, c, d, e, f, q = (p[k] for k in "acdefq")
    cdef = c * d * e * f
    if not _z_in_range(q * a * a / cdef):
        return False
    big_a = cdef / a
    values = [c, d, e, f, a,
              q * a / c, q * a / d, q * a / e, q * a / f,
              big_a,
              q * a / (c * d * e), q * a / (c * d * f), q * a / (c * e * f), q * a / (d * e * f),
              q * q * a / cdef,
              q * q * a * a / (c * d * e * f * f), q * q * a * a / (c * d * e * e * f),
              q * q * a * a / (c * d * d * e * f), q * q * a * a / (c * c * d * e * f),
              q * a / (c * d), q * a / (c * e), q * a / (c * f),
              q * a / (d * e), q * a / (d * f), q * a / (e * f)]
    return _clear(q, values, [a, big_a, q * q * a**3 / cdef**2, a / cdef])


# the reference of each catalog check that is built from its constraint strings
REFERENCE_CHECKS = {
    "saalschuetz": saalschuetz_check, "saalschuetz-nt": saalschuetz_nt_check,
    "dougall-2h2": dougall_check, "gauss-2f1": gauss_check, "dixon": dixon_check,
    "theorem-1": theorem1_check, "theorem-1-ca-db": ca_db_check,
    "theorem-1-b-neg-n": b_neg_n_check, "phi-as-3f2": phi_as_3f2_check, "h22-split": h22_check,
    "bailey-6psi6": bailey_check, "phi65": phi65_check, "jackson-8phi7": jackson_check,
    "jackson-nt": jackson_nt_check,
    "omega": split_check, "theta": split_check, "bailey-split": split_check,
}


def partial_sum(terms, stop_eps, limit):
    """`series.partial_sum` written with mp operators on mp terms."""
    total, peak, used, last, prev = mpf(0), mpf(0), 0, None, None
    small_run = 0
    for t in terms:
        total = total + t
        mag = abs(t)
        peak = max(peak, mag)
        used += 1
        prev, last = last, t
        if stop_eps and mag < stop_eps * (abs(total) or 1):
            small_run += 1
            if small_run >= 3:
                return total, peak, used, last, prev, True
        else:
            small_run = 0
        if used >= limit:
            return total, peak, used, last, prev, False
    return total, peak, used, last, prev, True


def mp_sum(result):
    """The ints of a `series.partial_sum` result as its mp-operator form
    returns them: (total, peak |term|, used, last, prev, settled), with
    total, last and prev exact and peak rounded to the ambient precision."""
    total, peak, used, last, prev, _, settled = result
    last, prev = (None if v is None else from_fixed(v) for v in (last, prev))
    return from_fixed(total), _root(peak, fixed_prec()), used, last, prev, settled


def ratio_stream_bounds(cplx):
    """bounds(n): for k < n, the bound (1 + u)^k - 1 on the relative error of
    the kept term t_k of `series.fixed_terms` on an exact ratio, which
    `series.ratio_terms` supplies, with the scale of the ambient precision;
    call bounds at twice that precision."""
    wp = fixed_prec()

    def bounds(n):
        u = (sqrt(2) if cplx else 1) * mpf(2) ** -(wp + 1)
        return [(1 + u) ** k - 1 for k in range(n)]

    return bounds


def q_stream_bounds(uppers, lowers, q, cplx):
    """As `ratio_stream_bounds`, for `qseries.q_ratio_terms`, whose ratio is
    not exact. As its docstring states, a running product x q^k enters
    within half a unit 2^-W of each part (c/2 units, c = 1, or sqrt(2) when
    complex), and each step rounds its parts to the nearest unit, so that
    its error eta_k is at most |q| eta_{k-1} + c/2 units. The factor
    1 - x q^k then perturbs the ratio by eta_k 2^-W / |1 - x q^k| relative,
    and each step rounds within u of the new term."""
    wp = fixed_prec()

    def bounds(n):
        c = sqrt(2) if cplx else mpf(1)
        unit, u = mpf(2) ** -wp, c * mpf(2) ** -(wp + 1)
        out, rel, eta = [], mpf(0), c / 2
        for k in range(n):
            out.append(rel)
            step = 1 + u
            for i, x in enumerate((*uppers, *lowers, q)):
                gap = abs(1 - x * q ** k)
                eps = eta * unit / gap if gap else mpf(0)
                step *= 1 + eps if i < len(uppers) else 1 / (1 - eps)
            rel = (1 + rel) * step - 1
            eta = abs(q) * eta + c / 2
        return out

    return bounds


def brute_bilateral_h(uppers, lowers, k_max, z=1.0):
    """Direct float summation of a bilateral series over k in [-k_max, k_max].

    Returns (total, tail_bound, rounding_bound). The tail bound is the
    integral-comparison bound on both discarded tails; the rounding bound is
    a crude eps * sum(|terms|) accumulation allowance.
    """
    uppers = [complex(u) if isinstance(u, complex) else float(u) for u in uppers]
    lowers = [complex(b) if isinstance(b, complex) else float(b) for b in lowers]
    total = 0.0
    abssum = 0.0
    t = 1.0
    last_up = 0.0
    for k in range(0, k_max + 1):
        total += t
        abssum += abs(t)
        last_up = abs(t)
        num = z
        for a in uppers:
            num *= a + k
        den = 1.0
        for b in lowers:
            den *= b + k
        t = t * num / den
    t = 1.0
    last_down = 0.0
    for k in range(0, -k_max, -1):
        num = 1.0
        for b in lowers:
            num *= b + k - 1
        den = z
        for a in uppers:
            den *= a + k - 1
        t = t * num / den
        total += t
        abssum += abs(t)
        last_down = abs(t)
    s = sum(b.real if isinstance(b, complex) else b for b in lowers) - sum(
        a.real if isinstance(a, complex) else a for a in uppers
    )
    tail = (last_up + last_down) * k_max / (s - 1)
    return total, tail, 2e-16 * abssum * (2 * k_max + 1) ** 0.5 * 8


def brute_bilateral_psi(uppers, lowers, q, z, k_max):
    """Direct float summation of a bilateral q-series over k in [-k_max, k_max].

    The term ratio is evaluated as a product of bounded factor quotients so
    q^-k never overflows. Returns (total, tail_bound, rounding_bound).
    """
    uppers = [float(u) for u in uppers]
    lowers = [float(b) for b in lowers]
    q = float(q)
    z = float(z)

    def ratio(k):
        # factors are paired as quotients; for k < 0 multiply each pair by
        # q^-k so no intermediate q**k can overflow
        r = z
        if k >= 0:
            qk = q**k
            for a, b in zip(uppers, lowers):
                r *= (1.0 - a * qk) / (1.0 - b * qk)
        else:
            u = q**(-k)
            for a, b in zip(uppers, lowers):
                r *= (u - a) / (u - b)
        return r

    total = 0.0
    abssum = 0.0
    t = 1.0
    last_up = 0.0
    for k in range(0, k_max + 1):
        total += t
        abssum += abs(t)
        last_up = abs(t)
        if t == 0.0:
            break
        t *= ratio(k)
    w = z  # both tails of the identities checked here share the ratio
    t = 1.0
    last_down = 0.0
    for k in range(0, -k_max, -1):
        r = ratio(k - 1)
        if r == 0.0:
            break
        t /= r
        total += t
        abssum += abs(t)
        last_down = abs(t)
        if t == 0.0:
            break
    tail = (last_up + last_down) * abs(w) / (1 - abs(w))
    return total, tail, 2e-16 * abssum * (2 * k_max + 1) ** 0.5 * 8


def zeta2_partial(n):
    """Partial sums of sum 1/k^2 (float oracle helper)."""
    s = 0.0
    out = []
    for k in range(1, n + 1):
        s += 1.0 / k**2
        out.append(s)
    return out


def telescoping_2f1_value():
    """2F1(1,1;3;1) = sum 2/((k+1)(k+2)) telescopes to exactly 2."""
    return 2.0


def chu_vandermonde(a, c, n):
    """Exact finite 2F1(a,-n;c;1) = (c-a)_n / (c)_n via Fractions."""
    a, c = Fraction(a), Fraction(c)
    num = Fraction(1)
    den = Fraction(1)
    for i in range(n):
        num *= c - a + i
        den *= c + i
    return num / den


def harmonic_alternating_partials(n):
    out = []
    s = 0.0
    for k in range(n):
        s += (-1.0) ** k / (k + 1)
        out.append(s)
    return out
