"""Levin u-transform, the nonlinear sequence transformation of this package.

It is the workhorse for the k^-2 algebraic tails this package meets (direct
summation of those gains about one digit per decade of terms).

The transform amplifies the rounding of its input as it deepens, so it runs
at a boosted precision and tracks the best estimate seen, stopping once the
diagonal starts to churn instead of converge. Its whole policy (precision,
term cap, stop and acceptance tolerances, error floor) follows from the
caller's PrecisionContext.

It runs on Python ints (a complex term's two parts taken apart on entry), in
the closed form of Levin (1973) (Weniger, Comput. Phys. Rep. 10, 1989,
section 7): after entries v_0..v_m the diagonal is
L_m = sum_j w_mj x_j / sum_j w_mj y_j, with integer weights
w_mj = (-1)^j C(m, j) (j + 1)^(m - 1). Each sum is exactly the last element
E_m of a running anti-diagonal E_0 = v_m and, for k >= 1,
E_k = sum_j (-1)^j C(k, j) (m - k + j + 1)^(k - 1) v_(m-k+j), which the next
entry steps with small-int factors only (`_antidiagonal`), the recursive
scheme of Fessler, Ford and Smith and of Weniger in integer form. A call
stores one anti-diagonal per column (x, y and, from the first complex term
on, their imaginary parts) and nothing between calls. Each stop test
compares two products a b < c d exactly, on the factors' bit lengths unless
their sums are within one; only the returned value (`precision.rounded`)
and error are mp numbers.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .errors import AccelerationFailed
from .precision import fixed_prec, rounded

EXTRA_BITS = 64  # bits of the entries and of the compared sums beyond the precision


def _entry(p, f, d):
    """p 2^f / d rounded half up, for d of either sign."""
    return ((p << f + 1) + d) // (d << 1)


def _antidiagonal(diag, v):
    """Step diag, in place, from E'_0..E'_(m-1) after v_(m-1) to E_0..E_m
    after v_m = v: E_1 = E'_0 - v, E_k = (m - k + 1) E'_(k-1) - (m + 1) E_(k-1),
    by (n + 1) C(k-1, j) + (n + k + 1) C(k-1, j-1) = (n + j + 1) C(k, j)
    with n = m - k."""
    m = len(diag)
    if m:
        b, e, diag[0] = m + 1, diag[0] - v, v
        for k in range(1, m):
            diag[k], e = e, (m - k) * diag[k] - b * e
        v = e
    diag.append(v)


def _value(sums):
    """num / den of (num re, num im, den re, den im, complex table) as an mp
    number, each part the exact quotient rounded once (`precision.rounded`)."""
    nre, nim, dre, dim, cplx = sums
    return rounded((nre, nim), (dre, dim)) if cplx else rounded(nre, dre)


def _less(a, b, c, d):
    """a b < c d for ints >= 0; an i-bit times a j-bit int has i + j - 1 or
    i + j bits, so only sums of bit lengths within one multiply out."""
    i = a.bit_length() + b.bit_length()
    j = c.bit_length() + d.bit_length()
    if a and b and c and d and abs(i - j) > 1:
        return i < j
    return a * b < c * d


def _result(sums, prev, ctx):
    """(value, err_estimate) of a diagonal entry, err the distance from the
    entry before it floored at ctx.eps() relative."""
    val = _value(sums)
    scale = abs(val) or mpf(1)
    return val, max(abs(val - _value(prev)), scale * ctx.eps())


def levin_core(terms, ctx):
    """Incremental Levin u-transform (beta = 1) over a term stream (terms,
    not partial sums) at 2 ctx.dps + 10 digits.

    The terms are ints, or `series.Gauss` values when complex, at scale
    2^W, W = `fixed_prec()` at that precision; a lazy stream reads it when
    its first term is asked for. The transform returns once two diagonal
    differences in a row fall within 10^-(dps - 3) relative. When it
    reaches min(4 digits + 40, 400) terms instead, or its estimates degrade
    far past the best one seen, that best estimate is accepted within
    10^-(digits + 1) relative; otherwise AccelerationFailed says which stop
    it met and whether |t_m| was still growing there. A term that rounds to
    0 at 2^-W, which no entry can divide by, raises AccelerationFailed too.

    Term m enters as x = partial / omega and y = 1 / omega,
    omega = (m + 1) t_m, each rounded once from the exact partial sum and
    term: a real term divides by omega, a complex one multiplies by
    conj(t_m) and divides by (m + 1) |t_m|^2. Entries share the scale 2^F,
    F >= G = prec + EXTRA_BITS, raised (never lowered) so that each y holds
    at least G bits, with the earlier entries shifted exactly; terms that
    grow before they decay thus keep their precision (the anti-diagonals
    shift with them). The tests run on the four weighted sums shifted right
    by one amount, so that the smaller of |num| and |den| holds about G bits.

    Returns (value, err_estimate, terms_used) at the raised precision. The
    error estimate is the difference between the last two diagonal entries,
    floored at ctx.eps() relative; it is heuristic, not a bound.
    """
    cap = min(4 * ctx.digits + 40, 400)
    with mp.workdps(2 * ctx.dps + 10):
        g = mp.prec + EXTRA_BITS
        w, f = fixed_prec(), g
        # tol^-2 of the stop and acceptance tests: err <= tol scale reads
        # e2 tol^-2 <= n2 p2 in the squared, cross-multiplied sums below
        stop_inv2, accept_inv2 = 10 ** (2 * (ctx.dps - 3)), 10 ** (2 * (ctx.digits + 1))
        diags = [[], []]  # of x and y: real parts, imaginary ones from the first complex term
        pre = pim = 0  # the exact partial sum at 2^W
        t2 = t2_prev = d2 = 0  # |t_m|^2, |t_(m-1)|^2 at 2^2W; |den|^2 of the last entry
        prev = best = None
        hits = used = 0
        stop = "ended with its stream"
        for t in terms:
            tre, tim = (t, 0) if type(t) is int else t
            if used >= cap:
                stop = "reached its cap"
                break
            if not t:  # omega = (m + 1) t_m would be 0
                raise AccelerationFailed(f"Levin term {used} rounds to 0 at 2^-{w}")
            used += 1
            pre, pim = pre + tre, pim + tim
            m = len(diags[0])
            if tim and len(diags) == 2:
                diags += [[0] * m, [0] * m]
            # x = partial conj(t) / d and y = 2^W conj(t) / d, d = (m+1) |t|^2,
            # at 2^f; |y| > 2^(f + W - bits - 1/2) holds G bits once f >= need
            bits = (m + 1).bit_length() + max(abs(tre), abs(tim)).bit_length()
            need = g + bits - w
            if need > f:
                diags = [[e << need - f for e in diag] for diag in diags]
                f = need
            t2_prev, t2 = t2, tre * tre + tim * tim
            d, parts = (m + 1) * tre, (pre, 1 << w, pim, 0)  # real t: same quotients, t cancelled
            if tim:
                d = (m + 1) * t2
                parts = (pre * tre + pim * tim, tre << w, pim * tre - pre * tim, -tim << w)
            for diag, p in zip(diags, parts):
                _antidiagonal(diag, _entry(p, f, d))
            sums = [diag[-1] for diag in diags]
            nre, dre, nim, dim = sums if len(sums) == 4 else (*sums, 0, 0)
            if m < 1 or not (dre or dim):
                continue
            nbits = max(abs(nre), abs(nim)).bit_length()
            dbits = max(abs(dre), abs(dim)).bit_length()
            shift = max(min(nbits or dbits, dbits) - g, 0)
            nre, nim, dre, dim = nre >> shift, nim >> shift, dre >> shift, dim >> shift
            cur = (nre, nim, dre, dim, len(sums) == 4)
            p2, d2 = d2, dre * dre + dim * dim
            if prev is not None:
                # err^2 = e2 / q2 and scale^2 = n2 p2 / q2, scale = |val| or 1
                pnr, pni, pdr, pdi, _ = prev
                ere = nre * pdr - nim * pdi - pnr * dre + pni * dim
                eim = nre * pdi + nim * pdr - pnr * dim - pni * dre
                e2 = ere * ere + eim * eim
                q2 = d2 * p2
                n2 = nre * nre + nim * nim or d2
                if best is None or _less(e2, best[1], best[0], q2):
                    best = (e2, q2, n2, p2, cur, prev)
                hits = 0 if _less(n2, p2, e2, stop_inv2) else hits + 1
                if hits >= 2:
                    return (*_result(cur, prev, ctx), used)
                # deep in the table roundoff takes over; stop once estimates
                # have degraded far past the best one seen
                if m + 1 > 30 and _less(best[0] * 10**16, q2, e2, best[1]):
                    stop = "degraded past its best"
                    break
            prev = cur
        if best is not None and not _less(best[2], best[3], best[0], accept_inv2):
            return (*_result(*best[4:], ctx), used)
        best_err = mp.nstr(abs(_value(best[4]) - _value(best[5])), 3) if best else "n/a"
        growth = "growing" if t2 > t2_prev else "not growing"
        raise AccelerationFailed(
            f"Levin {stop} at {used} terms; |t_m| {growth}; best error {best_err}"
        )
