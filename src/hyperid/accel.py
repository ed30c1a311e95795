"""Levin u-transform, the nonlinear sequence transformation of this package.

It is the workhorse for the k^-2 algebraic tails this package meets (direct
summation of those gains about one digit per decade of terms).

The table amplifies rounding error as it deepens, so it runs at a boosted
precision and tracks the best estimate seen, stopping once the diagonal
starts to churn instead of converge. Its whole policy (precision, term cap,
stop and acceptance tolerances, error floor) follows from the caller's
PrecisionContext.

The table runs on Python ints. Its coefficients are exact rationals that
depend only on the row and the column; each row of them is rounded once to
the nearest multiple of 2^-G, G = the boosted precision + EXTRA_BITS, and
kept for later calls at the same G. The entries of one call share one scale
2^F, and each update rounds one product to the nearest unit of it. The
table reads the fixed-point term pairs of `series.fixed_terms` as they come
and keeps their partial sum exactly.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from mpmath import mp, mpc, mpf

from .errors import AccelerationFailed
from .precision import fixed_prec

EXTRA_BITS = 64  # bits of the coefficients and the entries beyond the precision

# coefficient rows at the G of the last call, as deep as any call went
_ROWS_G, _ROWS = 0, []


def _rows_at(g):
    """The coefficient rows kept for G = g (a fresh list when g differs from
    the last call's)."""
    global _ROWS_G, _ROWS
    if g != _ROWS_G:
        _ROWS_G, _ROWS = g, []
    return _ROWS


def _coefficient_row(m, g):
    """Row m of the table coefficients as ints at scale 2^g: entry j is the
    c = (1+j) (j+k)^(k-2) / (1+j+k)^(k-1), k = m - j, of the update of
    column j, rounded to nearest."""
    row = []
    for j in range(m):
        k = m - j
        num, den = (1 + j) * m ** (k - 1) << g + 1, m * (m + 1) ** (k - 1)
        row.append((num + den) // (den << 1))
    return row


def _update(column, entry, row, g):
    """A column after the update with its new entry: column[j] becomes
    column[j+1] - round(column[j] c_j / 2^g), from j = m - 1 down to 0."""
    half = 1 << g - 1
    products = [(v * c + half) >> g for v, c in zip(column, row)]
    return list(accumulate(reversed(products), sub, initial=entry))[::-1]


def levin_core(terms, ctx):
    """Incremental Levin u-transform (beta = 1) over a term stream (terms,
    not partial sums) at 2 ctx.dps + 10 digits.

    The terms are (re, im) pairs of ints at scale 2^W, W = `fixed_prec()` at
    that precision; a lazy stream reads it when its first term is asked
    for. The table returns once two diagonal differences in a row fall
    within 10^-(dps - 3) relative. When it reaches min(4 digits + 40, 400)
    terms instead, or its estimates degrade far past the best one seen,
    that best estimate is accepted within 10^-(digits + 1) relative;
    otherwise AccelerationFailed is raised.

    Term m enters as x = partial / omega and y = 1 / omega,
    omega = (m + 1) t_m, each rounded once from the exact partial sum and
    term. Entries share the scale 2^F, F >= G, raised (never lowered) so
    that each y holds at least G bits, with the earlier entries shifted
    exactly; terms that grow before they decay thus keep their precision.

    Returns (value, err_estimate, terms_used) at the raised precision. The
    error estimate is the difference between the last two diagonal entries,
    floored at ctx.eps() relative; it is heuristic, not a bound.
    """
    cap = min(4 * ctx.digits + 40, 400)
    with mp.workdps(2 * ctx.dps + 10):
        tol_target = mpf(10) ** (-(ctx.dps - 3))
        err_floor = ctx.eps()
        g = mp.prec + EXTRA_BITS
        w, f = fixed_prec(), g
        rows = _rows_at(g)
        table = [[], []]  # num and den: real parts, imaginary ones from the first complex term
        pre = pim = 0  # the exact partial sum at 2^W
        val_prev = None
        best = best_err = None
        hits = 0
        used = 0
        for tre, tim in terms:
            if used >= cap:
                break
            used += 1
            pre, pim = pre + tre, pim + tim
            m = len(table[0])
            if tim and len(table) == 2:
                table += [[0] * m, [0] * m]
            # x = partial conj(t) / d and y = 2^W conj(t) / d, d = (m+1) |t|^2,
            # at 2^f; |y| > 2^(f + W - bits - 1/2) holds G bits once f >= need
            bits = (m + 1).bit_length() + max(abs(tre), abs(tim)).bit_length()
            need = g + bits - w
            if need > f:
                table = [[v << need - f for v in column] for column in table]
                f = need
            d = (m + 1) * (tre * tre + tim * tim)
            parts = (pre * tre + pim * tim, tre << w, pim * tre - pre * tim, -tim << w)
            entries = [((p << f + 1) + d) // (d << 1) for p in parts[:len(table)]]
            if m == len(rows):
                rows.append(_coefficient_row(m, g))
            table = [_update(c, e, rows[m], g) for c, e in zip(table, entries)]
            if len(table) == 2:
                num0, den0 = mpf(table[0][0]), mpf(table[1][0])
            else:
                num0, den0 = mpc(table[0][0], table[2][0]), mpc(table[1][0], table[3][0])
            if m >= 1 and den0 != 0:
                val = num0 / den0
                if val_prev is not None:
                    err = abs(val - val_prev)
                    scale = abs(val) or mpf(1)
                    if best_err is None or err < best_err:
                        best, best_err = val, err
                    if err <= tol_target * scale:
                        hits += 1
                        if hits >= 2:
                            return val, max(err, scale * err_floor), used
                    else:
                        hits = 0
                    # deep in the table roundoff takes over; stop once estimates
                    # have degraded far past the best one seen
                    if m + 1 > 30 and err > best_err * 10**8:
                        break
                val_prev = val
        if best is not None:
            scale = abs(best) or mpf(1)
            if best_err <= mpf(10) ** (-(ctx.digits + 1)) * scale:
                return best, max(best_err, scale * err_floor), used
        raise AccelerationFailed(
            f"Levin u-transform stagnated after {used} terms "
            f"(best error {mp.nstr(best_err, 3) if best_err is not None else 'n/a'})"
        )
