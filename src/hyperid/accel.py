"""Levin u-transform, the nonlinear sequence transformation of this package.

It is the workhorse for the k^-2 algebraic tails this package meets (direct
summation of those gains about one digit per decade of terms).

The table amplifies rounding error as it deepens, so it runs at a boosted
precision and tracks the best estimate seen, stopping once the diagonal
starts to churn instead of converge. Its whole policy (precision, term cap,
stop and acceptance tolerances, error floor) follows from the caller's
PrecisionContext.

The table's coefficients depend only on the row, the column and the
precision, so each row of them is computed once per working precision and
kept for later calls. The table itself runs on raw libmp values, rounded
to nearest at the working precision exactly as the mpf and mpc operators
round, so its values are those of the same loop written with mp numbers.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpc_mul_mpf, mpc_sub, mpf_mul, mpf_sub, round_nearest

from .errors import AccelerationFailed

# coefficient rows at the precision of the last call, as deep as any call went
_ROWS_PREC, _ROWS = 0, []


def _rows_at(prec):
    """The coefficient rows kept for precision prec (a fresh list when the
    precision differs from the last call's)."""
    global _ROWS_PREC, _ROWS
    if prec != _ROWS_PREC:
        _ROWS_PREC, _ROWS = prec, []
    return _ROWS


def _coefficient_row(m):
    """Row m of the table coefficients at mp.prec as raw mpfs: entry j is
    the c of the update of column j with k = m - j."""
    row = []
    for j in range(m):
        k = m - j
        c = mpf(1) if k == 1 else (1 + j) * mpf(j + k) ** (k - 2) / mpf(1 + j + k) ** (k - 1)
        row.append(c._mpf_)
    return row


def levin_core(terms, ctx):
    """Incremental Levin u-transform (beta = 1) over a term stream (terms,
    not partial sums) at 2 ctx.dps + 10 digits.

    A lazy stream computes its terms at that precision. The table returns
    once two diagonal differences in a row fall within 10^-(dps - 3)
    relative. When it reaches min(4 digits + 40, 400) terms instead, or its
    estimates degrade far past the best one seen, that best estimate is
    accepted within 10^-(digits + 1) relative; otherwise AccelerationFailed
    is raised.

    Returns (value, err_estimate, terms_used) at the raised precision. The
    error estimate is the difference between the last two diagonal entries,
    floored at ctx.eps() relative; it is heuristic, not a bound.
    """
    cap = min(4 * ctx.digits + 40, 400)
    with mp.workdps(2 * ctx.dps + 10):
        tol_target = mpf(10) ** (-(ctx.dps - 3))
        err_floor = ctx.eps()
        prec, rnd = mp.prec, round_nearest
        rows = _rows_at(prec)
        # num/den hold raw mpfs, or (re, im) pairs from the first complex entry on
        num, den = [], []
        mul, sub, make = mpf_mul, mpf_sub, mp.make_mpf
        complex_table = False
        partial = mpf(0)
        val_prev = None
        best = best_err = None
        hits = 0
        used = 0
        for t in terms:
            if used >= cap:
                break
            used += 1
            partial = partial + t
            m = len(num)
            omega = (m + 1) * t
            x, y = partial / omega, 1 / omega
            if not complex_table and (hasattr(x, "_mpc_") or hasattr(y, "_mpc_")):
                complex_table = True
                num = [(v, fzero) for v in num]
                den = [(v, fzero) for v in den]
                mul, sub, make = mpc_mul_mpf, mpc_sub, mp.make_mpc
            if complex_table:
                num.append(x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero))
                den.append(y._mpc_ if hasattr(y, "_mpc_") else (y._mpf_, fzero))
            else:
                num.append(x._mpf_)
                den.append(y._mpf_)
            if m == len(rows):
                rows.append(_coefficient_row(m))
            row = rows[m]
            for j in range(m - 1, -1, -1):
                c = row[j]
                num[j] = sub(num[j + 1], mul(num[j], c, prec, rnd), prec, rnd)
                den[j] = sub(den[j + 1], mul(den[j], c, prec, rnd), prec, rnd)
            den0 = make(den[0])
            if len(num) >= 2 and den0 != 0:
                val = make(num[0]) / den0
                if val_prev is not None:
                    err = abs(val - val_prev)
                    scale = abs(val)
                    if scale == 0:
                        scale = mpf(1)
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
                    if len(num) > 30 and err > best_err * mpf(10) ** 8:
                        break
                val_prev = val
        if best is not None:
            scale = abs(best)
            if scale == 0:
                scale = mpf(1)
            if best_err <= mpf(10) ** (-(ctx.digits + 1)) * scale:
                return best, max(best_err, scale * err_floor), used
        raise AccelerationFailed(
            f"Levin u-transform stagnated after {used} terms "
            f"(best error {mp.nstr(best_err, 3) if best_err is not None else 'n/a'})"
        )
