"""Levin u-transform, the nonlinear sequence transformation of this package.

It is the workhorse for the k^-2 algebraic tails this package meets (direct
summation of those gains about one digit per decade of terms).

The table amplifies rounding error as it deepens, so callers run it at a
boosted precision and this module tracks the best estimate seen, stopping
once the diagonal starts to churn instead of converge.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .errors import AccelerationFailed


def levin_core(terms, *, tol_target, accept_tol, cap, beta=1, err_floor=None):
    """Incremental Levin u-transform over a term stream.

    terms       iterable of mp numbers (series terms, not partial sums)
    tol_target  relative tolerance for early stop
    accept_tol  relative tolerance below which the best estimate is accepted
                once cap is reached (above it -> AccelerationFailed)
    cap         maximum number of terms consumed
    err_floor   relative floor added to the reported error estimate

    Returns (value, err_estimate, terms_used). The error estimate is the
    difference between the last two diagonal entries, floored at err_floor
    relative; honesty of the estimate is a test-suite property, not a proof.
    """
    if err_floor is None:
        err_floor = mpf(10) ** (-(mp.dps - 4))
    num, den = [], []
    partial = mpf(0)
    val_prev = None
    best = best_err = None
    hits = 0
    used = 0
    zero_run = 0
    for t in terms:
        if used >= cap:
            break
        used += 1
        partial = partial + t
        if t == 0:
            # a numerator factor crossed zero; the transform skips the entry
            zero_run += 1
            if zero_run >= 3:
                return partial, abs(partial) * err_floor, used
            continue
        zero_run = 0
        m = len(num)
        omega = (beta + m) * t
        num.append(partial / omega)
        den.append(1 / omega)
        for k in range(1, m + 1):
            j = m - k
            if k == 1:
                c = mpf(1)
            else:
                c = (beta + j) * mpf(beta + j + k - 1) ** (k - 2) / mpf(beta + j + k) ** (k - 1)
            num[j] = num[j + 1] - c * num[j]
            den[j] = den[j + 1] - c * den[j]
        if len(num) >= 2 and den[0] != 0:
            val = num[0] / den[0]
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
        if best_err <= accept_tol * scale:
            return best, max(best_err, scale * err_floor), used
    raise AccelerationFailed(
        f"Levin u-transform stagnated after {used} terms "
        f"(best error {best_err if best_err is not None else 'n/a'})"
    )
