#!/usr/bin/env python3
"""Digits-versus-terms comparison of direct summation and the Levin u-transform
on two k^-2 tails: zeta(2) and the Phi-series anchor sum over (k+1/2)^-2.

Direct summation of a k^-2 tail gains roughly one digit per tenfold more
terms; the Levin transform gains roughly one digit per term.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpmath  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

from hyperid.accel import levin_core  # noqa: E402


def digits_of(err):
    if err == 0:
        return float("inf")
    return float(-mpmath.log10(err))


def run(label, terms, target):
    print(f"\n{label}")
    print(f"{'terms':>6} {'direct':>8} {'levin':>8}   (correct digits)")
    for n in (10, 20, 40, 80, 160):
        chunk = terms[:n]
        direct = sum(chunk)
        d_direct = digits_of(abs(direct - target))
        try:
            lv, _, _ = levin_core(iter(chunk), tol_target=mpf(10) ** -60,
                                  accept_tol=mpf(10) ** -2, cap=n)
            d_levin = digits_of(abs(lv - target))
        except Exception:
            d_levin = float("nan")
        print(f"{n:>6} {d_direct:>8.1f} {d_levin:>8.1f}")


def main():
    with mp.workdps(120):
        terms = [mpf(1) / (k + 1) ** 2 for k in range(160)]
        run("zeta(2) = pi^2/6", terms, mpmath.pi**2 / 6)
        terms = [1 / (mpf(k) + mpf(1) / 2) ** 2 for k in range(160)]
        run("sum (k+1/2)^-2 = pi^2/2", terms, mpmath.pi**2 / 2)


if __name__ == "__main__":
    main()
