"""Precision context and scalar conversion helpers.

All arithmetic in this package is mpmath-backed. Evaluations run at
``digits + 10`` decimal places and results are meaningful to roughly
``digits`` places. Small integers and dyadic rationals convert
exactly at any precision, which keeps pole detection and terminating-index
detection decidable (`series.nonpositive_int` reads them exactly). `rounded`
is the one writer of every exact quotient as an mp number: half an ulp a part.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec, from_int, from_man_exp, fzero, mpf_div, round_nearest, to_str

INF = mpmath.inf
_HELD = nullcontext()  # shared: entering and leaving it changes nothing
_prec = lru_cache(maxsize=64)(dps_to_prec)  # the bits of a dps, computed once per dps


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision plus evaluation budgets shared by every evaluator.

    digits     reported decimal precision; evaluations run 10 digits above it
    max_terms  hard budget on the number of series terms per evaluation
    """

    digits: int = 30
    max_terms: int = 1_000_000

    def __post_init__(self):
        if self.digits < 10:
            raise ValueError("digits must be >= 10")
        if self.max_terms < 1000:
            raise ValueError("max_terms must be >= 1000")

    @property
    def dps(self) -> int:
        return self.digits + 10

    def working(self):
        """Context manager installing the working precision, restored on
        exit. When mp.prec already holds it, a shared no-op one, so that a
        nested entry costs nothing: dps -> prec -> dps round-trips, so mp.dps
        holds it too, and as nothing in the package assigns mp.prec or mp.dps
        outside such a context, the enclosing one restores the same state."""
        dps = self.dps
        if mp.prec == _prec(dps):
            return _HELD
        return mp.workdps(dps)

    def eps(self):
        """10^-dps, the unit used by stopping rules (valid at any ambient dps)."""
        return pow10(-self.dps)


def pow10(n: int):
    """10^n at the ambient precision, bit for bit `mpf(10) ** n`, computed
    once per (n, mp.prec)."""
    return _pow10(n, mp.prec)


@lru_cache(maxsize=256)
def _pow10(n, prec):
    with mp.workprec(prec):
        return mpf(10) ** n


GUARD_BITS = 30  # fixed-point bits beyond the ambient precision


def fixed_prec() -> int:
    """W, the fixed-point scale 2^W of the term streams, the heads and tails
    `partial_sum` adds and the Levin table's input: mp.prec + GUARD_BITS."""
    return mp.prec + GUARD_BITS


def rounded(n, d=1, e=0):
    """The mp number nearest n 2^e / d in each part at the ambient precision,
    halves to even: n an int or an (re, im) pair of ints (a `series.Gauss`
    is one), d a nonzero int or such a pair, dividing as n conj(d) / |d|^2.
    An mpc when n or d is a pair, else an mpf; d == 1 takes one
    `from_man_exp` a part."""
    prec = mp.prec
    if isinstance(d, tuple):
        (a, b), (c, f) = n if isinstance(n, tuple) else (n, 0), d
        n, d = (a * c + b * f, b * c - a * f), c * c + f * f
    if d == 1:
        if isinstance(n, tuple):
            return mp.make_mpc((from_man_exp(n[0], e, prec, round_nearest),
                                from_man_exp(n[1], e, prec, round_nearest)))
        return mp.make_mpf(from_man_exp(n, e, prec, round_nearest))
    d = from_int(d)
    if isinstance(n, tuple):
        return mp.make_mpc(tuple(mpf_div(from_man_exp(v, e), d, prec, round_nearest) for v in n))
    return mp.make_mpf(mpf_div(from_man_exp(n, e), d, prec, round_nearest))


def to_mp(value):
    """Convert int/float/Fraction/complex/str/mpf/mpc to mpf or mpc.

    Conversion happens at the ambient mpmath precision, a Fraction's exact
    quotient rounded once (`rounded`); dyadics and small integers are exact.
    """
    if isinstance(value, (mpf, mpc)):
        return value
    if isinstance(value, Fraction):
        return rounded(*value.as_integer_ratio())
    if isinstance(value, complex):
        return mpc(value.real, value.imag)
    if isinstance(value, (int, float, str)):
        return mpmath.mpmathify(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an mp number")


def format_value(value, digits: int) -> str:
    """Deterministic decimal string at `digits` significant places, each part as
    mpmath.nstr prints it (libmp.to_str), with no imaginary part when that is 0."""
    v = to_mp(value)
    real, im = (v._mpf_, fzero) if isinstance(v, mpf) else v._mpc_
    if im == fzero:
        return to_str(real, digits)
    # abs() and unary minus would round the imaginary part to the ambient
    # precision; the sign comes off its string instead
    im = to_str(im, digits)
    sign, im = ("-", im[1:]) if im.startswith("-") else ("+", im)
    return f"{to_str(real, digits)} {sign} {im}j"
