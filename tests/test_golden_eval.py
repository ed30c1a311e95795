"""Bit-for-bit check of single series evaluations against a checked-in golden file.

The golden reports print values to the reported digits; this file pins the
raw mpmath tuples of value and err_estimate, with terms_used and method, of
`sum_unilateral`, `sum_bilateral` and `sum_q_series` on routes the reports
do not reach or do not show in full: geometric sums with real and complex
arguments, a sum that needs a raised pass, terminating sums, direct+tail
sums at z = 1, -1 and i and one with raised passes, two bilateral sums
(both halves at z = 1, and one at z = 1/2 whose negative half ends), phi
sums with an extra lower, terminating and balanced, and a psi sum, each at
30 and 60 digits. Inputs are parsed as `hyperid eval` parses them, at the
working precision.

Regenerate the golden file (only when a value change is intended) with

    PYTHONPATH=src python tests/test_golden_eval.py --write
"""

import json
import sys
from pathlib import Path

from mpmath import mp, mpc

from hyperid.cli import parse_list, parse_scalar
from hyperid.precision import PrecisionContext
from hyperid.qseries import QContext, QSeriesSpec, sum_q_series
from hyperid.series import SeriesSpec, sum_bilateral, sum_unilateral

GOLDEN = Path(__file__).with_name("golden_evals.json")
DIGITS = (30, 60)
# (series, uppers, lowers, z, q) as `hyperid eval` takes them
INPUTS = (
    ("pfq", "0.3,1.25", "1.5", "0.5", None),  # geometric
    ("pfq", "0.5,0.75", "1.25", "0.3+0.4i", None),  # geometric, complex z
    ("pfq", "0.5+1i", "2", "3", None),  # geometric, no upper over the lowers
    ("pfq", "1", "2", "-60", None),  # terms to 1e24 sum to 1/60: a raised pass
    ("pfq", "-8,0.5", "1.5", "1", None),  # terminating
    ("pfq", "-5,0.5+0.25i", "2", "-0.75", None),  # terminating, complex
    ("pfq", "0.5,0.25", "20.75", "1", None),  # direct+tail at z = 1
    ("pfq", "0.5,0.25", "20.75", "-1", None),  # direct+tail at z = -1
    ("pfq", "0.5,0.25", "20.75", "1i", None),  # direct+tail at z = i
    ("pfq", "-60.5,60.25", "45.5", "1", None),  # direct+tail whose terms cancel: raised passes
    ("hseries", "0.5,0.25", "20.5,21.25", "1", None),  # bilateral, both halves at z = 1
    ("hseries", "0.5,0.25", "3,1.5", "0.5", None),  # bilateral, the k < 0 half ends at k = -2
    ("phi", "0.5", "0.25,0.75", "0.9", "0.5"),  # an extra lower: geometric
    ("phi", "8,0.3", "0.6", "3", "0.5"),  # terminating: 8 = q^-3
    ("phi", "0.3,0.7,0.45", "0.6,0.35", "0.5", "0.3"),  # balanced: direct+tail
    ("phi", "0.5,0.25", "0.75", "0.3+0.4i", "0.5"),  # balanced, complex z
    ("psi", "1.7,2.6", "0.3,0.2", "0.5", "0.5"),  # bilateral, both tails balanced
)


def _raw(x):
    """The mpmath tuple of an mpf or mpc as JSON lists of ints."""
    parts = (x._mpc_ if isinstance(x, mpc) else (x._mpf_,))
    return [[int(v) for v in part] for part in parts]


def evaluate(series, uppers, lowers, z, q, digits):
    ctx = PrecisionContext(digits=digits)
    with mp.workdps(ctx.dps):
        ups, lows, z = parse_list(uppers), parse_list(lowers), parse_scalar(z)
        q = parse_scalar(q) if q is not None else None
    if series == "pfq":
        res = sum_unilateral(SeriesSpec(ups, lows, z), ctx)
    elif series == "hseries":
        res = sum_bilateral(SeriesSpec(ups, lows, z, "bilateral"), ctx)
    else:
        res = sum_q_series(QSeriesSpec(ups, lows, z, series), QContext(q, ctx))
    return {"value": _raw(res.value), "err_estimate": _raw(res.err_estimate),
            "terms_used": res.terms_used, "method": res.method}


def build_evals() -> list:
    return [{"input": [*case, digits], **evaluate(*case, digits)}
            for case in INPUTS for digits in DIGITS]


def test_evals_match_golden():
    assert build_evals() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_eval.py --write")
    GOLDEN.write_text(json.dumps(build_evals(), indent=1) + "\n")
