"""mpmath sums of `scripts/oracle_sweep.py` on phi series that terminate
(z = 0, or an upper a with a q^n = 1), which mpmath.qhyper would run to its
term limit, against the engine, which finds the same last term itself; and
its independent oracle of the exact classical sides."""

import importlib.util
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

from hyperid import exact
from hyperid.catalog import CATALOG
from hyperid.harness import sample_parameters, verify_one
from hyperid.precision import PrecisionContext
from hyperid.qseries import QContext, QSeriesSpec, sum_q_series

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py"
_SPEC = importlib.util.spec_from_file_location("oracle_sweep", _PATH)
oracle_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle_sweep)

CTX = PrecisionContext(digits=30)


def test_phi_at_zero_argument_is_one():
    for q in (0, mpf(1) / 2):
        spec = QSeriesSpec((0,), (), 0, "phi")
        with mp.workdps(80):
            assert oracle_sweep.mpmath_series(spec, QContext(q, CTX)) == 1


def test_phi_with_an_upper_at_q_to_the_minus_n():
    # 8 (1/2)^3 = 1 and (-2i)(i/2) = 1: both series stop after their term 3
    # and term 1
    half = mpf(1) / 2
    cases = ((mpf(8), half, 3), (mpmath.mpc(0, -2), mpmath.mpc(0, half), 1))
    for a, q, n in cases:
        qc = QContext(q, CTX)
        spec = QSeriesSpec((mpf(1) / 4, a), (mpf(3) / 4,), mpf(1) / 3, "phi")
        with mp.workdps(50):
            value = oracle_sweep.mpmath_series(spec, qc)
        res = sum_q_series(spec, qc)
        assert (res.method, res.terms_used) == ("terminating", n + 1)
        assert abs(value - res.value) < mpf(10) ** -(CTX.digits + 5) * abs(res.value)


_EXACT_IDS = {"saalschuetz": "saalschuetz_sides",
              "theorem-1-b-neg-n": "phi_symmetric_terminating_sides"}


@pytest.mark.parametrize("ident", sorted(_EXACT_IDS))
def test_terminating_oracle_matches_the_exact_sides(ident):
    # index 0 is a real sample and index 9 a complex one: every printed digit
    # of the exact sides agrees with mpmath's hyper and rf products
    case = CATALOG[ident]
    (lhs, _), _ = oracle_sweep.oracles(case, sample_parameters(case, 1, 9), CTX)
    assert isinstance(lhs, mpmath.mpc)
    assert oracle_sweep.sweep(CTX.digits, [(ident, 1, 0), (ident, 1, 9)]) == 0


@pytest.mark.parametrize("ident", sorted(_EXACT_IDS))
def test_terminating_oracle_catches_n_off_by_one(ident, monkeypatch):
    # exact sides summed and multiplied to n + 1 still equal each other, so
    # the verdict passes and the 3x oracle (the engine's own sides) agrees;
    # only the independent oracle sees both sides off, on both samples
    name = _EXACT_IDS[ident]
    original = getattr(exact, name)
    monkeypatch.setattr(exact, name, lambda n, **p: original(n=n + 1, **p))
    samples = [(ident, 1, 0), (ident, 1, 9)]
    assert all(verify_one(CATALOG[i], sample_parameters(CATALOG[i], s, k), CTX).passed
               for i, s, k in samples)
    assert oracle_sweep.sweep(CTX.digits, samples) == 4


def test_ulps_off_at_the_default_precision():
    # read at the ambient 15 digits, a printed 30-digit side would be 1.9e13
    # ulp off its own value; ulps_off reads it at digits + 10
    printed = "-519064.590055172699482116345668"
    with mp.workdps(60):
        exact = mpf(printed) + mpf("3e-25")
        exact_c = mpmath.mpc(exact, -exact)
    assert mp.dps == 15
    assert abs(oracle_sweep.ulps_off(printed, exact, 30) - mpf("0.3")) < mpf(10) ** -6
    miss = oracle_sweep.ulps_off(f"{printed} + {printed[1:]}j", exact_c, 30)
    assert abs(miss - mpf("0.3")) < mpf(10) ** -6


_JACKSON = [("jackson-8phi7", 1, 0), ("jackson-8phi7", 1, 9)]


def test_jackson_oracle_matches_the_exact_sides():
    # the independent oracle sums the 8phi7 and multiplies its bracket with
    # mpmath.qp, sharing no code with exact.jackson_8phi7_sides
    assert oracle_sweep.sweep(CTX.digits, _JACKSON) == 0


def test_jackson_oracle_catches_n_off_by_one(monkeypatch):
    # both exact sides at n + 1 still agree, so only the independent oracle
    # sees them off, on both samples
    original = exact.jackson_8phi7_sides
    monkeypatch.setattr(exact, "jackson_8phi7_sides", lambda n, **p: original(n=n + 1, **p))
    assert all(verify_one(CATALOG[i], sample_parameters(CATALOG[i], s, k), CTX).passed
               for i, s, k in _JACKSON)
    assert oracle_sweep.sweep(CTX.digits, _JACKSON) == 4
