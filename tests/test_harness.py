import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mpf

from hyperid.catalog import CATALOG
from hyperid.errors import HyperidError, UnknownIdentityError
from hyperid.harness import (
    SuiteConfig,
    run_suite,
    sample_parameters,
    verify_one,
)
from hyperid.precision import PrecisionContext
from hyperid.series import SeriesResult


def test_sampling_is_deterministic():
    case = CATALOG["saalschuetz"]
    p1 = sample_parameters(case, 42, 0)
    p2 = sample_parameters(case, 42, 0)
    assert p1 == p2
    p3 = sample_parameters(case, 42, 1)
    assert p3 != p1  # adjacent indices draw different parameters
    p4 = sample_parameters(case, 43, 0)
    assert p4 != p1


def test_samples_satisfy_constraints():
    for ident in CATALOG:
        case = CATALOG[ident]
        for index in range(4):
            params = sample_parameters(case, 9, index)
            assert case.check(params), (ident, index, params)


def test_dougall_sampler_margin():
    case = CATALOG["dougall-2h2"]
    for index in range(12):
        p = sample_parameters(case, 5, index)
        s = complex(p["c"] + p["d"] - p["a"] - p["b"]).real
        assert 15 <= s <= 30


def test_complex_coverage_every_tenth_sample():
    case = CATALOG["gauss-2f1"]
    p9 = sample_parameters(case, 1, 9)
    assert isinstance(p9["a"], complex) and p9["a"].imag != 0
    p0 = sample_parameters(case, 1, 0)
    assert isinstance(p0["a"], Fraction)


def test_verify_one_passes_and_fails(ctx30):
    case = CATALOG["gauss-2f1"]
    rep = verify_one(case, {"a": Fraction(1), "b": Fraction(1), "c": Fraction(3)}, ctx30)
    assert rep.passed
    assert rep.lhs.startswith("2.0")

    def corrupted(p, ctx):
        res = case.rhs(p, ctx)
        with ctx.working():
            return SeriesResult(res.value + mpf(10) ** -5, res.err_estimate,
                                res.terms_used, res.method)

    broken = replace(case, id="broken", rhs=corrupted)
    rep2 = verify_one(broken, {"a": Fraction(1), "b": Fraction(1), "c": Fraction(3)}, ctx30)
    assert not rep2.passed


def test_verify_one_captures_errors(ctx30):
    case = CATALOG["gauss-2f1"]

    def exploding(p, ctx):
        raise HyperidError("synthetic failure")

    broken = replace(case, id="exploding", lhs=exploding)
    rep = verify_one(broken, {"a": Fraction(1), "b": Fraction(1), "c": Fraction(3)}, ctx30)
    assert not rep.passed
    assert "synthetic failure" in rep.error


def test_verify_one_records_any_exception(ctx30):
    # a missing parameter makes the side raise TypeError, not a HyperidError
    rep = verify_one(CATALOG["gauss-2f1"], {"a": Fraction(1), "b": Fraction(1)}, ctx30)
    assert not rep.passed
    assert rep.error.startswith("TypeError: ")
    assert rep.params == {"a": "1.0", "b": "1.0"}


def test_run_suite_empty_and_unknown():
    rep = run_suite(SuiteConfig(identities=(), samples=5))
    assert rep.total == 0
    with pytest.raises(UnknownIdentityError):
        SuiteConfig(identities=("nope",)).resolve_ids()


def test_run_suite_subset_and_schema():
    config = SuiteConfig(identities=("saalschuetz", "gauss-2f1"), samples=3, seed=7, digits=30)
    rep = run_suite(config)
    assert rep.total == 6 and rep.failed == 0
    doc = rep.to_dict()
    assert set(doc) == {"suite", "results", "summary"}
    assert set(doc["suite"]) == {"seed", "digits", "started_at"}
    assert set(doc["summary"]) == {"total", "passed", "failed", "max_rel_err_by_id"}
    first = doc["results"][0]
    for key in ("id", "index", "params", "lhs", "rhs", "abs_err", "rel_err",
                "pass", "terms_used", "method", "wall_time"):
        assert key in first
    assert set(first["terms_used"]) == {"lhs", "rhs"}
    # results are sorted by (id, index)
    order = [(r["id"], r["index"]) for r in doc["results"]]
    assert order == sorted(order)


def _strip_volatile(text: str) -> str:
    text = re.sub(r'"wall_time": [0-9eE.+-]+', '"wall_time": 0', text)
    text = re.sub(r'"started_at": "[^"]*"', '"started_at": ""', text)
    return text


def test_reproducible_json_reports():
    config = SuiteConfig(identities=("saalschuetz", "bailey-6psi6"), samples=3, seed=12)
    a = run_suite(config).to_json()
    b = run_suite(config).to_json()
    assert _strip_volatile(a) == _strip_volatile(b)


def test_isolation_of_failures(monkeypatch):
    case = CATALOG["gauss-2f1"]

    def exploding(p, ctx):
        raise HyperidError("boom")

    broken = replace(case, id="zz-broken", lhs=exploding)
    solo = run_suite(SuiteConfig(identities=("saalschuetz",), samples=3, seed=4))
    monkeypatch.setitem(CATALOG, "zz-broken", broken)
    mixed = run_suite(SuiteConfig(identities=("saalschuetz", "zz-broken"), samples=3, seed=4))
    good = [r for r in mixed.results if r.identity == "saalschuetz"]
    assert all(r.passed for r in good)
    assert [r.rel_err for r in good] == [r.rel_err for r in solo.results]
    bad = [r for r in mixed.results if r.identity == "zz-broken"]
    assert all(not r.passed for r in bad)
    assert mixed.failed == 3


def test_monotone_precision():
    # a passing sample keeps passing at digits+10 with rel_err at most 10x
    for ident in CATALOG:
        case = CATALOG[ident]
        params = sample_parameters(case, 3, 0)
        low = verify_one(case, params, PrecisionContext(digits=30))
        high = verify_one(case, params, PrecisionContext(digits=40))
        assert low.passed and high.passed, ident
        assert high.rel_err <= 10 * low.rel_err + 1e-300, ident


def test_sampling_exhausted_fails_one_sample(monkeypatch):
    import hyperid.harness as harness

    monkeypatch.setattr(harness, "REJECTION_CAP", 5)
    never = replace(CATALOG["gauss-2f1"], id="zz-never", check=lambda p: False)
    monkeypatch.setitem(CATALOG, "zz-never", never)
    rep = run_suite(SuiteConfig(identities=("zz-never", "saalschuetz"), samples=2, seed=4))
    assert rep.total == 4 and rep.failed == 2
    bad = [r for r in rep.results if r.identity == "zz-never"]
    assert [r.index for r in bad] == [0, 1]
    for r in bad:
        assert not r.passed and r.params == {}
        assert r.error.startswith("SamplingExhausted: ")
    assert all(r.passed for r in rep.results if r.identity == "saalschuetz")
