import json
import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from hyperid import harness
from hyperid.catalog import CATALOG
from hyperid.errors import HyperidError, UnknownIdentityError
from hyperid.harness import (
    IdentityReport,
    SuiteConfig,
    SuiteReport,
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


def test_verify_one_enters_the_working_precision_once(monkeypatch, ctx30):
    # both sides and the tolerance rule of a sample run under one working
    # precision, in which every nested ctx.working() is the shared no-op
    entered, workdps = [], mp.workdps
    monkeypatch.setattr(mp, "workdps", lambda dps: entered.append(dps) or workdps(dps))
    assert mp.dps != ctx30.dps
    for ident in ("saalschuetz", "jackson-8phi7"):
        case = CATALOG[ident]
        report = verify_one(case, sample_parameters(case, 1, 3), ctx30)
        assert report.passed and report.lhs == report.rhs
    assert entered == [ctx30.dps, ctx30.dps]


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
    # repeated ids run once each, in first-seen order
    config = SuiteConfig(identities=("dixon", "gauss-2f1", "dixon"), samples=2)
    assert config.resolve_ids() == ("dixon", "gauss-2f1")
    assert run_suite(SuiteConfig(identities=("dixon", "dixon"), samples=2)).total == 2


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


def _one_shot_json(report):
    return json.dumps(report.to_dict(), indent=2)


def test_to_json_matches_one_shot_dumps_on_an_empty_report():
    report = SuiteReport(seed=1, digits=30, started_at="")
    assert '"results": []' in report.to_json()
    assert report.to_json() == _one_shot_json(report)


def test_to_json_matches_one_shot_dumps_on_a_failed_sample(monkeypatch):
    never = replace(CATALOG["gauss-2f1"], id="zz-never", check=lambda p: False)
    monkeypatch.setitem(CATALOG, "zz-never", never)
    report = run_suite(SuiteConfig(identities=("zz-never",), samples=1, seed=4))
    text = report.to_json()
    assert '"rel_err": Infinity' in text and '"error": "SamplingExhausted: ' in text
    assert text == _one_shot_json(report)


def test_to_json_matches_one_shot_dumps_with_complex_parameters(ctx30):
    # sample 9 is the complex one (see test_golden_report)
    report = SuiteReport(seed=0, digits=30, started_at="")
    for ident in ("saalschuetz", "dougall-2h2"):
        params = sample_parameters(CATALOG[ident], 0, 9)
        report.results.append(verify_one(CATALOG[ident], params, ctx30, index=9))
    text = report.to_json()
    assert re.search(r'"a": "[0-9.]+ [+-] [0-9.]+j"', text)
    assert text == _one_shot_json(report)


def test_to_json_peak_memory_stays_near_the_text():
    # the report is written chunk by chunk: no list of all chunks beside the text
    value = "1." + "2345678901" * 3
    report = SuiteReport(seed=1, digits=30, started_at="")
    for i in range(2000):
        report.results.append(IdentityReport(
            identity="saalschuetz", index=i,
            params={"a": "0.40625 + 0.5j", "b": "1.0 + 0.734375j", "c": "1.75", "n": "15"},
            lhs=value, rhs=value, abs_err=1.5e-31, rel_err=2.5e-31, passed=True,
            terms_used={"lhs": 16, "rhs": 0}, method={"lhs": "terminating", "rhs": "closed"},
            wall_time=0.001))
    tracemalloc.start()
    try:
        text = report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)
    assert text == _one_shot_json(report)  # many batches of chunks, same bytes


class _Writes:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


# every escape the encoder knows, non-ASCII and an astral character
_TRICKY = '"\\\x00\x1f\x7f\n\t\u2028é€😀/'
_TEXT = st.text(max_size=12) | st.just(_TRICKY)
_FLOAT = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0,
                                        5e-324, 1e308])
_RESULT = st.builds(
    IdentityReport, identity=_TEXT, index=st.integers(0, 2**70),
    params=st.dictionaries(_TEXT, _TEXT, max_size=4), lhs=_TEXT, rhs=_TEXT,
    abs_err=_FLOAT, rel_err=_FLOAT, passed=st.booleans(),
    terms_used=st.fixed_dictionaries({"lhs": st.integers(-2**64, 2**64),
                                      "rhs": st.integers(0, 9)}),
    method=st.fixed_dictionaries({"lhs": _TEXT, "rhs": _TEXT}), wall_time=_FLOAT,
    error=st.none() | _TEXT)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-2**40, 2**40), st.integers(0, 100), _TEXT,
       st.lists(_RESULT, min_size=1, max_size=4),
       st.sampled_from([0, 1, 2, harness._BATCH, harness._BATCH + 1, 2 * harness._BATCH + 3]))
@example(1, 30, _TRICKY, [IdentityReport(_TRICKY, 0, {}, "", _TRICKY, float("nan"), -0.0, False,
                                         {"lhs": 0, "rhs": 0}, {"lhs": "", "rhs": _TRICKY},
                                         5e-324, _TRICKY)], 1)
def test_write_json_is_json_dumps_with_indent_2(seed, digits, started_at, drawn, count):
    # the drawn results, cycled to `count` of them: none, one, and more
    # than one batch holds
    report = SuiteReport(seed=seed, digits=digits, started_at=started_at,
                         results=[drawn[i % len(drawn)] for i in range(count)])
    expected = json.dumps(report.to_dict(), indent=2)
    assert report.to_json() == expected
    stream = _Writes()
    report.write_json(stream)
    assert "".join(stream.writes) == expected
    if count > harness._BATCH:
        assert max(map(len, stream.writes)) < len(expected)


def test_format_param_prints_a_dyadic_fraction_exactly(monkeypatch):
    # a float that holds the value prints it; one that would round it or
    # overflow does not, and the suite is not aborted by it
    huge = Fraction(2**1100)
    cases = {
        Fraction(3, 4): "0.75", Fraction(-3): "-3.0", Fraction(0): "0.0",
        Fraction(2**60): "1.152921504606847e+18", Fraction(1, 2**1074): "5e-324",
        Fraction(2**53 - 1, 2): "4503599627370495.5",
        Fraction(int(sys.float_info.max)): "1.7976931348623157e+308",
        Fraction(2**60 + 1, 4): "1152921504606846977/4",
        Fraction(2**53 + 1, 2): "9007199254740993/2",
        Fraction(3, 2**1074): "1.5e-323", Fraction(3, 2**1075): f"3/{2**1075}",
        Fraction(1, 2**1075): f"1/{2**1075}", Fraction(2**1024): f"{2**1024}/1",
        huge: f"{2**1100}/1", Fraction(1, 3): "1/3",
    }
    for value, shown in cases.items():
        assert harness._format_param(value) == shown, value
    assert harness._format_param(mpf("0.5")) == "0.5"  # no sampled type: its str
    wild = replace(CATALOG["gauss-2f1"], id="zz-huge", check=lambda p: True,
                   sampler=lambda rng, index: {"a": huge, "b": Fraction(2**60 + 1, 4)})
    monkeypatch.setitem(CATALOG, "zz-huge", wild)
    report = run_suite(SuiteConfig(identities=("zz-huge", "saalschuetz"), samples=1, seed=4))
    good, odd = report.results  # sorted by id
    assert report.total == 2 and good.passed and odd.identity == "zz-huge"
    assert odd.params == {"a": f"{2**1100}/1", "b": "1152921504606846977/4"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-2**60, 2**60) | st.integers(-2**1100, 2**1100), st.integers(0, 1100))
def test_format_param_is_the_float_exactly_when_it_holds_the_fraction(num, k):
    value = Fraction(num, 2**k)
    try:
        f = float(value)
        exact = Fraction(f) == value
    except OverflowError:
        exact = False
    shown = repr(f) if exact else f"{value.numerator}/{value.denominator}"
    assert harness._format_param(value) == shown


def test_sampled_params_print_as_pinned():
    # the printed params of all 17 ids, seeds 1-4, indices 0-199
    shown = [{k: harness._format_param(v)
              for k, v in sample_parameters(CATALOG[i], seed, index).items()}
             for i in CATALOG for seed in (1, 2, 3, 4) for index in range(200)]
    digest = "91e1cda4ed16d60f3fafb44a6135af41363c6e07884d55f5ba8248a027d2bf67"
    assert sha256(repr(shown).encode()).hexdigest() == digest


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
    # a passing sample keeps passing at digits+10 with rel_err at most 10x;
    # a low run whose sides agree exactly counts as off by its working eps
    for ident in CATALOG:
        case = CATALOG[ident]
        params = sample_parameters(case, 3, 0)
        low_ctx = PrecisionContext(digits=30)
        low = verify_one(case, params, low_ctx)
        high = verify_one(case, params, PrecisionContext(digits=40))
        assert low.passed and high.passed, ident
        assert high.rel_err <= 10 * max(low.rel_err, float(low_ctx.eps())), ident


def test_text_report_names_each_failed_sample():
    # a failed record is the defaults but for its error or its rel_err
    report = SuiteReport(seed=1, digits=30, started_at="")
    report.results += [IdentityReport("gauss-2f1", 0, {}, error="DomainError: bad"),
                       IdentityReport("gauss-2f1", 1, {}, rel_err=0.001),
                       IdentityReport("gauss-2f1", 2, {}, rel_err=0.0, passed=True)]
    assert report.to_text().splitlines() == [
        "suite seed=1 digits=30",
        "  FAIL gauss-2f1          1/3 passed  max rel_err inf",
        "         sample 0: DomainError: bad",
        "         sample 1: rel_err 1.000e-03",
        "total 1/3 passed",
    ]
    assert report.results[0].to_dict() == {
        "id": "gauss-2f1", "index": 0, "params": {}, "lhs": "", "rhs": "",
        "abs_err": float("inf"), "rel_err": float("inf"), "pass": False,
        "terms_used": {"lhs": 0, "rhs": 0}, "method": {"lhs": "", "rhs": ""},
        "wall_time": 0.0, "error": "DomainError: bad"}


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
