import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from hyperid.cli import main, parse_scalar
from hyperid.harness import SuiteConfig, run_suite

from test_harness import _strip_volatile


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar():
    from mpmath import mp
    with mp.workdps(30):
        assert parse_scalar("2") == 2
        assert parse_scalar("-0.5") == -0.5
        v = parse_scalar("1.5+0.25i")
        assert v.real == 1.5 and v.imag == 0.25
        v = parse_scalar("1.5-0.25i")
        assert v.imag == -0.25
        # exponents in either part, at working precision
        assert parse_scalar("1e-5+2i") == mpmath.mpc(mpmath.mpf("1e-5"), 2)
        assert parse_scalar("1.5e-1+0.5i") == mpmath.mpc(mpmath.mpf("0.15"), 0.5)
        assert parse_scalar("-2.5E+3 - 1e-7j") == mpmath.mpc(-2500, mpmath.mpf("-1e-7"))
        assert parse_scalar("1e-5+2i").real != mpmath.mpf(1e-5)
        # a unit imaginary part may be left out
        assert parse_scalar("1+i") == mpmath.mpc(1, 1)
        assert parse_scalar("1 - i") == mpmath.mpc(1, -1)
        assert parse_scalar("-i") == mpmath.mpc(0, -1)
        assert parse_scalar("i") == mpmath.mpc(0, 1)
        assert parse_scalar("2j") == mpmath.mpc(0, 2)
        for bad in ("abc", "1 2+i", "1+2i3", "+", ""):
            with pytest.raises(ValueError):
                parse_scalar(bad)


def test_eval_pfq_complex_literal_with_exponent(capsys):
    # 1/(1 - z), whose real part would differ from the 21st digit on had
    # 1e-5 been read as a double, and whose imaginary part would end in
    # ...173630496385044353 had it been printed rounded to 53 bits
    for z, sign in (("1e-5+2e-1i", "+"), ("1e-5-2e-1i", "-")):
        code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "1", "--lower", "", "--z", z)
        assert code == 0
        assert out.startswith("value: 0.961547337356338839462649393309 "
                              f"{sign} 0.192311390585173619628726165924j\n")


def test_eval_pfq_telescoping(capsys):
    code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "1,1", "--lower", "3",
                           "--z", "1", "--digits", "30")
    assert code == 0
    assert out.startswith("value: 2.0")
    assert "method: levin" in out


def test_eval_pfq_z_zero(capsys):
    code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "0.5", "--lower", "",
                           "--z", "0")
    assert code == 0
    assert out.startswith("value: 1.0")


def test_eval_pfq_geometric_next_to_one(capsys):
    # |z| < 1 within 2^-53 of 1: the geometric tail bound must not see 1 - 1.0
    z = "0.99999999999999999999"
    code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "0.5,0.5", "--lower", "20",
                           "--z", z, "--digits", "30")
    assert code == 0
    with mpmath.workdps(40):
        expected = mpmath.nstr(mpmath.hyp2f1(0.5, 0.5, 20, mpmath.mpf(z)), 30)
    assert out.startswith(f"value: {expected}\n")
    assert "method: direct" in out


def test_eval_pfq_geometric_term_regrowing_after_a_zero(capsys):
    # 2F1(1, 1; -5 + 2^-72; 2^-40): t_5 rounds to 0 in fixed point and t_6,
    # past the near-pole c + 5 = 2^-72, grows back, so the small-term stop
    # ends on a last/prev ratio with no finite value; the sum converges
    # (0.99999999999981810105964549707 by mpmath.hyp2f1 at 200 digits), but
    # the geometric tail bound cannot be formed: a typed error, not a
    # ZeroDivisionError
    c = "-4.999999999999999999999788241763186424915232919374830089509487152099609375"
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "1,1", f"--lower={c}",
                             "--z", "9.094947017729282379150390625e-13")
    assert code == 1 and out == ""
    assert err.startswith("BudgetExceeded: ") and "Traceback" not in err


def test_eval_pfq_terms_growing_without_bound_reach_the_budget(capsys):
    # 1F0(10^400; ; 1/2): each term about 1330 bits longer than the one
    # before, so the sum reaches its budget of 1000 terms in a typed error,
    # and reaches it quickly: the peak term is squared once, not each term
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "1e400", "--z", "0.5",
                             "--max-terms", "1000")
    assert code == 1 and out == ""
    assert err.startswith("BudgetExceeded: ") and "Traceback" not in err


def test_eval_pfq_cancellation(capsys):
    # 1F1(1;2;-200) = (1 - e^-200)/200: terms up to 1e83 cancel down to
    # 0.005, so the direct route must sum again at raised precision
    code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "1", "--lower", "2",
                           "--z", "-200", "--digits", "30")
    assert code == 0
    with mpmath.workdps(60):
        expected = mpmath.nstr(mpmath.hyp1f1(1, 2, -200), 30)
    assert expected.startswith("0.005")
    assert out.startswith(f"value: {expected}\n")
    err = float(re.search(r"err_estimate: (\S+)", out).group(1))
    assert err < 1e-30


def test_eval_pfq_cancellation_needs_several_passes(capsys):
    # 1F1(1;2;-300) = (1 - e^-300)/300: terms up to 1e128 lose every digit
    # at 40 and at 120 digits; the third pass, at 360 digits, keeps them
    code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "1", "--lower", "2",
                           "--z", "-300", "--digits", "30")
    assert code == 0
    assert out.startswith("value: 0.00333333333333333333333333333333\n")


def test_eval_pfq_cancellation_beyond_reach(capsys):
    # 1F1(1;2;-3000): the terms reach 1e1300, more than the direct route may
    # raise its precision to absorb; a typed error, not a useless value
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "1", "--lower", "2",
                             "--z", "-3000", "--digits", "30")
    assert code == 1 and out == ""
    assert err.startswith("CancellationError: ")


def test_eval_phi_cancellation(capsys):
    # 0phi0(;;q, z) = (z;q)_inf, whose factor 1 - z q^20 nearly vanishes at
    # z = 2^20 + 1e-13: the terms peak near 1e63 above a value near 1e43
    z = "1048576.0000000000001"
    code, out, _ = run_cli(capsys, "eval", "phi", "--upper", "", "--lower", "",
                           "--z", z, "--q", "0.5", "--digits", "30")
    assert code == 0
    with mpmath.workdps(40):
        zz = mpmath.mpf(z)
    with mpmath.workdps(200):
        expected = mpmath.nstr(mpmath.qp(zz, mpmath.mpf("0.5")), 30)
    assert out.startswith(f"value: {expected}\n")


def test_eval_phi_cancellation_to_zero(capsys):
    # 0phi0(;;1/2, 1024) = (1024;1/2)_inf is exactly 0 (its factor
    # 1 - 1024 q^10 vanishes): no pass keeps a digit, so a typed error
    code, out, err = run_cli(capsys, "eval", "phi", "--upper", "", "--lower", "",
                             "--z", "1024", "--q", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("CancellationError: ")


def test_eval_hseries(capsys):
    # 2H2(1/2,1/2;3/2,3/2;1) = pi^2/4 = 2.4674...
    code, out, _ = run_cli(capsys, "eval", "hseries", "--upper", "0.5,0.5",
                           "--lower", "1.5,1.5", "--z", "1", "--digits", "30")
    assert code == 0
    assert out.startswith("value: 2.4674")


def test_eval_hseries_off_the_unit_circle(capsys):
    # a two-sided series converges where both halves do: here one half ends
    # or vanishes and the other converges, at 30 digits
    for upper, lower, z, value in (
        ("0.5,0.25", "1,1.5", "0.5", "1.05260350991335252922692523787"),  # 2F1(1/2, 1/4; 3/2; 1/2)
        ("0.5,0.25", "3,1.5", "0.5", "4.31704696612160174996068948582"),
        ("-3,0.25", "0.7,1.5", "2", "0.425735840796179428449058371283"),
    ):
        code, out, _ = run_cli(capsys, "eval", "hseries", "--upper", upper, "--lower", lower, "--z", z)
        assert code == 0 and out.startswith(f"value: {value}\n"), (upper, lower, z)
    # where a half diverges or hits a pole: exit code 1 and a typed error
    for upper, lower, z, error in (
        ("0.5,0.5", "1.5,1.5", "0.5", "DivergentError: series diverges at the given argument"),
        ("-3,0.25", "0.7,1.5", "0.5", "DivergentError: series diverges at the given argument"),
        ("0.5,0.5", "0.75,1.25", "1", "NotConvergent: decay exponent Re = 1.0 is not > 1"),
        ("2,0.25", "3,1.5", "0.5", "LowerPoleError: "),
    ):
        code, out, err = run_cli(capsys, "eval", "hseries", "--upper", upper, "--lower", lower, "--z", z)
        assert code == 1 and out == "", (upper, lower, z)
        assert err.startswith(error) and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--upper", "0.5", "--lower", "1152921504606846976,0.25", "--z", "0.5", "--q", "0.015625"),
    ("--upper", "0.5", "--lower", "1000", "--z", "0.5", "--q", "0.1"),
    ("--upper", "0.5,0.3", "--lower", "1000", "--z", "0.5", "--q", "0.1"),
])
def test_eval_phi_lower_on_a_q_pole(capsys, argv):
    # lowers q^-10 (exact) and q^-3 (to within q's rounding), reached before
    # the sum ends: no value, a typed error
    code, out, err = run_cli(capsys, "eval", "phi", *argv)
    assert code == 1 and out == ""
    assert err.startswith("LowerPoleError: ") and "Traceback" not in err


def test_eval_phi(capsys):
    # 1phi0(0.5; -; q=0.5, z=0.25): plain geometric-type q-series
    code, out, _ = run_cli(capsys, "eval", "phi", "--upper", "0.5", "--lower", "",
                           "--z", "0.25", "--q", "0.5")
    assert code == 0
    assert "method: direct" in out


def test_eval_psi_out_of_domain(capsys):
    code, out, err = run_cli(capsys, "eval", "psi", "--upper", "3,3",
                             "--lower", "0.6,0.6", "--z", "1.5", "--q", "0.5")
    assert code == 1
    assert "DomainError" in err


def test_eval_psi_with_a_terminating_negative_half(capsys):
    # the lower 1/4 = q^2 ends the negative half after its k = -1 term
    code, out, err = run_cli(capsys, "eval", "psi", "--upper", "0.3", "--lower", "0.25",
                             "--z", "0.5", "--q", "0.5")
    assert code == 0 and err == ""
    assert out.startswith("value: 4.41602194925151168837044061806")


@pytest.mark.parametrize("argv", [
    ("hseries", "--upper", "0.5,0.5", "--lower", "inf,1.5", "--z", "1"),
    ("hseries", "--upper", "nan,1", "--lower", "2,2", "--z", "1"),
    ("pfq", "--upper", "1", "--lower", "2", "--z", "nan"),
    ("phi", "--upper", "nan", "--lower", "", "--z", "0.25", "--q", "0.5"),
    ("pfq", "--upper", "1", "--lower", "inf", "--z", "0.5"),
])
def test_eval_non_finite_input_is_a_domain_error(capsys, argv):
    # no traceback, no spin through the term budget, no value: a typed
    # error before the first term
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 1 and out == ""
    assert err.startswith("DomainError: ")


def test_eval_psi_unequal_counts_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "eval", "psi", "--upper", "2,2", "--lower", "0.6",
                             "--z", "0.5", "--q", "0.5")
    assert code == 2
    assert "usage error: psi series requires equal parameter counts" in err
    # every subcommand builds the one record, and gets its message
    for argv, message in ((("hseries", "--upper", "2,2", "--lower", "0.6"),
                           "bilateral series requires equal parameter counts"),
                          (("pfq", "--lower", "0.6"),
                           "unilateral series needs at least one upper parameter")):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"


def test_eval_requires_q_for_psi(capsys):
    code, out, err = run_cli(capsys, "eval", "psi", "--upper", "2", "--lower", "0.5",
                             "--z", "0.5")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("pfq", "--upper", "-0.5,1", "--lower", "2", "--z", "0.5"),
    ("pfq", "--upper", "1", "--lower", "-1.5,2", "--z", "0.5"),
    ("pfq", "--upper", "1", "--lower", "2", "--z", "-0.5+0.5i"),
    ("pfq", "--upper", "1", "--lower", "2", "--z", "-i"),
    ("phi", "--upper", "0.5", "--lower", "", "--z", "0.25", "--q", "-0.5+0.25i"),
])
def test_eval_value_opening_with_minus(capsys, argv):
    # a list or a complex literal that opens with '-' is the option's value,
    # exactly as when it is joined to the option with '='
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 0 and err == ""
    i = next(i for i, a in enumerate(argv) if a.startswith("-") and not a.startswith("--"))
    joined = (*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:])
    assert run_cli(capsys, "eval", *joined) == (0, out, "")
    if argv[2] == "-0.5,1":
        # 2F1(-1/2, 1; 2; 1/2) = (1 - 2^(-3/2)) / (3/4)
        assert out.startswith("value: 0.86192881254230165039943709193\n")


def test_eval_engine_fault_is_no_usage_error(capsys, monkeypatch):
    # a ValueError raised while a series is summed is a fault of the engine,
    # not of the input: it propagates out of main, as any non-HyperidError does
    def fault(spec, ctx):
        raise ValueError("engine fault")

    monkeypatch.setattr("hyperid.cli.sum_unilateral", fault)
    with pytest.raises(ValueError, match="^engine fault$"):
        main(["eval", "pfq", "--upper", "1,1", "--lower", "3", "--z", "0.5"])
    assert capsys.readouterr().err == ""


def test_eval_rejects_malformed_literal(capsys):
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "1,abc", "--lower", "3",
                             "--z", "1")
    assert code == 2
    assert "bad numeric literal" in err


def test_eval_divergent_beyond_thirty_digits(capsys):
    # |z| - 1 = 1e-38 is invisible at 30 digits but not at the working precision
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "0.5,0.5", "--lower", "20",
                             "--z", "1.00000000000000000000000000000000000001",
                             "--digits", "50")
    assert code == 1
    assert "DivergentError" in err


@pytest.mark.parametrize("a, b, c, digits, terms", [
    # terms that grow until k ~ 180: the Levin table degrades at 31 terms
    ("20.25", "20.125", "41.375", 30, 60),
    # the table degrades past its best at 234 terms, |t_m| not growing
    ("480", "0.5", "500.5", 60, 180),
], ids=["30-digits", "60-digits"])
def test_eval_levin_failure_falls_to_the_factorial_tail(capsys, a, b, c, digits, terms):
    # Gauss 2F1(a, b; c; 1) whose probe sends it to Levin, where the table
    # fails: direct+tail sums it, and every printed digit is the closed form's
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", f"{a},{b}", "--lower", c,
                             "--z", "1", "--digits", str(digits))
    assert code == 0 and err == ""
    assert f"terms_used: {terms}\nmethod: direct+tail\n" in out
    with mpmath.workdps(digits + 40):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        gauss = mpmath.gammaprod([c, c - a - b], [c - a, c - b])
        assert out.startswith(f"value: {mpmath.nstr(gauss, digits)}\n")


def test_bad_precision_settings_are_usage_errors(capsys):
    for argv in (
        ("verify", "--digits", "5"),
        ("verify", "--max-terms", "10"),
        ("eval", "pfq", "--upper", "1,1", "--lower", "3", "--digits", "5"),
        ("eval", "pfq", "--upper", "1,1", "--lower", "3", "--max-terms", "10"),
        ("verify", "--identity", "gauss-2f1", "--samples", "-3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("usage error:"), argv


def test_verify_unknown_identity(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "nope")
    assert code == 2
    assert "unknown identity" in err


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "saalschuetz",
                           "--samples", "5", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["total"] == 5
    assert doc["summary"]["failed"] == 0
    assert len(doc["results"]) == 5
    assert doc["suite"]["seed"] == 3


def test_verify_text_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "gauss-2f1",
                           "--samples", "3", "--seed", "1")
    assert code == 0
    assert "gauss-2f1" in out


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--identity", "saalschuetz",
                           "--samples", "2", "--json", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["summary"]["total"] == 2


def test_verify_out_unwritable(tmp_path, capsys, monkeypatch):
    # the path is checked before the suite runs
    monkeypatch.setattr("hyperid.cli.run_suite", lambda config: pytest.fail("suite ran"))
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--identity", "saalschuetz",
                             "--samples", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: cannot write {target}")
    assert "Traceback" not in err


def test_verify_out_file_is_the_report_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--identity", "saalschuetz,jackson-8phi7",
                         "--samples", "3", "--seed", "5", "--json", "--out", str(target))
    assert code == 0
    config = SuiteConfig(identities=("saalschuetz", "jackson-8phi7"), samples=3, seed=5)
    expected = run_suite(config).to_json() + "\n"
    assert _strip_volatile(target.read_text()) == _strip_volatile(expected)


def test_verify_byte_stable(capsys):
    def volatile_stripped():
        code, out, _ = run_cli(capsys, "verify", "--identity", "phi65",
                               "--samples", "2", "--seed", "9", "--json")
        assert code == 0
        return _strip_volatile(out)

    assert volatile_stripped() == volatile_stripped()


def test_list_catalog(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    ids = [line for line in out.splitlines() if line and not line.startswith(" ")]
    assert len(ids) == 17
    assert "dougall-2h2" in ids
    assert "    constraint: Re(c+d-a-b) in [15, 30]\n" in out


def test_list_json(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["identities"]) == 17
    entry = {e["id"]: e for e in doc["identities"]}["dougall-2h2"]
    assert "Re(c+d-a-b) in [15, 30]" in entry["constraints"]


def test_digits_env_override(monkeypatch, capsys):
    monkeypatch.setenv("HYPERID_DIGITS", "35")
    from hyperid.cli import default_digits
    assert default_digits() == 35
    monkeypatch.delenv("HYPERID_DIGITS")
    assert default_digits() == 30


def test_eval_finds_the_terminating_index(capsys):
    # an upper q^-n ends a phi series after its term n, whatever z:
    # 8 (1/2)^3 = 1 gives an exact 0 at z = 1/2 and a finite sum at z = 3
    for argv, value, terms in (
        (("--upper", "8", "--z", "0.5", "--q", "0.5"), "0.0", 4),
        (("--upper", "8", "--z", "3", "--q", "0.5"), "-1265.0", 4),
        (("--upper", "1000", "--z", "3", "--q", "0.1"), "-26004329.0", 4),
        (("--upper", "1e400", "--q", "1e-400"), "-1.0e+400", 2),
        (("--upper", "1", "--z", "0.5", "--q", "0"), "1.0", 1),
    ):
        code, out, _ = run_cli(capsys, "eval", "phi", *argv)
        assert code == 0, argv
        assert out.startswith(f"value: {value}\n"), argv
        assert f"terms_used: {terms}\nmethod: terminating\n" in out, argv
    # no upper of 1phi0(0.5;;q=0.5, z=0.5) is a power q^-n: it sums to 2
    code, out, _ = run_cli(capsys, "eval", "phi", "--upper", "0.5", "--z", "0.5", "--q", "0.5")
    assert code == 0
    assert out.startswith("value: 2.0\n") and "method: direct" in out
    # nor is 1e400, past the float range, at q = 1/2
    code, out, err = run_cli(capsys, "eval", "phi", "--upper", "1e400", "--q", "0.5")
    assert code == 1 and err.startswith("DomainError: ")


def test_eval_bad_parameter_counts_are_usage_errors(capsys):
    for argv in (
        ("eval", "pfq", "--upper", "", "--z", "0.5"),
        ("eval", "hseries", "--upper", "1", "--lower", "", "--z", "0.5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("usage error:"), argv


def test_eval_balance_decides_convergence(capsys):
    # 1F1 is entire: 1F1(1;2;2) = (e^2 - 1)/2 sums directly at |z| > 1
    code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "1", "--lower", "2",
                           "--z", "2", "--digits", "30")
    assert code == 0
    assert out.startswith("value: 3.19452804946532511361521373029\n")
    assert "method: direct" in out
    # 3F1 diverges at every z != 0, before any term is summed
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "1,1,1", "--lower", "2",
                             "--z", "0.5", "--max-terms", "1000")
    assert code == 1
    assert "DivergentError" in err


def test_eval_q_options_only_on_q_series(capsys):
    code, out, err = run_cli(capsys, "eval", "hseries", "--upper", "0.5", "--lower", "1.5",
                             "--z", "1", "--q", "0.5")
    assert code == 2 and out == ""


def test_bad_digits_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HYPERID_DIGITS", "abc")
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "1,1", "--lower", "3",
                             "--z", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "HYPERID_DIGITS" in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "saalschuetz", "--samples", "1"),
    ("eval", "pfq", "--upper", "1,1", "--lower", "3"),
])
def test_closed_output_pipe_exits_quietly(argv, unbuffered):
    # stdout is a pipe whose reader left before the command started: exit
    # code 1 and nothing on stderr, whether the output is flushed at exit or
    # written through at once
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "hyperid.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [line for line in readme.read_text().splitlines()
            if line.startswith(("hyperid eval ", "hyperid list"))]


def test_readme_examples_run(capsys):
    commands = _readme_commands()
    assert len(commands) >= 6
    for line in commands:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: a nonterminating phi series whose sum is exactly 0 "
                          "ends in CancellationError")
def test_eval_phi_whose_sum_is_exactly_zero(capsys):
    # 1phi0(8;;q = -1/2, z = 1/2) = (4;q)_inf / (1/2;q)_inf holds the factor
    # 1 - 4 q^2 = 0, though no upper is a power q^-n
    code, out, err = run_cli(capsys, "eval", "phi", "--upper", "8", "--z", "0.5", "--q", "-0.5")
    assert code == 0, err
    assert out.startswith("value: 0.0\n")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: a nonterminating pFq series whose sum is exactly 0 "
                          "ends in CancellationError")
def test_eval_pfq_whose_sum_is_exactly_zero(capsys):
    # 1F0(a;;1) = (1 - 1)^-a = 0 for Re a < 0, here a = -91/32 (decay exponent 3.84375)
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper=-2.84375", "--z", "1")
    assert code == 0, err
    assert out.startswith("value: 0.0\n")
