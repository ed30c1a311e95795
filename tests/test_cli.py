import json
import re

import mpmath

from hyperid.cli import main, parse_scalar


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


def test_eval_hseries(capsys):
    # 2H2(1/2,1/2;3/2,3/2;1) = pi^2/4 = 2.4674...
    code, out, _ = run_cli(capsys, "eval", "hseries", "--upper", "0.5,0.5",
                           "--lower", "1.5,1.5", "--z", "1", "--digits", "30")
    assert code == 0
    assert out.startswith("value: 2.4674")


def test_eval_phi(capsys):
    # 1phi0(0.5; -; q=0.5, z=0.25): plain geometric-type q-series
    code, out, _ = run_cli(capsys, "eval", "phi", "--upper", "0.5", "--lower", "",
                           "--z", "0.25", "--q", "0.5")
    assert code == 0
    assert "method: direct" in out


def test_eval_psi_out_of_domain(capsys):
    code, out, err = run_cli(capsys, "eval", "psi", "--upper", "2,2",
                             "--lower", "0.6,0.6", "--z", "1.5", "--q", "0.5")
    assert code == 1
    assert "DomainError" in err


def test_eval_requires_q_for_psi(capsys):
    code, out, err = run_cli(capsys, "eval", "psi", "--upper", "2", "--lower", "0.5",
                             "--z", "0.5")
    assert code == 2


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


def test_bad_precision_settings_are_usage_errors(capsys):
    for argv in (
        ("verify", "--digits", "5"),
        ("verify", "--max-terms", "10"),
        ("eval", "pfq", "--upper", "1,1", "--lower", "3", "--digits", "5"),
        ("eval", "pfq", "--upper", "1,1", "--lower", "3", "--max-terms", "10"),
        ("verify", "--identity", "gauss-2f1", "--samples", "-3"),
        ("eval", "phi", "--upper", "0.5", "--lower", "", "--z", "0.25", "--q", "0.5",
         "--terminating", "-2"),
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


def test_verify_byte_stable(capsys):
    def volatile_stripped():
        code, out, _ = run_cli(capsys, "verify", "--identity", "phi65",
                               "--samples", "2", "--seed", "9", "--json")
        assert code == 0
        out = re.sub(r'"wall_time": [0-9eE.+-]+', '"wall_time": 0', out)
        out = re.sub(r'"started_at": "[^"]*"', '"started_at": ""', out)
        return out

    assert volatile_stripped() == volatile_stripped()


def test_list_catalog(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    ids = [line for line in out.splitlines() if line and not line.startswith(" ")]
    assert len(ids) == 17
    assert "dougall-2h2" in ids
    assert "Re(c+d-a-b)>1" in out


def test_list_json(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["identities"]) == 17
    entry = {e["id"]: e for e in doc["identities"]}["dougall-2h2"]
    assert "Re(c+d-a-b)>1" in entry["constraints"]


def test_digits_env_override(monkeypatch, capsys):
    monkeypatch.setenv("HYPERID_DIGITS", "35")
    from hyperid.cli import default_digits
    assert default_digits() == 35
    monkeypatch.delenv("HYPERID_DIGITS")
    assert default_digits() == 30


def test_eval_terminating_index_must_match_an_upper(capsys):
    # 1phi0(0.5;;q=0.5, z=0.5) sums to 2.0; no upper is q^-3, so N = 3 is refused
    code, out, err = run_cli(capsys, "eval", "phi", "--upper", "0.5", "--z", "0.5",
                             "--q", "0.5", "--terminating", "3")
    assert code == 2 and out == ""
    assert err.startswith("usage error:")
    # the upper 8 = q^-3 does terminate the series after four terms
    code, out, _ = run_cli(capsys, "eval", "phi", "--upper", "8", "--z", "0.5",
                           "--q", "0.5", "--terminating", "3")
    assert code == 0
    assert "method: terminating" in out and "terms_used: 4" in out
    code, out, _ = run_cli(capsys, "eval", "psi", "--upper", "0.001", "--lower", "0.5",
                           "--z", "0.5", "--q", "0.1", "--terminating", "3")
    assert code == 2


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
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "0.5", "--z", "0.5",
                             "--terminating", "3")
    assert code == 2 and out == ""
    assert "--terminating" in err
    code, out, err = run_cli(capsys, "eval", "hseries", "--upper", "0.5", "--lower", "1.5",
                             "--z", "1", "--q", "0.5")
    assert code == 2 and out == ""


def test_bad_digits_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HYPERID_DIGITS", "abc")
    code, out, err = run_cli(capsys, "eval", "pfq", "--upper", "1,1", "--lower", "3",
                             "--z", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "HYPERID_DIGITS" in err
