"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line once its assertions have held; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
import time
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from hyperid.catalog import CATALOG, phi_sum
from hyperid.cli import main as cli_main
from hyperid.gammafn import gamma
from hyperid.harness import SuiteConfig, run_suite, sample_parameters, verify_one
from hyperid.precision import PrecisionContext, to_mp
from hyperid.qseries import QContext, QSeriesSpec, principal_sqrt, q_pochhammer, sum_q_series
from hyperid.series import SeriesSpec, levin_u, split_bilateral, sum_unilateral

from oracles import brute_bilateral_h, brute_bilateral_psi


def test_criterion_1_analytic_anchor():
    start = time.perf_counter()
    ctx = PrecisionContext(digits=40)
    half = Fraction(1, 2)
    with ctx.working():
        phi = phi_sum(to_mp(half), to_mp(half), to_mp(half), to_mp(half), ctx)
    case = CATALOG["theorem-1"]
    p = {"a": half, "b": half, "c": half, "d": half}
    left = case.lhs(p, ctx)
    right = case.rhs(p, ctx)
    with mp.workdps(60):
        target = mpmath.pi**2
        assert abs(left.value - target) / target < mpf(10) ** -25
        assert abs(right.value - target) / target < mpf(10) ** -25
        assert abs(phi.value - mpmath.pi**2 / 2) / (mpmath.pi**2 / 2) < mpf(10) ** -25
    assert phi.method == "levin"
    assert phi.terms_used <= 200
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - analytic anchor pi^2 at 40 digits in {elapsed:.3f}s")


def test_criterion_2_symmetric_identity_random():
    start = time.perf_counter()
    rep = run_suite(SuiteConfig(identities=("theorem-1",), samples=50, seed=0, digits=40))
    assert rep.failed == 0
    worst = max(r.rel_err for r in rep.results)
    assert worst < 1e-20
    # route agreement where the 3F2 representation converges comfortably
    ctx = PrecisionContext(digits=40)
    case = CATALOG["phi-as-3f2"]
    for index in range(20):
        p = sample_parameters(case, 0, index)
        assert complex(p["c"]).real >= 5
        left = case.lhs(p, ctx)
        right = case.rhs(p, ctx)
        with ctx.working():
            assert abs(left.value - right.value) <= 100 * (
                left.err_estimate + right.err_estimate
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2: PASS - 50 samples at 40 digits, worst rel_err {worst:.2e}, "
          f"route agreement on 20 samples, {elapsed:.1f}s")


def test_criterion_3_derivation_chain():
    ctx = PrecisionContext(digits=30)
    rep = run_suite(SuiteConfig(identities=("h22-split",), samples=20, seed=0, digits=30))
    assert rep.failed == 0
    worst = max(r.rel_err for r in rep.results)
    assert worst < 1e-15
    # substitution (c,d) -> (d-a-b, c-a-b) in the combined symmetric display
    # reproduces the nonterminating balanced evaluation
    from hyperid.gammafn import gamma_ratio

    worst_sub = 0.0
    for index in range(20):
        p = sample_parameters(CATALOG["saalschuetz-nt"], 0, index)
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            t1 = sum_unilateral(SeriesSpec((a, b, c + d - a - b - 1), (d, c), 1), ctx)
            g1 = gamma_ratio([a, b, c + d - a - b - 1], [c, d], ctx)
            t2s = sum_unilateral(SeriesSpec((1, c - b, c - a), (1 + c - a - b, c + d - a - b), 1), ctx)
            t2 = t2s.value / ((c - a - b) * (c + d - a - b - 1))
            rhsp = gamma_ratio(
                [a, b, d - a - b, c - a - b, c + d - a - b - 1],
                [d - b, c - b, d - a, c - a], ctx,
            )
            rel = abs(g1 * t1.value + t2 - rhsp) / abs(rhsp)
            cat_rhs = CATALOG["saalschuetz-nt"].rhs(p, ctx)
            rel2 = abs((rhsp - t2) / g1 - cat_rhs.value) / abs(cat_rhs.value)
            worst_sub = max(worst_sub, float(rel), float(rel2))
    assert worst_sub < 1e-15
    print(f"\nACCEPTANCE 3: PASS - h22-split worst {worst:.2e}, "
          f"substitution check worst {worst_sub:.2e}")


def test_criterion_4_classical_catalog():
    ids = ("saalschuetz", "gauss-2f1", "dixon", "dougall-2h2", "saalschuetz-nt")
    rep = run_suite(SuiteConfig(identities=ids, samples=20, seed=0, digits=30))
    assert rep.failed == 0
    worst = max(r.rel_err for r in rep.results)
    assert worst < 1e-15
    # dyadic terminating samples are compared exactly
    for r in rep.results:
        if r.identity == "saalschuetz" and "j" not in r.params["a"]:
            assert r.rel_err == 0.0
    # bilateral summation stays within 10^4 terms per side
    ctx = PrecisionContext(digits=30)
    for index in range(20):
        p = sample_parameters(CATALOG["dougall-2h2"], 0, index)
        with ctx.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            spec = SeriesSpec((a, b), (c, d), 1, "bilateral")
            plus, pref, minus = split_bilateral(spec, ctx)
            assert sum_unilateral(plus, ctx).terms_used <= 10_000
            assert sum_unilateral(minus, ctx).terms_used <= 10_000
    print(f"\nACCEPTANCE 4: PASS - classical catalog 100/100, worst rel_err {worst:.2e}, "
          f"bilateral sides within 10^4 terms")


def test_criterion_5_q_catalog():
    start = time.perf_counter()
    ids = ("bailey-6psi6", "phi65", "jackson-8phi7", "jackson-nt", "omega", "theta", "bailey-split")
    rep = run_suite(SuiteConfig(identities=ids, samples=20, seed=0, digits=30))
    assert rep.failed == 0
    worst = max(r.rel_err for r in rep.results)
    assert worst < 1e-20
    for r in rep.results:
        assert float(Fraction(r.params["q"])) < 0.8 and float(Fraction(r.params["q"])) > 0.1
        if r.identity == "jackson-8phi7":
            assert r.rel_err == 0.0  # exact rational route for n <= 15
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5: PASS - q-catalog 140/140, worst rel_err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_specialization_coherence():
    from hyperid import exact
    from hyperid.gammafn import gamma_ratio

    ctx = PrecisionContext(digits=30)
    # terminating reduction of the symmetric identity == balanced sum
    rng = random.Random(606)
    for _ in range(10):
        a = Fraction(rng.randint(17, 190), 64)
        c = Fraction(rng.randint(17, 190), 64) + Fraction(1, 128)
        d = Fraction(rng.randint(17, 190), 64) + Fraction(1, 128)
        n = rng.randint(0, 20)
        lv, rv = exact.phi_symmetric_terminating_sides(a, c, d, n)
        ls, rs = exact.saalschuetz_sides(a, a + c + d - 1 - n, a + c - n, n)
        assert lv == ls and rv == rs and lv == rv
    # bailey at e = a collapses onto the unilateral 6phi5 evaluation
    for index in range(10):
        p65 = sample_parameters(CATALOG["phi65"], 2, index)
        qc = QContext(p65["q"], ctx)
        with ctx.working():
            a, b, c, d, qm = (to_mp(p65[k]) for k in "abcdq")
            ra = principal_sqrt(a)
            z = qm * a / (b * c * d)
            psi = QSeriesSpec(
                (qm * ra, -qm * ra, b, c, d, a),
                (ra, -ra, qm * a / b, qm * a / c, qm * a / d, qm),
                z, "psi",
            )
            collapsed = sum_q_series(psi, qc)
            l65 = CATALOG["phi65"].lhs(p65, ctx)
            r65 = CATALOG["phi65"].rhs(p65, ctx)
            assert abs(collapsed.value - l65.value) / abs(l65.value) < mpf(10) ** -15
            assert abs(collapsed.value - r65.value) / abs(r65.value) < mpf(10) ** -15
    # half-argument reduction == symmetric identity at (a,b,a,b) == Dixon
    for index in range(10):
        p = sample_parameters(CATALOG["theorem-1-ca-db"], 2, index)
        if isinstance(p["a"], complex):
            p = {"a": Fraction(5, 8), "b": Fraction(9, 16)}
        l1 = CATALOG["theorem-1-ca-db"].lhs(p, ctx)
        r1 = CATALOG["theorem-1-ca-db"].rhs(p, ctx)
        with ctx.working():
            a, b = to_mp(p["a"]), to_mp(p["b"])
            pref = gamma_ratio([a, b, 2 * a + 2 * b - 1], [2 * a + b, a + 2 * b], ctx)
            l2 = CATALOG["theorem-1"].lhs({"a": p["a"], "b": p["b"], "c": p["a"], "d": p["b"]}, ctx)
            assert abs(l2.value / (2 * pref) - l1.value) / abs(l1.value) < mpf(10) ** -15
        ld = CATALOG["dixon"].lhs({"a": 2 * Fraction(p["a"]) + 2 * Fraction(p["b"]) - 1, "b": p["b"], "c": p["a"]}, ctx)
        rd = CATALOG["dixon"].rhs({"a": 2 * Fraction(p["a"]) + 2 * Fraction(p["b"]) - 1, "b": p["b"], "c": p["a"]}, ctx)
        with ctx.working():
            assert abs(ld.value - l1.value) / abs(l1.value) < mpf(10) ** -15
            assert abs(rd.value - r1.value) / abs(r1.value) < mpf(10) ** -15
    print("\nACCEPTANCE 6: PASS - specialization coherence on 10 shared samples per pair")


def test_criterion_7_numerics_substrate():
    ctx = PrecisionContext(digits=30)
    rng = random.Random(77)
    # gamma recurrence and reflection on 1000 box samples
    with ctx.working():
        checked = 0
        worst_rec = mpf(0)
        worst_ref = mpf(0)
        while checked < 1000:
            z = mpc(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if min(abs(z - m) for m in range(-12, 1)) < 0.01:
                continue
            if min(abs(1 - z - m) for m in range(-12, 1)) < 0.01:
                continue
            g = gamma(z, ctx)
            g1 = gamma(z + 1, ctx)
            worst_rec = max(worst_rec, abs(g1 - z * g) / abs(g1))
            worst_ref = max(worst_ref, abs(g * gamma(1 - z, ctx) * mpmath.sin(mpmath.pi * z) / mpmath.pi - 1))
            checked += 1
        assert worst_rec < mpf(10) ** (2 - ctx.digits)
        assert worst_ref < mpf(10) ** (2 - ctx.digits)
    # Pochhammer functional equation, mixed signs
    from hyperid.gammafn import pochhammer
    with ctx.working():
        for _ in range(50):
            x = Fraction(rng.randint(17, 320), 64) + Fraction(1, 128)
            n = rng.randint(-6, 6)
            m = rng.randint(-6, 6)
            lhs = pochhammer(x, n + m, ctx)
            rhs = pochhammer(x, n, ctx) * pochhammer(Fraction(x) + n, m, ctx)
            assert abs(lhs - rhs) <= abs(lhs) * mpf(10) ** -33
    # q-Pochhammer functional equation, mixed signs
    with ctx.working():
        for _ in range(50):
            qv = Fraction(rng.randint(7, 51), 64)
            qc = QContext(qv, ctx)
            x = Fraction(-rng.randint(17, 190), 64)
            n = rng.randint(-5, 5)
            m = rng.randint(-5, 5)
            lhs = q_pochhammer(x, qc, n + m)
            rhs = q_pochhammer(x, qc, n) * q_pochhammer(to_mp(x) * to_mp(qv) ** n, qc, m)
            assert abs(lhs - rhs) <= abs(lhs) * mpf(10) ** -33
    # Levin u recovers zeta(2) to 20 digits within 60 terms
    with ctx.working():
        terms = [mpf(1) / (k + 1) ** 2 for k in range(60)]
    res = levin_u(terms, ctx)
    assert res.terms_used <= 60
    with mp.workdps(50):
        assert abs(res.value - mpmath.pi**2 / 6) < mpf(10) ** -20
    # brute-force bilateral sums against split evaluations
    for index in range(10):
        p = sample_parameters(CATALOG["dougall-2h2"], 1, index)
        if any(isinstance(v, complex) for v in p.values()):
            p = sample_parameters(CATALOG["dougall-2h2"], 1, index + 101)
        res = CATALOG["dougall-2h2"].lhs(p, ctx)
        brute, tail, rounding = brute_bilateral_h(
            [p["a"], p["b"]], [p["c"], p["d"]], 10_000
        )
        assert abs(float(res.value) - brute) <= tail + rounding + 1e-11 * abs(brute)
    for index in range(10):
        p = sample_parameters(CATALOG["bailey-6psi6"], 1, index)
        qc = QContext(p["q"], ctx)
        with ctx.working():
            a, b, c, d, e, qm = (to_mp(p[k]) for k in "abcdeq")
            ra = principal_sqrt(a)
            z = qm * a * a / (b * c * d * e)
            spec = QSeriesSpec(
                (qm * ra, -qm * ra, b, c, d, e),
                (ra, -ra, qm * a / b, qm * a / c, qm * a / d, qm * a / e),
                z, "psi",
            )
            res = sum_q_series(spec, qc)
        fa = float(Fraction(p["a"]))
        rafl = fa ** 0.5
        fu = [float(Fraction(p["q"])) * rafl, -float(Fraction(p["q"])) * rafl,
              float(Fraction(p["b"])), float(Fraction(p["c"])), float(Fraction(p["d"])), float(Fraction(p["e"]))]
        qa = float(Fraction(p["q"])) * fa
        fl = [rafl, -rafl, qa / float(Fraction(p["b"])), qa / float(Fraction(p["c"])),
              qa / float(Fraction(p["d"])), qa / float(Fraction(p["e"]))]
        zf = qa * fa / (float(Fraction(p["b"])) * float(Fraction(p["c"])) * float(Fraction(p["d"])) * float(Fraction(p["e"])))
        brute, tail, rounding = brute_bilateral_psi(fu, fl, float(Fraction(p["q"])), zf, 10_000)
        assert abs(float(res.value) - brute) <= tail + rounding + 1e-10 * abs(brute)
    print("\nACCEPTANCE 7: PASS - substrate invariants (gamma, Pochhammer, Levin, brute force)")


def test_criterion_8_negative_controls(capsys):
    from dataclasses import replace
    from hyperid.series import SeriesResult

    ctx = PrecisionContext(digits=30)
    case = CATALOG["gauss-2f1"]

    def corrupted(p, c):
        res = case.rhs(p, c)
        with c.working():
            return SeriesResult(res.value * (1 + mpf(10) ** -5), res.err_estimate,
                                res.terms_used, res.method)

    broken = replace(case, id="gauss-2f1-broken", rhs=corrupted)
    params = sample_parameters(case, 0, 0)
    rep = verify_one(broken, params, ctx)
    assert not rep.passed
    code = cli_main(["eval", "psi", "--upper", "2,2", "--lower", "0.6,0.6",
                     "--z", "1.5", "--q", "0.5"])
    out = capsys.readouterr()
    assert code == 1
    assert "DomainError" in out.err
    print("\nACCEPTANCE 8: PASS - perturbed fixture fails; out-of-domain psi exits 1 with DomainError")
