from dataclasses import replace
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from hyperid import exact
from hyperid.catalog import CATALOG, phi_sum, phi_via_3f2, tolerance_rule
from hyperid.gammafn import gamma_ratio
from hyperid.harness import sample_parameters, verify_one
from hyperid.precision import INF, to_mp
from hyperid.qseries import QContext, QSeriesSpec, principal_sqrt, q_bracket, sum_q_series
from hyperid.series import SeriesResult, SeriesSpec, sum_unilateral

from oracles import chu_vandermonde


def _sides(ident, params, ctx):
    case = CATALOG[ident]
    return case.lhs(params, ctx), case.rhs(params, ctx)


def _assert_close(lhs, rhs, ctx, tol_exp):
    with ctx.working():
        scale = abs(rhs.value) if abs(rhs.value) > 0 else mpf(1)
        assert abs(lhs.value - rhs.value) / scale < mpf(10) ** tol_exp


def test_catalog_has_seventeen_entries():
    assert len(CATALOG) == 17
    assert set(CATALOG) == {
        "saalschuetz", "saalschuetz-nt", "dougall-2h2", "gauss-2f1", "dixon",
        "theorem-1", "theorem-1-ca-db", "theorem-1-b-neg-n", "phi-as-3f2",
        "h22-split", "bailey-6psi6", "phi65", "jackson-8phi7", "jackson-nt",
        "omega", "theta", "bailey-split",
    }


def test_saalschuetz_examples(ctx30):
    l, r = _sides("saalschuetz", {"a": Fraction(1), "b": Fraction(2), "c": Fraction(5), "n": 1}, ctx30)
    with ctx30.working():
        assert l.value == r.value == mpf(6) / 5
    l, r = _sides("saalschuetz", {"a": Fraction(1, 3), "b": Fraction(7, 8), "c": Fraction(5, 2), "n": 0}, ctx30)
    assert l.value == r.value == 1
    # dyadic inputs give literally zero error
    l, r = _sides("saalschuetz", {"a": Fraction(19, 64), "b": Fraction(99, 64), "c": Fraction(13, 8), "n": 27}, ctx30)
    assert l.value == r.value
    assert l.err_estimate == 0


def test_saalschuetz_complex_route(ctx30):
    p = {"a": complex(0.5, 0.25), "b": complex(1.25, -0.5), "c": Fraction(7, 4), "n": 9}
    l, r = _sides("saalschuetz", p, ctx30)
    _assert_close(l, r, ctx30, -30)


def test_saalschuetz_nt_point(ctx30):
    p = {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(3), "d": Fraction(25, 2)}
    l, r = _sides("saalschuetz-nt", p, ctx30)
    _assert_close(l, r, ctx30, -20)


def test_saalschuetz_nt_terminating_reduction(ctx30):
    # c+d-a-b-1 = -n turns the left side into the balanced terminating sum;
    # at that point the two-term right side degenerates (0 x infinity), so
    # the consistency check is left side against the terminating product
    a, b, n = Fraction(1, 4), Fraction(1, 8), 2
    d = a + b + Fraction(127, 8) + Fraction(1, 64)
    c = 1 + a + b - n - d
    p = {"a": a, "b": b, "c": c, "d": d}
    assert not CATALOG["saalschuetz-nt"].check(p)  # excluded from sampling
    l = CATALOG["saalschuetz-nt"].lhs(p, ctx30)
    assert l.method == "terminating"
    ls, rs = exact.saalschuetz_sides(a, b, c, n)
    assert ls == rs
    with ctx30.working():
        assert abs(l.value - to_mp(rs)) < abs(l.value) * mpf(10) ** -30


def test_dougall_2h2_sample_and_symmetry(ctx30):
    a, b = Fraction(5, 8), Fraction(19, 16)
    p = {"a": a, "b": b, "c": a + 11, "d": b + 9}
    l, r = _sides("dougall-2h2", p, ctx30)
    _assert_close(l, r, ctx30, -22)
    # swapping (a,b) and (c,d) leaves both sides invariant
    q = {"a": b, "b": a, "c": b + 9 + (a - b), "d": a + 11 - (a - b)}
    q = {"a": b, "b": a, "c": p["d"], "d": p["c"]}
    l2, r2 = _sides("dougall-2h2", q, ctx30)
    with ctx30.working():
        assert abs(l.value - l2.value) < abs(l.value) * mpf(10) ** -25
        assert abs(r.value - r2.value) < abs(r.value) * mpf(10) ** -25


def test_dougall_constraint_excludes_pole(ctx30):
    # integer upper: Gamma(1-a) pole
    p = {"a": Fraction(1), "b": Fraction(5, 8), "c": Fraction(12), "d": Fraction(9)}
    assert not CATALOG["dougall-2h2"].check(p)
    # a = c: Gamma(c-a) pole on the product side
    p = {"a": Fraction(5, 8), "b": Fraction(5, 8), "c": Fraction(5, 8), "d": Fraction(5, 8) + 20}
    assert not CATALOG["dougall-2h2"].check(p)


def test_gauss_2f1_examples(ctx30):
    l, r = _sides("gauss-2f1", {"a": Fraction(1), "b": Fraction(1), "c": Fraction(3)}, ctx30)
    with ctx30.working():
        assert abs(l.value - 2) < mpf(10) ** -27
        assert abs(r.value - 2) < mpf(10) ** -27
    l, r = _sides("gauss-2f1", {"a": Fraction(0), "b": Fraction(7, 8), "c": Fraction(17, 2)}, ctx30)
    assert l.value == 1
    with ctx30.working():
        assert abs(r.value - 1) < mpf(10) ** -35


def test_gauss_chu_vandermonde(ctx30):
    # b = -n reduces to the finite Chu-Vandermonde sum
    a, c, n = Fraction(5, 8), Fraction(23, 4), 6
    res = sum_unilateral(SeriesSpec((to_mp(a), -n), (to_mp(c),), 1), ctx30)
    with ctx30.working():
        assert abs(res.value - to_mp(chu_vandermonde(a, c, n))) < mpf(10) ** -35


def test_dixon_examples(ctx30):
    # c = 0 terminates immediately: both sides 1
    l, r = _sides("dixon", {"a": Fraction(3, 2), "b": Fraction(-5, 4), "c": Fraction(0)}, ctx30)
    assert l.value == 1
    with ctx30.working():
        assert abs(r.value - 1) < mpf(10) ** -35
    # terminating instance b = -n against the finite sum
    p = {"a": Fraction(5, 2), "b": Fraction(-3), "c": Fraction(-9, 8)}
    l, r = _sides("dixon", p, ctx30)
    with ctx30.working():
        finite = exact.pfq_terminating(
            [p["a"], p["b"], p["c"]],
            [1 + p["a"] - p["b"], 1 + p["a"] - p["c"]],
            Fraction(1), 3,
        )
        assert abs(l.value - to_mp(finite)) < mpf(10) ** -33
        assert abs(r.value - to_mp(finite)) < abs(r.value) * mpf(10) ** -30
    # generic sample
    p = {"a": Fraction(17, 8), "b": Fraction(-21, 8), "c": Fraction(-13, 8)}
    l, r = _sides("dixon", p, ctx30)
    _assert_close(l, r, ctx30, -25)


def test_theorem1_anchor(ctx40):
    half = Fraction(1, 2)
    p = {"a": half, "b": half, "c": half, "d": half}
    l, r = _sides("theorem-1", p, ctx40)
    with mp.workdps(60):
        target = mpmath.pi**2
        assert abs(l.value - target) < mpf(10) ** -30
        assert abs(r.value - target) < mpf(10) ** -38


def test_theorem1_swap_invariance(ctx30):
    p = {"a": Fraction(3, 8), "b": Fraction(7, 4), "c": Fraction(5, 8), "d": Fraction(9, 8)}
    q = {"a": p["c"], "b": p["d"], "c": p["a"], "d": p["b"]}
    lp, rp = _sides("theorem-1", p, ctx30)
    lq, rq = _sides("theorem-1", q, ctx30)
    with ctx30.working():
        assert abs(lp.value - lq.value) < abs(lp.value) * mpf(10) ** -25
        assert abs(rp.value - rq.value) < abs(rp.value) * mpf(10) ** -30


def test_phi_sum_values(ctx30):
    with ctx30.working():
        half = mpf(1) / 2
        v = phi_sum(half, half, half, half, ctx30)
        assert abs(v.value - mpmath.pi**2 / 2) < mpf(10) ** -28
        assert v.method == "levin"
        # Phi(1,1;1,1) = sum 1/((k+1)(k+2)) = 1
        v2 = phi_sum(1, 1, 1, 1, ctx30)
        assert abs(v2.value - 1) < mpf(10) ** -28
        # symmetry in (a,b) and in (c,d)
        va = phi_sum(mpf("0.75"), mpf("1.5"), mpf("0.5"), mpf("2.25"), ctx30)
        vb = phi_sum(mpf("1.5"), mpf("0.75"), mpf("2.25"), mpf("0.5"), ctx30)
        assert abs(va.value - vb.value) < abs(va.value) * mpf(10) ** -25


def test_phi_route_equivalence(ctx30):
    # direct Phi summation vs the 3F2 representation
    with ctx30.working():
        half = mpf(1) / 2
        direct = phi_sum(half, half, half, half, ctx30)
        routed = phi_via_3f2(half, half, half, half, ctx30)
        assert abs(direct.value - routed.value) < 100 * (
            direct.err_estimate + routed.err_estimate
        ) + mpf(10) ** -35
    for idx in range(6):
        p = sample_parameters(CATALOG["phi-as-3f2"], 5, idx)
        l, r = _sides("phi-as-3f2", p, ctx30)
        with ctx30.working():
            assert abs(l.value - r.value) <= 100 * (l.err_estimate + r.err_estimate) + mpf(10) ** -35


def test_h22_split_half_point(ctx30):
    half = Fraction(1, 2)
    p = {"a": half, "b": half, "c": half, "d": half}
    # outside the sampler window but well-defined; both routes must agree
    l = CATALOG["h22-split"].lhs(p, ctx30)
    r = CATALOG["h22-split"].rhs(p, ctx30)
    with mp.workdps(50):
        target = mpmath.pi**2 / 4
        assert abs(l.value - target) < mpf(10) ** -27
        assert abs(r.value - target) < mpf(10) ** -27


def test_h22_split_sample(ctx30):
    p = sample_parameters(CATALOG["h22-split"], 2, 0)
    l, r = _sides("h22-split", p, ctx30)
    _assert_close(l, r, ctx30, -20)


def test_theorem1_b_neg_n_examples(ctx30):
    l, r = _sides("theorem-1-b-neg-n", {"a": Fraction(3, 8), "c": Fraction(5, 8), "d": Fraction(7, 8), "n": 0}, ctx30)
    assert l.value == r.value == 1
    l, r = _sides("theorem-1-b-neg-n", {"a": Fraction(1), "c": Fraction(2), "d": Fraction(3), "n": 1}, ctx30)
    with ctx30.working():
        assert l.value == r.value
        assert abs(l.value - mpf(1) / 3) < mpf(10) ** -38
    l, r = _sides("theorem-1-b-neg-n", {"a": Fraction(21, 16), "c": Fraction(11, 8), "d": Fraction(53, 64), "n": 17}, ctx30)
    assert l.value == r.value and l.err_estimate == 0


def test_theorem1_b_neg_n_matches_saalschuetz(ctx30):
    # parameter mapping onto the balanced terminating sum
    a, c, d, n = Fraction(5, 8), Fraction(9, 8), Fraction(13, 16), 7
    lv, rv = exact.phi_symmetric_terminating_sides(a, c, d, n)
    ls, rs = exact.saalschuetz_sides(a, a + c + d - 1 - n, a + c - n, n)
    assert lv == ls
    assert rv == rs


def test_theorem1_ca_db_coherence(ctx30):
    a, b = Fraction(5, 8), Fraction(9, 16)
    p = {"a": a, "b": b}
    l1, r1 = _sides("theorem-1-ca-db", p, ctx30)
    _assert_close(l1, r1, ctx30, -25)
    # against the symmetric identity at (a,b,a,b), through the Phi prefactor
    with ctx30.working():
        am, bm = to_mp(a), to_mp(b)
        pref = gamma_ratio([am, bm, 2 * am + 2 * bm - 1], [2 * am + bm, am + 2 * bm], ctx30)
        l2, r2 = _sides("theorem-1", {"a": a, "b": b, "c": a, "d": b}, ctx30)
        assert abs(l2.value / (2 * pref) - l1.value) < abs(l1.value) * mpf(10) ** -22
        assert abs(r2.value / (2 * pref) - r1.value) < abs(r1.value) * mpf(10) ** -25
    # against the Dixon evaluation at (2a+2b-1, b, a)
    ld, rd = _sides("dixon", {"a": 2 * a + 2 * b - 1, "b": b, "c": a}, ctx30)
    with ctx30.working():
        assert abs(ld.value - l1.value) < abs(l1.value) * mpf(10) ** -22
        assert abs(rd.value - r1.value) < abs(r1.value) * mpf(10) ** -25


def test_substitution_reproduces_nonterminating_saalschuetz(ctx30):
    # replacing (c,d) by (d-a-b, c-a-b) in the combined symmetric-identity
    # display must reproduce the two-term nonterminating evaluation
    for idx in range(3):
        p = sample_parameters(CATALOG["saalschuetz-nt"], 11, idx)
        with ctx30.working():
            a, b, c, d = (to_mp(p[k]) for k in "abcd")
            t1s = sum_unilateral(SeriesSpec((a, b, c + d - a - b - 1), (d, c), 1), ctx30)
            g1 = gamma_ratio([a, b, c + d - a - b - 1], [c, d], ctx30)
            t2s = sum_unilateral(SeriesSpec((1, c - b, c - a), (1 + c - a - b, c + d - a - b), 1), ctx30)
            t2 = t2s.value / ((c - a - b) * (c + d - a - b - 1))
            rhsp = gamma_ratio(
                [a, b, d - a - b, c - a - b, c + d - a - b - 1],
                [d - b, c - b, d - a, c - a], ctx30,
            )
            # the substituted display itself
            assert abs(g1 * t1s.value + t2 - rhsp) < abs(rhsp) * mpf(10) ** -16
            # its rearrangement equals the catalog's two-term right side
            cat_rhs = CATALOG["saalschuetz-nt"].rhs(p, ctx30)
            assert abs((rhsp - t2) / g1 - cat_rhs.value) < abs(cat_rhs.value) * mpf(10) ** -16


def test_bailey_e_equals_a_collapses_to_phi65(ctx30):
    qv = Fraction(1, 2)
    a, b, c, d = Fraction(17, 4), Fraction(2), Fraction(7, 4), Fraction(9, 4)
    qc = QContext(qv, ctx30)
    with ctx30.working():
        am, bm, cm, dm, qm = (to_mp(v) for v in (a, b, c, d, qv))
        ra = principal_sqrt(am)
        z = qm * am / (bm * cm * dm)
        psi = QSeriesSpec(
            (qm * ra, -qm * ra, bm, cm, dm, am),
            (ra, -ra, qm * am / bm, qm * am / cm, qm * am / dm, qm),
            z, "psi",
        )
        collapsed = sum_q_series(psi, qc)
    l65, r65 = _sides("phi65", {"a": a, "b": b, "c": c, "d": d, "q": qv}, ctx30)
    with ctx30.working():
        assert abs(collapsed.value - l65.value) < abs(l65.value) * mpf(10) ** -25
        assert abs(collapsed.value - r65.value) < abs(r65.value) * mpf(10) ** -25


def test_phi65_terminating_instance(ctx30):
    # b = q^-n cuts the series; both sides stay finite and equal
    qv = Fraction(1, 2)
    n = 3
    a, c, d = Fraction(17, 4), Fraction(7, 4), Fraction(9, 4)
    qc = QContext(qv, ctx30)
    with ctx30.working():
        am, cm, dm, qm = (to_mp(v) for v in (a, c, d, qv))
        bm = qm**-n
        ra = principal_sqrt(am)
        z = qm * am / (bm * cm * dm)
        spec = QSeriesSpec(
            (am, qm * ra, -qm * ra, bm, cm, dm),
            (ra, -ra, qm * am / bm, qm * am / cm, qm * am / dm),
            z, "phi", terminating_index=n,
        )
        lhs = sum_q_series(spec, qc)
        rhs = q_bracket(
            [qm * am, qm * am / (bm * cm), qm * am / (bm * dm), qm * am / (cm * dm)],
            [qm * am / bm, qm * am / cm, qm * am / dm, qm * am / (bm * cm * dm)],
            qc, INF,
        )
        assert abs(lhs.value - rhs) < abs(rhs) * mpf(10) ** -30


def test_jackson_8phi7_small_n(ctx30):
    l, r = _sides("jackson-8phi7", {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(1, 2), "n": 0}, ctx30)
    assert l.value == r.value == 1
    l, r = _sides("jackson-8phi7", {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(2, 5), "n": 1}, ctx30)
    assert l.value == r.value
    l, r = _sides("jackson-8phi7", {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(3, 8), "n": 15}, ctx30)
    assert l.value == r.value and l.err_estimate == 0


def test_jackson_8phi7_engine_matches_exact(ctx30):
    # the mp series engine reproduces the exact rational route
    p = {"a": Fraction(9, 4), "b": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(7, 4), "q": Fraction(1, 2), "n": 4}
    lv, rv = exact.jackson_8phi7_sides(p["a"], p["b"], p["c"], p["d"], p["q"], p["n"])
    qc = QContext(p["q"], ctx30)
    with ctx30.working():
        a, b, c, d, qm = (to_mp(p[k]) for k in "abcdq")
        n = p["n"]
        ra = principal_sqrt(a)
        big_a = qm ** (1 + n) * a * a / (b * c * d)
        spec = QSeriesSpec(
            (a, qm * ra, -qm * ra, b, c, d, big_a, qm**-n),
            (ra, -ra, qm * a / b, qm * a / c, qm * a / d,
             b * c * d / (a * qm**n), qm ** (1 + n) * a),
            qm, "phi", terminating_index=n,
        )
        res = sum_q_series(spec, qc)
        assert abs(res.value - to_mp(lv)) < abs(res.value) * mpf(10) ** -30


def test_jackson_nt_sample_and_termination(ctx30):
    # e = 2 sits exactly on q^-1 at q = 1/2 and b = 3/2 makes b^2 = a;
    # these generic values avoid every such coincidence
    p = {"a": Fraction(9, 4), "b": Fraction(25, 16), "c": Fraction(5, 4), "d": Fraction(7, 4), "e": Fraction(17, 8), "q": Fraction(1, 2)}
    assert CATALOG["jackson-nt"].check(p)
    l, r = _sides("jackson-nt", p, ctx30)
    _assert_close(l, r, ctx30, -25)
    # e chosen so the balancing parameter becomes q^-n: the evaluation
    # degenerates to the terminating sum
    n = 2
    a, b, c, d, qv = Fraction(9, 4), Fraction(25, 16), Fraction(5, 4), Fraction(7, 4), Fraction(1, 2)
    e = qv ** (1 + n) * a * a / (b * c * d)
    p2 = {"a": a, "b": b, "c": c, "d": d, "e": e, "q": qv}
    l2, r2 = _sides("jackson-nt", p2, ctx30)
    lv, rv = exact.jackson_8phi7_sides(a, b, c, d, qv, n)
    with ctx30.working():
        assert abs(l2.value - to_mp(lv)) < abs(l2.value) * mpf(10) ** -25
        assert abs(r2.value - to_mp(rv)) < abs(r2.value) * mpf(10) ** -25


def test_omega_theta_and_split(ctx30):
    p = {"a": Fraction(3, 2), "c": Fraction(5, 4), "d": Fraction(3, 2), "e": Fraction(7, 4), "f": Fraction(9, 8), "q": Fraction(1, 2)}
    assert CATALOG["omega"].check(p)
    lo, ro = _sides("omega", p, ctx30)
    _assert_close(lo, ro, ctx30, -25)
    lt, rt = _sides("theta", p, ctx30)
    _assert_close(lt, rt, ctx30, -25)
    ls, rs = _sides("bailey-split", p, ctx30)
    _assert_close(ls, rs, ctx30, -25)
    # three-way: the engine's own bilateral split reproduces raw omega + theta
    qc = QContext(p["q"], ctx30)
    with ctx30.working():
        a, c, d, e, f, qm = (to_mp(p[k]) for k in "acdefq")
        z = qm * a * a / (c * d * e * f)
        big_a = c * d * e * f / a
        ra = principal_sqrt(big_a)
        psi = QSeriesSpec(
            (qm * ra, -qm * ra, c * d * e / a, c * d * f / a, c * e * f / a, d * e * f / a),
            (ra, -ra, qm * f, qm * e, qm * d, qm * c),
            z, "psi",
        )
        engine = sum_q_series(psi, qc)
        assert abs(engine.value - ls.value) < abs(ls.value) * mpf(10) ** -30


def test_theta_prefactor_zero_excluded():
    p = {"a": Fraction(3, 2), "c": Fraction(1), "d": Fraction(3, 2), "e": Fraction(7, 4), "f": Fraction(9, 8), "q": Fraction(1, 2)}
    assert not CATALOG["theta"].check(p)


def test_exact_sides_called_through_the_module(monkeypatch, ctx30):
    # tracers rebind these attributes of `exact`; the terminating entries
    # must reach the exact layer through them on every call
    calls = {}
    for name in ("saalschuetz_sides", "phi_symmetric_terminating_sides", "jackson_8phi7_sides"):
        def counting(*args, _name=name, _original=getattr(exact, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exact, name, counting)
    for ident in ("saalschuetz", "theorem-1-b-neg-n", "jackson-8phi7"):
        p = sample_parameters(CATALOG[ident], 0, 0)
        assert all(isinstance(v, Fraction) for k, v in p.items() if k != "n")
        l, r = _sides(ident, p, ctx30)
        assert l.method == r.method == "terminating" and l.value == r.value
    assert calls == {"saalschuetz_sides": 2, "phi_symmetric_terminating_sides": 2,
                     "jackson_8phi7_sides": 2}


def test_negative_control_perturbed_rhs(ctx30):
    case = CATALOG["gauss-2f1"]

    def corrupted_rhs(p, ctx):
        res = case.rhs(p, ctx)
        with ctx.working():
            return SeriesResult(
                res.value * (1 + mpf(10) ** -5), res.err_estimate,
                res.terms_used, res.method,
            )

    broken = replace(case, id="gauss-2f1-broken", rhs=corrupted_rhs)
    params = sample_parameters(case, 0, 0)
    report = verify_one(broken, params, ctx30)
    assert not report.passed
    good = verify_one(case, params, ctx30)
    assert good.passed


def test_tolerance_rule_uses_error_estimates(ctx30):
    with ctx30.working():
        a = SeriesResult(mpf(1), mpf(10) ** -25, 10, "levin")
        b = SeriesResult(mpf(1) + mpf(10) ** -24, mpf(10) ** -25, 0, "direct")
        _, rel, ok = tolerance_rule(a, b, ctx30)
        assert ok  # within 100x the combined estimates
        c = SeriesResult(mpf(1) + mpf(10) ** -18, mpf(10) ** -25, 0, "direct")
        _, rel, ok = tolerance_rule(a, c, ctx30)
        assert not ok
