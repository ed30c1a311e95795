"""Tests of the benchmark itself: inputs, wrappers, span arithmetic, compare.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402
from hyperid import harness  # noqa: E402
from hyperid.harness import CATALOG, SuiteConfig, run_suite, sample_parameters  # noqa: E402

# one sample each of a Levin, a bilateral, an exact, a q-product and a q-series
# identity: every wrapped layer but pochhammer is entered
MIX = ("theorem-1", "dougall-2h2", "saalschuetz", "bailey-6psi6", "jackson-8phi7")


def _metrics(tracer, names):
    return spans.layer_metrics(spans.layer_totals(tracer.spans), names)


def _params(workload, seed, seconds):
    plan = bench.sample_plan(workload, seconds)
    return [(i, n, sample_parameters(CATALOG[i], seed, n)) for i, n in plan]


def test_same_seed_same_samples():
    w = bench.WORKLOADS["q-30"]
    assert _params(w, 5, 1) == _params(w, 5, 1)
    assert _params(w, 5, 1) != _params(w, 6, 1)


def test_plan_is_index_major_and_fixed_by_seconds():
    w = bench.WORKLOADS["classical-30"]
    plan = bench.sample_plan(w, 2)
    assert len(plan) == len(w.ids) * w.samples_per_identity(2)
    assert plan[: len(w.ids)] == [(i, 0) for i in w.ids]


def test_loop_matches_run_suite():
    ids = ("saalschuetz", "jackson-8phi7")
    ctx = SuiteConfig(digits=30).context()
    plan = [(i, n) for n in range(3) for i in ids]
    res = bench.run_loop(plan, 11, ctx)
    suite = run_suite(SuiteConfig(identities=ids, samples=3, seed=11, digits=30))
    assert bench.report_digest(res.report_json) == bench.report_digest(suite.to_json())
    assert bench.check_report(res.report_json, plan, res.failed) == []


def test_traced_digest_equals_untraced_and_bindings_restored():
    ctx = SuiteConfig(digits=30).context()
    plan = [(i, 0) for i in MIX]
    plain = bench.run_loop(plan, 3, ctx)
    original = harness.sample_parameters
    cases = dict(CATALOG)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert harness.sample_parameters is not original
        traced = bench.run_loop(plan, 3, ctx, tracer)
    assert harness.sample_parameters is original
    assert all(CATALOG[i] is cases[i] for i in CATALOG)
    assert bench.report_digest(traced.report_json) == bench.report_digest(plain.report_json)

    m = _metrics(tracer, [x.name for x in bench.PER_LAYER])
    for name in ("accel.levin_core.calls", "series.sum_bilateral.calls",
                 "exact.saalschuetz_sides.calls", "exact.jackson_8phi7_sides.calls",
                 "qseries.q_pochhammer_inf.calls", "qseries.sum_q_series.calls",
                 "harness.sample_parameters.calls"):
        assert m[name] > 0, name
    routes = sum(m[f"series.route.{r}"] for r in ("terminating", "direct", "direct_tail",
                                                   "levin"))
    assert routes == m["series.sum_unilateral.calls"]
    assert {s.trace_id for s in tracer.spans} == {f"{i}|0" for i in MIX} | {"report"}


@pytest.mark.parametrize("workload,levin,q_products", [("classical-30", True, False),
                                                      ("q-30", False, True)])
def test_workload_layer_split(workload, levin, q_products):
    w = bench.WORKLOADS[workload]
    ctx = SuiteConfig(digits=w.digits).context()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        bench.run_loop([(i, 0) for i in w.ids], 1, ctx, tracer)
    m = _metrics(tracer, ["accel.levin_core.calls", "qseries.q_pochhammer_inf.calls"])
    assert (m["accel.levin_core.calls"] > 0) == levin
    assert (m["qseries.q_pochhammer_inf.calls"] > 0) == q_products


def test_scaled_timer_rescales_by_the_probes_around_each_segment(monkeypatch):
    monkeypatch.setattr(bench, "PROBE_EVERY_S", 0.0)  # probe after every segment
    probes = iter([bench.PROBE_S, 3 * bench.PROBE_S, 2 * bench.PROBE_S])
    timer = bench.ScaledTimer(probe_fn=lambda: next(probes))
    timer.add(1.0)  # probes around it: 1x and 3x the reference -> mean 2x
    timer.add(5.0)  # 3x and 2x -> 2.5x
    assert timer.raw == [1.0, 5.0]
    assert timer.scaled == pytest.approx([0.5, 2.0])


def _fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = spans.Tracer(clock=_fake_clock(0.0, 2.0, 7.0, 10.0))
    levin = tracer.wrap("accel.levin_core", lambda: (1, 0, 40), lambda r: {"terms": r[2]})
    outer = tracer.wrap("series.sum_unilateral", lambda: levin())
    outer()
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent is None
    assert spans.self_times(tracer.spans) == [5.0, 5.0]
    totals = spans.layer_totals(tracer.spans)
    assert totals["series.sum_unilateral"]["busy_s"] == 10.0
    assert totals["series.sum_unilateral"]["self_s"] == 5.0
    assert totals["accel.levin_core"]["busy_s"] == 5.0
    assert totals["accel.levin_core"]["terms"] == 40


def test_recursive_layer_busy_time_counted_once():
    tracer = spans.Tracer(clock=_fake_clock(0.0, 1.0, 3.0, 4.0))
    inner = tracer.wrap("qseries.sum_q_series", lambda: None)
    outer = tracer.wrap("qseries.sum_q_series", lambda: inner())
    outer()
    t = spans.layer_totals(tracer.spans)["qseries.sum_q_series"]
    assert (t["calls"], t["busy_s"], t["self_s"]) == (2, 4.0, 4.0)


def test_failed_call_is_recorded_and_reraised():
    tracer = spans.Tracer()
    boom = tracer.wrap("accel.levin_core", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    m = _metrics(tracer, ["accel.levin_core.fail_ratio"])
    assert m["accel.levin_core.fail_ratio"] == 1.0


def test_benchmark_json_matches_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    listed = [w for w in bench.WORKLOADS.values() if w.listed]
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in listed]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in bench.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in bench.PER_LAYER
    ]


def _run(rate, seed, digest="d"):
    return {"workload": "q-30", "trace": 0, "failed": 0, "attempted": 10, "digest": digest,
            "environment": {"seed": seed, "seconds": 25},
            "metrics": {m.name: {"value": rate if m.name == "samples_per_s" else 1.0}
                        for m in bench.END_TO_END}}


def test_compare_verdicts():
    metric = bench.END_TO_END[0]  # samples_per_s, higher is better
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [12.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(metric, parent, faster, list(zip(parent, faster))) == "improved"
    slower = [5.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(metric, parent, slower, list(zip(parent, slower))) == "worse"
    same = [10.0 + 0.01 * (9 - i) for i in range(10)]
    assert compare.verdict(metric, parent, same, list(zip(parent, same))) == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(metric, parent, noisy, list(zip(parent, noisy))) == "unresolved"
    # three pairs cannot establish a gain however large
    assert compare.verdict(metric, parent[:3], faster[:3],
                           list(zip(parent, faster))[:3]) == "unchanged"


def test_compare_pairs_by_seed_and_counts_digests():
    parent = [_run(10.0, s) for s in range(3)]
    change = [_run(11.0, s, digest="d" if s else "x") for s in (2, 1, 0)]
    text = compare.compare(parent, change)
    assert "3 pairs, identical report digests in 2/3" in text


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "q-30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
