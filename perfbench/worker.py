"""One benchmark process: set up, then run one mode, print one JSON line.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS [SPANS_PATH]

MODE is `setup` (import and warm up only), `loop` (set up, then the timed
closed loop) or `trace` (set up, run the loop untraced, then the same
samples traced; each over half the samples of a `loop` run). Set-up is
timed from just before `import hyperid` until the warm-up sample of every
identity of the workload is verified. The worker needs `src` on PYTHONPATH;
`run.py` sets it.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import bench


def _setup(workload):
    t0 = time.perf_counter()
    import hyperid  # noqa: F401  (timed: the import is part of set-up)
    from hyperid.harness import SuiteConfig

    ctx = SuiteConfig(digits=workload.digits).context()
    # no probe before the import: the probe itself imports mpmath
    timer = bench.ScaledTimer(probe_first=False)
    timer.add(time.perf_counter() - t0)
    bench.warm_up(workload, ctx, timer)
    timer.flush()
    return ctx, sum(timer.scaled), sum(timer.raw)


def _accept_ratio(plan, seed):
    """Accepted over attempted draws, replaying each sample's rng_for stream."""
    from hyperid.harness import CATALOG, rng_for

    attempts = 0
    for ident, index in plan:
        case = CATALOG[ident]
        rng = rng_for(seed, ident, index)
        while True:
            attempts += 1
            if case.check(case.sampler(rng, index)):
                break
    return len(plan) / attempts


def _loop_out(res, plan):
    return {
        "samples": len(plan),
        "sample_s": res.sample_s,
        "raw_sample_s": res.timer.raw[:-1],
        "loop_s": res.loop_s,
        "raw_loop_s": res.raw_loop_s,
        "failed": res.failed,
        "digest": bench.report_digest(res.report_json),
        "problems": bench.check_report(res.report_json, plan, res.failed),
    }


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = bench.WORKLOADS[name]
    ctx, setup_s, raw_setup_s = _setup(workload)
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    plan = bench.sample_plan(workload, seconds / 2 if mode == "trace" else seconds)
    res = bench.run_loop(plan, seed, ctx)
    out.update(_loop_out(res, plan))
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = bench.run_loop(plan, seed, ctx, tracer)
        totals = spans.layer_totals(tracer.spans)
        layers = spans.layer_metrics(totals, [m.name for m in bench.PER_LAYER])
        layers["harness.sample.accept_ratio"] = _accept_ratio(plan, seed)
        layers["harness.report.to_json_s"] = totals["harness.report.to_json"]["busy_s"]
        untraced_rate = len(plan) / res.loop_s
        traced_rate = len(plan) / traced.loop_s
        layers["trace.loop_s"] = traced.raw_loop_s  # raw, like the span times
        layers["trace.samples_per_s_untraced"] = untraced_rate
        layers["trace.samples_per_s_traced"] = traced_rate
        layers["trace.samples_per_s_ratio"] = traced_rate / untraced_rate
        out["traced"] = _loop_out(traced, plan)
        out["layers"] = layers
        if len(argv) > 4:
            tracer.write(argv[4])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
