#!/usr/bin/env python3
"""The `verify` benchmark of hyperid.

    python3 perfbench/run.py --workload classical-30 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout, against the sources in `src/`. Each
workload runs in its own process on one thread, as a closed loop with one
caller (see bench.py). `--workload all` runs the four workloads in turn.

--trace 0  end-to-end metrics: samples_per_s, sample_ms_p50/p90 (with the
           sample count), setup_s (median of three fresh processes) and
           peak_rss_mb of the loop process. Times are rescaled to a
           fixed reference speed by a probe timed between samples
           (bench.ScaledTimer); the raw wall-clock figures are printed and
           stored beside them.
--trace 1  per-layer metrics from spans recorded around each module's public
           functions (spans.py), plus the untraced and traced samples_per_s
           of the same samples and their ratio.

Both print fail_frac (failed over attempted samples, by the program's own
pass rule; evaluator errors count as failures) and a digest of the JSON
report with every wall-time field removed. The last line of output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Every run
also writes its result, environment and digest to perfbench/results/ (the
trace run its spans as well); compare two such sets with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BUDGET_S = 170.0  # the workers of one workload must end within this
SETUP_RUNS = 3


def _worker(args, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _problems(out):
    problems = list(out["problems"])
    if "traced" in out:
        problems += out["traced"]["problems"]
        if out["traced"]["digest"] != out["digest"]:
            problems.append("traced report digest differs from the untraced one")
    return problems


def run_one(workload, seed, seconds, trace, deadline):
    out_dir = RESULTS / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        spans_path = out_dir / f"seed{seed}-spans.jsonl"
        out = _worker(["trace", workload.name, seed, seconds, spans_path], deadline)
        metrics = {m.name: {"value": out["layers"][m.name], "unit": m.unit}
                   for m in bench.PER_LAYER}
    else:
        out = _worker(["loop", workload.name, seed, seconds], deadline)
        setups = [out] + [_worker(["setup", workload.name, seed, seconds], deadline)
                          for _ in range(SETUP_RUNS - 1)]
        values, raw = {}, {}
        for into, prefix in ((values, ""), (raw, "raw_")):
            p50, p90, beyond = bench.percentiles(out[prefix + "sample_s"])
            into.update({
                "samples_per_s": out["samples"] / out[prefix + "loop_s"],
                "sample_ms_p50": p50 * 1e3,
                "sample_ms_p90": p90 * 1e3,
                "setup_s": statistics.median(s[prefix + "setup_s"] for s in setups),
                "peak_rss_mb": out["peak_rss_mb"],
            })
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in bench.END_TO_END}
        out["raw"] = raw
        out["setup_runs_s"] = [s["setup_s"] for s in setups]
        out["beyond_p90"] = bench.percentiles(out["sample_s"])[2]
    problems = _problems(out)
    result = {
        "workload": workload.name,
        "trace": int(trace),
        "environment": bench.environment(workload, seed, seconds, out["samples"]),
        "correct": not problems,
        "attempted": out["samples"],
        "failed": out["failed"],
        "fail_frac": out["failed"] / out["samples"],
        "digest": out["digest"],
        "problems": problems,
        "metrics": metrics,
    }
    if not trace:
        result["raw_wall"] = out["raw"]
        result["setup_runs_s"] = out["setup_runs_s"]
        result["beyond_p90"] = out["beyond_p90"]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_dir / f"seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def describe(result):
    env = result["environment"]
    lines = [
        f"workload {result['workload']}  seed {env['seed']}  digits {env['digits']}"
        f"  samples/identity {env['samples_per_identity']}  samples {result['attempted']}",
        f"  python {env['python']}  mpmath {env['mpmath']} ({env['mpmath_backend']})"
        f"  cpus {env['cpu_count']}  {env['cpu_model']}",
    ]
    for name, m in result["metrics"].items():
        note = ""
        if name.startswith("sample_ms_"):
            note = f"  (n={result['attempted']}"
            note += f", {result['beyond_p90']} beyond p90)" if name.endswith("p90") else ")"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in result["setup_runs_s"]) + ")"
        if "raw_wall" in result and name != "peak_rss_mb":
            note = f"  raw wall {result['raw_wall'][name]:.6g}" + note
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    lines.append(f"  {'fail_frac':<40} {result['fail_frac']:>14.6g} ratio"
                 f"  ({result['failed']}/{result['attempted']})")
    lines.append(f"  {'report_digest':<40} {result['digest']}")
    lines.extend(f"  PROBLEM {p}" for p in result["problems"][:20])
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*bench.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperid" / "__init__.py").is_file():
        print(f"no hyperid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        results.append(run_one(bench.WORKLOADS[name], args.seed, args.seconds,
                               args.trace, deadline))
        print(describe(results[-1]), flush=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
