#!/usr/bin/env python3
"""Run one fullweb benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wvu_week --seed 1 --seconds 28 --trace 0

On first use this builds perfbench/ (which compiles the fullweb libraries it
calls from ../src) into .bench_build/. Each run then

  1. synthesizes the workload's inputs from --seed on one thread and writes
     them as one CLF file, four times over (setup_s is the median);
  2. --trace 0: runs the workload's pipeline for --seconds after one
     discarded warm-up pass, one width-1 pass to every three parallel ones,
     and reports the end-to-end metrics;
     --trace 1: runs the traced layer tour and reports the per-layer
     metrics (spans are kept in memory and written to .bench_build at exit);
  3. checks every output: parallel and width-1 outputs must match byte for
     byte, ingested counts must match the generated fixture, no line may be
     malformed, and the verdicts must match verdicts.json for recorded seeds.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit status
is 0 only when every check passed. `--record` stores this seed's verdicts in
verdicts.json instead of checking them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import catalog  # noqa: E402

BUILD = ROOT / ".bench_build"
VERDICTS = HERE / "verdicts.json"
SETUP_REPS = 4
CHILD_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def check_call(cmd, timeout):
    """Run a child to completion (killed and reaped on timeout); its output
    goes to stderr so standard output stays ours."""
    return subprocess.run([str(c) for c in cmd], stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: fullweb sources not found at %s" % (ROOT / "src"))
    tree = BUILD / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (tree / "CMakeCache.txt").is_file():
        if check_call(["cmake", "-S", HERE, "-B", tree,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 600) != 0:
            raise SystemExit("perfbench: cmake configure failed")
    if check_call(["cmake", "--build", tree, "--target", "perfbench", "-j", jobs], 900) != 0:
        raise SystemExit("perfbench: build failed")
    return tree / "perfbench"


def pass_metrics(workload, setup, run):
    """End-to-end metrics from an untraced run."""
    items = run["items"]
    throughput_s = run["ingest_s"] if workload == "wvu_week" else run["pass_s"]
    return {
        "pass_s": benchstats.median(run["pass_s"]),
        "pass_serial_s": benchstats.median(run["pass_serial_s"]),
        "items_per_s": items / benchstats.median(throughput_s),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": benchstats.median(setup["setup_s"]) + run["executor_start_s"],
    }


def layer_metrics(run, spans):
    """Per-layer metrics from a traced run: counts the harness took, plus the
    self time of every span inside the layer tour, summed by metric."""
    m = dict(run["layers"])
    selfs = benchstats.self_times(spans)
    roots = benchstats.roots(spans)
    tour = next(i for i, s in enumerate(spans) if s["name"] == "perfbench.layers")
    decomposed = next(i for i, s in enumerate(spans) if s["name"] == "core.fit_decomposed")
    sums, durations, span_sum = {}, {}, 0.0
    for i, s in enumerate(spans):
        if roots[i] != tour:
            continue
        if s["metric"]:
            sums[s["metric"]] = sums.get(s["metric"], 0.0) + selfs[i]
            durations.setdefault(s["metric"], []).append(s["end"] - s["start"])
        j = s["parent"]
        while j >= 0 and j != decomposed:
            j = spans[j]["parent"]
        if j == decomposed:
            span_sum += selfs[i]
    for name, value in sums.items():
        if name != "online.add_s":
            m[name] = value
    snapshots_ms = [1e3 * d for d in durations.get("online.snapshot_s", [])]
    m["online.snapshots"] = len(snapshots_ms)
    m["online.snapshot_p50_ms"] = benchstats.percentile(snapshots_ms, 0.50)
    m["online.snapshot_p99_ms"] = benchstats.percentile(snapshots_ms, 0.99)
    m["online.add_ns_per_event"] = 1e9 * sums.get("online.add_s", 0.0) / m["online.records"]
    m["core.fit_cores_busy"] = benchstats.cores_busy(m["core.fit_cpu_s"], m["core.fit_s"])
    m["core.fit_cpu_overhead_s"] = m["core.fit_cpu_s"] - m.pop("core.fit_serial_cpu_s")
    m["core.fleet_cores_busy"] = benchstats.cores_busy(m["core.fleet_cpu_s"],
                                                       m["core.fleet_fit_s"])
    m["core.layer_span_sum_s"] = span_sum
    m["core.layer_coverage"] = span_sum / m["core.fit_serial_s"]
    on = benchstats.median(run["trace_pass_on_s"])
    off = benchstats.median(run["trace_pass_off_s"])
    m["trace.pass_on_s"], m["trace.pass_off_s"] = on, off
    m["trace.overhead_frac"] = (on - off) / off
    return m


def describe(workload, trace, run, setup, metrics):
    """The human-readable lines printed before the JSON result."""
    ctx = dict(run["context"], requests=setup["requests"], sessions=setup["sessions"],
               clf_bytes=setup["log_bytes"])
    print("context: " + json.dumps(ctx, sort_keys=True))
    print("verdicts: " + run["verdicts"])
    if trace:
        base = metrics["core.fit_serial_s"]
        print("core.layer_coverage: %.4f of core.fit_serial_s = %.4f s (spans %.4f s)"
              % (metrics["core.layer_coverage"], base, metrics["core.layer_span_sum_s"]))
        print("tracing overhead: %+.2f%% of the pass (%.4f s traced vs %.4f s untraced)"
              % (100 * metrics["trace.overhead_frac"], metrics["trace.pass_on_s"],
                 metrics["trace.pass_off_s"]))
        return
    print("warm-up pass (discarded): %.4f s at width 1" % run["first_pass_s"])
    alias_pass, alias_items = catalog.PASS_MEANING[workload]
    samples = {"pass_s": run["pass_s"], "pass_serial_s": run["pass_serial_s"],
               "setup_s": setup["setup_s"]}
    aliases = {"pass_s": alias_pass, "items_per_s": alias_items,
               "pass_serial_s": alias_pass[:-len("_s")] + "_serial_s (not gated)",
               "peak_rss_mb": "peak_rss_mb (one width-1 pass)"}
    rows = [row[:2] for row in catalog.END_TO_END]
    rows.insert(1, ("pass_serial_s", "s"))
    for name, unit in rows:
        xs = samples.get(name)
        spread = ""
        if xs:
            q1, _, q3 = benchstats.quartiles(xs)
            spread = "  (median of n=%d, q1 %.4g, q3 %.4g)" % (len(xs), q1, q3)
        print("%-16s %-36s %14.6g %s%s" % (name, aliases.get(name, name),
                                           metrics[name], unit, spread))
    if run["snapshot_ms"]:
        xs = run["snapshot_ms"]
        for q in (0.50, 0.99):
            p = benchstats.percentile(xs, q)
            print("snapshot_p%02d_ms     %s ms (n=%d)" % (
                round(100 * q), "%.4f" % p if p is not None else "not reported", len(xs)))


def verdict_check(workload, seed, verdicts, record):
    """1 failed check when a recorded reference verdict differs, else 0."""
    table = json.loads(VERDICTS.read_text()) if VERDICTS.is_file() else {}
    if record:
        table.setdefault(workload, {})[str(seed)] = verdicts
        VERDICTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0
    want = table.get(workload, {}).get(str(seed))
    if want is None:
        print("verdict reference: none recorded for seed %d" % seed)
        return 0
    if want != verdicts:
        log("perfbench: verdicts %r differ from the reference %r" % (verdicts, want))
        return 1
    print("verdict reference: matches seed %d" % seed)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w for w, _ in catalog.WORKLOADS])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--record", action="store_true",
                   help="store this seed's verdicts in verdicts.json")
    a = p.parse_args()

    binary = build()
    tag = "%s-%d-%d" % (a.workload, a.seed, os.getpid())
    data = BUILD / "data" / tag
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    try:
        common = ["--workload", a.workload, "--seed", a.seed]
        setup_cmd = [binary, "setup", *common, "--dir", data, "--out", data / "setup.json",
                     "--reps", 1 if a.trace or a.record else SETUP_REPS]
        if check_call(setup_cmd, CHILD_TIMEOUT_S) != 0:
            raise SystemExit("perfbench: setup failed")
        setup = json.loads((data / "setup.json").read_text())
        run_cmd = [binary, "run", *common, "--dir", data, "--log", Path(setup["log"]).name,
                   "--out", data / "run.json", "--seconds", a.seconds,
                   "--requests", setup["requests"], "--sessions", setup["sessions"]]
        trace_file = BUILD / ("trace-%s.json" % tag)
        if a.trace:
            run_cmd += ["--trace-out", trace_file]
        status = check_call(run_cmd, CHILD_TIMEOUT_S)
        if status not in (0, 1):  # 1 = an output check failed, still reported
            raise SystemExit("perfbench: run exited with status %d" % status)
        run = json.loads((data / "run.json").read_text())
        if a.trace:
            spans = json.loads(trace_file.read_text())["spans"]
            metrics = layer_metrics(run, spans)
            wanted = [name for name, _, _, _ in catalog.PER_LAYER]
            units = {name: unit for name, unit, _, _ in catalog.PER_LAYER}
        else:
            metrics = pass_metrics(a.workload, setup, run)
            wanted = [name for name, _, _, _ in catalog.END_TO_END]
            units = {name: unit for name, unit, _, _ in catalog.END_TO_END}
    finally:
        shutil.rmtree(data, ignore_errors=True)

    attempted = run["attempted"] + 1
    failed = run["failed"] + verdict_check(a.workload, a.seed, run["verdicts"], a.record)
    missing = [n for n in wanted if metrics.get(n) is None]
    if missing:
        log("perfbench: metrics not measured: " + ", ".join(missing))
        failed += len(missing)
        attempted += len(missing)
    describe(a.workload, a.trace, run, setup, metrics)
    print("failed_frac: %d / %d = %.6g" % (failed, attempted, failed / attempted))
    correct = status == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in wanted if metrics.get(n) is not None},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
