"""What the benchmark measures: workloads, end-to-end metrics and per-layer
metrics, each with the reason it exists. BENCHMARK.json is this catalog in
the schema the benchmark contract fixes (test_benchstats.py checks they
agree); the `moves` field, which that schema has no room for, records which
end-to-end metric a per-layer metric should move and on which workload."""

WORKLOADS = [
    ("wvu_week",
     "batch mode: WVU week at 3% of paper volume (~480k requests), CLF -> "
     "from_clf_stream -> fit_fullweb_model; ingest, sessionizer, curvature and "
     "fit kernels show here"),
    ("clarknet_stream",
     "online mode: ClarkNet week at 10% of paper volume, read_clf_records -> "
     "OnlineAnalyzer with a snapshot every 300 s; same parser, no sessionizer "
     "or curvature"),
]

# name, unit, better, bound (share of the parent's median). The width-1
# pass is printed but not gated: it gets a quarter of the parallel pass's
# samples, too few to hold its median within a bound on a shared host; the
# traced run reports it per layer (core.fit_serial_s, trace.pass_off_s).
END_TO_END = [
    ("pass_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# What pass_s / items_per_s mean on each workload.
PASS_MEANING = {
    "wvu_week": ("log_to_model_s", "ingest_req_per_s"),
    "clarknet_stream": ("stream_pass_s", "stream_events_per_s"),
}

# name, unit, better, moves
PER_LAYER = [
    ("weblog.read_parse_s", "s", "lower",
     "items_per_s@wvu_week; items_per_s@clarknet_stream"),
    ("weblog.sessionize_s", "s", "lower",
     "items_per_s@wvu_week; no change on clarknet_stream"),
    ("weblog.ingest_s", "s", "lower", "items_per_s@wvu_week"),
    ("weblog.ingest_cpu_s", "s", "lower", "items_per_s@wvu_week"),
    ("weblog.lines", "count", "higher", "work count"),
    ("weblog.chunks", "count", "lower", "work count"),
    ("weblog.peak_open_sessions", "count", "lower", "peak_rss_mb@wvu_week"),
    ("weblog.series_s", "s", "lower", "pass_s@wvu_week"),
    ("store.read_s", "s", "lower", "traced run only: the week's day shards"),
    ("store.bytes", "B", "lower", "traced run only: the week's day shards"),
    ("core.stationarize_s", "s", "lower", "pass_s@wvu_week"),
    ("stats.periodogram_s", "s", "lower", "pass_s@wvu_week"),
    ("stats.kpss_s", "s", "lower", "pass_s@wvu_week; pass_s@clarknet_stream"),
    ("lrd.hurst_suite_s", "s", "lower", "pass_s@wvu_week"),
    ("lrd.aggregated_sweep_s", "s", "lower", "pass_s@wvu_week"),
    ("tail.curvature_s", "s", "lower",
     "pass_s@wvu_week and its width-1 pass; no change on clarknet_stream"),
    ("tail.curvature_replicates", "count", "lower", "pass_s@wvu_week"),
    ("tail.hill_s", "s", "lower", "pass_s@wvu_week"),
    ("tail.llcd_s", "s", "lower", "pass_s@wvu_week"),
    ("poisson.battery_s", "s", "lower", "pass_s@wvu_week"),
    ("core.errors_s", "s", "lower", "pass_s@wvu_week"),
    ("core.fit_s", "s", "lower", "pass_s@wvu_week"),
    ("core.fit_serial_s", "s", "lower", "width-1 pass@wvu_week"),
    ("core.fit_first_rep_s", "s", "lower", "width-1 warm-up pass@wvu_week"),
    ("core.fit_cpu_s", "s", "lower", "pass_s@wvu_week"),
    ("core.fit_cores_busy", "ratio", "higher",
     "pass_s@wvu_week"),
    ("core.fit_cpu_overhead_s", "s", "lower",
     "pass_s@wvu_week"),
    ("core.layer_span_sum_s", "s", "lower", "numerator of core.layer_coverage"),
    ("core.layer_coverage", "ratio", "higher",
     "share of core.fit_serial_s the layer spans explain"),
    ("online.add_ns_per_event", "ns", "lower", "items_per_s@clarknet_stream"),
    ("online.snapshot_s", "s", "lower", "items_per_s@clarknet_stream"),
    ("online.snapshot_p50_ms", "ms", "lower", "pass_s@clarknet_stream"),
    ("online.snapshot_p99_ms", "ms", "lower", "pass_s@clarknet_stream"),
    ("online.records", "count", "higher", "work count"),
    ("online.snapshots", "count", "higher", "work count"),
    ("core.fleet_fit_s", "s", "lower", "traced run only: the week's day shards"),
    ("core.fleet_cpu_s", "s", "lower", "traced run only: the week's day shards"),
    ("core.fleet_cores_busy", "ratio", "higher", "traced run only: the week's day shards"),
    ("trace.pass_on_s", "s", "lower", "the width-1 pass with spans recorded"),
    ("trace.pass_off_s", "s", "lower", "the width-1 pass, same run, spans off"),
    ("trace.overhead_frac", "ratio", "lower", "tracing cost on the width-1 pass"),
]
