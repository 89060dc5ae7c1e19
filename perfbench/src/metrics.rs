//! The metrics a run prints: end-to-end from the timed phase, per-layer
//! from the spans and counters of a traced run.

use crate::measure::{median_i64, percentile, Round};
use crate::trace::Tracer;
use crate::Outcome;

/// `(name, value, unit)` of one printed metric.
pub type Metric = (&'static str, f64, &'static str);

/// End-to-end metrics of the untraced phase: over all its operations, or,
/// for throughput and median latency, the median over rounds where the
/// workload reports rounds.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let n = o.samples.len();
    if n < 1000 {
        eprintln!("perfbench: only {n} timed operations; latency_p99_us has fewer than ten samples beyond it");
    }
    let median =
        |f: fn(&Round) -> f64| percentile(&o.rounds.iter().map(f).collect::<Vec<_>>(), 0.5);
    // The p99 is taken over every operation of the phase, so that as many
    // samples as possible lie beyond it.
    let p99 = o.samples.percentile_us(0.99);
    let (ops_per_s, p50) = if o.rounds.is_empty() {
        (
            n as f64 / o.timed.as_secs_f64().max(1e-9),
            o.samples.percentile_us(0.5),
        )
    } else {
        (median(|r| r.ops_per_s), median(|r| r.p50_us))
    };
    vec![
        ("ops_per_s", ops_per_s, "1/s"),
        ("latency_p50_us", p50, "us"),
        ("latency_p99_us", p99, "us"),
        ("setup_s", o.setup_s, "s"),
        ("peak_rss_mb", o.rss_mb, "MB"),
    ]
}

/// Where a per-layer metric's value comes from.
enum Source {
    /// Median duration of the spans of this name, in µs.
    Span(&'static str),
    /// Mean duration of the spans of this name, in µs (for whole-µs
    /// timings the program reports, whose median would be a whole number).
    SpanMean(&'static str),
    /// Median over operations of span `a` minus span `b`, in µs.
    Diff(&'static str, &'static str),
    /// Mean of a per-operation quantity.
    Mean(&'static str),
    /// A counter set at the end of the run.
    Counter(&'static str),
}

use Source::{Counter, Diff, Mean, Span, SpanMean};

/// Every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str, Source); 39] = [
    ("dsl.parse_us", "us", Span("dsl.parse")),
    ("bdd.compile_us", "us", Span("bdd.compile")),
    ("bdd.arena_nodes", "count", Mean("bdd.arena_nodes")),
    (
        "bdd.peak_arena_nodes",
        "count",
        Counter("bdd.peak_arena_nodes"),
    ),
    ("bdd.gc_collections", "count", Counter("bdd.gc_collections")),
    (
        "bdd_bu.propagate_us",
        "us",
        Diff("bdd_bu.report", "bdd.compile"),
    ),
    (
        "bdd_bu.reachable_nodes",
        "count",
        Mean("bdd_bu.reachable_nodes"),
    ),
    (
        "bdd_bu.max_front_width",
        "count",
        Mean("bdd_bu.max_front_width"),
    ),
    ("bdd_bu.front_points", "count", Mean("bdd_bu.front_points")),
    ("engine.query_us", "us", Span("engine.query")),
    (
        "engine.lifecycle_tax_us",
        "us",
        Diff("engine.query", "bdd_bu.report"),
    ),
    ("engine.hit_us", "us", Span("engine.hit")),
    ("engine.hit_rate", "ratio", Counter("engine.hit_rate")),
    ("engine.lookups", "count", Counter("engine.lookups")),
    (
        "incremental.value_edit_us",
        "us",
        Span("incremental.value_edit"),
    ),
    (
        "incremental.toggle_edit_us",
        "us",
        Span("incremental.toggle_edit"),
    ),
    (
        "incremental.gate_edit_us",
        "us",
        Span("incremental.gate_edit"),
    ),
    (
        "incremental.replace_edit_us",
        "us",
        Span("incremental.replace_edit"),
    ),
    (
        "incremental.cold_recompile_us",
        "us",
        Span("incremental.cold_recompile"),
    ),
    (
        "incremental.dirty_nodes",
        "count",
        Mean("incremental.dirty_nodes"),
    ),
    ("incremental.reused", "count", Mean("incremental.reused")),
    (
        "incremental.full_fallbacks",
        "count",
        Counter("incremental.full_fallbacks"),
    ),
    ("store.open_us", "us", Span("store.open")),
    ("store.hit_us", "us", Span("store.hit")),
    ("store.write_query_us", "us", Span("store.write_query")),
    (
        "store.write_tax_us",
        "us",
        Diff("store.write_query", "store.storeless"),
    ),
    ("store.hits", "count", Counter("store.hits")),
    ("store.writes", "count", Counter("store.writes")),
    ("store.bdd_loads", "count", Counter("store.bdd_loads")),
    ("store.log_bytes", "bytes", Counter("store.log_bytes")),
    ("store.index_bytes", "bytes", Counter("store.index_bytes")),
    ("pool.queue_us", "us", Span("pool.queue")),
    ("pool.run_us", "us", Span("pool.run")),
    ("serve.server_us", "us", SpanMean("serve.server")),
    (
        "serve.transport_us",
        "us",
        Diff("serve.round_trip", "serve.server"),
    ),
    ("serve.encode_us", "us", Span("serve.encode")),
    ("serve.decode_us", "us", Span("serve.decode")),
    ("serve.bytes_per_op", "bytes", Mean("serve.bytes_per_op")),
    ("trace.overhead_pct", "%", Counter("trace.overhead_pct")),
];

fn value(t: &Tracer, source: &Source) -> Option<f64> {
    match *source {
        Span(name) => {
            let d = t.durations(name);
            (!d.is_empty())
                .then(|| percentile(&d.iter().map(|&n| n as f64).collect::<Vec<_>>(), 0.5) / 1e3)
        }
        SpanMean(name) => {
            let d = t.durations(name);
            (!d.is_empty()).then(|| d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e3)
        }
        Diff(a, b) => {
            let d = t.differences(a, b);
            (!d.is_empty()).then(|| median_i64(&d) / 1e3)
        }
        Mean(name) => t.mean(name),
        Counter(name) => t.counter(name),
    }
}

/// Per-layer metrics: the workload's own traced spans where the workload
/// runs the layer, else the off-path probe's (see `probe`).
pub fn per_layer(main: &Tracer, probe: &Tracer) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let v = value(main, source).or_else(|| value(probe, source));
            (*name, v.unwrap_or(0.0), *unit)
        })
        .collect()
}
