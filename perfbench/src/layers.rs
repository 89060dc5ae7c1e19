//! Timed calls into single layers, shared by the workloads' traced runs
//! and the off-path probes. Each records spans under the layer's metric
//! names (see `metrics::PER_LAYER`).

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use adt_analysis::{bdd_bu_report, compile, AnalysisEngine, DefenseFirstOrder};
use adt_bench::WorkerPool;
use adt_core::dsl::Document;
use adt_core::MinCost;
use adt_serve::frame::{FrameDecoder, MAX_PAYLOAD};
use adt_serve::session::{result_frames, status_frame};
use adt_serve::QueryReply;

use crate::check::CostAdt;
use crate::trace::Tracer;

pub type Engine = AnalysisEngine<MinCost, MinCost>;

/// The server's admission bound on `served-hot` (see README: at 1 a
/// strictly sequential client gets spurious busy replies).
pub const MAX_INFLIGHT: usize = 2;

/// One-shot BDDBU of `t` on fresh managers: `bdd.compile` alone, then the
/// whole `bdd_bu_report` (compile plus propagation). Returns the report
/// span's start and duration.
pub fn oneshot(t: &CostAdt, tr: &mut Tracer, op: u64) -> (Instant, Duration) {
    let order = DefenseFirstOrder::declaration(t.adt());
    let compiled = tr.span("bdd.compile", op, || compile(t.adt(), &order));
    drop(compiled);
    let start = Instant::now();
    let report = bdd_bu_report(t, &order);
    let dur = start.elapsed();
    tr.record("bdd_bu.report", op, start, dur);
    tr.sample("bdd_bu.reachable_nodes", report.bdd_nodes as f64);
    tr.sample("bdd_bu.max_front_width", report.max_front_width as f64);
    tr.sample("bdd_bu.front_points", report.front.len() as f64);
    (start, dur)
}

/// Parses a query's DSL text the way the server does.
pub fn parse(dsl: &str, tr: &mut Tracer, op: u64) -> Option<CostAdt> {
    tr.span("dsl.parse", op, || {
        Document::parse(dsl).and_then(|doc| doc.to_cost_adt("cost"))
    })
    .ok()
}

/// Encodes the reply frames of one answered query (result chunks and
/// status line) and decodes them again; counts request plus reply bytes.
pub fn codec(id: u32, request: &str, reply: &QueryReply, tr: &mut Tracer, op: u64) {
    let bytes = tr.span("serve.encode", op, || {
        let mut out = Vec::new();
        for frame in result_frames(id, &reply.front) {
            out.extend(frame.encode().expect("result chunks fit a frame"));
        }
        out.extend(
            status_frame(id, reply.nodes, reply.width, reply.micros)
                .encode()
                .expect("status fits a frame"),
        );
        out
    });
    let frames = tr.span("serve.decode", op, || {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let mut frames = 0usize;
        while let Ok(Some(_)) = decoder.next_frame() {
            frames += 1;
        }
        frames
    });
    debug_assert!(frames >= 2);
    // The request: one `Q` data frame per payload chunk, then a flush.
    let request_bytes = request.len() + 5 * request.len().div_ceil(MAX_PAYLOAD) + 4;
    tr.sample("serve.bytes_per_op", (request_bytes + bytes.len()) as f64);
}

/// A one-worker pool driven the way the server drives its own: each query
/// is admitted with `try_submit` under the server's bound and runs the
/// request-scoped engine entry point on the worker's long-lived engine.
pub struct PoolProbe {
    pool: WorkerPool,
}

/// What one pool task reports back.
pub struct PoolCall {
    started: Instant,
    /// Start and duration of the engine call inside the task.
    pub call: Instant,
    pub call_dur: Duration,
    /// Whether the engine's front cache answered.
    pub hit: bool,
    finished: Instant,
}

impl PoolProbe {
    pub fn new() -> Self {
        PoolProbe {
            pool: WorkerPool::new(1, adt_analysis::DEFAULT_GC_THRESHOLD),
        }
    }

    /// Runs one query through the pool, recording `pool.queue` (admission
    /// to task start) and `pool.run` (task start to end).
    pub fn call(&self, t: &CostAdt, tr: &mut Tracer, op: u64) -> Option<PoolCall> {
        let (tx, rx) = mpsc::channel();
        let t = t.clone();
        let submitted = Instant::now();
        self.pool
            .try_submit(MAX_INFLIGHT, move |worker| {
                let started = Instant::now();
                let hits = worker.engine.stats().cache_hits;
                let order = DefenseFirstOrder::declaration(t.adt());
                let call = Instant::now();
                let _ = worker.engine.try_bdd_bu_report(&t, &order);
                let call_dur = call.elapsed();
                let hit = worker.engine.stats().cache_hits > hits;
                let _ = tx.send(PoolCall {
                    started,
                    call,
                    call_dur,
                    hit,
                    finished: Instant::now(),
                });
            })
            .ok()?;
        let done = rx.recv().ok()?;
        tr.record("pool.queue", op, submitted, done.started - submitted);
        tr.record("pool.run", op, done.started, done.finished - done.started);
        Some(done)
    }

    /// Sets the engine and kernel counters of the pool's engine.
    pub fn counters(&self, tr: &mut Tracer) {
        let (tx, rx) = mpsc::channel();
        let submitted = self.pool.try_submit(MAX_INFLIGHT, move |worker| {
            let _ = tx.send(EngineCounters::of(&worker.engine));
        });
        if submitted.is_ok() {
            if let Ok(c) = rx.recv() {
                c.set(tr);
            }
        }
    }
}

/// Engine cache and kernel counters at one moment.
pub struct EngineCounters {
    lookups: usize,
    hit_rate: f64,
    peak_arena: usize,
    collections: usize,
}

impl EngineCounters {
    pub fn of(e: &Engine) -> Self {
        let s = e.stats();
        EngineCounters {
            lookups: s.lookups(),
            hit_rate: s.hit_rate(),
            peak_arena: e.peak_arena(),
            collections: e.gc_stats().collections,
        }
    }

    pub fn set(&self, tr: &mut Tracer) {
        tr.set("engine.lookups", self.lookups as f64);
        tr.set("engine.hit_rate", self.hit_rate);
        tr.set("bdd.peak_arena_nodes", self.peak_arena as f64);
        tr.set("bdd.gc_collections", self.collections as f64);
    }
}

/// Sets the store counters of an engine with an attached store.
pub fn store_counters(e: &Engine, dir: &Path, tr: &mut Tracer) {
    let s = e.stats();
    tr.set("store.hits", s.store_hits as f64);
    tr.set("store.writes", s.store_writes as f64);
    tr.set("store.bdd_loads", s.store_bdd_loads as f64);
    let size = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len()) as f64;
    tr.set("store.log_bytes", size("store.log"));
    tr.set("store.index_bytes", size("store.idx"));
}
