//! `dag-stream`: distinct Fig. 10 DAG queries answered in order by one
//! long-lived engine, as a server worker answers them.

use std::time::Instant;

use adt_analysis::DefenseFirstOrder;
use adt_gen::{bucket_suite, Shape};

use crate::check::{self, CostAdt};
use crate::layers::{self, Engine, EngineCounters};
use crate::measure::{mix, peak_rss_mb, repeated_setup, shuffle, Round};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Phases};

/// Instances per 20-node bucket in one generated batch.
const PER_BUCKET: usize = 4;
/// Largest target size of the bucket suite (Figs. 9c and 10).
pub const MAX_NODES: usize = 325;
/// Batches in one round: 16 × 17 buckets × 4 = 1088 distinct queries.
const BATCHES: u64 = 16;
/// Queries re-asked after a traced run to time the engine's hit path.
const REASKED: usize = 64;

/// A sample of the stream: one batch of one bucket sweep, shuffled so
/// that sizes mix. Every instance has its own seed.
pub fn batch(seed: u64, b: u64) -> Vec<CostAdt> {
    // Instance seeds of batch b are master..master + 17 * PER_BUCKET.
    let master = (mix(seed, 7) >> 20) + b * 100_000;
    let mut batch: Vec<CostAdt> = bucket_suite(PER_BUCKET, MAX_NODES, Shape::Dag, master)
        .into_iter()
        .map(|i| i.adt)
        .collect();
    shuffle(&mut batch, mix(master, 3));
    batch
}

/// Round `r`'s queries: `BATCHES` batches of their own.
fn round(seed: u64, r: u64) -> Vec<CostAdt> {
    (r * BATCHES..(r + 1) * BATCHES)
        .flat_map(|b| batch(seed, b))
        .collect()
}

/// Rounds of distinct queries, each round answered in order by a fresh
/// long-lived engine, until the time is spent. Each round's fronts are
/// checked right after it, outside the timed phase. The end-to-end metrics
/// are medians over the rounds of the untraced phase. Peak memory is read
/// when the first round ends: a host that runs more rounds meets more of
/// the rare queries whose diagrams dwarf the rest, so a later reading
/// would measure the host's speed as much as the program.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let (mut queries, setup_s) = repeated_setup(3, || round(ctx.seed, 0));
    let mut out = Outcome::new(setup_s);
    let mut phases = Phases::new(ctx, tr);
    let mut engine = Engine::new();
    let mut r = 0;
    while phases.running(tr) {
        if r > 0 {
            queries = phases.pause(|| round(ctx.seed, r));
        }
        engine = phases.pause(Engine::new);
        let traced = phases.traced();
        let (from, wall) = (out.samples.len(), phases.phase_wall());
        let mut fronts = Vec::with_capacity(queries.len());
        for t in &queries {
            let op = tr.op();
            let start = Instant::now();
            let order = DefenseFirstOrder::declaration(t.adt());
            let report = engine.bdd_bu_report(t, &order);
            let latency = start.elapsed();
            out.op(&phases, true, latency);
            fronts.push(report.front);
            if tr.is_on() {
                tr.record("engine.query", op, start, latency);
                phases.pause(|| layers::oneshot(t, tr, op));
                tr.sample("bdd.arena_nodes", engine.arena_nodes() as f64);
            }
        }
        if !traced {
            out.rounds
                .push(Round::of(&out.samples, from, phases.phase_wall() - wall));
        }
        if r == 0 {
            out.rss_mb = peak_rss_mb();
        }
        phases.pause(|| {
            for (i, (front, t)) in fronts.iter().zip(&queries).enumerate() {
                if let Err(e) = check::dag_front(t, front) {
                    out.wrong(&format!("dag-stream round {r} query {i}"), &e);
                }
            }
        });
        r += 1;
    }
    out.timed = phases.untraced_wall();
    if ctx.trace {
        tr.set_on(true);
        EngineCounters::of(&engine).set(tr);
        // A round never repeats a query; re-ask the last round's latest
        // queries (still cached) to time the hit path of the same engine.
        for t in &queries[queries.len() - REASKED..] {
            let op = tr.op();
            let order = DefenseFirstOrder::declaration(t.adt());
            tr.span("engine.hit", op, || engine.bdd_bu_report(t, &order));
        }
        tr.set_on(false);
    }
    out
}
