//! Off-path probes for a traced run: the layers a workload's own
//! operations never enter are timed on a small sample of that workload's
//! inputs, each through the same calls the workload that does use the
//! layer makes. `metrics::per_layer` takes a probe value only where the
//! workload recorded none of its own.

use std::path::Path;
use std::time::{Duration, Instant};

use adt_analysis::DefenseFirstOrder;
use adt_core::dsl::Document;
use adt_gen::{edit_script, EditOp, EditScriptConfig};

use crate::check::CostAdt;
use crate::dag_stream;
use crate::layers::{self, Engine, EngineCounters, PoolProbe};
use crate::measure::mix;
use crate::served::{Corpus, Served};
use crate::store_restart;
use crate::trace::Tracer;
use crate::whatif;

/// Sample size of the probes.
const SAMPLE: usize = 24;
/// Edits of the incremental probe.
const PROBE_EDITS: usize = 60;

/// The sample of `workload`'s inputs the probes run on.
fn sample(workload: &str, seed: u64) -> Vec<CostAdt> {
    let mut trees = match workload {
        "dag-stream" => dag_stream::batch(seed, 0),
        "whatif-session" => (0..4).map(|k| whatif::input(seed, k, 0).base).collect(),
        "served-hot" => Corpus::new(seed).trees,
        _ => store_restart::inputs(seed, SAMPLE),
    };
    trees.truncate(SAMPLE);
    trees
}

pub fn run(workload: &str, seed: u64, out_dir: &Path, tr: &mut Tracer) {
    let trees = sample(workload, seed);
    engine(&trees, tr);
    served(&trees, tr);
    if let Err(e) = store(&trees, &store_restart::probe_dir(out_dir), tr) {
        eprintln!("perfbench: store probe: {e}");
    }
    incremental(&trees, seed, tr);
}

/// Each query once on a fresh engine (misses) beside its one-shot
/// decomposition, then once more (hits).
fn engine(trees: &[CostAdt], tr: &mut Tracer) {
    let mut engine = Engine::new();
    for t in trees {
        let op = tr.op();
        let order = DefenseFirstOrder::declaration(t.adt());
        tr.span("engine.query", op, || engine.bdd_bu_report(t, &order));
        layers::oneshot(t, tr, op);
        tr.sample("bdd.arena_nodes", engine.arena_nodes() as f64);
    }
    for t in trees {
        let op = tr.op();
        let order = DefenseFirstOrder::declaration(t.adt());
        tr.span("engine.hit", op, || engine.bdd_bu_report(t, &order));
    }
    EngineCounters::of(&engine).set(tr);
}

/// The sample served as DSL to a one-worker server, a warm pass and then a
/// traced one, with the parse, codec and pool stages timed alongside.
fn served(trees: &[CostAdt], tr: &mut Tracer) {
    let dsl: Vec<String> = trees
        .iter()
        .map(|t| Document::from_cost_adt("q", t).to_dsl())
        .collect();
    let mut served = Served::start();
    let pool = PoolProbe::new();
    let mut off = Tracer::new(false);
    for (q, t) in dsl.iter().zip(trees) {
        let _ = served.client().query(q);
        pool.call(t, &mut off, 0);
    }
    for (i, (q, t)) in dsl.iter().zip(trees).enumerate() {
        let op = tr.op();
        let start = Instant::now();
        let reply = served.client().query(q);
        let latency = start.elapsed();
        if let Ok(r) = reply {
            tr.record("serve.round_trip", op, start, latency);
            tr.record(
                "serve.server",
                op,
                start,
                Duration::from_micros(r.micros as u64),
            );
            layers::codec((trees.len() + i) as u32, q, &r, tr, op);
        }
        layers::parse(q, tr, op);
        pool.call(t, tr, op);
    }
}

/// Half the sample persisted and asked again after a restart, the other
/// half written on the request path beside the same query storeless.
fn store(trees: &[CostAdt], dir: &Path, tr: &mut Tracer) -> std::io::Result<()> {
    let (old, new) = trees.split_at(trees.len() / 2);
    store_restart::persist(dir, old)?;
    let op = tr.op();
    let mut engine = store_restart::restart(dir, tr, op)?;
    let mut storeless = Engine::new();
    for t in old {
        let op = tr.op();
        let order = DefenseFirstOrder::declaration(t.adt());
        tr.span("store.hit", op, || engine.bdd_bu_report(t, &order));
    }
    for t in new {
        let op = tr.op();
        let order = DefenseFirstOrder::declaration(t.adt());
        tr.span("store.write_query", op, || engine.bdd_bu_report(t, &order));
        tr.span("store.storeless", op, || storeless.bdd_bu_report(t, &order));
    }
    layers::store_counters(&engine, dir, tr);
    drop(engine);
    std::fs::remove_dir_all(dir)
}

/// A what-if session over the sample's largest tree, replaying an edit
/// script that holds every kind of edit.
fn incremental(trees: &[CostAdt], seed: u64, tr: &mut Tracer) {
    let Some(base) = trees.iter().max_by_key(|t| t.adt().node_count()) else {
        return;
    };
    let kind = |op: &EditOp| whatif::span_name(op);
    let script = (0..16)
        .map(|attempt| {
            edit_script(
                base,
                &EditScriptConfig::of_len(PROBE_EDITS),
                mix(seed, 900 + attempt),
            )
        })
        .find(|s| {
            let mut kinds: Vec<&str> = s.iter().map(kind).collect();
            kinds.sort_unstable();
            kinds.dedup();
            kinds.len() == 4
        });
    let Some(script) = script else {
        eprintln!("perfbench: no probe script holds every kind of edit");
        return;
    };
    let mut engine = Engine::new();
    let mut session = engine.incremental_session(base.clone());
    for edit in &script {
        let op = tr.op();
        let start = Instant::now();
        let result = whatif::apply(&mut session, &mut engine, edit);
        let latency = start.elapsed();
        if let Ok(report) = result {
            tr.record(kind(edit), op, start, latency);
            whatif::trace_edit(&session, &report, tr, op);
        }
    }
    session.close(&mut engine);
}
