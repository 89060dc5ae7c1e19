//! `store-restart`: queries persisted through one engine are asked again
//! by a fresh engine on the same store directory.
//!
//! A run repeats this restart in rounds, each on a fresh directory with the
//! same inputs. Set-up — persisting every query, which is the store's
//! write path, then opening the store again — is timed per round and
//! reported as the median over rounds; the timed stream is the read path.

use std::path::{Path, PathBuf};
use std::time::Instant;

use adt_analysis::DefenseFirstOrder;
use adt_gen::{paper_suite, Shape};

use crate::check::{self, CostAdt, Front};
use crate::layers::{self, Engine};
use crate::measure::{mix, peak_rss_mb, percentile, Round};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Phases};

/// Queries persisted before each restart.
pub const PERSISTED: usize = 240;
/// Fig. 9's size bound: `|N| < 45`.
const MAX_NODES: usize = 45;

/// The persisted queries: seeded Fig. 9-size DAGs.
pub fn inputs(seed: u64, n: usize) -> Vec<CostAdt> {
    paper_suite(n, MAX_NODES, Shape::Dag, mix(seed, 21) >> 20)
        .into_iter()
        .map(|i| i.adt)
        .collect()
}

/// Persists every query of `queries` into a fresh store at `dir` through
/// one engine and drops it.
pub fn persist(dir: &Path, queries: &[CostAdt]) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    let mut engine = Engine::new();
    engine.open_store(dir)?;
    for t in queries {
        engine.bdd_bu_report(t, &DefenseFirstOrder::declaration(t.adt()));
    }
    Ok(())
}

/// A fresh engine on the store at `dir`: the restart.
pub fn restart(dir: &Path, tr: &mut Tracer, op: u64) -> std::io::Result<Engine> {
    let mut engine = Engine::new();
    tr.span("store.open", op, || engine.open_store(dir))?;
    Ok(engine)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(0.0);
    let queries = inputs(ctx.seed, PERSISTED);
    let mut setups = Vec::new();
    // The first round's fronts: checked against `naive` after the run,
    // and every later round against them as it ends.
    let mut first: Vec<Front> = Vec::new();
    let mut phases = Phases::new(ctx, tr);
    let mut round = 0;
    while phases.running(tr) {
        let dir = ctx
            .out_dir
            .join(format!("store-{}-{round}", std::process::id()));
        round += 1;
        let traced = phases.traced();
        let start = Instant::now();
        let setup = persist(&dir, &queries).and_then(|()| {
            let op = tr.op();
            restart(&dir, tr, op)
        });
        let mut engine = match setup {
            Ok(engine) => engine,
            Err(e) => {
                out.incorrect("store set-up", &e.to_string());
                break;
            }
        };
        setups.push(start.elapsed().as_secs_f64());
        let from = out.samples.len();
        let round_start = Instant::now();
        let mut fronts = Vec::with_capacity(queries.len());
        for t in &queries {
            let op = tr.op();
            let start = Instant::now();
            let report = engine.bdd_bu_report(t, &DefenseFirstOrder::declaration(t.adt()));
            let latency = start.elapsed();
            out.op(&phases, true, latency);
            fronts.push(report.front);
            if tr.is_on() {
                tr.record("store.hit", op, start, latency);
                tr.record("engine.query", op, start, latency);
                phases.pause(|| layers::oneshot(t, tr, op));
                tr.sample("bdd.arena_nodes", engine.arena_nodes() as f64);
            }
        }
        if !traced {
            out.rounds
                .push(Round::of(&out.samples, from, round_start.elapsed()));
        }
        if first.is_empty() {
            first = fronts;
        } else {
            for (i, (front, want)) in fronts.iter().zip(&first).enumerate() {
                if front.points() != want.points() {
                    out.wrong(
                        &format!("store-restart round {round} query {i}"),
                        "front differs from the first round's",
                    );
                }
            }
        }
        let hits = engine.stats().store_hits;
        if hits != queries.len() {
            out.incorrect(
                "store-restart",
                &format!("{hits} store hits for {} persisted queries", queries.len()),
            );
        }
        if tr.is_on() {
            layers::store_counters(&engine, &dir, tr);
            layers::EngineCounters::of(&engine).set(tr);
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.setup_s = percentile(&setups, 0.5);
    out.rss_mb = peak_rss_mb();
    // A wrong first-round front that later rounds repeat failed in each.
    for (i, (t, front)) in queries.iter().zip(&first).enumerate() {
        if let Err(e) = check::store_front(t, front) {
            out.incorrect(&format!("store-restart query {i}"), &e);
            out.failed += round as u64;
        }
    }
    out
}

/// The store directory of the off-path probe.
pub fn probe_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("probe-store-{}", std::process::id()))
}
