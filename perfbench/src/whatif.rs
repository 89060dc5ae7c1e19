//! `whatif-session`: long edit scripts replayed through incremental
//! sessions over the largest DAGs of the Fig. 10 generator, one engine for
//! every session of a run.

use std::collections::HashMap;
use std::time::Instant;

use adt_analysis::{AnalysisError, EditReport, IncrementalSession};
use adt_core::semiring::Ext;
use adt_core::{Agent, MinCost};
use adt_gen::{apply_edit, edit_script, random_adt, EditOp, EditScriptConfig, RandomAdtConfig};

use crate::check::{self, CostAdt, Front};
use crate::layers::{self, Engine, EngineCounters};
use crate::measure::{mix, peak_rss_mb, repeated_setup};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Phases};

pub type Session = IncrementalSession<MinCost, MinCost>;
pub type Report = EditReport<Ext<u64>, Ext<u64>>;

/// Edits per session, in the generator's default mix.
pub const EDITS: usize = 300;
/// Target sizes of the session trees: the top 20-node bucket.
const SIZES: std::ops::RangeInclusive<usize> = 306..=325;

/// One session's base tree and edit script.
pub struct Input {
    pub base: CostAdt,
    pub script: Vec<EditOp>,
}

/// The `k`-th session of the run with workload seed `seed`.
pub fn input(seed: u64, k: u64, edits: usize) -> Input {
    let s = mix(seed, 0x5E55_0000 + k);
    let target = SIZES.start() + (s % (SIZES.end() - SIZES.start() + 1) as u64) as usize;
    let base = random_adt(&RandomAdtConfig::dag(target), s);
    let script = edit_script(&base, &EditScriptConfig::of_len(edits), mix(s, 1));
    Input { base, script }
}

/// Applies one generated op through the session's typed edit calls (value
/// edits dispatch on the leaf's agent, like the wire grammar's `set`).
pub fn apply(
    session: &mut Session,
    engine: &mut Engine,
    op: &EditOp,
) -> Result<Report, AnalysisError> {
    match op {
        EditOp::SetValue { name, value } => {
            let id = session.tree().adt().require(name)?;
            match session.tree().adt()[id].agent() {
                Agent::Attacker => session.set_attack_value(engine, name, Ext::Fin(*value)),
                Agent::Defender => session.set_defense_value(engine, name, Ext::Fin(*value)),
            }
        }
        EditOp::Toggle { name } => session.toggle_defense(engine, name),
        EditOp::SetGate { name, gate } => session.set_gate_kind(engine, name, *gate),
        EditOp::Replace { at, replacement } => session.replace_subtree(engine, at, replacement),
    }
}

/// The span an edit is recorded under.
pub fn span_name(op: &EditOp) -> &'static str {
    match op {
        EditOp::SetValue { .. } => "incremental.value_edit",
        EditOp::Toggle { .. } => "incremental.toggle_edit",
        EditOp::SetGate { .. } => "incremental.gate_edit",
        EditOp::Replace { .. } => "incremental.replace_edit",
    }
}

/// Traced per-edit decomposition: the edit's reuse split and a cold
/// one-shot recompile of the edited tree.
pub fn trace_edit(session: &Session, report: &Report, tr: &mut Tracer, op: u64) {
    tr.sample("incremental.dirty_nodes", report.dirty_nodes as f64);
    tr.sample("incremental.reused", report.reused as f64);
    tr.add(
        "incremental.full_fallbacks",
        f64::from(u8::from(report.full_fallback)),
    );
    let (start, dur) = layers::oneshot(session.tree(), tr, op);
    tr.record("incremental.cold_recompile", op, start, dur);
}

/// One edit's outcome, kept for the untimed check.
struct Done {
    front: Front,
    dirty_nodes: usize,
    reused: usize,
    bdd_nodes: usize,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let ((mut engine, mut inputs, session), setup_s) = repeated_setup(3, || {
        let mut engine = Engine::new();
        let first = input(ctx.seed, 0, EDITS);
        let session = engine.incremental_session(first.base.clone());
        (engine, vec![first], session)
    });
    let mut session = Some(session);
    let mut out = Outcome::new(setup_s);
    // Per session, the outcome of each edit made (None: it failed).
    let mut done: Vec<Vec<Option<Done>>> = vec![Vec::new()];
    let mut phases = Phases::new(ctx, tr);
    while phases.running(tr) {
        let k = inputs.len() - 1;
        if done[k].len() == inputs[k].script.len() {
            phases.pause(|| {
                session.take().expect("open session").close(&mut engine);
                let next = input(ctx.seed, k as u64 + 1, EDITS);
                session = Some(engine.incremental_session(next.base.clone()));
                inputs.push(next);
                done.push(Vec::new());
            });
            continue;
        }
        let s = session.as_mut().expect("open session");
        let edit = &inputs[k].script[done[k].len()];
        let op = tr.op();
        let start = Instant::now();
        let result = apply(s, &mut engine, edit);
        let latency = start.elapsed();
        out.op(&phases, result.is_ok(), latency);
        match result {
            Ok(report) => {
                if tr.is_on() {
                    tr.record(span_name(edit), op, start, latency);
                    phases.pause(|| trace_edit(s, &report, tr, op));
                    tr.sample("bdd.arena_nodes", engine.arena_nodes() as f64);
                }
                done[k].push(Some(Done {
                    front: report.front,
                    dirty_nodes: report.dirty_nodes,
                    reused: report.reused,
                    bdd_nodes: report.bdd_nodes,
                }));
            }
            Err(e) => {
                eprintln!("whatif-session: edit failed: {e}");
                done[k].push(None);
            }
        }
    }
    out.timed = phases.untraced_wall();
    out.rss_mb = peak_rss_mb();
    if ctx.trace {
        tr.set_on(true);
        EngineCounters::of(&engine).set(tr);
        tr.set_on(false);
    }
    session.take().expect("open session").close(&mut engine);
    // Replay every script with the independent edit applier and compare
    // each edit's front with a cold recompile of the tree it produces.
    for (k, edits) in done.iter().enumerate() {
        let mut tree = inputs[k].base.clone();
        let mut toggles = HashMap::new();
        for (j, (edit, made)) in inputs[k].script.iter().zip(edits).enumerate() {
            tree = match apply_edit(&tree, &mut toggles, edit) {
                Ok(t) => t,
                Err(e) => {
                    out.wrong(&format!("session {k} edit {j}"), &e.to_string());
                    break;
                }
            };
            let Some(d) = made else { continue };
            if let Err(e) = check::edit(&tree, &d.front, d.dirty_nodes, d.reused, d.bdd_nodes) {
                out.wrong(&format!("session {k} edit {j}"), &e);
            }
        }
    }
    out
}
