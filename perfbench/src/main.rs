//! End-to-end and per-layer benchmark of the ADT analysis engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks every output against a
//! computation made apart from the path under test, and prints one JSON
//! object as the last line of standard output. With `--trace 0` it holds
//! the end-to-end metrics; with `--trace 1` the per-layer metrics, taken
//! from spans recorded around the calls into each layer (see README.md).

mod check;
mod dag_stream;
mod layers;
mod measure;
mod metrics;
mod probe;
mod served;
mod store_restart;
mod trace;
mod whatif;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::Samples;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "dag-stream",
    "whatif-session",
    "served-hot",
    "store-restart",
];

/// Share of a traced run spent untraced first, to measure the tracing
/// overhead against.
const UNTRACED_SHARE: f64 = 0.3;

/// What one workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Where traces and store directories go (inside the benchmark's own
    /// directory, ignored by git).
    pub out_dir: PathBuf,
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when an output check or a workload invariant failed.
    pub correct: bool,
    /// Latencies of the untraced timed phase.
    pub samples: Samples,
    /// Latencies of the traced phase (trace mode only).
    pub traced: Samples,
    /// Wall time of the untraced timed phase, pauses excluded.
    pub timed: Duration,
    pub setup_s: f64,
    pub rss_mb: f64,
    /// Per-round figures of the untraced phase, for workloads whose
    /// end-to-end metrics are medians over rounds.
    pub rounds: Vec<measure::Round>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            samples: Samples::default(),
            traced: Samples::default(),
            timed: Duration::ZERO,
            setup_s,
            rss_mb: 0.0,
            rounds: Vec::new(),
        }
    }

    /// Records one operation's outcome and latency in the current phase.
    pub fn op(&mut self, phases: &Phases, ok: bool, latency: Duration) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if phases.traced() {
            self.traced.push(latency);
        } else {
            self.samples.push(latency);
        }
    }

    /// Counts an operation whose output failed its check after the timed
    /// phase.
    pub fn wrong(&mut self, what: &str, err: &str) {
        self.incorrect(what, err);
        self.failed += 1;
    }

    /// Records a failed check.
    pub fn incorrect(&mut self, what: &str, err: &str) {
        eprintln!("check failed: {what}: {err}");
        self.correct = false;
    }
}

/// The timed phases of a run: one untraced phase, or in trace mode an
/// untraced phase followed by a traced one. Each phase lasts its budget of
/// wall time, excluding paused intervals (lazy input generation).
pub struct Phases {
    budgets: Vec<(bool, Duration)>,
    index: usize,
    start: Instant,
    paused: Duration,
    untraced_wall: Duration,
}

impl Phases {
    pub fn new(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let budgets = if ctx.trace {
            let untraced = ctx.seconds.mul_f64(UNTRACED_SHARE);
            vec![(false, untraced), (true, ctx.seconds - untraced)]
        } else {
            vec![(false, ctx.seconds)]
        };
        tr.set_on(false);
        Phases {
            budgets,
            index: 0,
            start: Instant::now(),
            paused: Duration::ZERO,
            untraced_wall: Duration::ZERO,
        }
    }

    pub fn traced(&self) -> bool {
        self.budgets.get(self.index).is_some_and(|b| b.0)
    }

    fn wall(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.paused)
    }

    /// True while the run should start another operation; moves to the
    /// next phase (switching the tracer) when the current one is spent.
    pub fn running(&mut self, tr: &mut Tracer) -> bool {
        while let Some(&(traced, budget)) = self.budgets.get(self.index) {
            if self.wall() < budget {
                return true;
            }
            if !traced {
                self.untraced_wall += self.wall();
            }
            self.index += 1;
            self.start = Instant::now();
            self.paused = Duration::ZERO;
            tr.set_on(self.traced());
        }
        tr.set_on(false);
        false
    }

    /// Runs `f` outside the timed phase.
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.paused += start.elapsed();
        out
    }

    /// Wall time of the untraced phases, pauses excluded.
    pub fn untraced_wall(&self) -> Duration {
        self.untraced_wall
    }

    /// Wall time of the current phase so far, pauses excluded.
    pub fn phase_wall(&self) -> Duration {
        self.wall()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut tr = Tracer::new(false);
    let outcome = match args.workload.as_str() {
        "dag-stream" => dag_stream::run(&ctx, &mut tr),
        "whatif-session" => whatif::run(&ctx, &mut tr),
        "served-hot" => served::run(&ctx, &mut tr),
        _ => store_restart::run(&ctx, &mut tr),
    };
    let metrics = if ctx.trace {
        let mut probe = Tracer::new(true);
        probe::run(&args.workload, ctx.seed, &ctx.out_dir, &mut probe);
        tr.set_on(true);
        let base = outcome.samples.percentile_us(0.5);
        let traced = outcome.traced.percentile_us(0.5);
        if base > 0.0 {
            tr.set("trace.overhead_pct", 100.0 * (traced - base) / base);
        }
        for (t, suffix) in [(&tr, ""), (&probe, "-probe")] {
            let path = ctx
                .out_dir
                .join(format!("trace-{}{suffix}.jsonl", args.workload));
            if let Err(e) = t.write_jsonl(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
        metrics::per_layer(&tr, &probe)
    } else {
        metrics::end_to_end(&outcome)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
