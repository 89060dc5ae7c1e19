//! `served-hot`: the Fig. 9 corpus sent as DSL by one blocking client over
//! a Unix socketpair to an in-process one-worker server, cycled with the
//! server's front cache hot.

use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adt_core::dsl::Document;
use adt_gen::{paper_suite, Shape};
use adt_serve::{Client, ServeConfig, Server, DEFAULT_MAX_QUERY_BYTES};

use crate::check::{self, CostAdt};
use crate::layers::{self, PoolProbe, MAX_INFLIGHT};
use crate::measure::{mix, peak_rss_mb, repeated_setup, shuffle};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Phases};

/// Trees and DAGs each, as in Fig. 9.
const PER_SHAPE: usize = 120;
/// Fig. 9's size bound: `|N| < 45`.
const MAX_NODES: usize = 45;

/// The queries and their DSL text.
pub struct Corpus {
    pub trees: Vec<CostAdt>,
    pub dsl: Vec<String>,
}

impl Corpus {
    pub fn new(seed: u64) -> Self {
        let mut trees: Vec<CostAdt> = [(Shape::Tree, 11), (Shape::Dag, 12)]
            .into_iter()
            .flat_map(|(shape, stream)| {
                paper_suite(PER_SHAPE, MAX_NODES, shape, mix(seed, stream) >> 20)
            })
            .map(|i| i.adt)
            .collect();
        shuffle(&mut trees, mix(seed, 13));
        let dsl = trees
            .iter()
            .map(|t| Document::from_cost_adt("q", t).to_dsl())
            .collect();
        Corpus { trees, dsl }
    }
}

/// A one-worker server on its own thread and a blocking client connected
/// to it over a socketpair.
pub struct Served {
    client: Option<Client<UnixStream, UnixStream>>,
    server: Option<JoinHandle<()>>,
}

impl Served {
    pub fn start() -> Self {
        let server = Server::new(ServeConfig {
            jobs: 1,
            kernel_threads: 1,
            max_inflight: MAX_INFLIGHT,
            gc_threshold: adt_analysis::DEFAULT_GC_THRESHOLD,
            max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
            store: None,
        });
        let (local, remote) = UnixStream::pair().expect("socketpair");
        let thread = std::thread::spawn(move || {
            let write_half = remote.try_clone().expect("clonable stream");
            if let Err(e) = server.serve_connection(&remote, write_half) {
                eprintln!("served-hot: server connection ended: {e}");
            }
            server.drain();
        });
        let write_half = local.try_clone().expect("clonable stream");
        Served {
            client: Some(Client::new(local, write_half)),
            server: Some(thread),
        }
    }

    pub fn client(&mut self) -> &mut Client<UnixStream, UnixStream> {
        self.client.as_mut().expect("client until drop")
    }
}

impl Drop for Served {
    /// Shuts the session down gracefully and joins the server thread.
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            if let Err(e) = client.shutdown() {
                eprintln!("served-hot: shutdown: {e}");
            }
        }
        if let Some(thread) = self.server.take() {
            let _ = thread.join();
        }
    }
}

/// Sends every query once; the replies' front text, or the error.
pub fn first_pass(served: &mut Served, corpus: &Corpus) -> Vec<Result<String, String>> {
    corpus
        .dsl
        .iter()
        .map(|q| {
            served
                .client()
                .query(q)
                .map(|r| r.front)
                .map_err(|e| e.to_string())
        })
        .collect()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let ((corpus, mut served, first), setup_s) = repeated_setup(3, || {
        let corpus = Corpus::new(ctx.seed);
        let mut served = Served::start();
        let first = first_pass(&mut served, &corpus);
        (corpus, served, first)
    });
    let mut out = Outcome::new(setup_s);
    // Untimed: each distinct reply against the oracle. A query whose reply
    // is wrong fails every time it is sent.
    let verified: Vec<bool> = first
        .iter()
        .enumerate()
        .map(|(i, reply)| {
            let verdict = match reply {
                Ok(front) => check::served_reply(&corpus.trees[i], front),
                Err(e) => Err(format!("first-pass reply: {e}")),
            };
            verdict
                .map_err(|e| out.incorrect(&format!("served-hot query {i}"), &e))
                .is_ok()
        })
        .collect();
    // The traced decomposition runs each query through a pool of its own,
    // warmed like the server's.
    let pool = ctx.trace.then(|| {
        let pool = PoolProbe::new();
        let mut off = Tracer::new(false);
        for t in &corpus.trees {
            pool.call(t, &mut off, 0);
        }
        pool
    });
    let n = corpus.dsl.len();
    let mut sent = 0usize;
    let mut phases = Phases::new(ctx, tr);
    while phases.running(tr) {
        let i = sent % n;
        sent += 1;
        let op = tr.op();
        let start = Instant::now();
        let reply = served.client().query(&corpus.dsl[i]);
        let latency = start.elapsed();
        let ok = match (&reply, &first[i]) {
            (Ok(r), Ok(want)) => verified[i] && r.front == *want,
            _ => false,
        };
        out.op(&phases, ok, latency);
        if !ok {
            eprintln!(
                "served-hot: query {i}: {:?}",
                reply.as_ref().map(|r| &r.front)
            );
        }
        if let (true, Ok(r)) = (tr.is_on(), &reply) {
            let round_trip = tr.mark();
            tr.record("serve.round_trip", op, start, latency);
            tr.record(
                "serve.server",
                op,
                start,
                Duration::from_micros(r.micros as u64),
            );
            tr.adopt(round_trip, round_trip + 1..round_trip + 2);
            phases.pause(|| {
                let parsed = layers::parse(&corpus.dsl[i], tr, op);
                layers::codec((n + sent - 1) as u32, &corpus.dsl[i], r, tr, op);
                let pooled = pool
                    .as_ref()
                    .zip(parsed)
                    .and_then(|(p, t)| p.call(&t, tr, op));
                if let Some(done) = pooled {
                    tr.record("engine.query", op, done.call, done.call_dur);
                    if done.hit {
                        tr.record("engine.hit", op, done.call, done.call_dur);
                    }
                }
                layers::oneshot(&corpus.trees[i], tr, op);
            });
        }
    }
    out.timed = phases.untraced_wall();
    out.rss_mb = peak_rss_mb();
    if let Some(pool) = &pool {
        tr.set_on(true);
        pool.counters(tr);
        tr.set_on(false);
    }
    drop(served);
    out
}
