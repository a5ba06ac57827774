//! The four closed-loop workloads. Each has one load-generating thread:
//! the next operation starts only when the previous one (or, for the
//! windowed read workload, the previous window) has been answered.
//!
//! All configuration is explicit or the library default with every
//! `FAQS_*` variable cleared (see `main`).

use crate::gen::{self, LiveSet, Suite, Zipf};
use crate::trace::{self, Tracer};
use faqs::engine::solve_faq;
use faqs::exec::{Executor, ExecutorConfig};
use faqs::hypergraph::{EdgeId, Var};
use faqs::network::{ChannelTransport, Player, RunStats, Topology};
use faqs::protocols::{DistributedFaqRun, InputPlacement};
use faqs::relation::{FaqQuery, Relation, RelationDelta};
use faqs::semiring::{Count, MinPlus};
use faqs::serve::{Answer, FaqServer, ServeConfig, ServeError, ShapeId, Ticket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "serve_read_zipf",
    "serve_write_then_read",
    "exec_scan_suite",
    "dist_channel_topologies",
];

/// What one block of the measured phase observed. Every operation is
/// attempted; one that errs, is refused, answers wrongly or breaks a
/// bound is failed and has no latency.
#[derive(Default)]
pub struct Block {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
}

impl Block {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64 + self.failed
    }

    fn record(&mut self, ok: bool, latency: Duration) {
        if ok {
            self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
        }
    }
}

pub trait Workload {
    /// Runs whole operations until `deadline` has passed.
    fn run_until(&mut self, deadline: Instant, tracer: &mut Tracer, block: &mut Block);

    /// Called between blocks, outside any timing: runs the checks a
    /// block deferred and returns how many of the operations it counted
    /// as completed were in fact wrong.
    fn settle(&mut self) -> u64 {
        0
    }
}

/// Set-up: instance generation, registration, oracle answers, warm-up.
pub fn set_up(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "serve_read_zipf" => Box::new(ServeRead(Serve::set_up(seed, false))),
        "serve_write_then_read" => Box::new(ServeWrite(Serve::set_up(seed, true))),
        "exec_scan_suite" => Box::new(ExecSuite::set_up(seed)),
        "dist_channel_topologies" => Box::new(Dist::set_up(seed)),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------- serve

/// Reads in flight: 64 virtual clients on one thread, each submitting
/// its next request when its previous one is answered.
const WINDOW: usize = 64;
/// The server merges at most this many same-shape reads into one pass.
pub const MAX_BATCH: usize = 16;
/// The read workload lands one delta every this many reads (some 25
/// deltas a second): each costs the next submit a re-quote.
const DELTA_EVERY_READS: u64 = 2048;
/// One served answer in this many is kept and verified after its block.
const SAMPLE_EVERY: u64 = 64;

/// The serve workloads' server: 2 workers, batches of up to 16, no
/// inline fast path, no admission limit, a sequential executor.
pub fn serve_server() -> FaqServer<Count> {
    FaqServer::with_executor(
        ServeConfig {
            workers: 2,
            max_batch: MAX_BATCH,
            cheap_cpu: 0,
            cost_budget: u64::MAX,
        },
        Executor::new(ExecutorConfig::sequential()),
    )
}

struct Shape {
    id: ShapeId,
    /// The benchmark's own copy of the registered template, `epoch`
    /// deltas behind which `log` holds the later ones in epoch order.
    shadow: FaqQuery<Count>,
    epoch: u64,
    log: VecDeque<(EdgeId, RelationDelta<Count>)>,
    live: Vec<LiveSet>,
}

impl Shape {
    /// Replays logged deltas until the shadow stands at `epoch`.
    fn advance_to(&mut self, epoch: u64) {
        while self.epoch < epoch {
            let (edge, delta) = self.log.pop_front().expect("epochs are logged in order");
            self.shadow.factors[edge.index()].apply_delta(&delta);
            self.epoch += 1;
        }
    }

    fn newest_epoch(&self) -> u64 {
        self.epoch + self.log.len() as u64
    }
}

struct Sample {
    shape: usize,
    binding: u32,
    answer: Answer<Count>,
}

struct Serve {
    server: FaqServer<Count>,
    shapes: [Shape; 2],
    zipf: Zipf,
    rng: StdRng,
    samples: Vec<Sample>,
    /// Operations started so far; the next operation's id.
    ops: u64,
}

/// One virtual client's outstanding read.
struct InFlight {
    op: u64,
    shape: usize,
    binding: u32,
    start: Instant,
    ticket: Result<Ticket<Count>, ServeError>,
}

impl Serve {
    fn set_up(seed: u64, writes: bool) -> Serve {
        let server = serve_server();
        let shapes = gen::serve_templates(seed).map(|template| Shape {
            live: template
                .factors
                .iter()
                .map(|f| LiveSet::of(f, gen::SERVE_DOMAIN))
                .collect(),
            shadow: template.clone(),
            epoch: 0,
            id: server
                .register(template, Var(0))
                .expect("the centre is free"),
            log: VecDeque::new(),
        });
        let mut serve = Serve {
            server,
            shapes,
            zipf: Zipf::new(gen::SERVE_DOMAIN, 1.1),
            rng: StdRng::seed_from_u64(gen::sub_seed(seed, 1)),
            samples: Vec::new(),
            ops: 0,
        };
        let (mut tracer, mut warm) = (Tracer::new(false), Block::default());
        for _ in 0..8 {
            if writes {
                serve.write_then_read(&mut tracer, &mut warm);
            } else {
                let window: Vec<InFlight> = (0..WINDOW)
                    .map(|_| serve.submit_read(&mut tracer))
                    .collect();
                for read in window {
                    serve.finish_read(read, &mut tracer, &mut warm);
                }
            }
        }
        assert_eq!(
            warm.failed + serve.verify_samples(),
            0,
            "warm-up operations succeed"
        );
        serve
    }

    fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops - 1
    }

    /// Applies one generated delta to a random factor of `shape`, as part
    /// of operation `op`, and logs it; `None` when the server refused it
    /// or numbered it wrongly.
    fn write(&mut self, op: u64, shape: usize, centre: Option<u32>, t: &mut Tracer) -> Option<u64> {
        let edge = self.rng.random_range(0..3usize);
        let s = &mut self.shapes[shape];
        let schema = s.shadow.factors[edge].schema().to_vec();
        let delta = gen::write_delta(&mut self.rng, &mut s.live[edge], &schema, centre);
        let edge = EdgeId(edge as u32);
        let (server, id) = (&self.server, s.id);
        let epoch = t.span("serve.apply_delta", op, |_| {
            server.apply_delta(id, edge, &delta)
        });
        s.log.push_back((edge, delta));
        epoch.ok().filter(|&e| e == s.newest_epoch())
    }

    /// Keeps one answer in `SAMPLE_EVERY` for the check after the block.
    fn keep_sample(
        &mut self,
        op: u64,
        shape: usize,
        binding: u32,
        answer: Answer<Count>,
        t: &mut Tracer,
    ) {
        if op.is_multiple_of(SAMPLE_EVERY) {
            t.span("verify", op, |_| {
                self.samples.push(Sample {
                    shape,
                    binding,
                    answer,
                })
            });
        }
    }

    /// Submits one read: a 1:1 shape pick and a Zipf(1.1) binding.
    fn submit_read(&mut self, t: &mut Tracer) -> InFlight {
        let op = self.next_op();
        let shape = self.rng.random_range(0..2usize);
        let binding = self.zipf.sample(&mut self.rng);
        let (server, id) = (&self.server, self.shapes[shape].id);
        let start = Instant::now();
        let ticket = t.span("serve.submit", op, |_| server.submit(id, binding));
        InFlight {
            op,
            shape,
            binding,
            start,
            ticket,
        }
    }

    /// Waits for one read; its latency runs from submit to reply.
    fn finish_read(&mut self, read: InFlight, t: &mut Tracer, block: &mut Block) {
        let answer = read
            .ticket
            .and_then(|ticket| t.span("serve.wait", read.op, |_| ticket.wait()));
        block.record(answer.is_ok(), read.start.elapsed());
        if let Ok(a) = answer {
            self.keep_sample(read.op, read.shape, read.binding, a, t);
        }
    }

    /// One operation of the write workload: a delta touching binding
    /// `b`, then a read of `b` that must observe it.
    fn write_then_read(&mut self, t: &mut Tracer, block: &mut Block) {
        let op = self.next_op();
        let shape = self.rng.random_range(0..2usize);
        let binding = self.zipf.sample(&mut self.rng);
        let start = Instant::now();
        let answer = t.span(trace::OP, op, |t| {
            let epoch = self.write(op, shape, Some(binding), t)?;
            let (server, id) = (&self.server, self.shapes[shape].id);
            let ticket = t
                .span("serve.submit", op, |_| server.submit(id, binding))
                .ok()?;
            let answer = t.span("serve.wait", op, |_| ticket.wait()).ok()?;
            // Read-your-write: the answer's snapshot includes the delta.
            (answer.epoch >= epoch).then_some(answer)
        });
        block.record(answer.is_some(), start.elapsed());
        if let Some(a) = answer {
            self.keep_sample(op, shape, binding, a, t);
        }
    }

    /// Checks every kept answer against `solve_faq` on the shadow at the
    /// answer's epoch, then brings the shadows up to date, so neither
    /// samples nor logs outlive a block.
    fn verify_samples(&mut self) -> u64 {
        let mut samples = std::mem::take(&mut self.samples);
        samples.sort_by_key(|s| s.answer.epoch);
        let mut wrong = 0;
        for s in samples {
            let shape = &mut self.shapes[s.shape];
            if s.answer.epoch < shape.epoch || s.answer.epoch > shape.newest_epoch() {
                wrong += 1;
                continue;
            }
            shape.advance_to(s.answer.epoch);
            if s.answer.relation != oracle_slice(&shape.shadow, s.binding) {
                wrong += 1;
            }
        }
        for shape in &mut self.shapes {
            shape.advance_to(shape.newest_epoch());
        }
        wrong
    }
}

/// The reference answer for one binding of the centre: `solve_faq` on
/// the template with every factor restricted to that binding.
fn oracle_slice(template: &FaqQuery<Count>, binding: u32) -> Relation<Count> {
    let factors = template
        .factors
        .iter()
        .map(|f| f.restrict_in(Var(0), &[binding]))
        .collect();
    let restricted = FaqQuery::new_ss(
        template.hypergraph.clone(),
        factors,
        template.free_vars.clone(),
        template.domain,
    );
    solve_faq(&restricted).expect("restricted template is valid")
}

struct ServeRead(Serve);

impl Workload for ServeRead {
    /// Keeps `WINDOW` reads in flight, always waiting on the oldest, so
    /// the server's workers find the queue non-empty; lands a delta
    /// every `DELTA_EVERY_READS` reads; drains before returning, so a
    /// block's operations all complete inside it.
    fn run_until(&mut self, deadline: Instant, tracer: &mut Tracer, block: &mut Block) {
        let serve = &mut self.0;
        let mut flying = VecDeque::with_capacity(WINDOW);
        while Instant::now() < deadline {
            while flying.len() < WINDOW {
                if serve.ops % DELTA_EVERY_READS == DELTA_EVERY_READS - 1 {
                    let shape = serve.rng.random_range(0..2usize);
                    let written = serve.write(serve.ops, shape, None, tracer);
                    assert!(written.is_some(), "delta accepted");
                }
                flying.push_back(serve.submit_read(tracer));
            }
            let oldest = flying.pop_front().expect("window is full");
            serve.finish_read(oldest, tracer, block);
        }
        for read in flying {
            serve.finish_read(read, tracer, block);
        }
    }

    fn settle(&mut self) -> u64 {
        self.0.verify_samples()
    }
}

struct ServeWrite(Serve);

impl Workload for ServeWrite {
    fn run_until(&mut self, deadline: Instant, tracer: &mut Tracer, block: &mut Block) {
        while Instant::now() < deadline {
            self.0.write_then_read(tracer, block);
        }
    }

    fn settle(&mut self) -> u64 {
        self.0.verify_samples()
    }
}

// ----------------------------------------------------------------- exec

struct ExecSuite {
    suite: Suite,
    want_counts: [Relation<Count>; 3],
    want_star: Relation<MinPlus>,
    executor: Executor,
    ops: u64,
}

/// Span names of the four solves, in pass order.
const SOLVE_SPANS: [&str; 4] = [
    "exec.solve.triangle",
    "exec.solve.cycle4",
    "exec.solve.path4",
    "exec.solve.star_minplus",
];

impl ExecSuite {
    fn set_up(seed: u64) -> ExecSuite {
        let suite = gen::suite(seed);
        let mut w = ExecSuite {
            want_counts: [0, 1, 2].map(|i| solve_faq(&suite.counting[i]).expect("oracle")),
            want_star: solve_faq(&suite.star_minplus).expect("oracle"),
            suite,
            executor: Executor::new(ExecutorConfig::with_threads(2)),
            ops: 0,
        };
        let (mut tracer, mut warm) = (Tracer::new(false), Block::default());
        for _ in 0..3 {
            w.pass(&mut tracer, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up passes match the oracles");
        w
    }

    /// One operation: the four solves on a warm plan cache, each checked
    /// against its oracle. Latency is the time inside the solves.
    fn pass(&mut self, t: &mut Tracer, block: &mut Block) {
        let op = self.ops;
        self.ops += 1;
        let ex = &self.executor;
        let (mut ok, mut busy) = (true, Duration::ZERO);
        t.span(trace::OP, op, |t| {
            for (i, q) in self.suite.counting.iter().enumerate() {
                let start = Instant::now();
                let got = t.span(SOLVE_SPANS[i], op, |_| ex.solve(q));
                busy += start.elapsed();
                ok &= t.span("verify", op, |_| got.as_ref() == Ok(&self.want_counts[i]));
            }
            let start = Instant::now();
            let got = t.span(SOLVE_SPANS[3], op, |_| ex.solve(&self.suite.star_minplus));
            busy += start.elapsed();
            ok &= t.span("verify", op, |_| got.as_ref() == Ok(&self.want_star));
        });
        block.record(ok, busy);
    }
}

impl Workload for ExecSuite {
    fn run_until(&mut self, deadline: Instant, tracer: &mut Tracer, block: &mut Block) {
        while Instant::now() < deadline {
            self.pass(tracer, block);
        }
    }
}

// ----------------------------------------------------------------- dist

/// One topology of the distributed workload. Every factor is hash-split
/// over all its players; player 0 must learn the answer.
pub struct Site {
    pub topology: Topology,
    pub players: Vec<Player>,
    /// The last measurement found inside the paper's bounds. Runs are
    /// deterministic, so the bound check — a pure function of the
    /// measurement — is evaluated once and again only if it changes.
    conforming: Option<RunStats>,
}

pub fn dist_sites() -> Vec<Site> {
    [Topology::line(4), Topology::star(5), Topology::grid(3, 3)]
        .into_iter()
        .map(|topology| Site {
            players: topology.players().collect(),
            topology,
            conforming: None,
        })
        .collect()
}

struct Dist {
    q: FaqQuery<Count>,
    want: Relation<Count>,
    sites: Vec<Site>,
    ops: u64,
}

impl Dist {
    fn set_up(seed: u64) -> Dist {
        let q = gen::dist_instance(seed);
        let mut w = Dist {
            want: solve_faq(&q).expect("oracle"),
            q,
            sites: dist_sites(),
            ops: 0,
        };
        let (mut tracer, mut warm) = (Tracer::new(false), Block::default());
        w.op(&mut tracer, &mut warm);
        assert_eq!(warm.failed, 0, "warm-up runs are correct and conform");
        w
    }

    /// One operation: on each topology, place, plan (placed planning, no
    /// plan cache), and execute over fresh in-process channels. Latency
    /// is the time outside verification.
    fn op(&mut self, t: &mut Tracer, block: &mut Block) {
        let op = self.ops;
        self.ops += 1;
        let Dist { q, want, sites, .. } = self;
        let (mut ok, mut busy) = (true, Duration::ZERO);
        t.span(trace::OP, op, |t| {
            for site in sites.iter_mut() {
                let start = Instant::now();
                let placement = InputPlacement::hash_split(q.k(), &site.players, Player(0));
                let run = t.span("protocols.new", op, |_| {
                    DistributedFaqRun::new(q, &site.topology, placement, 1)
                });
                let Ok(run) = run else {
                    busy += start.elapsed();
                    ok = false;
                    continue;
                };
                let mut transport = t.span("network.transport_new", op, |_| {
                    ChannelTransport::new(run.topology())
                });
                let out = t.span("protocols.execute_on", op, |_| {
                    run.execute_on(&mut transport)
                });
                busy += start.elapsed();
                ok &= t.span("verify", op, |_| {
                    let Ok(out) = out else { return false };
                    if site.conforming != Some(out.stats) {
                        site.conforming =
                            run.conformance(out.stats).conforms().then_some(out.stats);
                    }
                    out.result == *want && site.conforming.is_some()
                });
            }
        });
        block.record(ok, busy);
    }
}

impl Workload for Dist {
    fn run_until(&mut self, deadline: Instant, tracer: &mut Tracer, block: &mut Block) {
        while Instant::now() < deadline {
            self.op(tracer, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload completes operations, none fails, and the deferred
    /// checks pass — on two seeds.
    #[test]
    fn every_workload_runs_clean() {
        for seed in [1, 2] {
            for name in WORKLOADS {
                let mut w = set_up(name, seed);
                let (mut tracer, mut block) = (Tracer::new(true), Block::default());
                w.run_until(
                    Instant::now() + Duration::from_millis(150),
                    &mut tracer,
                    &mut block,
                );
                assert!(!block.latencies_ms.is_empty(), "{name} completed nothing");
                assert_eq!(block.failed, 0, "{name} seed {seed}");
                assert_eq!(w.settle(), 0, "{name} seed {seed}");
                assert!(!tracer.spans().is_empty(), "{name} recorded no span");
            }
        }
    }

    #[test]
    fn a_wrong_sampled_answer_is_caught() {
        let mut serve = Serve::set_up(1, true);
        let (mut tracer, mut block) = (Tracer::new(false), Block::default());
        while serve.samples.len() < 2 {
            serve.write_then_read(&mut tracer, &mut block);
        }
        serve.samples[1].binding ^= 1;
        assert_eq!(serve.verify_samples(), 1);
    }
}
