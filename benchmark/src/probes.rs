//! Per-layer probes: each layer is measured from outside, by timing
//! calls into its public functions on the inputs the workloads' set-up
//! generates for the same seed. A timed value is the median of `calls`
//! calls; counts are exact.

use crate::gen::{self, LiveSet, Zipf};
use crate::measure::{highest_supported_percentile, median, percentile, time_calls, Reading};
use crate::workloads::{dist_sites, serve_server, Site, MAX_BATCH};
use faqs::engine::solve_faq;
use faqs::exec::{Executor, ExecutorConfig, IncrementalFaq};
use faqs::hypergraph::{cycle_query, fractional_edge_cover, EdgeId, Ghd, Var};
use faqs::network::{
    ChannelTransport, Player, RunStats, SimTransport, TcpTransport, Topology, Transport,
};
use faqs::plan::{
    cost_quote_calibrated, plan_query, plan_query_placed, CalibrationRegistry, PlacementContext,
    PlannerConfig, QueryStats,
};
use faqs::protocols::{model_capacity_bits, DistributedFaqRun, InputPlacement};
use faqs::relation::{generic_join, Aggregate, FaqQuery, Relation, RelationDelta};
use faqs::semiring::{Count, MinPlus, Semiring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Every per-layer metric, as `BENCHMARK.json` must name them; `e2e.*` and
/// `trace.*` come from the traced workload run, the rest from [`run`].
#[cfg(test)]
pub const PER_LAYER: [&str; 60] = [
    "e2e.latency_p95_ms",
    "relation.join_us",
    "relation.semijoin_us",
    "relation.aggregate_out_us",
    "relation.generic_join_us",
    "relation.apply_delta_us",
    "relation.stats_us",
    "relation.encode_frame_us",
    "relation.decode_frame_us",
    "relation.frame_bytes_per_row",
    "hypergraph.gyo_ghd_us",
    "hypergraph.fractional_cover_us",
    "plan.query_stats_us",
    "plan.cost_quote_us",
    "plan.plan_query_us",
    "plan.plan_query_placed_us",
    "plan.candidates",
    "plan.estimate_log2_err",
    "core.solve_faq_us",
    "exec.solve_warm_us",
    "exec.solve_cold_us",
    "exec.solve_batch_w1_us",
    "exec.solve_batch_w16_us",
    "exec.cache_hit_rate",
    "exec.cache_entries",
    "exec.parallel_speedup_t2",
    "exec.incremental_apply_inverse_us",
    "exec.incremental_apply_dirty_us",
    "exec.incremental_node_recomputes",
    "serve.submit_us",
    "serve.wait_us",
    "serve.queue_overhead_us",
    "serve.batch_width_mean",
    "serve.batches",
    "serve.latency_p99_ms",
    "serve.apply_delta_us",
    "serve.requote_us",
    "serve.template_clone_us",
    "protocols.new_us",
    "protocols.execute_sim_us",
    "protocols.execute_channel_us",
    "protocols.execute_tcp_us",
    "protocols.model_rounds_per_run",
    "protocols.model_bits_per_run",
    "protocols.transmissions_per_run",
    "protocols.upper_slack",
    "protocols.wire_slack",
    "network.route_sim_1k_us",
    "network.route_sim_64k_us",
    "network.route_channel_1k_us",
    "network.route_channel_64k_us",
    "network.route_tcp_1k_us",
    "network.route_tcp_64k_us",
    "network.tcp_setup_us",
    "network.frames_per_run",
    "network.wire_bytes_per_run",
    "trace.overhead_share",
    "trace.driver_self_share",
    "trace.spans_per_op",
    "trace.machine_index",
];

pub type Values = crate::report::Readings;

/// Runs every probe. `calls` is the number of timed calls behind each
/// median (200 in a full run); probes whose one call is a whole pass or
/// opens sockets use a stated fraction of it.
pub fn run(seed: u64, calls: usize) -> Values {
    let mut out = Values::new();
    let calls = calls.max(4);
    relation(seed, calls, &mut out);
    hypergraph(calls, &mut out);
    plan(seed, calls, &mut out);
    exec(seed, calls, &mut out);
    serve(seed, calls, &mut out);
    protocols(seed, calls, &mut out);
    network(calls, &mut out);
    out
}

/// The median (and range) of `calls` timed calls of `f`, in microseconds.
fn timed<R>(calls: usize, f: impl FnMut() -> R) -> Reading {
    Reading::over(&time_calls(calls, f), calls as u64)
}

/// A count, or a value derived from other readings: no spread of its own.
fn exact(value: f64) -> Reading {
    Reading::single(value, 1)
}

fn relation(seed: u64, calls: usize, out: &mut Values) {
    let suite = gen::suite(seed);
    let [r, s, t] = [0, 1, 2].map(|i| &suite.counting[0].factors[i]);
    out.insert("relation.join_us", timed(calls, || r.join(s)));
    out.insert("relation.semijoin_us", timed(calls, || r.semijoin(s)));
    let joined = r.join(s);
    out.insert(
        "relation.aggregate_out_us",
        timed(calls, || joined.aggregate_out(Var(1), Aggregate::Sum)),
    );
    let order = [Var(0), Var(1), Var(2)];
    out.insert(
        "relation.generic_join_us",
        timed(calls, || generic_join(&[r, s, t], &order)),
    );

    // A 16-op delta on a 20k-tuple serve factor; the factor keeps its
    // size, so it is mutated in place call after call.
    let [template, _] = gen::serve_templates(seed);
    let mut factor = template.factors[0].clone();
    let mut live = LiveSet::of(&factor, gen::SERVE_DOMAIN);
    let mut rng = StdRng::seed_from_u64(gen::sub_seed(seed, 40));
    let schema = factor.schema().to_vec();
    let deltas: Vec<_> = (0..calls)
        .map(|_| gen::write_delta(&mut rng, &mut live, &schema, None))
        .collect();
    let mut next = deltas.iter();
    out.insert(
        "relation.apply_delta_us",
        timed(calls, || {
            factor.apply_delta(next.next().expect("one per call"))
        }),
    );
    out.insert("relation.stats_us", timed(calls, || factor.stats()));

    let shard = &gen::dist_instance(seed).factors[0];
    let frame = shard.encode_frame();
    out.insert(
        "relation.encode_frame_us",
        timed(calls, || shard.encode_frame()),
    );
    out.insert(
        "relation.decode_frame_us",
        timed(calls, || {
            Relation::<Count>::decode_frame(&frame).expect("own frame")
        }),
    );
    out.insert(
        "relation.frame_bytes_per_row",
        exact(frame.len() as f64 / shard.len() as f64),
    );
}

fn hypergraph(calls: usize, out: &mut Values) {
    let shapes = [cycle_query(3), cycle_query(4)];
    out.insert(
        "hypergraph.gyo_ghd_us",
        timed(calls, || shapes.each_ref().map(Ghd::gyo_ghd)),
    );
    let bags = shapes.each_ref().map(|h| h.vars().collect::<Vec<Var>>());
    out.insert(
        "hypergraph.fractional_cover_us",
        timed(calls, || {
            [0, 1].map(|i| fractional_edge_cover(&shapes[i], &bags[i]).expect("covered"))
        }),
    );
}

/// The site's topology with every link scaled to one tuple per round,
/// as `DistributedFaqRun::new(.., 1)` scales it.
fn scaled(site: &Site, q: &FaqQuery<Count>) -> Topology {
    site.topology
        .clone()
        .with_uniform_capacity(model_capacity_bits(q))
}

fn plan(seed: u64, calls: usize, out: &mut Values) {
    let cfg = PlannerConfig::default();
    let [star, _] = gen::serve_templates(seed);
    let suite = gen::suite(seed);
    let triangle = &suite.counting[0];
    out.insert(
        "plan.query_stats_us",
        timed(calls, || QueryStats::of(&star)),
    );
    let registry = CalibrationRegistry::new();
    out.insert(
        "plan.cost_quote_us",
        timed(calls, || {
            cost_quote_calibrated(&star, false, &registry).expect("quote")
        }),
    );
    let mut candidates = 0;
    out.insert(
        "plan.plan_query_us",
        timed(calls, || {
            let plans = [&star, triangle].map(|q| plan_query(q, false, &cfg).expect("plan"));
            candidates = plans.iter().map(|p| p.candidates.len()).sum();
        }),
    );

    let q = gen::dist_instance(seed);
    let sites = dist_sites();
    let topologies: Vec<Topology> = sites.iter().map(|s| scaled(s, &q)).collect();
    let mut placed_candidates = 0;
    out.insert(
        "plan.plan_query_placed_us",
        timed(calls, || {
            placed_candidates = 0;
            for (site, g) in sites.iter().zip(&topologies) {
                let holders = vec![site.players.clone(); q.k()];
                let ctx = PlacementContext::new(&q, g, holders, Player(0));
                let plan = plan_query_placed(&q, false, &cfg, Some(&ctx)).expect("plan");
                placed_candidates += plan.candidates.len();
            }
        }),
    );
    out.insert(
        "plan.candidates",
        exact((candidates + placed_candidates) as f64),
    );

    let errs = [
        learned_log2_err(&suite.counting[0]),
        learned_log2_err(&suite.counting[1]),
        learned_log2_err(&suite.counting[2]),
        learned_log2_err(&suite.star_minplus),
    ];
    out.insert(
        "plan.estimate_log2_err",
        exact(errs.iter().sum::<f64>() / 4.0),
    );
}

/// |log₂| of the row-estimate correction one cold solve teaches: the
/// executor's calibration registry then holds 2^mean(log₂ actual ÷
/// predicted rows) over that solve's multi-input fold points. The solve
/// is sequential, so the mean is exact and repeats.
fn learned_log2_err<S: Semiring>(q: &FaqQuery<S>) -> f64 {
    let ex = Executor::new(ExecutorConfig::sequential());
    ex.solve(q).expect("solve");
    let digest = QueryStats::of(q).digest();
    ex.calibration().correction(&digest).log2().abs()
}

/// One pass over the four suite instances with `solve_*` per semiring.
fn suite_pass_us(
    calls: usize,
    suite: &gen::Suite,
    mut count: impl FnMut(&FaqQuery<Count>) -> Relation<Count>,
    mut minplus: impl FnMut(&FaqQuery<MinPlus>) -> Relation<MinPlus>,
) -> Reading {
    // A pass is four solves: a quarter of the passes makes `calls` calls.
    timed(calls.div_ceil(4).max(3), || {
        for q in &suite.counting {
            std::hint::black_box(count(q));
        }
        minplus(&suite.star_minplus)
    })
}

fn exec(seed: u64, calls: usize, out: &mut Values) {
    let suite = gen::suite(seed);
    out.insert(
        "core.solve_faq_us",
        suite_pass_us(
            calls,
            &suite,
            |q| solve_faq(q).expect("solve"),
            |q| solve_faq(q).expect("solve"),
        ),
    );
    let warm_pass = |threads: usize| {
        let ex = Executor::new(ExecutorConfig::with_threads(threads));
        let pass = |calls| {
            suite_pass_us(
                calls,
                &suite,
                |q| ex.solve(q).expect("solve"),
                |q| ex.solve(q).expect("solve"),
            )
        };
        pass(8); // fills the plan cache
        pass(calls)
    };
    let (t1, t2) = (warm_pass(1), warm_pass(2));
    out.insert("exec.solve_warm_us", t2);
    out.insert("exec.parallel_speedup_t2", exact(t1.value / t2.value));
    let cold = || Executor::new(ExecutorConfig::with_threads(2));
    out.insert(
        "exec.solve_cold_us",
        suite_pass_us(
            calls,
            &suite,
            |q| cold().solve(q).expect("solve"),
            |q| cold().solve(q).expect("solve"),
        ),
    );

    let [template, _] = gen::serve_templates(seed);
    let zipf = Zipf::new(gen::SERVE_DOMAIN, 1.1);
    let mut rng = StdRng::seed_from_u64(gen::sub_seed(seed, 41));
    let ex = Executor::new(ExecutorConfig::sequential());
    for (name, width) in [
        ("exec.solve_batch_w1_us", 1),
        ("exec.solve_batch_w16_us", MAX_BATCH),
    ] {
        let us = timed(calls, || {
            let bindings: Vec<u32> = (0..width).map(|_| zipf.sample(&mut rng)).collect();
            ex.solve_batch(&template, Var(0), &bindings).expect("batch")
        });
        out.insert(name, us);
    }

    // Incremental sessions: `Count` cancels deltas by additive inverse,
    // `MinPlus` cannot and recomputes the dirty path.
    let mut live = LiveSet::of(&template.factors[0], gen::SERVE_DOMAIN);
    let schema = template.factors[0].schema().to_vec();
    let mut session = IncrementalFaq::new(template).expect("session");
    out.insert(
        "exec.incremental_apply_inverse_us",
        timed(calls, || {
            let delta = gen::write_delta(&mut rng, &mut live, &schema, None);
            session.apply(EdgeId(0), &delta).expect("apply")
        }),
    );
    let schema = suite.star_minplus.factors[0].schema().to_vec();
    let domain = suite.star_minplus.domain;
    let mut dirty = IncrementalFaq::new(suite.star_minplus).expect("session");
    out.insert(
        "exec.incremental_apply_dirty_us",
        timed(calls, || {
            let mut delta = RelationDelta::new(schema.iter().copied());
            for i in 0..16 {
                let tuple = vec![rng.random_range(0..domain), rng.random_range(0..domain)];
                match i % 4 {
                    0 => delta.delete(tuple),
                    1 => delta.set(tuple, MinPlus(f64::from(rng.random_range(0..100u32)))),
                    _ => delta.insert(tuple, MinPlus(f64::from(rng.random_range(0..100u32)))),
                }
            }
            dirty.apply(EdgeId(0), &delta).expect("apply")
        }),
    );
    out.insert(
        "exec.incremental_node_recomputes",
        exact((session.counters().node_recomputes + dirty.counters().node_recomputes) as f64),
    );
}

fn serve(seed: u64, calls: usize, out: &mut Values) {
    let [template, _] = gen::serve_templates(seed);
    out.insert("serve.template_clone_us", timed(calls, || template.clone()));
    let server = serve_server();
    let shape = server.register(template.clone(), Var(0)).expect("register");
    let zipf = Zipf::new(gen::SERVE_DOMAIN, 1.1);
    let mut rng = StdRng::seed_from_u64(gen::sub_seed(seed, 42));
    let direct = Executor::new(ExecutorConfig::sequential());

    // Steady windows on one shape, each raced against a direct batched
    // solve of the same bindings.
    let (mut submit, mut wait, mut window, mut solo, mut latency) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..calls + 4 {
        let bindings: Vec<u32> = (0..MAX_BATCH).map(|_| zipf.sample(&mut rng)).collect();
        let start = Instant::now();
        let tickets: Vec<_> = bindings
            .iter()
            .map(|&b| {
                let t = Instant::now();
                let ticket = server.submit(shape, b).expect("submit");
                (t, t.elapsed(), ticket)
            })
            .collect();
        let submitted = Instant::now();
        let mut ops = Vec::new();
        for (t, took, ticket) in tickets {
            ticket.wait().expect("answer");
            ops.push((took.as_secs_f64() * 1e6, t.elapsed().as_secs_f64() * 1e3));
        }
        let (waited, total) = (submitted.elapsed(), start.elapsed());
        let t = Instant::now();
        std::hint::black_box(
            direct
                .solve_batch(&template, Var(0), &bindings)
                .expect("batch"),
        );
        // The first windows warm both plan caches.
        if i >= 4 {
            solo.push(t.elapsed().as_secs_f64() * 1e6);
            wait.push(waited.as_secs_f64() * 1e6);
            window.push(total.as_secs_f64() * 1e6);
            for (s, l) in ops {
                submit.push(s);
                latency.push(l);
            }
        }
    }
    let stats = server.stats();
    let over = |v: &[f64]| Reading::over(v, v.len() as u64);
    out.insert("serve.submit_us", over(&submit));
    out.insert("serve.wait_us", over(&wait));
    out.insert(
        "serve.queue_overhead_us",
        exact(median(&window) - median(&solo)),
    );
    out.insert(
        "serve.batch_width_mean",
        exact(stats.batched as f64 / stats.batches as f64),
    );
    out.insert("serve.batches", exact(stats.batches as f64));
    out.insert("exec.cache_hit_rate", exact(stats.cache.hit_rate()));
    out.insert("exec.cache_entries", exact(stats.cache.entries as f64));
    latency.sort_by(f64::total_cmp);
    // p99 needs 1 000 samples; a smoke run reports the tail it can.
    let tail = highest_supported_percentile(latency.len()).map_or(50.0, |p| p.min(99.0));
    out.insert(
        "serve.latency_p99_ms",
        Reading::single(percentile(&latency, tail), latency.len() as u64),
    );

    // Writes, and the first submit after each: it re-prices the shape.
    let mut live = LiveSet::of(&template.factors[0], gen::SERVE_DOMAIN);
    let schema = template.factors[0].schema().to_vec();
    let (mut apply, mut requote) = (Vec::new(), Vec::new());
    for _ in 0..calls {
        let delta = gen::write_delta(&mut rng, &mut live, &schema, None);
        let t = Instant::now();
        server.apply_delta(shape, EdgeId(0), &delta).expect("delta");
        apply.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let ticket = server.submit(shape, zipf.sample(&mut rng)).expect("submit");
        requote.push(t.elapsed().as_secs_f64() * 1e6);
        ticket.wait().expect("answer");
    }
    out.insert("serve.apply_delta_us", over(&apply));
    out.insert(
        "serve.requote_us",
        exact(median(&requote) - median(&submit)),
    );
}

/// Totals over one operation's three runs.
#[derive(Default, PartialEq, Debug)]
struct OpCounts {
    stats: Vec<RunStats>,
    upper_bits: u64,
    frames: u64,
    wire_bytes: u64,
    wire_bits: u64,
    upper_wire_bits: u64,
}

fn protocols(seed: u64, calls: usize, out: &mut Values) {
    let q = gen::dist_instance(seed);
    let want = solve_faq(&q).expect("oracle");
    let sites = dist_sites();
    let new_run = |site: &Site| {
        let placement = InputPlacement::hash_split(q.k(), &site.players, Player(0));
        DistributedFaqRun::new(&q, &site.topology, placement, 1).expect("run")
    };
    // One operation is three runs: a third of the operations makes `calls`.
    let ops = calls.div_ceil(3).max(2);
    out.insert(
        "protocols.new_us",
        timed(ops, || sites.iter().map(new_run).count()),
    );
    let runs: Vec<_> = sites.iter().map(new_run).collect();

    // One operation on transports made by `open`; answers are checked.
    let op = |open: &dyn Fn(&Topology) -> Box<dyn Transport + '_>| {
        let mut counts = OpCounts::default();
        for run in &runs {
            let mut transport = open(run.topology());
            let o = run.execute_on(transport.as_mut()).expect("run");
            assert_eq!(o.result, want, "distributed answer");
            let report = run.conformance(o.stats);
            counts.stats.push(o.stats);
            counts.upper_bits += report.upper_bits;
            counts.frames += o.wire.frames;
            counts.wire_bytes += o.wire.payload_bytes;
            counts.wire_bits += o.wire.wire_bits();
            counts.upper_wire_bits += run.wire_conformance(&report, o.wire).upper_wire_bits;
        }
        counts
    };
    out.insert("protocols.execute_sim_us", timed(ops, || op(&open_sim)));
    out.insert(
        "protocols.execute_channel_us",
        timed(ops, || op(&open_channel)),
    );
    // Every TCP run binds a listener per player; a tenth of the calls
    // keeps the probe clear of the ephemeral port range.
    out.insert(
        "protocols.execute_tcp_us",
        timed(calls.div_ceil(10).max(2), || op(&open_tcp)),
    );

    let counts = op(&open_channel);
    assert_eq!(
        op(&open_sim).stats,
        counts.stats,
        "model cost is transport-independent"
    );
    assert_eq!(op(&open_tcp), counts, "wire cost is transport-independent");
    let sum = |f: fn(&RunStats) -> u64| counts.stats.iter().map(f).sum::<u64>() as f64;
    out.insert("protocols.model_rounds_per_run", exact(sum(|s| s.rounds)));
    out.insert("protocols.model_bits_per_run", exact(sum(|s| s.total_bits)));
    out.insert(
        "protocols.transmissions_per_run",
        exact(sum(|s| s.transmissions)),
    );
    out.insert(
        "protocols.upper_slack",
        exact(counts.upper_bits as f64 / sum(|s| s.total_bits)),
    );
    out.insert(
        "protocols.wire_slack",
        exact(counts.upper_wire_bits as f64 / counts.wire_bits as f64),
    );
    out.insert("network.frames_per_run", exact(counts.frames as f64));
    out.insert(
        "network.wire_bytes_per_run",
        exact(counts.wire_bytes as f64),
    );
}

fn open_sim(g: &Topology) -> Box<dyn Transport + '_> {
    Box::new(SimTransport::new(g))
}

fn open_channel(g: &Topology) -> Box<dyn Transport + '_> {
    Box::new(ChannelTransport::new(g))
}

fn open_tcp(g: &Topology) -> Box<dyn Transport + '_> {
    Box::new(TcpTransport::new(g).expect("loopback sockets"))
}

fn network(calls: usize, out: &mut Values) {
    // Ample capacity: the probe times the transport, not the scheduler
    // spreading a frame over many rounds.
    let line = Topology::line(4).with_uniform_capacity(1 << 24);
    let route = |transport: &mut dyn Transport, bytes: usize| {
        let frame = vec![0xA5u8; bytes];
        let mut at = 0;
        timed(calls, || {
            let d = transport
                .route(Player(0), Player(3), &frame, 8 * bytes as u64, at)
                .expect("route");
            at = d.arrived_at;
        })
    };
    let mut tcp = open_tcp(&line);
    for (bytes, [sim_key, channel_key, tcp_key]) in [
        (
            1 << 10,
            [
                "network.route_sim_1k_us",
                "network.route_channel_1k_us",
                "network.route_tcp_1k_us",
            ],
        ),
        (
            1 << 16,
            [
                "network.route_sim_64k_us",
                "network.route_channel_64k_us",
                "network.route_tcp_64k_us",
            ],
        ),
    ] {
        out.insert(sim_key, route(&mut SimTransport::new(&line), bytes));
        out.insert(channel_key, route(&mut ChannelTransport::new(&line), bytes));
        out.insert(tcp_key, route(tcp.as_mut(), bytes));
    }
    let pair = Topology::line(2).with_uniform_capacity(1 << 24);
    let frame = vec![0xA5u8; 1 << 10];
    out.insert(
        "network.tcp_setup_us",
        timed(calls, || {
            let mut t = TcpTransport::new(&pair).expect("loopback");
            t.route(Player(0), Player(1), &frame, 8 << 10, 0)
                .expect("route")
                .arrived_at
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_fill_every_untraced_per_layer_metric() {
        let values = run(1, 4);
        let expected: Vec<&str> = PER_LAYER
            .iter()
            .copied()
            .filter(|n| !n.starts_with("trace.") && !n.starts_with("e2e."))
            .collect();
        assert_eq!(values.keys().copied().collect::<Vec<_>>(), {
            let mut e = expected.clone();
            e.sort_unstable();
            e
        });
        assert!(values.values().all(|r| r.value.is_finite()));
    }

    #[test]
    fn exact_counts_repeat() {
        let (mut a, mut b) = (Values::new(), Values::new());
        protocols(3, 4, &mut a);
        protocols(3, 4, &mut b);
        for name in crate::report::EXACT_COUNTS {
            if let Some(v) = a.get(name) {
                assert_eq!(Some(v), b.get(name), "{name}");
            }
        }
    }
}
