//! Topology-dependence of the bounds — the paper's core message.
//!
//! Fixes one query (a depth-2 tree query) and one instance size, then
//! sweeps network topologies, printing measured protocol rounds next to
//! the paper's upper- and lower-bound formulas. The ordering across
//! topologies (line ≫ grid ≫ clique, barbell throttled by its bridge)
//! is exactly the `MinCut`/`ST`-dependence of Theorem 4.1.
//!
//! Run with `cargo run --release --example topology_bounds`.

use faqs::lowerbounds::bcq_lower_bound;
use faqs::prelude::*;

fn main() {
    let n = 256usize;
    let h = faqs::hypergraph::tree_query(2, 2); // 6 relations
    let cfg = faqs::relation::RandomInstanceConfig {
        tuples_per_factor: n,
        domain: 512,
        seed: 5,
    };
    let q = faqs::relation::random_boolean_instance(&h, &cfg, true);
    let expected = solve_bcq(&q);

    println!("query: {} (N = {n})", h.to_datalog());
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>8} {:>6} {:>6}",
        "topology", "rounds", "UB", "LB", "mincut", "y", "n2"
    );
    for g in [
        Topology::line(6),
        Topology::ring(6),
        Topology::grid(2, 3),
        Topology::clique(6),
        Topology::barbell(3, 2),
        Topology::random_connected(6, 0.4, 11),
    ] {
        let players: Vec<u32> = (0..6).collect();
        let assignment = Assignment::round_robin(&q, &g, &players);
        let out = run_bcq_protocol(&q, &g, &assignment, 1).expect("connected");
        assert_eq!(out.answer, expected, "{}", g.name());
        // The run's report carries the Theorem 4.1 quantities it was
        // checked against.
        let report = &out.report;
        let terms = report.bound.as_ref().map_or("-".into(), |b| {
            format!("{:>8} {:>6} {:>6}", b.min_cut, b.y, b.n2)
        });
        let lb = bcq_lower_bound(&q.hypergraph, &g, &assignment.players(), n as u64);
        println!(
            "{:<12} {:>8} {:>10} {:>10} {terms}",
            g.name(),
            report.stats.rounds,
            report.upper_rounds,
            lb.rounds,
        );
    }
}
