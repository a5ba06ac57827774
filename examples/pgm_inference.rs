//! PGM inference — the paper's second headline application.
//!
//! Builds a hidden-Markov-style chain PGM over the probability semiring,
//! computes a factor marginal (`F = e`, exactly the paper's PGM
//! instantiation of FAQ-SS) both centrally and distributed over a line
//! of sensors, and prints the normalised marginal.
//!
//! Run with `cargo run --release --example pgm_inference`.

use faqs::engine::pgm;
use faqs::prelude::*;
use faqs_hypergraph::EdgeId;
use rand::Rng;

fn main() {
    let chain_len = 6;
    let domain = 4u32;
    let h = path_query(chain_len);
    println!("PGM: chain with {chain_len} pairwise factors, domain {domain}");

    // Random positive potentials on each factor.
    let cfg = faqs::relation::RandomInstanceConfig {
        tuples_per_factor: (domain * domain) as usize,
        domain,
        seed: 2024,
    };
    let q: FaqQuery<Prob> =
        faqs::relation::random_instance(&h, &cfg, vec![], |r| Prob(r.random_range(0.05..1.0)));

    // Partition function and a factor marginal, centrally.
    let z = pgm::partition_function(&q).expect("chain is acyclic");
    println!("partition function Z = {:.6}", z.get());

    let edge = EdgeId(2);
    let marginal = pgm::factor_marginal(&q, edge).expect("F = e is inside the core");
    let normalized = pgm::normalize(&marginal).expect("Z > 0");
    println!("factor marginal on e2 (normalised):");
    for (t, p) in normalized.iter() {
        println!("  x2={} x3={}  p = {:.4}", t[0], t[1], p.get());
    }

    // The same marginal computed by the distributed protocol on a line
    // of players, one factor per sensor.
    let mut qf = q.clone();
    qf.free_vars = h.edge(edge).to_vec();
    let g = Topology::line(chain_len);
    let players: Vec<u32> = (0..chain_len as u32).collect();
    let assignment = Assignment::round_robin(&qf, &g, &players);
    let out = run_faq_protocol(&qf, &g, &assignment, 1).expect("line is connected");
    assert!(
        out.answer.approx_eq(&marginal),
        "distributed marginal must match the engine"
    );
    println!(
        "distributed over {}: {} rounds, {} bits — identical marginal ✓",
        g.name(),
        out.report.stats.rounds,
        out.report.stats.total_bits
    );
}
