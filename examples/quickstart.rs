//! Quickstart: the paper's Figure 1 worked end to end.
//!
//! Builds the star query `H1` (`R(A,B), S(A,C), T(A,D), U(A,E)`), runs
//! its BCQ on the line `G1` and the clique `G2`, and prints measured
//! rounds against the paper's bounds (Examples 2.2 and 2.3: `N + O(k)`
//! on the line, `≈ N/2` on the clique). Every run returns its report,
//! already checked live against the bound it prints.
//!
//! Run with `cargo run --release --example quickstart`.

use faqs::prelude::*;

fn main() {
    let n: u32 = 256;
    let h = faqs::hypergraph::example_h1();
    println!("query: {}", h.to_datalog());

    // A satisfiable instance: every relation pairs each a ∈ [N] with a
    // leaf value.
    let mut builder = BcqBuilder::new(&h, n as usize);
    for e in 0..4 {
        builder.relation_from_pairs(e, (0..n).map(|a| (a, a % 16)));
    }
    let query = builder.finish();

    // Centralized ground truth.
    let expected = solve_bcq(&query);
    println!("centralized answer: {expected}");

    for g in [Topology::line(4), Topology::clique(4)] {
        let assignment = Assignment::round_robin(&query, &g, &[0, 1, 2, 3]);
        let out = run_bcq_protocol(&query, &g, &assignment, 1).expect("connected topology");
        assert_eq!(out.answer, expected);
        let report = &out.report;
        let lb = bcq_lower_bound(&query.hypergraph, &g, &assignment.players(), n as u64);
        println!(
            "{:<10} measured {:>5} rounds | paper upper bound {:>5} | lower bound Ω({}) | conforms {}",
            g.name(),
            report.stats.rounds,
            report.upper_rounds,
            lb.rounds,
            report.conforms(),
        );
    }
    println!("(the clique halves the rounds by packing two edge-disjoint Steiner paths — Figure 2's W1/W2)");
}
