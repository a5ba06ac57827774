//! Sensor-network aggregation (Appendix A.4 of the paper).
//!
//! Sensors sit on a binary-tree topology; each holds a reading relation
//! `(device, reading)` keyed by a shared device id. The query counts,
//! per the counting semiring, the joint configurations compatible with
//! every sensor — a star FAQ whose distributed evaluation is the star
//! protocol pipelined over the tree.
//!
//! Run with `cargo run --release --example sensor_network`.

use faqs::prelude::*;
use rand::Rng;

fn main() {
    let sensors = 7usize; // one relation per non-root tree node
    let readings = 64usize;
    let domain = 32u32;

    // Star query: variable 0 is the device id, variable i the i-th
    // sensor's reading.
    let h = star_query(sensors);
    let cfg = faqs::relation::RandomInstanceConfig {
        tuples_per_factor: readings,
        domain,
        seed: 99,
    };
    let q: FaqQuery<Count> =
        faqs::relation::random_instance(&h, &cfg, vec![], |r| Count(r.random_range(1..4)));

    // Topology: a binary tree of 8 nodes; the root (player 0) is the
    // base station and learns the answer.
    let g = Topology::binary_tree(sensors + 1);
    let players: Vec<u32> = (1..=sensors as u32).collect();
    let assignment =
        InputPlacement::round_robin(&q, &players).with_output(faqs::network::Player(0));

    let out = run_faq_protocol(&q, &g, &assignment, 1).expect("tree is connected");
    let expected = solve_faq(&q).expect("star query");
    assert_eq!(out.answer.total(), expected.total());

    println!("sensor network: {} sensors on {}", sensors, g.name());
    println!(
        "count-aggregate at the base station: {} (weighted joint configurations)",
        out.answer.total().get()
    );
    let report = &out.report;
    println!(
        "rounds = {}, bits = {}, paper upper bound = {} rounds ({} bits, checked live)",
        report.stats.rounds, report.stats.total_bits, report.upper_rounds, report.upper_bits
    );

    // Contrast with the trivial protocol (ship all readings up).
    let trivial = faqs::protocols::run_trivial(
        &q,
        &g.clone()
            .with_uniform_capacity(faqs::protocols::model_capacity_bits(&q)),
        &assignment,
    )
    .expect("tree is connected")
    .report;
    let speedup = trivial.stats.rounds as f64 / report.stats.rounds.max(1) as f64;
    println!(
        "trivial protocol for comparison: {} rounds ({}x)",
        trivial.stats.rounds,
        (speedup * 10.0).round() / 10.0
    );
}
