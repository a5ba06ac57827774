//! Differential property suite for the topology-general distributed
//! runtime: [`DistributedFaqRun`] against the centralized engine and the
//! brute-force oracle over random connected topologies (path / cycle /
//! tree / Erdős–Rényi via seeded `StdRng`), random shard placements,
//! both plans (the statistics-driven planner's, or `structural_plan`
//! handed over with `with_plan`), both transports (in memory / loopback
//! TCP), and three semirings with different zero/duplicate behaviour.
//!
//! Invariants checked per case:
//!
//! * `DistributedFaqRun` ≡ `solve_faq` ≡ brute force, as full result
//!   *relations* (not just totals);
//! * the measured bits stay inside the paper's upper envelope
//!   ([`ConformanceReport::within_upper`]) for every placement, including
//!   the co-located ones where the envelope is zero.

use faqs_core::{solve_faq, solve_faq_brute_force};
use faqs_hypergraph::{example_h2, path_query, star_query, Hypergraph, Var};
use faqs_network::{SimTransport, TcpTransport, Topology, Transport};
use faqs_plan::structural_plan;
use faqs_protocols::{DistributedFaqRun, InputPlacement};
use faqs_relation::{
    random_boolean_instance, random_instance, FaqQuery, RandomInstanceConfig, Relation,
};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};
use proptest::prelude::*;

/// The four topology families of the suite, deterministic in `seed`.
fn topology(family: usize, n: usize, seed: u64) -> Topology {
    match family % 4 {
        0 => Topology::line(n.max(2)),
        1 => Topology::ring(n.max(3)),
        2 => Topology::binary_tree(n.max(2)),
        _ => Topology::random_connected(n.max(2), 0.3, seed),
    }
}

/// Query shapes with free-variable sets the engine can place.
fn shape(which: usize, free_sel: usize) -> (Hypergraph, Vec<Var>) {
    match which % 3 {
        0 => (
            star_query(3),
            if free_sel == 0 { vec![] } else { vec![Var(0)] },
        ),
        1 => (
            path_query(3),
            if free_sel == 0 { vec![] } else { vec![Var(0)] },
        ),
        _ => (
            example_h2(),
            if free_sel == 0 {
                vec![]
            } else {
                vec![Var(0), Var(1), Var(2)]
            },
        ),
    }
}

fn cfg(seed: u64) -> RandomInstanceConfig {
    RandomInstanceConfig {
        tuples_per_factor: 7,
        domain: 4,
        seed,
    }
}

/// Runs one instance distributed — planner and transport drawn from
/// `seed` — and asserts the full relation agrees with the engine and
/// the oracle, and the envelope holds.
fn check<S: Semiring>(q: &FaqQuery<S>, family: usize, n_players: usize, seed: u64, label: &str) {
    let g = topology(family, n_players, seed);
    let placement = InputPlacement::random(q.k(), &g, seed ^ 0xD157);
    let mut run = DistributedFaqRun::new(q, &g, placement, 1)
        .unwrap_or_else(|e| panic!("{label}: runtime rejected: {e}"));
    let planner = match seed % 2 {
        0 => "stats",
        _ => {
            run = run.with_plan(structural_plan(q).expect("structural plan"));
            "structural"
        }
    };
    let mut transport: Box<dyn Transport + '_> = match seed % 3 {
        0 | 1 => Box::new(SimTransport::new(run.topology())),
        _ => Box::new(TcpTransport::new(run.topology()).expect("loopback sockets")),
    };
    let label = format!("{label}/{planner}/{:?}", transport.kind());
    let out = run
        .execute_on(transport.as_mut())
        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));

    let engine = solve_faq(q).unwrap_or_else(|e| panic!("{label}: engine rejected: {e}"));
    let oracle: Relation<S> = solve_faq_brute_force(q);
    assert_eq!(engine, oracle, "{label}: engine vs brute force");
    assert_eq!(out.result, engine, "{label}: distributed vs engine");

    let report = run.conformance(out.stats);
    assert!(
        report.within_upper(),
        "{label}: {} bits exceed the {}-bit envelope on {}",
        out.stats.total_bits,
        report.upper_bits,
        g.name(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn count_runs_match_engine_and_oracle(
        family in 0usize..4,
        n_players in 4usize..9,
        which in 0usize..3,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (h, free) = shape(which, free_sel);
        let q: FaqQuery<Count> = random_instance(&h, &cfg(seed), free, |r| {
            use rand::Rng;
            Count(r.random_range(1..5))
        });
        check(&q, family, n_players, seed, "count");
    }

    #[test]
    fn boolean_runs_match_engine_and_oracle(
        family in 0usize..4,
        n_players in 4usize..9,
        which in 0usize..3,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (h, free) = shape(which, free_sel);
        let mut q: FaqQuery<Boolean> = random_boolean_instance(&h, &cfg(seed), seed % 2 == 0);
        q.free_vars = free;
        check(&q, family, n_players, seed, "boolean");
    }

    #[test]
    fn min_plus_runs_match_engine_and_oracle(
        family in 0usize..4,
        n_players in 4usize..9,
        which in 0usize..3,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        // Tropical semiring: small integer costs sum exactly in any
        // fold order (the structural plan's included), so exact
        // equality is the right assertion.
        let (h, free) = shape(which, free_sel);
        let q: FaqQuery<MinPlus> = random_instance(&h, &cfg(seed), free, |r| {
            use rand::Rng;
            MinPlus::new(r.random_range(0..32) as f64)
        });
        check(&q, family, n_players, seed, "minplus");
    }
}
