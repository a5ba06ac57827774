//! End-to-end integration tests spanning every crate: distributed
//! protocols vs. the centralized engine vs. the brute-force oracle, on
//! the paper's worked examples and on adversarial instances produced by
//! the lower-bound reductions.

use faqs::engine::{solve_faq, solve_faq_brute_force};
use faqs::hypergraph::{
    clique_query, cycle_query, example_h0, example_h1, example_h2, example_h3, grid_query,
    path_query, star_query, tree_query,
};
use faqs::lowerbounds::{
    bcq_lower_bound, embed_core, embed_forest, forest_capacity, hard_assignment, mcm_lower_bound,
    Tribes,
};
use faqs::mcm::{merge_protocol, sequential_protocol, trivial_protocol, McmProblem};
use faqs::network::Player;
use faqs::prelude::*;
use faqs::protocols::{run_trivial, BoundReport};
use faqs::relation::{random_boolean_instance, random_instance, RandomInstanceConfig};
use rand::Rng;

fn all_player_ids(g: &Topology) -> Vec<u32> {
    (0..g.num_players() as u32).collect()
}

#[test]
fn protocol_engine_and_oracle_agree_everywhere() {
    let shapes = [
        ("star", star_query(4)),
        ("path", path_query(4)),
        ("cycle", cycle_query(4)),
        ("tree", tree_query(2, 2)),
        ("h0", example_h0()),
        ("h1", example_h1()),
        ("h2", example_h2()),
        ("h3", example_h3()),
        ("clique", clique_query(3)),
        ("grid", grid_query(2, 3)),
    ];
    let topologies = [
        Topology::line(5),
        Topology::clique(5),
        Topology::ring(5),
        Topology::grid(2, 3),
        Topology::binary_tree(5),
    ];
    for (name, h) in shapes {
        for seed in 0..3u64 {
            let cfg = RandomInstanceConfig {
                tuples_per_factor: 5,
                domain: 3,
                seed: seed * 131 + name.len() as u64,
            };
            let q = random_boolean_instance(&h, &cfg, seed % 2 == 0);
            let oracle = !solve_faq_brute_force(&q).total().is_zero();
            assert_eq!(
                solve_bcq(&q),
                oracle,
                "{name} engine vs oracle, seed {seed}"
            );
            for g in &topologies {
                let a = Assignment::round_robin(&q, g, &all_player_ids(g));
                let out = run_bcq_protocol(&q, g, &a, 1)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", g.name()));
                assert_eq!(out.answer, oracle, "{name} on {} seed {seed}", g.name());
            }
        }
    }
}

#[test]
fn counting_and_probability_semirings_distribute_correctly() {
    for seed in 0..3u64 {
        let h = example_h2();
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 6,
            domain: 3,
            seed,
        };
        // Counting.
        let qc: FaqQuery<Count> =
            random_instance(&h, &cfg, vec![], |r| Count(r.random_range(1..5)));
        let g = Topology::grid(2, 2);
        let a = Assignment::round_robin(&qc, &g, &all_player_ids(&g));
        let out = run_faq_protocol(&qc, &g, &a, 1).unwrap();
        assert_eq!(out.answer.total(), solve_faq_brute_force(&qc).total());

        // Probability with a free edge (factor marginal).
        let free = h.edge(faqs::hypergraph::EdgeId(0)).to_vec();
        let qp: FaqQuery<Prob> =
            random_instance(&h, &cfg, free, |r| Prob(r.random_range(0.1..1.0)));
        let a2 = Assignment::round_robin(&qp, &g, &all_player_ids(&g));
        let out2 = run_faq_protocol(&qp, &g, &a2, 1).unwrap();
        assert!(out2.answer.approx_eq(&solve_faq_brute_force(&qp)));
    }
}

#[test]
fn example_2_1_round_complexity_shape() {
    // q0() :- R(A),S(A),T(A),U(A) on the line: N + O(1) rounds, ~3x
    // cheaper than the trivial protocol's 3N + O(1) (Example 2.1).
    let n = 128u32;
    let h = example_h0();
    let mut b = BcqBuilder::new(&h, 2 * n as usize);
    for e in 0..4 {
        b.relation_from_values(e, (0..n).map(move |x| (x * (e as u32 + 1)) % (2 * n)));
    }
    let q = b.finish();
    let g = Topology::line(4);
    let a = Assignment::round_robin(&q, &g, &[0, 1, 2, 3]).with_output(Player(3));
    let smart = run_bcq_protocol(&q, &g, &a, 1).unwrap();
    let trivial = run_trivial(
        &q,
        &g.clone()
            .with_uniform_capacity(faqs::protocols::model_capacity_bits(&q)),
        &a,
    )
    .unwrap();
    assert_eq!(smart.answer, !trivial.answer.total().is_zero());
    assert!(
        smart.report.stats.rounds <= 2 * n as u64 + 16,
        "semijoin chain ≈ N: {}",
        smart.report.stats.rounds
    );
    assert!(
        trivial.report.stats.rounds >= 2 * smart.report.stats.rounds,
        "trivial {} ≫ smart {}",
        trivial.report.stats.rounds,
        smart.report.stats.rounds
    );
}

#[test]
fn example_2_3_clique_speedup_is_about_half() {
    let n = 256u32;
    let h = example_h1();
    let mut b = BcqBuilder::new(&h, n as usize);
    for e in 0..4 {
        b.relation_from_pairs(e, (0..n).map(|x| (x, 0)));
    }
    let q = b.finish();
    let run = |g: &Topology| {
        let a = Assignment::round_robin(&q, g, &[0, 1, 2, 3]).with_output(Player(1));
        run_bcq_protocol(&q, g, &a, 1).unwrap().report.stats.rounds
    };
    let line = run(&Topology::line(4));
    let clique = run(&Topology::clique(4));
    let ratio = line as f64 / clique as f64;
    assert!(
        (1.6..=3.0).contains(&ratio),
        "clique speedup ≈ 2 (two Steiner paths): line {line} / clique {clique} = {ratio:.2}"
    );
}

#[test]
fn hard_instances_respect_the_certified_lower_bound() {
    // Embed TRIBES into the star, place the relations across the min
    // cut (Lemma 4.4), and verify the measured rounds of our best
    // protocol sit above the certified Ω(m·N/MinCut) line (up to the
    // protocol's small constants).
    let n_universe = 128u32;
    let h = example_h1();
    let tribes = Tribes::random(forest_capacity(&h), n_universe, 0.5, true, 21);
    let e = embed_forest(&h, &tribes).expect("star hosts one pair");
    let g = Topology::line(4);
    let k: Vec<Player> = (0..4u32).map(Player).collect();
    let a = hard_assignment(&e, &g, &k);
    let out = run_bcq_protocol(&e.query, &g, &a, 1).unwrap();
    assert_eq!(out.answer, tribes.eval());

    let lb = bcq_lower_bound(&e.query.hypergraph, &g, &k, e.query.n_max() as u64);
    assert!(
        4 * out.report.stats.rounds >= lb.rounds,
        "measured {} must sit above the certified bound {} (mod constants)",
        out.report.stats.rounds,
        lb.rounds
    );
}

#[test]
fn hard_instances_move_omega_mn_bits_across_the_cut() {
    // Model 2.2's view: the two-party simulation across a min cut must
    // see Ω(m·N) bits on TRIBES-hard instances (Theorem 2.3). Measure
    // the actual cross-cut traffic of our protocol.
    use faqs::network::min_cut_partition;
    let h = tree_query(2, 2);
    let m = forest_capacity(&h) as u64;
    let n_universe = 128u32;
    let tribes = Tribes::random(m as usize, n_universe, 0.9, true, 77);
    let e = embed_forest(&h, &tribes).unwrap();
    let g = Topology::line(6);
    let k: Vec<Player> = (0..6u32).map(Player).collect();
    let a = hard_assignment(&e, &g, &k);
    let (_, side) = min_cut_partition(&g, &k);
    let out = run_bcq_protocol(&e.query, &g, &a, 1).unwrap();
    assert_eq!(out.answer, tribes.eval());
    let cut_bits = out.report.bits_across(&g, &side).unwrap();
    // Each of the m pairs forces ≈ N set elements across the cut; one
    // element costs ⌈log₂ D⌉ bits. Allow the protocol's constants.
    let log_d = 64 - (e.query.domain as u64 - 1).leading_zeros() as u64;
    assert!(
        cut_bits >= m * (n_universe as u64) * log_d / 4,
        "cut traffic {cut_bits} must be Ω(m·N·log D) = Ω({})",
        m * n_universe as u64 * log_d
    );
}

#[test]
fn cyclic_core_hard_instance_roundtrip() {
    let h = cycle_query(5);
    let tribes = Tribes::random(1, 64, 0.4, false, 23);
    let e = embed_core(&h, &tribes).expect("cycle hosts one pair");
    assert_eq!(solve_bcq(&e.query), tribes.eval());
    let g = Topology::barbell(3, 1);
    let k: Vec<Player> = (0..6u32).map(Player).collect();
    let a = hard_assignment(&e, &g, &k);
    let out = run_bcq_protocol(&e.query, &g, &a, 1).unwrap();
    assert_eq!(out.answer, tribes.eval());
}

#[test]
fn table1_row_bcq_upper_vs_lower_gap_is_small_for_constant_d() {
    // Table 1 row 3: BCQ on arbitrary G with (d, 2): gap Õ(d). For a
    // d = 1 forest the measured/lower ratio must be a small constant.
    let n = 256;
    let h = tree_query(2, 2);
    let cfg = RandomInstanceConfig {
        tuples_per_factor: n,
        domain: 512,
        seed: 31,
    };
    let q = random_boolean_instance(&h, &cfg, true);
    for g in [Topology::line(6), Topology::clique(6)] {
        let ids = all_player_ids(&g);
        let a = Assignment::round_robin(&q, &g, &ids);
        let out = run_bcq_protocol(&q, &g, &a, 1).unwrap();
        let lb = bcq_lower_bound(&q.hypergraph, &g, &a.players(), n as u64);
        let bounds = BoundReport::evaluate(&q, &g, &a.players()).expect("g connects K");
        assert!(
            out.report.stats.rounds >= lb.rounds / 8,
            "{}:{} vs {}",
            g.name(),
            out.report.stats.rounds,
            lb.rounds
        );
        assert!(
            out.report.stats.rounds <= 8 * bounds.upper_rounds + 64,
            "{}: measured {} vs UB {}",
            g.name(),
            out.report.stats.rounds,
            bounds.upper_rounds
        );
    }
}

#[test]
fn mcm_upper_meets_lower_bound_shape() {
    // Table 1 row 5 / Theorem 6.4: sequential is Θ(kN) and the lower
    // bound is Ω(kN); they differ by a small constant.
    for (n, k) in [(32usize, 4usize), (64, 8), (48, 16)] {
        let p = McmProblem::random(n, k, 1, 77);
        let out = sequential_protocol(&p);
        let lb = mcm_lower_bound(k as u64, n as u64, 1);
        assert_eq!(out.y, p.expected());
        assert!(out.rounds >= lb, "measured {} ≥ Ω(kN) = {lb}", out.rounds);
        assert!(out.rounds <= 3 * lb, "within 3x of the bound");
    }
}

#[test]
fn mcm_merge_crossover_matches_appendix_i1() {
    // k ≤ N: sequential wins. k ≫ N log k: merge wins.
    let small_k = McmProblem::random(48, 8, 1, 5);
    assert!(sequential_protocol(&small_k).rounds < merge_protocol(&small_k).rounds);
    let big_k = McmProblem::random(8, 256, 1, 5);
    assert!(merge_protocol(&big_k).rounds < sequential_protocol(&big_k).rounds);
    // Trivial loses everywhere interesting.
    assert!(trivial_protocol(&small_k).rounds > sequential_protocol(&small_k).rounds);
}

#[test]
fn min_cut_governs_hard_instance_cost() {
    // The same query + instance is cheap on a clique and expensive
    // across a bridge: the MinCut dependence of Theorem 4.1.
    let n = 192;
    let h = star_query(4);
    let cfg = RandomInstanceConfig {
        tuples_per_factor: n,
        domain: 256,
        seed: 41,
    };
    let q = random_boolean_instance(&h, &cfg, true);

    let clique = Topology::clique(6);
    let barbell = Topology::barbell(3, 1);
    let a_clique = Assignment::new(vec![Player(0), Player(1), Player(4), Player(5)], Player(5));
    let a_barbell = a_clique.clone();
    let fast = run_bcq_protocol(&q, &clique, &a_clique, 1).unwrap();
    let slow = run_bcq_protocol(&q, &barbell, &a_barbell, 1).unwrap();
    assert_eq!(fast.answer, slow.answer);
    assert!(
        slow.report.stats.rounds > fast.report.stats.rounds,
        "bridge bottleneck: {} vs {}",
        slow.report.stats.rounds,
        fast.report.stats.rounds
    );
}

#[test]
fn engine_solves_what_protocols_solve_identically_on_h3() {
    // H3 mixes a cyclic core with a removed forest: the protocol peels
    // the forest and ships the core; answers must match the engine on
    // both satisfiable and unsatisfiable instances.
    let h = example_h3();
    for seed in 0..6u64 {
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 6,
            domain: 3,
            seed,
        };
        let q = random_boolean_instance(&h, &cfg, seed % 2 == 0);
        let g = Topology::random_connected(7, 0.3, seed);
        let a = Assignment::round_robin(&q, &g, &all_player_ids(&g));
        let out = run_bcq_protocol(&q, &g, &a, 1).unwrap();
        assert_eq!(out.answer, solve_bcq(&q), "seed {seed}");
    }
}

#[test]
fn faq_with_max_aggregate_via_engine() {
    // `Max` on ℕ runs through the centralized engine and the
    // distributed path alike; what the carrier refuses (`Min`), the
    // distributed path rejects explicitly.
    let h = star_query(3);
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 8,
        domain: 4,
        seed: 51,
    };
    let q: FaqQuery<Count> = random_instance(&h, &cfg, vec![], |r| Count(r.random_range(1..9)))
        .with_aggregate(faqs::hypergraph::Var(1), Aggregate::Max)
        .with_aggregate(faqs::hypergraph::Var(3), Aggregate::Max);
    let fast = solve_faq(&q).unwrap().total();
    let slow = solve_faq_brute_force(&q).total();
    assert_eq!(fast, slow);

    let g = Topology::line(3);
    let a = Assignment::round_robin(&q, &g, &[0, 1, 2]);
    assert_eq!(
        run_faq_protocol(&q, &g, &a, 1).unwrap().answer.total(),
        slow
    );
    let min = q.with_aggregate(faqs::hypergraph::Var(1), Aggregate::Min);
    assert!(
        run_faq_protocol(&min, &g, &a, 1).is_err(),
        "clean rejection"
    );
}

#[test]
fn illegal_aggregates_are_refused_not_answered() {
    // One factor over {x0, x1}, domain 2, with f(1,1) = 0 left out of
    // the listing; F = {x0}, `Min` on x1. Equation (4) gives
    // min(7, f(1,1)) = 0 at x0 = 1, but `min`'s identity is not ℕ's 0,
    // so folding the listing answers another query: at the parent commit
    // `solve_faq_lattice` returned Ok([0]→3, [1]→7) here. Every door
    // refuses it now, with the carrier and the aggregate named.
    use faqs::engine::EngineError;
    let x = faqs::hypergraph::Var;
    let mut h = Hypergraph::new(2);
    h.add_edge([x(0), x(1)]);
    let listing = [
        (vec![0, 0], Count(5)),
        (vec![0, 1], Count(3)),
        (vec![1, 0], Count(7)),
    ];
    let factor = Relation::from_pairs(vec![x(0), x(1)], listing);
    let q = FaqQuery::new_ss(h, vec![factor], vec![x(0)], 2).with_aggregate(x(1), Aggregate::Min);

    let typed = solve_faq(&q).unwrap_err();
    assert!(matches!(typed, EngineError::RefusedAggregate(v, _) if v == x(1)));
    let executor = Executor::new(ExecutorConfig::sequential());
    let server = FaqServer::new(ServeConfig::default());
    let g = Topology::line(2);
    let placement = InputPlacement::hash_split(q.k(), &[Player(0), Player(1)], Player(0));
    let refusals = [
        typed.to_string(),
        executor.solve(&q).unwrap_err().to_string(),
        plan_query_with(&q, None, None).unwrap_err().to_string(),
        server.register(q.clone(), x(0)).unwrap_err().to_string(),
        DistributedFaqRun::new(&q, &g, placement, 1)
            .err()
            .expect("no run of an illegal query")
            .to_string(),
    ];
    for message in refusals {
        assert!(
            message.contains("Min") && message.contains("counting"),
            "{message}"
        );
    }

    // `Max` on the same listing is Equation (4)'s answer — absent
    // entries are `max`'s identity — and every carrier without an order
    // of its own refuses both.
    let max = q.with_aggregate(x(1), Aggregate::Max);
    assert_eq!(solve_faq(&max).unwrap(), solve_faq_brute_force(&max));
    let tropical = FaqQuery::new_ss(
        max.hypergraph.clone(),
        vec![Relation::from_pairs(
            vec![x(0), x(1)],
            [(vec![0, 1], faqs::semiring::MinPlus::new(2.0))],
        )],
        vec![x(0)],
        2,
    );
    for op in [Aggregate::Max, Aggregate::Min] {
        let e = solve_faq(&tropical.clone().with_aggregate(x(1), op)).unwrap_err();
        assert!(matches!(e, EngineError::RefusedAggregate(..)), "{e}");
    }
}

#[test]
fn trivial_protocol_always_agrees() {
    for seed in 0..4u64 {
        let h = clique_query(4);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 8,
            domain: 4,
            seed,
        };
        let q = random_boolean_instance(&h, &cfg, seed % 2 == 1);
        let g = Topology::ring(5).with_uniform_capacity(16);
        let a = Assignment::round_robin(&q, &g, &all_player_ids(&g));
        let smart = run_bcq_protocol(&q, &g, &a, 1).unwrap();
        let trivial = run_trivial(&q, &g, &a).unwrap();
        assert_eq!(
            smart.answer,
            !trivial.answer.total().is_zero(),
            "seed {seed}"
        );
    }
}

#[test]
fn solve_faq_matches_across_assignment_layouts() {
    // Worst-case vs concentrated vs round-robin all compute the same
    // function; only the round counts differ.
    let h = example_h2();
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 10,
        domain: 4,
        seed: 61,
    };
    let q = random_boolean_instance(&h, &cfg, true);
    let g = Topology::line(4);
    let expected = solve_bcq(&q);

    let layouts = [
        Assignment::round_robin(&q, &g, &[0, 1, 2, 3]),
        Assignment::concentrated(&q, Player(2)),
        Assignment::new(vec![Player(0), Player(0), Player(3), Player(3)], Player(3)),
    ];
    let mut rounds = Vec::new();
    for a in layouts {
        let out = run_bcq_protocol(&q, &g, &a, 1).unwrap();
        assert_eq!(out.answer, expected);
        rounds.push(out.report.stats.rounds);
    }
    assert_eq!(rounds[1], 0, "concentrated layout is free");
    assert!(rounds[0] > 0 && rounds[2] > 0);
}

#[test]
fn distributed_runtime_matches_every_other_strategy() {
    // The topology-general runtime against the specialised protocol,
    // the engine and the oracle, on the same instance and topology —
    // the full strategy lattice through the facade.
    let h = star_query(4);
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 12,
        domain: 8,
        seed: 81,
    };
    let q = random_boolean_instance(&h, &cfg, true);
    let expected = !solve_faq_brute_force(&q).total().is_zero();
    assert_eq!(solve_bcq(&q), expected);

    for g in [Topology::line(4), Topology::clique(4), Topology::grid(2, 2)] {
        let a = Assignment::round_robin(&q, &g, &all_player_ids(&g));
        let protocol = run_bcq_protocol(&q, &g, &a, 1).unwrap();
        assert_eq!(protocol.answer, expected, "specialised on {}", g.name());

        let players: Vec<Player> = g.players().collect();
        for placement in [
            InputPlacement::from_assignment(&a),
            InputPlacement::hash_split(q.k(), &players, a.output()),
        ] {
            let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
            let out = run.execute().unwrap();
            assert_eq!(
                !out.result.total().is_zero(),
                expected,
                "general runtime on {}",
                g.name()
            );
            assert!(out.report.conforms(), "bit envelope on {}", g.name());
        }
    }
}

#[test]
fn engine_free_vars_match_solve_faq_for_pgm_style_queries() {
    let h = path_query(4);
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 9,
        domain: 3,
        seed: 71,
    };
    for v in 0..5u32 {
        let q: FaqQuery<Prob> = random_instance(&h, &cfg, vec![faqs::hypergraph::Var(v)], |r| {
            Prob(r.random_range(0.1..1.0))
        });
        let fast = solve_faq(&q).unwrap();
        let slow = solve_faq_brute_force(&q);
        assert!(fast.approx_eq(&slow), "marginal of x{v}");
    }
}
