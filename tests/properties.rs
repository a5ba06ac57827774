//! Property-based integration tests: the structural invariants and the
//! protocol/engine/oracle agreement on randomly generated inputs.

use faqs::engine::{solve_bcq, solve_faq_brute_force};
use faqs::hypergraph::{
    internal_node_width, is_acyclic, random_degenerate_query, Decomposition, Ghd, Hypergraph, Var,
};
use faqs::lowerbounds::{embed_forest, forest_capacity, Tribes};
use faqs::network::{min_cut, min_cut_partition, steiner_packing, Player, Topology};
use faqs::protocols::{run_bcq_protocol, InputPlacement};
use faqs::relation::{random_boolean_instance, RandomInstanceConfig};
use faqs::semiring::Semiring;
use proptest::prelude::*;

/// A random forest query: a uniformly random parent for every non-root
/// vertex, at most one tree.
fn forest_strategy() -> impl Strategy<Value = Hypergraph> {
    (3usize..10, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Hypergraph::new(n);
        for i in 1..n {
            let p = rng.random_range(0..i);
            h.add_edge([Var(p as u32), Var(i as u32)]);
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gyo_ghd_is_always_valid(n in 3usize..9, d in 1usize..4, seed: u64) {
        let h = random_degenerate_query(n, d, seed);
        let report = internal_node_width(&h);
        prop_assert!(report.ghd.validate(&h).is_ok());
        prop_assert!(report.y >= 1);
        // Re-deriving from the decomposition stays valid too.
        let g2 = Ghd::from_decomposition(&h, &report.decomposition);
        prop_assert!(g2.validate(&h).is_ok());
    }

    #[test]
    fn forests_are_acyclic_and_width_bounded(h in forest_strategy()) {
        prop_assert!(is_acyclic(&h));
        let report = internal_node_width(&h);
        // y(H) never exceeds the number of edges.
        prop_assert!(report.y <= h.num_edges());
        // The decomposition of an acyclic H has an empty GYO reduction.
        let d = Decomposition::of(&h);
        prop_assert!(d.core_edges.is_empty());
    }

    #[test]
    fn forest_embedding_equivalence(h in forest_strategy(), seed: u64, planted: bool) {
        let cap = forest_capacity(&h);
        prop_assume!(cap >= 1);
        let tribes = Tribes::random(cap, 10, 0.3, planted, seed);
        let e = embed_forest(&h, &tribes).expect("capacity checked");
        prop_assert_eq!(solve_bcq(&e.query), tribes.eval());
    }

    #[test]
    fn protocol_matches_oracle_on_random_everything(
        n in 4usize..8,
        d in 1usize..3,
        hseed: u64,
        iseed: u64,
        planted: bool,
    ) {
        let h = random_degenerate_query(n, d, hseed);
        let cfg = RandomInstanceConfig { tuples_per_factor: 4, domain: 3, seed: iseed };
        let q = random_boolean_instance(&h, &cfg, planted);
        let oracle = !solve_faq_brute_force(&q).total().is_zero();

        let g = Topology::random_connected(5, 0.3, hseed ^ iseed);
        let ids: Vec<u32> = (0..5).collect();
        let a = InputPlacement::round_robin(&q, &ids);
        let out = run_bcq_protocol(&q, &g, &a, 1).unwrap();
        prop_assert_eq!(out.answer, oracle);
    }

    #[test]
    fn steiner_packing_is_always_edge_disjoint_and_valid(
        nodes in 4usize..10,
        p in 0.2f64..0.8,
        seed: u64,
        delta in 2u32..8,
    ) {
        let g = Topology::random_connected(nodes, p, seed);
        let k: Vec<Player> = vec![Player(0), Player(nodes as u32 - 1)];
        let packing = steiner_packing(&g, &k, delta);
        let mut seen = std::collections::BTreeSet::new();
        for tree in &packing {
            // A tree: connected, with one node more than it has links.
            let nodes: Vec<Player> = g.players().filter(|&p| tree.contains(p)).collect();
            prop_assert_eq!(nodes.len(), tree.links().len() + 1);
            prop_assert!(nodes.iter().all(|&p| tree.path(k[0], p).is_some()));
            // Spanning K, every two terminals at most Δ apart on it.
            for &a in &k {
                for &b in &k {
                    let hops = tree.path(a, b).map(|(_, links)| links.len() as u32);
                    prop_assert!(hops.is_some_and(|h| h <= delta));
                }
            }
            for l in tree.links() {
                prop_assert!(seen.insert(*l), "edge reused across trees");
            }
        }
        // Never more trees than the min cut allows.
        prop_assert!(Some(packing.len()) <= min_cut(&g, &k));
    }

    #[test]
    fn min_cut_partition_is_consistent(nodes in 4usize..10, p in 0.2f64..0.8, seed: u64) {
        let g = Topology::random_connected(nodes, p, seed);
        let k: Vec<Player> = vec![Player(0), Player(nodes as u32 - 1), Player(1)];
        let (cut, side) = min_cut_partition(&g, &k).unwrap();
        prop_assert_eq!(Some(cut), min_cut(&g, &k));
        let crossing = g
            .links()
            .filter(|&l| {
                let (a, b) = g.link(l);
                side[a.index()] != side[b.index()]
            })
            .count();
        prop_assert_eq!(crossing, cut);
    }

    #[test]
    fn width_report_is_stable_under_clone(n in 3usize..8, d in 1usize..3, seed: u64) {
        let h = random_degenerate_query(n, d, seed);
        let a = internal_node_width(&h);
        let b = internal_node_width(&h.clone());
        prop_assert_eq!(a.y, b.y);
        prop_assert_eq!(a.n2(), b.n2());
    }
}
