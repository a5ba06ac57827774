//! Metamorphic oracles for the title claim: relations between topologies
//! that Definitions 3.6, 3.8/3.9 and 3.12 guarantee, checked without
//! knowing the right answer.
//!
//! Adding a link to `G` only adds routes and cut edges: `MinCut(G, K)`
//! never falls and `τ_MCF(G, K, N′)` never rises, so the nominal lower
//! bound `(y + n2)·N / MinCut` never rises, and neither does the upper
//! bound unless the greedy Steiner packing falls. The packing carries no
//! such guarantee: its falls are reported, not asserted, and the upper
//! bound is asserted on a corpus where it has none.

use faqs::hypergraph::{cycle_query, star_query, tree_query};
use faqs::network::{min_cut, tau_mcf, Player, Topology};
use faqs::protocols::BoundReport;
use faqs::relation::{random_boolean_instance, RandomInstanceConfig};

#[test]
fn adding_a_link_never_hurts() {
    let shapes = [
        ("tree(2,2)", tree_query(2, 2)),
        ("cycle4", cycle_query(4)),
        ("star4", star_query(4)),
    ];
    let queries = shapes.map(|(name, h)| {
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 256,
            domain: 512,
            seed: 7,
        };
        (name, random_boolean_instance(&h, &cfg, true))
    });
    let (mut cases, mut st_falls, mut breaches) = (0, 0, Vec::new());
    for seed in 0..40 {
        let g = Topology::random_connected(7, 0.35, seed);
        let k: Vec<Player> = g.players().collect();
        let cut = min_cut(&g, &k).expect("connected");
        let base = queries.each_ref().map(|(_, q)| {
            let n_prime = (q.k() * q.arity() * q.n_max()) as u64;
            let bound = BoundReport::evaluate(q, &g, &k).expect("bound");
            (n_prime, tau_mcf(&g, &k, n_prime), bound)
        });
        let missing = k.iter().flat_map(|&a| k.iter().map(move |&b| (a, b)));
        let missing =
            missing.filter(|&(a, b)| a < b && g.neighbors(a).iter().all(|&(v, _)| v != b));
        for (a, b) in missing.collect::<Vec<_>>() {
            let mut more = g.clone();
            more.add_link(a, b, 1);
            let case = format!("rand7 seed {seed} + {a}–{b}");
            if min_cut(&more, &k).expect("connected") < cut {
                breaches.push(format!("{case}: MinCut fell"));
            }
            for ((name, q), (n_prime, tau, before)) in queries.iter().zip(&base) {
                cases += 1;
                let tau_more = tau_mcf(&more, &k, *n_prime);
                if tau_more > *tau {
                    breaches.push(format!("{case}: τ_MCF {tau:?} → {tau_more:?}"));
                }
                let after = BoundReport::evaluate(q, &more, &k).expect("bound");
                if after.upper_rounds > before.upper_rounds {
                    let (x, y) = (before.upper_rounds, after.upper_rounds);
                    breaches.push(format!("{case}, {name}: upper_rounds {x} → {y}"));
                }
                if after.lower_rounds > before.lower_rounds {
                    let (x, y) = (before.lower_rounds, after.lower_rounds);
                    breaches.push(format!("{case}, {name}: lower_rounds {x} → {y}"));
                }
                st_falls += usize::from(after.st < before.st);
            }
        }
    }
    println!("{cases} link additions × queries; greedy ST fell on {st_falls}");
    assert_eq!(cases, 1140, "the corpus is Measurement D's");
    assert!(breaches.is_empty(), "{}", breaches.join("\n"));
}
