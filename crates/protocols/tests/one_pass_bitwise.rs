//! One upward pass, one answer — to the bit. Floating-point `⊗` is not
//! associative, so two evaluators that fold the same child messages in
//! different orders disagree in the last place. Every evaluator is a
//! site of `faqs_core::Pass`, which folds in `QueryPlan::children`
//! order; this pins that they all return the identical `f64`.

use faqs_core::{solve_faq, solve_faq_reference};
use faqs_exec::{Executor, ExecutorConfig, IncrementalFaq};
use faqs_hypergraph::{star_query, Var};
use faqs_network::{ChannelTransport, Player, SimTransport, Topology};
use faqs_protocols::{DistributedFaqRun, InputPlacement};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Prob;

/// A `Prob` star with four leaves whose weights are not dyadic: leaf
/// `i` holds `(j, j) ↦ w[(j + i) mod 4] / (1 + 0.37·i)`, so the answer
/// is a sum of four-way products that each round differently under
/// different association orders.
fn non_dyadic_star() -> FaqQuery<Prob> {
    const W: [f64; 4] = [0.1, 0.7, 0.3, 0.9];
    let factors = (0..4u32)
        .map(|i| {
            let scale = 1.0 + 0.37 * f64::from(i);
            let weight = |j: u32| Prob(W[((j + i) % 4) as usize] / scale);
            Relation::from_pairs(
                vec![Var(0), Var(i + 1)],
                (0..4).map(|j| (vec![j, j], weight(j))),
            )
        })
        .collect();
    FaqQuery::new_ss(star_query(4), factors, vec![], 4)
}

#[test]
fn every_site_returns_the_same_bits() {
    let q = non_dyadic_star();
    let want = solve_faq(&q).unwrap().total().0;
    assert!(want > 0.0 && want < 1.0, "a proper probability: {want}");

    let g = Topology::line(3);
    let players: Vec<Player> = g.players().collect();
    let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    let sim = run.execute_on(&mut SimTransport::new(run.topology()));
    let channel = run.execute_on(&mut ChannelTransport::new(run.topology()));

    let sequential = Executor::new(ExecutorConfig::sequential());
    let got = [
        ("solve_faq_reference", solve_faq_reference(&q).unwrap()),
        ("Executor, 1 thread", sequential.solve(&q).unwrap()),
        (
            "Executor, 4 threads",
            Executor::with_threads(4).solve(&q).unwrap(),
        ),
        (
            "IncrementalFaq",
            IncrementalFaq::new(q.clone()).unwrap().answer().clone(),
        ),
        ("DistributedFaqRun / sim", sim.unwrap().result),
        ("DistributedFaqRun / channel", channel.unwrap().result),
    ];
    for (site, answer) in got {
        let got = answer.total().0;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{site}: {got:e} vs solve_faq {want:e}"
        );
    }
}
