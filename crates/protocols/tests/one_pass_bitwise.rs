//! One upward pass, one answer — to the bit. Floating-point `⊗` is not
//! associative, so two evaluators that fold the same child messages in
//! different orders disagree in the last place. Every evaluator is a
//! site of `faqs_core::Pass`, which folds in `QueryPlan::children`
//! order; this pins that they all return the identical `f64`. So do the
//! lowerings of one bag: the generic join and the cascade hand the
//! push-down different column orders, and it folds every group in the
//! same order regardless.

use faqs_core::{solve_faq, solve_faq_reference, solve_faq_with_plan, QueryPlan};
use faqs_exec::{Executor, ExecutorConfig, IncrementalFaq};
use faqs_hypergraph::{star_query, EdgeId, Ghd, GhdNode, Hypergraph, NodeId, Var};
use faqs_network::{ChannelTransport, Player, SimTransport, Topology};
use faqs_plan::{join_order_for_ghd, plan_query, BagOp, ChosenPlan, PlannerConfig};
use faqs_protocols::{DistributedFaqRun, InputPlacement};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig, Relation};
use faqs_semiring::Prob;
use rand::Rng;

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

/// A `Prob` triangle on `{0, 1, 2}` with the pendant edge `{2, 3}`,
/// weighted with multiples of `1 / 1000.3` so that any change of fold
/// order shows in the last place.
fn non_dyadic_pendant_triangle(free: Vec<Var>) -> FaqQuery<Prob> {
    let mut h = Hypergraph::new(4);
    for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
        h.add_edge([Var(a), Var(b)]);
    }
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 300,
        domain: 24,
        seed: 17,
    };
    random_instance(&h, &cfg, free, |r| {
        Prob(f64::from(r.random_range(1..1000u32)) / 1000.3)
    })
}

/// One plan for it: the triangle merged into the root bag, lowered by
/// `root_op`, with the pendant edge as its child — so a message folds
/// into the cyclic bag before the push-down.
fn pendant_triangle_plan(q: &FaqQuery<Prob>, root_op: BagOp) -> ChosenPlan {
    let node = |chi: &[u32], lambda: &[u32], parent| GhdNode {
        chi: chi.iter().map(|&v| Var(v)).collect(),
        lambda: lambda.iter().map(|&e| EdgeId(e)).collect(),
        parent,
    };
    let bags = vec![
        node(&[0, 1, 2], &[0, 1, 2], None),
        node(&[2, 3], &[3], Some(NodeId(0))),
    ];
    let mut plan = plan_query(q, false, &PlannerConfig::structural()).unwrap();
    plan.ghd = Ghd::from_nodes(bags, NodeId(0));
    plan.ghd.validate(&q.hypergraph).unwrap();
    plan.join_order = join_order_for_ghd(q, &plan.ghd);
    plan.bag_ops = vec![root_op, BagOp::Cascade];
    plan
}

#[test]
fn every_lowering_of_a_cyclic_bag_returns_the_same_bits() {
    for free in [vec![], vec![Var(1)], vec![Var(2), Var(0)]] {
        let q = non_dyadic_pendant_triangle(free);
        // The planner's binding order (kept, then private ascending:
        // pinned in `faqs-plan`), the cascade, and a generic join bound
        // in the cascade's concatenation order, which the push-down
        // must regroup.
        let bound = |v: &Var| !q.is_free(*v);
        let private = [Var(0), Var(1), Var(2)].into_iter().filter(bound);
        let layout: Vec<Var> = q.free_vars.iter().copied().chain(private).collect();
        let cascade = pendant_triangle_plan(&q, BagOp::Cascade);
        let mut concatenation: Vec<Var> = Vec::new();
        for v in cascade.join_order[0]
            .iter()
            .flat_map(|&e| q.factor(e).schema())
        {
            if !concatenation.contains(v) {
                concatenation.push(*v);
            }
        }
        let lowerings = [
            ("generic join", BagOp::GenericJoin { var_order: layout }),
            ("cascade", BagOp::Cascade),
            (
                "regrouped",
                BagOp::GenericJoin {
                    var_order: concatenation,
                },
            ),
        ];

        let rows = |r: &Relation<Prob>| -> Vec<(Vec<u32>, u64)> {
            r.iter().map(|(t, v)| (t.to_vec(), v.0.to_bits())).collect()
        };
        let mut want: Option<Relation<Prob>> = None;
        for (lowering, root_op) in lowerings {
            let plan = pendant_triangle_plan(&q, root_op);
            let lowered = QueryPlan::lower(&q, plan.clone());
            let got = [
                solve_faq_with_plan(&q, &plan, Relation::aggregate_out_many),
                Executor::new(ExecutorConfig::sequential()).solve_on(&q, &lowered),
                Executor::with_threads(4).solve_on(&q, &lowered),
            ];
            for (site, got) in got.into_iter().enumerate() {
                let got = got.unwrap();
                assert!(!got.is_empty() && got.schema() == q.free_vars.as_slice());
                let want = want.get_or_insert_with(|| got.clone());
                assert_eq!(
                    rows(&got),
                    rows(want),
                    "{lowering}, site {site}, free {:?}",
                    q.free_vars
                );
            }
        }
        // And the bits are the right number.
        assert!(want.unwrap().approx_eq(&solve_faq(&q).unwrap()));
    }
}
