//! Planner differential suite: the cost-chosen plan must be
//! *bit-identical* in results to the structural default plan — the old
//! `solve_faq` behaviour — across semirings, acyclic shapes, `H2`,
//! free-variable choices, and injected skew, with the brute-force
//! oracle as ground truth.
//!
//! Invariants checked per instance:
//!
//! * `solve_faq_with_plan(stats plan)` ≡ `solve_faq_with_plan(structural
//!   plan)` ≡ brute force, as full result *relations*;
//! * the executor agrees on both plans: the stats plan through its
//!   cache, the structural one through `solve_on`;
//! * plan invariants: every node's join order is a permutation of its λ
//!   and the chosen GHD validates.

use faqs_core::{solve_faq_brute_force, solve_faq_with_plan};
use faqs_exec::{Executor, QueryPlan};
use faqs_hypergraph::{example_h2, path_query, star_query, tree_query, Hypergraph, Var};
use faqs_plan::{plan_query_calibrated, structural_plan};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random acyclic families plus the paper's `H2`, with a free-variable
/// set the engine can place.
fn shape(which: usize, free_sel: usize) -> (Hypergraph, Vec<Var>) {
    match which % 4 {
        0 => (
            star_query(4),
            if free_sel == 0 { vec![] } else { vec![Var(0)] },
        ),
        1 => (
            path_query(3),
            if free_sel == 0 {
                vec![]
            } else {
                vec![Var(1), Var(2)]
            },
        ),
        2 => (
            tree_query(2, 2),
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

/// A random instance with one *hot* factor `hot_shift` doublings larger
/// than the rest — skew the stats-aware planner may react to, and the
/// differential assertion must survive.
fn instance<S: Semiring>(
    h: &Hypergraph,
    free: Vec<Var>,
    seed: u64,
    hot_edge: usize,
    hot_shift: u32,
    mut value_of: impl FnMut(&mut StdRng) -> S,
) -> FaqQuery<S> {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = 8u32;
    let base = 6usize;
    let factors = h
        .edges()
        .map(|(e, vars)| {
            let tuples = if e.index() == hot_edge % h.num_edges() {
                base << hot_shift
            } else {
                base
            };
            Relation::from_pairs(
                vars.to_vec(),
                (0..tuples)
                    .map(|_| {
                        let t: Vec<u32> =
                            vars.iter().map(|_| rng.random_range(0..domain)).collect();
                        let v = value_of(&mut rng);
                        (t, v)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    FaqQuery::new_ss(h.clone(), factors, free, domain)
}

fn plans<S: Semiring>(q: &FaqQuery<S>) -> (QueryPlan, QueryPlan) {
    let structural = structural_plan(q).expect("structural plan");
    let stats = plan_query_calibrated(q, None, None, 1.0).expect("stats plan");
    (structural, stats)
}

/// The core differential assertion.
fn assert_plans_agree<S: Semiring>(q: &FaqQuery<S>, label: &str) {
    let (structural, stats) = plans(q);
    for (name, plan) in [("structural", &structural), ("stats", &stats)] {
        plan.ghd
            .validate(&q.hypergraph)
            .unwrap_or_else(|e| panic!("{label}/{name}: invalid GHD: {e}"));
        for n in plan.ghd.node_ids() {
            let mut order = plan.joins(n).to_vec();
            let mut lambda = plan.ghd.node(n).lambda.clone();
            order.sort();
            lambda.sort();
            assert_eq!(order, lambda, "{label}/{name}: order must cover λ");
        }
    }
    let oracle = solve_faq_brute_force(q);
    let via_structural = solve_faq_with_plan(q, &structural)
        .unwrap_or_else(|e| panic!("{label}: structural plan rejected: {e}"));
    let via_stats = solve_faq_with_plan(q, &stats)
        .unwrap_or_else(|e| panic!("{label}: stats plan rejected: {e}"));
    assert_eq!(via_structural, oracle, "{label}: structural vs oracle");
    assert_eq!(via_stats, via_structural, "{label}: stats vs structural");

    // The executor on both plans: the stats one through its cache, the
    // structural one supplied.
    let ex = Executor::default();
    let cached = ex
        .solve(q)
        .unwrap_or_else(|e| panic!("{label}/exec-stats: rejected: {e}"));
    assert_eq!(cached, oracle, "{label}/exec-stats: executor vs oracle");
    let supplied = ex
        .solve_on(q, &structural)
        .unwrap_or_else(|e| panic!("{label}/exec-structural: rejected: {e}"));
    assert_eq!(
        supplied, oracle,
        "{label}/exec-structural: executor vs oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_plans_agree(
        which in 0usize..4,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
        hot_edge in 0usize..4,
        hot_shift in 0u32..5,
    ) {
        let (h, free) = shape(which, free_sel);
        let q: FaqQuery<Count> = instance(&h, free, seed, hot_edge, hot_shift, |r| {
            Count(r.random_range(1..5))
        });
        assert_plans_agree(&q, "count");
    }

    #[test]
    fn boolean_plans_agree(
        which in 0usize..4,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
        hot_edge in 0usize..4,
        hot_shift in 0u32..5,
    ) {
        let (h, free) = shape(which, free_sel);
        let q: FaqQuery<Boolean> = instance(&h, free, seed, hot_edge, hot_shift, |_| {
            Boolean::TRUE
        });
        assert_plans_agree(&q, "boolean");
    }

    #[test]
    fn min_plus_plans_agree(
        which in 0usize..4,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
        hot_edge in 0usize..4,
        hot_shift in 0u32..5,
    ) {
        // Integer-valued tropical weights: ⊗ = f64 addition is exact on
        // small integers, so results are bit-identical across plans
        // regardless of how the joins re-associate the sums.
        let (h, free) = shape(which, free_sel);
        let q: FaqQuery<MinPlus> = instance(&h, free, seed, hot_edge, hot_shift, |r| {
            MinPlus::new(r.random_range(0..32) as f64)
        });
        assert_plans_agree(&q, "minplus");
    }
}

/// The pinned skewed-star regression (local half; the distributed half
/// — strictly fewer shipped bits — lives in the `faqs-protocols`
/// planner suite): the stats-aware plan must deviate from the
/// structural default, predict strictly less kernel work, and still
/// produce the identical relation.
#[test]
fn pinned_skewed_star_beats_structural_and_agrees() {
    let q = faqs_relation::skewed_star_instance(4, 16);
    let (structural, stats) = plans(&q);
    assert!(
        structural.chose_default() && !stats.chose_default(),
        "the huge-leaf star must trigger a re-root"
    );
    assert!(
        stats.cost.cpu < stats.candidates[0].cost.cpu,
        "chosen plan must predict strictly less work than the default: {} vs {}",
        stats.cost.cpu,
        stats.candidates[0].cost.cpu
    );
    assert_eq!(
        solve_faq_with_plan(&q, &stats).unwrap(),
        solve_faq_with_plan(&q, &structural).unwrap(),
        "re-rooting never changes the answer"
    );
}
