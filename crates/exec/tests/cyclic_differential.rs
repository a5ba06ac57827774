//! Cyclic differential suite: on triangle, 4-cycle and `K4` queries the
//! stats planner (whose merged cores lower to the generic join) and the
//! structural default must both produce *bit-identical* relations, with
//! the brute-force oracle as ground truth — across semirings and
//! free-var choices.
//!
//! Plus the pinned regression: on a ≥ 50k-tuple triangle the stats
//! planner must choose a generic-join bag, price it below the
//! structural default, and agree with the binary join cascade on the
//! same instance.

use faqs_core::{solve_faq_brute_force, solve_faq_with_plan};
use faqs_exec::Executor;
use faqs_hypergraph::{clique_query, cycle_query, Hypergraph, Var};
use faqs_plan::{plan_query_with, structural_plan};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};
use proptest::prelude::*;
use rand::Rng;

/// The three cyclic cores the issue names, with a free-var choice the
/// engine can place (free vars live in the merged-core root bag, so any
/// subset of the core's vertices is fair game).
fn shape(which: usize, free_sel: usize) -> (Hypergraph, Vec<Var>) {
    match which % 3 {
        0 => (
            cycle_query(3),
            if free_sel == 0 { vec![] } else { vec![Var(0)] },
        ),
        1 => (
            cycle_query(4),
            if free_sel == 0 {
                vec![]
            } else {
                vec![Var(1), Var(3)]
            },
        ),
        _ => (
            clique_query(4),
            if free_sel == 0 {
                vec![]
            } else {
                vec![Var(0), Var(2)]
            },
        ),
    }
}

/// The core differential assertion: the stats planner's plan and the
/// structural reference plan each agree with brute force as a full
/// relation — solved directly and on the executor (the stats plan
/// through its cache, the structural one through `solve_on`).
fn assert_cyclic_agree<S: Semiring>(q: &FaqQuery<S>, label: &str) {
    let oracle = solve_faq_brute_force(q);
    let ex = Executor::default();
    let got = ex
        .solve(q)
        .unwrap_or_else(|e| panic!("{label}: executor rejected: {e}"));
    assert_eq!(got, oracle, "{label}: executor vs oracle");
    let plans = [
        ("stats", plan_query_with(q, None, None)),
        ("structural", structural_plan(q)),
    ];
    for (name, plan) in plans {
        let plan =
            plan.unwrap_or_else(|e| panic!("{label}/{name}: planner rejected cyclic query: {e}"));
        plan.ghd
            .validate(&q.hypergraph)
            .unwrap_or_else(|e| panic!("{label}/{name}: invalid GHD: {e}"));
        let direct = solve_faq_with_plan(q, &plan)
            .unwrap_or_else(|e| panic!("{label}/{name}: plan rejected: {e}"));
        assert_eq!(direct, oracle, "{label}/{name}: direct solve vs oracle");
        let on = ex
            .solve_on(q, &plan)
            .unwrap_or_else(|e| panic!("{label}/{name}: rejected: {e}"));
        assert_eq!(on, oracle, "{label}/{name}: executor vs oracle");
    }
}

fn cyclic_instance<S: Semiring>(
    which: usize,
    free_sel: usize,
    seed: u64,
    tuples: usize,
    value_of: impl FnMut(&mut rand::rngs::StdRng) -> S,
) -> FaqQuery<S> {
    let (h, free) = shape(which, free_sel);
    random_instance(
        &h,
        &RandomInstanceConfig {
            tuples_per_factor: tuples,
            domain: 6,
            seed,
        },
        free,
        value_of,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn count_cyclic_agree(
        which in 0usize..3,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
        tuples in 4usize..24,
    ) {
        let q = cyclic_instance::<Count>(which, free_sel, seed, tuples, |r| {
            Count(r.random_range(1..5))
        });
        assert_cyclic_agree(&q, "count");
    }

    #[test]
    fn boolean_cyclic_agree(
        which in 0usize..3,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
        tuples in 4usize..24,
    ) {
        let q = cyclic_instance::<Boolean>(which, free_sel, seed, tuples, |_| Boolean::TRUE);
        assert_cyclic_agree(&q, "boolean");
    }

    #[test]
    fn min_plus_cyclic_agree(
        which in 0usize..3,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
        tuples in 4usize..24,
    ) {
        // Integer-valued tropical weights: ⊗ = f64 addition is exact,
        // and the generic join folds annotations in join order, so
        // equality here is bit-for-bit.
        let q = cyclic_instance::<MinPlus>(which, free_sel, seed, tuples, |r| {
            MinPlus::new(r.random_range(0..32) as f64)
        });
        assert_cyclic_agree(&q, "minplus");
    }
}

/// The acceptance regression: on a ≥ 50k-tuple triangle the stats
/// planner picks a generic-join bag, the model prices it below the
/// structural default, and it agrees with the binary join cascade
/// `R ⋈ S ⋈ T` (whose intermediate `R ⋈ S` holds ~2.5M rows against
/// ~125k surviving triangles). The measured statement lives in the
/// ledger, not here: `relation.generic_join_us` against
/// `relation.join_us` in `benchmark/`, the one place wall-clock numbers
/// come from.
#[test]
fn pinned_triangle_picks_generic_join_and_agrees_with_the_cascade() {
    let q: FaqQuery<Count> = random_instance(
        &cycle_query(3),
        &RandomInstanceConfig {
            tuples_per_factor: 50_000,
            domain: 1_000,
            seed: 19,
        },
        vec![],
        |_| Count(1),
    );

    let plan = plan_query_with(&q, None, None).expect("plan");
    assert!(
        plan.uses_generic_join(),
        "the 50k triangle must lower to a generic-join bag"
    );
    let default = plan.candidates[0].cost;
    assert!(
        plan.cost.cpu < default.cpu,
        "model must price the generic join below the structural default: {} vs {}",
        plan.cost.cpu,
        default.cpu
    );

    let via_genjoin = solve_faq_with_plan(&q, &plan).expect("genjoin solve");
    let [r, s, t] = &q.factors[..] else {
        panic!("three edges")
    };
    let cascade = r.join(s).join(t);
    assert!(!cascade.is_empty());
    assert_eq!(via_genjoin.total(), cascade.total(), "both count triangles");
}
