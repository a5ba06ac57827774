//! Stale-plan differential suite: the executor — through its plan
//! cache, with calibration telemetry observing every fold, and on a
//! deliberately *stale* plan driven through [`Executor::solve_on`] —
//! must stay bit-identical to the deterministic [`solve_faq_reference`]
//! re-solve, across semirings and shapes (acyclic and cyclic).
//!
//! Why bit-identity is the right bar even for the float-valued tropical
//! semiring: the stats plan and the stale plan may differ from the
//! reference's structural plan, and so in the association order of `⊗`,
//! but every MinPlus annotation here is a dyadic rational (k·0.25), so
//! tropical `⊗` (f64 addition) is exact in every association order.

use faqs_core::solve_faq_reference;
use faqs_exec::{Executor, QueryPlan};
use faqs_hypergraph::{cycle_query, example_h2, path_query, star_query, Hypergraph, Var};
use faqs_plan::{plan_query_with, EngineError};
use faqs_relation::{random_boolean_instance, random_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};
use proptest::prelude::*;

/// The stats planner's plan for `q` — the stale plan the suite hands
/// to [`Executor::solve_on`].
fn stats_plan<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
    plan_query_with(q, None, None)
}

/// The shape matrix: star, path, H2 and the (cyclic) triangle,
/// each with a free-variable choice the engine can place.
fn shape(which: usize, free_sel: usize) -> (&'static str, Hypergraph, Vec<Var>) {
    match which % 4 {
        0 => (
            "star3",
            star_query(3),
            if free_sel == 0 { vec![] } else { vec![Var(0)] },
        ),
        1 => (
            "path4",
            path_query(4),
            if free_sel == 0 {
                vec![]
            } else {
                vec![Var(1), Var(2)]
            },
        ),
        2 => (
            "h2",
            example_h2(),
            if free_sel == 0 {
                vec![]
            } else {
                vec![Var(0), Var(1), Var(2)]
            },
        ),
        _ => (
            "triangle",
            cycle_query(3),
            if free_sel == 0 { vec![] } else { vec![Var(0)] },
        ),
    }
}

fn cfg(seed: u64, tuples: usize) -> RandomInstanceConfig {
    RandomInstanceConfig {
        tuples_per_factor: tuples,
        domain: 5,
        seed,
    }
}

/// Runs `q` through both legs and asserts each equals the reference
/// relation bit-for-bit:
///
/// * cache path (`solve`), twice — every multi-input fold observes, and
///   the second solve replays the cached plan;
/// * stale-plan path (`solve_on` against a plan built from `stale`, a
///   sparse instance of the same shape) — predictions are badly wrong.
fn assert_stale_plan_agrees<S>(q: &FaqQuery<S>, stale: &FaqQuery<S>, label: &str)
where
    S: Semiring + PartialEq + std::fmt::Debug,
{
    let want = solve_faq_reference(q).unwrap_or_else(|e| panic!("{label}: reference: {e}"));
    let stale_plan = stats_plan(stale).unwrap_or_else(|e| panic!("{label}: stale plan: {e}"));
    let ex = Executor::default();
    for round in 0..2 {
        let got = ex
            .solve(q)
            .unwrap_or_else(|e| panic!("{label}/r{round}: rejected: {e}"));
        assert_eq!(got, want, "{label}/r{round}: cached solve");
    }
    let got = ex
        .solve_on(q, &stale_plan)
        .unwrap_or_else(|e| panic!("{label}: stale plan rejected: {e}"));
    assert_eq!(got, want, "{label}: stale-plan solve");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn count_stale_plan_matches_reference(
        which in 0usize..4,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (name, h, free) = shape(which, free_sel);
        let q: FaqQuery<Count> = random_instance(&h, &cfg(seed, 24), free.clone(), |r| {
            use rand::Rng;
            Count(r.random_range(1..5))
        });
        let stale: FaqQuery<Count> = random_instance(&h, &cfg(seed ^ 1, 3), free, |_| Count(1));
        assert_stale_plan_agrees(&q, &stale, &format!("count/{name}/s{seed}"));
    }

    #[test]
    fn boolean_stale_plan_matches_reference(
        which in 0usize..4,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (name, h, free) = shape(which, free_sel);
        let mut q: FaqQuery<Boolean> = random_boolean_instance(&h, &cfg(seed, 24), seed % 2 == 0);
        q.free_vars = free.clone();
        let mut stale: FaqQuery<Boolean> = random_boolean_instance(&h, &cfg(seed ^ 1, 3), true);
        stale.free_vars = free;
        assert_stale_plan_agrees(&q, &stale, &format!("bool/{name}/s{seed}"));
    }

    #[test]
    fn minplus_stale_plan_matches_reference(
        which in 0usize..4,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (name, h, free) = shape(which, free_sel);
        // Dyadic annotations: k·0.25 — exact under any fold order.
        let q: FaqQuery<MinPlus> = random_instance(&h, &cfg(seed, 24), free.clone(), |r| {
            use rand::Rng;
            MinPlus::new(r.random_range(0..32) as f64 * 0.25)
        });
        let stale: FaqQuery<MinPlus> =
            random_instance(&h, &cfg(seed ^ 1, 3), free, |_| MinPlus::new(0.25));
        assert_stale_plan_agrees(&q, &stale, &format!("minplus/{name}/s{seed}"));
    }
}
