//! Adaptive-execution differential suite: the calibrated executor —
//! telemetry on, re-planning under learned corrections, and a
//! deliberately *stale* plan driven through [`Executor::solve_on`] —
//! must stay bit-identical to the deterministic [`solve_faq_reference`]
//! re-solve, across semirings and shapes (acyclic and cyclic).
//!
//! Why bit-identity is the right bar even for the float-valued tropical
//! semiring: a learned correction may change the plan, and so the
//! association order of `⊗`, but every MinPlus annotation here is a
//! dyadic rational (k·0.25), so tropical `⊗` (f64 addition) is exact in
//! every association order.

use faqs_core::solve_faq_reference;
use faqs_exec::{Executor, QueryPlan};
use faqs_hypergraph::{cycle_query, example_h2, path_query, star_query, Hypergraph, Var};
use faqs_plan::{plan_query_calibrated, CalibrationRegistry, EngineError, QueryStats};
use faqs_relation::{random_boolean_instance, random_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The stats planner's plan for `q` — the stale plan the suite hands
/// to [`Executor::solve_on`].
fn stats_plan<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
    plan_query_calibrated(q, None, None, 1.0)
}

/// The issue's shape matrix: star, path, H2 and the (cyclic) triangle,
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

/// Runs `q` through the adaptive matrix and asserts every leg equals
/// the reference relation bit-for-bit:
///
/// * cache path (`solve`) on a live registry — every multi-input fold
///   observes, and the second solve plans under what the first taught;
/// * stale-plan path (`solve_on` against a plan built from `stale`, a
///   sparse instance of the same shape) — predictions are badly wrong;
/// * plus a calibration-off control.
fn assert_adaptive_agree<S>(q: &FaqQuery<S>, stale: &FaqQuery<S>, label: &str)
where
    S: Semiring + PartialEq + std::fmt::Debug,
{
    let want = solve_faq_reference(q).unwrap_or_else(|e| panic!("{label}: reference: {e}"));
    let stale_plan = stats_plan(stale).unwrap_or_else(|e| panic!("{label}: stale plan: {e}"));
    let ex = Executor::default().with_calibration(Arc::new(CalibrationRegistry::new()));
    // Twice through the cache path: the second solve replays under
    // whatever corrections the first taught the registry.
    for round in 0..2 {
        let got = ex
            .solve(q)
            .unwrap_or_else(|e| panic!("{label}/r{round}: rejected: {e}"));
        assert_eq!(got, want, "{label}/r{round}: calibrated solve");
    }
    let got = ex
        .solve_on(q, &stale_plan)
        .unwrap_or_else(|e| panic!("{label}: stale plan rejected: {e}"));
    assert_eq!(got, want, "{label}: stale-plan adaptive solve");

    let off = Executor::default().with_calibration(Arc::new(CalibrationRegistry::off()));
    assert_eq!(
        off.solve(q).unwrap(),
        want,
        "{label}: calibration-off control"
    );
    let s = off.calibration_stats();
    assert_eq!(s.samples, 0, "{label}: off records nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn count_adaptive_matches_reference(
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
        assert_adaptive_agree(&q, &stale, &format!("count/{name}/s{seed}"));
    }

    #[test]
    fn boolean_adaptive_matches_reference(
        which in 0usize..4,
        free_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (name, h, free) = shape(which, free_sel);
        let mut q: FaqQuery<Boolean> = random_boolean_instance(&h, &cfg(seed, 24), seed % 2 == 0);
        q.free_vars = free.clone();
        let mut stale: FaqQuery<Boolean> = random_boolean_instance(&h, &cfg(seed ^ 1, 3), true);
        stale.free_vars = free;
        assert_adaptive_agree(&q, &stale, &format!("bool/{name}/s{seed}"));
    }

    #[test]
    fn minplus_adaptive_matches_reference(
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
        assert_adaptive_agree(&q, &stale, &format!("minplus/{name}/s{seed}"));
    }
}

/// Calibration closes the estimator error: on a family of triangles
/// whose edge endpoints are pinned to vertex 0 with 40% probability
/// (one `StatsDigest` shape; triangles through the hot vertex dwarf what
/// the uniformity assumption prices in), the correction learned from
/// earlier solves must strictly lower the median `|log2(predicted /
/// actual)|` of the root fold. All three variables are free, so the
/// answer relation itself is the actual cardinality.
#[test]
fn calibration_reduces_the_median_estimator_error() {
    const DOMAIN: u32 = 64;
    let skewed = |seed: u64| -> FaqQuery<Count> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q: FaqQuery<Count> = random_instance(
            &cycle_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 0,
                domain: DOMAIN,
                seed,
            },
            (0..3u32).map(Var).collect(),
            |_| Count(1),
        );
        for factor in &mut q.factors {
            while factor.len() < 64 {
                let mut endpoint = || {
                    if rng.random_range(0..100) < 40 {
                        0
                    } else {
                        rng.random_range(0..DOMAIN)
                    }
                };
                let t = vec![endpoint(), endpoint()];
                factor.insert(t, Count(1));
            }
        }
        q
    };

    let registry = Arc::new(CalibrationRegistry::new());
    let ex = Executor::default().with_calibration(Arc::clone(&registry));
    let (mut raw_errs, mut cal_errs) = (Vec::new(), Vec::new());
    for round in 0..8u64 {
        let q = skewed(0xE20 + round);
        let stats = QueryStats::of(&q);
        let correction = registry.correction(&stats.digest());
        // The solve itself feeds the registry, so the next round's
        // correction reflects this one's misses.
        let actual = ex.solve(&q).unwrap().len().max(1) as f64;
        let err = |correction: f64| {
            let plan = plan_query_calibrated(&q, None, Some(&stats), correction).unwrap();
            let predicted = plan.node_rows[plan.ghd.root().index()].max(1);
            (predicted as f64 / actual).log2().abs()
        };
        raw_errs.push(err(1.0));
        cal_errs.push(err(correction));
    }
    let median = |errs: &mut Vec<f64>| {
        errs.sort_by(f64::total_cmp);
        errs[errs.len() / 2]
    };
    let (raw, cal) = (median(&mut raw_errs), median(&mut cal_errs));
    assert!(cal < raw, "calibrated median {cal} !< raw median {raw}");
}
