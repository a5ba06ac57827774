//! Cross-query batching differential suite: one batched upward pass
//! must be *bit-identical*, per binding, to N independent
//! `Executor::solve` calls on the per-binding restricted queries —
//! across semirings, shapes, free-parameter choices, skew, duplicate
//! and missing bindings — and to the structural reference plan
//! (`solve_faq_reference`) on the same restricted queries.

use faqs_core::solve_faq_reference;
use faqs_exec::Executor;
use faqs_hypergraph::{example_h2, path_query, star_query, tree_query, Hypergraph, Var};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shapes with a free parameter variable the batcher can slice on.
fn shape(which: usize) -> (Hypergraph, Vec<Var>, Var) {
    match which % 4 {
        0 => (star_query(4), vec![Var(0)], Var(0)),
        1 => (path_query(3), vec![Var(1), Var(2)], Var(2)),
        2 => (tree_query(2, 2), vec![Var(0)], Var(0)),
        _ => (example_h2(), vec![Var(0), Var(1), Var(2)], Var(1)),
    }
}

const DOMAIN: u32 = 8;

/// A random instance with one hot factor `hot_shift` doublings larger
/// than the rest (skew the stats planner may react to).
fn instance<S: Semiring>(
    h: &Hypergraph,
    free: Vec<Var>,
    seed: u64,
    hot_shift: u32,
    mut value_of: impl FnMut(&mut StdRng) -> S,
) -> FaqQuery<S> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = 6usize;
    let factors = h
        .edges()
        .map(|(e, vars)| {
            let tuples = if e.index() == 0 {
                base << hot_shift
            } else {
                base
            };
            Relation::from_pairs(
                vars.to_vec(),
                (0..tuples)
                    .map(|_| {
                        let t: Vec<u32> =
                            vars.iter().map(|_| rng.random_range(0..DOMAIN)).collect();
                        (t, value_of(&mut rng))
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    FaqQuery::new_ss(h.clone(), factors, free, DOMAIN)
}

/// `q` with its param-carrying factors restricted to one binding — the
/// sequential-service oracle.
fn restricted<S: Semiring>(q: &FaqQuery<S>, param: Var, b: u32) -> FaqQuery<S> {
    let factors = q
        .hypergraph
        .edges()
        .zip(&q.factors)
        .map(|((_, e), f)| {
            if e.contains(&param) {
                f.restrict_in(param, &[b])
            } else {
                f.clone()
            }
        })
        .collect();
    FaqQuery {
        hypergraph: q.hypergraph.clone(),
        factors,
        free_vars: q.free_vars.clone(),
        aggregates: q.aggregates.clone(),
        domain: q.domain,
    }
}

/// The core differential assertion: each batched slice equals the solo
/// executor answer and the structural reference plan's answer.
fn assert_batch_matches<S: Semiring>(q: &FaqQuery<S>, param: Var, bindings: &[u32], label: &str) {
    let ex = Executor::default();
    let batch = ex
        .solve_batch(q, param, bindings)
        .unwrap_or_else(|e| panic!("{label}: batch rejected: {e}"));
    assert_eq!(batch.len(), bindings.len());
    for (b, got) in bindings.iter().zip(&batch) {
        let one = restricted(q, param, *b);
        let solo = ex
            .solve(&one)
            .unwrap_or_else(|e| panic!("{label}: solo rejected: {e}"));
        assert_eq!(*got, solo, "{label}: binding {b} must be bit-identical");
        let reference = solve_faq_reference(&one).unwrap();
        assert_eq!(*got, reference, "{label}: binding {b} vs structural plan");
    }
}

/// Bindings with duplicates and (at `DOMAIN` and beyond) guaranteed
/// misses, derived from the seed.
fn bindings_of(seed: u64, width: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb47c);
    (0..width)
        .map(|_| rng.random_range(0..DOMAIN + 2))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn count_batches_agree(
        which in 0usize..4,
        seed in 0u64..1_000_000,
        hot_shift in 0u32..5,
        width in 1usize..12,
    ) {
        let (h, free, param) = shape(which);
        let q: FaqQuery<Count> = instance(&h, free, seed, hot_shift, |r| {
            Count(r.random_range(1..5))
        });
        assert_batch_matches(&q, param, &bindings_of(seed, width), "count");
    }

    #[test]
    fn boolean_batches_agree(
        which in 0usize..4,
        seed in 0u64..1_000_000,
        hot_shift in 0u32..5,
        width in 1usize..12,
    ) {
        let (h, free, param) = shape(which);
        let q: FaqQuery<Boolean> = instance(&h, free, seed, hot_shift, |_| Boolean::TRUE);
        assert_batch_matches(&q, param, &bindings_of(seed, width), "boolean");
    }

    #[test]
    fn min_plus_batches_agree(
        which in 0usize..4,
        seed in 0u64..1_000_000,
        hot_shift in 0u32..5,
        width in 1usize..12,
    ) {
        // Integer-valued tropical weights: ⊗ = f64 addition is exact on
        // small integers, so batched and solo passes agree bit-for-bit
        // even if the planner picks different roots for them.
        let (h, free, param) = shape(which);
        let q: FaqQuery<MinPlus> = instance(&h, free, seed, hot_shift, |r| {
            MinPlus::new(r.random_range(0..32) as f64)
        });
        assert_batch_matches(&q, param, &bindings_of(seed, width), "minplus");
    }
}
