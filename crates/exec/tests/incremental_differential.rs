//! Differential property suite for the incremental executor: an
//! [`IncrementalFaq`] session and an externally maintained mirror
//! instance are driven through the same random insert/delete/set
//! sequence, and after *every* op the session's maintained answer must
//! equal a fresh re-solve of the mirror — as the full output relation,
//! not just a total. The exact carriers race the structural reference
//! plan ([`solve_faq_reference`]); the float one races [`solve_faq`].
//!
//! Coverage deliberately crosses all three maintenance strategies:
//!
//! * `Count` (additive inverses, stats-driven planner → digest drift
//!   re-plans interleave with inverse-mode delta propagation);
//! * `Gf2` (xor: every duplicate insert is a cancellation, so the
//!   delete-to-empty / resurrection paths fire constantly);
//! * `Boolean` (no additive inverse → dirty-subtree recompute);
//! * `MinPlus` (no additive inverse, float-valued: the session's plan
//!   was chosen on older statistics than `solve_faq`'s may be, so the
//!   two can fold sums in different orders — equal up to `approx_eq`).
//!
//! `Count` and `MinPlus` also run on the triangle and the 4-cycle at a
//! density where the planner merges the cycle into one generic-join
//! bag, so deltas pass through a bag of several factors.

use faqs_core::{solve_faq, solve_faq_reference, EngineError};
use faqs_exec::IncrementalFaq;
use faqs_hypergraph::{cycle_query, example_h2, path_query, star_query, EdgeId, Hypergraph, Var};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig, Relation, RelationDelta};
use faqs_semiring::{Boolean, Count, Gf2, MinPlus, Semiring};
use proptest::prelude::*;

fn shapes() -> Vec<(&'static str, Hypergraph, Vec<Vec<Var>>)> {
    vec![
        (
            "star3",
            star_query(3),
            vec![vec![], vec![Var(0)], vec![Var(0), Var(1)]],
        ),
        (
            "path4",
            path_query(4),
            vec![vec![], vec![Var(0)], vec![Var(1), Var(2)]],
        ),
        (
            "h2",
            example_h2(),
            vec![vec![], vec![Var(0), Var(1), Var(2)]],
        ),
    ]
}

fn cfg(seed: u64) -> RandomInstanceConfig {
    RandomInstanceConfig {
        tuples_per_factor: 7,
        domain: 4,
        seed,
    }
}

/// One mutation descriptor: which edge, which kind (insert / delete /
/// set), a packed tuple seed, and a value seed.
type OpDesc = (u8, u8, u8, u8);

/// Expands `(n_ops, ops_seed)` proptest inputs into a concrete op
/// sequence (the vendored proptest has no collection strategies).
fn decode_ops(n_ops: usize, ops_seed: u64) -> Vec<OpDesc> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(ops_seed);
    (0..n_ops)
        .map(|_| {
            (
                rng.random_range(0..8u8),
                rng.random_range(0..3u8),
                rng.random_range(0..=255u8),
                rng.random_range(1..8u8),
            )
        })
        .collect()
}

/// Decodes `cell_seed` into a tuple over `[0, domain)` by base-`domain`
/// digits — the small domain makes repeat hits on existing tuples (and
/// on earlier ops in the same sequence) frequent.
fn decode_tuple(cell_seed: u8, arity: usize, domain: u32) -> Vec<u32> {
    (0..arity)
        .map(|j| (cell_seed as u32 / domain.pow(j as u32)) % domain)
        .collect()
}

/// The full re-solve a session's answer is raced against.
type Oracle<S> = fn(&FaqQuery<S>) -> Result<Relation<S>, EngineError>;

/// Applies `ops` to both an incremental session and a one-shot-mutated
/// mirror of the same instance, racing the maintained answer against a
/// full `oracle` re-solve of the mirror after every single op (exact
/// equality on exact carriers: `approx_eq` is `==` there).
fn run_ops<S>(q0: FaqQuery<S>, oracle: Oracle<S>, mk: impl Fn(u8) -> S, ops: &[OpDesc])
where
    S: Semiring + PartialEq + std::fmt::Debug,
{
    let mut inc = IncrementalFaq::new(q0.clone()).expect("session build");
    let mut mirror = q0;
    let domain = mirror.domain;
    for (step, &(edge_pick, kind, cell_seed, val)) in ops.iter().enumerate() {
        let e = EdgeId(edge_pick as u32 % mirror.hypergraph.num_edges() as u32);
        let schema = mirror.factor(e).schema().to_vec();
        let tuple = decode_tuple(cell_seed, schema.len(), domain);
        let mut delta = RelationDelta::new(schema);
        match kind {
            0 => {
                let v = mk(val);
                delta.insert(tuple.clone(), v.clone());
                mirror.factors[e.index()].insert(tuple, v);
            }
            1 => {
                delta.delete(tuple.clone());
                mirror.factors[e.index()].delete(&tuple);
            }
            _ => {
                let v = mk(val);
                delta.set(tuple.clone(), v.clone());
                mirror.factors[e.index()].delete(&tuple);
                mirror.factors[e.index()].insert(tuple, v);
            }
        }
        inc.apply(e, &delta).expect("valid delta");
        assert_eq!(
            inc.query().factor(e),
            mirror.factor(e),
            "step {step}: mutated factor e{} diverged from the mirror",
            e.index()
        );
        let want = oracle(&mirror).expect("oracle solve");
        assert!(
            inc.answer().approx_eq(&want),
            "step {step} ({kind:?} on e{}): maintained answer {:?} vs oracle {want:?}",
            e.index(),
            inc.answer()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_sequences_match_reference(
        which in 0usize..3,
        free_sel in 0usize..3,
        seed in 0u64..1_000_000,
        n_ops in 1usize..12,
        ops_seed in 0u64..1_000_000,
    ) {
        let (_, h, free_sets) = shapes().swap_remove(which);
        let free = free_sets[free_sel % free_sets.len()].clone();
        let q: FaqQuery<Count> = random_instance(&h, &cfg(seed), free, |r| {
            use rand::Rng;
            Count(r.random_range(1..5))
        });
        // Stats-driven planning: bulk swings in the op sequence can cross
        // digest buckets and force mid-sequence re-plans.
        run_ops(q, solve_faq_reference, |v| Count(v as u64), &decode_ops(n_ops, ops_seed));
    }

    #[test]
    fn gf2_sequences_match_reference(
        which in 0usize..3,
        free_sel in 0usize..3,
        seed in 0u64..1_000_000,
        n_ops in 1usize..12,
        ops_seed in 0u64..1_000_000,
    ) {
        let (_, h, free_sets) = shapes().swap_remove(which);
        let free = free_sets[free_sel % free_sets.len()].clone();
        let q: FaqQuery<Gf2> = random_instance(&h, &cfg(seed), free, |_| Gf2(true));
        run_ops(q, solve_faq_reference, |_| Gf2(true), &decode_ops(n_ops, ops_seed));
    }

    #[test]
    fn boolean_sequences_match_reference(
        which in 0usize..3,
        free_sel in 0usize..3,
        seed in 0u64..1_000_000,
        n_ops in 1usize..12,
        ops_seed in 0u64..1_000_000,
    ) {
        let (_, h, free_sets) = shapes().swap_remove(which);
        let free = free_sets[free_sel % free_sets.len()].clone();
        let q: FaqQuery<Boolean> = random_instance(&h, &cfg(seed), free, |_| Boolean::TRUE);
        run_ops(q, solve_faq_reference, |_| Boolean::TRUE, &decode_ops(n_ops, ops_seed));
    }

    #[test]
    fn minplus_sequences_match_reference(
        which in 0usize..3,
        free_sel in 0usize..3,
        seed in 0u64..1_000_000,
        n_ops in 1usize..12,
        ops_seed in 0u64..1_000_000,
    ) {
        let (_, h, free_sets) = shapes().swap_remove(which);
        let free = free_sets[free_sel % free_sets.len()].clone();
        let q: FaqQuery<MinPlus> = random_instance(&h, &cfg(seed), free, |r| {
            use rand::Rng;
            MinPlus::new(r.random_range(0..32) as f64)
        });
        // 0.3 is non-dyadic, so f64 sums round: the session and
        // `solve_faq` agree up to `approx_eq` whichever plans they run,
        // and a grouping or ordering bug would still be far outside it.
        run_ops(
            q,
            solve_faq,
            |v| MinPlus::new(v as f64 * 0.3),
            &decode_ops(n_ops, ops_seed),
        );
    }
}

/// The triangle and the 4-cycle at a density where the planner merges
/// the whole cycle into one generic-join bag (the session's unit tests
/// pin the merge at seed 7), so every delta runs through a bag of
/// several factors.
fn one_bag_cycle(k: usize, seed: u64) -> (Hypergraph, RandomInstanceConfig) {
    let (tuples_per_factor, domain) = if k == 3 { (300, 24) } else { (200, 40) };
    let cfg = RandomInstanceConfig {
        tuples_per_factor,
        domain,
        seed,
    };
    (cycle_query(k), cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn count_cycle_sequences_match_reference(
        k in 3usize..5,
        seed in 0u64..1_000_000,
        n_ops in 1usize..12,
        ops_seed in 0u64..1_000_000,
    ) {
        let (h, cfg) = one_bag_cycle(k, seed);
        let q: FaqQuery<Count> = random_instance(&h, &cfg, vec![], |r| {
            use rand::Rng;
            Count(r.random_range(1..5))
        });
        run_ops(q, solve_faq_reference, |v| Count(v as u64), &decode_ops(n_ops, ops_seed));
    }

    #[test]
    fn minplus_cycle_sequences_match_reference(
        k in 3usize..5,
        seed in 0u64..1_000_000,
        n_ops in 1usize..12,
        ops_seed in 0u64..1_000_000,
    ) {
        let (h, cfg) = one_bag_cycle(k, seed);
        let q: FaqQuery<MinPlus> = random_instance(&h, &cfg, vec![], |r| {
            use rand::Rng;
            MinPlus::new(r.random_range(0..32) as f64)
        });
        run_ops(
            q,
            solve_faq,
            |v| MinPlus::new(v as f64 * 0.3),
            &decode_ops(n_ops, ops_seed),
        );
    }
}

/// Drains one factor tuple-by-tuple down to the empty relation (the
/// answer must go empty with it), then resurrects every deleted tuple
/// with its original annotation — the maintained answer must track the
/// reference at every step and land back on the pre-drain answer.
#[test]
fn delete_to_empty_and_reinsert_tracks_reference() {
    let h = path_query(3);
    let q: FaqQuery<Count> = random_instance(&h, &cfg(99), vec![Var(0)], |r| {
        use rand::Rng;
        Count(r.random_range(1..4))
    });
    let mut inc = IncrementalFaq::new(q.clone()).expect("session build");
    let mut mirror = q;
    let before = inc.answer().clone();
    assert!(!before.is_empty(), "fixture must start non-empty");

    let e = EdgeId(1);
    let entries: Vec<(Vec<u32>, Count)> = mirror
        .factor(e)
        .iter()
        .map(|(t, v)| (t.to_vec(), *v))
        .collect();
    for (t, _) in &entries {
        inc.delete(e, t).expect("delete");
        mirror.factors[e.index()].delete(t);
        let want = solve_faq_reference(&mirror).expect("reference solve");
        assert_eq!(inc.answer(), &want, "drain step for tuple {t:?}");
    }
    assert!(inc.query().factor(e).is_empty(), "factor fully drained");
    assert!(inc.answer().is_empty(), "empty factor zeroes the product");

    for (t, v) in &entries {
        inc.insert(e, t, *v).expect("re-insert");
        mirror.factors[e.index()].insert(t.clone(), *v);
        let want = solve_faq_reference(&mirror).expect("reference solve");
        assert_eq!(inc.answer(), &want, "resurrection step for tuple {t:?}");
    }
    assert_eq!(
        inc.answer(),
        &before,
        "full resurrection restores the original answer"
    );
}
