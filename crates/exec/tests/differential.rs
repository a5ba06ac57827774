//! Differential property suite: the executor against the engine and
//! the brute-force oracle, across semirings, hypergraph shapes,
//! free-variable choices, and cache states.
//!
//! Invariants checked:
//!
//! * executor ≡ `solve_faq` ≡ `solve_faq_reference` (the structural
//!   plan) ≡ brute force, as full result *relations* (not just totals);
//! * a plan-cache hit produces a result identical to a cold plan;
//! * hit/miss counters actually move, proving the GHD/validation work is
//!   skipped on repeat shapes;
//! * the `ExecutorConfig::with_threads` shim schedules nothing: every
//!   semiring operation of a solve runs on the calling thread.

use faqs_core::{solve_faq, solve_faq_brute_force, solve_faq_reference};
use faqs_exec::{Executor, ExecutorConfig};
use faqs_hypergraph::{example_h2, path_query, star_query, Hypergraph, Var};
use faqs_relation::{random_boolean_instance, random_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};
use std::sync::Mutex;
use std::thread::ThreadId;

fn shapes() -> Vec<(&'static str, Hypergraph, Vec<Vec<Var>>)> {
    // Each shape with a handful of free-variable sets that the engine
    // can place (∅, one core-adjacent variable, one full edge).
    vec![
        (
            "star3",
            star_query(3),
            vec![vec![], vec![Var(0)], vec![Var(0), Var(1)]],
        ),
        (
            "path3",
            path_query(3),
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

/// Runs one instance through every execution strategy — the executor,
/// `solve_faq` and the structural reference — and asserts the full
/// output relations agree with brute force.
fn assert_all_agree<S: Semiring>(q: &FaqQuery<S>, ex: &Executor, label: &str) {
    let oracle = solve_faq_brute_force(q);
    let engine = solve_faq(q).unwrap_or_else(|e| panic!("{label}: engine rejected: {e}"));
    assert_eq!(engine, oracle, "{label}: engine vs brute force");
    let reference = solve_faq_reference(q).unwrap();
    assert_eq!(reference, oracle, "{label}: structural plan vs brute force");
    let got = ex
        .solve(q)
        .unwrap_or_else(|e| panic!("{label}: executor rejected: {e}"));
    assert_eq!(got, engine, "{label}: executor vs engine");
}

#[test]
fn count_instances_agree_across_strategies() {
    let ex = Executor::default();
    for (name, h, free_sets) in shapes() {
        for free in free_sets {
            for seed in 0..6 {
                let q: FaqQuery<Count> = random_instance(&h, &cfg(seed), free.clone(), |r| {
                    use rand::Rng;
                    Count(r.random_range(1..5))
                });
                assert_all_agree(&q, &ex, &format!("count/{name}/F={free:?}/s{seed}"));
            }
        }
    }
    // The executor saw one shape per (hypergraph, free set) pair and
    // replayed it across seeds: hits must dominate misses.
    let stats = ex.cache_stats();
    assert!(
        stats.hits > stats.misses,
        "expected mostly hits, got {stats:?}"
    );
}

#[test]
fn boolean_instances_agree_across_strategies() {
    let ex = Executor::default();
    for (name, h, free_sets) in shapes() {
        for free in free_sets {
            for seed in 0..6 {
                let mut q: FaqQuery<Boolean> =
                    random_boolean_instance(&h, &cfg(seed), seed % 2 == 0);
                q.free_vars = free.clone();
                assert_all_agree(&q, &ex, &format!("bool/{name}/F={free:?}/s{seed}"));
            }
        }
    }
}

#[test]
fn min_plus_instances_agree_across_strategies() {
    // Tropical semiring: min-cost joint assignments. The executor runs
    // the engine's pass, fold order included; the structural plan folds
    // in another order, but small integer costs sum exactly, so exact
    // equality is the right assertion for both.
    let ex = Executor::default();
    for (name, h, free_sets) in shapes() {
        for free in free_sets {
            for seed in 0..6 {
                let q: FaqQuery<MinPlus> = random_instance(&h, &cfg(seed), free.clone(), |r| {
                    use rand::Rng;
                    MinPlus::new(r.random_range(0..32) as f64)
                });
                assert_all_agree(&q, &ex, &format!("minplus/{name}/F={free:?}/s{seed}"));
            }
        }
    }
}

#[test]
fn lattice_entry_point_agrees() {
    use faqs_semiring::Aggregate;
    let ex = Executor::default();
    for seed in 0..6 {
        let mut q: FaqQuery<Count> = random_instance(&star_query(3), &cfg(seed), vec![], |r| {
            use rand::Rng;
            Count(r.random_range(1..5))
        });
        q = q.with_aggregate(Var(1), Aggregate::Max);
        let engine = solve_faq(&q).unwrap();
        assert_eq!(ex.solve(&q).unwrap(), engine, "seed {seed}");
    }
    let stats = ex.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 5);
}

#[test]
fn cache_hit_replays_identically_and_counts() {
    // A warm plan must produce results identical to a cold plan on
    // *different* data of the same shape, and the counters must show the
    // second call skipped planning.
    let warm = Executor::default();
    let q1: FaqQuery<Count> = random_instance(&example_h2(), &cfg(11), vec![], |r| {
        use rand::Rng;
        Count(r.random_range(1..5))
    });
    let q2: FaqQuery<Count> = random_instance(&example_h2(), &cfg(99), vec![], |r| {
        use rand::Rng;
        Count(r.random_range(1..5))
    });

    let r1 = warm.solve(&q1).unwrap();
    let before = warm.cache_stats();
    assert_eq!(before.misses, 1);
    assert_eq!(before.hits, 0);

    let r2_warm = warm.solve(&q2).unwrap();
    let after = warm.cache_stats();
    assert_eq!(after.misses, 1, "no second plan build for the same shape");
    assert_eq!(after.hits, before.hits + 1, "hit counter increments");

    // Cold executors agree with the warm one on both instances.
    let cold = Executor::default();
    assert_eq!(cold.solve(&q2).unwrap(), r2_warm, "warm plan ≡ cold plan");
    assert_eq!(cold.solve(&q1).unwrap(), r1);

    // Replaying the first instance on the warm executor still matches.
    assert_eq!(warm.solve(&q1).unwrap(), r1);
}

/// A counting carrier that records which thread ran each `⊕` / `⊗`.
#[derive(Clone, Debug, PartialEq)]
struct Traced(u64);

static TRACED_OPS: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

impl Traced {
    fn record() {
        TRACED_OPS.lock().unwrap().push(std::thread::current().id());
    }
}

impl Semiring for Traced {
    const NAME: &'static str = "traced";
    fn zero() -> Self {
        Traced(0)
    }
    fn one() -> Self {
        Traced(1)
    }
    fn add(&self, other: &Self) -> Self {
        Traced::record();
        Traced(self.0 + other.0)
    }
    fn mul(&self, other: &Self) -> Self {
        Traced::record();
        Traced(self.0 * other.0)
    }
}

#[test]
fn with_threads_shim_schedules_nothing() {
    // Shapes with sibling subtrees — a 12-leaf star, and a spider (hub
    // with three 2-hop legs): the ones a thread-scheduled pass would
    // spread over workers.
    let mut spider = Hypergraph::new(7);
    for leg in 0..3u32 {
        spider.add_edge([Var(0), Var(1 + 2 * leg)]);
        spider.add_edge([Var(1 + 2 * leg), Var(2 + 2 * leg)]);
    }
    let ex = Executor::new(ExecutorConfig::with_threads(2));
    for (name, h) in [("star12", star_query(12)), ("spider", spider)] {
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 64,
            domain: 16,
            seed: 5,
        };
        let q: FaqQuery<Traced> = random_instance(&h, &cfg, vec![], |_| Traced(1));
        let expected = solve_faq(&q).unwrap();
        TRACED_OPS.lock().unwrap().clear();
        assert_eq!(ex.solve(&q).unwrap(), expected, "{name}");
        let ops = std::mem::take(&mut *TRACED_OPS.lock().unwrap());
        assert!(!ops.is_empty(), "{name}: the solve folded something");
        let me = std::thread::current().id();
        assert!(
            ops.iter().all(|&t| t == me),
            "{name}: every ⊕ / ⊗ ran on the calling thread"
        );
    }
}
