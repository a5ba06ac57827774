//! Differential property suite: the executor against the sequential
//! engine and the brute-force oracle, across semirings, hypergraph
//! shapes, free-variable choices, thread counts, and cache states.
//!
//! Invariants checked:
//!
//! * parallel (2/4 threads) ≡ sequential executor ≡ `solve_faq` ≡ brute
//!   force, as full result *relations* (not just totals);
//! * a plan-cache hit produces a result identical to a cold plan;
//! * hit/miss counters actually move, proving the GHD/validation work is
//!   skipped on repeat shapes.

use faqs_core::{solve_faq, solve_faq_brute_force};
use faqs_exec::{Executor, ExecutorConfig};
use faqs_hypergraph::{example_h2, path_query, star_query, Hypergraph, Var};
use faqs_relation::{
    random_boolean_instance, random_instance, FaqQuery, RandomInstanceConfig, Relation,
};
use faqs_semiring::{Boolean, Count, MinPlus, Semiring};

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

/// Runs one instance through every execution strategy and asserts the
/// full output relations agree.
fn assert_all_agree<S: Semiring>(
    q: &FaqQuery<S>,
    executors: &[(&Executor, &str)],
    label: &str,
) -> Relation<S> {
    let oracle = solve_faq_brute_force(q);
    let engine = solve_faq(q).unwrap_or_else(|e| panic!("{label}: engine rejected: {e}"));
    assert_eq!(engine, oracle, "{label}: engine vs brute force");
    for (ex, name) in executors {
        let got = ex
            .solve(q)
            .unwrap_or_else(|e| panic!("{label}/{name}: executor rejected: {e}"));
        assert_eq!(got, engine, "{label}/{name}: executor vs engine");
    }
    engine
}

#[test]
fn count_instances_agree_across_strategies() {
    let seq = Executor::new(ExecutorConfig::sequential());
    let par2 = Executor::with_threads(2);
    let par4 = Executor::with_threads(4);
    let executors = [(&seq, "seq"), (&par2, "par2"), (&par4, "par4")];
    for (name, h, free_sets) in shapes() {
        for free in free_sets {
            for seed in 0..6 {
                let q: FaqQuery<Count> = random_instance(&h, &cfg(seed), free.clone(), |r| {
                    use rand::Rng;
                    Count(r.random_range(1..5))
                });
                assert_all_agree(&q, &executors, &format!("count/{name}/F={free:?}/s{seed}"));
            }
        }
    }
    // Every executor saw one shape per (hypergraph, free set) pair and
    // replayed it across seeds: hits must dominate misses.
    for (ex, name) in executors {
        let stats = ex.cache_stats();
        assert!(
            stats.hits > stats.misses,
            "{name}: expected mostly hits, got {stats:?}"
        );
    }
}

#[test]
fn boolean_instances_agree_across_strategies() {
    let seq = Executor::new(ExecutorConfig::sequential());
    let par2 = Executor::with_threads(2);
    let par4 = Executor::with_threads(4);
    let executors = [(&seq, "seq"), (&par2, "par2"), (&par4, "par4")];
    for (name, h, free_sets) in shapes() {
        for free in free_sets {
            for seed in 0..6 {
                let mut q: FaqQuery<Boolean> =
                    random_boolean_instance(&h, &cfg(seed), seed % 2 == 0);
                q.free_vars = free.clone();
                assert_all_agree(&q, &executors, &format!("bool/{name}/F={free:?}/s{seed}"));
            }
        }
    }
}

#[test]
fn min_plus_instances_agree_across_strategies() {
    // Tropical semiring: min-cost joint assignments. The executor's
    // deterministic fold order keeps float arithmetic bit-identical
    // across thread counts, so exact equality is the right assertion.
    let seq = Executor::new(ExecutorConfig::sequential());
    let par2 = Executor::with_threads(2);
    let par4 = Executor::with_threads(4);
    let executors = [(&seq, "seq"), (&par2, "par2"), (&par4, "par4")];
    for (name, h, free_sets) in shapes() {
        for free in free_sets {
            for seed in 0..6 {
                let q: FaqQuery<MinPlus> = random_instance(&h, &cfg(seed), free.clone(), |r| {
                    use rand::Rng;
                    MinPlus::new(r.random_range(0..32) as f64)
                });
                assert_all_agree(
                    &q,
                    &executors,
                    &format!("minplus/{name}/F={free:?}/s{seed}"),
                );
            }
        }
    }
}

#[test]
fn lattice_entry_point_agrees() {
    use faqs_semiring::Aggregate;
    let par = Executor::with_threads(4);
    for seed in 0..6 {
        let mut q: FaqQuery<Count> = random_instance(&star_query(3), &cfg(seed), vec![], |r| {
            use rand::Rng;
            Count(r.random_range(1..5))
        });
        q = q.with_aggregate(Var(1), Aggregate::Max);
        let engine = solve_faq(&q).unwrap();
        assert_eq!(par.solve(&q).unwrap(), engine, "seed {seed}");
    }
    let stats = par.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 5);
}

#[test]
fn cache_hit_replays_identically_and_counts() {
    // A warm plan must produce results identical to a cold plan on
    // *different* data of the same shape, and the counters must show the
    // second call skipped planning.
    let warm = Executor::with_threads(4);
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
    let cold = Executor::with_threads(4);
    assert_eq!(cold.solve(&q2).unwrap(), r2_warm, "warm plan ≡ cold plan");
    assert_eq!(cold.solve(&q1).unwrap(), r1);

    // Replaying the first instance on the warm executor still matches.
    assert_eq!(warm.solve(&q1).unwrap(), r1);
}

#[test]
fn default_config_honours_env_contract() {
    // CI runs the suite under FAQS_EXEC_THREADS ∈ {unset, 4}; both must
    // produce engine-identical results through Executor::default().
    let ex = Executor::default();
    assert!(ex.config().threads >= 1);
    for seed in 0..4 {
        let q: FaqQuery<Count> = random_instance(&path_query(3), &cfg(seed), vec![Var(0)], |r| {
            use rand::Rng;
            Count(r.random_range(1..5))
        });
        assert_eq!(ex.solve(&q).unwrap(), solve_faq(&q).unwrap(), "seed {seed}");
    }
}
