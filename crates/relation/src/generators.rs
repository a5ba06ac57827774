//! Random instance generators for tests, benches and experiments.

use crate::query::FaqQuery;
use crate::relation::Relation;
use faqs_hypergraph::Hypergraph;
use faqs_semiring::{Boolean, Semiring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a random FAQ instance.
#[derive(Clone, Copy, Debug)]
pub struct RandomInstanceConfig {
    /// Listing size per factor (the paper's `N`, up to collisions).
    pub tuples_per_factor: usize,
    /// Uniform domain size `D`.
    pub domain: u32,
    /// RNG seed (instances are deterministic in it).
    pub seed: u64,
}

impl Default for RandomInstanceConfig {
    fn default() -> Self {
        RandomInstanceConfig {
            tuples_per_factor: 32,
            domain: 16,
            seed: 0xFA9,
        }
    }
}

/// Generates a random FAQ-SS instance over semiring `S` with values drawn
/// by `value_of(rng)`; tuples are uniform over the domain (duplicates
/// `⊕`-collapse, so listings may be slightly smaller than requested).
pub fn random_instance<S, F>(
    h: &Hypergraph,
    cfg: &RandomInstanceConfig,
    free_vars: Vec<faqs_hypergraph::Var>,
    mut value_of: F,
) -> FaqQuery<S>
where
    S: Semiring,
    F: FnMut(&mut StdRng) -> S,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let factors = h
        .edges()
        .map(|(_, vars)| {
            let pairs: Vec<(Vec<u32>, S)> = (0..cfg.tuples_per_factor)
                .map(|_| {
                    let t: Vec<u32> = vars
                        .iter()
                        .map(|_| rng.random_range(0..cfg.domain))
                        .collect();
                    (t, value_of(&mut rng))
                })
                .collect();
            Relation::from_pairs(vars.to_vec(), pairs)
        })
        .collect();
    let q = FaqQuery::new_ss(h.clone(), factors, free_vars, cfg.domain);
    q.validate().expect("generator produces valid queries");
    q
}

/// Random BCQ instance. With `satisfiable = true`, a common witness tuple
/// (all variables = 0) is planted in every factor so the answer is
/// guaranteed `true`.
pub fn random_boolean_instance(
    h: &Hypergraph,
    cfg: &RandomInstanceConfig,
    satisfiable: bool,
) -> FaqQuery<Boolean> {
    let mut q = random_instance(h, cfg, vec![], |_| Boolean::TRUE);
    if satisfiable {
        for f in &mut q.factors {
            let arity = f.schema().len();
            f.insert(vec![0; arity], Boolean::TRUE);
        }
    }
    q
}

/// A *hard* star BCQ with `k` leaves over domain `n`: every relation
/// lists all `n` center values (`(x, x mod 5)` pairs), so no upward
/// message shrinks below `n` entries under projection or aggregation —
/// the irreducible instance shared by the bound-conformance fixtures
/// and the `distributed` harness table (E15), which pin measurements
/// against it.
pub fn irreducible_star_instance(k: usize, n: u32) -> FaqQuery<Boolean> {
    assert!(n >= 5, "need the (x, x mod 5) witness pairs in-domain");
    let h = faqs_hypergraph::star_query(k);
    let mut b = crate::builder::BcqBuilder::new(&h, n as usize);
    for e in 0..k {
        b.relation_from_pairs(e, (0..n).map(|x| (x, x % 5)));
    }
    b.finish()
}

/// The *skewed* star BCQ with `k` leaves over domain `n`: leaf 1's
/// relation is the full `n × n` cross product while every other leaf
/// lists the `n` thin `(x, x mod 5)` pairs. The canonical GYO run roots
/// the star's join tree at the huge first edge, so a purely structural
/// planner seeds the upward pass with the `n²`-row factor and probes it
/// on every message fold — the adversarial instance the stats-aware
/// planner of `faqs-plan` must re-root away from. Shared by the planner
/// regression tests and the `plan-explain` harness table (E16), which
/// pin the same instance.
pub fn skewed_star_instance(k: usize, n: u32) -> FaqQuery<Boolean> {
    assert!(k >= 2, "need a thin edge to re-root onto");
    assert!(n >= 5, "need the (x, x mod 5) witness pairs in-domain");
    let h = faqs_hypergraph::star_query(k);
    let mut b = crate::builder::BcqBuilder::new(&h, n as usize);
    b.relation_from_pairs(0, (0..n * n).map(|i| (i / n, i % n)));
    for e in 1..k {
        b.relation_from_pairs(e, (0..n).map(|x| (x, x % 5)));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{star_query, Var};
    use faqs_semiring::Prob;

    #[test]
    fn random_instance_is_deterministic() {
        let h = star_query(3);
        let cfg = RandomInstanceConfig::default();
        let a: FaqQuery<Prob> =
            random_instance(&h, &cfg, vec![], |r| Prob(r.random_range(0.0..1.0)));
        let b: FaqQuery<Prob> =
            random_instance(&h, &cfg, vec![], |r| Prob(r.random_range(0.0..1.0)));
        for (x, y) in a.factors.iter().zip(b.factors.iter()) {
            assert!(x.approx_eq(y));
        }
    }

    #[test]
    fn planted_witness_makes_instance_satisfiable() {
        let h = star_query(4);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 4,
            domain: 64,
            seed: 3,
        };
        let q = random_boolean_instance(&h, &cfg, true);
        for f in &q.factors {
            assert!(f.get(&[0, 0]).is_some(), "witness planted everywhere");
        }
    }

    #[test]
    fn respects_free_vars() {
        let h = star_query(2);
        let cfg = RandomInstanceConfig::default();
        let q = random_boolean_instance(&h, &cfg, false);
        assert!(q.free_vars.is_empty());
        let q2: FaqQuery<Prob> = random_instance(&h, &cfg, vec![Var(0)], |_| Prob(1.0));
        assert_eq!(q2.free_vars, vec![Var(0)]);
    }
}
