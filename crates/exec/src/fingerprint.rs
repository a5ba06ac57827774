//! Query fingerprints: the plan-cache key.
//!
//! Two FAQ instances share a plan exactly when they agree on everything
//! the planner looks at: the hypergraph shape, the free variables, the
//! per-bound-variable aggregates, the semiring capabilities the
//! validity checks consult (`⊗`-idempotence gates product aggregates,
//! and the carrier declares whether it admits `Max` / `Min`) — and the
//! coarse [`StatsDigest`] of the factor cardinalities. The digest is
//! scale-invariant, so uniform traffic of one shape keeps colliding onto
//! one plan, while skewed instances (one huge factor, one concentrated
//! column) get plans of their own. The *structural* key (digest
//! stripped) is the tier of negative results only — shapes that fail
//! validation no matter the data are cached there once and replayed for
//! every digest.

use faqs_plan::StatsDigest;
use faqs_relation::FaqQuery;
use faqs_semiring::{Aggregate, Semiring};

/// The fingerprint of an FAQ instance: fully structural shape equality
/// (no lossy digesting, so a hit can never alias two different shapes)
/// plus the statistics digest.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey {
    num_vars: u32,
    /// Edge vertex sets in declaration order (edges are kept sorted by
    /// the hypergraph itself, so this is canonical).
    edges: Vec<Vec<u32>>,
    /// Free variables in the query's declared (output) order.
    free: Vec<u32>,
    /// Aggregates of *bound* variables in index order; free variables
    /// are normalised to `Sum` (the engine never reads them), improving
    /// the hit rate across instances that only differ there.
    aggregates: Vec<Aggregate>,
    /// `S::IDEMPOTENT_MUL` — gates the product-aggregate check.
    idempotent_mul: bool,
    /// `S::admits(Max)` and `S::admits(Min)` — the aggregate check. A
    /// cache shared across carriers must serve neither `Count`'s plan
    /// for a `Max` query to `MinPlus` nor `MinPlus`'s refusal to `Count`.
    admits_max: bool,
    admits_min: bool,
    /// The statistics tier: `None` for structural keys, the tier
    /// negative entries live in.
    digest: Option<StatsDigest>,
}

impl PlanKey {
    /// Fingerprints `q` with its statistics digest — the key every plan
    /// is cached under.
    pub fn with_digest<S: Semiring>(q: &FaqQuery<S>, digest: StatsDigest) -> PlanKey {
        PlanKey {
            digest: Some(digest),
            ..Self::of(q)
        }
    }

    /// Fingerprints `q` structurally (no statistics tier).
    pub fn of<S: Semiring>(q: &FaqQuery<S>) -> PlanKey {
        PlanKey {
            num_vars: q.hypergraph.num_vars() as u32,
            edges: q
                .hypergraph
                .edges()
                .map(|(_, vars)| vars.iter().map(|v| v.0).collect())
                .collect(),
            free: q.free_vars.iter().map(|v| v.0).collect(),
            aggregates: q
                .hypergraph
                .vars()
                .map(|v| {
                    if q.is_free(v) {
                        Aggregate::Sum
                    } else {
                        q.aggregates[v.index()]
                    }
                })
                .collect(),
            idempotent_mul: S::IDEMPOTENT_MUL,
            admits_max: S::admits(Aggregate::Max),
            admits_min: S::admits(Aggregate::Min),
            digest: None,
        }
    }

    /// Whether this key carries a statistics digest.
    pub fn has_digest(&self) -> bool {
        self.digest.is_some()
    }

    /// The structural key negative results live under: this key with
    /// the digest stripped.
    pub fn structural(&self) -> PlanKey {
        PlanKey {
            digest: None,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{star_query, Var};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Boolean, Count, MinPlus};

    fn q(seed: u64) -> FaqQuery<Count> {
        on(seed, Count(1))
    }

    /// The 3-star over any carrier, every listed value `one`.
    fn on<S: Semiring>(seed: u64, one: S) -> FaqQuery<S> {
        random_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 4,
                domain: 3,
                seed,
            },
            vec![],
            |_| one.clone(),
        )
    }

    #[test]
    fn same_shape_different_data_collides() {
        assert_eq!(PlanKey::of(&q(1)), PlanKey::of(&q(2)));
    }

    #[test]
    fn shape_changes_separate_keys() {
        let base = PlanKey::of(&q(1));
        // Different aggregates.
        let agg = q(1).with_aggregate(Var(1), Aggregate::Product);
        assert_ne!(base, PlanKey::of(&agg));
        // Different free vars.
        let mut fv = q(1);
        fv.free_vars = vec![Var(0)];
        assert_ne!(base, PlanKey::of(&fv));
        // Different semiring capability (Boolean has idempotent ⊗).
        let qb: FaqQuery<Boolean> = faqs_relation::random_boolean_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 4,
                domain: 3,
                seed: 1,
            },
            true,
        );
        assert_ne!(base, PlanKey::of(&qb));
        // Same shape, same aggregates, same `⊗`-idempotence — but ℕ
        // admits `max` and the tropical carrier does not.
        assert_ne!(base, PlanKey::of(&on(1, MinPlus::new(1.0))));
    }

    #[test]
    fn digest_tier_separates_skew_but_not_scale() {
        use faqs_plan::QueryStats;
        let digest_of = |q: &FaqQuery<Count>| QueryStats::of(q).digest();
        let a = PlanKey::with_digest(&q(1), digest_of(&q(1)));
        let b = PlanKey::with_digest(&q(2), digest_of(&q(2)));
        assert_eq!(a, b, "seed jitter stays in one digest bucket");
        assert!(a.has_digest());
        assert_eq!(a.structural(), PlanKey::of(&q(1)));

        // A skewed instance of the same shape lands in its own tier.
        let skewed: FaqQuery<faqs_semiring::Boolean> = faqs_relation::skewed_star_instance(3, 8);
        let sk = PlanKey::with_digest(&skewed, QueryStats::of(&skewed).digest());
        let uniform: FaqQuery<faqs_semiring::Boolean> = faqs_relation::random_boolean_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 8,
                seed: 5,
            },
            true,
        );
        let un = PlanKey::with_digest(&uniform, QueryStats::of(&uniform).digest());
        assert_ne!(sk, un);
        assert_eq!(sk.structural(), un.structural(), "same shape underneath");
    }

    #[test]
    fn free_var_aggregates_are_normalised() {
        let mut a = q(1);
        a.free_vars = vec![Var(1)];
        let mut b = a.clone();
        b = b.with_aggregate(Var(1), Aggregate::Max); // free: engine ignores it
        assert_eq!(PlanKey::of(&a), PlanKey::of(&b));
    }
}
