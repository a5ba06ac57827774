//! Query-level statistics and the cache digest.
//!
//! [`QueryStats`] bundles one [`RelationStats`] per factor (gathered by
//! the columnar kernel in one pass each, once per state of the factor —
//! [`Relation::stats`] memoises); [`StatsDigest`] compresses
//! them into the coarse, *scale-invariant* fingerprint the plan cache
//! keys on. The digest deliberately buckets aggressively: repeated
//! traffic of the same shape at the same rough scale must collide (one
//! plan serves it all), while an adversarially skewed instance — one
//! factor orders of magnitude larger, or a column concentrated on a few
//! hot values — lands in its own bucket and gets its own plan.

use faqs_hypergraph::EdgeId;
use faqs_relation::{AppliedDelta, FaqQuery, MaintainedStats, Relation, RelationStats};
use faqs_semiring::Semiring;

/// Per-factor statistics for one FAQ instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryStats {
    /// One entry per hyperedge, in edge order.
    pub factors: Vec<RelationStats>,
}

impl QueryStats {
    /// The statistics of every factor of `q`, read from each factor's
    /// profile: one kernel pass over a factor nothing has profiled since
    /// its rows last changed, a copy of the memo otherwise.
    pub fn of<S: Semiring>(q: &FaqQuery<S>) -> QueryStats {
        QueryStats {
            factors: q.factors.iter().map(Relation::stats).collect(),
        }
    }

    /// Bundles precomputed per-factor statistics (in edge order) — for
    /// callers that already hold them; a mutating store keeps a
    /// [`MaintainedQueryStats`] instead of re-scanning via
    /// [`QueryStats::of`].
    pub fn from_factors(factors: Vec<RelationStats>) -> QueryStats {
        QueryStats { factors }
    }

    /// The paper's `N`: the largest factor listing.
    pub fn n_max(&self) -> usize {
        self.factors.iter().map(|s| s.rows).max().unwrap_or(0)
    }

    /// The coarse cache digest of these statistics.
    pub fn digest(&self) -> StatsDigest {
        let n_max = self.n_max().max(1) as f64;
        let bucket = |x: f64| x.max(0.0).clamp(0.0, 15.0) as u8;
        StatsDigest {
            buckets: self
                .factors
                .iter()
                .map(|s| {
                    // Relative size in factor-4 buckets: 0 for every
                    // factor of a uniform instance at ANY absolute
                    // scale (duplicate-collapse jitter stays inside a
                    // bucket), ≥ 1 once one factor dwarfs another by 4×
                    // or more.
                    let rel = bucket(((n_max / s.rows.max(1) as f64).log2() / 2.0).floor());
                    // Column balance in factor-4 buckets: 0 when every
                    // column spans similarly many values (uniform data
                    // at any density), climbing once one column
                    // concentrates on 4×, 16×, … fewer values than its
                    // widest sibling — scale-invariant, unlike the raw
                    // rows-per-value skew.
                    let balance = match (s.distinct.iter().max(), s.distinct.iter().min()) {
                        (Some(&mx), Some(&mn)) => mx.max(1) as f64 / mn.max(1) as f64,
                        _ => 1.0,
                    };
                    let skew = bucket((balance.log2() / 2.0).floor());
                    (rel, skew)
                })
                .collect(),
        }
    }
}

/// Exact, incrementally maintained [`QueryStats`]: one
/// [`MaintainedStats`] per factor, built in one pass and then updated
/// in `O(arity)` per changed tuple, so a store that mutates its factors
/// by deltas (`IncrementalFaq`) keeps the planner's statistics — and
/// therefore the digest and its plan — current without ever
/// re-scanning a factor.
#[derive(Clone, Debug)]
pub struct MaintainedQueryStats {
    factors: Vec<MaintainedStats>,
}

impl MaintainedQueryStats {
    /// Builds the counters for every factor of `q` — the only full pass
    /// over the data this object ever makes.
    pub fn of<S: Semiring>(q: &FaqQuery<S>) -> Self {
        MaintainedQueryStats {
            factors: q.factors.iter().map(MaintainedStats::of).collect(),
        }
    }

    /// Folds what [`Relation::apply_delta`] reported for factor `edge`
    /// into that factor's counters.
    pub fn apply<S: Semiring>(&mut self, edge: EdgeId, applied: &AppliedDelta<S>) {
        self.factors[edge.index()].apply(applied);
    }

    /// The current statistics, equal to [`QueryStats::of`] on the
    /// mutated instance.
    pub fn snapshot(&self) -> QueryStats {
        QueryStats {
            factors: self.factors.iter().map(MaintainedStats::snapshot).collect(),
        }
    }
}

/// The plan cache's statistics fingerprint: per factor, a relative-size
/// bucket and a heavy-hitter-skew bucket (see [`QueryStats::digest`]).
/// Equal digests share one cached plan; the planner's exact statistics
/// are only consulted on the miss that builds it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StatsDigest {
    buckets: Vec<(u8, u8)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::star_query;
    use faqs_relation::{random_boolean_instance, skewed_star_instance, RandomInstanceConfig};

    #[test]
    fn uniform_instances_share_a_digest_across_seeds_and_scales() {
        let h = star_query(3);
        let digest_at = |tuples: usize, seed: u64| {
            let q = random_boolean_instance(
                &h,
                &RandomInstanceConfig {
                    tuples_per_factor: tuples,
                    domain: 16,
                    seed,
                },
                true,
            );
            QueryStats::of(&q).digest()
        };
        let base = digest_at(32, 1);
        for seed in 2..10 {
            assert_eq!(digest_at(32, seed), base, "seed jitter stays in-bucket");
        }
        // Scale invariance: 4× larger uniform traffic, same digest.
        assert_eq!(digest_at(128, 1), base);
    }

    #[test]
    fn skewed_instance_gets_its_own_digest() {
        let uniform = random_boolean_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 16,
                domain: 16,
                seed: 1,
            },
            true,
        );
        let skewed = skewed_star_instance(3, 16);
        assert_ne!(
            QueryStats::of(&uniform).digest(),
            QueryStats::of(&skewed).digest(),
            "one huge leaf must separate the cache keys"
        );
    }

    #[test]
    fn maintained_stats_equal_a_rescan_after_every_delta() {
        use faqs_relation::RelationDelta;
        use faqs_semiring::Count;
        let mut q = faqs_relation::random_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 24,
                domain: 6,
                seed: 4,
            },
            vec![],
            |_| Count(1),
        );
        let mut maintained = MaintainedQueryStats::of(&q);
        assert_eq!(maintained.snapshot().factors, QueryStats::of(&q).factors);
        for step in 0..60u32 {
            let edge = EdgeId(step % 3);
            let schema = q.factor(edge).schema().to_vec();
            let mut delta = RelationDelta::new(schema);
            // Inserts (fresh and accumulating), deletes of listed and
            // of absent rows, and a no-op set.
            delta.insert(vec![step % 6, (step * 5) % 6], Count(1));
            delta.delete(vec![(step * 7) % 6, step % 5]);
            if let Some(t) = q.factor(edge).tuples().next() {
                delta.delete(t.to_vec());
            }
            let applied = q.factors[edge.index()].apply_delta(&delta);
            maintained.apply(edge, &applied);
            let want = QueryStats::of(&q);
            assert_eq!(maintained.snapshot().factors, want.factors, "step {step}");
            assert_eq!(maintained.snapshot().digest(), want.digest());
        }
    }

    #[test]
    fn stats_expose_n_max() {
        let q = skewed_star_instance(3, 8);
        let stats = QueryStats::of(&q);
        assert_eq!(stats.n_max(), 64, "the full 8×8 leaf");
        assert_eq!(stats.factors[1].rows, 8);
    }
}
