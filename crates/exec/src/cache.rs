//! The plan cache: fingerprint → validated plan, with hit/miss
//! statistics.
//!
//! One lookup, [`PlanCache::plan`], owns the whole cached planning
//! decision — key, calibration correction, freshness, negative replay
//! and the build (`faqs_plan::plan_query_calibrated`, which emits the
//! [`QueryPlan`] every site runs) — so the executor and incremental
//! sessions ask it instead of re-deriving that chain.
//!
//! Two key tiers share one map. Every plan is keyed by its shape and
//! the instance's coarse [`StatsDigest`] — skewed and uniform instances
//! of one shape get distinct, separately-costed plans. The *structural*
//! key (digest stripped) holds only negative results: a shape that
//! fails validation (say, an illegal aggregate exchange) fails for
//! every possible data, so its error is cached there once and replayed
//! for any digest, and repeated traffic on a bad shape costs one hash
//! lookup instead of one GHD construction.
//!
//! The digest tier is *bounded*: digest-diverse traffic (one entry per
//! [`StatsDigest`] per shape, e.g. a long-lived service whose maintained
//! stats drift across bucket boundaries) evicts least-recently-used
//! entries past [`PlanCache::with_capacity`]'s bound. Structural
//! negative entries are pinned — they are one-per-shape (not
//! per-digest), and losing one turns a cheap replayed error back into a
//! full failed plan construction.
//!
//! The lookup is also the one staleness rule: an `IncrementalFaq`
//! session asks it after every effective delta and re-plans exactly
//! when it hands back a different plan than the one the session holds.
//!
//! [`StatsDigest`]: faqs_plan::StatsDigest

use faqs_plan::{
    correction_fresh, plan_query_calibrated, CalibrationRegistry, EngineError, PlanKey, QueryPlan,
    QueryStats,
};
use faqs_relation::FaqQuery;
use faqs_semiring::Semiring;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from the cache.
    pub hits: u64,
    /// Calls that had to build (and validate) a plan.
    pub misses: u64,
    /// Distinct shapes currently cached (including negative entries).
    pub entries: usize,
    /// The subset of `entries` keyed in the digest tier — one plan per
    /// `(shape, StatsDigest)` bucket. `entries - digest_entries` is the
    /// structural-tier occupancy: pinned negative results.
    pub digest_entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (`0` before any traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default bound on evictable (digest-tier / positive) entries.
const DEFAULT_CAPACITY: usize = 128;

struct Entry {
    plan: Arc<Result<QueryPlan, EngineError>>,
    /// Logical last-touch time for LRU eviction.
    tick: u64,
}

/// A thread-safe map from query shape to validated plan.
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    clock: AtomicU64,
    capacity: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` evictable (digest-keyed)
    /// plans. Pinned structural *negative* entries do not count against
    /// the bound. `capacity` must be at least 1.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "plan cache capacity must be >= 1");
        PlanCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            capacity,
        }
    }

    /// Locks the map, recovering from a poisoned mutex: a thread that
    /// panicked while holding the guard may have left a half-applied
    /// insert behind, so the (rebuildable) contents are dropped once and
    /// the cache serves on — one panicking caller must not turn every
    /// subsequent query in the process into a panic.
    fn lock(&self) -> MutexGuard<'_, HashMap<PlanKey, Entry>> {
        match self.map.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.map.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The plan for `q` — the one cached, calibrated planning door.
    /// Returns a shared handle so concurrent executions replay one plan
    /// without copying the GHD.
    ///
    /// `stats` describes `q` (a fresh `QueryStats::of` or a maintained
    /// snapshot); its digest keys the lookup. Under an enabled
    /// `calibration` a cached plan is usable only while it was scored
    /// under (close to) the registry's current correction for that
    /// digest: a shape whose learned correction moved past the
    /// [`correction_fresh`] hysteresis re-plans once (counted as a
    /// miss), then settles. On a digest miss the structural tier is
    /// probed for a cached *negative* result before building. Plans
    /// that fail with a *shape-level* error (illegal aggregate exchange,
    /// unplaceable free variables, …) are cached under the structural
    /// key, so every digest shares the one negative entry;
    /// [`EngineError::Invalid`] wraps instance validation (out-of-domain
    /// values, mismatched factor schemas) and is data-dependent, so it
    /// is never cached — the next instance of the shape may be valid.
    ///
    /// The build runs *outside* the lock: a cold, expensive shape must
    /// not stall concurrent hits on hot shapes. Two threads racing the
    /// same cold shape may both build; the insert adopts a usable entry
    /// already there and replaces a stale one, so all callers still
    /// share one plan — the same `Arc` until the entry is replaced or
    /// evicted.
    pub fn plan<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        stats: &QueryStats,
        calibration: &CalibrationRegistry,
    ) -> Arc<Result<QueryPlan, EngineError>> {
        let digest = stats.digest();
        let correction = calibration.correction(&digest);
        let usable = |plan: &Result<QueryPlan, EngineError>| match plan {
            Ok(plan) => !calibration.is_enabled() || correction_fresh(plan.correction, correction),
            Err(_) => true, // negative entries have no staleness
        };
        let key = PlanKey::with_digest(q, digest);
        {
            let mut map = self.lock();
            let tick = self.tick();
            let hit = |entry: &mut Entry| {
                entry.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&entry.plan)
            };
            if let Some(entry) = map.get_mut(&key) {
                if usable(&entry.plan) {
                    return hit(entry);
                }
            } else if let Some(entry) = map.get_mut(&key.structural()) {
                // Only negatives live there: the shape is invalid for
                // any data.
                return hit(entry);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(plan_query_calibrated(q, None, Some(stats), correction));
        let key = match plan.as_ref() {
            Err(EngineError::Invalid(_)) => return plan,
            Err(_) => key.structural(),
            Ok(_) => key,
        };
        let mut map = self.lock();
        let tick = self.tick();
        let entry = map.entry(key).or_insert_with(|| Entry {
            plan: Arc::clone(&plan),
            tick,
        });
        if !usable(&entry.plan) {
            entry.plan = plan;
        }
        entry.tick = tick;
        let shared = Arc::clone(&entry.plan);
        self.evict_over_capacity(&mut map);
        shared
    }

    /// Evicts least-recently-used digest-tier entries until at most
    /// `capacity` remain. Pinned structural negatives are skipped.
    fn evict_over_capacity(&self, map: &mut HashMap<PlanKey, Entry>) {
        loop {
            let evictable = map.keys().filter(|k| k.has_digest()).count();
            if evictable <= self.capacity {
                return;
            }
            let victim = map
                .iter()
                .filter(|(k, _)| k.has_digest())
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                }
                None => return,
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let map = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: map.len(),
            digest_entries: map.keys().filter(|k| k.has_digest()).count(),
        }
    }

    /// Drops every cached plan (counters survive — they describe
    /// traffic, not contents).
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::star_query;
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Count, MinPlus};

    /// An uncalibrated lookup keyed on `q`'s scanned statistics.
    fn get<S: Semiring>(cache: &PlanCache, q: &FaqQuery<S>) -> Arc<Result<QueryPlan, EngineError>> {
        cache.plan(q, &QueryStats::of(q), &CalibrationRegistry::off())
    }

    fn inst(seed: u64) -> FaqQuery<Count> {
        inst_on(seed, Count(1))
    }

    /// The 3-star over any carrier, every listed value `one`.
    fn inst_on<S: Semiring>(seed: u64, one: S) -> FaqQuery<S> {
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
    fn hits_and_misses_count() {
        let cache = PlanCache::new();
        assert_eq!(cache.stats().hits, 0);
        let a = get(&cache, &inst(1));
        assert!(a.is_ok());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        // Same shape, same digest bucket, different data: a hit.
        let _ = get(&cache, &inst(2));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
        // Same shape on a carrier that declares other capabilities: a
        // distinct key.
        let _ = get(&cache, &inst_on(1, MinPlus::new(1.0)));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2, "counters describe traffic");
    }

    #[test]
    fn skewed_digest_gets_its_own_plan_entry() {
        use faqs_semiring::Boolean;
        let cache = PlanCache::new();
        let uniform: FaqQuery<Boolean> = faqs_relation::random_boolean_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 8,
                seed: 3,
            },
            true,
        );
        let skewed: FaqQuery<Boolean> = faqs_relation::skewed_star_instance(3, 8);
        assert!(get(&cache, &uniform).is_ok());
        assert!(get(&cache, &skewed).is_ok());
        assert_eq!(
            cache.stats().misses,
            2,
            "skewed traffic must not adopt the uniform plan"
        );
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(
            cache.stats().digest_entries,
            2,
            "both live in the digest tier"
        );
        // Each digest replays its own plan, the same shared handle.
        let (a, b) = (get(&cache, &skewed), get(&cache, &skewed));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 2, 2));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn data_dependent_invalid_errors_are_not_cached() {
        // Regression: an out-of-domain instance fails q.validate()
        // inside planning with EngineError::Invalid — a *data* problem.
        // Caching it (under any tier) would poison every later valid
        // instance of the same shape through the public cache API.
        let cache = PlanCache::new();
        let mut bad = inst(1);
        bad.domain = 1; // every listed tuple is now out of domain
        assert!(matches!(*get(&cache, &bad), Err(EngineError::Invalid(_))));
        assert_eq!(cache.stats().entries, 0, "Invalid must not be cached");
        let good = get(&cache, &inst(1));
        assert!(good.is_ok(), "a valid same-shape instance must plan");
        assert_eq!(cache.stats().misses, 2, "the bad build was not reused");
    }

    #[test]
    fn negative_entries_live_in_the_structural_tier() {
        use faqs_semiring::Aggregate;
        let cache = PlanCache::new();
        // Min on a bound variable is refused by the carrier no matter
        // the data.
        let bad = |seed: u64| inst(seed).with_aggregate(faqs_hypergraph::Var(1), Aggregate::Min);
        assert!(get(&cache, &bad(1)).is_err());
        assert_eq!(cache.stats().misses, 1);
        // A *differently-distributed* bad instance of the same shape
        // replays the structural negative entry instead of rebuilding.
        let mut skewed_bad: FaqQuery<Count> = random_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 64,
                domain: 64,
                seed: 9,
            },
            vec![],
            |_| Count(1),
        );
        skewed_bad = skewed_bad.with_aggregate(faqs_hypergraph::Var(1), Aggregate::Min);
        assert!(get(&cache, &skewed_bad).is_err());
        assert_eq!(
            cache.stats().misses,
            1,
            "negative entry shared across digests"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn survives_a_poisoned_lock() {
        let cache = Arc::new(PlanCache::new());

        // Poison the mutex itself: a thread dies while holding the
        // guard (as a panicking in-lock mutation would).
        let c2 = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = c2.map.lock().unwrap();
            panic!("die holding the plan cache lock");
        })
        .join();
        assert!(cache.map.is_poisoned(), "precondition: lock is poisoned");

        // The next call must recover (clear once, serve fresh) instead
        // of propagating the poison panic to every future query.
        let plan = get(&cache, &inst(1));
        assert!(plan.is_ok());
        assert!(!cache.map.is_poisoned(), "poison cleared");
        assert_eq!(cache.stats().entries, 1);
        let _ = get(&cache, &inst(2));
        assert!(cache.stats().hits >= 1, "cache serves hits again");
    }

    #[test]
    fn capacity_holds_under_digest_churn_without_losing_pinned_negatives() {
        use faqs_semiring::Aggregate;
        let cache = PlanCache::with_capacity(4);

        // Pin one structural negative entry first.
        let bad = inst(1).with_aggregate(faqs_hypergraph::Var(1), Aggregate::Min);
        assert!(get(&cache, &bad).is_err());

        // Churn: many distinct shapes (star arity varies), each a fresh
        // positive entry. The map must stay at capacity + the pin.
        for k in 2..20u32 {
            let q: FaqQuery<Count> = random_instance(
                &star_query(k as usize),
                &RandomInstanceConfig {
                    tuples_per_factor: 2,
                    domain: 2,
                    seed: u64::from(k),
                },
                vec![],
                |_| Count(1),
            );
            assert!(get(&cache, &q).is_ok());
            assert!(
                cache.stats().entries <= 4 + 1,
                "cap exceeded: {} entries",
                cache.stats().entries
            );
        }

        // The pinned negative survived all the churn and still replays.
        let misses_before = cache.stats().misses;
        assert!(get(&cache, &bad).is_err());
        assert_eq!(
            cache.stats().misses,
            misses_before,
            "negative entry still served from cache after churn"
        );

        // LRU, not random: the most recently used positive survives.
        let hot: FaqQuery<Count> = random_instance(
            &star_query(19),
            &RandomInstanceConfig {
                tuples_per_factor: 2,
                domain: 2,
                seed: 19,
            },
            vec![],
            |_| Count(1),
        );
        let misses_before = cache.stats().misses;
        assert!(get(&cache, &hot).is_ok());
        assert_eq!(cache.stats().misses, misses_before, "hot entry retained");
    }
}
