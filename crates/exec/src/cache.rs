//! The plan cache: fingerprint → validated plan, with hit/miss
//! statistics.
//!
//! Two key tiers share one map. With statistics-driven planning, the
//! lookup key carries the instance's coarse [`StatsDigest`] — skewed
//! and uniform instances of one shape get distinct, separately-costed
//! plans. The *structural* key (digest stripped) is the fallback tier:
//! negative results — a shape that fails validation (say, an illegal
//! aggregate exchange) fails for every possible data — are cached there
//! once and replayed for any digest, so repeated traffic on a bad shape
//! costs one hash lookup instead of one GHD construction.
//!
//! The digest tier is *bounded*: digest-diverse traffic (one entry per
//! [`StatsDigest`] per shape, e.g. a long-lived service whose maintained
//! stats drift across bucket boundaries) evicts least-recently-used
//! entries past [`PlanCache::with_capacity`]'s bound. Structural
//! negative entries are pinned — they are one-per-shape (not
//! per-digest), and losing one turns a cheap replayed error back into a
//! full failed plan construction.
//!
//! [`StatsDigest`]: faqs_plan::StatsDigest

use crate::fingerprint::PlanKey;
use faqs_core::{EngineError, QueryPlan};
use faqs_plan::{PlannerConfig, QueryStats, StatsDigest};
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
    /// structural-tier occupancy (digest-free plans plus pinned
    /// negative results).
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

impl Entry {
    /// Structural negative entries are pinned: never evicted.
    fn pinned(key: &PlanKey, plan: &Result<QueryPlan, EngineError>) -> bool {
        !key.has_digest() && plan.is_err()
    }
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

    /// An empty cache holding at most `capacity` evictable entries
    /// (digest-keyed plans and structural positives). Pinned structural
    /// *negative* entries do not count against the bound. `capacity`
    /// must be at least 1.
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

    /// The cached plan for `q`, building (and validating) it on first
    /// sight. Returns a shared handle so concurrent executions replay
    /// one plan without copying the GHD.
    ///
    /// With `planner.use_stats`, the lookup key includes the instance's
    /// statistics digest, read from each factor's profile (`O(data)` for
    /// a factor nothing has profiled since its rows last changed, a memo
    /// read otherwise); callers that already maintain statistics
    /// incrementally should use [`PlanCache::get_or_build_with`] instead.
    pub fn get_or_build<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        planner: &PlannerConfig,
    ) -> Arc<Result<QueryPlan, EngineError>> {
        let digest = if planner.use_stats {
            Some(QueryStats::of(q).digest())
        } else {
            None
        };
        self.get_or_build_with(q, digest, || QueryPlan::build_with(q, planner, None))
    }

    /// [`PlanCache::get_or_build`] with the digest supplied by the
    /// caller (e.g. recomputed in `O(factors)` from maintained stats)
    /// and the plan construction abstracted into `build` — no hidden
    /// full scan of the data on either the hit or the miss path.
    ///
    /// On a digest miss the structural tier is probed for a cached
    /// *negative* result before building. Plans that fail to build with
    /// a *shape-level* error (illegal aggregate exchange, unplaceable
    /// free variables, …) are inserted under the structural key so every
    /// digest shares the one negative entry; [`EngineError::Invalid`]
    /// wraps instance validation (out-of-domain values, mismatched
    /// factor schemas) and is data-dependent, so it is never cached —
    /// the next instance of the shape may be valid.
    ///
    /// The build runs *outside* the lock: a cold, expensive shape must
    /// not stall concurrent hits on hot shapes. Two threads racing the
    /// same cold shape may both build; the first insert wins and the
    /// loser adopts it, so all callers still share one plan.
    pub fn get_or_build_with<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        digest: Option<StatsDigest>,
        build: impl FnOnce() -> Result<QueryPlan, EngineError>,
    ) -> Arc<Result<QueryPlan, EngineError>> {
        let key = PlanKey::with_digest(q, digest);
        {
            let mut map = self.lock();
            let tick = self.tick();
            if let Some(entry) = map.get_mut(&key) {
                entry.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.plan);
            }
            if key.has_digest() {
                if let Some(entry) = map.get_mut(&key.structural()) {
                    if entry.plan.is_err() {
                        // Structural-tier negative entry: the shape is
                        // invalid for any data, digest notwithstanding.
                        entry.tick = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(&entry.plan);
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        match plan.as_ref() {
            // Instance-dependent failure: do not cache (a later, valid
            // instance of this shape must not inherit the error).
            Err(EngineError::Invalid(_)) => plan,
            // Shape-level failure: one negative entry serves all
            // digests.
            Err(_) => self.insert(key.structural(), plan),
            Ok(_) => self.insert(key, plan),
        }
    }

    /// [`PlanCache::get_or_build_with`] with a *freshness* predicate: a
    /// cached positive entry that fails `fresh` is rebuilt (counted as
    /// a miss) and the rebuild *replaces* the stale entry. The
    /// calibrated executor passes "was this plan scored under (close
    /// to) the registry's current correction?" — so a shape whose
    /// learned correction has moved by more than the
    /// [`faqs_plan::correction_fresh`] hysteresis re-plans once, then
    /// settles (corrections converge as samples accumulate). Negative
    /// entries replay as in [`PlanCache::get_or_build_with`]; staleness
    /// is a positive-plan concept.
    pub fn get_or_build_fresh<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        digest: Option<StatsDigest>,
        fresh: impl Fn(&QueryPlan) -> bool,
        build: impl FnOnce() -> Result<QueryPlan, EngineError>,
    ) -> Arc<Result<QueryPlan, EngineError>> {
        let key = PlanKey::with_digest(q, digest);
        {
            let mut map = self.lock();
            let tick = self.tick();
            if let Some(entry) = map.get_mut(&key) {
                let usable = match entry.plan.as_ref() {
                    Ok(plan) => fresh(plan),
                    Err(_) => true, // negative entries have no staleness
                };
                if usable {
                    entry.tick = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(&entry.plan);
                }
            } else if key.has_digest() {
                if let Some(entry) = map.get_mut(&key.structural()) {
                    if entry.plan.is_err() {
                        entry.tick = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(&entry.plan);
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        match plan.as_ref() {
            Err(EngineError::Invalid(_)) => plan,
            Err(_) => self.insert(key.structural(), plan),
            // Replace, not first-writer-wins: the whole point of the
            // rebuild was to supersede the stale plan under this key.
            Ok(_) => self.insert_replace(key, plan),
        }
    }

    /// Inserts (first writer wins), touches, and evicts past capacity.
    fn insert(
        &self,
        key: PlanKey,
        plan: Arc<Result<QueryPlan, EngineError>>,
    ) -> Arc<Result<QueryPlan, EngineError>> {
        let mut map = self.lock();
        let tick = self.tick();
        let shared = match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                o.get_mut().tick = tick;
                Arc::clone(&o.get().plan)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                Arc::clone(&v.insert(Entry { plan, tick }).plan)
            }
        };
        self.evict_over_capacity(&mut map);
        shared
    }

    /// Inserts, overwriting any existing entry under `key` (the
    /// stale-plan replacement path of [`PlanCache::get_or_build_fresh`]).
    fn insert_replace(
        &self,
        key: PlanKey,
        plan: Arc<Result<QueryPlan, EngineError>>,
    ) -> Arc<Result<QueryPlan, EngineError>> {
        let mut map = self.lock();
        let tick = self.tick();
        let shared = Arc::clone(&plan);
        map.insert(key, Entry { plan, tick });
        self.evict_over_capacity(&mut map);
        shared
    }

    /// Evicts least-recently-used evictable entries until at most
    /// `capacity` remain. Pinned structural negatives are skipped.
    fn evict_over_capacity(&self, map: &mut HashMap<PlanKey, Entry>) {
        loop {
            let evictable = map
                .iter()
                .filter(|(k, e)| !Entry::pinned(k, &e.plan))
                .count();
            if evictable <= self.capacity {
                return;
            }
            let victim = map
                .iter()
                .filter(|(k, e)| !Entry::pinned(k, &e.plan))
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
        let planner = PlannerConfig::stats();
        let cache = PlanCache::new();
        assert_eq!(cache.stats().hits, 0);
        let a = cache.get_or_build(&inst(1), &planner);
        assert!(a.is_ok());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        // Same shape, same digest bucket, different data: a hit.
        let _ = cache.get_or_build(&inst(2), &planner);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
        // Same shape on a carrier that declares other capabilities: a
        // distinct key.
        let _ = cache.get_or_build(&inst_on(1, MinPlus::new(1.0)), &planner);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2, "counters describe traffic");
    }

    #[test]
    fn skewed_digest_gets_its_own_plan_entry() {
        use faqs_semiring::Boolean;
        let planner = PlannerConfig::stats();
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
        assert!(cache.get_or_build(&uniform, &planner).is_ok());
        assert!(cache.get_or_build(&skewed, &planner).is_ok());
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
        // Structural planning collapses both onto one key.
        let structural = PlannerConfig::structural();
        let _ = cache.get_or_build(&uniform, &structural);
        let _ = cache.get_or_build(&skewed, &structural);
        assert_eq!(cache.stats().misses, 3, "one structural-tier build");
        assert_eq!(cache.stats().hits, 1, "second structural call hits");
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(
            stats.digest_entries, 2,
            "the structural plan is digest-free"
        );
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn data_dependent_invalid_errors_are_not_cached() {
        // Regression: an out-of-domain instance fails q.validate()
        // inside planning with EngineError::Invalid — a *data* problem.
        // Caching it (under any tier) would poison every later valid
        // instance of the same shape through the public cache API.
        let planner = PlannerConfig::stats();
        let cache = PlanCache::new();
        let mut bad = inst(1);
        bad.domain = 1; // every listed tuple is now out of domain
        assert!(matches!(
            *cache.get_or_build(&bad, &planner),
            Err(EngineError::Invalid(_))
        ));
        assert_eq!(cache.stats().entries, 0, "Invalid must not be cached");
        let good = cache.get_or_build(&inst(1), &planner);
        assert!(good.is_ok(), "a valid same-shape instance must plan");
        assert_eq!(cache.stats().misses, 2, "the bad build was not reused");
    }

    #[test]
    fn negative_entries_live_in_the_structural_tier() {
        use faqs_semiring::Aggregate;
        let planner = PlannerConfig::stats();
        let cache = PlanCache::new();
        // Min on a bound variable is refused by the carrier no matter
        // the data.
        let bad = |seed: u64| inst(seed).with_aggregate(faqs_hypergraph::Var(1), Aggregate::Min);
        assert!(cache.get_or_build(&bad(1), &planner).is_err());
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
        assert!(cache.get_or_build(&skewed_bad, &planner).is_err());
        assert_eq!(
            cache.stats().misses,
            1,
            "negative entry shared across digests"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn survives_a_panicking_builder_and_a_poisoned_lock() {
        let planner = PlannerConfig::stats();
        let cache = Arc::new(PlanCache::new());

        // A builder that panics mid-build (outside the lock) must not
        // wedge the cache for later callers.
        let q = inst(1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build_with(&q, None, || panic!("builder exploded"))
        }));
        assert!(panicked.is_err());

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
        let plan = cache.get_or_build(&inst(1), &planner);
        assert!(plan.is_ok());
        assert!(!cache.map.is_poisoned(), "poison cleared");
        assert_eq!(cache.stats().entries, 1);
        let _ = cache.get_or_build(&inst(2), &planner);
        assert!(cache.stats().hits >= 1, "cache serves hits again");
    }

    #[test]
    fn capacity_holds_under_digest_churn_without_losing_pinned_negatives() {
        use faqs_semiring::Aggregate;
        let planner = PlannerConfig::stats();
        let cache = PlanCache::with_capacity(4);

        // Pin one structural negative entry first.
        let bad = inst(1).with_aggregate(faqs_hypergraph::Var(1), Aggregate::Min);
        assert!(cache.get_or_build(&bad, &planner).is_err());

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
            assert!(cache.get_or_build(&q, &planner).is_ok());
            assert!(
                cache.stats().entries <= 4 + 1,
                "cap exceeded: {} entries",
                cache.stats().entries
            );
        }

        // The pinned negative survived all the churn and still replays.
        let misses_before = cache.stats().misses;
        assert!(cache.get_or_build(&bad, &planner).is_err());
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
        assert!(cache.get_or_build(&hot, &planner).is_ok());
        assert_eq!(cache.stats().misses, misses_before, "hot entry retained");
    }
}
