//! The plan-cached FAQ executor.
//!
//! The executor runs the one upward pass ([`faqs_core::Pass`]) at its
//! sequential site: what it adds to `solve_faq` is the plan cache, the
//! calibration loop and panic isolation. Parallelism comes from
//! independent requests (`faqs-serve`), not from threads inside a pass.

use crate::cache::{CacheStats, PlanCache};
use faqs_core::{CalProbe, EngineError, Pass, QueryPlan, Sequential};
use faqs_plan::{CalibrationRegistry, CalibrationStats, QueryStats, StatsDigest};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Semiring;
use std::sync::Arc;

/// The executor's configuration: nothing is left to set. The type and
/// its two constructors survive because `benchmark/` compiles against
/// them.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecutorConfig;

impl ExecutorConfig {
    /// The one configuration (identical to `solve_faq`'s pass).
    pub fn sequential() -> Self {
        ExecutorConfig
    }

    /// Shim for `benchmark/`, which still asks for two threads: the
    /// pass is never thread-scheduled, so this is
    /// [`ExecutorConfig::sequential`]. Like the three `lattice` shims
    /// of `faqs-plan`, dropped at the next `[benchmark]` revision
    /// (ROADMAP 8d).
    #[doc(hidden)]
    pub fn with_threads(_threads: usize) -> Self {
        ExecutorConfig
    }
}

/// The front door for repeated FAQ traffic: caches one validated plan
/// per query shape and statistics digest and runs the upward pass.
///
/// Every execution also *teaches* the planner: fold points record
/// predicted-vs-actual cardinalities into the executor's
/// [`CalibrationRegistry`], and repeated shapes re-plan under the
/// learned per-shape correction. A running pass folds in plan order;
/// only the next plan of the shape reads what it taught.
/// [`CalibrationRegistry::off`] pins all of it off.
#[derive(Default)]
pub struct Executor {
    cache: PlanCache,
    calibration: Arc<CalibrationRegistry>,
}

impl Executor {
    /// An executor with an empty cache and an enabled calibration
    /// registry; `_cfg` carries nothing (see [`ExecutorConfig`]), so
    /// this is [`Executor::default`].
    pub fn new(_cfg: ExecutorConfig) -> Self {
        Self::default()
    }

    /// Replaces the calibration registry — shares one learning session
    /// across executors (a serving pool, an incremental maintainer), or
    /// injects [`CalibrationRegistry::off`] in tests and benches.
    pub fn with_calibration(mut self, calibration: Arc<CalibrationRegistry>) -> Self {
        self.calibration = calibration;
        self
    }

    /// This executor's calibration registry.
    pub fn calibration(&self) -> &Arc<CalibrationRegistry> {
        &self.calibration
    }

    /// Calibration counters (shapes learned, samples absorbed).
    pub fn calibration_stats(&self) -> CalibrationStats {
        self.calibration.stats()
    }

    /// Plan-cache counters (hits prove the GHD/validation work was
    /// skipped on repeat shapes).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Runs the upward pass on an explicitly supplied (possibly stale
    /// or deliberately mis-estimated) plan, bypassing the cache but
    /// keeping calibration telemetry live — the entry point the
    /// stale-plan and cross-site tests drive. A plan built for another
    /// hypergraph, free-variable list or aggregate set is refused with
    /// [`EngineError::Invalid`] ([`QueryPlan::check_query`]).
    pub fn solve_on<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        plan: &QueryPlan,
    ) -> Result<Relation<S>, EngineError> {
        q.validate()
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        plan.check_query(q)?;
        let digest = self
            .calibration
            .is_enabled()
            .then(|| QueryStats::of(q).digest());
        self.eval(q, plan, digest.as_ref())
    }

    /// Solves a general FAQ — the executor-backed equivalent of
    /// [`faqs_core::solve_faq`], equal on every input (it runs the
    /// identical pass), refusing the same aggregates.
    pub fn solve<S: Semiring>(&self, q: &FaqQuery<S>) -> Result<Relation<S>, EngineError> {
        q.validate()
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        let stats = QueryStats::of(q);
        let plan = self.cache.plan(q, &stats, &self.calibration);
        let plan = plan.as_ref().as_ref().map_err(Clone::clone)?;
        // Calibration observes under the digest, its shape key.
        self.eval(q, plan, Some(&stats.digest()))
    }

    /// Runs the one upward pass on a prebuilt plan at the [`Sequential`]
    /// site, observed under `digest` when calibration is live. Panics
    /// anywhere in the pass — a semiring operation on a poisoned value,
    /// an aggregation overflow — surface as [`EngineError::WorkerPanic`]
    /// to *this* query's caller, so one poisoned query cannot unwind
    /// through a serving pool's worker thread and take the pool down
    /// with it.
    fn eval<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        plan: &QueryPlan,
        digest: Option<&StatsDigest>,
    ) -> Result<Relation<S>, EngineError> {
        let probe = digest.and_then(|d| CalProbe::new(&self.calibration, d, plan));
        let pass = Pass {
            q,
            plan,
            probe: probe.as_ref(),
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let Ok((answer, _)) = pass.run(&mut Sequential);
            answer
        }))
        .map_err(|payload| EngineError::WorkerPanic(panic_message(payload.as_ref())))
    }
}

/// Renders a caught panic payload for [`EngineError::WorkerPanic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::solve_faq;
    use faqs_hypergraph::{example_h2, star_query};
    use faqs_plan::{plan_query_calibrated, CalibrationLog};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Count};

    /// The planner's plan for `q`, bypassing the cache.
    fn stats_plan<S: Semiring>(q: &FaqQuery<S>) -> QueryPlan {
        plan_query_calibrated(q, None, None, 1.0).unwrap()
    }

    fn inst(seed: u64) -> FaqQuery<Count> {
        random_instance(
            &example_h2(),
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 4,
                seed,
            },
            vec![],
            |_| Count(2),
        )
    }

    #[test]
    fn sequential_executor_matches_engine() {
        let ex = Executor::new(ExecutorConfig::sequential());
        for seed in 0..10 {
            let q = inst(seed);
            assert_eq!(ex.solve(&q).unwrap(), solve_faq(&q).unwrap(), "seed {seed}");
        }
        let stats = ex.cache_stats();
        assert_eq!(stats.misses, 1, "one shape, one plan build");
        assert_eq!(stats.hits, 9);
    }

    #[test]
    fn executor_rejects_invalid_instances() {
        let mut q = inst(1);
        q.factors.pop();
        assert!(matches!(
            Executor::default().solve(&q),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn cached_error_replays_without_rebuilding() {
        let ex = Executor::default();
        let q = inst(1).with_aggregate(faqs_hypergraph::Var(1), Aggregate::Min);
        for _ in 0..3 {
            assert!(matches!(
                ex.solve(&q),
                Err(EngineError::RefusedAggregate(..))
            ));
        }
        let stats = ex.cache_stats();
        assert_eq!(stats.misses, 1, "negative entry cached");
        assert_eq!(stats.hits, 2);
        // An aggregate the carrier admits is a different shape and succeeds.
        let q = inst(1).with_aggregate(faqs_hypergraph::Var(1), Aggregate::Max);
        assert!(ex.solve(&q).is_ok());
        assert_eq!(ex.cache_stats().entries, 2);
    }

    #[test]
    fn calibration_absorbs_samples_on_repeated_shapes() {
        let ex = Executor::default().with_calibration(Arc::new(CalibrationRegistry::new()));
        let q = inst(2);
        let expected = solve_faq(&q).unwrap();
        for _ in 0..4 {
            assert_eq!(ex.solve(&q).unwrap(), expected);
        }
        let stats = ex.calibration_stats();
        assert_eq!(stats.shapes, 1, "one digest, one learned shape");
        assert!(stats.samples > 0, "fold points recorded telemetry");
    }

    #[test]
    fn disabled_registry_records_nothing_and_matches_engine() {
        let ex = Executor::default().with_calibration(Arc::new(CalibrationRegistry::off()));
        let q = inst(4);
        assert_eq!(ex.solve(&q).unwrap(), solve_faq(&q).unwrap());
        let stats = ex.calibration_stats();
        assert_eq!((stats.shapes, stats.samples), (0, 0));
    }

    #[test]
    fn learned_corrections_trigger_one_fresh_rebuild() {
        // Seed the registry with a large correction for the shape, then
        // solve twice: the first call rebuilds the (previously cached)
        // plan under the learned correction, the second hits it — the
        // `correction_fresh` hysteresis stops rebuild churn.
        let ex = Executor::default().with_calibration(Arc::new(CalibrationRegistry::new()));
        let q = inst(6);
        let expected = solve_faq(&q).unwrap();
        assert_eq!(ex.solve(&q).unwrap(), expected);
        assert_eq!(ex.cache_stats().misses, 1);
        let digest = QueryStats::of(&q).digest();
        let log = CalibrationLog::new();
        for _ in 0..32 {
            log.record(0, 16, 1 << 14); // actuals 1024× the prediction
        }
        ex.calibration().absorb(&digest, &log);
        assert!(ex.calibration().correction(&digest) > 2.0);
        assert_eq!(ex.solve(&q).unwrap(), expected);
        assert_eq!(ex.cache_stats().misses, 2, "stale plan rebuilt once");
        assert_eq!(ex.solve(&q).unwrap(), expected);
        assert_eq!(ex.cache_stats().misses, 2, "fresh plan replays");
    }

    #[test]
    fn solve_on_runs_telemetry_against_a_supplied_plan() {
        let ex = Executor::default().with_calibration(Arc::new(CalibrationRegistry::new()));
        let q = inst(8);
        let plan = stats_plan(&q);
        assert_eq!(ex.solve_on(&q, &plan).unwrap(), solve_faq(&q).unwrap());
        let stats = ex.calibration_stats();
        assert!(stats.samples > 0, "supplied-plan path still observes");
        assert_eq!(ex.cache_stats().misses, 0, "cache bypassed");
    }

    /// A counting semiring whose `⊕` detonates on a sentinel value —
    /// the injection vector for the worker-panic tests.
    #[derive(Clone, Debug, PartialEq)]
    struct Fused(u64);

    const FUSE: u64 = u64::MAX;

    impl Semiring for Fused {
        const NAME: &'static str = "fused";
        fn zero() -> Self {
            Fused(0)
        }
        fn one() -> Self {
            Fused(1)
        }
        fn add(&self, other: &Self) -> Self {
            assert!(self.0 != FUSE && other.0 != FUSE, "fuse blown in ⊕");
            Fused(self.0 + other.0)
        }
        fn mul(&self, other: &Self) -> Self {
            assert!(self.0 != FUSE && other.0 != FUSE, "fuse blown in ⊗");
            Fused(self.0 * other.0)
        }
    }

    /// A wide star over `Fused`; every leaf carries two rows that the
    /// push-down must `⊕`-merge, and `poisoned` plants the fuse in all
    /// of them — so the panic fires in the first child subtree the pass
    /// reaches.
    fn fused_star(k: usize, poisoned: bool) -> FaqQuery<Fused> {
        let h = star_query(k);
        let factors = (1..=k)
            .map(|i| {
                let v = if poisoned { FUSE } else { 1 };
                faqs_relation::Relation::from_pairs(
                    vec![faqs_hypergraph::Var(0), faqs_hypergraph::Var(i as u32)],
                    [(vec![0, 0], Fused(1)), (vec![0, 1], Fused(v))],
                )
            })
            .collect();
        FaqQuery::new_ss(h, factors, vec![], 2)
    }

    #[test]
    fn worker_panic_is_an_error_not_a_crash() {
        let ex = Executor::default();
        match ex.solve(&fused_star(8, true)) {
            Err(EngineError::WorkerPanic(msg)) => {
                assert!(msg.contains("fuse blown"), "payload captured: {msg}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The executor (and its cached plan) survives the poisoned
        // query: the same shape with clean data answers normally.
        let clean = fused_star(8, false);
        let ok = ex.solve(&clean).unwrap();
        assert_eq!(ok.total(), solve_faq(&clean).unwrap().total());
        assert_eq!(ex.cache_stats().hits, 1, "plan reused after the panic");
    }
}
