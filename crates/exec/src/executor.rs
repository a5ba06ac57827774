//! The plan-cached, multi-threaded FAQ executor.
//!
//! Scheduling model: the upward pass of Theorem G.3 is a post-order
//! reduction over the GHD, and sibling subtrees are independent work
//! units (the per-subtree star peeling of Lemma 4.1 makes the same
//! observation for the distributed protocols). The executor is the
//! threaded site of [`faqs_core::Pass`]: at every node it tries to hand
//! all but one child subtree to scoped worker threads, drawing on a
//! global thread budget (`threads - 1` tokens on a `std::sync::atomic`
//! counter — no channels, no pools, no dependencies). Whatever the
//! budget cannot absorb runs inline, so the sequential configuration
//! (`threads = 1`) is the engine's pass. Large single joins
//! additionally split their probe side by key range across workers
//! ([`faqs_relation::Relation::join_indexed_par`]).
//!
//! Determinism: child messages are folded into their parent in a fixed
//! (node-order) sequence regardless of which worker finishes first, and
//! the partitioned join emits ranges in order — so for a given plan the
//! output is bit-identical across thread counts.

use crate::cache::{CacheStats, PlanCache};
use faqs_core::{CalProbe, EngineError, Pass, PassSite, QueryPlan, Timed};
use faqs_hypergraph::NodeId;
use faqs_plan::{
    correction_fresh, CalibrationRegistry, CalibrationStats, PlannerConfig, QueryStats, StatsDigest,
};
use faqs_relation::{FaqQuery, JoinIndex, Relation};
use faqs_semiring::Semiring;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Executor tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Worker threads the upward pass may occupy, *including* the
    /// calling thread. `1` = fully sequential (the engine's behavior).
    pub threads: usize,
    /// Probe-side row count above which a single join is split by key
    /// range across idle workers.
    pub parallel_join_threshold: usize,
}

impl ExecutorConfig {
    /// A sequential configuration (identical to `solve_faq`'s pass).
    pub fn sequential() -> Self {
        ExecutorConfig {
            threads: 1,
            parallel_join_threshold: usize::MAX,
        }
    }

    /// A parallel configuration with the given thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecutorConfig {
            threads: threads.max(1),
            parallel_join_threshold: 8192,
        }
    }

    /// Resolves a raw `FAQS_EXEC_THREADS` value into a configuration.
    ///
    /// `None`, `"0"` and `"1"` select the sequential configuration;
    /// larger counts select [`ExecutorConfig::with_threads`]. An
    /// unparseable value *also* pins the sequential fallback, but
    /// returns the reason so [`ExecutorConfig::default`] can report a
    /// typo'd override instead of silently ignoring it. Pure (no
    /// environment reads), so the fallback contract is unit-testable
    /// without racing on process-global state.
    pub fn from_env_value(raw: Option<&str>) -> (Self, Option<String>) {
        let Some(raw) = raw else {
            return (ExecutorConfig::sequential(), None);
        };
        match raw.trim().parse::<usize>() {
            Ok(t) if t > 1 => (ExecutorConfig::with_threads(t), None),
            Ok(_) => (ExecutorConfig::sequential(), None),
            Err(e) => (
                ExecutorConfig::sequential(),
                Some(format!(
                    "FAQS_EXEC_THREADS={raw:?} is not a thread count ({e}); \
                     falling back to the sequential configuration"
                )),
            ),
        }
    }
}

impl Default for ExecutorConfig {
    /// Reads `FAQS_EXEC_THREADS` (used by CI to run the suite in both
    /// sequential and parallel configurations); defaults to sequential.
    /// An invalid override still falls back to sequential, but is
    /// reported once on stderr rather than silently swallowed.
    fn default() -> Self {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        let raw = std::env::var("FAQS_EXEC_THREADS").ok();
        let (cfg, warning) = ExecutorConfig::from_env_value(raw.as_deref());
        if let Some(msg) = warning {
            WARN_ONCE.call_once(|| eprintln!("faqs-exec: {msg}"));
        }
        cfg
    }
}

/// The front door for repeated FAQ traffic: caches one validated plan
/// per query shape (per statistics digest, when stats-driven planning
/// is on) and runs the upward pass across worker threads.
///
/// Every execution also *teaches* the planner: fold points record
/// predicted-vs-actual cardinalities into the executor's
/// [`CalibrationRegistry`], repeated shapes re-plan under the learned
/// per-shape correction, and an in-flight pass whose actuals leave the
/// shape's error envelope re-orders its remaining message folds
/// smallest-actual-first (the folds are commutative, so any order is a
/// safe swap point). `FAQS_PLAN_DISABLE_CALIBRATION=1` pins all of it
/// off.
#[derive(Default)]
pub struct Executor {
    cfg: ExecutorConfig,
    planner: PlannerConfig,
    cache: PlanCache,
    calibration: Arc<CalibrationRegistry>,
}

impl Executor {
    /// An executor with the given configuration, the environment's
    /// planner configuration (`FAQS_PLAN_DISABLE_STATS=1` forces
    /// structural planning) and an empty cache.
    pub fn new(cfg: ExecutorConfig) -> Self {
        Self::with_planner(cfg, PlannerConfig::default())
    }

    /// An executor with explicit planner knobs (tests and benches pin
    /// structural vs stats-driven planning regardless of environment).
    pub fn with_planner(cfg: ExecutorConfig, planner: PlannerConfig) -> Self {
        Executor {
            cfg,
            planner,
            cache: PlanCache::new(),
            calibration: Arc::new(CalibrationRegistry::new()),
        }
    }

    /// Replaces the calibration registry — shares one learning session
    /// across executors (a serving pool, an incremental maintainer), or
    /// injects [`CalibrationRegistry::forced`]/`off` in tests and
    /// benches regardless of the environment hatch.
    pub fn with_calibration(mut self, calibration: Arc<CalibrationRegistry>) -> Self {
        self.calibration = calibration;
        self
    }

    /// This executor's calibration registry.
    pub fn calibration(&self) -> &Arc<CalibrationRegistry> {
        &self.calibration
    }

    /// Calibration counters (shapes learned, samples absorbed,
    /// mid-flight re-plans triggered).
    pub fn calibration_stats(&self) -> CalibrationStats {
        self.calibration.stats()
    }

    /// Shorthand for [`Executor::new`] + [`ExecutorConfig::with_threads`].
    pub fn with_threads(threads: usize) -> Self {
        Self::new(ExecutorConfig::with_threads(threads))
    }

    /// The active configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.cfg
    }

    /// The active planner configuration.
    pub fn planner_config(&self) -> PlannerConfig {
        self.planner
    }

    /// Plan-cache counters (hits prove the GHD/validation work was
    /// skipped on repeat shapes).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Runs the upward pass on an explicitly supplied (possibly stale
    /// or deliberately mis-estimated) plan, bypassing the cache but
    /// keeping calibration telemetry and mid-flight re-planning live —
    /// the entry point the forced-drift tests drive. The plan must have
    /// been built for `q`'s shape.
    pub fn solve_on<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        plan: &QueryPlan,
    ) -> Result<Relation<S>, EngineError> {
        q.validate()
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        let digest = self
            .calibration
            .is_enabled()
            .then(|| QueryStats::of(q).digest());
        self.eval(q, plan, digest.as_ref())
    }

    /// Solves a general FAQ — the executor-backed equivalent of
    /// [`faqs_core::solve_faq`], equal on every input (sequential config
    /// runs the identical pass; parallel configs only reorder
    /// commutative work), refusing the same aggregates.
    pub fn solve<S: Semiring>(&self, q: &FaqQuery<S>) -> Result<Relation<S>, EngineError> {
        q.validate()
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        // Calibration needs the digest (its shape key), which only
        // stats-driven planning computes; structural mode stays the
        // exact pre-calibration path.
        if !self.calibration.is_enabled() || !self.planner.use_stats {
            let plan = self.cache.get_or_build(q, &self.planner);
            let plan = plan.as_ref().as_ref().map_err(Clone::clone)?;
            return self.eval(q, plan, None);
        }
        let stats = QueryStats::of(q);
        let digest = stats.digest();
        let correction = self.calibration.correction(&digest);
        // A cached plan scored under a materially different correction
        // is stale: rebuild once under the current one (the
        // `correction_fresh` hysteresis stops rebuild oscillation).
        let plan = self.cache.get_or_build_fresh(
            q,
            Some(digest.clone()),
            |p| correction_fresh(p.correction(), correction),
            || QueryPlan::build_calibrated(q, &self.planner, None, Some(&stats), correction),
        );
        let plan = plan.as_ref().as_ref().map_err(Clone::clone)?;
        self.eval(q, plan, Some(&digest))
    }

    /// Runs the one upward pass on a prebuilt plan at the [`Threaded`]
    /// site, observed under `digest` when calibration is live. Panics
    /// anywhere in the pass — a semiring operation on a poisoned value,
    /// an aggregation overflow, whether on the calling thread or a
    /// scoped worker — surface as [`EngineError::WorkerPanic`] to *this*
    /// query's caller, so one poisoned query cannot unwind through a
    /// serving pool's worker thread and take the pool down with it.
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
        let budget = AtomicUsize::new(self.cfg.threads.saturating_sub(1));
        let mut site = Threaded {
            cfg: &self.cfg,
            budget: &budget,
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass.run(&mut site)))
            .unwrap_or_else(|payload| {
                Err(EngineError::WorkerPanic(panic_message(payload.as_ref())))
            })
            .map(|(answer, _)| answer)
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

/// Takes one worker token if any is available.
fn try_acquire(budget: &AtomicUsize) -> bool {
    budget
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
        .is_ok()
}

/// Takes up to `want` tokens, returning how many were taken.
fn acquire_up_to(budget: &AtomicUsize, want: usize) -> usize {
    let mut got = 0;
    while got < want && try_acquire(budget) {
        got += 1;
    }
    got
}

/// The threaded site: sibling subtrees run on scoped workers while the
/// budget lasts (whatever it cannot absorb runs inline), and large
/// joins split their probe side. Each worker carries its own copy.
#[derive(Clone, Copy)]
struct Threaded<'e> {
    cfg: &'e ExecutorConfig,
    budget: &'e AtomicUsize,
}

impl<S: Semiring> PassSite<S> for Threaded<'_> {
    type Error = EngineError;

    fn children(
        &mut self,
        pass: &Pass<'_, S>,
        parent: NodeId,
    ) -> Result<Vec<Timed<Relation<S>>>, EngineError> {
        let children = pass.plan.children(parent);
        if children.len() <= 1 || self.cfg.threads == 1 {
            return children
                .iter()
                .map(|&c| pass.message(self, c, parent))
                .collect();
        }
        let budget = self.budget;
        std::thread::scope(|s| {
            // Offer all but the last child to the budget; stragglers run
            // inline below while the workers make progress.
            let handles: Vec<_> = children
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    (i + 1 < children.len() && try_acquire(budget)).then(|| {
                        let mut site = *self;
                        s.spawn(move || {
                            let m = pass.message(&mut site, c, parent);
                            budget.fetch_add(1, Ordering::Release);
                            m
                        })
                    })
                })
                .collect();
            // Join *every* handle before surfacing any error: an
            // unjoined panicked worker would re-raise its panic when
            // the scope closes, defeating the conversion below.
            let outcomes: Vec<_> = children
                .iter()
                .zip(handles)
                .map(|(&c, h)| match h {
                    Some(h) => h
                        .join()
                        .unwrap_or_else(|p| Err(EngineError::WorkerPanic(panic_message(&*p)))),
                    None => pass.message(self, c, parent),
                })
                .collect();
            outcomes.into_iter().collect()
        })
    }

    fn join(&mut self, cur: &Relation<S>, other: &Relation<S>, idx: &JoinIndex) -> Relation<S> {
        join_adaptive(cur, other, idx, self.cfg, self.budget)
    }
}

/// Indexed join that splits the probe side across idle workers when it
/// is large enough to amortise the spawns.
fn join_adaptive<S: Semiring>(
    cur: &Relation<S>,
    other: &Relation<S>,
    idx: &JoinIndex,
    cfg: &ExecutorConfig,
    budget: &AtomicUsize,
) -> Relation<S> {
    let extra = if cur.len() >= cfg.parallel_join_threshold {
        acquire_up_to(budget, cfg.threads.saturating_sub(1))
    } else {
        0
    };
    let out = cur.join_indexed_par(other, idx, extra + 1);
    if extra > 0 {
        budget.fetch_add(extra, Ordering::Release);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::solve_faq;
    use faqs_hypergraph::{example_h2, star_query, Var};
    use faqs_plan::CalibrationLog;
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Count};

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
    fn parallel_executor_is_deterministic() {
        let q = inst(3);
        let expected = Executor::with_threads(1).solve(&q).unwrap();
        for threads in [2usize, 4, 8] {
            let ex = Executor::with_threads(threads);
            for _ in 0..3 {
                assert_eq!(ex.solve(&q).unwrap(), expected, "threads {threads}");
            }
        }
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
    fn wide_star_parallelises_correctly() {
        // A star wide enough that several sibling subtrees really do run
        // on worker threads.
        let h = star_query(12);
        let q: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 64,
                domain: 16,
                seed: 5,
            },
            vec![],
            |_| Count(1),
        );
        let seq = solve_faq(&q).unwrap();
        assert_eq!(Executor::with_threads(4).solve(&q).unwrap(), seq);
    }

    #[test]
    fn thread_override_parsing_is_pinned() {
        // Unset and explicit sequential values: no warning.
        for raw in [None, Some("1"), Some("0")] {
            let (cfg, warn) = ExecutorConfig::from_env_value(raw);
            assert_eq!(cfg.threads, 1, "{raw:?} is sequential");
            assert!(warn.is_none());
        }
        let (cfg, warn) = ExecutorConfig::from_env_value(Some(" 8 "));
        assert_eq!(cfg.threads, 8, "whitespace-tolerant parse");
        assert!(warn.is_none());
        // Typos pin the sequential fallback *and say so*.
        for raw in ["four", "", "-2", "3.5", "2 threads"] {
            let (cfg, warn) = ExecutorConfig::from_env_value(Some(raw));
            assert_eq!(cfg.threads, 1, "{raw:?} pins the sequential fallback");
            let msg = warn.unwrap_or_else(|| panic!("{raw:?} must warn"));
            assert!(msg.contains("FAQS_EXEC_THREADS"), "names the variable");
        }
    }

    #[test]
    fn calibration_absorbs_samples_on_repeated_shapes() {
        let ex = Executor::with_planner(ExecutorConfig::sequential(), PlannerConfig::stats())
            .with_calibration(Arc::new(CalibrationRegistry::forced(f64::INFINITY)));
        let q = inst(2);
        let expected = solve_faq(&q).unwrap();
        for _ in 0..4 {
            assert_eq!(ex.solve(&q).unwrap(), expected);
        }
        let stats = ex.calibration_stats();
        assert_eq!(stats.shapes, 1, "one digest, one learned shape");
        assert!(stats.samples > 0, "fold points recorded telemetry");
        assert_eq!(stats.replans, 0, "an infinite envelope never drifts");
    }

    /// A spider: hub variable with three 2-hop legs. Each leg's hub bag
    /// folds its own factor plus the tip's message (≥2 inputs → it
    /// *observes*), and the root folds three leg messages — the shape
    /// where drift raised mid-pass can still re-order remaining work.
    fn spider(tuples: usize) -> FaqQuery<Count> {
        let mut h = faqs_hypergraph::Hypergraph::new(7);
        for leg in 0..3u32 {
            h.add_edge([Var(0), Var(1 + 2 * leg)]); // hub—mid
            h.add_edge([Var(1 + 2 * leg), Var(2 + 2 * leg)]); // mid—tip
        }
        random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: tuples,
                domain: 8,
                seed: 11,
            },
            vec![],
            |_| Count(1),
        )
    }

    #[test]
    fn forced_drift_replans_without_changing_the_answer() {
        // A stale plan: built from a sparse instance of the shape, run
        // against a dense one. The leg bags' actuals leave the
        // zero-width envelope long before the root folds its three
        // messages, so the sticky drift flag re-orders that fold — and
        // the answer must not move.
        let stale = QueryPlan::build_with(&spider(4), &PlannerConfig::stats(), None).unwrap();
        let q = spider(48);
        let expected = solve_faq(&q).unwrap();
        for threads in [1usize, 4] {
            let ex = Executor::with_planner(
                ExecutorConfig::with_threads(threads),
                PlannerConfig::stats(),
            )
            .with_calibration(Arc::new(CalibrationRegistry::forced(0.0)));
            assert_eq!(
                ex.solve_on(&q, &stale).unwrap(),
                expected,
                "threads {threads}"
            );
            let stats = ex.calibration_stats();
            assert!(
                stats.replans > 0,
                "threads {threads}: out-of-envelope actuals must force a mid-flight re-plan"
            );
        }
    }

    #[test]
    fn disabled_registry_records_nothing_and_matches_engine() {
        let ex = Executor::with_planner(ExecutorConfig::sequential(), PlannerConfig::stats())
            .with_calibration(Arc::new(CalibrationRegistry::off()));
        let q = inst(4);
        assert_eq!(ex.solve(&q).unwrap(), solve_faq(&q).unwrap());
        let stats = ex.calibration_stats();
        assert_eq!((stats.shapes, stats.samples, stats.replans), (0, 0, 0));
    }

    #[test]
    fn learned_corrections_trigger_one_fresh_rebuild() {
        // Seed the registry with a large correction for the shape, then
        // solve twice: the first call rebuilds the (previously cached)
        // plan under the learned correction, the second hits it — the
        // `correction_fresh` hysteresis stops rebuild churn. An
        // explicit forced() registry keeps the test meaningful under
        // the FAQS_PLAN_DISABLE_CALIBRATION=1 CI configuration.
        let ex = Executor::with_planner(ExecutorConfig::sequential(), PlannerConfig::stats())
            .with_calibration(Arc::new(CalibrationRegistry::forced(f64::INFINITY)));
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
        let ex = Executor::with_planner(ExecutorConfig::sequential(), PlannerConfig::stats())
            .with_calibration(Arc::new(CalibrationRegistry::forced(0.0)));
        let q = inst(8);
        let plan = QueryPlan::build_with(&q, &PlannerConfig::stats(), None).unwrap();
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
    /// of them — so the panic fires in whichever child subtrees landed
    /// on worker threads *and* the ones that ran inline.
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
        for threads in [1usize, 4] {
            let ex = Executor::with_threads(threads);
            match ex.solve(&fused_star(8, true)) {
                Err(EngineError::WorkerPanic(msg)) => {
                    assert!(msg.contains("fuse blown"), "payload captured: {msg}")
                }
                other => panic!("threads {threads}: expected WorkerPanic, got {other:?}"),
            }
            // The executor (and its cached plan) survives the poisoned
            // query: the same shape with clean data answers normally.
            let clean = fused_star(8, false);
            let ok = ex.solve(&clean).unwrap();
            assert_eq!(ok.total(), solve_faq(&clean).unwrap().total());
            assert_eq!(ex.cache_stats().hits, 1, "plan reused after the panic");
        }
    }
}
