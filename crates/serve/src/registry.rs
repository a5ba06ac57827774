//! The epoch/arc-swap factor registry: mutable relations behind
//! snapshot-consistent read handles.
//!
//! Each registered query shape lives in a
//! [`SnapshotCell`]`<`[`Version`]`>`: readers (the batcher's workers,
//! the admission controller, external observers) pin an epoch-stamped
//! [`Snapshot`](faqs_relation::Snapshot) with a lock held only for an
//! `Arc` clone, while [`RelationDelta`] writers prepare the next
//! version copy-on-write *outside* any lock the readers touch and swap
//! it in. A writer
//! therefore never blocks a reader, and every query in a batch is
//! answered against one consistent epoch.
//!
//! A version is the template *and* its planner statistics, published
//! in one swap: the writer keeps exact
//! [`MaintainedQueryStats`] under its lock and folds each delta's
//! [`AppliedDelta`](faqs_relation::AppliedDelta) into them
//! (`O(|delta| · arity)`), so whoever pins epoch `e` holds epoch `e`'s
//! statistics and nothing after registration ever scans a factor to
//! learn them. The same boundary keeps the data valid: the template is
//! validated when it is registered and every delta is checked against
//! the template's domain before it is applied, hence
//! *registered ∧ every applied delta in-domain ⇒ the current version
//! is valid* — which is why a quote re-checks only the template's
//! `O(k)` structure.
//!
//! The registry also memoises the planner's cost quote per epoch —
//! admission control runs on every submit, so it must not pay a
//! planning pass per request. Quotes are *calibrated*: they carry the
//! same per-shape correction multiplier the executor plans with, so a
//! shape the cost model habitually under-prices gets admitted (or
//! rejected) on its learned cost, not its modelled one. A memoised
//! quote is reused only while the registry's correction for the
//! shape's digest stays inside the planner's hysteresis band — the
//! check is one hash lookup, never a data scan.

use crate::error::ServeError;
use faqs_core::EngineError;
use faqs_exec::Executor;
use faqs_hypergraph::{EdgeId, Var};
use faqs_plan::{
    correction_fresh, cost_quote_with_stats, CalibrationRegistry, MaintainedQueryStats, PlanCost,
    QueryStats, StatsDigest,
};
use faqs_relation::{FaqQuery, RelationDelta, SnapshotCell};
use faqs_semiring::Semiring;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Handle to a registered query shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeId(pub usize);

/// What an admission quote — and therefore the [`Answer`] it gated or
/// the [`ServeError::TooExpensive`] it produced — was priced on.
///
/// [`Answer`]: crate::Answer
/// [`ServeError::TooExpensive`]: crate::ServeError::TooExpensive
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PricedOn {
    /// No predicted-vs-actual samples exist for this shape: the quote
    /// is the cost model's raw independence estimate.
    Estimates,
    /// Calibration has absorbed fold-point measurements for this shape,
    /// so the quote carries its learned correction multiplier.
    Measurements,
}

/// One hash lookup: measurement-backed iff calibration has absorbed at
/// least one sample for the shape's digest.
fn priced_on(calibration: &CalibrationRegistry, digest: &StatsDigest) -> PricedOn {
    if calibration.samples_for(digest) > 0 {
        PricedOn::Measurements
    } else {
        PricedOn::Estimates
    }
}

/// One published version of a shape: the template and the statistics
/// that describe exactly that template, swapped in together.
#[derive(Debug)]
pub struct Version<S: Semiring> {
    /// The query template at this epoch.
    pub template: Arc<FaqQuery<S>>,
    /// Its per-factor planner statistics — equal to
    /// [`QueryStats::of`]`(&template)`, maintained delta by delta
    /// rather than scanned.
    pub stats: QueryStats,
}

/// One registered shape: the versioned template, its batching
/// parameter, the writer's lock and the per-epoch quote.
pub(crate) struct ShapeEntry<S: Semiring> {
    pub(crate) cell: SnapshotCell<Version<S>>,
    pub(crate) param: Var,
    /// Serialises read-modify-write delta application and guards the
    /// statistics the writers maintain; readers never take this lock.
    /// The counters change only after a delta has merged, by updates
    /// that cannot fail, immediately before the version they describe
    /// is published — so a holder that panicked earlier left them in
    /// step with the published template.
    writer: Mutex<MaintainedQueryStats>,
    /// The most recently priced version, plus the calibration state it
    /// was priced under.
    quote: Mutex<Option<QuoteMemo>>,
}

/// A memoised admission quote: valid while the epoch matches *and* the
/// registry's correction for `digest` stays within the planner's
/// re-plan hysteresis of `correction`.
struct QuoteMemo {
    epoch: u64,
    digest: StatsDigest,
    correction: f64,
    cost: PlanCost,
}

impl<S: Semiring> ShapeEntry<S> {
    /// The planner's calibrated cost quote for the *current* snapshot,
    /// recomputed only when a delta has landed since the last quote or
    /// calibration has learned a materially different correction for
    /// this shape (same hysteresis band as executor re-planning, so
    /// admission and planning always price with the same multiplier).
    /// Also reports whether the quote rests on raw estimates or on
    /// calibration measurements — read live on every call (one hash
    /// lookup), so the tag flips to [`PricedOn::Measurements`] as soon
    /// as telemetry lands, even while the memoised cost stays valid.
    pub(crate) fn quote(&self, executor: &Executor) -> Result<(PlanCost, PricedOn), EngineError> {
        let calibration = executor.calibration();
        let snap = self.cell.load();
        let mut cached = recover(self.quote.lock());
        if let Some(memo) = cached.as_ref() {
            if memo.epoch == snap.epoch()
                && correction_fresh(memo.correction, calibration.correction(&memo.digest))
            {
                return Ok((memo.cost, priced_on(calibration, &memo.digest)));
            }
        }
        let memo = cached.insert(price(snap.value(), snap.epoch(), executor)?);
        Ok((memo.cost, priced_on(calibration, &memo.digest)))
    }

    /// Applies a delta to one factor copy-on-write and publishes the
    /// next version with its statistics; returns its epoch. A delta for
    /// an unknown edge, of the wrong schema, or carrying a value outside
    /// the template's domain is refused before anything changes.
    /// Readers holding snapshots are untouched; concurrent writers
    /// serialise on `writer` so no read-modify-write update is lost.
    pub(crate) fn apply(&self, edge: EdgeId, delta: &RelationDelta<S>) -> Result<u64, ServeError> {
        let mut maintained = recover(self.writer.lock());
        let cur = self.cell.load();
        let template = &cur.value().template;
        let factor = template
            .factors
            .get(edge.index())
            .ok_or(ServeError::UnknownEdge(edge.index()))?;
        if factor.schema() != delta.schema() {
            return Err(ServeError::SchemaMismatch);
        }
        if !delta.fits_domain(template.domain) {
            return Err(ServeError::ValueOutOfDomain { edge });
        }
        let mut next = FaqQuery::clone(template);
        let applied = next.factors[edge.index()].apply_delta(delta);
        maintained.apply(edge, &applied);
        Ok(self.cell.store(Version {
            template: Arc::new(next),
            stats: maintained.snapshot(),
        }))
    }
}

/// The set of registered shapes. Registration is append-only;
/// `ShapeId`s are dense indices.
pub(crate) struct Registry<S: Semiring> {
    shapes: RwLock<Vec<Arc<ShapeEntry<S>>>>,
}

impl<S: Semiring> Registry<S> {
    pub(crate) fn new() -> Self {
        Registry {
            shapes: RwLock::new(Vec::new()),
        }
    }

    /// Registers a template; `param` must be free (slicing the answer
    /// on a bound variable would change semantics). This is where the
    /// data enters: the template is validated here (the one scan for
    /// out-of-domain values it ever gets), its maintained statistics
    /// are built in one pass, and it is priced from them once up front,
    /// so shapes the planner rejects outright fail at registration, not
    /// per query.
    pub(crate) fn register(
        &self,
        template: FaqQuery<S>,
        param: Var,
        executor: &Executor,
    ) -> Result<ShapeId, ServeError> {
        if param.index() >= template.hypergraph.num_vars() || !template.is_free(param) {
            return Err(ServeError::ParamNotFree(param));
        }
        template
            .validate()
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        let maintained = MaintainedQueryStats::of(&template);
        let version = Version {
            stats: maintained.snapshot(),
            template: Arc::new(template),
        };
        let quote = price(&version, 0, executor)?;
        let entry = Arc::new(ShapeEntry {
            cell: SnapshotCell::new(version),
            param,
            writer: Mutex::new(maintained),
            quote: Mutex::new(Some(quote)),
        });
        let mut shapes = match self.shapes.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        shapes.push(entry);
        Ok(ShapeId(shapes.len() - 1))
    }

    pub(crate) fn get(&self, id: ShapeId) -> Result<Arc<ShapeEntry<S>>, ServeError> {
        let shapes = match self.shapes.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        shapes
            .get(id.0)
            .cloned()
            .ok_or(ServeError::UnknownShape(id.0))
    }
}

/// Prices one version from its published statistics under the
/// executor's calibration state and planner configuration — the plan
/// that executor will run — remembering the digest and correction it
/// was priced with so later freshness checks stay O(1). No pass over
/// the factors: see the module docs for why the listings need no
/// re-validation here.
fn price<S: Semiring>(
    version: &Version<S>,
    epoch: u64,
    executor: &Executor,
) -> Result<QuoteMemo, EngineError> {
    let digest = version.stats.digest();
    let correction = executor.calibration().correction(&digest);
    Ok(QuoteMemo {
        epoch,
        correction,
        cost: cost_quote_with_stats(
            &version.template,
            &executor.planner_config(),
            &version.stats,
            correction,
        )?,
        digest,
    })
}

/// Unwraps a mutex guard, adopting the state left by a panicked holder
/// (both guarded values are consistent at every point a holder can
/// panic).
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}
