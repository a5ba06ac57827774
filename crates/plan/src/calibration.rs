//! Self-calibration: predicted-vs-actual telemetry, per-shape
//! correction factors, and the statistical error envelope.
//!
//! The cost model's GLV-style independence estimates are systematically
//! biased on real data — correlated columns make joins denser than the
//! independence assumption predicts, sparse overlaps make them thinner.
//! The bias is a property of the *shape* of the instance (which is
//! exactly what [`StatsDigest`] buckets), so it can be learned: every
//! executor fold point records one `(predicted, actual)` cardinality
//! pair into a cheap per-plan [`CalibrationLog`], logs are aggregated
//! per digest into a [`CalibrationRegistry`], and the registry feeds a
//! multiplicative correction (`exp2` of the mean `log₂(actual /
//! predicted)` ratio) back into `CostModel::simulate` the next time the
//! shape is planned. Repeated shapes therefore get progressively better
//! estimates without any change to the estimator itself.
//!
//! The registry also fits an **error envelope** per shape: a sample
//! whose log-ratio lands outside `mean ± half_width` is evidence the
//! running plan was built on estimates that are wrong *for this
//! instance*, and the executor re-plans the remaining message folds
//! mid-flight (a safe swap point — the `⊗`-fold over child messages is
//! order-independent). The half-width follows the concentration-bound
//! recipe of the graph-dependence literature (Zhang, *When Janson meets
//! McDiarmid*): a floor of 2 (estimates within 4× are noise, not
//! drift), plus `3σ` of the observed log-ratio spread, plus a `4/√n`
//! small-sample widening so a barely-seen shape does not trigger
//! re-plans off two lucky samples. Unseen shapes get a wide default
//! (`2^±6` = 64×).
//!
//! Everything here is scoped: a registry belongs to one
//! [`Executor`](../faqs_exec/struct.Executor.html) / session /
//! distributed run, never to the process, so tests and co-resident
//! servers cannot pollute each other's corrections. A caller that wants
//! the pre-calibration engine bit for bit builds
//! [`CalibrationRegistry::off`]: corrections stay at `1.0`, no telemetry
//! is kept, and no mid-flight re-plan ever triggers.

use crate::stats::StatsDigest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Log-ratios are clamped here before entering the Welford
/// accumulator: one `predicted = 0` vs `actual = 10⁶` outlier must not
/// drag a shape's mean beyond any future sample's reach.
const LOG_RATIO_CLAMP: f64 = 32.0;

/// Corrections are clamped to `2^±8` (256×): the estimator is never
/// trusted to be wrong by more than that, and a runaway correction
/// could otherwise re-saturate estimates the cost model carefully caps
/// (the PR 6 NaN-cost bug class).
const CORRECTION_CLAMP_LOG2: f64 = 8.0;

/// The envelope floor: estimates within `4×` of reality are estimator
/// noise, not drift worth re-planning over.
const ENVELOPE_FLOOR_LOG2: f64 = 2.0;

/// Envelope half-width for shapes with no samples yet: `2^±6` (64×).
const DEFAULT_HALF_WIDTH_LOG2: f64 = 6.0;

/// One predicted-vs-actual cardinality pair from an executor fold
/// point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CalibrationSample {
    /// Dense GHD node index of the fold point.
    pub node: usize,
    /// The cost model's estimated row count for the node's relation.
    pub predicted: u64,
    /// The row count the executor actually materialised.
    pub actual: u64,
}

/// The cheap per-plan telemetry sink: fold points push samples, the
/// owner drains them into a [`CalibrationRegistry`] once the pass
/// completes. Interior mutability (a mutex around a `Vec` push) lets
/// fold points record through the shared reference the pass holds.
#[derive(Debug, Default)]
pub struct CalibrationLog {
    samples: Mutex<Vec<CalibrationSample>>,
}

impl CalibrationLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one fold point's predicted-vs-actual pair.
    pub fn record(&self, node: usize, predicted: u64, actual: u64) {
        lock(&self.samples).push(CalibrationSample {
            node,
            predicted,
            actual,
        });
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        lock(&self.samples).len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every recorded sample, leaving the log empty.
    pub fn drain(&self) -> Vec<CalibrationSample> {
        std::mem::take(&mut *lock(&self.samples))
    }
}

/// `log₂(actual / predicted)`, on `max(·, 1)` so empty relations and
/// zero estimates stay finite, clamped to `±LOG_RATIO_CLAMP`.
fn log2_ratio(predicted: u64, actual: u64) -> f64 {
    let r = (actual.max(1) as f64 / predicted.max(1) as f64).log2();
    r.clamp(-LOG_RATIO_CLAMP, LOG_RATIO_CLAMP)
}

/// Whether a plan built with correction `built` is still current under
/// `current`: rebuild only once the learned correction moved by a full
/// factor of 2 (`|log₂(current / built)| ≥ 1`). Corrections converge as
/// samples accumulate, so this hysteresis terminates — it cannot
/// oscillate a hot shape between two plans forever.
pub fn correction_fresh(built: f64, current: f64) -> bool {
    (current.max(f64::MIN_POSITIVE) / built.max(f64::MIN_POSITIVE))
        .log2()
        .abs()
        < 1.0
}

/// Welford running mean/variance over one shape's log-ratios.
#[derive(Clone, Copy, Debug, Default)]
struct ShapeCalibration {
    n: u64,
    mean: f64,
    m2: f64,
}

impl ShapeCalibration {
    fn push(&mut self, log_ratio: f64) {
        self.n += 1;
        let d = log_ratio - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (log_ratio - self.mean);
    }

    fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0).sqrt()
        }
    }

    fn correction(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.mean
                .clamp(-CORRECTION_CLAMP_LOG2, CORRECTION_CLAMP_LOG2)
                .exp2()
        }
    }

    fn half_width(&self) -> f64 {
        if self.n == 0 {
            DEFAULT_HALF_WIDTH_LOG2
        } else {
            ENVELOPE_FLOOR_LOG2.max(3.0 * self.std() + 4.0 / (self.n as f64).sqrt())
        }
    }
}

/// A shape's error envelope in `log₂(actual / predicted)` space: a
/// sample is *in envelope* iff its log-ratio lies within
/// `center ± half_width`. Samples outside it are drift — evidence the
/// running plan's estimates are wrong for this instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// The shape's mean log-ratio (`0` when unseen).
    pub center_log2: f64,
    /// Half-width around the center (see the module docs for the fit).
    pub half_width_log2: f64,
}

impl Envelope {
    /// Whether `(predicted, actual)` lies inside this envelope.
    pub fn contains(&self, predicted: u64, actual: u64) -> bool {
        (log2_ratio(predicted, actual) - self.center_log2).abs() <= self.half_width_log2
    }
}

/// Point-in-time calibration counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalibrationStats {
    /// Distinct [`StatsDigest`] shapes with at least one sample.
    pub shapes: usize,
    /// Total predicted-vs-actual samples absorbed.
    pub samples: u64,
    /// Mid-flight re-plans triggered by out-of-envelope samples.
    pub replans: u64,
}

/// The per-session calibration state: per-shape correction factors and
/// envelopes, learned from absorbed telemetry. One registry per
/// executor / serving session / distributed run — never process-global.
#[derive(Debug)]
pub struct CalibrationRegistry {
    shapes: Mutex<HashMap<StatsDigest, ShapeCalibration>>,
    samples: AtomicU64,
    replans: AtomicU64,
    enabled: bool,
    default_half_width: f64,
}

impl Default for CalibrationRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CalibrationRegistry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        Self::build(true, DEFAULT_HALF_WIDTH_LOG2)
    }

    /// A registry that never learns, never corrects and never flags
    /// drift — the pre-calibration engine.
    pub fn off() -> Self {
        Self::build(false, DEFAULT_HALF_WIDTH_LOG2)
    }

    /// A registry enabled with this default envelope half-width — for
    /// tests and benches that must drive the calibrated paths
    /// deterministically (`0.0` puts every sample on an unseen shape out
    /// of envelope, forcing a mid-flight re-plan at the first fold
    /// point).
    pub fn forced(default_half_width_log2: f64) -> Self {
        Self::build(true, default_half_width_log2.max(0.0))
    }

    fn build(enabled: bool, default_half_width: f64) -> Self {
        CalibrationRegistry {
            shapes: Mutex::new(HashMap::new()),
            samples: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            enabled,
            default_half_width,
        }
    }

    /// Whether this registry learns and corrects at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The multiplicative row-estimate correction for `digest`: `exp2`
    /// of the shape's mean log-ratio, clamped to `2^±8`; `1.0` for
    /// unseen shapes and disabled registries. Always finite and
    /// strictly positive, so it can never poison the cost model's
    /// saturation arithmetic.
    pub fn correction(&self, digest: &StatsDigest) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        lock(&self.shapes)
            .get(digest)
            .map_or(1.0, ShapeCalibration::correction)
    }

    /// Predicted-vs-actual samples absorbed for `digest` so far — `0`
    /// for unseen shapes and disabled registries. Callers use this to
    /// tell an estimate-priced quote from a measurement-backed one.
    pub fn samples_for(&self, digest: &StatsDigest) -> u64 {
        if !self.enabled {
            return 0;
        }
        lock(&self.shapes).get(digest).map_or(0, |s| s.n)
    }

    /// The error envelope for `digest` (the wide default for unseen
    /// shapes).
    pub fn envelope(&self, digest: &StatsDigest) -> Envelope {
        let map = lock(&self.shapes);
        match map.get(digest) {
            Some(s) if s.n > 0 => Envelope {
                center_log2: s.mean,
                half_width_log2: s.half_width().min(self.default_half_width.max(
                    // A forced-narrow default also narrows seen shapes;
                    // the fitted width never widens past the default's
                    // own regime unless the data demands it.
                    ENVELOPE_FLOOR_LOG2.min(self.default_half_width),
                )),
            },
            _ => Envelope {
                center_log2: 0.0,
                half_width_log2: self.default_half_width,
            },
        }
    }

    /// Absorbs one predicted-vs-actual pair for `digest`. No-op when
    /// disabled.
    pub fn observe(&self, digest: &StatsDigest, predicted: u64, actual: u64) {
        if !self.enabled {
            return;
        }
        lock(&self.shapes)
            .entry(digest.clone())
            .or_default()
            .push(log2_ratio(predicted, actual));
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains a per-plan log into `digest`'s shape. No-op when
    /// disabled.
    pub fn absorb(&self, digest: &StatsDigest, log: &CalibrationLog) {
        if !self.enabled {
            return;
        }
        let samples = log.drain();
        if samples.is_empty() {
            return;
        }
        let mut map = lock(&self.shapes);
        let shape = map.entry(digest.clone()).or_default();
        let n = samples.len() as u64;
        for s in samples {
            shape.push(log2_ratio(s.predicted, s.actual));
        }
        self.samples.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts mid-flight re-plan events (the executor calls this once
    /// per reordered fold).
    pub fn record_replans(&self, n: u64) {
        if n > 0 {
            self.replans.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CalibrationStats {
        CalibrationStats {
            shapes: lock(&self.shapes).len(),
            samples: self.samples.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
        }
    }
}

/// Locks a registry mutex, adopting a panicked holder's state (both
/// guarded values are plain accumulators, consistent after any prefix
/// of pushes).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::QueryStats;
    use faqs_relation::skewed_star_instance;

    fn digest() -> StatsDigest {
        QueryStats::of(&skewed_star_instance(3, 8)).digest()
    }

    fn other_digest() -> StatsDigest {
        QueryStats::of(&skewed_star_instance(4, 8)).digest()
    }

    #[test]
    fn unseen_shapes_are_uncorrected_and_wide() {
        let reg = CalibrationRegistry::forced(DEFAULT_HALF_WIDTH_LOG2);
        let d = digest();
        assert_eq!(reg.correction(&d), 1.0);
        let env = reg.envelope(&d);
        assert_eq!(env.center_log2, 0.0);
        assert!(env.contains(100, 100));
        assert!(env.contains(100, 6_000), "63× off is inside the default");
        assert!(!env.contains(100, 10_000), "100× off is out of envelope");
    }

    #[test]
    fn corrections_track_the_mean_log_ratio() {
        let reg = CalibrationRegistry::forced(DEFAULT_HALF_WIDTH_LOG2);
        let d = digest();
        // The model consistently over-estimates 4×: actual = predicted/4.
        for _ in 0..8 {
            reg.observe(&d, 4096, 1024);
        }
        let c = reg.correction(&d);
        assert!((c - 0.25).abs() < 1e-9, "correction must be ~0.25, got {c}");
        // A different shape is untouched.
        assert_eq!(reg.correction(&other_digest()), 1.0);
        let stats = reg.stats();
        assert_eq!(stats.shapes, 1);
        assert_eq!(stats.samples, 8);
    }

    #[test]
    fn corrections_are_clamped_and_finite() {
        let reg = CalibrationRegistry::forced(DEFAULT_HALF_WIDTH_LOG2);
        let d = digest();
        // Absurd outliers, including zero predictions.
        reg.observe(&d, 0, u64::MAX);
        reg.observe(&d, 0, u64::MAX);
        let c = reg.correction(&d);
        assert!(c.is_finite() && c > 0.0);
        assert!(c <= CORRECTION_CLAMP_LOG2.exp2(), "clamped at 2^8, got {c}");
        let env = reg.envelope(&d);
        assert!(env.center_log2.is_finite() && env.half_width_log2.is_finite());
    }

    #[test]
    fn envelope_narrows_with_consistent_samples_and_floors_at_4x() {
        let reg = CalibrationRegistry::forced(DEFAULT_HALF_WIDTH_LOG2);
        let d = digest();
        for _ in 0..100 {
            reg.observe(&d, 1000, 1000); // perfectly calibrated shape
        }
        let env = reg.envelope(&d);
        assert!(
            (env.half_width_log2 - ENVELOPE_FLOOR_LOG2).abs() < 0.5,
            "zero-variance shape sits at the floor, got {}",
            env.half_width_log2
        );
        assert!(env.contains(1000, 3900), "within 4×: noise");
        assert!(!env.contains(1000, 5000), "beyond 4×: drift");
    }

    #[test]
    fn forced_zero_envelope_flags_everything() {
        let reg = CalibrationRegistry::forced(0.0);
        let env = reg.envelope(&digest());
        assert!(!env.contains(100, 101), "forced drift for the tests");
        assert!(env.contains(100, 100), "exact match still in envelope");
    }

    #[test]
    fn off_registry_is_inert() {
        let reg = CalibrationRegistry::off();
        let d = digest();
        reg.observe(&d, 1, 1_000_000);
        let log = CalibrationLog::new();
        log.record(0, 1, 1_000_000);
        reg.absorb(&d, &log);
        assert_eq!(reg.correction(&d), 1.0);
        assert_eq!(reg.stats(), CalibrationStats::default());
    }

    #[test]
    fn absorb_drains_the_log() {
        let reg = CalibrationRegistry::forced(DEFAULT_HALF_WIDTH_LOG2);
        let log = CalibrationLog::new();
        log.record(0, 100, 200);
        log.record(1, 100, 200);
        assert_eq!(log.len(), 2);
        reg.absorb(&digest(), &log);
        assert!(log.is_empty(), "absorb consumes the samples");
        assert_eq!(reg.stats().samples, 2);
        let c = reg.correction(&digest());
        assert!((c - 2.0).abs() < 1e-9, "under-estimates push up, got {c}");
    }

    #[test]
    fn correction_freshness_has_a_factor_two_hysteresis() {
        assert!(correction_fresh(1.0, 1.0));
        assert!(correction_fresh(1.0, 1.9));
        assert!(correction_fresh(1.0, 0.55));
        assert!(!correction_fresh(1.0, 2.0));
        assert!(!correction_fresh(1.0, 0.5));
        assert!(!correction_fresh(0.25, 1.0));
        // Degenerate inputs stay total.
        assert!(!correction_fresh(0.0, 1.0) || correction_fresh(0.0, 1.0));
    }
}
