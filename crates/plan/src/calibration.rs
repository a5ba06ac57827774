//! Calibration telemetry: predicted-vs-actual row counts per shape.
//!
//! The cost model's GLV-style independence estimates are biased on
//! real data — correlated columns make joins denser than the
//! independence assumption predicts, sparse overlaps make them thinner.
//! Every multi-input fold point of a pass records one `(predicted,
//! actual)` cardinality pair into a per-pass [`CalibrationLog`], and a
//! successful pass drains it into a [`CalibrationRegistry`] under the
//! instance's [`StatsDigest`]. The registry only observes:
//! [`CalibrationRegistry::correction`] reports a shape's mean estimator
//! error, and no planner, cache or session reads it back (ROADMAP
//! Measurement B: a learned correction changed no plan on any fixture).
//!
//! A registry belongs to one
//! [`Executor`](../faqs_exec/struct.Executor.html), never to the
//! process, so co-resident executors cannot pollute each other's
//! statistics.

use crate::stats::StatsDigest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Log-ratios are clamped here before entering the running mean: one
/// `predicted = 0` vs `actual = 10⁶` outlier must not drag a shape's
/// mean beyond any future sample's reach.
const LOG_RATIO_CLAMP: f64 = 32.0;

/// Reported corrections are clamped to `2^±8` (256×), so the statistic
/// stays finite and strictly positive whatever the samples were.
const CORRECTION_CLAMP_LOG2: f64 = 8.0;

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

/// The running mean of one shape's log-ratios.
#[derive(Clone, Copy, Debug, Default)]
struct ShapeCalibration {
    n: u64,
    mean: f64,
}

impl ShapeCalibration {
    fn push(&mut self, log_ratio: f64) {
        self.n += 1;
        self.mean += (log_ratio - self.mean) / self.n as f64;
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
}

/// Point-in-time calibration counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalibrationStats {
    /// Distinct [`StatsDigest`] shapes with at least one sample.
    pub shapes: usize,
    /// Total predicted-vs-actual samples absorbed.
    pub samples: u64,
}

/// Per-shape estimator-error statistics, learned from absorbed
/// telemetry. One registry per executor — never process-global.
#[derive(Debug, Default)]
pub struct CalibrationRegistry {
    shapes: Mutex<HashMap<StatsDigest, ShapeCalibration>>,
    samples: AtomicU64,
}

impl CalibrationRegistry {
    /// A fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shape's mean estimator error as a ratio: `exp2` of the mean
    /// `log₂(actual / predicted)` over every sample absorbed under
    /// `digest`, clamped to `2^±8`; `1.0` for unseen shapes. A
    /// read-only statistic: nothing plans with it.
    pub fn correction(&self, digest: &StatsDigest) -> f64 {
        lock(&self.shapes)
            .get(digest)
            .map_or(1.0, ShapeCalibration::correction)
    }

    /// Drains a per-pass log into `digest`'s shape.
    pub fn absorb(&self, digest: &StatsDigest, log: &CalibrationLog) {
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

    /// Current counters.
    pub fn stats(&self) -> CalibrationStats {
        CalibrationStats {
            shapes: lock(&self.shapes).len(),
            samples: self.samples.load(Ordering::Relaxed),
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

    /// Absorbs `n` copies of one predicted-vs-actual pair the way a
    /// pass does: through a [`CalibrationLog`].
    fn absorb(reg: &CalibrationRegistry, d: &StatsDigest, n: usize, predicted: u64, actual: u64) {
        let log = CalibrationLog::new();
        for _ in 0..n {
            log.record(0, predicted, actual);
        }
        reg.absorb(d, &log);
    }

    #[test]
    fn unseen_shapes_are_uncorrected() {
        let reg = CalibrationRegistry::new();
        let d = digest();
        assert_eq!(reg.correction(&d), 1.0);
        assert_eq!(reg.stats(), CalibrationStats::default());
    }

    #[test]
    fn corrections_track_the_mean_log_ratio() {
        let reg = CalibrationRegistry::new();
        let d = digest();
        // The model consistently over-estimates 4×: actual = predicted/4.
        absorb(&reg, &d, 8, 4096, 1024);
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
        let reg = CalibrationRegistry::new();
        let d = digest();
        // Absurd outliers, including zero predictions.
        absorb(&reg, &d, 2, 0, u64::MAX);
        let c = reg.correction(&d);
        assert!(c.is_finite() && c > 0.0);
        assert!(c <= CORRECTION_CLAMP_LOG2.exp2(), "clamped at 2^8, got {c}");
    }

    #[test]
    fn absorb_drains_the_log() {
        let reg = CalibrationRegistry::new();
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
}
