//! Incremental FAQ serving: mutable factors with delta-maintained
//! answers.
//!
//! [`IncrementalFaq`] owns one FAQ instance and keeps its answer (plus
//! every upward message of the pass) up to date under batched factor
//! mutations ([`faqs_relation::RelationDelta`]), instead of re-running
//! `solve_faq` from scratch per update. Every evaluation is the one
//! upward pass ([`Pass::run`]) at the `Stored` site; after a mutation
//! it runs along the mutated factor's root path only, and every clean
//! sibling answers with its stored message.
//!
//! * **Inverse mode** — when the semiring has (partial) additive
//!   inverses (`Semiring::HAS_ADDITIVE_INVERSE`: Count, GF(2), Prob)
//!   and every bound variable is `Sum`-aggregated, the pass is
//!   multilinear in each factor: run with the mutated factor replaced
//!   by a delta, it delivers the delta of every message on the path and
//!   of the answer. The touched tuples' new and old annotations make
//!   two small relations `Δ⁺`/`Δ⁻`, one pass for each that has tuples,
//!   and every stored message on the path and the answer take the
//!   signed merge `base ⊕ Δ⁺ ⊖ Δ⁻`
//!   ([`faqs_relation::Relation::signed_apply`]), all or nothing.
//! * **Dirty-subtree mode** — semirings without inverses (Min-Plus,
//!   Boolean, Max-Prod) or non-`Sum` bound aggregates re-run the pass
//!   on the mutated factor itself and store what it delivers.
//!
//! Factor statistics are maintained incrementally too
//! ([`faqs_relation::MaintainedStats`] — no full re-scan per update).
//! After every effective delta the session asks the shared [`PlanCache`]
//! for the current statistics' plan, and re-plans exactly when the
//! cache hands back a different plan than the one it holds: the
//! statistics crossed a [`StatsDigest`] bucket boundary, an attached
//! registry's learned correction left the plan's hysteresis band, or a
//! sibling session on the same cache already re-planned. The cache's
//! rule is the only staleness rule.
//! [`IncrementalStats`] counts exactly which of these events happened;
//! the tests pin the serving invariants (one single-tuple insert on a
//! 100k-tuple instance: no stats re-scan, no full upward pass).

use crate::cache::PlanCache;
use faqs_core::{CalProbe, EngineError, Factors, Pass, PassSite, QueryPlan, Timed};
use faqs_hypergraph::{EdgeId, NodeId};
use faqs_plan::{CalibrationRegistry, MaintainedQueryStats, StatsDigest};
use faqs_relation::{AppliedDelta, FaqQuery, Relation, RelationDelta};
use faqs_semiring::{Aggregate, Semiring};
use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Deref;
use std::sync::Arc;

/// How an [`IncrementalFaq`] session maintains its answer under factor
/// mutations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaintenanceMode {
    /// Passes along the root path, the mutated factor swapped for its
    /// delta, land by signed merges; clean subtrees are untouched.
    Inverse,
    /// Re-run the pass along the mutated factor's root path, reusing
    /// clean siblings' stored messages.
    DirtySubtree,
}

/// A plan-cache entry known to be `Ok`: [`SessionPlan::new`] is the only
/// way to build one, so a session reads its plan without re-checking.
#[derive(Clone)]
struct SessionPlan(Arc<Result<QueryPlan, EngineError>>);

impl SessionPlan {
    fn new(plan: Arc<Result<QueryPlan, EngineError>>) -> Result<Self, EngineError> {
        match plan.as_ref() {
            Ok(_) => Ok(SessionPlan(plan)),
            Err(e) => Err(e.clone()),
        }
    }
}

impl Deref for SessionPlan {
    type Target = QueryPlan;

    fn deref(&self) -> &QueryPlan {
        match self.0.as_ref() {
            Ok(plan) => plan,
            Err(_) => unreachable!("SessionPlan::new admits only Ok plans"),
        }
    }
}

/// Work counters of one [`IncrementalFaq`] session — the observable
/// evidence that maintenance really is incremental.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Full per-factor statistics scans (construction only, unless a
    /// factor is replaced wholesale).
    pub full_stats_scans: u64,
    /// Incremental statistics merges (one per effective delta).
    pub delta_stats_merges: u64,
    /// Factor delta applications.
    pub delta_applies: u64,
    /// GHD nodes recombined from stored parts by the dirty-subtree
    /// path (never incremented by pure inverse propagation).
    pub node_recomputes: u64,
    /// Full upward passes (construction and plan rebuilds).
    pub full_upward_passes: u64,
    /// Re-plans: each time the plan cache handed back a plan other than
    /// the session's own.
    pub plan_rebuilds: u64,
    /// The re-plans at an unchanged statistics digest (a subset of
    /// `plan_rebuilds`): the shared [`CalibrationRegistry`] moved this
    /// shape's correction past the `correction_fresh` hysteresis, here
    /// or in a sibling session that already re-planned.
    pub calibration_replans: u64,
    /// Inverse propagations that hit an unrepresentable cancellation
    /// and fell back to the dirty-subtree path: a `Count` saturated at
    /// `u64::MAX` may stand for any larger count, so nothing cancels
    /// from it (GF(2) and Prob always answer).
    pub cancellation_fallbacks: u64,
}

/// A serving session over one mutable FAQ instance: apply factor
/// deltas, read the maintained answer.
///
/// ```
/// use faqs_exec::IncrementalFaq;
/// use faqs_hypergraph::{path_query, EdgeId, Var};
/// use faqs_relation::{FaqQuery, Relation};
/// use faqs_semiring::Count;
///
/// let q = FaqQuery::new_ss(
///     path_query(2),
///     vec![
///         Relation::from_pairs(vec![Var(0), Var(1)], [(vec![0, 1], Count(1))]),
///         Relation::from_pairs(vec![Var(1), Var(2)], [(vec![1, 2], Count(1))]),
///     ],
///     vec![],
///     4,
/// );
/// let mut faq = IncrementalFaq::new(q).unwrap();
/// assert_eq!(faq.answer().total(), Count(1));
/// faq.insert(EdgeId(1), &[1, 3], Count(1)).unwrap(); // second path
/// assert_eq!(faq.answer().total(), Count(2));
/// faq.delete(EdgeId(0), &[0, 1]).unwrap(); // no paths left
/// assert_eq!(faq.answer().total(), Count(0));
/// ```
pub struct IncrementalFaq<S: Semiring> {
    query: FaqQuery<S>,
    cache: Arc<PlanCache>,
    plan: SessionPlan,
    digest: StatsDigest,
    /// Incrementally maintained per-factor statistics, digest drift's
    /// input (no full factor re-scan per update).
    stats: MaintainedQueryStats,
    /// Per node (dense by `NodeId` index): the upward message to its
    /// parent as the pass last delivered it (empty at the root).
    msg: Vec<Relation<S>>,
    answer: Relation<S>,
    mode: MaintenanceMode,
    counters: IncrementalStats,
    /// Calibration telemetry sink and correction source. Defaults to
    /// [`CalibrationRegistry::off`]: a session replays one instance, so
    /// self-calibration would chase its own digest-drift re-plans;
    /// serving stacks opt in via [`IncrementalFaq::with_calibration`]
    /// to share an executor's registry, and every recompute then feeds
    /// predicted-vs-actual samples back into it.
    calibration: Arc<CalibrationRegistry>,
}

impl<S: Semiring> IncrementalFaq<S> {
    /// Starts a session with a private plan cache.
    pub fn new(query: FaqQuery<S>) -> Result<Self, EngineError> {
        Self::with_cache(query, Arc::new(PlanCache::new()))
    }

    /// Starts a session on a shared plan cache (re-plans go through the
    /// same cache, so sessions on one digest share plans).
    pub fn with_cache(query: FaqQuery<S>, cache: Arc<PlanCache>) -> Result<Self, EngineError> {
        query
            .validate()
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        let stats = MaintainedQueryStats::of(&query);
        let counters = IncrementalStats {
            full_stats_scans: query.factors.len() as u64,
            ..IncrementalStats::default()
        };
        let calibration = Arc::new(CalibrationRegistry::off());
        let snapshot = stats.snapshot();
        let plan = SessionPlan::new(cache.plan(&query, &snapshot, &calibration))?;
        let digest = snapshot.digest();
        let mode = Self::choose_mode(&query);
        let answer = Relation::new(query.free_vars.clone());
        let mut session = IncrementalFaq {
            query,
            cache,
            plan,
            digest,
            stats,
            msg: Vec::new(),
            answer,
            mode,
            counters,
            calibration,
        };
        session.full_recompute();
        Ok(session)
    }

    /// Attaches a shared [`CalibrationRegistry`]: recomputes feed their
    /// predicted-vs-actual pairs into it, and [`IncrementalFaq::apply`]
    /// re-plans (once per hysteresis-sized correction shift) when the
    /// registry's learned correction for this shape moves materially.
    pub fn with_calibration(mut self, calibration: Arc<CalibrationRegistry>) -> Self {
        self.calibration = calibration;
        self
    }

    /// This session's calibration registry.
    pub fn calibration(&self) -> &Arc<CalibrationRegistry> {
        &self.calibration
    }

    /// The maintained answer relation over the free variables.
    pub fn answer(&self) -> &Relation<S> {
        &self.answer
    }

    /// The current (mutated) instance.
    pub fn query(&self) -> &FaqQuery<S> {
        &self.query
    }

    /// The maintenance strategy this session runs.
    pub fn mode(&self) -> MaintenanceMode {
        self.mode
    }

    /// Work counters since construction.
    pub fn counters(&self) -> IncrementalStats {
        self.counters
    }

    /// Counters of the underlying plan cache.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Applies a batched delta to one factor and brings the answer (and
    /// every stored intermediate) up to date. The mutation itself is a
    /// single linear merge over the factor's sorted arena; answer
    /// maintenance then follows [`IncrementalFaq::mode`].
    pub fn apply(&mut self, edge: EdgeId, delta: &RelationDelta<S>) -> Result<(), EngineError> {
        self.check_edge(edge)?;
        if delta.schema() != self.query.factor(edge).schema() {
            return Err(EngineError::Invalid(format!(
                "delta schema {:?} does not match factor e{} schema {:?}",
                delta.schema(),
                edge.index(),
                self.query.factor(edge).schema()
            )));
        }
        if !delta.fits_domain(self.query.domain) {
            return Err(EngineError::Invalid(format!(
                "delta tuple outside the domain 0..{}",
                self.query.domain
            )));
        }
        let applied = self.query.factors[edge.index()].apply_delta(delta);
        self.counters.delta_applies += 1;
        if applied.is_empty() {
            return Ok(());
        }
        self.stats.apply(edge, &applied);
        self.counters.delta_stats_merges += 1;
        if self.replan_if_stale()? {
            return Ok(());
        }
        match self.mode {
            MaintenanceMode::DirtySubtree => self.recompute_path(edge),
            MaintenanceMode::Inverse => {
                if self.propagate_inverse(edge, &applied).is_none() {
                    self.counters.cancellation_fallbacks += 1;
                    self.recompute_path(edge);
                }
            }
        }
        Ok(())
    }

    /// Single-tuple convenience: `⊕`-accumulates `value` onto `tuple`
    /// in `edge`'s factor (an insert when absent).
    pub fn insert(&mut self, edge: EdgeId, tuple: &[u32], value: S) -> Result<(), EngineError> {
        self.check_edge(edge)?;
        let mut d = RelationDelta::new(self.query.factor(edge).schema().to_vec());
        d.insert(tuple.to_vec(), value);
        self.apply(edge, &d)
    }

    /// Single-tuple convenience: deletes `tuple` from `edge`'s factor
    /// (a no-op when absent).
    pub fn delete(&mut self, edge: EdgeId, tuple: &[u32]) -> Result<(), EngineError> {
        self.check_edge(edge)?;
        let mut d = RelationDelta::new(self.query.factor(edge).schema().to_vec());
        d.delete(tuple.to_vec());
        self.apply(edge, &d)
    }

    fn check_edge(&self, edge: EdgeId) -> Result<(), EngineError> {
        if edge.index() >= self.query.factors.len() {
            return Err(EngineError::Invalid(format!(
                "no factor for edge e{}",
                edge.index()
            )));
        }
        Ok(())
    }

    /// Inverse-mode eligibility: partial additive inverses and a purely
    /// `Sum`-aggregated bound side (the answer is then multilinear in
    /// every factor). A `Product` aggregate anywhere breaks linearity,
    /// so such queries take the dirty-subtree path.
    fn choose_mode(q: &FaqQuery<S>) -> MaintenanceMode {
        let all_sum = q
            .hypergraph
            .vars()
            .all(|v| q.is_free(v) || matches!(q.aggregates[v.index()], Aggregate::Sum));
        if S::HAS_ADDITIVE_INVERSE && all_sum {
            MaintenanceMode::Inverse
        } else {
            MaintenanceMode::DirtySubtree
        }
    }

    /// Asks the cache for the plan of the *maintained* statistics (no
    /// `QueryStats::of` factor scan) under the attached registry, and
    /// adopts it with a full recompute iff it is not the session's own
    /// plan — [`PlanCache::plan`] alone decides staleness. A re-plan at
    /// an unchanged digest is a calibration re-plan. Returns whether
    /// that happened.
    fn replan_if_stale(&mut self) -> Result<bool, EngineError> {
        let stats = self.stats.snapshot();
        let plan = self.cache.plan(&self.query, &stats, &self.calibration);
        if Arc::ptr_eq(&plan, &self.plan.0) {
            return Ok(false);
        }
        let digest = stats.digest();
        self.counters.plan_rebuilds += 1;
        if digest == self.digest {
            self.counters.calibration_replans += 1;
        }
        self.plan = SessionPlan::new(plan)?;
        self.digest = digest;
        self.full_recompute();
        Ok(true)
    }

    /// The nodes from `edge`'s bag up to the root: what a change to
    /// `edge`'s factor dirties.
    fn root_path(&self, edge: EdgeId) -> Vec<NodeId> {
        let ghd = &self.plan.ghd;
        let origin = ghd.edge_node(edge).unwrap_or(ghd.root());
        std::iter::successors(Some(origin), |&n| ghd.parent(n)).collect()
    }

    /// Runs the one upward pass at the [`Stored`] site — over every node
    /// (`path = None`), or along the dirty root `path` only — with
    /// `swap` standing in for its factor: the answer, and every message
    /// delivered on the way.
    fn pass(
        &self,
        path: Option<&[NodeId]>,
        swap: Option<(EdgeId, &Relation<S>)>,
        probe: Option<&CalProbe<'_>>,
    ) -> (Relation<S>, Vec<(NodeId, Relation<S>)>) {
        let pass = Pass {
            q: &self.query,
            plan: &self.plan,
            probe,
        };
        let mut site = Stored {
            msg: &self.msg,
            path,
            swap,
            delivered: Vec::new(),
        };
        let Ok((answer, _)) = pass.run(&mut site);
        (answer, site.delivered)
    }

    /// The pass along `path` (`None`: everywhere) on the factors
    /// themselves, storing what it delivers. Multi-input fold points
    /// report predicted-vs-actual to the attached registry — an
    /// incremental maintainer teaches the planner exactly like a
    /// one-shot execution does.
    fn recompute(&mut self, path: Option<&[NodeId]>) {
        let probe = CalProbe::new(&self.calibration, &self.digest, &self.plan);
        let (answer, delivered) = self.pass(path, None, probe.as_ref());
        for (node, message) in delivered {
            self.msg[node.index()] = message;
        }
        self.answer = answer;
    }

    /// The full upward pass, storing every message.
    fn full_recompute(&mut self) {
        self.counters.full_upward_passes += 1;
        self.msg = vec![Relation::new([]); self.plan.slots()];
        self.recompute(None);
    }

    /// Dirty-subtree maintenance: the pass along `edge`'s root path.
    fn recompute_path(&mut self, edge: EdgeId) {
        let path = self.root_path(edge);
        self.counters.node_recomputes += path.len() as u64;
        self.recompute(Some(&path));
    }

    /// Inverse-mode maintenance: the pass along `edge`'s root path, once
    /// with the factor swapped for `Δ⁺` and once for `Δ⁻`, delivers the
    /// delta of every message on the path and of the answer; each lands
    /// by a signed merge. The merges are staged and committed together,
    /// so a `None` (an unrepresentable cancellation) leaves the session
    /// untouched for the caller's fallback.
    fn propagate_inverse(&mut self, edge: EdgeId, applied: &AppliedDelta<S>) -> Option<()> {
        let path = self.root_path(edge);
        let (inserted, removed) = (applied.inserted(), applied.removed());
        let pass = |delta: &Relation<S>| self.pass(Some(&path), Some((edge, delta)), None);
        // An empty side delivers only empty relations, so it runs no pass:
        // a single-tuple insert or delete has one side only.
        let nothing = |(answer, delivered): &(Relation<S>, Vec<(NodeId, Relation<S>)>)| {
            let empty = |r: &Relation<S>| Relation::new(r.schema().to_vec());
            let delivered = delivered.iter().map(|(n, m)| (*n, empty(m))).collect();
            (empty(answer), delivered)
        };
        let ((answer_plus, plus), (answer_minus, minus)) =
            match (inserted.is_empty(), removed.is_empty()) {
                (false, false) => (pass(&inserted), pass(&removed)),
                (false, true) => {
                    let plus = pass(&inserted);
                    let minus = nothing(&plus);
                    (plus, minus)
                }
                (true, _) => {
                    let minus = pass(&removed);
                    (nothing(&minus), minus)
                }
            };
        let staged = plus.into_iter().zip(minus).map(|((node, dp), (_, dm))| {
            Some((node, self.msg[node.index()].signed_apply(&dp, &dm)?))
        });
        let staged: Vec<(NodeId, Relation<S>)> = staged.collect::<Option<_>>()?;
        let answer = self.answer.signed_apply(&answer_plus, &answer_minus)?;
        for (node, message) in staged {
            self.msg[node.index()] = message;
        }
        self.answer = answer;
        Some(())
    }
}

/// The storing site of the upward pass: whatever lies off the dirty
/// `path` (`None` = everything is dirty) answers with its stored
/// message, `swap` stands in for its factor, and every message the pass
/// delivers is collected for the session to store or merge.
struct Stored<'s, S: Semiring> {
    msg: &'s [Relation<S>],
    path: Option<&'s [NodeId]>,
    swap: Option<(EdgeId, &'s Relation<S>)>,
    delivered: Vec<(NodeId, Relation<S>)>,
}

impl<S: Semiring> PassSite<S> for Stored<'_, S> {
    type Error = Infallible;

    fn children(
        &mut self,
        pass: &Pass<'_, S>,
        parent: NodeId,
    ) -> Result<Vec<Timed<Relation<S>>>, Infallible> {
        let children = pass.plan.children(parent).iter();
        children
            .map(|&c| {
                if self.path.is_some_and(|path| !path.contains(&c)) {
                    Ok((self.msg[c.index()].clone(), 0))
                } else {
                    pass.message(self, c, parent)
                }
            })
            .collect()
    }

    /// The node's factors, borrowed, with `swap` in its factor's place.
    fn bag<'r>(
        &'r mut self,
        pass: &'r Pass<'_, S>,
        node: NodeId,
    ) -> Result<Timed<Factors<'r, S>>, Infallible> {
        let factors = pass.plan.joins(node).iter().map(|&e| match self.swap {
            Some((swapped, delta)) if swapped == e => delta,
            _ => pass.q.factor(e),
        });
        Ok((factors.map(Cow::Borrowed).collect(), 0))
    }

    fn deliver(
        &mut self,
        _pass: &Pass<'_, S>,
        from: NodeId,
        _to: NodeId,
        message: Relation<S>,
        ready: u64,
    ) -> Result<Timed<Relation<S>>, Infallible> {
        self.delivered.push((from, message.clone()));
        Ok((message, ready))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::{solve_faq, solve_faq_reference};
    use faqs_hypergraph::{cycle_query, path_query, star_query, Var};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Boolean, Count, Gf2, MinPlus, Prob};

    /// ~120k tuples across two factors of a length-2 path, every pair
    /// distinct, domain 1024.
    fn large_path_instance() -> FaqQuery<Count> {
        let h = path_query(2);
        let pairs = |n: u32| {
            (0..n)
                .map(|i| (vec![i % 1024, i / 1024], Count(1)))
                .collect::<Vec<_>>()
        };
        FaqQuery::new_ss(
            h,
            vec![
                Relation::from_pairs(vec![Var(0), Var(1)], pairs(60_000)),
                Relation::from_pairs(vec![Var(1), Var(2)], pairs(60_000)),
            ],
            vec![],
            1024,
        )
    }

    #[test]
    fn single_tuple_update_on_large_instance_avoids_full_work() {
        let q = large_path_instance();
        let mut faq = IncrementalFaq::new(q.clone()).unwrap();
        assert_eq!(faq.answer(), &solve_faq_reference(&q).unwrap());
        let base = faq.counters();
        assert_eq!(base.full_stats_scans, 2, "one scan per factor, at build");
        assert_eq!(base.full_upward_passes, 1, "the initial pass");

        // (5, 59) is absent: i = 59·1024 + 5 ≥ 60000.
        faq.insert(EdgeId(0), &[5, 59], Count(1)).unwrap();
        let after = faq.counters();
        assert_eq!(
            after.full_stats_scans, base.full_stats_scans,
            "stats were merged, not re-scanned"
        );
        assert_eq!(after.delta_stats_merges, base.delta_stats_merges + 1);
        assert_eq!(after.plan_rebuilds, 0, "one tuple cannot cross a bucket");
        assert_eq!(faq.mode(), MaintenanceMode::Inverse);
        assert_eq!(
            after.full_upward_passes, base.full_upward_passes,
            "no full upward pass for a single-tuple insert"
        );
        assert_eq!(after.node_recomputes, 0, "clean subtrees untouched");
        assert_eq!(after.cancellation_fallbacks, 0);
        let mut mirror = q;
        mirror.factors[0].insert(vec![5, 59], Count(1));
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());

        // And back out again, still on the delta path.
        faq.delete(EdgeId(0), &[5, 59]).unwrap();
        mirror.factors[0].delete(&[5, 59]);
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
        let back = faq.counters();
        assert_eq!(back.full_stats_scans, base.full_stats_scans);
        assert_eq!(back.full_upward_passes, base.full_upward_passes);
    }

    #[test]
    fn gf2_cancellation_and_resurrection_match_reference() {
        let h = star_query(3);
        let q: FaqQuery<Gf2> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 12,
                domain: 4,
                seed: 9,
            },
            vec![Var(0)],
            |_| Gf2(true),
        );
        let mut faq = IncrementalFaq::new(q.clone()).unwrap();
        assert_eq!(faq.mode(), MaintenanceMode::Inverse);
        let mut mirror = q;
        // Insert a duplicate of an existing tuple: xor cancels the row
        // out of the factor entirely; then re-insert to resurrect it.
        let t: Vec<u32> = mirror.factors[1].iter().next().unwrap().0.to_vec();
        for _ in 0..2 {
            faq.insert(EdgeId(1), &t, Gf2(true)).unwrap();
            mirror.factors[1].insert(t.clone(), Gf2(true));
            assert_eq!(faq.query().factor(EdgeId(1)), mirror.factor(EdgeId(1)));
            assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
        }
    }

    #[test]
    fn minplus_dirty_subtree_recomputes_the_path_only() {
        let h = path_query(3);
        let q: FaqQuery<MinPlus> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 16,
                domain: 6,
                seed: 4,
            },
            vec![],
            |_| MinPlus(0.1),
        );
        // `solve_faq` plans as the session does (unplaced, uncalibrated,
        // same digest), so float results are bit-identical.
        let mut faq = IncrementalFaq::new(q.clone()).unwrap();
        assert_eq!(faq.mode(), MaintenanceMode::DirtySubtree, "no inverse");
        let base = faq.counters();
        let mut mirror = q;
        faq.insert(EdgeId(2), &[3, 3], MinPlus(0.5)).unwrap();
        mirror.factors[2].insert(vec![3, 3], MinPlus(0.5));
        assert_eq!(faq.answer(), &solve_faq(&mirror).unwrap());
        let after = faq.counters();
        assert_eq!(
            after.full_upward_passes, base.full_upward_passes,
            "dirty-subtree maintenance never re-runs the full pass"
        );
        let touched = after.node_recomputes - base.node_recomputes;
        assert!(
            (1..=3).contains(&touched),
            "a 3-node path query touches at most its root path, got {touched}"
        );
    }

    #[test]
    fn digest_drift_replans_and_recomputes() {
        let h = star_query(3);
        let q: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 16,
                seed: 2,
            },
            vec![],
            |_| Count(1),
        );
        let mut faq = IncrementalFaq::new(q.clone()).unwrap();
        let mut mirror = q;
        // Bulk-load one leaf to ~32× its size — comfortably inside the
        // next relative-size bucket, so the single delete below cannot
        // hop back across the boundary.
        let mut d = RelationDelta::new(mirror.factor(EdgeId(0)).schema().to_vec());
        for a in 0..16u32 {
            for b in 0..16u32 {
                d.insert(vec![a, b], Count(1));
                mirror.factors[0].insert(vec![a, b], Count(1));
            }
        }
        faq.apply(EdgeId(0), &d).unwrap();
        let c = faq.counters();
        assert_eq!(c.plan_rebuilds, 1, "the skew crossed a digest bucket");
        assert_eq!(c.full_upward_passes, 2, "initial + post-drift");
        assert_eq!(
            c.full_stats_scans, 3,
            "even the re-plan uses maintained stats, not a re-scan"
        );
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
        // Follow-up small updates stay incremental under the new plan.
        faq.delete(EdgeId(0), &[0, 0]).unwrap();
        mirror.factors[0].delete(&[0, 0]);
        assert_eq!(faq.mode(), MaintenanceMode::Inverse);
        assert_eq!(faq.counters().full_upward_passes, 2);
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
    }

    #[test]
    fn digest_drift_replans_under_the_learned_correction() {
        // The drift re-plan used to build at correction 1.0 even when
        // the attached registry had learned one for the new digest, so
        // the next delta paid a second re-plan and full recompute.
        let q: FaqQuery<Count> = random_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 16,
                seed: 2,
            },
            vec![],
            |_| Count(1),
        );
        let registry = Arc::new(CalibrationRegistry::new());
        let mut faq = IncrementalFaq::new(q.clone())
            .unwrap()
            .with_calibration(Arc::clone(&registry));
        let mut mirror = q;
        let mut d = RelationDelta::new(mirror.factor(EdgeId(0)).schema().to_vec());
        for a in 0..16u32 {
            for b in 0..16u32 {
                d.insert(vec![a, b], Count(1));
                mirror.factors[0].insert(vec![a, b], Count(1));
            }
        }
        // The registry has learned a 1024× under-estimate for the digest
        // the bulk load lands in.
        let landed = faqs_plan::QueryStats::of(&mirror).digest();
        let log = faqs_plan::CalibrationLog::new();
        for _ in 0..32 {
            log.record(0, 16, 1 << 14);
        }
        registry.absorb(&landed, &log);
        assert!(registry.correction(&landed) > 2.0);

        let before = faq.counters();
        faq.apply(EdgeId(0), &d).unwrap();
        faq.delete(EdgeId(0), &[0, 0]).unwrap();
        mirror.factors[0].delete(&[0, 0]);
        let after = faq.counters();
        assert_eq!(after.plan_rebuilds, before.plan_rebuilds + 1, "one re-plan");
        assert_eq!(
            after.full_upward_passes,
            before.full_upward_passes + 1,
            "one recompute"
        );
        assert_eq!(after.calibration_replans, before.calibration_replans);
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
    }

    #[test]
    fn mode_selection_follows_semiring_and_aggregates() {
        let h = path_query(2);
        let mk = |v: bool| {
            random_instance(
                &h,
                &RandomInstanceConfig {
                    tuples_per_factor: 4,
                    domain: 4,
                    seed: 1,
                },
                vec![],
                move |_| Boolean(v),
            )
        };
        let b = IncrementalFaq::new(mk(true)).unwrap();
        assert_eq!(b.mode(), MaintenanceMode::DirtySubtree, "∨ has no inverse");

        let qc: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 4,
                domain: 4,
                seed: 1,
            },
            vec![],
            |_| Count(2),
        );
        assert_eq!(
            IncrementalFaq::new(qc.clone()).unwrap().mode(),
            MaintenanceMode::Inverse
        );
        // A Product aggregate breaks multilinearity even with inverses
        // (Count's ⊗ is non-idempotent, so the planner may refuse it
        // outright on co-occurring variables; an accepted plan must
        // still route to the dirty path).
        let qp = qc.with_aggregate(Var(1), Aggregate::Product);
        match IncrementalFaq::new(qp) {
            Ok(s) => assert_eq!(s.mode(), MaintenanceMode::DirtySubtree),
            Err(EngineError::NonIdempotentProduct(_)) => {}
            Err(e) => panic!("unexpected planner error: {e}"),
        }
    }

    #[test]
    fn prob_updates_stay_within_float_tolerance() {
        let h = star_query(3);
        let q: FaqQuery<Prob> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 10,
                domain: 4,
                seed: 5,
            },
            vec![Var(0)],
            |_| Prob(0.3),
        );
        let mut faq = IncrementalFaq::new(q.clone()).unwrap();
        let mut mirror = q;
        for step in 0..6u32 {
            let t = vec![step % 4, (step + 1) % 4];
            if step % 2 == 0 {
                faq.insert(EdgeId(step % 3), &t, Prob(0.5)).unwrap();
                mirror.factors[(step % 3) as usize].insert(t, Prob(0.5));
            } else {
                faq.delete(EdgeId(step % 3), &t).unwrap();
                mirror.factors[(step % 3) as usize].delete(&t);
            }
            let want = solve_faq_reference(&mirror).unwrap();
            assert!(
                faq.answer().approx_eq(&want),
                "step {step}: {:?} !~ {want:?}",
                faq.answer()
            );
        }
    }

    #[test]
    fn calibrated_session_observes_and_replans_on_correction_shift() {
        use faqs_plan::CalibrationLog;

        let h = star_query(3);
        let q: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 16,
                seed: 2,
            },
            vec![],
            |_| Count(1),
        );
        let registry = Arc::new(CalibrationRegistry::new());
        let mut faq = IncrementalFaq::new(q.clone())
            .unwrap()
            .with_calibration(Arc::clone(&registry));
        // The construction recompute predates the attachment, so seed
        // the registry by hand: a doctored log claiming the model
        // under-predicts this shape by 1024× shifts its correction far
        // past the freshness hysteresis.
        let digest = faq.digest.clone();
        let log = CalibrationLog::new();
        for _ in 0..32 {
            log.record(0, 16, 1 << 14);
        }
        registry.absorb(&digest, &log);
        assert!(registry.correction(&digest) > 2.0);

        let before = faq.counters();
        let mut mirror = q;
        faq.insert(EdgeId(0), &[9, 9], Count(1)).unwrap();
        mirror.factors[0].insert(vec![9, 9], Count(1));
        let after = faq.counters();
        assert_eq!(
            after.calibration_replans,
            before.calibration_replans + 1,
            "the correction shift forces exactly one re-plan"
        );
        assert_eq!(after.plan_rebuilds, before.plan_rebuilds + 1);
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
        // The post-re-plan recompute reported fresh telemetry.
        assert!(registry.stats().samples > 32, "recompute observed");

        // A second small update: the plan is now scored under the
        // learned correction, so no further calibration re-plan fires.
        faq.delete(EdgeId(0), &[9, 9]).unwrap();
        mirror.factors[0].delete(&[9, 9]);
        assert_eq!(
            faq.counters().calibration_replans,
            after.calibration_replans
        );
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
    }

    #[test]
    fn sibling_session_adopts_a_calibration_replan_from_the_shared_cache() {
        use faqs_plan::CalibrationLog;

        let q: FaqQuery<Count> = random_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 16,
                seed: 2,
            },
            vec![],
            |_| Count(1),
        );
        let cache = Arc::new(PlanCache::new());
        let registry = Arc::new(CalibrationRegistry::new());
        let session = || {
            IncrementalFaq::with_cache(q.clone(), Arc::clone(&cache))
                .unwrap()
                .with_calibration(Arc::clone(&registry))
        };
        let (mut a, mut b) = (session(), session());
        assert_eq!(cache.stats().misses, 1, "one digest, one plan");
        let log = CalibrationLog::new();
        for _ in 0..32 {
            log.record(0, 16, 1 << 14);
        }
        registry.absorb(&a.digest, &log);
        assert!(registry.correction(&a.digest) > 2.0);

        // A's delta finds the cached plan stale and re-plans once.
        a.insert(EdgeId(0), &[9, 9], Count(1)).unwrap();
        assert_eq!(a.counters().calibration_replans, 1);
        assert_eq!(cache.stats().misses, 2, "A built the calibrated plan");

        // B's next delta adopts A's plan from the cache, building nothing.
        let before = b.counters();
        b.insert(EdgeId(0), &[9, 9], Count(1)).unwrap();
        let after = b.counters();
        assert_eq!(after.plan_rebuilds, before.plan_rebuilds + 1);
        assert_eq!(after.calibration_replans, before.calibration_replans + 1);
        assert_eq!(after.full_upward_passes, before.full_upward_passes + 1);
        assert_eq!(cache.stats().misses, 2, "B built nothing");
        assert!(Arc::ptr_eq(&a.plan.0, &b.plan.0), "one shared plan");
        let mut mirror = q.clone();
        mirror.factors[0].insert(vec![9, 9], Count(1));
        assert_eq!(b.answer(), &solve_faq_reference(&mirror).unwrap());
        assert_eq!(a.answer(), b.answer());
    }

    #[test]
    fn uncalibrated_sessions_record_nothing() {
        let h = path_query(2);
        let q: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 4,
                seed: 6,
            },
            vec![],
            |_| Count(1),
        );
        let mut faq = IncrementalFaq::new(q).unwrap();
        faq.insert(EdgeId(0), &[3, 3], Count(1)).unwrap();
        let s = faq.calibration().stats();
        assert_eq!((s.shapes, s.samples), (0, 0));
        assert_eq!(faq.counters().calibration_replans, 0);
    }

    #[test]
    fn invalid_deltas_are_rejected() {
        let h = path_query(2);
        let q: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 4,
                domain: 4,
                seed: 3,
            },
            vec![],
            |_| Count(1),
        );
        let mut faq = IncrementalFaq::new(q).unwrap();
        let before = faq.answer().clone();

        assert!(matches!(
            faq.insert(EdgeId(7), &[0, 0], Count(1)),
            Err(EngineError::Invalid(_))
        ));
        assert!(matches!(
            faq.insert(EdgeId(0), &[0, 9], Count(1)),
            Err(EngineError::Invalid(_)),
        ));
        let mut wrong = RelationDelta::new(vec![Var(1), Var(2)]);
        wrong.insert(vec![0, 0], Count(1));
        assert!(matches!(
            faq.apply(EdgeId(0), &wrong),
            Err(EngineError::Invalid(_))
        ));
        assert_eq!(faq.answer(), &before, "rejected deltas change nothing");
    }

    #[test]
    fn saturated_count_falls_back_instead_of_cancelling() {
        // 2⁴⁰ · 2⁴⁰ saturates: the answer is `u64::MAX`, which stands for
        // 2⁸¹, and deleting one of its two 2⁸⁰ terms must not cancel it
        // to zero.
        let big = Count(1 << 40);
        let q = FaqQuery::new_ss(
            path_query(2),
            vec![
                Relation::from_pairs(vec![Var(0), Var(1)], [(vec![0, 0], big), (vec![1, 0], big)]),
                Relation::from_pairs(vec![Var(1), Var(2)], [(vec![0, 0], big)]),
            ],
            vec![],
            2,
        );
        let mut faq = IncrementalFaq::new(q.clone()).unwrap();
        assert_eq!(faq.mode(), MaintenanceMode::Inverse);
        assert_eq!(faq.answer().total(), Count(u64::MAX));
        faq.delete(EdgeId(0), &[1, 0]).unwrap();
        let mut mirror = q;
        mirror.factors[0].delete(&[1, 0]);
        let want = solve_faq_reference(&mirror).unwrap();
        assert_eq!(want.total(), Count(u64::MAX), "2⁸⁰ saturates too");
        assert_eq!(faq.answer(), &want);
        assert_eq!(faq.counters().cancellation_fallbacks, 1);
        assert_eq!(faq.counters().plan_rebuilds, 0);
    }

    /// The triangle (`k = 3`) or the 4-cycle at a density where the
    /// planner merges the whole cycle into one generic-join bag (a
    /// denser 4-cycle splits into two bags of two factors).
    fn one_bag_cycle<S: Semiring>(k: usize, value: S) -> FaqQuery<S> {
        let (tuples_per_factor, domain) = if k == 3 { (300, 24) } else { (200, 40) };
        let cfg = RandomInstanceConfig {
            tuples_per_factor,
            domain,
            seed: 7,
        };
        random_instance(&cycle_query(k), &cfg, vec![], move |_| value.clone())
    }

    #[test]
    fn cycles_plan_one_generic_join_bag() {
        fn whole_cycle_bag<S: Semiring>(faq: &IncrementalFaq<S>, k: usize) -> bool {
            let plan = &faq.plan;
            plan.uses_generic_join() && plan.ghd.node_ids().any(|n| plan.joins(n).len() == k)
        }
        for k in [3, 4] {
            let count = IncrementalFaq::new(one_bag_cycle(k, Count(1))).unwrap();
            assert!(whole_cycle_bag(&count, k), "cycle_query({k}), Count");
            let minplus = IncrementalFaq::new(one_bag_cycle(k, MinPlus(1.0))).unwrap();
            assert!(whole_cycle_bag(&minplus, k), "cycle_query({k}), MinPlus");
        }
    }

    /// Every stored message and the answer equal what a fresh full pass
    /// at the session's own plan delivers.
    fn assert_store_is_fresh<S>(faq: &IncrementalFaq<S>, what: &str)
    where
        S: Semiring + PartialEq + std::fmt::Debug,
    {
        let (answer, delivered) = faq.pass(None, None, None);
        assert_eq!(faq.answer(), &answer, "{what}: answer");
        assert_eq!(delivered.len() + 1, faq.plan.ghd.node_ids().count());
        for (node, message) in delivered {
            let stored = &faq.msg[node.index()];
            assert_eq!(stored, &message, "{what}: message of n{}", node.index());
        }
    }

    /// Random insert / delete / set ops on `q`, holding the whole store
    /// to a fresh pass after every one.
    fn churn<S>(q: FaqQuery<S>, value: impl Fn(u64) -> S)
    where
        S: Semiring + PartialEq + std::fmt::Debug,
    {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut faq = IncrementalFaq::new(q).unwrap();
        assert_store_is_fresh(&faq, "build");
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..48 {
            let e = EdgeId(rng.random_range(0..faq.query.factors.len() as u32));
            let schema = faq.query.factor(e).schema().to_vec();
            let domain = faq.query.domain;
            let tuple: Vec<u32> = schema.iter().map(|_| rng.random_range(0..domain)).collect();
            let mut delta = RelationDelta::new(schema);
            match rng.random_range(0..3u8) {
                0 => delta.insert(tuple, value(rng.random_range(1..5))),
                1 => delta.delete(tuple),
                _ => delta.set(tuple, value(rng.random_range(1..5))),
            }
            faq.apply(e, &delta).unwrap();
            assert_store_is_fresh(&faq, &format!("step {step} on e{}", e.index()));
        }
    }

    #[test]
    fn stored_messages_match_a_fresh_pass_after_every_op() {
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 10,
            domain: 4,
            seed: 3,
        };
        let minplus = |v: u64| MinPlus(v as f64 * 0.3);
        for h in [star_query(3), path_query(4)] {
            churn(random_instance(&h, &cfg, vec![], |_| Count(1)), Count);
            churn(
                random_instance(&h, &cfg, vec![Var(0)], |_| Gf2(true)),
                |_| Gf2(true),
            );
            churn(random_instance(&h, &cfg, vec![], |_| MinPlus(1.0)), minplus);
        }
        churn(one_bag_cycle(3, Count(1)), Count);
        churn(one_bag_cycle(3, Gf2(true)), |_| Gf2(true));
        churn(one_bag_cycle(3, MinPlus(1.0)), minplus);
        churn(one_bag_cycle(4, Count(1)), Count);
    }
}
