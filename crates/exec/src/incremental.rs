//! Incremental FAQ serving: mutable factors with delta-maintained
//! answers.
//!
//! [`IncrementalFaq`] owns one FAQ instance and keeps its answer (plus
//! every intermediate GHD relation of the upward pass) up to date under
//! batched factor mutations ([`faqs_relation::RelationDelta`]), instead
//! of re-running `solve_faq` from scratch per update:
//!
//! * **Inverse mode** — when the semiring has (partial) additive
//!   inverses (`Semiring::HAS_ADDITIVE_INVERSE`: Count, GF(2), Prob)
//!   and every bound variable is `Sum`-aggregated, the answer is
//!   multilinear in each factor, so a factor delta propagates directly:
//!   `Δ(f ⋈ rest) = Δf ⋈ rest`. The touched tuples' new and old
//!   annotations become two small delta relations `Δ⁺`/`Δ⁻` that join
//!   with the *stored* sibling factors and child messages, push down
//!   through each ancestor bag, and land on every stored relation via
//!   the signed merge `base ⊕ Δ⁺ ⊖ Δ⁻`
//!   ([`faqs_relation::Relation::signed_apply`]). Clean subtrees are
//!   never revisited.
//! * **Dirty-subtree mode** — semirings without inverses (Min-Plus,
//!   Boolean, Max-Prod) or non-`Sum` bound aggregates recompute from
//!   the lowest GHD node whose factor changed, walking only the path to
//!   the root and reusing every clean sibling's stored message.
//!
//! Factor statistics are maintained incrementally too
//! ([`faqs_relation::MaintainedStats`] — no full re-scan per update),
//! and the session re-plans through the shared [`PlanCache`] only when
//! the maintained statistics cross a [`StatsDigest`] bucket boundary or
//! an attached registry's learned correction leaves the plan's
//! hysteresis band.
//! [`IncrementalStats`] counts exactly which of these events happened;
//! the tests pin the serving invariants (one single-tuple insert on a
//! 100k-tuple instance: no stats re-scan, no full upward pass).

use crate::cache::PlanCache;
use faqs_core::{
    finish_root, push_down_message, CalProbe, EngineError, Pass, PassSite, QueryPlan, Timed,
};
use faqs_hypergraph::{EdgeId, NodeId};
use faqs_plan::{
    correction_fresh, CalibrationRegistry, MaintainedQueryStats, PlannerConfig, QueryStats,
    StatsDigest,
};
use faqs_relation::{AppliedDelta, FaqQuery, Relation, RelationDelta};
use faqs_semiring::{Aggregate, Semiring};
use std::convert::Infallible;
use std::ops::Deref;
use std::sync::Arc;

/// How an [`IncrementalFaq`] session maintains its answer under factor
/// mutations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaintenanceMode {
    /// Semiring deltas propagate up the GHD via signed merges; clean
    /// subtrees are untouched.
    Inverse,
    /// Recompute from the lowest dirty node along the root path,
    /// reusing clean siblings' stored messages.
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
    /// Re-plans: statistics-digest bucket crossings plus
    /// `calibration_replans`.
    pub plan_rebuilds: u64,
    /// Re-plans triggered by a learned-correction shift (a subset of
    /// `plan_rebuilds`): the shared [`CalibrationRegistry`] moved this
    /// shape's correction past the `correction_fresh` hysteresis.
    pub calibration_replans: u64,
    /// Inverse propagations that hit an unrepresentable cancellation
    /// and fell back to the dirty-subtree path. Defensive: the shipped
    /// inverse-capable semirings never refuse (Count's listing values
    /// dominate any removable contribution even under saturation; GF(2)
    /// and Prob always answer), but a future partial inverse may not.
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
    planner: PlannerConfig,
    cache: Arc<PlanCache>,
    plan: SessionPlan,
    digest: Option<StatsDigest>,
    /// Incrementally maintained per-factor statistics, digest drift's
    /// input (no full factor re-scan per update).
    stats: MaintainedQueryStats,
    /// The GHD node whose join pipeline absorbs each edge's factor.
    edge_node: Vec<NodeId>,
    /// Per node (dense by `NodeId` index): the ⊗-product of its λ
    /// factors; `None` for factorless synthetic nodes.
    local: Vec<Option<Relation<S>>>,
    /// Per non-root node: the stored upward message to its parent.
    msg: Vec<Option<Relation<S>>>,
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
    /// Starts a session with a private plan cache and the default
    /// planner configuration.
    pub fn new(query: FaqQuery<S>) -> Result<Self, EngineError> {
        Self::with_cache(query, Arc::new(PlanCache::new()), PlannerConfig::default())
    }

    /// Starts a session on a shared plan cache with explicit planner
    /// knobs (drift re-plans go through the same cache, so repeated
    /// digest traffic across sessions shares plans).
    pub fn with_cache(
        query: FaqQuery<S>,
        cache: Arc<PlanCache>,
        planner: PlannerConfig,
    ) -> Result<Self, EngineError> {
        query
            .validate()
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        let stats = MaintainedQueryStats::of(&query);
        let counters = IncrementalStats {
            full_stats_scans: query.factors.len() as u64,
            ..IncrementalStats::default()
        };
        let calibration = Arc::new(CalibrationRegistry::off());
        let snapshot = planner.use_stats.then(|| stats.snapshot());
        let plan = cache.plan(&query, &planner, snapshot.as_ref(), &calibration);
        let plan = SessionPlan::new(plan)?;
        let digest = snapshot.map(|s| s.digest());
        let mode = Self::choose_mode(&query);
        let answer = Relation::new(query.free_vars.clone());
        let mut session = IncrementalFaq {
            query,
            planner,
            cache,
            plan,
            digest,
            stats,
            edge_node: Vec::new(),
            local: Vec::new(),
            msg: Vec::new(),
            answer,
            mode,
            counters,
            calibration,
        };
        session.index_edges();
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
            MaintenanceMode::DirtySubtree => {
                let origin = self.edge_node[edge.index()];
                self.recompute_path(origin);
            }
            MaintenanceMode::Inverse => {
                if self.propagate_inverse(edge, &applied).is_none() {
                    self.counters.cancellation_fallbacks += 1;
                    let origin = self.edge_node[edge.index()];
                    self.recompute_path(origin);
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

    /// Re-plans through the cache (from *maintained* statistics — no
    /// `QueryStats::of` factor scan) and fully recomputes iff the plan
    /// went stale: the digest left its bucket (a drift), or an attached
    /// registry's learned correction for this shape moved past the
    /// [`correction_fresh`] hysteresis since the plan was scored (a
    /// calibration re-plan). Either way the cache plans under the
    /// registry's current correction, so sibling sessions on the same
    /// digest share the plan. Returns whether that happened.
    fn replan_if_stale(&mut self) -> Result<bool, EngineError> {
        let stats = self.planner.use_stats.then(|| self.stats.snapshot());
        let digest = stats.as_ref().map(QueryStats::digest);
        let drifted = digest != self.digest;
        let calibration = &self.calibration;
        let stale = drifted
            || match &digest {
                Some(d) if calibration.is_enabled() => {
                    !correction_fresh(self.plan.correction(), calibration.correction(d))
                }
                _ => false,
            };
        if !stale {
            return Ok(false);
        }
        self.counters.plan_rebuilds += 1;
        if !drifted {
            self.counters.calibration_replans += 1;
            calibration.record_replans(1);
        }
        let plan = self
            .cache
            .plan(&self.query, &self.planner, stats.as_ref(), calibration);
        self.plan = SessionPlan::new(plan)?;
        self.digest = digest;
        self.index_edges();
        self.full_recompute();
        Ok(true)
    }

    fn index_edges(&mut self) {
        let plan = &self.plan;
        self.edge_node = vec![plan.root(); self.query.factors.len()];
        for node in plan.ghd.node_ids() {
            for step in plan.joins(node) {
                self.edge_node[step.edge.index()] = node;
            }
        }
    }

    /// Runs the one upward pass at the [`Stored`] site: over every node
    /// (`path = None`), or along the dirty root `path` only, reusing
    /// every clean sibling's stored message. Multi-input fold points
    /// report predicted-vs-actual to the attached registry — an
    /// incremental maintainer teaches the planner exactly like a
    /// one-shot execution does.
    fn run_pass(&mut self, path: Option<&[NodeId]>) {
        let plan = &self.plan;
        let probe = self.digest.as_ref();
        let probe = probe.and_then(|d| CalProbe::new(&self.calibration, d, plan));
        let pass = Pass {
            q: &self.query,
            plan,
            probe: probe.as_ref(),
        };
        let mut site = Stored {
            local: &mut self.local,
            msg: &mut self.msg,
            path,
        };
        let Ok((answer, _)) = pass.run(&mut site);
        self.answer = answer;
    }

    /// The full upward pass, storing every local and message.
    fn full_recompute(&mut self) {
        self.counters.full_upward_passes += 1;
        let slots = self.plan.slots();
        self.local = vec![None; slots];
        self.msg = vec![None; slots];
        self.run_pass(None);
    }

    /// Dirty-subtree maintenance: recompute `origin`'s local, then
    /// re-emit along the root path only.
    fn recompute_path(&mut self, origin: NodeId) {
        let plan = &self.plan;
        let path: Vec<NodeId> =
            std::iter::successors(Some(origin), |&n| plan.ghd.parent(n)).collect();
        self.counters.node_recomputes += path.len() as u64;
        self.run_pass(Some(&path));
    }

    /// Inverse-mode maintenance. Builds `Δ⁺`/`Δ⁻` from the applied
    /// factor delta, joins them with the stored siblings at each level,
    /// pushes them down through each ancestor bag, and lands them on
    /// every stored relation with a signed merge. All updates are
    /// staged and committed atomically, so a `None` (unrepresentable
    /// cancellation) leaves the session untouched for the caller's
    /// fallback.
    fn propagate_inverse(&mut self, edge: EdgeId, applied: &AppliedDelta<S>) -> Option<()> {
        let plan = &self.plan;
        let origin = self.edge_node[edge.index()];
        let mut plus = applied.inserted();
        let mut minus = applied.removed();

        // Δ to the origin's local: the same pipeline with the mutated
        // factor replaced by its delta.
        for step in plan.joins(origin) {
            if step.edge == edge {
                continue;
            }
            let f = self.query.factor(step.edge);
            let idx = f.build_index(&plus.shared_vars(f));
            plus = plus.join_indexed(f, &idx);
            minus = minus.join_indexed(f, &idx);
        }
        let new_local = self.local[origin.index()]
            .as_ref()
            .expect("origin absorbs the mutated factor")
            .signed_apply(&plus, &minus)?;

        // Δ to the origin's subtree: fold in the (unchanged) child
        // messages.
        for &c in plan.children(origin) {
            let m = self.msg[c.index()].as_ref().expect("child message stored");
            let idx = m.build_index(&plus.shared_vars(m));
            plus = plus.join_indexed(m, &idx);
            minus = minus.join_indexed(m, &idx);
        }

        let mut staged_msgs: Vec<(usize, Relation<S>)> = Vec::new();
        let mut node = origin;
        let new_answer = loop {
            if plus.is_empty() && minus.is_empty() {
                // The delta died in a join: everything above is clean.
                break None;
            }
            if node == plan.root() {
                let dp = finish_root(&self.query, plan, plus);
                let dm = finish_root(&self.query, plan, minus);
                break Some(self.answer.signed_apply(&dp, &dm)?);
            }
            let parent = plan.ghd.parent(node).expect("non-root has a parent");
            // Sum push-down is an ⊕-homomorphism, so the two sides
            // push down independently.
            let dp = push_down_message(plan, node, plus);
            let dm = push_down_message(plan, node, minus);
            let new_msg = self.msg[node.index()]
                .as_ref()
                .expect("non-root message stored")
                .signed_apply(&dp, &dm)?;
            staged_msgs.push((node.index(), new_msg));
            // Lift the message delta into the parent's subtree: ⊗ with
            // the parent's local and its other children's messages.
            plus = dp;
            minus = dm;
            if let Some(l) = self.local[parent.index()].as_ref() {
                let idx = l.build_index(&plus.shared_vars(l));
                plus = plus.join_indexed(l, &idx);
                minus = minus.join_indexed(l, &idx);
            }
            for &c in plan.children(parent) {
                if c == node {
                    continue;
                }
                let m = self.msg[c.index()]
                    .as_ref()
                    .expect("sibling message stored");
                let idx = m.build_index(&plus.shared_vars(m));
                plus = plus.join_indexed(m, &idx);
                minus = minus.join_indexed(m, &idx);
            }
            node = parent;
        };

        // Commit: every signed merge succeeded.
        self.local[origin.index()] = Some(new_local);
        for (i, m) in staged_msgs {
            self.msg[i] = Some(m);
        }
        if let Some(a) = new_answer {
            self.answer = a;
        }
        Some(())
    }
}

/// The storing site of the upward pass: every bag and message it
/// computes is kept for [`IncrementalFaq::propagate_inverse`] and later
/// passes, and whatever lies off the dirty `path` (origin first; `None`
/// = everything is dirty) is answered from the store.
struct Stored<'s, S: Semiring> {
    local: &'s mut [Option<Relation<S>>],
    msg: &'s mut [Option<Relation<S>>],
    path: Option<&'s [NodeId]>,
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
                    let stored = self.msg[c.index()].clone();
                    Ok((stored.expect("clean child's message is stored"), 0))
                } else {
                    pass.message(self, c, parent)
                }
            })
            .collect()
    }

    fn bag(
        &mut self,
        pass: &Pass<'_, S>,
        node: NodeId,
    ) -> Result<Timed<Option<Relation<S>>>, Infallible> {
        if self.path.is_none_or(|path| path[0] == node) {
            self.local[node.index()] = pass.local_bag(node);
        }
        Ok((self.local[node.index()].clone(), 0))
    }

    fn deliver(
        &mut self,
        _pass: &Pass<'_, S>,
        from: NodeId,
        _to: NodeId,
        message: Relation<S>,
        ready: u64,
    ) -> Result<Timed<Relation<S>>, Infallible> {
        self.msg[from.index()] = Some(message.clone());
        Ok((message, ready))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::solve_faq_reference;
    use faqs_hypergraph::{path_query, star_query, Var};
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
        // Structural planning on both sides: the reference and the
        // session share one plan, so float results are bit-identical.
        let mut faq = IncrementalFaq::with_cache(
            q.clone(),
            Arc::new(PlanCache::new()),
            PlannerConfig::structural(),
        )
        .unwrap();
        assert_eq!(faq.mode(), MaintenanceMode::DirtySubtree, "no inverse");
        let base = faq.counters();
        let mut mirror = q;
        faq.insert(EdgeId(2), &[3, 3], MinPlus(0.5)).unwrap();
        mirror.factors[2].insert(vec![3, 3], MinPlus(0.5));
        assert_eq!(faq.answer(), &solve_faq_reference(&mirror).unwrap());
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
        let mut faq = IncrementalFaq::with_cache(
            q.clone(),
            Arc::new(PlanCache::new()),
            PlannerConfig::stats(),
        )
        .unwrap();
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
        let registry = Arc::new(CalibrationRegistry::forced(f64::INFINITY));
        let mut faq = IncrementalFaq::with_cache(
            q.clone(),
            Arc::new(PlanCache::new()),
            PlannerConfig::stats(),
        )
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
        let registry = Arc::new(CalibrationRegistry::forced(f64::INFINITY));
        let mut faq = IncrementalFaq::with_cache(
            q.clone(),
            Arc::new(PlanCache::new()),
            PlannerConfig::stats(),
        )
        .unwrap()
        .with_calibration(Arc::clone(&registry));
        // The construction recompute predates the attachment, so seed
        // the registry by hand: a doctored log claiming the model
        // under-predicts this shape by 1024× shifts its correction far
        // past the freshness hysteresis.
        let digest = faq.digest.clone().unwrap();
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
        assert_eq!((s.shapes, s.samples, s.replans), (0, 0, 0));
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
}
