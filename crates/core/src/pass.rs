//! The one upward pass: Theorem G.3's bottom-up GHD reduction with the
//! Corollary G.2 push-down.
//!
//! Every evaluator in the workspace — `solve_faq`, the plan-cached
//! executor, the storing incremental session, the routed distributed
//! runtime — runs [`Pass::run`]. Per GHD node: the children's messages
//! first, then the node's own bag combined by its [`BagOp`], then every
//! message multiplied into it by one scan of the bag
//! ([`Relation::fold_keyed`], in [`QueryPlan::children`] order per
//! row), then the push-down towards the parent. A [`PassSite`] answers
//! only what differs between the evaluators: how sibling subtrees are
//! scheduled, where a bag's factors come from, and how a message
//! travels (and the round it is ready at). What observes a fold is the
//! per-pass [`CalProbe`].

use crate::plan::QueryPlan;
use faqs_hypergraph::NodeId;
use faqs_plan::{BagOp, CalibrationLog, CalibrationRegistry, Envelope, StatsDigest};
use faqs_relation::{generic_join, FaqQuery, Relation};
use faqs_semiring::Semiring;
use std::borrow::Cow;
use std::cell::Cell;
use std::convert::Infallible;

/// A relation and the round at whose end it is complete where it is
/// (always `0` at sites that never touch a network).
pub type Timed<R> = (R, u64);

/// The fixed inputs of one upward pass.
pub struct Pass<'a, S: Semiring> {
    /// The instance.
    pub q: &'a FaqQuery<S>,
    /// The plan, built for `q`'s shape.
    pub plan: &'a QueryPlan,
    /// The fold observer; `None` records nothing and never re-orders.
    pub probe: Option<&'a CalProbe<'a>>,
}

/// What differs between the evaluators of the one pass. Every method
/// has the sequential, in-memory answer as its default.
pub trait PassSite<S: Semiring>: Sized {
    /// How this site fails (a dead link).
    type Error;

    /// How sibling subtrees are scheduled: every child's message as
    /// delivered at `parent`, in [`QueryPlan::children`] order.
    fn children(
        &mut self,
        pass: &Pass<'_, S>,
        parent: NodeId,
    ) -> Result<Vec<Timed<Relation<S>>>, Self::Error> {
        pass.plan
            .children(parent)
            .iter()
            .map(|&c| pass.message(self, c, parent))
            .collect()
    }

    /// Where a bag's factors come from: `node`'s own relation (`None`
    /// for a factorless synthetic root) and the round its inputs are
    /// all present at.
    fn bag(
        &mut self,
        pass: &Pass<'_, S>,
        node: NodeId,
    ) -> Result<Timed<Option<Relation<S>>>, Self::Error> {
        Ok((pass.local_bag(node), 0))
    }

    /// How a message travels from `from`'s evaluator to `to`'s: what
    /// arrives, and when.
    fn deliver(
        &mut self,
        _pass: &Pass<'_, S>,
        _from: NodeId,
        _to: NodeId,
        message: Relation<S>,
        ready: u64,
    ) -> Result<Timed<Relation<S>>, Self::Error> {
        Ok((message, ready))
    }
}

/// The sequential in-memory site: every default.
pub struct Sequential;

impl<S: Semiring> PassSite<S> for Sequential {
    type Error = Infallible;
}

impl<S: Semiring> Pass<'_, S> {
    /// Runs the pass at `site`: the answer over the free variables, in
    /// the query's declared order, and the round it is complete at.
    ///
    /// Telemetry from a pass that failed describes a run that never
    /// finished: the probe reaches its registry here, on success, and
    /// nowhere else.
    pub fn run<X: PassSite<S>>(&self, site: &mut X) -> Result<Timed<Relation<S>>, X::Error> {
        let (root, ready) = self.subtree(site, self.plan.root())?;
        let root = root.unwrap_or_else(Relation::unit);
        let answer = finish_root(self.q, self.plan, root);
        if let Some(probe) = self.probe {
            probe.flush();
        }
        Ok((answer, ready))
    }

    /// `child`'s upward message as delivered at `parent`: its subtree
    /// relation with every variable absent from the parent's bag
    /// aggregated out *before* it travels.
    pub fn message<X: PassSite<S>>(
        &self,
        site: &mut X,
        child: NodeId,
        parent: NodeId,
    ) -> Result<Timed<Relation<S>>, X::Error> {
        let (sub, ready) = self.subtree(site, child)?;
        let sub = sub.expect("non-root GHD nodes carry a factor");
        let message = push_down_message(self.plan, child, sub);
        site.deliver(self, child, parent, message, ready)
    }

    /// `node`'s bag from the query's own factors.
    pub fn local_bag(&self, node: NodeId) -> Option<Relation<S>> {
        let factors = self.plan.joins(node).iter();
        let factors = factors.map(|s| Cow::Borrowed(self.q.factor(s.edge)));
        self.combine(node, factors.collect())
    }

    /// The `⊗`-product of `node`'s λ `factors` (one per join step, in
    /// step order): one generic-join pass when the planner marked the
    /// bag worst-case-optimal, otherwise the cascade over the plan's
    /// cached key schemas. Both fold annotations in the same
    /// association order, so the bag holds the same rows with the same
    /// values either way; its column order differs (the generic join
    /// emits the planner's layout order, the cascade its concatenation
    /// schema), which the push-down is indifferent to.
    pub fn combine(&self, node: NodeId, factors: Vec<Cow<'_, Relation<S>>>) -> Option<Relation<S>> {
        let steps = self.plan.joins(node);
        debug_assert_eq!(steps.len(), factors.len(), "one factor per join step");
        if let (true, BagOp::GenericJoin { var_order }) =
            (factors.len() >= 2, self.plan.bag_op(node))
        {
            let refs: Vec<&Relation<S>> = factors.iter().map(AsRef::as_ref).collect();
            return Some(generic_join(&refs, var_order));
        }
        let mut acc: Option<Relation<S>> = None;
        for (factor, step) in factors.into_iter().zip(steps) {
            acc = Some(match acc {
                Some(cur) => cur.join_indexed(&factor, &factor.build_index(&step.key)),
                None => factor.into_owned(),
            });
        }
        acc
    }

    /// The full (un-aggregated) relation of `node`'s subtree. `None`
    /// only for a factorless, childless synthetic root (the
    /// `⊗`-identity).
    fn subtree<X: PassSite<S>>(
        &self,
        site: &mut X,
        node: NodeId,
    ) -> Result<Timed<Option<Relation<S>>>, X::Error> {
        let mut messages = site.children(self, node)?;
        let (mut acc, mut ready) = site.bag(self, node)?;

        // Messages multiply in child order; once the probe flags drift,
        // the remaining folds of the pass go smallest-actual-first (the
        // sort is stable: ties stay in child order). `⊗`-folds commute,
        // so only which message drops a row first — the thing the stale
        // plan mispriced — changes.
        if let Some(probe) = self.probe.filter(|p| messages.len() >= 2 && p.drifted()) {
            probe.note_replan();
            messages.sort_by_key(|(message, _)| message.len());
        }
        ready = messages.iter().fold(ready, |r, (_, at)| r.max(*at));
        if acc.is_none() && !messages.is_empty() {
            // A factorless synthetic root has no bag: its first message is it.
            acc = Some(messages.remove(0).0);
        }
        if let Some(mut cur) = acc.take() {
            let messages: Vec<&Relation<S>> = messages.iter().map(|(m, _)| m).collect();
            let mut rest = messages.as_slice();
            while let Some(&next) = rest.first() {
                // One scan multiplies in every message that lists only
                // the bag's variables: all of them, except above a
                // factorless root's seed, where the next one is a join.
                let listed = |m: &&Relation<S>| m.schema().iter().all(|v| cur.schema().contains(v));
                let run = rest.iter().take_while(|m| listed(m)).count();
                cur = match run {
                    0 => cur.join(next),
                    _ => cur.fold_keyed(&rest[..run]),
                };
                rest = &rest[run.max(1)..];
            }
            acc = Some(cur);
        }

        // Only a fold point with at least two inputs is a prediction:
        // a single-factor leaf restates exact statistics.
        if self.plan.joins(node).len() + self.plan.children(node).len() >= 2 {
            if let (Some(probe), Some(rel)) = (self.probe, acc.as_ref()) {
                probe.observe(node.index(), rel.len());
            }
        }
        Ok((acc, ready))
    }
}

/// One message push-down (Corollary G.2): aggregates out of `node`'s
/// subtree relation `message` every variable its parent's bag does not
/// see — the plan's nest for `node`, in one scan.
pub fn push_down_message<S: Semiring>(
    plan: &QueryPlan,
    node: NodeId,
    message: Relation<S>,
) -> Relation<S> {
    let message = message.aggregate_out_many(plan.nest(node));
    debug_assert!(
        plan.ghd.parent(node).is_some_and(|p| {
            let keep = plan.ghd.chi(p);
            message.schema().iter().all(|v| keep.contains(v))
        }),
        "a message lists only variables of the parent's bag"
    );
    message
}

/// The root epilogue: aggregates the bound variables out of the root
/// relation in one scan, then presents the free variables in the
/// query's declared order (where a generic-join root bag already has
/// them).
pub fn finish_root<S: Semiring>(
    q: &FaqQuery<S>,
    plan: &QueryPlan,
    result: Relation<S>,
) -> Relation<S> {
    let result = result.aggregate_out_many(plan.nest(plan.root()));
    if result.schema() == q.free_vars.as_slice() {
        result
    } else {
        result.reorder(&q.free_vars)
    }
}

/// The fold observer of one pass: the plan's predicted rows, the
/// shape's envelope, the telemetry log, and the sticky drift flag the
/// fold points consult. Nothing reaches the registry until
/// [`Pass::run`] succeeds.
pub struct CalProbe<'a> {
    registry: &'a CalibrationRegistry,
    digest: &'a StatsDigest,
    envelope: Envelope,
    node_rows: &'a [u64],
    log: CalibrationLog,
    replans: Cell<u64>,
    drift: Cell<bool>,
}

impl<'a> CalProbe<'a> {
    /// A probe for one pass of `plan` on the shape `digest`, or `None`
    /// when `registry` is disabled.
    pub fn new(
        registry: &'a CalibrationRegistry,
        digest: &'a StatsDigest,
        plan: &'a QueryPlan,
    ) -> Option<Self> {
        registry.is_enabled().then(|| CalProbe {
            registry,
            digest,
            envelope: registry.envelope(digest),
            node_rows: plan.node_rows(),
            log: CalibrationLog::new(),
            replans: Cell::new(0),
            drift: Cell::new(false),
        })
    }

    /// Records one fold point's predicted-vs-actual pair and raises the
    /// sticky drift flag when the sample leaves the shape's envelope.
    fn observe(&self, node: usize, actual: usize) {
        let Some(&predicted) = self.node_rows.get(node) else {
            return; // structural plan: nothing was predicted
        };
        let actual = actual as u64;
        self.log.record(node, predicted, actual);
        if !self.envelope.contains(predicted, actual) {
            self.drift.set(true);
        }
    }

    /// Whether any sample so far left the envelope.
    fn drifted(&self) -> bool {
        self.drift.get()
    }

    fn note_replan(&self) {
        self.replans.set(self.replans.get() + 1);
    }

    /// Hands the pass's telemetry to the registry.
    fn flush(&self) {
        self.registry.absorb(self.digest, &self.log);
        self.registry.record_replans(self.replans.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_faq_brute_force;
    use faqs_hypergraph::{cycle_query, example_h2, path_query, star_query, Hypergraph, Var};
    use faqs_plan::{plan_query_calibrated, ChosenPlan, PlannerConfig, QueryStats};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::Count;
    use std::collections::BTreeMap;

    /// The sequential site, recording what the skeleton asks of it.
    #[derive(Default)]
    struct Counting {
        combined: Vec<NodeId>,
        emitted: Vec<NodeId>,
        /// Each node's own bag, and the messages delivered to it in
        /// arrival (= child) order: what it folds, before any push-down.
        bags: BTreeMap<NodeId, Relation<Count>>,
        delivered: BTreeMap<NodeId, Vec<Relation<Count>>>,
    }

    impl Counting {
        /// Rows of `node`'s bag with every message joined in — by the
        /// join chain the one-scan fold must equal.
        fn folded_rows(&self, node: NodeId) -> usize {
            let messages = self.delivered.get(&node).map_or(&[][..], Vec::as_slice);
            let mut inputs = self.bags.get(&node).into_iter().chain(messages);
            let first = inputs
                .next()
                .expect("an observed node has an input")
                .clone();
            inputs.fold(first, |acc, m| acc.join(m)).len()
        }
    }

    impl PassSite<Count> for Counting {
        type Error = Infallible;

        fn bag(
            &mut self,
            pass: &Pass<'_, Count>,
            node: NodeId,
        ) -> Result<Timed<Option<Relation<Count>>>, Infallible> {
            self.combined.push(node);
            let bag = pass.local_bag(node);
            self.bags.extend(bag.clone().map(|bag| (node, bag)));
            Ok((bag, 0))
        }

        fn deliver(
            &mut self,
            _pass: &Pass<'_, Count>,
            from: NodeId,
            to: NodeId,
            message: Relation<Count>,
            ready: u64,
        ) -> Result<Timed<Relation<Count>>, Infallible> {
            self.emitted.push(from);
            self.delivered.entry(to).or_default().push(message.clone());
            Ok((message, ready))
        }
    }

    fn instance(h: &Hypergraph) -> FaqQuery<Count> {
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 12,
            domain: 4,
            seed: 7,
        };
        random_instance(h, &cfg, vec![], |_| Count(1))
    }

    /// Pins every multi-factor bag of `chosen` to the generic join, on
    /// the cascade's concatenation schema (not the layout order the
    /// planner would pick: the push-down regroups).
    fn force_generic_join(q: &FaqQuery<Count>, chosen: &mut ChosenPlan) {
        chosen
            .bag_ops
            .resize(chosen.join_order.len(), BagOp::Cascade);
        for (order, op) in chosen.join_order.iter().zip(&mut chosen.bag_ops) {
            if order.len() >= 2 {
                let mut var_order: Vec<Var> = Vec::new();
                for v in order.iter().flat_map(|&e| q.factor(e).schema()) {
                    if !var_order.contains(v) {
                        var_order.push(*v);
                    }
                }
                *op = BagOp::GenericJoin { var_order };
            }
        }
    }

    #[test]
    fn skeleton_visits_each_node_once_and_observes_only_predictions() {
        let fixtures = [
            (star_query(4), false),
            (path_query(4), false),
            (example_h2(), false),
            (cycle_query(3), true),
            (cycle_query(3), false),
        ];
        for (h, generic) in fixtures {
            let q = instance(&h);
            let mut chosen =
                plan_query_calibrated(&q, &PlannerConfig::stats(), None, None, 1.0).unwrap();
            if generic {
                force_generic_join(&q, &mut chosen);
            } else {
                chosen.bag_ops.clear(); // every bag a cascade
            }
            let plan = QueryPlan::lower(&q, chosen);
            assert_eq!(plan.uses_generic_join(), generic, "{h:?}");

            let registry = CalibrationRegistry::forced(f64::INFINITY);
            let digest = QueryStats::of(&q).digest();
            let probe = CalProbe::new(&registry, &digest, &plan).unwrap();
            let pass = Pass {
                q: &q,
                plan: &plan,
                probe: Some(&probe),
            };
            let mut site = Counting::default();
            let Ok((_, ready)) = pass.subtree(&mut site, plan.root());
            assert_eq!(ready, 0, "nothing travelled");

            let sorted = |mut nodes: Vec<NodeId>| {
                nodes.sort_unstable();
                nodes
            };
            let live: Vec<NodeId> = sorted(plan.ghd.node_ids().collect());
            let root = plan.root();
            let non_root: Vec<NodeId> = live.iter().copied().filter(|&n| n != root).collect();
            let predicted: Vec<NodeId> = live
                .iter()
                .copied()
                .filter(|&n| plan.joins(n).len() + plan.children(n).len() >= 2)
                .collect();
            assert!(!predicted.is_empty(), "{h:?}: some fold is a prediction");
            assert_eq!(
                sorted(site.combined.clone()),
                live,
                "{h:?}: one combine per node"
            );
            assert_eq!(
                sorted(site.emitted.clone()),
                non_root,
                "{h:?}: one message per edge"
            );
            let samples = probe.log.drain();
            for s in &samples {
                let logical = site.folded_rows(NodeId(s.node as u32));
                assert_eq!(s.actual, logical as u64, "{h:?}: actual = the bag's rows");
            }
            let one_bag = plan.ghd.node_ids().count() == 1;
            let observed = samples.iter().map(|s| NodeId(s.node as u32)).collect();
            assert_eq!(sorted(observed), predicted, "{h:?}: ≥2-input folds observe");
            if one_bag {
                // One bag, and the observer saw all of it — not what
                // the one-scan push-down leaves of it.
                let [r, s, t] = &q.factors[..] else { panic!() };
                assert_eq!(samples[0].actual, r.join(s).join(t).len() as u64);
            }

            // Nothing reached the registry: only a whole successful
            // run flushes.
            assert_eq!(registry.stats().samples, 0);
            let Ok((answer, _)) = pass.run(&mut Sequential);
            assert_eq!(answer, solve_faq_brute_force(&q), "{h:?}");
            assert_eq!(registry.stats().samples, predicted.len() as u64);
        }
    }
}
