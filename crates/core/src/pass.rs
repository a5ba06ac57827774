//! The one upward pass: Theorem G.3's bottom-up GHD reduction with the
//! Corollary G.2 push-down.
//!
//! Every evaluator in the workspace — `solve_faq`, the plan-cached
//! executor, the incremental session (whose deltas are passes too), the
//! routed distributed runtime — runs [`Pass::run`] on the [`QueryPlan`]
//! the planner emitted. Per GHD node: the
//! children's messages first, then the node's factors, then the node's
//! own output — its
//! bag with every message multiplied in (in [`QueryPlan::children`]
//! order per row) and its nest aggregated out, which is the message
//! towards the parent, or the answer at the root. A bag of two or more
//! factors is one [`generic_join_aggregated`] pass over its factors and
//! messages, which folds the nest as it binds: no bag is ever listed;
//! a single factor folds its messages by one scan
//! ([`Relation::fold_keyed`]) and pushes down by another. A
//! [`PassSite`] answers only what differs between the evaluators: how
//! sibling subtrees are scheduled, where a node's factors come from,
//! and how a message travels (and the round it is ready at). What
//! observes a fold is the per-pass [`CalProbe`]; it sees the rows of
//! the un-aggregated bag, whether or not they were listed.

use faqs_hypergraph::NodeId;
use faqs_plan::{CalibrationLog, CalibrationRegistry, QueryPlan, StatsDigest};
use faqs_relation::{generic_join_aggregated, FaqQuery, Relation};
use faqs_semiring::Semiring;
use std::borrow::Cow;
use std::convert::Infallible;

/// A relation and the round at whose end it is complete where it is
/// (always `0` at sites that never touch a network).
pub type Timed<R> = (R, u64);

/// A node's factors as a site hands them to the pass: borrowed where
/// they already live, owned where the site had to build them.
pub type Factors<'r, S> = Vec<Cow<'r, Relation<S>>>;

/// The fixed inputs of one upward pass.
pub struct Pass<'a, S: Semiring> {
    /// The instance.
    pub q: &'a FaqQuery<S>,
    /// The plan, built for `q`'s shape.
    pub plan: &'a QueryPlan,
    /// The fold observer; `None` records nothing.
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

    /// Where a node's factors come from: `node`'s λ factors in the
    /// plan's join order (none for a factorless synthetic root), or any
    /// relation whose product they are, and the round they are all
    /// present at.
    fn bag<'r>(
        &'r mut self,
        pass: &'r Pass<'_, S>,
        node: NodeId,
    ) -> Result<Timed<Factors<'r, S>>, Self::Error> {
        let factors = pass.plan.joins(node).iter();
        Ok((
            factors.map(|&e| Cow::Borrowed(pass.q.factor(e))).collect(),
            0,
        ))
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
        let answer = in_declared_order(self.q, root);
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
        let (message, ready) = self.subtree(site, child)?;
        debug_assert!(
            message
                .schema()
                .iter()
                .all(|v| self.plan.ghd.chi(parent).contains(v)),
            "a message lists only variables of the parent's bag"
        );
        site.deliver(self, child, parent, message, ready)
    }

    /// `node`'s output: its subtree's relation with the node's nest
    /// aggregated out — the message towards its parent, or at the root
    /// the answer in layout order.
    fn subtree<X: PassSite<S>>(
        &self,
        site: &mut X,
        node: NodeId,
    ) -> Result<Timed<Relation<S>>, X::Error> {
        let messages = site.children(self, node)?;
        let (mut factors, ready) = site.bag(self, node)?;
        let ready = messages.iter().fold(ready, |r, (_, at)| r.max(*at));
        let messages: Vec<&Relation<S>> = messages.iter().map(|(m, _)| m).collect();
        let nest = self.plan.nest(node);
        let (output, rows) = if factors.len() >= 2 {
            // The messages join after the bag's factors: they list only
            // bag variables.
            let inputs = factors.iter().map(AsRef::as_ref).chain(messages);
            let inputs: Vec<&Relation<S>> = inputs.collect();
            generic_join_aggregated(&inputs, self.plan.var_order(node), nest)
        } else {
            let bag = match factors.pop() {
                Some(one) => one.into_owned().fold_keyed(&messages),
                None => seed(&messages),
            };
            let rows = bag.len();
            (bag.aggregate_out_many(nest), rows)
        };

        // Only a fold point with at least two inputs is a prediction:
        // a single-factor leaf restates exact statistics.
        if self.plan.joins(node).len() + self.plan.children(node).len() >= 2 {
            if let Some(probe) = self.probe {
                probe.observe(node.index(), rows);
            }
        }
        Ok((output, ready))
    }
}

/// A factorless synthetic root's relation: the `⊗`-identity, or its
/// first message with the others multiplied in, in child order — by one
/// scan per run of messages listing only variables already there, by a
/// join otherwise.
fn seed<S: Semiring>(messages: &[&Relation<S>]) -> Relation<S> {
    let Some((&first, mut rest)) = messages.split_first() else {
        return Relation::unit();
    };
    let mut cur = first.clone();
    while let Some(&next) = rest.first() {
        let listed = |m: &&Relation<S>| m.schema().iter().all(|v| cur.schema().contains(v));
        let run = rest.iter().take_while(|m| listed(m)).count();
        cur = match run {
            0 => cur.join(next),
            _ => cur.fold_keyed(&rest[..run]),
        };
        rest = &rest[run.max(1)..];
    }
    cur
}

/// `answer` over the free variables in the query's declared order
/// (where a generic-join root bag already has them).
fn in_declared_order<S: Semiring>(q: &FaqQuery<S>, answer: Relation<S>) -> Relation<S> {
    if answer.schema() == q.free_vars.as_slice() {
        answer
    } else {
        answer.reorder(&q.free_vars)
    }
}

/// The fold observer of one pass: the plan's predicted rows and the
/// telemetry log the fold points record into. It only records: the
/// pass folds in plan order whatever it sees, and nothing reaches the
/// registry until [`Pass::run`] succeeds.
pub struct CalProbe<'a> {
    registry: &'a CalibrationRegistry,
    digest: &'a StatsDigest,
    node_rows: &'a [u64],
    log: CalibrationLog,
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
            node_rows: &plan.node_rows,
            log: CalibrationLog::new(),
        })
    }

    /// Records one fold point's predicted-vs-actual pair.
    fn observe(&self, node: usize, actual: usize) {
        let Some(&predicted) = self.node_rows.get(node) else {
            return; // structural plan: nothing was predicted
        };
        self.log.record(node, predicted, actual as u64);
    }

    /// Hands the pass's telemetry to the registry.
    fn flush(&self) {
        self.registry.absorb(self.digest, &self.log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_faq_brute_force;
    use faqs_hypergraph::{cycle_query, example_h2, path_query, star_query, Hypergraph};
    use faqs_plan::{plan_query_calibrated, QueryStats};
    use faqs_relation::{generic_join, random_instance, RandomInstanceConfig};
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

        fn bag<'r>(
            &'r mut self,
            pass: &'r Pass<'_, Count>,
            node: NodeId,
        ) -> Result<Timed<Factors<'r, Count>>, Infallible> {
            self.combined.push(node);
            let factors: Vec<&Relation<Count>> = pass
                .plan
                .joins(node)
                .iter()
                .map(|&e| pass.q.factor(e))
                .collect();
            let bag = match factors[..] {
                [] => None,
                [one] => Some(one.clone()),
                _ => Some(generic_join(&factors, pass.plan.var_order(node))),
            };
            self.bags.extend(bag.map(|bag| (node, bag)));
            Ok((factors.into_iter().map(Cow::Borrowed).collect(), 0))
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

    fn instance(h: &Hypergraph, tuples_per_factor: usize, domain: u32) -> FaqQuery<Count> {
        let cfg = RandomInstanceConfig {
            tuples_per_factor,
            domain,
            seed: 7,
        };
        random_instance(h, &cfg, vec![], |_| Count(1))
    }

    /// Binds every multi-factor bag of `plan` in its factors'
    /// concatenation order (not the layout order the planner picks:
    /// the push-down regroups).
    fn bind_in_concatenation_order(q: &FaqQuery<Count>, plan: &mut QueryPlan) {
        for node in plan.ghd.node_ids() {
            let order = plan.joins(node).to_vec();
            if order.len() >= 2 {
                let var_order = &mut plan.var_orders[node.index()];
                var_order.clear();
                for v in order.iter().flat_map(|&e| q.factor(e).schema()) {
                    if !var_order.contains(v) {
                        var_order.push(*v);
                    }
                }
            }
        }
    }

    #[test]
    fn skeleton_visits_each_node_once_and_observes_only_predictions() {
        // The sparse triangle keeps the structural default, three edges
        // under a factorless root; the dense one plans a single bag.
        let fixtures = [
            (star_query(4), false),
            (path_query(4), false),
            (example_h2(), false),
            (cycle_query(3), true),
            (cycle_query(3), false),
        ];
        for (h, generic) in fixtures {
            let q = if generic {
                instance(&h, 300, 24)
            } else {
                instance(&h, 12, 4)
            };
            let mut plan = plan_query_calibrated(&q, None, None, 1.0).unwrap();
            bind_in_concatenation_order(&q, &mut plan);
            assert_eq!(plan.uses_generic_join(), generic, "{h:?}");

            let registry = CalibrationRegistry::new();
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
