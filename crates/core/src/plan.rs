//! Cached query plans: everything `solve_faq` derives from the query
//! shape and statistics, computed once and replayed across calls.
//!
//! A [`QueryPlan`] packages the planner's [`ChosenPlan`] — the
//! validated GHD (GYO run, MD-hoisting, re-rooting for free variables,
//! cost-based candidate selection in `faqs-plan`) and the per-node
//! factor join order — lowered to execution form: each join step
//! carries the index-key schema the probe will use, and the per-node
//! child lists drive the upward pass of Theorem G.3. Building one costs
//! the same as a cold `solve_faq` prologue; replaying one costs a hash
//! lookup — plus, under stats-driven planning, the one-pass statistics
//! scan that computes the digest being looked up.

use faqs_hypergraph::{EdgeId, Ghd, NodeId, Var};
use faqs_plan::{BagOp, ChosenPlan, EngineError, PlacementContext, PlanCost, PlannerConfig};
use faqs_relation::FaqQuery;
use faqs_semiring::{Aggregate, Semiring};
use std::cmp::Reverse;

/// One step of a node's factor-join pipeline: absorb `edge`'s factor,
/// probing an index built on exactly `key` (the variables the factor
/// shares with the accumulated schema so far). The first step of every
/// node has an empty `key` — its factor seeds the accumulator.
#[derive(Clone, Debug)]
pub struct JoinStep {
    /// The hyperedge whose factor this step absorbs.
    pub edge: EdgeId,
    /// Index-key schema for the probe (empty for the seeding step).
    pub key: Vec<Var>,
}

/// A validated, cached execution plan for one FAQ query shape (and,
/// with statistics enabled, one statistics digest).
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The GHD the upward pass runs on (hoisted, re-rooted so that
    /// `F ⊆ χ(root)`, cost-selected by `faqs-plan`).
    pub ghd: Ghd,
    /// The planner's predicted cost of this plan (zeros when planned
    /// structurally).
    pub cost: PlanCost,
    /// Whether statistics informed the choice.
    pub stats_aware: bool,
    /// Live children of each node (dense by `NodeId` index), in
    /// ascending node order — the deterministic message-fold order.
    children: Vec<Vec<NodeId>>,
    /// Factor-join pipeline per node (dense by `NodeId` index), in the
    /// planner's join order; on a cache hit with different data the
    /// order is merely a heuristic, never a correctness concern.
    joins: Vec<Vec<JoinStep>>,
    /// Per-node operator choice (dense by `NodeId` index): cascade the
    /// join steps, or materialise the bag in one generic-join pass.
    bag_ops: Vec<BagOp>,
    /// Push-down nest per node (dense by `NodeId` index): the variables
    /// of `χ(node)` its parent's bag does not see — at the root, the
    /// bound ones — each with its aggregate, innermost (highest index)
    /// first, the order Equation (4)'s nesting requires.
    nests: Vec<Vec<(Var, Aggregate)>>,
    /// The cost model's predicted row count per node (dense by `NodeId`
    /// index; empty for structural plans) — the `predicted` halves of
    /// the executor's calibration samples.
    node_rows: Vec<u64>,
    /// The calibration correction the plan was scored under (`1.0` =
    /// uncalibrated); the cache's freshness predicate compares it to
    /// the registry's current correction.
    correction: f64,
}

impl QueryPlan {
    /// Builds and validates the plan for `q` under an explicit planner
    /// configuration and an optional placement context (the distributed
    /// runtime scores candidates on predicted shipped bits through the
    /// latter).
    pub fn build_with<S: Semiring>(
        q: &FaqQuery<S>,
        planner: &PlannerConfig,
        placement: Option<&PlacementContext<'_>>,
    ) -> Result<QueryPlan, EngineError> {
        Self::build_calibrated(q, planner, placement, None, 1.0)
    }

    /// [`QueryPlan::build_with`] under a calibration `correction` (and
    /// optional precomputed stats): the executor's planning path once a
    /// [`faqs_plan::CalibrationRegistry`] has learned this shape.
    pub fn build_calibrated<S: Semiring>(
        q: &FaqQuery<S>,
        planner: &PlannerConfig,
        placement: Option<&PlacementContext<'_>>,
        stats: Option<&faqs_plan::QueryStats>,
        correction: f64,
    ) -> Result<QueryPlan, EngineError> {
        let chosen = faqs_plan::plan_query_calibrated(q, planner, placement, stats, correction)?;
        Ok(Self::lower(q, chosen))
    }

    /// Lowers a [`ChosenPlan`] to execution form: per-node child lists,
    /// push-down nests and join steps with precomputed index-key
    /// schemas, consuming the planner's join order verbatim (the
    /// executor's old smallest-first sort is gone —
    /// `faqs_plan::join_order_for_ghd` is the only implementation left).
    pub fn lower<S: Semiring>(q: &FaqQuery<S>, chosen: ChosenPlan) -> QueryPlan {
        let ChosenPlan {
            ghd,
            join_order,
            bag_ops,
            cost,
            stats_aware,
            node_rows,
            correction,
            ..
        } = chosen;
        let n_nodes = ghd.node_ids().map(|n| n.index()).max().unwrap_or(0) + 1;
        let mut bag_ops = bag_ops;
        bag_ops.resize(n_nodes, BagOp::Cascade);
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n_nodes];
        let mut joins: Vec<Vec<JoinStep>> = vec![Vec::new(); n_nodes];
        let mut nests: Vec<Vec<(Var, Aggregate)>> = vec![Vec::new(); n_nodes];
        for node in ghd.node_ids() {
            children[node.index()] = ghd.children(node);
            let keep = ghd.parent(node).map_or(&q.free_vars[..], |p| ghd.chi(p));
            let private = ghd.chi(node).iter().filter(|v| !keep.contains(v));
            let mut nest: Vec<_> = private.map(|&v| (v, q.aggregates[v.index()])).collect();
            nest.sort_unstable_by_key(|&(v, _)| Reverse(v));
            debug_assert!(
                nest.iter().all(|(v, _)| !q.is_free(*v)),
                "free vars never private (RIP + F ⊆ root)"
            );
            nests[node.index()] = nest;
            let factors = &join_order[node.index()];
            debug_assert!(
                faqs_plan::join_order_covers_lambda(&ghd, node, factors),
                "join order must be the planner's permutation of λ(node)"
            );
            let mut steps: Vec<JoinStep> = Vec::with_capacity(factors.len());
            let mut acc_schema: Vec<Var> = Vec::new();
            for &e in factors {
                let vars = q.hypergraph.edge(e);
                let key: Vec<Var> = if steps.is_empty() {
                    Vec::new()
                } else {
                    acc_schema
                        .iter()
                        .copied()
                        .filter(|v| vars.contains(v))
                        .collect()
                };
                let fresh: Vec<Var> = vars
                    .iter()
                    .copied()
                    .filter(|v| !acc_schema.contains(v))
                    .collect();
                acc_schema.extend(fresh);
                steps.push(JoinStep { edge: e, key });
            }
            joins[node.index()] = steps;
        }
        QueryPlan {
            ghd,
            cost,
            stats_aware,
            children,
            joins,
            bag_ops,
            nests,
            node_rows,
            correction,
        }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.ghd.root()
    }

    /// Live children of `node`, in the deterministic fold order.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// The factor-join pipeline of `node`.
    #[inline]
    pub fn joins(&self, node: NodeId) -> &[JoinStep] {
        &self.joins[node.index()]
    }

    /// How `node`'s bag materialises from its λ factors.
    #[inline]
    pub fn bag_op(&self, node: NodeId) -> &BagOp {
        &self.bag_ops[node.index()]
    }

    /// The push-down nest of `node`: what its message (the answer, at
    /// the root) aggregates out, innermost first.
    #[inline]
    pub fn nest(&self, node: NodeId) -> &[(Var, Aggregate)] {
        &self.nests[node.index()]
    }

    /// Whether any bag lowers to the generic join.
    pub fn uses_generic_join(&self) -> bool {
        self.bag_ops.iter().any(BagOp::is_generic_join)
    }

    /// The cost model's predicted rows per node (dense by `NodeId`;
    /// empty for structural plans).
    #[inline]
    pub fn node_rows(&self) -> &[u64] {
        &self.node_rows
    }

    /// The calibration correction this plan was scored under.
    #[inline]
    pub fn correction(&self) -> f64 {
        self.correction
    }

    /// Total number of live GHD nodes (sizing hint for schedulers).
    pub fn num_nodes(&self) -> usize {
        self.ghd.len()
    }

    /// Length of a table dense by `NodeId` index (one past the highest
    /// live node).
    pub fn slots(&self) -> usize {
        self.children.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{cycle_query, example_h2, path_query, star_query};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Count};

    fn build<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
        QueryPlan::build_with(q, &PlannerConfig::default(), None)
    }

    fn inst(h: &faqs_hypergraph::Hypergraph, free: Vec<Var>, seed: u64) -> FaqQuery<Count> {
        random_instance(
            h,
            &RandomInstanceConfig {
                tuples_per_factor: 5,
                domain: 3,
                seed,
            },
            free,
            |_| Count(1),
        )
    }

    #[test]
    fn plan_join_keys_cover_shared_vars() {
        for h in [star_query(3), path_query(4), example_h2()] {
            let q = inst(&h, vec![], 7);
            let plan = build(&q).unwrap();
            for node in plan.ghd.node_ids() {
                let steps = plan.joins(node);
                let mut acc: Vec<Var> = Vec::new();
                for (i, s) in steps.iter().enumerate() {
                    let vars = q.hypergraph.edge(s.edge);
                    if i == 0 {
                        assert!(s.key.is_empty());
                        acc.extend(vars.iter().copied());
                    } else {
                        let expect: Vec<Var> =
                            acc.iter().copied().filter(|v| vars.contains(v)).collect();
                        assert_eq!(s.key, expect, "key = shared(acc, factor)");
                        let fresh: Vec<Var> =
                            vars.iter().copied().filter(|v| !acc.contains(v)).collect();
                        acc.extend(fresh);
                    }
                }
            }
        }
    }

    #[test]
    fn nests_are_the_private_variables_innermost_first() {
        // A path rooted wherever the planner likes: every bound variable
        // is aggregated at exactly one node, highest index first there,
        // and a free variable nowhere.
        let bound = [Var(0), Var(1), Var(3), Var(4)];
        let q = inst(&path_query(4), vec![Var(2)], 3);
        let q = bound
            .iter()
            .fold(q, |q, &v| q.with_aggregate(v, Aggregate::Max));
        let plan = QueryPlan::build_with(&q, &PlannerConfig::structural(), None).unwrap();
        let mut seen: Vec<(Var, Aggregate)> = Vec::new();
        for node in plan.ghd.node_ids() {
            let nest = plan.nest(node);
            assert!(nest.windows(2).all(|w| w[0].0 > w[1].0), "{nest:?}");
            let keep = plan.ghd.parent(node).map(|p| plan.ghd.chi(p));
            assert!(nest.iter().all(|(v, _)| plan.ghd.chi(node).contains(v)
                && !keep.is_some_and(|keep| keep.contains(v))));
            seen.extend(nest);
        }
        seen.sort_unstable_by_key(|(v, _)| *v);
        assert_eq!(seen, bound.map(|v| (v, Aggregate::Max)));

        // A generic-join bag's binding order ends in its nest, outermost
        // first: the push-down finds it in layout order.
        let dense = RandomInstanceConfig {
            tuples_per_factor: 300,
            domain: 24,
            seed: 1,
        };
        let free = vec![Var(2), Var(0)];
        let q: FaqQuery<Count> = random_instance(&cycle_query(3), &dense, free, |_| Count(1));
        let plan = QueryPlan::build_with(&q, &PlannerConfig::stats(), None).unwrap();
        let root = plan.root();
        let BagOp::GenericJoin { var_order } = plan.bag_op(root) else {
            panic!("the dense triangle lowers to one generic-join bag");
        };
        assert_eq!(var_order, &[Var(2), Var(0), Var(1)]);
        assert_eq!(plan.nest(root), [(Var(1), Aggregate::Sum)]);
    }

    #[test]
    fn plan_rejects_an_aggregate_the_carrier_refuses() {
        // The carrier decides: ℕ admits `max`, not `min`.
        let q = inst(&star_query(2), vec![], 1);
        let min = q.clone().with_aggregate(Var(1), Aggregate::Min);
        assert!(matches!(
            build(&min),
            Err(EngineError::RefusedAggregate(Var(1), _))
        ));
        assert!(build(&q.with_aggregate(Var(1), Aggregate::Max)).is_ok());
    }

    #[test]
    fn plan_rejects_unplaceable_free_vars() {
        let q = inst(&path_query(5), vec![Var(0), Var(5)], 1);
        assert!(matches!(
            build(&q),
            Err(EngineError::FreeVarsOutsideCore(_))
        ));
    }
}
