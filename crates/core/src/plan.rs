//! Cached query plans: everything `solve_faq` derives from the query
//! shape and statistics, computed once and replayed across calls.
//!
//! A [`QueryPlan`] is the planner's [`ChosenPlan`] — the validated GHD
//! (GYO run, MD-hoisting, re-rooting for free variables, cost-based
//! candidate selection in `faqs-plan`), the per-node factor join order
//! and each multi-factor bag's generic-join binding order — lowered to
//! execution form by [`QueryPlan::lower`], the one lowering door: the
//! per-node child lists and push-down nests drive the upward pass of
//! Theorem G.3. `faqs_plan::plan_query_calibrated` chooses, this module
//! lowers, and `faqs-exec`'s `PlanCache::plan` caches the pair, so a
//! repeated shape costs a hash lookup plus the statistics read that
//! computes the digest being looked up.

use faqs_hypergraph::{EdgeId, Ghd, NodeId, Var};
use faqs_plan::{ChosenPlan, PlanCost};
use faqs_relation::FaqQuery;
use faqs_semiring::{Aggregate, Semiring};
use std::cmp::Reverse;

/// A validated, cached execution plan for one FAQ query shape and one
/// statistics digest.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The GHD the upward pass runs on (hoisted, re-rooted so that
    /// `F ⊆ χ(root)`, cost-selected by `faqs-plan`).
    pub ghd: Ghd,
    /// The planner's predicted cost of this plan (zeros for
    /// `faqs_plan::structural_plan`).
    pub cost: PlanCost,
    /// Live children of each node (dense by `NodeId` index), in
    /// ascending node order — the deterministic message-fold order.
    children: Vec<Vec<NodeId>>,
    /// λ factors per node (dense by `NodeId` index), in the planner's
    /// join order — the generic join's annotation fold order; on a
    /// cache hit with different data the order is merely a heuristic,
    /// never a correctness concern.
    joins: Vec<Vec<EdgeId>>,
    /// Generic-join binding order per node (dense by `NodeId` index;
    /// empty for a bag of at most one factor).
    var_orders: Vec<Vec<Var>>,
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
    /// Lowers a [`ChosenPlan`] to execution form: per-node child lists
    /// and push-down nests, consuming the planner's join and binding
    /// orders verbatim (`faqs_plan::join_order_for_ghd` is the only
    /// implementation of the join order).
    pub fn lower<S: Semiring>(q: &FaqQuery<S>, chosen: ChosenPlan) -> QueryPlan {
        let ChosenPlan {
            ghd,
            join_order,
            var_orders,
            cost,
            node_rows,
            correction,
            ..
        } = chosen;
        let n_nodes = ghd.node_ids().map(|n| n.index()).max().unwrap_or(0) + 1;
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n_nodes];
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
            debug_assert!(
                faqs_plan::join_order_covers_lambda(&ghd, node, &join_order[node.index()]),
                "join order must be the planner's permutation of λ(node)"
            );
            debug_assert!(
                var_orders
                    .get(node.index())
                    .is_some_and(|o| o.is_empty() == (join_order[node.index()].len() < 2)),
                "a binding order for exactly the bags of two or more factors"
            );
        }
        QueryPlan {
            ghd,
            cost,
            children,
            joins: join_order,
            var_orders,
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

    /// The λ factors of `node`, in the planner's join order.
    #[inline]
    pub fn joins(&self, node: NodeId) -> &[EdgeId] {
        &self.joins[node.index()]
    }

    /// The generic-join binding order of `node`'s bag (empty for a bag
    /// of at most one factor).
    #[inline]
    pub fn var_order(&self, node: NodeId) -> &[Var] {
        &self.var_orders[node.index()]
    }

    /// The push-down nest of `node`: what its message (the answer, at
    /// the root) aggregates out, innermost first.
    #[inline]
    pub fn nest(&self, node: NodeId) -> &[(Var, Aggregate)] {
        &self.nests[node.index()]
    }

    /// Whether any bag lowers to the generic join.
    pub fn uses_generic_join(&self) -> bool {
        self.var_orders.iter().any(|o| !o.is_empty())
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
    use faqs_plan::{plan_query_calibrated, structural_plan, EngineError};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Count};

    fn build<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
        plan_query_calibrated(q, None, None, 1.0).map(|c| QueryPlan::lower(q, c))
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
    fn lowering_keeps_the_planner_orders() {
        for h in [star_query(3), path_query(4), example_h2(), cycle_query(3)] {
            let q = inst(&h, vec![], 7);
            let chosen = plan_query_calibrated(&q, None, None, 1.0).unwrap();
            let plan = QueryPlan::lower(&q, chosen.clone());
            for node in plan.ghd.node_ids() {
                assert_eq!(plan.joins(node), chosen.join_order[node.index()]);
                assert_eq!(plan.var_order(node), chosen.var_orders[node.index()]);
                // Only a bag of two or more factors binds variables.
                assert_eq!(plan.var_order(node).is_empty(), plan.joins(node).len() < 2);
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
        let plan = QueryPlan::lower(&q, structural_plan(&q).unwrap());
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
        let plan = build(&q).unwrap();
        let root = plan.root();
        assert_eq!(plan.joins(root).len(), 3, "one generic-join bag");
        assert_eq!(plan.var_order(root), [Var(2), Var(0), Var(1)]);
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
