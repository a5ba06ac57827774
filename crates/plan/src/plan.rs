//! The plan value: the one GHD plan Theorem G.3's upward pass runs.
//!
//! A [`QueryPlan`] is what the planner emits, what its cost model dry
//! runs and what every site executes — `solve_faq`, the plan-cached
//! executor, the incremental session and the distributed runtime. It
//! holds the GHD and, dense by node, each bag's λ factors in join order,
//! its children in fold order, its push-down nest and its generic-join
//! binding order, plus each edge's shard nest. [`QueryPlan::build`]
//! derives them all from the query and the GHD, once; no consumer
//! derives any of them again.

use crate::cost::PlanCost;
use crate::error::EngineError;
use crate::fingerprint::PlanKey;
use crate::planner::{check_runnable, validate_query, CandidateReport};
use faqs_hypergraph::{internal_node_width, EdgeId, Ghd, NodeId, Var, WidthTerms};
use faqs_relation::FaqQuery;
use faqs_semiring::{Aggregate, Semiring};
use std::cmp::Reverse;

/// One validated GHD plan for one FAQ query shape, scored under one
/// statistics digest.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The GHD the upward pass runs on (hoisted, re-rooted so that
    /// `F ⊆ χ(root)`, validated for push-down legality).
    pub ghd: Ghd,
    /// Per-node binding order of the one worst-case-optimal pass
    /// ([`faqs_relation::generic_join_aggregated`]) that evaluates a bag
    /// of two or more λ factors (dense by `NodeId` index; empty for a
    /// bag of at most one factor, which is every bag of a structural
    /// plan). It is in the push-down's layout order: the variables the
    /// parent's bag sees (ascending; at the root, the free variables in
    /// declared order), then the private ones ascending, so the nest
    /// trails it. Any other permutation of the bag's variables is
    /// correct too, only slower: the pass then lists the bag.
    pub var_orders: Vec<Vec<Var>>,
    /// Predicted cost of this plan (zero for the
    /// [`structural_plan`](crate::structural_plan), which predicts
    /// nothing).
    pub cost: PlanCost,
    /// The cost model's predicted row count per GHD node (dense by
    /// `NodeId`; empty for the structural plan): the `predicted` halves
    /// of the executor's predicted-vs-actual calibration samples.
    pub node_rows: Vec<u64>,
    /// The full scored candidate table (one entry, the default, for the
    /// structural plan).
    pub candidates: Vec<CandidateReport>,
    /// `y(H)`, `n2(H)` and the single-tree flag of the query's width
    /// witness — what Theorem 4.1's bound reads — taken from the one
    /// structural analysis the planner built this plan from (the
    /// witness's, not this plan's GHD's: a cost-chosen candidate may
    /// have more internal nodes). They equal a fresh
    /// [`internal_node_width`] of the query's hypergraph because the
    /// analysis runs that same search on it, and
    /// [`QueryPlan::check_query`] refuses a query of any other shape.
    pub width: WidthTerms,
    /// λ factors per node, smallest listing first (stable on the λ
    /// declaration order): the order a bag's factors are gathered and
    /// joined.
    joins: Vec<Vec<EdgeId>>,
    /// Live children per node, ascending: the message-fold order.
    children: Vec<Vec<NodeId>>,
    /// Push-down nest per node: the variables of `χ(node)` its parent's
    /// bag does not see — at the root, the bound ones — each with its
    /// aggregate, innermost (highest index) first.
    nests: Vec<Vec<(Var, Aggregate)>>,
    /// Shard nest per edge: what each holder sums out of its shard of
    /// that factor before it ships (Corollary G.2 at the shard level).
    shard_nests: Vec<Vec<(Var, Aggregate)>>,
    /// The structural fingerprint of the query the plan was built for.
    key: PlanKey,
}

impl QueryPlan {
    /// The plan of `ghd` for `q`, unscored: every per-node and per-edge
    /// table, no cost, no predicted rows and no candidate table. The
    /// caller has validated `ghd` for `q`, and `width` is the terms of
    /// `q`'s width witness.
    pub(crate) fn build<S: Semiring>(q: &FaqQuery<S>, ghd: Ghd, width: WidthTerms) -> QueryPlan {
        let slots = ghd.node_ids().map(|n| n.index() + 1).max().unwrap_or(1);
        let mut joins = vec![Vec::new(); slots];
        let mut var_orders = vec![Vec::new(); slots];
        let mut children = vec![Vec::new(); slots];
        let mut nests = vec![Vec::new(); slots];
        for node in ghd.node_ids() {
            let i = node.index();
            if let Some(p) = ghd.parent(node) {
                children[p.index()].push(node);
            }
            let mut factors = ghd.node(node).lambda.clone();
            factors.sort_by_key(|&e| q.factor(e).len());
            if factors.len() >= 2 {
                var_orders[i] = binding_order(q, &ghd, node);
            }
            joins[i] = factors;
            nests[i] = nest(q, &ghd, node);
        }
        QueryPlan {
            shard_nests: shard_nests(q, &ghd),
            ghd,
            var_orders,
            cost: PlanCost::default(),
            node_rows: Vec::new(),
            candidates: Vec::new(),
            width,
            joins,
            children,
            nests,
            key: PlanKey::of(q),
        }
    }

    /// The plan of a caller's decomposition `ghd` for `q`, unscored.
    /// Refuses, as the planner would, an instance that fails validation,
    /// an invalid GHD of `q`'s hypergraph, a root missing a free
    /// variable and an elimination order Equation (4) does not license.
    pub fn for_ghd<S: Semiring>(q: &FaqQuery<S>, ghd: Ghd) -> Result<QueryPlan, EngineError> {
        validate_query(q)?;
        ghd.validate(&q.hypergraph)
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        check_runnable(q, &ghd)?;
        let width = internal_node_width(&q.hypergraph).terms();
        Ok(QueryPlan::build(q, ghd, width))
    }

    /// Refuses a query whose hypergraph, free-variable list, aggregates
    /// or carrier capabilities differ from those this plan was built
    /// for: its nests would aggregate the wrong variables under the
    /// wrong operators. Every door that takes a caller's plan asks.
    pub fn check_query<S: Semiring>(&self, q: &FaqQuery<S>) -> Result<(), EngineError> {
        if PlanKey::of(q) == self.key {
            Ok(())
        } else {
            Err(EngineError::Invalid(
                "the plan was built for another hypergraph, free-variable list or aggregate set"
                    .into(),
            ))
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

    /// The λ factors of `node`, in join order.
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

    /// The shard nest of edge `e`: what every holder of a shard of
    /// factor `e` aggregates out before shipping it, innermost first —
    /// the nest the cost model priced.
    #[inline]
    pub fn shard_nest(&self, e: EdgeId) -> &[(Var, Aggregate)] {
        &self.shard_nests[e.index()]
    }

    /// Length of a table dense by `NodeId` index (one past the highest
    /// live node).
    #[inline]
    pub fn slots(&self) -> usize {
        self.children.len()
    }

    /// Whether the cost model kept the structural default.
    pub fn chose_default(&self) -> bool {
        self.candidates.first().is_none_or(|c| c.chosen)
    }

    /// Whether any bag runs the generic join.
    pub fn uses_generic_join(&self) -> bool {
        self.var_orders.iter().any(|o| !o.is_empty())
    }
}

/// `node`'s push-down nest: the variables of `χ(node)` the parent's bag
/// does not see (at the root: the bound ones), innermost first.
fn nest<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd, node: NodeId) -> Vec<(Var, Aggregate)> {
    let keep = ghd.parent(node).map_or(&q.free_vars[..], |p| ghd.chi(p));
    let private = ghd.chi(node).iter().filter(|v| !keep.contains(v));
    let mut nest: Vec<_> = private.map(|&v| (v, q.aggregates[v.index()])).collect();
    nest.sort_unstable_by_key(|&(v, _)| Reverse(v));
    nest
}

/// The binding order of `node`'s bag of two or more factors. Binding
/// the kept variables first (at the root the free ones in declared
/// order, so no closing reorder) and the private ones last, innermost
/// last, makes the bag's whole push-down nest a run of trailing
/// columns, so no regrouping sort runs.
fn binding_order<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd, node: NodeId) -> Vec<Var> {
    let lambda = &ghd.node(node).lambda;
    let mut bag_vars: Vec<Var> = lambda
        .iter()
        .flat_map(|&e| q.hypergraph.edge(e))
        .copied()
        .collect();
    bag_vars.sort_unstable();
    bag_vars.dedup();
    let mut var_order: Vec<Var> = match ghd.parent(node) {
        Some(p) => bag_vars
            .iter()
            .copied()
            .filter(|v| ghd.chi(p).contains(v))
            .collect(),
        None => q
            .free_vars
            .iter()
            .copied()
            .filter(|v| bag_vars.contains(v))
            .collect(),
    };
    bag_vars.retain(|v| !var_order.contains(v));
    var_order.extend(bag_vars);
    var_order
}

/// The GHD-independent half of the shard push-down guard: per factor,
/// the bound `Sum` variables private to that single hyperedge whose
/// exchange respects Equation (4)'s nesting (every higher-indexed bound
/// variable of the same edge is itself `Sum`). Without that same-factor
/// condition the exchange is wrong: `Σ_v Π_w f(v,w) ≠ Π_w Σ_v f(v,w)`.
pub(crate) fn pre_agg_candidates<S: Semiring>(q: &FaqQuery<S>) -> Vec<Vec<Var>> {
    let h = &q.hypergraph;
    let mut edges_of = vec![0usize; h.num_vars()];
    for (_, vars) in h.edges() {
        for v in vars {
            edges_of[v.index()] += 1;
        }
    }
    let summed = |w: Var| q.is_free(w) || q.aggregates[w.index()] == Aggregate::Sum;
    h.edges()
        .map(|(_, vars)| {
            let shippable = |v: Var| {
                !q.is_free(v)
                    && summed(v)
                    && edges_of[v.index()] == 1
                    && vars.iter().all(|&w| w <= v || summed(w))
            };
            vars.iter().copied().filter(|&v| shippable(v)).collect()
        })
        .collect()
}

/// Every edge's shard nest for `ghd` (Corollary G.2 / Appendix G.6 at
/// the shard level): the [`pre_agg_candidates`] of the edge that sit in
/// exactly one χ bag, summed out innermost first. `⊗` distributes over
/// `⊕` across the other factors (the variable appears in none of them),
/// `Sum` commutes with `Sum`, and `Product` aggregates are gated to
/// idempotent carriers, for which `(⊕_v f)^m = ⊕_v f^m`.
fn shard_nests<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd) -> Vec<Vec<(Var, Aggregate)>> {
    let mut bags_of = vec![0usize; q.hypergraph.num_vars()];
    for node in ghd.node_ids() {
        for v in ghd.chi(node) {
            bags_of[v.index()] += 1;
        }
    }
    pre_agg_candidates(q)
        .into_iter()
        .map(|vars| {
            let single_bag = vars.into_iter().filter(|v| bags_of[v.index()] == 1);
            let mut nest: Vec<_> = single_bag.map(|v| (v, Aggregate::Sum)).collect();
            nest.sort_unstable_by_key(|&(v, _)| Reverse(v));
            nest
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan_query_with, structural_plan};
    use faqs_hypergraph::{cycle_query, path_query, star_query};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::Count;

    fn build<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
        plan_query_with(q, None, None)
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
    fn nests_are_the_private_variables_innermost_first() {
        // A path rooted wherever the planner likes: every bound variable
        // is aggregated at exactly one node, highest index first there,
        // and a free variable nowhere.
        let bound = [Var(0), Var(1), Var(3), Var(4)];
        let q = inst(&path_query(4), vec![Var(2)], 3);
        let q = bound
            .iter()
            .fold(q, |q, &v| q.with_aggregate(v, Aggregate::Max));
        let plan = structural_plan(&q).unwrap();
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
