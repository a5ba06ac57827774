//! Push-down validity checks (moved from `faqs-core`): every bound
//! variable's aggregate must be one the carrier admits, product
//! aggregates need an idempotent `⊗`, and the GHD's planned elimination
//! order must be a legal reordering of Equation (4)'s nesting. Every
//! plan candidate is validated with these before it may be chosen.

use crate::error::EngineError;
use faqs_hypergraph::{Ghd, Var};
use faqs_relation::FaqQuery;
use faqs_semiring::{Aggregate, Semiring};

/// The capability check, asked of the carrier: each bound variable's
/// `⊕⁽ⁱ⁾` must form a commutative semiring with `⊗` sharing `0`/`1`
/// ([`Semiring::admits`]). `min` on ℕ fails it — its identity is not the
/// carrier's `0`, so the listing representation, which drops zeros,
/// would silently answer a different query.
pub(crate) fn check_aggregates_admitted<S: Semiring>(q: &FaqQuery<S>) -> Result<(), EngineError> {
    for v in q.hypergraph.vars() {
        if !q.is_free(v) {
            q.aggregates[v.index()]
                .validate::<S>()
                .map_err(|e| EngineError::RefusedAggregate(v, e))?;
        }
    }
    Ok(())
}

/// Product aggregates are only push-down-safe when `⊗` is idempotent
/// (e.g. the Boolean semiring, where they model universal
/// quantification); reject them otherwise.
pub fn check_product_aggregates<S: Semiring>(q: &FaqQuery<S>) -> Result<(), EngineError> {
    if S::IDEMPOTENT_MUL {
        return Ok(());
    }
    for v in q.hypergraph.vars() {
        if !q.is_free(v) && q.aggregates[v.index()] == Aggregate::Product {
            return Err(EngineError::NonIdempotentProduct(v));
        }
    }
    Ok(())
}

/// The elimination order the upward pass will use: per node in
/// post-order, the variables private to that node in decreasing index;
/// finally the root's bound variables in decreasing index.
fn planned_elimination_order<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd) -> Vec<Var> {
    let mut order = Vec::new();
    let mut eliminated = vec![false; q.hypergraph.num_vars()];
    for node in ghd.post_order() {
        let chi = ghd.chi(node).iter().copied();
        let scope: Vec<Var> = match ghd.parent(node) {
            // The root, the one node without a parent.
            None => chi.filter(|v| !q.is_free(*v)).collect(),
            Some(parent) => {
                let parent_chi = ghd.chi(parent);
                chi.filter(|v| !parent_chi.contains(v)).collect()
            }
        };
        let mut scope: Vec<Var> = scope
            .into_iter()
            .filter(|v| !eliminated[v.index()])
            .collect();
        scope.sort_unstable_by(|a, b| b.cmp(a));
        for v in scope {
            eliminated[v.index()] = true;
            order.push(v);
        }
    }
    order
}

/// Public gate used by the distributed protocols, which eliminate the
/// same private-variable sets on the same GHD: validates the aggregates
/// against the carrier, product aggregates (idempotence) and the
/// push-down order in one call.
pub fn check_push_down<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd) -> Result<(), EngineError> {
    check_aggregates_admitted(q)?;
    check_product_aggregates(q)?;
    check_elimination_order(q, ghd)
}

/// Verifies the planned elimination order is a legal reordering of
/// Equation (4)'s canonical innermost-first order: every *inverted* pair
/// (a variable eliminated before a higher-indexed one) must either share
/// the aggregate operator or never co-occur in a hyperedge (in which
/// case the join factorises conditionally on the pending separator and
/// Theorem G.1's second condition applies).
///
/// Co-occurrence is answered from per-variable edge bitsets built in one
/// pass over the hypergraph, so each pair probe is a handful of word
/// ANDs instead of an O(|E|·arity) edge scan — on wide hypergraphs
/// (hundreds of edges) the old inner probe dominated validation, which
/// matters now that cached plans amortise everything *except* this
/// check's first run. Uniformly-aggregated queries (the FAQ-SS common
/// case) short-circuit to `Ok` without building anything: when every
/// variable has one aggregate, so has every order.
pub fn check_elimination_order<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd) -> Result<(), EngineError> {
    let mut aggregates = q.hypergraph.vars().map(|v| q.aggregates[v.index()]);
    if let Some(first) = aggregates.next() {
        if aggregates.all(|a| a == first) {
            return Ok(());
        }
    }
    let order = planned_elimination_order(q, ghd);
    let uniform = order
        .windows(2)
        .all(|w| q.aggregates[w[0].index()] == q.aggregates[w[1].index()]);
    if uniform {
        return Ok(()); // every exchange is between equal aggregates
    }

    // occ[v] = bitset over edge ids containing v, packed per variable.
    let words = q.hypergraph.num_edges().div_ceil(64);
    let mut occ = vec![0u64; q.hypergraph.num_vars() * words];
    for (e, vars) in q.hypergraph.edges() {
        let (word, bit) = (e.index() / 64, 1u64 << (e.index() % 64));
        for v in vars {
            occ[v.index() * words + word] |= bit;
        }
    }
    let edges_of = |v: Var| &occ[v.index() * words..(v.index() + 1) * words];

    for i in 0..order.len() {
        let a = order[i];
        let agg_a = q.aggregates[a.index()];
        let occ_a = edges_of(a);
        for &b in order.iter().skip(i + 1) {
            if a >= b {
                continue; // canonical order eliminates b (higher) first anyway
            }
            if agg_a == q.aggregates[b.index()] {
                continue;
            }
            let co_occur = occ_a.iter().zip(edges_of(b)).any(|(x, y)| x & y != 0);
            if co_occur {
                return Err(EngineError::IncompatibleAggregateOrder(a, b));
            }
        }
    }
    Ok(())
}
