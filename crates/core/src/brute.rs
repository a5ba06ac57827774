//! Direct evaluation of Equation (4) — the test oracle.
//!
//! # Aggregation semantics
//!
//! With inputs in listing representation, this library (engine, oracle
//! and distributed protocols alike) evaluates general FAQs with
//! *relational* aggregation semantics: the join `⨝_e R_e` is
//! materialised (conceptually), and bound variables are then aggregated
//! out one at a time in Equation (4)'s nesting order — innermost
//! (highest index) first — grouping by the remaining attributes.
//!
//! For **semiring aggregates** (`Sum`, and `Max`/`Min` where legal) this
//! coincides with the paper's full-domain reading of Equation (4),
//! because absent tuples carry the additive identity `0` of every
//! semiring aggregate. For the **product aggregate** `⊕⁽ⁱ⁾ = ⊗` the two
//! readings differ (a full-domain product over a sparse listing is
//! almost always `0`); the relational reading — "⊗ over the tuples
//! present in the group" — is the meaningful one (it is universal
//! quantification over witnesses on the Boolean semiring) and is what
//! this crate implements throughout.

use faqs_hypergraph::Var;
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Semiring;

/// Evaluates the query by exhaustive enumeration: materialise every
/// satisfying assignment of the join, then aggregate the bound variables
/// innermost-first with their declared operators.
///
/// Exponential in `|V|` — intended as the oracle for tests and tiny
/// experiments. Panics on an invalid query, and on an aggregate the
/// carrier does not admit: Equation (4) is not defined for it.
pub fn solve_faq_brute_force<S: Semiring>(q: &FaqQuery<S>) -> Relation<S> {
    q.validate().expect("brute force requires a valid query");
    let mut bound: Vec<Var> = q.bound_vars();
    for v in &bound {
        let op = q.aggregates[v.index()];
        assert!(S::admits(op), "{op:?} on {v} is not legal over {}", S::NAME);
    }
    let n = q.hypergraph.num_vars();
    let d = q.domain as u64;

    let factor_positions: Vec<Vec<usize>> = q
        .hypergraph
        .edges()
        .map(|(_, vars)| vars.iter().map(|v| v.index()).collect())
        .collect();

    // Materialise the annotated join over all n variables by brute
    // enumeration of the full domain. Assignments are generated in
    // lexicographic order, so the satisfying rows land in the arena
    // already sorted and `from_columns` skips its canonicalising sort;
    // the per-factor probe reuses one scratch key buffer (tuple views,
    // no per-assignment boxing).
    let all_vars: Vec<Var> = q.hypergraph.vars().collect();
    let total = d.pow(n as u32);
    assert!(total <= 1 << 26, "brute force domain too large: {total}");
    let mut assignment = vec![0u32; n];
    let max_arity = factor_positions.iter().map(Vec::len).max().unwrap_or(0);
    let mut key = vec![0u32; max_arity];
    let mut data: Vec<u32> = Vec::new();
    let mut values: Vec<S> = Vec::new();
    for enc in 0..total {
        let mut rem = enc;
        for slot in assignment.iter_mut().rev() {
            *slot = (rem % d) as u32;
            rem /= d;
        }
        let mut acc = S::one();
        let mut dead = false;
        for (e, pos) in factor_positions.iter().enumerate() {
            for (k, &i) in key.iter_mut().zip(pos) {
                *k = assignment[i];
            }
            match q.factors[e].get(&key[..pos.len()]) {
                Some(v) => acc.mul_assign(v),
                None => {
                    dead = true;
                    break;
                }
            }
        }
        if !dead && !acc.is_zero() {
            data.extend_from_slice(&assignment);
            values.push(acc);
        }
    }
    let join = Relation::<S>::from_columns(all_vars, data, values);

    // Aggregate bound variables innermost (highest index) first.
    bound.sort_unstable_by(|a, b| b.cmp(a));
    let mut rel = join;
    for v in bound {
        rel = rel.aggregate_out(v, q.aggregates[v.index()]);
    }
    if rel.schema() != q.free_vars.as_slice() {
        rel = rel.reorder(&q.free_vars);
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{path_query, star_query};
    use faqs_relation::BcqBuilder;
    use faqs_semiring::{Boolean, Count};

    #[test]
    fn brute_force_counts_full_relations() {
        // Two-edge path x0-x1-x2 with full relations over domain 3:
        // total assignments = 27, all products = 1 ⇒ scalar 27.
        let h = path_query(2);
        let factors = h
            .edges()
            .map(|(_, vars)| Relation::full(vars.to_vec(), 3))
            .collect();
        let q: FaqQuery<Count> = FaqQuery::new_ss(h, factors, vec![], 3);
        assert_eq!(solve_faq_brute_force(&q).total(), Count(27));
    }

    #[test]
    fn brute_force_bcq() {
        let h = star_query(2);
        let mut b = BcqBuilder::new(&h, 4);
        b.relation_from_pairs(0, [(0, 1)]);
        b.relation_from_pairs(1, [(0, 2)]);
        let q = b.finish();
        assert_eq!(solve_faq_brute_force(&q).total(), Boolean::TRUE);

        let mut b2 = BcqBuilder::new(&h, 4);
        b2.relation_from_pairs(0, [(0, 1)]);
        b2.relation_from_pairs(1, [(1, 2)]);
        let q2 = b2.finish();
        assert_eq!(solve_faq_brute_force(&q2).total(), Boolean::FALSE);
    }

    #[test]
    fn brute_force_with_free_vars() {
        let h = star_query(2);
        let factors = h
            .edges()
            .map(|(_, vars)| Relation::full(vars.to_vec(), 2))
            .collect();
        let q: FaqQuery<Count> = FaqQuery::new_ss(h, factors, vec![faqs_hypergraph::Var(0)], 2);
        let r = solve_faq_brute_force(&q);
        // For each x0: 2 choices of x1 × 2 choices of x2 = 4.
        assert_eq!(r.get(&[0]), Some(&Count(4)));
        assert_eq!(r.get(&[1]), Some(&Count(4)));
    }

    #[test]
    fn product_aggregate_is_universal_quantification() {
        // Boolean star, product-aggregate the leaf variable x1:
        // ∧ over present x1 values is trivially true per group, so the
        // query reduces to reachability of x0 through both relations.
        let h = star_query(2);
        let mut b = BcqBuilder::new(&h, 4);
        b.relation_from_pairs(0, [(0, 1), (0, 2)]);
        b.relation_from_pairs(1, [(0, 3)]);
        let q = b
            .finish()
            .with_aggregate(faqs_hypergraph::Var(1), faqs_semiring::Aggregate::Product);
        assert_eq!(solve_faq_brute_force(&q).total(), Boolean::TRUE);
    }
}
