//! Convenience builder for Boolean Conjunctive Query instances.

use crate::query::FaqQuery;
use crate::relation::Relation;
use faqs_hypergraph::{EdgeId, Hypergraph};
use faqs_semiring::Boolean;

/// Builds a [`FaqQuery`] over the Boolean semiring with `F = ∅` — the
/// BCQ instantiation of Section 1.
///
/// Relations default to empty; fill them per hyperedge with
/// [`BcqBuilder::relation_from_tuples`] (arbitrary arity) or
/// [`BcqBuilder::relation_from_pairs`] (binary edges).
pub struct BcqBuilder {
    hypergraph: Hypergraph,
    factors: Vec<Relation<Boolean>>,
    domain: u32,
}

impl BcqBuilder {
    /// Starts a builder for hypergraph `h` with uniform domain `[0,
    /// domain)`.
    pub fn new(h: &Hypergraph, domain: usize) -> Self {
        let factors = h
            .edges()
            .map(|(_, vars)| Relation::new(vars.to_vec()))
            .collect();
        BcqBuilder {
            hypergraph: h.clone(),
            factors,
            domain: domain as u32,
        }
    }

    /// Sets the relation of edge `e` from full tuples (schema order =
    /// the edge's sorted variable order).
    pub fn relation_from_tuples<I>(&mut self, e: usize, tuples: I) -> &mut Self
    where
        I: IntoIterator<Item = Vec<u32>>,
    {
        let schema = self.hypergraph.edge(EdgeId(e as u32)).to_vec();
        self.factors[e] =
            Relation::from_pairs(schema, tuples.into_iter().map(|t| (t, Boolean::TRUE)));
        self
    }

    /// Sets the relation of a *binary* edge `e` from `(a, b)` pairs.
    pub fn relation_from_pairs<I>(&mut self, e: usize, pairs: I) -> &mut Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        assert_eq!(
            self.hypergraph.edge(EdgeId(e as u32)).len(),
            2,
            "relation_from_pairs requires a binary edge"
        );
        self.relation_from_tuples(e, pairs.into_iter().map(|(a, b)| vec![a, b]))
    }

    /// Sets the relation of a *unary* edge `e` from single values
    /// (the self-loop relations of Example 2.1).
    pub fn relation_from_values<I>(&mut self, e: usize, values: I) -> &mut Self
    where
        I: IntoIterator<Item = u32>,
    {
        assert_eq!(
            self.hypergraph.edge(EdgeId(e as u32)).len(),
            1,
            "relation_from_values requires a unary edge"
        );
        self.relation_from_tuples(e, values.into_iter().map(|a| vec![a]))
    }

    /// Finalises the BCQ instance (`F = ∅`).
    pub fn finish(&mut self) -> FaqQuery<Boolean> {
        let q = FaqQuery::new_ss(
            self.hypergraph.clone(),
            std::mem::take(&mut self.factors),
            vec![],
            self.domain,
        );
        q.validate().expect("builder produces valid queries");
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{example_h0, star_query};

    #[test]
    fn builds_star_instance() {
        let h = star_query(3);
        let mut b = BcqBuilder::new(&h, 8);
        for e in 0..3 {
            b.relation_from_pairs(e, (0..8).map(|i| (i, i)));
        }
        let q = b.finish();
        assert_eq!(q.k(), 3);
        assert_eq!(q.n_max(), 8);
    }

    #[test]
    fn builds_self_loop_instance() {
        let h = example_h0();
        let mut b = BcqBuilder::new(&h, 16);
        for e in 0..4 {
            b.relation_from_values(e, 0..16);
        }
        let q = b.finish();
        assert_eq!(q.arity(), 1);
        assert_eq!(q.n_max(), 16);
    }

    #[test]
    #[should_panic(expected = "binary edge")]
    fn pairs_require_binary_edges() {
        let h = example_h0();
        BcqBuilder::new(&h, 4).relation_from_pairs(0, [(0, 0)]);
    }
}
