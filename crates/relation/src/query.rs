//! FAQ query instances: Equation (4) of the paper.

use crate::relation::Relation;
use faqs_hypergraph::{EdgeId, Hypergraph, Var};
use faqs_semiring::{Aggregate, Semiring};

/// Validation failure for an FAQ instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Factor count differs from the hypergraph's edge count.
    FactorCountMismatch {
        /// Number of hyperedges.
        edges: usize,
        /// Number of supplied factors.
        factors: usize,
    },
    /// A factor's schema is not the corresponding hyperedge.
    SchemaMismatch(EdgeId),
    /// A tuple mentions a value outside `[0, domain)`.
    ValueOutOfDomain(EdgeId),
    /// A free variable does not exist in the hypergraph.
    UnknownFreeVar(Var),
    /// `aggregates` does not hold one operator per variable.
    AggregateCountMismatch {
        /// Number of variables of the hypergraph.
        vars: usize,
        /// Number of supplied aggregates.
        aggregates: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::FactorCountMismatch { edges, factors } => {
                write!(f, "{factors} factors for {edges} hyperedges")
            }
            QueryError::SchemaMismatch(e) => write!(f, "factor schema mismatch on {e}"),
            QueryError::ValueOutOfDomain(e) => write!(f, "value out of domain in {e}"),
            QueryError::UnknownFreeVar(v) => write!(f, "unknown free variable {v}"),
            QueryError::AggregateCountMismatch { vars, aggregates } => {
                write!(f, "{aggregates} aggregates for {vars} variables")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// An FAQ instance (Equation 4):
///
/// `ϕ(x_F) = ⊕^(ℓ+1) … ⊕^(n) ⊗_{e∈E} f_e(x_e)`
///
/// over a commutative semiring `S`, with one listing-representation
/// factor per hyperedge, a set of free variables `F`, and one
/// [`Aggregate`] per variable (ignored for free variables). All variables
/// share the uniform domain `[0, domain)` — `D = max_v |Dom(v)|` in the
/// paper's notation.
#[derive(Clone, Debug)]
pub struct FaqQuery<S: Semiring> {
    /// The query hypergraph `H`.
    pub hypergraph: Hypergraph,
    /// One factor per hyperedge, schema = the edge's sorted variables.
    pub factors: Vec<Relation<S>>,
    /// The free variables `F ⊆ V` (output attributes).
    pub free_vars: Vec<Var>,
    /// Per-variable aggregate `⊕^(i)` for bound variables.
    pub aggregates: Vec<Aggregate>,
    /// Uniform domain size `D`.
    pub domain: u32,
}

impl<S: Semiring> FaqQuery<S> {
    /// Creates an FAQ-SS instance (every bound variable aggregated with
    /// the semiring `⊕`).
    pub fn new_ss(
        hypergraph: Hypergraph,
        factors: Vec<Relation<S>>,
        free_vars: Vec<Var>,
        domain: u32,
    ) -> Self {
        let n = hypergraph.num_vars();
        FaqQuery {
            hypergraph,
            factors,
            free_vars,
            aggregates: vec![Aggregate::Sum; n],
            domain,
        }
    }

    /// Sets the aggregate operator for one bound variable (general FAQ).
    pub fn with_aggregate(mut self, var: Var, op: Aggregate) -> Self {
        self.aggregates[var.index()] = op;
        self
    }

    /// Checks every invariant: [`FaqQuery::validate_structure`] plus
    /// every factor's largest value ([`Relation::max_value`]) against
    /// `[0, domain)`. A factor is scanned for it only if nothing has
    /// profiled it since its rows last changed, so validating an
    /// unchanged instance again reads `k` memos.
    pub fn validate(&self) -> Result<(), QueryError> {
        self.validate_structure()?;
        let outside = |e: &EdgeId| {
            let max = self.factor(*e).max_value();
            max.is_some_and(|x| x >= self.domain)
        };
        match self.hypergraph.edges().map(|(e, _)| e).find(outside) {
            Some(e) => Err(QueryError::ValueOutOfDomain(e)),
            None => Ok(()),
        }
    }

    /// The `O(k · arity)` half of [`FaqQuery::validate`]: factor count,
    /// per-edge schemas, free variables and the aggregate count —
    /// everything that never looks at a listing. Every planning and
    /// serving door runs the whole of [`FaqQuery::validate`]; this half
    /// on its own names the first shape defect without touching data.
    pub fn validate_structure(&self) -> Result<(), QueryError> {
        if self.factors.len() != self.hypergraph.num_edges() {
            return Err(QueryError::FactorCountMismatch {
                edges: self.hypergraph.num_edges(),
                factors: self.factors.len(),
            });
        }
        for (e, vars) in self.hypergraph.edges() {
            if self.factors[e.index()].schema() != vars {
                return Err(QueryError::SchemaMismatch(e));
            }
        }
        for &v in &self.free_vars {
            if v.index() >= self.hypergraph.num_vars() {
                return Err(QueryError::UnknownFreeVar(v));
            }
        }
        if self.aggregates.len() != self.hypergraph.num_vars() {
            return Err(QueryError::AggregateCountMismatch {
                vars: self.hypergraph.num_vars(),
                aggregates: self.aggregates.len(),
            });
        }
        Ok(())
    }

    /// The paper's `N`: the maximum listing size over all factors.
    pub fn n_max(&self) -> usize {
        self.factors.iter().map(Relation::len).max().unwrap_or(0)
    }

    /// The paper's `k = |E|`.
    pub fn k(&self) -> usize {
        self.factors.len()
    }

    /// The paper's `r`: maximum arity.
    pub fn arity(&self) -> usize {
        self.hypergraph.arity()
    }

    /// Whether variable `v` is free.
    pub fn is_free(&self, v: Var) -> bool {
        self.free_vars.contains(&v)
    }

    /// The bound variables, in index order.
    pub fn bound_vars(&self) -> Vec<Var> {
        self.hypergraph
            .vars()
            .filter(|v| !self.is_free(*v))
            .collect()
    }

    /// Total communication size of all factors in bits (Model 2.1
    /// accounting) — what the trivial protocol must move.
    pub fn total_bits(&self) -> u64 {
        self.factors.iter().map(|f| f.bits(self.domain)).sum()
    }

    /// The factor of hyperedge `e`.
    pub fn factor(&self, e: EdgeId) -> &Relation<S> {
        &self.factors[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::star_query;
    use faqs_semiring::Boolean;

    fn tiny_query() -> FaqQuery<Boolean> {
        let h = star_query(2);
        let factors = h
            .edges()
            .map(|(_, vars)| {
                Relation::from_pairs(
                    vars.to_vec(),
                    [(vec![0, 0], Boolean::TRUE), (vec![1, 1], Boolean::TRUE)],
                )
            })
            .collect();
        FaqQuery::new_ss(h, factors, vec![], 4)
    }

    #[test]
    fn valid_query_passes() {
        tiny_query().validate().unwrap();
    }

    #[test]
    fn detects_factor_count_mismatch() {
        let mut q = tiny_query();
        q.factors.pop();
        assert!(matches!(
            q.validate(),
            Err(QueryError::FactorCountMismatch { .. })
        ));
    }

    #[test]
    fn detects_schema_mismatch() {
        let mut q = tiny_query();
        q.factors[0] = Relation::new([Var(0)]);
        assert_eq!(q.validate(), Err(QueryError::SchemaMismatch(EdgeId(0))));
    }

    #[test]
    fn detects_out_of_domain_value() {
        let mut q = tiny_query();
        q.domain = 1;
        assert_eq!(q.validate(), Err(QueryError::ValueOutOfDomain(EdgeId(0))));
    }

    #[test]
    fn detects_unknown_free_var() {
        let mut q = tiny_query();
        q.free_vars = vec![Var(99)];
        assert_eq!(q.validate(), Err(QueryError::UnknownFreeVar(Var(99))));
    }

    #[test]
    fn detects_aggregate_count_mismatch() {
        let mut q = tiny_query();
        q.aggregates.pop();
        let want = QueryError::AggregateCountMismatch {
            vars: 3,
            aggregates: 2,
        };
        assert_eq!(q.validate_structure(), Err(want.clone()));
        assert_eq!(q.validate(), Err(want));
    }

    #[test]
    fn accessors() {
        let q = tiny_query();
        assert_eq!(q.n_max(), 2);
        assert_eq!(q.k(), 2);
        assert_eq!(q.arity(), 2);
        assert!(q.bound_vars().contains(&Var(0)));
        assert!(!q.is_free(Var(0)));
    }

    #[test]
    fn aggregate_override() {
        let q = tiny_query().with_aggregate(Var(1), Aggregate::Max);
        assert_eq!(q.aggregates[1], Aggregate::Max);
        assert_eq!(q.aggregates[0], Aggregate::Sum);
    }
}
