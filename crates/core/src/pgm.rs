//! Probabilistic graphical model conveniences.
//!
//! The paper's second headline problem (Section 1): with the probability
//! semiring `(ℝ≥0, +, ×)` and `F = e` for a hyperedge `e`, FAQ-SS
//! computes a *factor marginal* of the PGM whose factors are the input
//! functions; `F = {v}` gives a variable marginal. Both reduce to
//! [`crate::solve_faq`] with re-rooted decompositions.

use crate::engine::{solve_faq, EngineError};
use faqs_hypergraph::{EdgeId, Var};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Prob;

/// The unnormalised marginal of a single variable: `ϕ({v})` — the
/// paper's PGM variable-marginal problem (Section 1, `F = {v}`), kept
/// public as that problem's entry point.
pub fn variable_marginal(q: &FaqQuery<Prob>, v: Var) -> Result<Relation<Prob>, EngineError> {
    let mut qv = q.clone();
    qv.free_vars = vec![v];
    solve_faq(&qv)
}

/// The unnormalised factor marginal `ϕ(e)` for hyperedge `e` — the
/// paper's PGM instantiation (`F = e`).
pub fn factor_marginal(q: &FaqQuery<Prob>, e: EdgeId) -> Result<Relation<Prob>, EngineError> {
    let mut qe = q.clone();
    qe.free_vars = q.hypergraph.edge(e).to_vec();
    solve_faq(&qe)
}

/// The partition function `Z = ⊕_x ⊗_e f_e(x_e)` (FAQ-SS with `F = ∅`).
pub fn partition_function(q: &FaqQuery<Prob>) -> Result<Prob, EngineError> {
    let mut q0 = q.clone();
    q0.free_vars = vec![];
    Ok(solve_faq(&q0)?.total())
}

/// Normalises a marginal to a probability distribution (entries sum to
/// one). Returns `None` when the marginal is identically zero. A pure
/// annotation-column rescale — the tuple arena is shared untouched.
pub fn normalize(marginal: &Relation<Prob>) -> Option<Relation<Prob>> {
    let z = marginal.total().get();
    if z == 0.0 {
        return None;
    }
    Some(marginal.map_values(|p| Prob(p.get() / z)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_faq_brute_force;
    use faqs_hypergraph::{path_query, star_query, EdgeId, Hypergraph};
    use faqs_relation::RandomInstanceConfig;
    use faqs_semiring::Semiring;
    use rand::Rng;

    /// A small chain PGM (an HMM slice): factors on consecutive pairs.
    fn chain_pgm(len: usize, domain: u32, seed: u64) -> FaqQuery<Prob> {
        let h = path_query(len);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: (domain * domain) as usize,
            domain,
            seed,
        };
        faqs_relation::random_instance(&h, &cfg, vec![], |r| Prob(r.random_range(0.1..1.0)))
    }

    #[test]
    fn marginals_sum_to_partition_function() {
        let q = chain_pgm(4, 3, 11);
        let z = partition_function(&q).unwrap();
        for v in q.hypergraph.vars() {
            let m = variable_marginal(&q, v).unwrap();
            assert!(
                m.total().approx_eq(&z),
                "marginal of {v} sums to Z: {:?} vs {z:?}",
                m.total()
            );
        }
    }

    #[test]
    fn factor_marginals_sum_to_partition_function() {
        let q = chain_pgm(4, 3, 12);
        let z = partition_function(&q).unwrap();
        for e in 0..q.k() {
            let m = factor_marginal(&q, EdgeId(e as u32)).unwrap();
            assert!(m.total().approx_eq(&z), "factor marginal {e} sums to Z");
        }
    }

    #[test]
    fn variable_marginal_matches_brute_force() {
        let q = chain_pgm(4, 3, 13);
        for v in q.hypergraph.vars() {
            let fast = variable_marginal(&q, v).unwrap();
            let mut qv = q.clone();
            qv.free_vars = vec![v];
            let slow = solve_faq_brute_force(&qv);
            assert!(fast.approx_eq(&slow), "marginal of {v}");
        }
    }

    #[test]
    fn star_pgm_center_marginal() {
        // Naive Bayes shape: center with 4 leaves.
        let h = star_query(4);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 9,
            domain: 3,
            seed: 14,
        };
        let q: FaqQuery<Prob> =
            faqs_relation::random_instance(&h, &cfg, vec![], |r| Prob(r.random_range(0.1..1.0)));
        let m = variable_marginal(&q, faqs_hypergraph::Var(0)).unwrap();
        let mut qv = q.clone();
        qv.free_vars = vec![faqs_hypergraph::Var(0)];
        assert!(m.approx_eq(&solve_faq_brute_force(&qv)));
    }

    #[test]
    fn normalize_produces_distribution() {
        let q = chain_pgm(3, 2, 15);
        let m = variable_marginal(&q, faqs_hypergraph::Var(1)).unwrap();
        let p = normalize(&m).unwrap();
        assert!(p.total().approx_eq(&Prob(1.0)));
    }

    #[test]
    fn normalize_of_zero_is_none() {
        let h: Hypergraph = path_query(1);
        let q: FaqQuery<Prob> = FaqQuery::new_ss(
            h.clone(),
            h.edges()
                .map(|(_, vars)| Relation::new(vars.to_vec()))
                .collect(),
            vec![],
            2,
        );
        let m = variable_marginal(&q, faqs_hypergraph::Var(0)).unwrap();
        assert!(normalize(&m).is_none());
    }
}
