//! Closed-form bound evaluation: Theorem 4.1's formulas instantiated on
//! a concrete topology/query pair. The d-degenerate protocol and the
//! runtime carry the result in their `RunReport` (`bound`), and its
//! `upper_rounds` is the round bound each run is checked against.

use faqs_hypergraph::internal_node_width;
use faqs_network::{min_cut, tau_mcf, DeltaPackings, Player, Topology};
use faqs_relation::FaqQuery;
use faqs_semiring::Semiring;

/// The per-edge capacity Model 2.1 grants a query: `r·⌈log₂ D⌉` bits
/// (one tuple) plus the semiring annotation per round.
pub fn model_capacity_bits<S: Semiring>(q: &FaqQuery<S>) -> u64 {
    let log_d = (32 - q.domain.saturating_sub(1).leading_zeros()).max(1) as u64;
    (q.arity() as u64 * log_d + S::value_bits()).max(1)
}

/// The paper's bound quantities for one query/topology/player-set
/// triple (Theorem 4.1 / F.1 shape).
#[derive(Clone, Debug, Default)]
pub struct BoundReport {
    /// `y(H)` — internal-node-width achieved by the witness GHD.
    pub y: usize,
    /// `n2(H)` — size of the core vertex set.
    pub n2: usize,
    /// Degeneracy `d` of the query hypergraph.
    pub degeneracy: usize,
    /// Maximum arity `r`.
    pub arity: usize,
    /// `MinCut(G, K)`.
    pub min_cut: usize,
    /// The chosen Steiner diameter `Δ` and packing size `ST(G, K, Δ)`.
    pub delta: u32,
    /// Steiner packing size at the chosen `Δ`.
    pub st: usize,
    /// The forest term `y · min_Δ(N/ST + Δ)` in rounds.
    pub forest_rounds: u64,
    /// The core term `τ_MCF(G, K, n2·d·r·N)` in rounds.
    pub core_rounds: u64,
    /// The full upper bound (forest + core terms).
    pub upper_rounds: u64,
    /// The paper's *nominal* lower-bound shape `(y + n2)·N / MinCut`
    /// (Theorem 4.1's Ω̃(·) with constants dropped). For the certified
    /// bound use `faqs-lowerbounds::bcq_lower_bound`, which counts the
    /// pairs the implemented TRIBES embeddings actually place.
    pub lower_rounds: u64,
}

impl BoundReport {
    /// Evaluates the bound formulas for computing `q` on `g` with
    /// players `k`. `None` when `k` has two or more players and `g` does
    /// not connect them: no Steiner tree spans `k`, so `ST(G, K, Δ)` is
    /// zero at every Δ and the bound is undefined.
    pub fn evaluate<S: Semiring>(q: &FaqQuery<S>, g: &Topology, k: &[Player]) -> Option<Self> {
        Self::evaluate_with(q, g, k, None)
    }

    /// [`BoundReport::evaluate`] reusing Steiner packings the caller
    /// already holds for this `(g, k)` (a distributed run's own);
    /// `None` packs afresh.
    pub(crate) fn evaluate_with<S: Semiring>(
        q: &FaqQuery<S>,
        g: &Topology,
        k: &[Player],
        packings: Option<&DeltaPackings>,
    ) -> Option<Self> {
        let report = internal_node_width(&q.hypergraph);
        let y = report.y;
        let n2 = report.n2();
        let d = q.hypergraph.degeneracy().max(1);
        let r = q.arity().max(1);
        let n = q.n_max() as u64;

        if k.len() < 2 {
            // Everything co-located: zero communication.
            return Some(BoundReport {
                y,
                n2,
                degeneracy: d,
                arity: r,
                ..BoundReport::default()
            });
        }
        let mc = min_cut(g, k).max(1);
        let pick = |packings: &DeltaPackings| {
            let (delta, packing) = packings.best(n)?;
            Some((delta, packing.len()))
        };
        let (delta, st) = packings.map_or_else(|| pick(&DeltaPackings::new(g, k)), pick)?;
        let per_star = n.div_ceil(st as u64) + delta as u64;
        let forest_rounds = (y as u64) * per_star;
        // Acyclic single-tree queries are star-peeled all the way to the
        // root (Lemma 4.1): no trivial-protocol core term. Otherwise the
        // core costs τ_MCF(G, K, n2·d·r·N) (Lemma 4.2 / F.2).
        let acyclic_single_tree = report.decomposition.core_edges.is_empty()
            && report.decomposition.forest_roots.len() == 1;
        let core_rounds = if n2 > 0 && !acyclic_single_tree && k.len() >= 2 {
            tau_mcf(g, k, (n2 as u64) * (d as u64) * (r as u64) * n)
        } else {
            0
        };
        let lower_rounds = ((y as u64 + n2 as u64) * n) / mc as u64;

        Some(BoundReport {
            y,
            n2,
            degeneracy: d,
            arity: r,
            min_cut: mc,
            delta,
            st,
            forest_rounds,
            core_rounds,
            upper_rounds: forest_rounds + core_rounds,
            lower_rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{clique_query, example_h1};
    use faqs_relation::{random_boolean_instance, RandomInstanceConfig};

    #[test]
    fn capacity_accounts_for_arity_domain_and_values() {
        let q = random_boolean_instance(
            &example_h1(),
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 256,
                seed: 1,
            },
            true,
        );
        // r = 2, log D = 8, Boolean values free.
        assert_eq!(model_capacity_bits(&q), 16);
    }

    #[test]
    fn star_bound_on_line() {
        let q = random_boolean_instance(
            &example_h1(),
            &RandomInstanceConfig {
                tuples_per_factor: 64,
                domain: 64,
                seed: 2,
            },
            true,
        );
        let g = Topology::line(4);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let b = BoundReport::evaluate(&q, &g, &k).unwrap();
        assert_eq!(b.y, 1);
        assert_eq!(b.min_cut, 1);
        assert_eq!(b.st, 1);
        // Corollary 4.3: N + k shape.
        assert!(b.forest_rounds >= 64 && b.forest_rounds <= 64 + 8);
        // The acyclic star needs no trivial-protocol core term.
        assert_eq!(b.core_rounds, 0);
    }

    #[test]
    fn clique_query_is_all_core() {
        let q = random_boolean_instance(
            &clique_query(4),
            &RandomInstanceConfig {
                tuples_per_factor: 16,
                domain: 16,
                seed: 3,
            },
            true,
        );
        let g = Topology::clique(6);
        let k: Vec<Player> = (0..6u32).map(Player).collect();
        let b = BoundReport::evaluate(&q, &g, &k).unwrap();
        assert_eq!(b.y, 1, "flat GHD: the core root plus leaves");
        assert_eq!(b.n2, 4);
        assert!(b.core_rounds > 0);
    }
}
