//! The closed-form lower-bound expressions.
//!
//! Two flavours are reported:
//!
//! * **certified** — `m · N / MinCut(G,K)` where `m` is the number of
//!   disjointness pairs our *implemented* reductions actually embed in
//!   `H` (Lemma 4.3 for forests, Theorem 4.4 for cyclic cores,
//!   Theorem F.8 for hypergraphs). By Theorem 2.3 any protocol needs
//!   `Ω(m·N)` bits across the cut, so this many rounds are forced (up to
//!   the paper's polylog simulation loss, dropped here). Measured
//!   protocol rounds must sit above this line.
//! * **nominal** — the paper's headline `Ω̃((y + n2)·N / MinCut)`
//!   shape, which hides constants like the `1/2` of Lemma 4.3 and the
//!   `1/(2·log n2)` of Theorem 4.4; useful for order-of-magnitude tables
//!   but not guaranteed below the measured curve.

use crate::embed::{core_capacity, forest_capacity, hypergraph_capacity};
use faqs_hypergraph::{internal_node_width, Hypergraph};
use faqs_network::{min_cut, Player, Topology};

/// The evaluated lower-bound quantities for one query/topology pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LowerBoundReport {
    /// `y(H)` of the witnessing decomposition.
    pub y: usize,
    /// `n2(H)`.
    pub n2: usize,
    /// `MinCut(G, K)`.
    pub min_cut: usize,
    /// Disjointness pairs embedded by the strongest applicable reduction.
    pub pairs: usize,
    /// The certified bound `pairs·N / MinCut` in rounds.
    pub rounds: u64,
    /// The paper's nominal `(y + n2)·N / MinCut` shape.
    pub nominal_rounds: u64,
}

/// Theorem 4.1 / 4.4's lower bound for BCQ, certified by the
/// implemented embeddings.
pub fn bcq_lower_bound(h: &Hypergraph, g: &Topology, k: &[Player], n: u64) -> LowerBoundReport {
    let report = internal_node_width(h);
    let y = report.y;
    let n2 = report.n2();
    // A `K` that `g` does not connect cuts at 0, one that is not two
    // players of `g` has no cut: both divide by one.
    let mc = min_cut(g, k).map_or(1, |c| c.max(1));
    // The strongest applicable reduction: forests (Lemma 4.3), cyclic
    // cores (Theorem 4.4), hypergraphs (Theorem F.8). For mixed H the
    // paper takes the max of the forest and core embeddings.
    let pairs = forest_capacity(h)
        .max(core_capacity(h))
        .max(hypergraph_capacity(h))
        .max(1);
    LowerBoundReport {
        y,
        n2,
        min_cut: mc,
        pairs,
        rounds: (pairs as u64 * n) / mc as u64,
        nominal_rounds: ((y as u64 + n2 as u64) * n) / mc as u64,
    }
}

/// Theorem 5.2 / F.1's lower bound for general FAQs on hypergraphs:
/// the same certified pairs, with the nominal shape
/// `(y/r + n2/(d·r)) · N / MinCut`.
pub fn faq_lower_bound(h: &Hypergraph, g: &Topology, k: &[Player], n: u64) -> LowerBoundReport {
    let base = bcq_lower_bound(h, g, k, n);
    let d = (h.degeneracy() as u64).max(1);
    let r = (h.arity() as u64).max(1);
    LowerBoundReport {
        nominal_rounds: (base.y as u64 * n / r + base.n2 as u64 * n / (d * r))
            / base.min_cut as u64,
        ..base
    }
}

/// Theorem 6.4's lower bound for the matrix chain on a line with
/// `k ≤ N`: `Ω(k·N)` rounds (per unit capacity).
pub fn mcm_lower_bound(k: u64, n: u64, capacity_bits: u64) -> u64 {
    (k * n) / capacity_bits.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{clique_query, example_h1, path_query, tree_query};

    #[test]
    fn star_on_line_is_omega_n() {
        // Example 2.4: one pair embeds at the star center ⇒ Ω(N).
        let h = example_h1();
        let g = Topology::line(4);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let lb = bcq_lower_bound(&h, &g, &k, 256);
        assert_eq!(lb.min_cut, 1);
        assert_eq!(lb.pairs, 1);
        assert_eq!(lb.rounds, 256);
        assert!(lb.nominal_rounds >= lb.rounds);
    }

    #[test]
    fn tree_embeds_more_pairs() {
        let h = tree_query(2, 2);
        let g = Topology::line(4);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let lb = bcq_lower_bound(&h, &g, &k, 128);
        assert!(lb.pairs >= 2, "internal tree vertices host pairs");
        assert_eq!(lb.rounds, lb.pairs as u64 * 128);
    }

    #[test]
    fn clique_query_lower_bound_scales_with_core() {
        let small = clique_query(4);
        let large = clique_query(8);
        let g = Topology::line(3);
        let k: Vec<Player> = (0..3u32).map(Player).collect();
        let lb_s = bcq_lower_bound(&small, &g, &k, 100);
        let lb_l = bcq_lower_bound(&large, &g, &k, 100);
        assert!(lb_l.nominal_rounds > lb_s.nominal_rounds);
        assert_eq!(lb_l.n2, 8);
        assert!(lb_l.pairs >= 1);
    }

    #[test]
    fn larger_cut_weakens_the_bound() {
        let h = path_query(5);
        let k4: Vec<Player> = (0..4u32).map(Player).collect();
        let line = bcq_lower_bound(&h, &Topology::line(4), &k4, 128);
        let clique = bcq_lower_bound(&h, &Topology::clique(4), &k4, 128);
        assert!(clique.rounds < line.rounds);
        assert_eq!(clique.min_cut, 3);
    }

    #[test]
    fn faq_bound_discounts_by_d_and_r() {
        let h = clique_query(5); // d = 4, r = 2
        let g = Topology::line(4);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let bcq = bcq_lower_bound(&h, &g, &k, 64);
        let faq = faq_lower_bound(&h, &g, &k, 64);
        assert!(faq.nominal_rounds <= bcq.nominal_rounds);
        assert_eq!(faq.rounds, bcq.rounds, "certified pairs are shared");
    }

    #[test]
    fn mcm_bound() {
        assert_eq!(mcm_lower_bound(8, 64, 1), 512);
        assert_eq!(mcm_lower_bound(8, 64, 2), 256);
    }
}
