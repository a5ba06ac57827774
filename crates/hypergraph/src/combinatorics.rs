//! Combinatorial primitives behind the paper's core lower bounds:
//! Turán-style greedy independent sets (Theorem E.1), short
//! vertex-disjoint cycles via Moore's bound (Lemmas E.1/E.2), and strong
//! independent sets of hypergraphs (Definition F.4, Theorem F.5).

use crate::graph::SimpleGraph;
use crate::hypergraph::{Hypergraph, Var};
use std::collections::BTreeSet;

/// Greedy maximal independent set: repeatedly take a minimum-degree
/// vertex and discard its neighbours.
///
/// By the Turán-type argument of Theorem E.1, on a graph with `n'`
/// vertices and at most `n'·d` edges this returns at least `n'/(2d+1)`
/// vertices (the classic greedy guarantee `Σ 1/(deg+1) ≥ n/(d̄+1)`).
pub fn greedy_independent_set(g: &SimpleGraph) -> Vec<Var> {
    let mut alive: BTreeSet<Var> = g.used_vertices().into_iter().collect();
    let mut out = Vec::new();
    while let Some(&v) = alive.iter().min_by_key(|v| {
        g.neighbors(**v)
            .iter()
            .filter(|(w, _)| alive.contains(w))
            .count()
    }) {
        out.push(v);
        let neigh: Vec<Var> = g
            .neighbors(v)
            .iter()
            .map(|(w, _)| *w)
            .filter(|w| alive.contains(w))
            .collect();
        alive.remove(&v);
        for w in neigh {
            alive.remove(&w);
        }
    }
    out
}

/// Collects vertex-disjoint short cycles in the style of Lemma E.2's
/// proof: while the average degree exceeds `degree_threshold` (the paper
/// uses 10), Moore's bound guarantees a cycle of length `O(log n)`; we
/// take a shortest cycle, delete its vertices, and recurse.
///
/// Returns the cycles and the leftover graph (used for the
/// independent-set fallback of Case 2).
pub fn short_vertex_disjoint_cycles(
    g: &SimpleGraph,
    degree_threshold: f64,
) -> (Vec<Vec<Var>>, SimpleGraph) {
    let mut cur = g.clone();
    let mut cycles = Vec::new();
    while cur.average_degree() > degree_threshold {
        match cur.shortest_cycle() {
            Some(c) => {
                let kill: BTreeSet<Var> = c.iter().copied().collect();
                cur = cur.remove_vertices(&kill);
                cycles.push(c);
            }
            None => break, // dense but acyclic is impossible; defensive
        }
    }
    (cycles, cur)
}

/// Greedy strong independent set of a hypergraph (Definition F.4): a set
/// of vertices no two of which share a hyperedge.
///
/// Greedy selection achieves the `|V(H)| / (d·(r−1) + 1)`-style guarantee
/// of Theorem F.5 (Halldórsson–Losievskaja) on `d`-degenerate hypergraphs
/// of arity `r`: each chosen vertex forbids at most `deg·(r−1)` others.
/// Only vertices with positive degree participate.
pub fn strong_independent_set(h: &Hypergraph) -> Vec<Var> {
    let mut alive: BTreeSet<Var> = h.vars().filter(|v| h.degree(*v) > 0).collect();
    let mut out = Vec::new();
    // Pick the vertex excluding the fewest alive peers.
    while let Some(&v) = alive.iter().min_by_key(|v| {
        h.edges()
            .filter(|(_, e)| e.contains(v))
            .map(|(_, e)| e.iter().filter(|w| alive.contains(w)).count() - 1)
            .sum::<usize>()
    }) {
        out.push(v);
        let mut forbidden: BTreeSet<Var> = BTreeSet::new();
        for (_, e) in h.edges() {
            if e.contains(&v) {
                forbidden.extend(e.iter().copied());
            }
        }
        for w in forbidden {
            alive.remove(&w);
        }
        alive.remove(&v);
    }
    out
}

/// Verifies the strong-independence property (test helper, exposed for
/// the lower-bound crate's assertions).
pub fn is_strong_independent(h: &Hypergraph, set: &[Var]) -> bool {
    for (_, e) in h.edges() {
        let hits = set.iter().filter(|v| e.contains(v)).count();
        if hits > 1 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{clique_query, cycle_query, grid_query, path_query, star_query};
    use crate::hypergraph::EdgeId;

    fn assert_independent(g: &SimpleGraph, set: &[Var]) {
        let s: BTreeSet<Var> = set.iter().copied().collect();
        for &v in set {
            for (w, _) in g.neighbors(v) {
                assert!(!s.contains(w), "{v} and {w} adjacent");
            }
        }
    }

    #[test]
    fn independent_set_on_path() {
        let h = path_query(6); // 7 vertices
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let is = greedy_independent_set(&g);
        assert_independent(&g, &is);
        assert!(is.len() >= 3, "path of 7 has independence number 4");
    }

    #[test]
    fn independent_set_on_clique_is_singleton() {
        let h = clique_query(6);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let is = greedy_independent_set(&g);
        assert_eq!(is.len(), 1);
    }

    #[test]
    fn independent_set_meets_turan_bound() {
        let h = grid_query(4, 4); // 16 vertices, degeneracy 2
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let is = greedy_independent_set(&g);
        assert_independent(&g, &is);
        let d = h.degeneracy();
        assert!(is.len() >= 16 / (2 * d + 1));
    }

    #[test]
    fn cycles_extracted_from_dense_graph() {
        // A triangle: avg degree 2, above threshold 1.5, so we extract
        // it and the remainder is forest.
        let h = cycle_query(3);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let (cycles, rest) = short_vertex_disjoint_cycles(&g, 1.5);
        assert_eq!(cycles.len(), 1);
        assert!(rest.shortest_cycle().is_none());
    }

    #[test]
    fn cycles_are_vertex_disjoint() {
        // 6-vertex graph: triangles {0,1,2} and {3,4,5}.
        let mut h = Hypergraph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            h.add_edge([Var(a), Var(b)]);
        }
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let (cycles, _) = short_vertex_disjoint_cycles(&g, 1.0);
        assert_eq!(cycles.len(), 2);
        let all: Vec<Var> = cycles.iter().flatten().copied().collect();
        let set: BTreeSet<Var> = all.iter().copied().collect();
        assert_eq!(all.len(), set.len(), "vertex-disjoint");
    }

    #[test]
    fn strong_independent_set_on_star_hypergraph() {
        let h = star_query(5);
        let sis = strong_independent_set(&h);
        assert!(is_strong_independent(&h, &sis));
        // Leaves avoid each other through the shared center; greedy must
        // find at least |V|/(d(r-1)+1) with d=5 (center degree bound on
        // subgraphs is 1 actually: star is 1-degenerate), r=2.
        assert!(!sis.is_empty());
    }

    #[test]
    fn strong_independent_set_on_triangle_hyperedges() {
        // Edges {0,1,2}, {2,3,4}, {4,5,0}: vertices 1, 3, 5 are pairwise
        // strongly independent.
        let mut h = Hypergraph::new(6);
        h.add_edge([Var(0), Var(1), Var(2)]);
        h.add_edge([Var(2), Var(3), Var(4)]);
        h.add_edge([Var(4), Var(5), Var(0)]);
        let sis = strong_independent_set(&h);
        assert!(is_strong_independent(&h, &sis));
        assert!(sis.len() >= 3);
    }

    #[test]
    fn strong_independence_checker() {
        let mut h = Hypergraph::new(3);
        h.add_edge([Var(0), Var(1)]);
        let _ = EdgeId(0);
        assert!(!is_strong_independent(&h, &[Var(0), Var(1)]));
        assert!(is_strong_independent(&h, &[Var(0), Var(2)]));
    }

    #[test]
    fn theorem_f5_guarantee_on_degenerate_hypergraph() {
        // 3-uniform "loose path": edges {0,1,2},{2,3,4},{4,5,6},...
        let m = 6;
        let mut h = Hypergraph::new(2 * m + 1);
        for i in 0..m as u32 {
            h.add_edge([Var(2 * i), Var(2 * i + 1), Var(2 * i + 2)]);
        }
        let d = h.degeneracy();
        let r = h.arity();
        let sis = strong_independent_set(&h);
        assert!(is_strong_independent(&h, &sis));
        let covered = (h.edges().flat_map(|(_, e)| e.iter()))
            .collect::<BTreeSet<_>>()
            .len();
        assert!(
            sis.len() * (d * (r - 1) + 1) >= covered,
            "greedy guarantee: {} picks, d={d}, r={r}, covered={covered}",
            sis.len()
        );
    }
}
