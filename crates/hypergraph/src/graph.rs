//! A simple-graph view of arity-≤2 query hypergraphs, used by the
//! Section 4 machinery (bipartition, rooted forests, short cycles).

use crate::hypergraph::{EdgeId, Hypergraph, Var};
use std::collections::{BTreeSet, VecDeque};

/// An undirected simple graph over the hypergraph's variables.
///
/// Self-loop hyperedges (arity 1) are tracked separately: they carry
/// relations (the toy query `H0`) but play no role in graph-theoretic
/// structure.
#[derive(Clone, Debug)]
pub struct SimpleGraph {
    n: usize,
    adj: Vec<Vec<(Var, EdgeId)>>,
    loops: Vec<(Var, EdgeId)>,
}

impl SimpleGraph {
    /// Builds the view; `None` if some edge has arity > 2.
    pub fn from_hypergraph(h: &Hypergraph) -> Option<Self> {
        if h.arity() > 2 {
            return None;
        }
        let n = h.num_vars();
        let mut adj = vec![Vec::new(); n];
        let mut loops = Vec::new();
        for (id, e) in h.edges() {
            match e {
                [v] => loops.push((*v, id)),
                [u, v] => {
                    adj[u.index()].push((*v, id));
                    adj[v.index()].push((*u, id));
                }
                _ => unreachable!("arity checked above"),
            }
        }
        Some(SimpleGraph { n, adj, loops })
    }

    /// Neighbours of `v` with the connecting edge ids.
    pub fn neighbors(&self, v: Var) -> &[(Var, EdgeId)] {
        &self.adj[v.index()]
    }

    /// Graph degree of `v` (self-loops excluded).
    pub fn degree(&self, v: Var) -> usize {
        self.adj[v.index()].len()
    }

    /// Self-loop hyperedges `(vertex, edge)`.
    pub fn self_loops(&self) -> &[(Var, EdgeId)] {
        &self.loops
    }

    /// Number of non-loop edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether the (non-loop part of the) graph is a forest.
    pub fn is_forest(&self) -> bool {
        // |E| = |V_used| - #components  ⇔  forest
        let comps = self.components();
        let used: usize = comps.iter().map(Vec::len).sum();
        let c = comps.len();
        self.num_edges() == used.saturating_sub(c)
    }

    /// Connected components over vertices with at least one incident
    /// (non-loop) edge.
    pub fn components(&self) -> Vec<Vec<Var>> {
        let mut seen = vec![false; self.n];
        let mut out = Vec::new();
        for s in 0..self.n {
            if seen[s] || self.adj[s].is_empty() {
                continue;
            }
            let mut comp = Vec::new();
            let mut q = VecDeque::from([Var(s as u32)]);
            seen[s] = true;
            while let Some(v) = q.pop_front() {
                comp.push(v);
                for &(w, _) in &self.adj[v.index()] {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        q.push_back(w);
                    }
                }
            }
            out.push(comp);
        }
        out
    }

    /// BFS parity bipartition `(L, R)` of a forest: vertices at even BFS
    /// depth from each component root land in `L`, odd in `R`. Used by the
    /// proof of Lemma 4.3 ("as H is bipartite, let (L,R) be the node
    /// partition").
    ///
    /// Panics if the graph contains an odd cycle (callers guarantee a
    /// forest).
    #[allow(clippy::needless_range_loop)] // v indexes both color and adj
    pub fn bipartition(&self) -> (Vec<Var>, Vec<Var>) {
        let mut color: Vec<Option<bool>> = vec![None; self.n];
        for comp in self.components() {
            let root = comp[0];
            color[root.index()] = Some(false);
            let mut q = VecDeque::from([root]);
            while let Some(v) = q.pop_front() {
                let c = color[v.index()].unwrap();
                for &(w, _) in &self.adj[v.index()] {
                    match color[w.index()] {
                        None => {
                            color[w.index()] = Some(!c);
                            q.push_back(w);
                        }
                        Some(cw) => assert_ne!(cw, c, "graph is not bipartite"),
                    }
                }
            }
        }
        let mut left = Vec::new();
        let mut right = Vec::new();
        for v in 0..self.n {
            match color[v] {
                Some(false) => left.push(Var(v as u32)),
                Some(true) => right.push(Var(v as u32)),
                None => {}
            }
        }
        (left, right)
    }

    /// A rooted orientation of a forest: `parent[v]` is `v`'s BFS parent
    /// (roots map to `None`). Component roots are chosen as the
    /// lowest-indexed vertex of each component.
    pub fn rooted_forest(&self) -> Vec<Option<Var>> {
        let mut parent: Vec<Option<Var>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        for comp in self.components() {
            let root = comp[0];
            seen[root.index()] = true;
            let mut q = VecDeque::from([root]);
            while let Some(v) = q.pop_front() {
                for &(w, _) in &self.adj[v.index()] {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        parent[w.index()] = Some(v);
                        q.push_back(w);
                    }
                }
            }
        }
        parent
    }

    /// The shortest cycle through any vertex (the graph's girth witness),
    /// as a vertex list; `None` for forests. BFS from every vertex —
    /// `O(V·E)`, fine at query scale.
    pub fn shortest_cycle(&self) -> Option<Vec<Var>> {
        let mut best: Option<Vec<Var>> = None;
        for s in 0..self.n {
            if self.adj[s].is_empty() {
                continue;
            }
            // BFS recording parent edges; a non-tree edge closes a cycle.
            let mut dist = vec![usize::MAX; self.n];
            let mut par: Vec<Option<(Var, EdgeId)>> = vec![None; self.n];
            dist[s] = 0;
            let mut q = VecDeque::from([Var(s as u32)]);
            while let Some(v) = q.pop_front() {
                for &(w, eid) in &self.adj[v.index()] {
                    if dist[w.index()] == usize::MAX {
                        dist[w.index()] = dist[v.index()] + 1;
                        par[w.index()] = Some((v, eid));
                        q.push_back(w);
                    } else if par[v.index()].map(|(_, pe)| pe) != Some(eid) {
                        // Cross or back edge: cycle through s iff both
                        // endpoints' paths go back to s; reconstruct and
                        // keep if shorter than the incumbent.
                        if let Some(cycle) = reconstruct_cycle(&par, v, w) {
                            if best.as_ref().map(|b| cycle.len() < b.len()).unwrap_or(true) {
                                best = Some(cycle);
                            }
                        }
                    }
                }
            }
        }
        best
    }

    /// Deletes the given vertices (and incident edges), returning the
    /// induced subgraph on the rest.
    #[allow(clippy::needless_range_loop)] // v indexes both adj arrays
    pub fn remove_vertices(&self, kill: &BTreeSet<Var>) -> SimpleGraph {
        let mut adj = vec![Vec::new(); self.n];
        for v in 0..self.n {
            if kill.contains(&Var(v as u32)) {
                continue;
            }
            for &(w, e) in &self.adj[v] {
                if !kill.contains(&w) {
                    adj[v].push((w, e));
                }
            }
        }
        SimpleGraph {
            n: self.n,
            adj,
            loops: self
                .loops
                .iter()
                .copied()
                .filter(|(v, _)| !kill.contains(v))
                .collect(),
        }
    }

    /// Vertices with at least one incident non-loop edge.
    pub fn used_vertices(&self) -> Vec<Var> {
        (0..self.n)
            .filter(|&v| !self.adj[v].is_empty())
            .map(|v| Var(v as u32))
            .collect()
    }

    /// Average degree over used vertices (0.0 if none).
    pub fn average_degree(&self) -> f64 {
        let used = self.used_vertices();
        if used.is_empty() {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / used.len() as f64
    }
}

/// Reconstructs the cycle closed by the non-tree edge `(v, w)` from BFS
/// parent pointers; `None` when the walk-backs do not merge (should not
/// happen in a BFS tree, kept defensive).
fn reconstruct_cycle(par: &[Option<(Var, EdgeId)>], v: Var, w: Var) -> Option<Vec<Var>> {
    let path_to_root = |mut x: Var| -> Vec<Var> {
        let mut p = vec![x];
        while let Some((q, _)) = par[x.index()] {
            p.push(q);
            x = q;
        }
        p
    };
    let pv = path_to_root(v);
    let pw = path_to_root(w);
    let sv: BTreeSet<Var> = pv.iter().copied().collect();
    // Lowest common ancestor: first vertex of pw also on pv.
    let lca = pw.iter().copied().find(|x| sv.contains(x))?;
    let mut cycle: Vec<Var> = pv.iter().copied().take_while(|x| *x != lca).collect();
    cycle.push(lca);
    let mut tail: Vec<Var> = pw.iter().copied().take_while(|x| *x != lca).collect();
    tail.reverse();
    cycle.extend(tail);
    if cycle.len() >= 3 {
        Some(cycle)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{cycle_query, path_query, star_query};

    #[test]
    fn path_is_forest() {
        let h = path_query(5);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        assert!(g.is_forest());
        assert!(g.shortest_cycle().is_none());
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn cycle_is_not_forest_and_found() {
        let h = cycle_query(5);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        assert!(!g.is_forest());
        let c = g.shortest_cycle().unwrap();
        assert_eq!(c.len(), 5);
        // All distinct vertices.
        let s: BTreeSet<Var> = c.iter().copied().collect();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn triangle_in_larger_graph_is_girth_witness() {
        // 5-cycle plus a chord making a triangle.
        let mut h = cycle_query(5);
        h.add_edge([Var(0), Var(2)]);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        assert_eq!(g.shortest_cycle().unwrap().len(), 3);
    }

    #[test]
    fn bipartition_of_star() {
        let h = star_query(4);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let (l, r) = g.bipartition();
        // Center on one side, leaves on the other.
        assert!(l.len() == 1 || r.len() == 1);
        assert_eq!(l.len() + r.len(), 5);
    }

    #[test]
    #[should_panic(expected = "not bipartite")]
    fn bipartition_panics_on_odd_cycle() {
        let h = cycle_query(3);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let _ = g.bipartition();
    }

    #[test]
    fn rooted_forest_parents() {
        let h = path_query(3); // 0-1-2-3
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let parent = g.rooted_forest();
        assert_eq!(parent[0], None);
        assert_eq!(parent[1], Some(Var(0)));
        assert_eq!(parent[2], Some(Var(1)));
        assert_eq!(parent[3], Some(Var(2)));
    }

    #[test]
    fn remove_vertices_induces_subgraph() {
        let h = cycle_query(5);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        let g2 = g.remove_vertices(&[Var(0)].into_iter().collect());
        assert!(g2.is_forest());
        assert_eq!(g2.num_edges(), 3);
    }

    #[test]
    fn self_loops_tracked() {
        let mut h = Hypergraph::new(1);
        h.add_edge([Var(0)]);
        h.add_edge([Var(0)]);
        let g = SimpleGraph::from_hypergraph(&h).unwrap();
        assert_eq!(g.self_loops().len(), 2);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn rejects_high_arity() {
        let mut h = Hypergraph::new(3);
        h.add_edge([Var(0), Var(1), Var(2)]);
        assert!(SimpleGraph::from_hypergraph(&h).is_none());
    }
}
