//! The GYO elimination algorithm (Definition 2.6) and the core/forest
//! decomposition `C(H)` / `W(H)` (Definition 2.7).

use crate::hypergraph::{is_subset, EdgeId, Hypergraph, Var};

/// One step of the GYO run, recorded for inspection and testing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GyoStep {
    /// Rule (a): vertex `var` was present in only `edge` and was deleted
    /// from it.
    EliminateVar {
        /// The eliminated vertex.
        var: Var,
        /// The edge it was removed from.
        edge: EdgeId,
    },
    /// Rule (b): `edge`'s remaining vertex set was contained in `witness`'s
    /// remaining set, so `edge` was deleted (hanging onto `witness` in the
    /// join forest).
    DeleteEdge {
        /// The deleted edge.
        edge: EdgeId,
        /// The containing edge chosen as its join-forest parent, if any
        /// (`None` only when `edge` was the last live edge and became
        /// empty).
        witness: Option<EdgeId>,
    },
}

/// The full trace of a GYO run on a hypergraph.
#[derive(Clone, Debug)]
pub struct GyoTrace {
    /// The steps in execution order.
    pub steps: Vec<GyoStep>,
    /// Edges surviving in the GYO-reduction `H'` (the paper's leftover
    /// hypergraph), with their *original* vertex sets.
    pub reduction: Vec<EdgeId>,
    /// For every removed edge, its chosen join-forest parent. Removed
    /// edges whose candidates at deletion time were all surviving (core)
    /// edges have `None` here and become forest roots.
    pub parent: Vec<Option<EdgeId>>,
    /// Whether each edge was removed during the run.
    pub removed: Vec<bool>,
    /// Removal order: position `i` holds the `i`-th removed edge.
    pub removal_order: Vec<EdgeId>,
}

impl GyoTrace {
    /// Whether the hypergraph is acyclic (Definition 2.5): GYO reduced it
    /// to nothing.
    pub fn is_acyclic(&self) -> bool {
        self.reduction.is_empty()
    }

    /// The forest roots: removed edges with no removed parent.
    pub fn roots(&self) -> Vec<EdgeId> {
        (0..self.parent.len())
            .map(|i| EdgeId(i as u32))
            .filter(|e| self.removed[e.index()] && self.parent[e.index()].is_none())
            .collect()
    }

    /// Children of a removed edge in the join forest.
    pub fn children(&self, e: EdgeId) -> Vec<EdgeId> {
        (0..self.parent.len())
            .map(|i| EdgeId(i as u32))
            .filter(|c| self.parent[c.index()] == Some(e))
            .collect()
    }
}

/// Runs the GYO algorithm (Definition 2.6) on `h`, returning the trace.
///
/// Two details beyond the textbook algorithm, both needed by
/// Construction 2.8:
///
/// 1. **Parent selection.** When rule (b) fires with several containing
///    witnesses, we prefer a witness that is itself eventually removed;
///    this greedily minimises the number of forest roots (and therefore
///    `n2(H)`), matching the worked example of Appendix C.2 where the
///    whole removed forest hangs off the single root `e4`. Since the
///    preferred witness is removed *later*, parent pointers follow removal
///    order and the structure is acyclic.
/// 2. **The last empty edge.** An acyclic hypergraph's final edge empties
///    out with no witness left; it is removed with `witness = None`.
pub fn gyo(h: &Hypergraph) -> GyoTrace {
    let k = h.num_edges();
    // Current vertex sets (each edge's sorted vertex list, shrinking) and
    // each vertex's degree over the live edges.
    let mut cur: Vec<Vec<Var>> = h.edges().map(|(_, e)| e.to_vec()).collect();
    let mut degree = vec![0usize; h.num_vars()];
    cur.iter().flatten().for_each(|v| degree[v.index()] += 1);
    let mut live: Vec<bool> = vec![true; k];
    // At most one elimination per vertex occurrence and one deletion per
    // edge.
    let mut steps = Vec::with_capacity(cur.iter().map(Vec::len).sum::<usize>() + k);
    // For each removed edge: every witness candidate at removal time.
    let mut candidates: Vec<Vec<EdgeId>> = vec![Vec::new(); k];
    let mut removal_order = Vec::with_capacity(k);

    loop {
        let mut progressed = false;

        // Rule (a): eliminate vertices of degree one, the first such
        // vertex of the first live edge holding one each time.
        while let Some((ei, at)) = (0..k).filter(|&ei| live[ei]).find_map(|ei| {
            let at = cur[ei].iter().position(|v| degree[v.index()] == 1)?;
            Some((ei, at))
        }) {
            let v = cur[ei].remove(at);
            degree[v.index()] -= 1;
            steps.push(GyoStep::EliminateVar {
                var: v,
                edge: EdgeId(ei as u32),
            });
            progressed = true;
        }

        // Rule (b): delete one contained edge (then loop back to rule (a)).
        // Among deletable edges, take the one with the smallest remaining
        // vertex set: outermost ears disappear first, leaving inner ears
        // alive to serve as their join-forest parents. This reproduces the
        // Appendix C.2 execution where e5..e7 all hang under e4.
        // `fi` witnesses `ei`'s deletion when both are live and `ei`'s
        // set lies in `fi`'s; equal sets delete exactly one of the pair,
        // the tie broken by index so the pass is deterministic.
        let witnesses = |ei: usize, fi: usize| {
            fi != ei && live[fi] && is_subset(&cur[ei], &cur[fi]) && (ei > fi || cur[ei] != cur[fi])
        };
        let mut deletion: Option<usize> = None;
        let mut deletion_size = usize::MAX;
        for ei in (0..k).filter(|&ei| live[ei]) {
            if cur[ei].len() >= deletion_size {
                continue;
            }
            // Last-edge special case: an empty edge with no witnesses.
            if cur[ei].is_empty() || (0..k).any(|fi| witnesses(ei, fi)) {
                deletion_size = cur[ei].len();
                deletion = Some(ei);
            }
        }
        if let Some(ei) = deletion {
            candidates[ei] = (0..k)
                .filter(|&fi| witnesses(ei, fi))
                .map(|fi| EdgeId(fi as u32))
                .collect();
            live[ei] = false;
            cur[ei].iter().for_each(|v| degree[v.index()] -= 1);
            removal_order.push(EdgeId(ei as u32));
            steps.push(GyoStep::DeleteEdge {
                edge: EdgeId(ei as u32),
                witness: None, // resolved below once survival is known
            });
            progressed = true;
        }

        if !progressed {
            break;
        }
    }

    let removed: Vec<bool> = live.iter().map(|l| !l).collect();
    // Resolve parents: prefer a removed witness (forest-internal edge);
    // otherwise this edge is a root (its subtree hangs off the core).
    let mut parent: Vec<Option<EdgeId>> = vec![None; k];
    for ei in 0..k {
        if !removed[ei] {
            continue;
        }
        // Any removed witness was live at this edge's deletion time and
        // therefore removed later, so parent pointers follow removal order.
        parent[ei] = candidates[ei].iter().copied().find(|w| removed[w.index()]);
    }
    // Back-fill the witnesses in the recorded steps for debuggability.
    for s in &mut steps {
        if let GyoStep::DeleteEdge { edge, witness } = s {
            *witness = parent[edge.index()];
        }
    }

    let reduction = (0..k)
        .filter(|&i| !removed[i])
        .map(|i| EdgeId(i as u32))
        .collect();

    GyoTrace {
        steps,
        reduction,
        parent,
        removed,
        removal_order,
    }
}

/// The core/forest decomposition of Definition 2.7:
/// `C(H)` = the GYO-reduction `H'` plus the root edge of every removed
/// join tree; `W(H)` = the removed edges (`H \ H'`).
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Edges of the GYO-reduction `H'` (original vertex sets).
    pub core_edges: Vec<EdgeId>,
    /// Roots of the removed join forest (their edges also belong to
    /// `C(H)` per Definition 2.7).
    pub forest_roots: Vec<EdgeId>,
    /// All removed (forest) edges, in removal order.
    pub forest_edges: Vec<EdgeId>,
    /// Join-forest parent for each removed edge (roots have `None`).
    pub forest_parent: Vec<Option<EdgeId>>,
    /// `V(C(H))`: the union of the original vertex sets of `core_edges`
    /// and `forest_roots`, ascending.
    pub core_vars: Vec<Var>,
    /// `V(W(H))`: vertices of forest edges excluding the roots
    /// (Appendix C.1's convention), ascending.
    pub forest_vars: Vec<Var>,
}

impl Decomposition {
    /// Computes the decomposition of `h` by running GYO.
    pub fn of(h: &Hypergraph) -> Self {
        Self::from_trace(h, gyo(h))
    }

    /// Builds the decomposition from a GYO trace of `h`.
    pub fn from_trace(h: &Hypergraph, trace: GyoTrace) -> Self {
        let mut d = Decomposition {
            forest_roots: trace.roots(),
            core_edges: trace.reduction,
            forest_edges: trace.removal_order,
            forest_parent: trace.parent,
            core_vars: Vec::new(),
            forest_vars: Vec::new(),
        };
        d.refresh_vars(h);
        d
    }

    /// Recomputes `V(C(H))` and `V(W(H))` from the edge lists, in place:
    /// the core edges' and forest roots' vertices, then the other forest
    /// edges' vertices outside them (Appendix C.1's convention).
    fn refresh_vars(&mut self, h: &Hypergraph) {
        let core = &mut self.core_vars;
        core.clear();
        for &e in self.core_edges.iter().chain(&self.forest_roots) {
            core.extend_from_slice(h.edge(e));
        }
        core.sort_unstable();
        core.dedup();
        let forest = &mut self.forest_vars;
        forest.clear();
        for &e in &self.forest_edges {
            if self.forest_parent[e.index()].is_some() {
                forest.extend(h.edge(e).iter().filter(|v| core.binary_search(v).is_err()));
            }
        }
        forest.sort_unstable();
        forest.dedup();
    }

    /// `n2(H) = |V(C(H))|` (Definition 3.1), the size of the core's vertex
    /// set — the quantity driving the trivial-protocol term of the bounds.
    pub fn n2(&self) -> usize {
        self.core_vars.len()
    }

    /// Whether the hypergraph was acyclic (empty GYO-reduction).
    pub fn is_acyclic(&self) -> bool {
        self.core_edges.is_empty()
    }

    /// Whether edge `e` landed in the forest `W(H)`.
    pub fn is_forest_edge(&self, e: EdgeId) -> bool {
        self.forest_edges.contains(&e)
    }

    /// The forest edges belonging to the same join tree as `e`.
    pub fn tree_of(&self, e: EdgeId) -> Vec<EdgeId> {
        assert!(self.is_forest_edge(e), "{e} is not a forest edge");
        // Walk to the root, then collect descendants.
        let mut root = e;
        while let Some(p) = self.forest_parent[root.index()] {
            root = p;
        }
        let mut tree = vec![root];
        let mut frontier = vec![root];
        while let Some(cur) = frontier.pop() {
            for &c in &self.forest_edges {
                if self.forest_parent[c.index()] == Some(cur) {
                    tree.push(c);
                    frontier.push(c);
                }
            }
        }
        tree
    }

    /// Re-roots the join tree containing `new_root` at `new_root`
    /// (Construction 2.8 allows rooting each reduced-GHD "arbitrarily";
    /// the choice affects both `y(H)` and `n2(H)` since the root edge
    /// joins `C(H)`). The parent pointers on the path from `new_root` up
    /// to the old root are reversed — a tree has one rooting per root,
    /// so this is the orientation a search from `new_root` finds — and
    /// the vertex sets recomputed. Re-rooting is therefore
    /// path-independent: re-rooting a re-rooted decomposition at `e`
    /// equals re-rooting the original at `e`.
    pub fn reroot(&mut self, h: &Hypergraph, new_root: EdgeId) {
        assert!(
            self.is_forest_edge(new_root),
            "{new_root} is not a forest edge"
        );
        if self.forest_parent[new_root.index()].is_none() {
            return;
        }
        let (mut cur, mut below) = (new_root, None);
        while let Some(up) = std::mem::replace(&mut self.forest_parent[cur.index()], below) {
            (below, cur) = (Some(cur), up);
        }
        // `cur` is the old root; its tree now hangs from `new_root`.
        for r in &mut self.forest_roots {
            if *r == cur {
                *r = new_root;
            }
        }
        self.refresh_vars(h);
    }
}

/// Convenience: is the hypergraph acyclic per Definition 2.5?
pub fn is_acyclic(h: &Hypergraph) -> bool {
    gyo(h).is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{clique_query, cycle_query, example_h2, example_h3, star_query};
    use std::collections::BTreeSet;

    #[test]
    fn single_edge_is_acyclic() {
        let mut h = Hypergraph::new(3);
        h.add_edge([Var(0), Var(1), Var(2)]);
        let t = gyo(&h);
        assert!(t.is_acyclic());
        assert_eq!(t.roots(), vec![EdgeId(0)]);
    }

    #[test]
    fn star_is_acyclic_single_tree() {
        let h = star_query(4); // H1 of Figure 1
        let t = gyo(&h);
        assert!(t.is_acyclic());
        assert_eq!(t.roots().len(), 1, "star forms one join tree");
        let d = Decomposition::of(&h);
        assert_eq!(d.core_edges.len(), 0);
        assert_eq!(d.forest_roots.len(), 1);
        // V(C) = the root edge's two vertices.
        assert_eq!(d.n2(), 2);
    }

    #[test]
    fn h2_is_acyclic() {
        // H2 of Figure 1: R(A,B,C), S(B,D), T(C,F), U(A,B,E).
        let h = example_h2();
        assert!(is_acyclic(&h));
    }

    #[test]
    fn triangle_is_cyclic_core() {
        let h = cycle_query(3);
        let t = gyo(&h);
        assert!(!t.is_acyclic());
        let d = Decomposition::of(&h);
        assert_eq!(d.core_edges.len(), 3);
        assert_eq!(d.n2(), 3);
        assert!(d.forest_edges.is_empty());
    }

    #[test]
    fn clique_is_its_own_core() {
        let h = clique_query(5);
        let d = Decomposition::of(&h);
        assert_eq!(d.core_edges.len(), 10);
        assert_eq!(d.n2(), 5);
    }

    #[test]
    fn appendix_c2_example() {
        // H3 of Appendix C.2: core {e1,e2,e3}, forest {e4..e7} rooted at e4,
        // V(C) = {A,B,C,D,E} so n2 = 5.
        let h = example_h3();
        let d = Decomposition::of(&h);
        let core: BTreeSet<EdgeId> = d.core_edges.iter().copied().collect();
        assert_eq!(
            core,
            [EdgeId(0), EdgeId(1), EdgeId(2)].into_iter().collect(),
            "GYO-reduction must be {{e1,e2,e3}}"
        );
        assert_eq!(d.forest_edges.len(), 4);
        assert_eq!(d.forest_roots, vec![EdgeId(3)], "single root e4");
        assert_eq!(d.n2(), 5, "V(C(H3)) = {{A,B,C,D,E}}");
        // Forest vars (excluding core vars, Appendix C.1): F, G, H.
        assert_eq!(d.forest_vars.len(), 3);
    }

    #[test]
    fn cycle_plus_pendant_decomposes() {
        // Triangle 0-1-2 plus pendant edge (2,3): pendant goes to forest.
        let mut h = Hypergraph::new(4);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(1), Var(2)]);
        h.add_edge([Var(0), Var(2)]);
        h.add_edge([Var(2), Var(3)]);
        let d = Decomposition::of(&h);
        assert_eq!(d.core_edges.len(), 3);
        assert_eq!(d.forest_edges, vec![EdgeId(3)]);
        assert_eq!(d.forest_roots, vec![EdgeId(3)]);
        // C(H) = triangle ∪ pendant root = all 4 vertices.
        assert_eq!(d.n2(), 4);
    }

    #[test]
    fn duplicate_edges_reduce() {
        let mut h = Hypergraph::new(2);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(0), Var(1)]);
        let t = gyo(&h);
        assert!(t.is_acyclic(), "duplicate edges: one subsumes the other");
    }

    #[test]
    fn parents_follow_removal_order() {
        let h = example_h3();
        let t = gyo(&h);
        // A removed edge's parent must be removed strictly later.
        let pos: std::collections::HashMap<EdgeId, usize> = t
            .removal_order
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i))
            .collect();
        for (i, p) in t.parent.iter().enumerate() {
            if let Some(p) = p {
                assert!(pos[p] > pos[&EdgeId(i as u32)]);
            }
        }
    }
}
