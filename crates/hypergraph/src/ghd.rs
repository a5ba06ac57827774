//! Generalized hypertree decompositions (Definition 2.4), the GYO-GHD of
//! Construction 2.8, and the MD-GHD hoisting of Construction F.6.

use crate::gyo::Decomposition;
use crate::hypergraph::{intersect, is_subset, EdgeId, Hypergraph, Var};
use std::collections::BTreeSet;

/// Identifier of a GHD tree node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node (bag) of a GHD.
#[derive(Clone, Debug)]
pub struct GhdNode {
    /// The bag `χ(v) ⊆ V` (sorted).
    pub chi: Vec<Var>,
    /// The cover `λ(v) ⊆ E`: hyperedges for which this is the canonical
    /// covering node.
    pub lambda: Vec<EdgeId>,
    /// Parent in the rooted tree (`None` for the root).
    pub parent: Option<NodeId>,
}

/// Validation failure for a candidate GHD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GhdValidationError {
    /// Some hyperedge has no node with `e ⊆ χ(v)` and `e ∈ λ(v)`.
    EdgeNotCovered(EdgeId),
    /// A variable's occurrence set is not connected in the tree (running
    /// intersection property violated).
    RipViolation(Var),
    /// `λ(v)` lists an edge not contained in `χ(v)`.
    LambdaNotContained(NodeId, EdgeId),
    /// The parent pointers do not form a single rooted tree.
    NotATree,
}

impl std::fmt::Display for GhdValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GhdValidationError::EdgeNotCovered(e) => write!(f, "edge {e} not covered by any bag"),
            GhdValidationError::RipViolation(v) => {
                write!(f, "running intersection property violated for {v}")
            }
            GhdValidationError::LambdaNotContained(n, e) => {
                write!(f, "λ of node {} lists {e} not contained in its bag", n.0)
            }
            GhdValidationError::NotATree => write!(f, "parent pointers do not form a tree"),
        }
    }
}

impl std::error::Error for GhdValidationError {}

/// A rooted generalized hypertree decomposition `⟨T, χ, λ⟩` of a
/// hypergraph (Definition 2.4).
///
/// Unless stated otherwise, decompositions produced by this crate are
/// **GYO-GHDs** in the paper's sense: outputs of Construction 2.8, with
/// the core `C(H)` at the root. The paper's width `y(T)` is
/// [`Ghd::internal_count`]; minimizing it over GYO-GHDs gives `y(H)`
/// (Definition 2.9), computed by [`crate::internal_node_width`].
#[derive(Clone, Debug)]
pub struct Ghd {
    nodes: Vec<GhdNode>,
    root: NodeId,
    alive: Vec<bool>,
}

impl Ghd {
    /// Builds a GHD from explicit nodes; `nodes[root]` must have no parent.
    pub fn from_nodes(nodes: Vec<GhdNode>, root: NodeId) -> Self {
        let alive = vec![true; nodes.len()];
        Ghd { nodes, root, alive }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of live nodes.
    pub fn len(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Whether the decomposition has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, n: NodeId) -> &GhdNode {
        &self.nodes[n.index()]
    }

    /// The bag `χ(v)`.
    #[inline]
    pub fn chi(&self, n: NodeId) -> &[Var] {
        &self.nodes[n.index()].chi
    }

    /// All live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len())
            .map(|i| NodeId(i as u32))
            .filter(move |n| self.alive[n.index()])
    }

    /// Live children of `n`, ascending.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&c| self.nodes[c.index()].parent == Some(n))
    }

    /// Live parent of `n`.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// The number of internal nodes `y(T)` (Definition 2.9).
    pub fn internal_count(&self) -> usize {
        let mut has_child = vec![false; self.nodes.len()];
        for n in self.node_ids() {
            if let Some(p) = self.nodes[n.index()].parent {
                has_child[p.index()] = true;
            }
        }
        self.node_ids().filter(|n| has_child[n.index()]).count()
    }

    /// The canonical covering node of edge `e`, if any.
    pub fn edge_node(&self, e: EdgeId) -> Option<NodeId> {
        self.node_ids()
            .find(|n| self.nodes[n.index()].lambda.contains(&e))
    }

    /// Live nodes in post-order (children before parents) — the
    /// bottom-up processing order of the forest protocol.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![(self.root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if !self.alive[n.index()] {
                continue;
            }
            if expanded {
                order.push(n);
            } else {
                stack.push((n, true));
                stack.extend(self.children(n).map(|c| (c, false)));
            }
        }
        order
    }

    /// Depth of node `n` (root = 0), following live parent chain.
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.nodes[cur.index()].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Strict ancestors of `n`, nearest first, ending at the root.
    pub fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = n;
        while let Some(p) = self.nodes[cur.index()].parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Validates the decomposition against `h` per Definition 2.4:
    /// coverage (`∀e ∃v: e ⊆ χ(v), e ∈ λ(v)`), λ-containment, the running
    /// intersection property, and tree shape.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), GhdValidationError> {
        // Tree shape: every live node reaches the root without cycles.
        for n in self.node_ids() {
            let mut seen = BTreeSet::new();
            let mut cur = n;
            loop {
                if !seen.insert(cur) {
                    return Err(GhdValidationError::NotATree);
                }
                match self.nodes[cur.index()].parent {
                    Some(p) => {
                        if !self.alive[p.index()] {
                            return Err(GhdValidationError::NotATree);
                        }
                        cur = p;
                    }
                    None => break,
                }
            }
            if cur != self.root {
                return Err(GhdValidationError::NotATree);
            }
        }

        // λ containment + coverage.
        for n in self.node_ids() {
            for &e in &self.nodes[n.index()].lambda {
                if !is_subset(h.edge(e), &self.nodes[n.index()].chi) {
                    return Err(GhdValidationError::LambdaNotContained(n, e));
                }
            }
        }
        for (e, _) in h.edges() {
            let covered = self.node_ids().any(|n| {
                self.nodes[n.index()].lambda.contains(&e)
                    && is_subset(h.edge(e), &self.nodes[n.index()].chi)
            });
            if !covered {
                return Err(GhdValidationError::EdgeNotCovered(e));
            }
        }

        // RIP: for every variable, the set of bags containing it induces a
        // connected subtree. Checked by counting connected components via
        // parent links restricted to occurrence nodes.
        for v in h.vars() {
            let occ: Vec<NodeId> = self
                .node_ids()
                .filter(|n| self.nodes[n.index()].chi.binary_search(&v).is_ok())
                .collect();
            if occ.len() <= 1 {
                continue;
            }
            let occ_set: BTreeSet<NodeId> = occ.iter().copied().collect();
            // A node is a component root if its parent is not an occurrence.
            let roots = occ
                .iter()
                .filter(|n| {
                    self.nodes[n.index()]
                        .parent
                        .map(|p| !occ_set.contains(&p))
                        .unwrap_or(true)
                })
                .count();
            if roots != 1 {
                return Err(GhdValidationError::RipViolation(v));
            }
        }
        Ok(())
    }

    /// **Construction 2.8 (GYO-GHD).** Runs GYO, puts the core `C(H)` in
    /// the root bag, creates one child per edge contained in `V(C(H))`,
    /// and attaches the remaining removed forest following its join-forest
    /// parent structure.
    ///
    /// If a single edge's vertex set equals `V(C(H))` the synthetic root
    /// is merged with that edge's node (this is how the paper's Figure 2
    /// decomposition `T1` arises with root `(A,B,C)`).
    pub fn gyo_ghd(h: &Hypergraph) -> Ghd {
        Self::from_decomposition(h, &Decomposition::of(h))
    }

    /// Materialises Construction 2.8 for a given core/forest decomposition
    /// (possibly re-rooted via [`Decomposition::reroot`]).
    pub fn from_decomposition(h: &Hypergraph, decomp: &Decomposition) -> Ghd {
        let core_vars = &decomp.core_vars;

        let mut nodes: Vec<GhdNode> = Vec::with_capacity(h.num_edges() + 1);
        let root = NodeId(0);

        // Merge the root with an edge that exactly matches V(C(H)).
        let merged: Option<EdgeId> = h
            .edges()
            .find(|(_, e)| *e == core_vars.as_slice())
            .map(|(id, _)| id);
        nodes.push(GhdNode {
            chi: core_vars.clone(),
            lambda: merged.into_iter().collect(),
            parent: None,
        });

        let mut node_of_edge: Vec<Option<NodeId>> = vec![None; h.num_edges()];
        if let Some(e) = merged {
            node_of_edge[e.index()] = Some(root);
        }

        // Children for every edge contained in V(C(H)).
        for (e, vars) in h.edges() {
            if Some(e) == merged {
                continue;
            }
            if is_subset(vars, core_vars) {
                let id = NodeId(nodes.len() as u32);
                nodes.push(GhdNode {
                    chi: vars.to_vec(),
                    lambda: vec![e],
                    parent: Some(root),
                });
                node_of_edge[e.index()] = Some(id);
            }
        }

        // Remaining forest edges: attach along join-forest parents, placed
        // top-down (passes over the forest in removal order, each placing
        // every edge whose parent is placed) so every parent exists before
        // its children.
        loop {
            let (mut placed, mut waiting) = (false, false);
            for &e in &decomp.forest_edges {
                if node_of_edge[e.index()].is_some() {
                    continue;
                }
                let parent_node = match decomp.forest_parent[e.index()] {
                    Some(p) => node_of_edge[p.index()],
                    // A forest root not contained in V(C(H)) cannot occur
                    // (its vertices are in the core by definition), but
                    // fall back to the root defensively.
                    None => Some(root),
                };
                match parent_node {
                    Some(pn) => {
                        let id = NodeId(nodes.len() as u32);
                        nodes.push(GhdNode {
                            chi: h.edge(e).to_vec(),
                            lambda: vec![e],
                            parent: Some(pn),
                        });
                        node_of_edge[e.index()] = Some(id);
                        placed = true;
                    }
                    None => waiting = true,
                }
            }
            if !waiting {
                break;
            }
            assert!(placed, "forest parent structure contains a cycle");
        }

        Ghd::from_nodes(nodes, root)
    }

    /// **Construction F.6 (MD-GHD).** Repeatedly reattaches a node `v`
    /// from its parent `u` to the *topmost* strict ancestor `w` of `u`
    /// with `χ(v) ∩ χ(u) ⊆ χ(w)`. This preserves GHD validity (the shared
    /// variables lie on the whole `u..w` path by RIP) and can only turn
    /// internal nodes into leaves, so it never increases `y(T)`.
    ///
    /// Terminates because every reattachment strictly decreases the total
    /// node depth (cf. Corollary F.7's step bound).
    pub fn hoist_md(&mut self) {
        loop {
            let mut changed = false;
            for v in (0..self.nodes.len()).filter(|&v| self.alive[v]) {
                let Some(u) = self.nodes[v].parent else {
                    continue;
                };
                // The topmost strict ancestor of u whose bag holds every
                // variable v shares with u.
                let (chi_v, chi_u) = (&self.nodes[v].chi, &self.nodes[u.index()].chi);
                let shared = chi_v.iter().filter(|x| chi_u.contains(x));
                let mut target = None;
                let mut up = self.nodes[u.index()].parent;
                while let Some(w) = up {
                    let chi_w = &self.nodes[w.index()].chi;
                    if shared.clone().all(|x| chi_w.contains(x)) {
                        target = Some(w);
                    }
                    up = self.nodes[w.index()].parent;
                }
                if let Some(w) = target {
                    self.nodes[v].parent = Some(w);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Finds the deepest *pendant star*: an internal node all of whose
    /// children are leaves. Returns `(center, leaves)` without modifying
    /// the tree. This is the unit of work of the forest protocol
    /// (Lemma 4.1 / F.1): each peel consumes one internal node, so the
    /// total number of peels is `y(T)`.
    pub fn lowest_star(&self) -> Option<(NodeId, Vec<NodeId>)> {
        let mut best: Option<(usize, NodeId)> = None;
        for n in self.node_ids() {
            let mut ch = self.children(n).peekable();
            if ch.peek().is_none() {
                continue;
            }
            if ch.all(|c| self.children(c).next().is_none()) {
                let d = self.depth(n);
                if best.map(|(bd, _)| d > bd).unwrap_or(true) {
                    best = Some((d, n));
                }
            }
        }
        best.map(|(_, n)| (n, self.children(n).collect()))
    }

    /// Removes (marks dead) the given leaves — used after a star peel.
    pub fn remove_leaves(&mut self, leaves: &[NodeId]) {
        for &l in leaves {
            assert!(
                self.children(l).next().is_none(),
                "can only remove leaf nodes, {l:?} has children"
            );
            self.alive[l.index()] = false;
        }
    }

    /// **Lemma F.3.** For every internal node `u` (bottom-up, synthetic
    /// roots excluded), finds a variable `p` in `χ(u) ∩ χ(c)` for some
    /// child `c` such that `p` occurs in no bag outside the subtree of
    /// `u`. Returns `(internal node, witness child, private variable)`
    /// triples; used by the TRIBES embedding of Theorem F.8.
    pub fn private_pairs(&self) -> Vec<(NodeId, NodeId, Var)> {
        let mut out = Vec::new();
        for u in self.post_order() {
            let mut ch = self.children(u).peekable();
            if ch.peek().is_none() {
                continue;
            }
            // Variables in bags outside subtree(u).
            let mut outside: BTreeSet<Var> = BTreeSet::new();
            for n in self.node_ids() {
                if !self.in_subtree(n, u) {
                    outside.extend(self.nodes[n.index()].chi.iter().copied());
                }
            }
            'child: for c in ch {
                let shared = intersect(&self.nodes[u.index()].chi, &self.nodes[c.index()].chi);
                for p in shared {
                    if !outside.contains(&p) {
                        out.push((u, c, p));
                        break 'child;
                    }
                }
            }
        }
        out
    }

    /// Whether `n` lies in the subtree rooted at `a` (inclusive).
    pub fn in_subtree(&self, n: NodeId, a: NodeId) -> bool {
        let mut cur = n;
        loop {
            if cur == a {
                return true;
            }
            match self.nodes[cur.index()].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{
        clique_query, cycle_query, example_h1, example_h2, example_h3, path_query, star_query,
        tree_query,
    };

    fn check(h: &Hypergraph) -> Ghd {
        let g = Ghd::gyo_ghd(h);
        g.validate(h).expect("construction 2.8 yields a valid GHD");
        g
    }

    #[test]
    fn star_ghd_has_width_one_after_hoisting() {
        let h = example_h1(); // star on A with leaves B,C,D,E
        let mut g = check(&h);
        g.hoist_md();
        g.validate(&h).unwrap();
        assert_eq!(g.internal_count(), 1, "paper: y(H1) = 1");
    }

    #[test]
    fn h2_ghd_has_width_one_after_hoisting() {
        let h = example_h2();
        let mut g = check(&h);
        g.hoist_md();
        g.validate(&h).unwrap();
        assert_eq!(g.internal_count(), 1, "paper: y(H2) = 1 via T1 of Fig 2");
    }

    #[test]
    fn h3_ghd_valid_and_hoists_to_two_internals() {
        let h = example_h3();
        let mut g = check(&h);
        g.hoist_md();
        g.validate(&h).unwrap();
        // Appendix C.2's first sample GYO-GHD has 2 internal nodes (r' and
        // e6); G and H are private to e6's subtree so e6 stays internal.
        assert_eq!(g.internal_count(), 2);
    }

    #[test]
    fn path_ghd_is_chainlike() {
        let h = path_query(6);
        let mut g = check(&h);
        g.hoist_md();
        g.validate(&h).unwrap();
        // A path of 6 edges: interior vertices force a chain; hoisting
        // cannot flatten it below ~k-2 internal nodes.
        assert!(g.internal_count() >= 4);
    }

    #[test]
    fn clique_ghd_is_flat() {
        let h = clique_query(5);
        let g = check(&h);
        // Core = everything: root bag covers all vertices, all edges hang
        // off it as leaves.
        assert_eq!(g.internal_count(), 1);
        assert_eq!(g.len(), h.num_edges() + 1);
    }

    #[test]
    fn cycle_ghd_is_flat() {
        let h = cycle_query(5);
        let g = check(&h);
        assert_eq!(g.internal_count(), 1);
    }

    #[test]
    fn tree_query_ghd_valid() {
        let h = tree_query(3, 3); // depth-3 ternary tree
        let mut g = check(&h);
        g.hoist_md();
        g.validate(&h).unwrap();
    }

    #[test]
    fn post_order_visits_children_first() {
        let h = example_h3();
        let g = check(&h);
        let order = g.post_order();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in g.node_ids() {
            if let Some(p) = g.parent(n) {
                assert!(pos[&n] < pos[&p], "child before parent");
            }
        }
        assert_eq!(*order.last().unwrap(), g.root());
    }

    #[test]
    fn peel_stars_consumes_internal_nodes() {
        let h = path_query(6);
        let mut g = check(&h);
        g.hoist_md();
        let y = g.internal_count();
        let mut peels = 0;
        while let Some((_, leaves)) = g.lowest_star() {
            g.remove_leaves(&leaves);
            peels += 1;
            if g.len() == 1 {
                break;
            }
        }
        assert_eq!(peels, y, "one peel per internal node");
    }

    #[test]
    fn private_pairs_exist_for_star() {
        let h = star_query(4);
        let mut g = check(&h);
        g.hoist_md();
        let pairs = g.private_pairs();
        // The single internal node must expose a private variable.
        assert_eq!(pairs.len(), g.internal_count());
    }

    #[test]
    fn validation_catches_rip_violation() {
        // Bags {0,1}, {2}, {0,3} in a chain: variable 0 occurs at both
        // ends but not in the middle.
        let mut h = Hypergraph::new(4);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(2)]);
        h.add_edge([Var(0), Var(3)]);
        let nodes = vec![
            GhdNode {
                chi: vec![Var(0), Var(1)],
                lambda: vec![EdgeId(0)],
                parent: None,
            },
            GhdNode {
                chi: vec![Var(2)],
                lambda: vec![EdgeId(1)],
                parent: Some(NodeId(0)),
            },
            GhdNode {
                chi: vec![Var(0), Var(3)],
                lambda: vec![EdgeId(2)],
                parent: Some(NodeId(1)),
            },
        ];
        let g = Ghd::from_nodes(nodes, NodeId(0));
        assert_eq!(
            g.validate(&h),
            Err(GhdValidationError::RipViolation(Var(0)))
        );
    }

    #[test]
    fn validation_catches_uncovered_edge() {
        let mut h = Hypergraph::new(2);
        h.add_edge([Var(0), Var(1)]);
        let nodes = vec![GhdNode {
            chi: vec![Var(0)],
            lambda: vec![],
            parent: None,
        }];
        let g = Ghd::from_nodes(nodes, NodeId(0));
        assert_eq!(
            g.validate(&h),
            Err(GhdValidationError::EdgeNotCovered(EdgeId(0)))
        );
    }
}
