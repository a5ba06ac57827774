//! The internal-node-width `y(H)` (Definition 2.9): the minimum number of
//! internal nodes over GYO-GHDs of `H`.
//!
//! The paper only needs an O(1)-factor approximation for its tight bounds
//! (Appendix F); [`internal_node_width`] delivers the constructive
//! heuristic (Construction 2.8 followed by MD-hoisting, Construction F.6).
//! [`exact_internal_node_width`] performs an exhaustive search over parent
//! assignments of the same node set for small instances, used by tests to
//! certify the heuristic on the paper's examples.
//!
//! The heuristic searches the rootings of the canonical GYO run's join
//! forest. A tree has one rooting per root, so [`QueryStructure`] names
//! a rooting by its root vector (one root edge per tree) over the one
//! canonical [`Decomposition`], and builds a rooting's GHD only when the
//! search or a planner reads it.

use crate::ghd::{Ghd, GhdNode, NodeId};
use crate::gyo::Decomposition;
use crate::hypergraph::{intersect, is_subset, EdgeId, Hypergraph, Var};

/// The result of a width computation.
#[derive(Clone, Debug)]
pub struct WidthReport {
    /// The achieved internal node count `y(T)`.
    pub y: usize,
    /// The number of internal nodes of the canonical construction before
    /// MD-hoisting and re-rooting (ablation data).
    pub y_before_hoist: usize,
    /// The witnessing decomposition (hoisted).
    pub ghd: Ghd,
    /// The core/forest decomposition consistent with [`WidthReport::ghd`]
    /// (re-rooting changes which edges sit in `C(H)`, hence `n2`).
    pub decomposition: Decomposition,
}

impl WidthReport {
    /// `n2(H)` for the chosen decomposition.
    pub fn n2(&self) -> usize {
        self.decomposition.n2()
    }

    /// What Theorem 4.1's bound reads off this witness.
    pub fn terms(&self) -> WidthTerms {
        WidthTerms::of(self.y, &self.decomposition)
    }
}

/// The structural terms of Theorem 4.1's bound: `y(H)` and `n2(H)` of the
/// width witness, and whether `H` is acyclic with one join tree (then
/// Lemma 4.1 peels it to the root and the bound has no core term). Every
/// rooting of `H`'s join forest has the same core edges and the same
/// number of trees, so the flag is a property of `H`; `y` and `n2` are
/// the witness's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WidthTerms {
    /// `y(H)`: the witness's internal node count.
    pub y: usize,
    /// `n2(H)`: the witness's core vertex count.
    pub n2: usize,
    /// Whether `H` is acyclic and its join forest is one tree.
    pub acyclic_single_tree: bool,
}

impl WidthTerms {
    /// The terms of a witness with `y` internal nodes and decomposition `d`.
    fn of(y: usize, d: &Decomposition) -> WidthTerms {
        WidthTerms {
            y,
            n2: d.n2(),
            acyclic_single_tree: d.core_edges.is_empty() && d.forest_roots.len() == 1,
        }
    }
}

/// One structural analysis of a hypergraph, from one GYO run: the
/// canonical decomposition, the rootings of its join forest a
/// cost-based planner scores, and the width witness among them
/// ([`QueryStructure::core_candidates`] adds the cyclic-core merges).
///
/// A tree has one rooting per root, so a rooting is named by its *root
/// vector*: one root edge per join tree, in the canonical
/// [`Decomposition::forest_roots`] order. Its MD-hoisted GHD is built
/// when the width search or a planner first reads it, and at most once,
/// by re-rooting the one canonical decomposition there and back.
#[derive(Clone, Debug)]
pub struct QueryStructure {
    /// The GYO run's own rooting; building a GHD re-roots it and back.
    canonical: Decomposition,
    /// The root vectors met, end to end: the canonical rooting, then one
    /// per other edge of each join tree in tree order (the first
    /// `family`), then the width search's moves of several trees.
    roots: Vec<EdgeId>,
    /// How many root vectors [`QueryStructure::rootings`] lists.
    family: usize,
    /// Each met rooting's hoisted GHD, once built and until taken.
    ghds: Vec<Option<Ghd>>,
    /// The width witness's place among the met rootings.
    witness: usize,
    /// What Theorem 4.1's bound reads off the witness.
    terms: WidthTerms,
    /// [`WidthReport::y_before_hoist`].
    y_before_hoist: usize,
}

impl QueryStructure {
    /// Runs GYO once on `h`, lists every single-tree re-rooting of its
    /// join forest and runs the width search over them.
    ///
    /// The width search is a coordinate descent: it moves the best
    /// rooting so far to each other edge of each removed join tree in
    /// turn, and keeps a move that lowers `y`, or keeps `y` and lowers
    /// `n2`.
    pub fn of(h: &Hypergraph) -> Self {
        let canonical = Decomposition::of(h);
        let mut ghd0 = Ghd::from_decomposition(h, &canonical);
        let y_before_hoist = ghd0.internal_count();
        ghd0.hoist_md();
        let trees: Vec<Vec<EdgeId>> = canonical
            .forest_roots
            .iter()
            .map(|&r| canonical.tree_of(r))
            .collect();
        let family = 1 + trees.iter().map(|t| t.len() - 1).sum::<usize>();
        // Room for the width search's trial vector after the family.
        let mut roots = Vec::with_capacity((family + 1) * trees.len());
        roots.extend_from_slice(&canonical.forest_roots);
        for (t, tree) in trees.iter().enumerate() {
            for &e in &tree[1..] {
                let at = roots.len();
                roots.extend_from_slice(&canonical.forest_roots);
                roots[at + t] = e;
            }
        }
        let (mut best_y, mut best_n2) = (ghd0.internal_count(), canonical.n2());
        let mut ghds = vec![None; family];
        ghds[0] = Some(ghd0);
        let mut s = QueryStructure {
            terms: WidthTerms::of(best_y, &canonical),
            canonical,
            roots,
            family,
            ghds,
            witness: 0,
            y_before_hoist,
        };
        for (t, tree) in trees.iter().enumerate() {
            for &e in &tree[1..] {
                let i = s.meet(s.witness, t, e);
                let ghd = s.ghd(h, i);
                let (y, n2) = (ghd.internal_count(), ghd.chi(ghd.root()).len());
                if y < best_y || (y == best_y && n2 < best_n2) {
                    (s.witness, best_y, best_n2) = (i, y, n2);
                }
            }
        }
        s.terms.y = best_y;
        s.terms.n2 = best_n2;
        s
    }

    /// The canonical decomposition: the GYO run's own rooting.
    pub fn canonical(&self) -> &Decomposition {
        &self.canonical
    }

    /// The width witness's root vector.
    pub fn witness(&self) -> &[EdgeId] {
        self.rooting(self.witness)
    }

    /// What Theorem 4.1's bound reads off the width witness.
    pub fn terms(&self) -> WidthTerms {
        self.terms
    }

    /// The rootings a planner scores, as root vectors: the canonical
    /// rooting first, then one per other edge of each join tree, in
    /// tree order.
    pub fn rootings(&self) -> impl ExactSizeIterator<Item = &[EdgeId]> {
        (0..self.family).map(|i| self.rooting(i))
    }

    /// The MD-hoisted Construction 2.8 GHD of the rooting at `roots`,
    /// moved out: the one the width search built, if it met that
    /// rooting, and otherwise built now.
    pub fn take_ghd(&mut self, h: &Hypergraph, roots: &[EdgeId]) -> Ghd {
        let met = (0..self.ghds.len()).find(|&i| self.rooting(i) == roots);
        match met.and_then(|i| self.ghds[i].take()) {
            Some(ghd) => ghd,
            None => {
                let home = &self.roots[..self.canonical.forest_roots.len()];
                hoisted(h, &mut self.canonical, roots, home)
            }
        }
    }

    /// The `i`-th met root vector.
    fn rooting(&self, i: usize) -> &[EdgeId] {
        let trees = self.canonical.forest_roots.len();
        &self.roots[i * trees..(i + 1) * trees]
    }

    /// The place among the met rootings of the `from`-th with tree `t`
    /// rooted at `e` instead, which joins them if it is new.
    fn meet(&mut self, from: usize, t: usize, e: EdgeId) -> usize {
        let trees = self.canonical.forest_roots.len();
        let (n, at) = (self.ghds.len(), self.roots.len());
        self.roots
            .extend_from_within(from * trees..(from + 1) * trees);
        self.roots[at + t] = e;
        match (0..n).find(|&i| self.rooting(i) == &self.roots[at..]) {
            Some(i) => {
                self.roots.truncate(at);
                i
            }
            None => {
                self.ghds.push(None);
                n
            }
        }
    }

    /// The hoisted GHD of the `i`-th met rooting, built on first read.
    fn ghd(&mut self, h: &Hypergraph, i: usize) -> &Ghd {
        let trees = self.canonical.forest_roots.len();
        let roots = &self.roots[i * trees..(i + 1) * trees];
        let (home, d) = (&self.roots[..trees], &mut self.canonical);
        self.ghds[i].get_or_insert_with(|| hoisted(h, d, roots, home))
    }

    /// GHD candidates for *cyclic* cores, beyond Construction 2.8's
    /// rootings: bag-merge decompositions of the canonical GYO core toward
    /// fractional / submodular width, for the cost-based planner to race
    /// against the canonical flat root. `h` is the hypergraph the
    /// analysis was built from.
    ///
    /// Construction 2.8 puts the whole core vertex set in the root bag
    /// but hangs every contained edge as a leaf child with `λ = {e}` — so
    /// a triangle still materialises through a binary join cascade of
    /// child messages. The candidates produced here change *λ assignment
    /// and bag shape*, which is what a worst-case-optimal generic-join
    /// operator needs to apply:
    ///
    /// 1. **Flat core** — one root bag `χ = V(C(H))` whose λ absorbs
    ///    every edge it contains (the multiway-join bag), remaining
    ///    forest attached below;
    /// 2. **Core 2-splits** — for cores of ≥ 4 edges, the core edges are
    ///    walked into a shared-variable chain, cut into two contiguous
    ///    arcs, and each arc becomes one bag (both rootings are emitted)
    ///    — the greedy "merge adjacent cycle bags" family between the
    ///    flat root and the canonical decomposition.
    ///
    /// Every candidate is MD-hoisted and validated against the full GHD
    /// checks (coverage, λ-containment, RIP, tree shape); invalid merges
    /// — e.g. splits whose arcs interleave on a chord — are silently
    /// dropped. Acyclic hypergraphs (empty core) yield no candidates,
    /// leaving [`QueryStructure::rootings`] the complete story there.
    pub fn core_candidates(&self, h: &Hypergraph) -> Vec<Ghd> {
        let d = self.canonical();
        if d.core_edges.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();

        if let Some(g) = assemble_merged(h, d, &[(d.core_vars.clone(), None)]) {
            out.push(g);
        }

        let m = d.core_edges.len();
        if m >= 4 {
            if let Some(order) = core_walk(h, &d.core_edges) {
                // Contiguous 2-splits of the walk: all cuts for small
                // cores, balanced cuts only once the quadratic family
                // gets large.
                let lens: Vec<usize> = if m <= 8 {
                    (2..=m - 2).collect()
                } else {
                    vec![m / 2]
                };
                for s in 0..m {
                    for &l in &lens {
                        let arc1: Vec<EdgeId> = (0..l).map(|i| order[(s + i) % m]).collect();
                        let arc2: Vec<EdgeId> = (l..m).map(|i| order[(s + i) % m]).collect();
                        let b1 = edge_union_vars(h, &arc1);
                        let b2 = edge_union_vars(h, &arc2);
                        for (first, second) in [(&b1, &b2), (&b2, &b1)] {
                            let bags = [(first.clone(), None), (second.clone(), Some(0))];
                            if let Some(g) = assemble_merged(h, d, &bags) {
                                out.push(g);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The MD-hoisted Construction 2.8 GHD of the rooting at `roots` of
/// `d`'s join forest, built by re-rooting `d` there and back to `home`.
fn hoisted(h: &Hypergraph, d: &mut Decomposition, roots: &[EdgeId], home: &[EdgeId]) -> Ghd {
    d.root_at(h, roots);
    let mut ghd = Ghd::from_decomposition(h, d);
    d.root_at(h, home);
    ghd.hoist_md();
    ghd
}

/// Computes (an upper bound on) `y(H)` constructively:
///
/// 1. Construction 2.8 on the canonical GYO run;
/// 2. the MD-GHD hoisting of Construction F.6;
/// 3. a coordinate-descent search over re-rootings of each removed join
///    tree (Construction 2.8 roots each reduced-GHD "arbitrarily", and
///    the root choice changes both `y` and `n2` — e.g. a path query wants
///    its middle edge as root).
///
/// The returned GHD witnesses the width and is the decomposition the
/// distributed forest protocol runs on. The paper only needs an
/// O(1)-approximation of `y(H)` (Appendix F); the crate's tests certify
/// exactness on all of the paper's worked examples via
/// [`exact_internal_node_width`]. It is the witness of
/// [`QueryStructure::of`]; a planner that also wants the re-rooted
/// candidates builds that analysis instead of running GYO twice.
///
/// ```
/// use faqs_hypergraph::{example_h2, internal_node_width};
/// // Figure 2 of the paper: H2 admits a GYO-GHD with one internal node.
/// let report = internal_node_width(&example_h2());
/// assert_eq!(report.y, 1);
/// report.ghd.validate(&example_h2()).unwrap();
/// ```
pub fn internal_node_width(h: &Hypergraph) -> WidthReport {
    let mut s = QueryStructure::of(h);
    let roots = s.witness().to_vec();
    let ghd = s.take_ghd(h, &roots);
    s.canonical.root_at(h, &roots);
    WidthReport {
        y: s.terms.y,
        y_before_hoist: s.y_before_hoist,
        ghd,
        decomposition: s.canonical,
    }
}

/// The sorted union of the given edges' vertex sets.
fn edge_union_vars(h: &Hypergraph, edges: &[EdgeId]) -> Vec<Var> {
    let mut vars: Vec<Var> = edges.iter().flat_map(|&e| h.edge(e)).copied().collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Greedily walks the core edges into a chain where consecutive edges
/// share a variable (a cycle core traces its cycle). `None` when the
/// core's intersection graph is disconnected.
fn core_walk(h: &Hypergraph, core: &[EdgeId]) -> Option<Vec<EdgeId>> {
    let mut last = core[0];
    let mut order = vec![last];
    let mut used = vec![false; core.len()];
    used[0] = true;
    while order.len() < core.len() {
        let (i, &e) = core
            .iter()
            .enumerate()
            .find(|(i, e)| !used[*i] && !intersect(h.edge(last), h.edge(**e)).is_empty())?;
        used[i] = true;
        order.push(e);
        last = e;
    }
    Some(order)
}

/// Materialises a merged-bag candidate: the given bags (with explicit
/// parent indices) absorb every edge contained in one of them (first
/// containing bag wins); remaining forest edges attach below their
/// join-forest parents exactly as in Construction 2.8. Returns the
/// hoisted GHD iff every core edge is absorbed, every forest edge finds
/// a parent, and the result passes full GHD validation.
fn assemble_merged(
    h: &Hypergraph,
    d: &Decomposition,
    bags: &[(Vec<Var>, Option<usize>)],
) -> Option<Ghd> {
    let mut nodes: Vec<GhdNode> = bags
        .iter()
        .map(|(chi, parent)| GhdNode {
            chi: chi.clone(),
            lambda: Vec::new(),
            parent: parent.map(|p| NodeId(p as u32)),
        })
        .collect();
    let mut node_of_edge: Vec<Option<NodeId>> = vec![None; h.num_edges()];
    for (e, vars) in h.edges() {
        if let Some(i) = bags.iter().position(|(chi, _)| is_subset(vars, chi)) {
            nodes[i].lambda.push(e);
            node_of_edge[e.index()] = Some(NodeId(i as u32));
        }
    }
    if d.core_edges
        .iter()
        .any(|e| node_of_edge[e.index()].is_none())
    {
        return None;
    }
    let mut pending: Vec<EdgeId> = d
        .forest_edges
        .iter()
        .copied()
        .filter(|e| node_of_edge[e.index()].is_none())
        .collect();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|&e| {
            let parent_node = d.forest_parent[e.index()].and_then(|p| node_of_edge[p.index()]);
            match parent_node {
                Some(pn) => {
                    let id = NodeId(nodes.len() as u32);
                    nodes.push(GhdNode {
                        chi: h.edge(e).to_vec(),
                        lambda: vec![e],
                        parent: Some(pn),
                    });
                    node_of_edge[e.index()] = Some(id);
                    false
                }
                None => true,
            }
        });
        if pending.len() == before {
            // A forest root whose vertices straddle the split, or a
            // detached chain: the merge cannot host this forest.
            return None;
        }
    }
    let mut g = Ghd::from_nodes(nodes, NodeId(0));
    g.hoist_md();
    g.validate(h).ok()?;
    Some(g)
}

/// Exhaustively minimises the internal node count over all parent
/// assignments of the canonical GYO-GHD node set (root bag `V(C(H))` plus
/// one node per hyperedge), subject to GHD validity.
///
/// Note the search is exact *for the canonical root bag*: re-rooting a
/// removed join tree changes `V(C(H))` and can beat this value (H3 is
/// the worked example — canonical-root exact is 2, re-rooting reaches
/// 1), which is why [`internal_node_width`] may report less.
///
/// Exponential in the number of non-root nodes; returns `None` when that
/// exceeds `max_free_nodes` (8 is a practical ceiling). Intended for
/// tests and the width ablation on paper-sized examples.
pub fn exact_internal_node_width(h: &Hypergraph, max_free_nodes: usize) -> Option<usize> {
    let base = Ghd::gyo_ghd(h);
    let ids: Vec<NodeId> = base.node_ids().collect();
    let root = base.root();
    let free: Vec<NodeId> = ids.iter().copied().filter(|n| *n != root).collect();
    if free.len() > max_free_nodes {
        return None;
    }

    // Candidate parents for each free node: any other node.
    let mut best: Option<usize> = None;
    let mut assignment: Vec<usize> = vec![0; free.len()];
    let options: Vec<NodeId> = ids.clone();

    // Depth-first enumeration over parent assignments.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn rec(
        h: &Hypergraph,
        base: &Ghd,
        root: NodeId,
        free: &[NodeId],
        options: &[NodeId],
        assignment: &mut Vec<usize>,
        idx: usize,
        best: &mut Option<usize>,
    ) {
        if idx == free.len() {
            // Materialise and validate.
            let mut nodes: Vec<GhdNode> = Vec::with_capacity(options.len());
            let max_id = options.iter().fold(0, |m, n| m.max(n.index() + 1));
            let mut parent_of: Vec<Option<NodeId>> = vec![None; max_id];
            for (i, &n) in free.iter().enumerate() {
                parent_of[n.index()] = Some(options[assignment[i]]);
            }
            for i in 0..max_id {
                let src = base.node(NodeId(i as u32));
                nodes.push(GhdNode {
                    chi: src.chi.clone(),
                    lambda: src.lambda.clone(),
                    parent: if NodeId(i as u32) == root {
                        None
                    } else {
                        parent_of[i]
                    },
                });
            }
            let g = Ghd::from_nodes(nodes, root);
            if g.validate(h).is_ok() {
                let y = g.internal_count();
                if best.map(|b| y < b).unwrap_or(true) {
                    *best = Some(y);
                }
            }
            return;
        }
        for (oi, &opt) in options.iter().enumerate() {
            if opt == free[idx] {
                continue;
            }
            assignment[idx] = oi;
            rec(h, base, root, free, options, assignment, idx + 1, best);
        }
    }

    rec(
        h,
        &base,
        root,
        &free,
        &options,
        &mut assignment,
        0,
        &mut best,
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{
        clique_query, cycle_query, example_h1, example_h2, example_h3, path_query, star_query,
    };

    #[test]
    fn heuristic_matches_paper_on_h1() {
        let h = example_h1();
        assert_eq!(internal_node_width(&h).y, 1, "y(H1) = 1");
    }

    #[test]
    fn heuristic_matches_paper_on_h2() {
        let h = example_h2();
        assert_eq!(internal_node_width(&h).y, 1, "y(H2) = 1 (Fig 2, T1)");
    }

    #[test]
    fn exact_confirms_heuristic_on_small_examples() {
        for (h, name) in [
            (example_h1(), "H1"),
            (example_h2(), "H2"),
            (star_query(3), "star3"),
            (path_query(4), "path4"),
            (cycle_query(4), "cycle4"),
        ] {
            let heur = internal_node_width(&h).y;
            let exact = exact_internal_node_width(&h, 8).expect("small instance");
            assert_eq!(heur, exact, "heuristic optimal on {name}");
        }
    }

    #[test]
    fn exact_gives_up_on_large_inputs() {
        let h = clique_query(6); // 15 edges → 15 free nodes
        assert!(exact_internal_node_width(&h, 8).is_none());
    }

    #[test]
    fn rootings_cover_every_root_choice() {
        // A star's single join tree has one canonical root plus one
        // variant per other edge; every rooting is a valid base for
        // Construction 2.8 and together they realise every root choice.
        let h = star_query(4);
        let mut s = QueryStructure::of(&h);
        let rootings: Vec<Vec<EdgeId>> = s.rootings().map(<[EdgeId]>::to_vec).collect();
        assert_eq!(rootings.len(), 4, "canonical + 3 reroots");
        let mut roots = rootings.clone();
        roots.sort();
        roots.dedup();
        assert_eq!(roots.len(), 4, "each rooting has a distinct root");
        for r in &rootings {
            let g = s.take_ghd(&h, r);
            g.validate(&h).expect("every rooting materialises validly");
            let mut d = Decomposition::of(&h);
            d.root_at(&h, r);
            let mut built = Ghd::from_decomposition(&h, &d);
            built.hoist_md();
            assert_eq!(
                format!("{g:?}"),
                format!("{built:?}"),
                "the held GHD is the rooting's"
            );
        }
        // Cyclic-core graphs have no forest to re-root.
        assert_eq!(QueryStructure::of(&cycle_query(3)).rootings().count(), 1);
    }

    #[test]
    fn rooting_at_an_edge_roots_its_tree_there() {
        // A tree has one rooting per root: rooted at any of its edges,
        // every edge of the tree climbs along tree links to that edge,
        // and rooting a re-rooted decomposition at `c` equals rooting
        // the canonical one at `c`.
        for h in [path_query(5), example_h2(), example_h3()] {
            let base = Decomposition::of(&h);
            let tree = base.tree_of(base.forest_roots[0]);
            for &r in &tree {
                let mut d = base.clone();
                d.root_at(&h, &[r]);
                assert_eq!(d.forest_roots, [r]);
                for &e in &tree {
                    let (mut cur, mut hops) = (e, 0);
                    while let Some(up) = d.forest_parent[cur.index()] {
                        let link = [
                            base.forest_parent[cur.index()],
                            base.forest_parent[up.index()],
                        ];
                        assert!(link.contains(&Some(up)) || link.contains(&Some(cur)));
                        (cur, hops) = (up, hops + 1);
                        assert!(hops < tree.len(), "{e} climbs in a cycle");
                    }
                    assert_eq!(cur, r, "{e} hangs below {r}");
                }
                for &c in &tree {
                    let (mut twice, mut once) = (d.clone(), base.clone());
                    twice.root_at(&h, &[c]);
                    once.root_at(&h, &[c]);
                    assert_eq!(format!("{twice:?}"), format!("{once:?}"), "{r} then {c}");
                }
            }
        }
    }

    #[test]
    fn cyclic_candidates_flatten_the_triangle() {
        // The flat-core candidate absorbs all three edges into one
        // multiway root bag — the shape the generic-join operator needs.
        let h = cycle_query(3);
        let cands = QueryStructure::of(&h).core_candidates(&h);
        assert!(!cands.is_empty());
        let flat = &cands[0];
        flat.validate(&h).unwrap();
        assert_eq!(flat.len(), 1, "triangle core is one bag");
        assert_eq!(flat.node(flat.root()).lambda.len(), 3);
        // Construction 2.8 by contrast leaves λ(root) empty here.
        let canonical = Ghd::gyo_ghd(&h);
        assert!(canonical.node(canonical.root()).lambda.is_empty());
    }

    #[test]
    fn cyclic_candidates_split_longer_cycles() {
        let h = cycle_query(6);
        let cands = QueryStructure::of(&h).core_candidates(&h);
        assert!(cands.len() > 1, "flat + at least one 2-split");
        for g in &cands {
            g.validate(&h).unwrap();
        }
        // Some candidate is a genuine 2-bag split: two nodes, both with
        // multi-edge λ.
        assert!(
            cands
                .iter()
                .any(|g| g.len() == 2 && g.node_ids().all(|n| g.node(n).lambda.len() >= 2)),
            "a balanced arc split must survive validation"
        );
    }

    #[test]
    fn cyclic_candidates_cover_cliques_and_skip_acyclic() {
        let h = clique_query(4);
        let cands = QueryStructure::of(&h).core_candidates(&h);
        assert!(!cands.is_empty());
        for g in &cands {
            g.validate(&h).unwrap();
        }
        assert_eq!(cands[0].node(cands[0].root()).lambda.len(), 6);
        // Acyclic shapes produce nothing — the rootings already cover them.
        for h in [star_query(3), path_query(4)] {
            assert!(QueryStructure::of(&h).core_candidates(&h).is_empty());
        }
    }

    #[test]
    fn cyclic_candidates_keep_the_forest_attached() {
        // A triangle core with a pendant path: the flat candidate must
        // still host the forest below the merged root.
        let mut h = Hypergraph::new(5);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(1), Var(2)]);
        h.add_edge([Var(0), Var(2)]);
        h.add_edge([Var(2), Var(3)]);
        h.add_edge([Var(3), Var(4)]);
        let cands = QueryStructure::of(&h).core_candidates(&h);
        assert!(!cands.is_empty());
        for g in &cands {
            g.validate(&h).unwrap();
            let covered: usize = g.node_ids().map(|n| g.node(n).lambda.len()).sum();
            assert_eq!(covered, h.num_edges(), "every edge finds a λ home");
        }
    }

    #[test]
    fn hoisting_never_hurts() {
        for k in 2..7 {
            let h = path_query(k);
            let r = internal_node_width(&h);
            assert!(r.y <= r.y_before_hoist);
        }
    }

    #[test]
    fn path_width_grows_linearly() {
        // A path of k edges forces a chain-shaped GHD (each interior
        // vertex glues consecutive edges); rooting at the middle makes
        // both ends leaves, giving y(H) = max(1, k − 2).
        for k in 2..8 {
            let h = path_query(k);
            let y = internal_node_width(&h).y;
            assert_eq!(y, (k - 2).max(1), "path with {k} edges");
        }
    }

    #[test]
    fn h3_width_canonical_matches_appendix_c2() {
        // The canonical construction (tree rooted at e4, as in the
        // Appendix C.2 run) yields the paper's better sample GYO-GHD with
        // two internal nodes after hoisting.
        let h = example_h3();
        let d = crate::gyo::Decomposition::of(&h);
        let mut g = Ghd::from_decomposition(&h, &d);
        g.hoist_md();
        g.validate(&h).unwrap();
        assert_eq!(g.internal_count(), 2);
    }

    #[test]
    fn h3_width_rerooting_reaches_one() {
        // Construction 2.8 roots each removed join tree arbitrarily:
        // re-rooting H3's tree at e6(B,G) pulls G into V(C(H)), after
        // which every other edge hoists flat under the root — y(H3) = 1
        // with the core size unchanged (n2 = 5).
        let h = example_h3();
        let r = internal_node_width(&h);
        assert_eq!(r.y, 1);
        assert_eq!(r.n2(), 5);
        r.ghd.validate(&h).unwrap();
    }
}
