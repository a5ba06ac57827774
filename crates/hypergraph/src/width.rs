//! The internal-node-width `y(H)` (Definition 2.9): the minimum number of
//! internal nodes over GYO-GHDs of `H`.
//!
//! The paper only needs an O(1)-factor approximation for its tight bounds
//! (Appendix F); [`internal_node_width`] delivers the constructive
//! heuristic (Construction 2.8 followed by MD-hoisting, Construction F.6).
//! [`exact_internal_node_width`] performs an exhaustive search over parent
//! assignments of the same node set for small instances, used by tests to
//! certify the heuristic on the paper's examples.

use crate::ghd::{Ghd, GhdNode, NodeId};
use crate::gyo::Decomposition;
use crate::hypergraph::{intersect, is_subset, EdgeId, Hypergraph, Var};
use std::collections::BTreeSet;

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
        let d = &self.decomposition;
        WidthTerms {
            y: self.y,
            n2: d.n2(),
            acyclic_single_tree: d.core_edges.is_empty() && d.forest_roots.len() == 1,
        }
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

/// One structural analysis of a hypergraph, from one GYO run: the width
/// witness and the re-rooted decompositions a cost-based planner scores
/// ([`QueryStructure::core_candidates`] adds the cyclic-core merges).
#[derive(Clone, Debug)]
pub struct QueryStructure {
    /// The width witness [`internal_node_width`] returns.
    pub width: WidthReport,
    /// Every core/forest decomposition Construction 2.8 reaches by
    /// re-rooting one removed join tree of the canonical GYO run, each
    /// with its MD-hoisted GHD: the canonical decomposition first, then
    /// one variant per alternative root of each tree, in tree order.
    /// The width search walks the same set; where its steps coincide
    /// with these it reads them instead of building them again.
    pub reroots: Vec<(Decomposition, Ghd)>,
}

impl QueryStructure {
    /// Runs GYO once on `h` and derives the width witness and every
    /// single-tree re-rooting from that run.
    pub fn of(h: &Hypergraph) -> Self {
        let base = Decomposition::of(h);
        let mut ghd0 = Ghd::from_decomposition(h, &base);
        let y_before_hoist = ghd0.internal_count();
        ghd0.hoist_md();
        let mut reroots = vec![(base.clone(), ghd0)];
        // Per join tree: its edges, root first, and the index in
        // `reroots` of the decomposition rooted at each.
        let mut trees = Vec::with_capacity(base.forest_roots.len());
        for &root in &base.forest_roots {
            let tree = base.tree_of(root);
            let mut at = Vec::with_capacity(tree.len());
            for &cand in &tree {
                if cand == root {
                    at.push(0);
                    continue;
                }
                let mut d = base.clone();
                d.reroot(h, cand);
                at.push(reroots.len());
                reroots.push(hoisted(h, d));
            }
            trees.push((tree, at));
        }
        let width = descend(h, &reroots, &trees, y_before_hoist);
        QueryStructure { width, reroots }
    }

    /// The canonical decomposition: the GYO run's own rooting.
    pub fn canonical(&self) -> &Decomposition {
        &self.reroots[0].0
    }

    /// GHD candidates for *cyclic* cores, beyond Construction 2.8's
    /// reroots: bag-merge decompositions of the canonical GYO core toward
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
    /// leaving [`QueryStructure::reroots`] the complete story there.
    pub fn core_candidates(&self, h: &Hypergraph) -> Vec<Ghd> {
        let d = self.canonical();
        if d.core_edges.is_empty() {
            return Vec::new();
        }
        let core_vars: Vec<Var> = d.core_vars.iter().copied().collect();
        let mut out = Vec::new();

        if let Some(g) = assemble_merged(h, d, &[(core_vars, None)]) {
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

/// `d` with its MD-hoisted Construction 2.8 GHD.
fn hoisted(h: &Hypergraph, d: Decomposition) -> (Decomposition, Ghd) {
    let mut ghd = Ghd::from_decomposition(h, &d);
    ghd.hoist_md();
    (d, ghd)
}

/// The width search: a coordinate descent that re-roots the best
/// decomposition so far at each edge of each removed join tree in turn,
/// and keeps a step that lowers `y`, or keeps `y` and lowers `n2`.
///
/// While every earlier tree still has its canonical root, re-rooting the
/// best so far at an edge of the current tree equals re-rooting the
/// canonical decomposition there ([`Decomposition::reroot`] is
/// path-independent), which `reroots` already holds, hoisted. Once an
/// earlier tree has moved, a step builds its own.
fn descend(
    h: &Hypergraph,
    reroots: &[(Decomposition, Ghd)],
    trees: &[(Vec<EdgeId>, Vec<usize>)],
    y_before_hoist: usize,
) -> WidthReport {
    let (base, ghd0) = &reroots[0];
    let mut best = (base.clone(), ghd0.clone());
    let mut best_y = ghd0.internal_count();
    for (t, (tree, at)) in trees.iter().enumerate() {
        let shared = best.0.forest_roots[..t] == base.forest_roots[..t];
        for (&cand, &i) in tree.iter().zip(at) {
            let own;
            let (d, g) = if shared {
                (&reroots[i].0, &reroots[i].1)
            } else {
                let mut d = best.0.clone();
                d.reroot(h, cand);
                own = hoisted(h, d);
                (&own.0, &own.1)
            };
            let y = g.internal_count();
            if y < best_y || (y == best_y && d.n2() < best.0.n2()) {
                best_y = y;
                best = (d.clone(), g.clone());
            }
        }
    }
    let (decomposition, ghd) = best;
    WidthReport {
        y: best_y,
        y_before_hoist,
        ghd,
        decomposition,
    }
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
    QueryStructure::of(h).width
}

/// The sorted union of the given edges' vertex sets.
fn edge_union_vars(h: &Hypergraph, edges: &[EdgeId]) -> Vec<Var> {
    let set: BTreeSet<Var> = edges
        .iter()
        .flat_map(|&e| h.edge(e).iter().copied())
        .collect();
    set.into_iter().collect()
}

/// Greedily walks the core edges into a chain where consecutive edges
/// share a variable (a cycle core traces its cycle). `None` when the
/// core's intersection graph is disconnected.
fn core_walk(h: &Hypergraph, core: &[EdgeId]) -> Option<Vec<EdgeId>> {
    let mut order = vec![core[0]];
    let mut used = vec![false; core.len()];
    used[0] = true;
    while order.len() < core.len() {
        let last = *order.last().expect("order non-empty");
        let next = core
            .iter()
            .enumerate()
            .find(|(i, e)| !used[*i] && !intersect(h.edge(last), h.edge(**e)).is_empty())?;
        used[next.0] = true;
        order.push(*next.1);
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
            let max_id = options.iter().map(|n| n.index()).max().unwrap() + 1;
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
    fn reroots_cover_every_root_choice() {
        // A star's single join tree has one canonical root plus one
        // variant per other edge; every candidate is a valid base for
        // Construction 2.8 and together they realise every root choice.
        let h = star_query(4);
        let cands = QueryStructure::of(&h).reroots;
        assert_eq!(cands.len(), 4, "canonical + 3 reroots");
        let mut roots: Vec<_> = cands.iter().map(|(d, _)| d.forest_roots.clone()).collect();
        roots.sort();
        roots.dedup();
        assert_eq!(roots.len(), 4, "each candidate has a distinct root");
        for (d, g) in &cands {
            g.validate(&h)
                .expect("every candidate materialises validly");
            let (_, built) = hoisted(&h, d.clone());
            assert_eq!(
                format!("{g:?}"),
                format!("{built:?}"),
                "the held GHD is d's"
            );
        }
        // Cyclic-core graphs have no forest to re-root.
        assert_eq!(QueryStructure::of(&cycle_query(3)).reroots.len(), 1);
    }

    #[test]
    fn reroot_is_path_independent() {
        // Re-rooting a re-rooted decomposition at `c` equals re-rooting
        // the canonical one at `c`: the width search reads the latter
        // where it would build the former.
        for h in [path_query(5), example_h2(), example_h3()] {
            let base = Decomposition::of(&h);
            let tree = base.tree_of(base.forest_roots[0]);
            for &a in &tree {
                for &c in &tree {
                    let mut twice = base.clone();
                    twice.reroot(&h, a);
                    twice.reroot(&h, c);
                    let mut once = base.clone();
                    once.reroot(&h, c);
                    assert_eq!(format!("{twice:?}"), format!("{once:?}"), "{a} then {c}");
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
        // Acyclic shapes produce nothing — reroots already cover them.
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
