//! Structural-predicate tests against the *public* crate API: GYO
//! acyclicity on the paper's worked examples `H0`–`H3` (Figure 1 /
//! Appendix C.2) and the internal-node-width `y(H)` (Definition 2.9) on
//! the star/path/clique query families.

use faqs_hypergraph::{
    clique_query, cycle_query, exact_internal_node_width, example_h0, example_h1, example_h2,
    example_h3, gyo, internal_node_width, is_acyclic, path_query, star_query, tree_query,
    Decomposition, EdgeId, Hypergraph, Var,
};

#[test]
fn h0_set_intersection_is_acyclic() {
    // Example 2.1: four unary relations over one variable. GYO removes
    // the duplicate edges immediately.
    let h = example_h0();
    assert!(is_acyclic(&h));
    assert!(gyo(&h).is_acyclic());
    let d = Decomposition::of(&h);
    assert!(d.core_edges.is_empty());
    assert_eq!(d.forest_edges.len(), 4);
}

#[test]
fn h1_star_is_acyclic() {
    // Figure 1's star: every leaf edge is an ear of the center.
    let h = example_h1();
    assert!(is_acyclic(&h));
    let d = Decomposition::of(&h);
    assert!(d.core_edges.is_empty());
    assert_eq!(d.n2(), 2);
}

#[test]
fn h2_is_acyclic_with_empty_core() {
    // Figure 1's H2 = R(A,B,C), S(B,D), T(C,F), U(A,B,E): acyclic, so the
    // GYO reduction consumes every edge.
    let h = example_h2();
    assert!(is_acyclic(&h));
    let d = Decomposition::of(&h);
    assert!(d.core_edges.is_empty());
    assert_eq!(d.forest_edges.len(), 4);
    assert!(d.is_acyclic());
}

#[test]
fn h3_has_the_appendix_c2_cyclic_core() {
    // Appendix C.2: GYO gets stuck on the 2-overlapping triangle edges
    // e1(A,B,C), e2(B,C,D), e3(A,C,D) and peels off the pendant forest
    // e4(A,B,E), e5(A,F), e6(B,G), e7(G,H).
    let h = example_h3();
    assert!(!is_acyclic(&h));
    assert!(!gyo(&h).is_acyclic());

    let d = Decomposition::of(&h);
    let mut core = d.core_edges.clone();
    core.sort();
    assert_eq!(core, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);

    let mut forest = d.forest_edges.clone();
    forest.sort();
    assert_eq!(forest, vec![EdgeId(3), EdgeId(4), EdgeId(5), EdgeId(6)]);

    // n2(H3) = |V(C(H3))| = |{A, B, C, D} ∪ {A}| = 5 with the paper's
    // accounting (the forest attachment var A is counted once).
    assert_eq!(d.n2(), 5);
}

#[test]
fn acyclicity_on_query_families() {
    for k in 1..8 {
        assert!(is_acyclic(&star_query(k)), "stars are acyclic (k={k})");
        assert!(is_acyclic(&path_query(k)), "paths are acyclic (k={k})");
    }
    for n in 3..7 {
        assert!(!is_acyclic(&cycle_query(n)), "cycles are cyclic (n={n})");
        assert!(!is_acyclic(&clique_query(n)), "K_{n} is cyclic");
        // The whole clique survives as its own core.
        let d = Decomposition::of(&clique_query(n));
        assert_eq!(d.core_edges.len(), n * (n - 1) / 2);
        assert!(d.forest_edges.is_empty());
    }
    // K_2 is a single edge, hence acyclic.
    assert!(is_acyclic(&clique_query(2)));
}

#[test]
fn star_width_is_one_internal_node() {
    // A star decomposes as one internal node (the center bag) with all
    // leaves below it — the shape Algorithm 1 exploits.
    for k in 2..10 {
        let h = star_query(k);
        let report = internal_node_width(&h);
        assert_eq!(report.y, 1, "y(star_{k})");
        assert!(report.ghd.validate(&h).is_ok());
    }
    // The exhaustive search is exponential; confirm the heuristic on
    // small stars only so the suite stays fast without optimizations.
    for k in 2..5 {
        assert_eq!(exact_internal_node_width(&star_query(k), 8), Some(1));
    }
    // A single-edge "star" is one bag: no internal node at all.
    assert_eq!(internal_node_width(&star_query(1)).y, 0);
}

#[test]
fn path_width_grows_as_k_minus_two() {
    // The GYO-GHD of a k-edge path is a path of k bags; after hoisting,
    // the two end bags are leaves and the k−2 middle bags are internal.
    for k in 3..12 {
        let h = path_query(k);
        let report = internal_node_width(&h);
        assert_eq!(report.y, k - 2, "y(path_{k})");
        assert!(report.ghd.validate(&h).is_ok());
    }
    // Degenerate paths: a single bag (y=0), and a two-bag path whose
    // root stays internal (y=1).
    assert_eq!(internal_node_width(&path_query(1)).y, 0);
    assert_eq!(internal_node_width(&path_query(2)).y, 1);
    // The heuristic is exact on small paths (kept small: the exhaustive
    // search is exponential and this suite also runs unoptimized).
    for k in 2..6 {
        let h = path_query(k);
        assert_eq!(
            exact_internal_node_width(&h, 8),
            Some(internal_node_width(&h).y),
            "heuristic vs exact on path_{k}"
        );
    }
}

#[test]
fn clique_width_is_one_core_node() {
    // Cliques GYO-reduce to nothing: the entire core becomes a single
    // internal bag (the trivial protocol's shape), with n2 = n.
    for n in 3..7 {
        let h = clique_query(n);
        let report = internal_node_width(&h);
        assert_eq!(report.y, 1, "y(K_{n})");
        assert_eq!(report.n2(), n, "n2(K_{n})");
        assert!(report.ghd.validate(&h).is_ok());
    }
}

#[test]
fn width_report_decomposition_is_consistent_with_gyo() {
    for h in [example_h0(), example_h1(), example_h2(), example_h3()] {
        let report = internal_node_width(&h);
        let d = Decomposition::of(&h);
        assert_eq!(report.decomposition.core_edges, d.core_edges);
        assert_eq!(report.n2(), d.n2());
        assert!(report.y >= usize::from(!d.core_edges.is_empty()));
    }
}

/// A triangle core with a branching tail hanging off two of its
/// vertices: a join forest of two trees, each of which the width
/// search's coordinate descent re-roots away from its canonical root.
fn triangle_with_two_tails() -> Hypergraph {
    let mut h = Hypergraph::new(11);
    let tails = [
        (1, 3),
        (3, 4),
        (3, 5),
        (5, 10),
        (2, 6),
        (6, 7),
        (6, 8),
        (8, 9),
    ];
    for (a, b) in [(0, 1), (1, 2), (0, 2)].into_iter().chain(tails) {
        h.add_edge([Var(a), Var(b)]);
    }
    h
}

/// `y`, `y` before hoisting, `n2`, the forest roots and the witness GHD
/// node by node.
fn render_width(h: &Hypergraph) -> String {
    let r = internal_node_width(h);
    let mut out = format!(
        "y {} before {} n2 {} roots {:?} |",
        r.y,
        r.y_before_hoist,
        r.n2(),
        r.decomposition.forest_roots
    );
    for n in r.ghd.node_ids() {
        let node = r.ghd.node(n);
        let chi: Vec<u32> = node.chi.iter().map(|v| v.0).collect();
        let lambda: Vec<u32> = node.lambda.iter().map(|e| e.0).collect();
        let parent = node.parent.map(|p| p.index() as i64).unwrap_or(-1);
        out.push_str(&format!(" n{} {chi:?} {lambda:?} ^{parent};", n.index()));
    }
    out
}

#[test]
fn width_witnesses_are_pinned() {
    let corpus = [
        ("star4", star_query(4)),
        ("path4", path_query(4)),
        ("tree(2,2)", tree_query(2, 2)),
        ("tree(2,3)", tree_query(2, 3)),
        ("example_h1", example_h1()),
        ("example_h2", example_h2()),
        ("example_h3", example_h3()),
        ("cycle4", cycle_query(4)),
        ("clique4", clique_query(4)),
        ("triangle+tails", triangle_with_two_tails()),
    ];
    let got: Vec<String> = corpus
        .iter()
        .map(|(name, h)| format!("{name}: {}", render_width(h)))
        .collect();
    let want = [
        "star4: y 1 before 1 n2 2 roots [EdgeId(0)] | n0 [0, 1] [0] ^-1; n1 [0, 2] [1] ^0; n2 [0, 3] [2] ^0; n3 [0, 4] [3] ^0;",
        "path4: y 2 before 2 n2 2 roots [EdgeId(2)] | n0 [2, 3] [2] ^-1; n1 [1, 2] [1] ^0; n2 [3, 4] [3] ^0; n3 [0, 1] [0] ^1;",
        "tree(2,2): y 2 before 2 n2 2 roots [EdgeId(1)] | n0 [0, 2] [1] ^-1; n1 [0, 1] [0] ^0; n2 [2, 5] [4] ^0; n3 [2, 6] [5] ^0; n4 [1, 3] [2] ^1; n5 [1, 4] [3] ^1;",
        "tree(2,3): y 6 before 6 n2 2 roots [EdgeId(5)] | n0 [2, 6] [5] ^-1; n1 [2, 5] [4] ^0; n2 [6, 13] [12] ^0; n3 [6, 14] [13] ^0; n4 [0, 2] [1] ^0; n5 [5, 11] [10] ^1; n6 [5, 12] [11] ^1; n7 [0, 1] [0] ^4; n8 [1, 3] [2] ^7; n9 [1, 4] [3] ^7; n10 [3, 7] [6] ^8; n11 [3, 8] [7] ^8; n12 [4, 9] [8] ^9; n13 [4, 10] [9] ^9;",
        "example_h1: y 1 before 1 n2 2 roots [EdgeId(0)] | n0 [0, 1] [0] ^-1; n1 [0, 2] [1] ^0; n2 [0, 3] [2] ^0; n3 [0, 4] [3] ^0;",
        "example_h2: y 1 before 1 n2 3 roots [EdgeId(0)] | n0 [0, 1, 2] [0] ^-1; n1 [1, 3] [1] ^0; n2 [2, 5] [2] ^0; n3 [0, 1, 4] [3] ^0;",
        "example_h3: y 1 before 3 n2 5 roots [EdgeId(5)] | n0 [0, 1, 2, 3, 6] [] ^-1; n1 [0, 1, 2] [0] ^0; n2 [1, 2, 3] [1] ^0; n3 [0, 2, 3] [2] ^0; n4 [1, 6] [5] ^0; n5 [6, 7] [6] ^0; n6 [0, 1, 4] [3] ^0; n7 [0, 5] [4] ^0;",
        "cycle4: y 1 before 1 n2 4 roots [] | n0 [0, 1, 2, 3] [] ^-1; n1 [0, 1] [0] ^0; n2 [1, 2] [1] ^0; n3 [2, 3] [2] ^0; n4 [0, 3] [3] ^0;",
        "clique4: y 1 before 1 n2 4 roots [] | n0 [0, 1, 2, 3] [] ^-1; n1 [0, 1] [0] ^0; n2 [0, 2] [1] ^0; n3 [0, 3] [2] ^0; n4 [1, 2] [3] ^0; n5 [1, 3] [4] ^0; n6 [2, 3] [5] ^0;",
        "triangle+tails: y 1 before 5 n2 7 roots [EdgeId(5), EdgeId(9)] | n0 [0, 1, 2, 3, 5, 6, 8] [] ^-1; n1 [0, 1] [0] ^0; n2 [1, 2] [1] ^0; n3 [0, 2] [2] ^0; n4 [1, 3] [3] ^0; n5 [3, 5] [5] ^0; n6 [2, 6] [7] ^0; n7 [6, 8] [9] ^0; n8 [3, 4] [4] ^0; n9 [5, 10] [6] ^0; n10 [6, 7] [8] ^0; n11 [8, 9] [10] ^0;",
    ];
    assert_eq!(got, want);
}
