//! Builders for the paper's worked examples and parameterised query
//! families used throughout the tests, benches and experiments.

use crate::hypergraph::{Hypergraph, Var};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

/// The toy query `H0` of Example 2.1: a single variable `A` with four
/// self-loop relations `R(A), S(A), T(A), U(A)` —
/// `q0() :- R(A), S(A), T(A), U(A)` is set intersection.
pub fn example_h0() -> Hypergraph {
    let mut h = Hypergraph::with_names(["A"]);
    for _ in 0..4 {
        h.add_edge([Var(0)]);
    }
    h
}

/// The star query `H1` of Figure 1: center `A`, relations
/// `R(A,B), S(A,C), T(A,D), U(A,E)`.
pub fn example_h1() -> Hypergraph {
    let mut h = Hypergraph::with_names(["A", "B", "C", "D", "E"]);
    for leaf in 1..=4u32 {
        h.add_edge([Var(0), Var(leaf)]);
    }
    h
}

/// The acyclic hypergraph `H2` of Figure 1:
/// `R(A,B,C), S(B,D), T(C,F), U(A,B,E)` (the paper's GHDs `T1`/`T2` of
/// Figure 2 decompose it with one resp. two internal nodes).
pub fn example_h2() -> Hypergraph {
    let mut h = Hypergraph::with_names(["A", "B", "C", "D", "E", "F"]);
    h.add_edge([Var(0), Var(1), Var(2)]); // R(A,B,C)
    h.add_edge([Var(1), Var(3)]); // S(B,D)
    h.add_edge([Var(2), Var(5)]); // T(C,F)
    h.add_edge([Var(0), Var(1), Var(4)]); // U(A,B,E)
    h
}

/// The Appendix C.2 example `H3`: vertices `A..H` with hyperedges
/// `e1(A,B,C), e2(B,C,D), e3(A,C,D), e4(A,B,E), e5(A,F), e6(B,G),
/// e7(G,H)`. GYO leaves the cyclic core `{e1,e2,e3}` and removes the
/// forest `{e4..e7}` rooted at `e4`.
pub fn example_h3() -> Hypergraph {
    let mut h = Hypergraph::with_names(["A", "B", "C", "D", "E", "F", "G", "H"]);
    h.add_edge([Var(0), Var(1), Var(2)]); // e1(A,B,C)
    h.add_edge([Var(1), Var(2), Var(3)]); // e2(B,C,D)
    h.add_edge([Var(0), Var(2), Var(3)]); // e3(A,C,D)
    h.add_edge([Var(0), Var(1), Var(4)]); // e4(A,B,E)
    h.add_edge([Var(0), Var(5)]); // e5(A,F)
    h.add_edge([Var(1), Var(6)]); // e6(B,G)
    h.add_edge([Var(6), Var(7)]); // e7(G,H)
    h
}

/// A star with `k` leaf relations: variables `0` (center) and `1..=k`;
/// edges `(0,i)`. `star_query(4)` is isomorphic to `H1`.
pub fn star_query(k: usize) -> Hypergraph {
    assert!(k >= 1);
    let mut h = Hypergraph::new(k + 1);
    for i in 1..=k as u32 {
        h.add_edge([Var(0), Var(i)]);
    }
    h
}

/// A path with `k` edges over `k+1` variables: `(0,1), (1,2), …`.
pub fn path_query(k: usize) -> Hypergraph {
    assert!(k >= 1);
    let mut h = Hypergraph::new(k + 1);
    for i in 0..k as u32 {
        h.add_edge([Var(i), Var(i + 1)]);
    }
    h
}

/// A cycle with `len ≥ 3` edges.
pub fn cycle_query(len: usize) -> Hypergraph {
    assert!(len >= 3);
    let mut h = Hypergraph::new(len);
    for i in 0..len as u32 {
        h.add_edge([Var(i), Var((i + 1) % len as u32)]);
    }
    h
}

/// The complete graph `K_n` as a query (degeneracy `n−1`) — the paper's
/// outstanding open case (Appendix B).
pub fn clique_query(n: usize) -> Hypergraph {
    assert!(n >= 2);
    let mut h = Hypergraph::new(n);
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            h.add_edge([Var(i), Var(j)]);
        }
    }
    h
}

/// A complete `b`-ary tree of the given depth (edges parent→child);
/// depth 1 is a star with `b` leaves.
pub fn tree_query(branching: usize, depth: usize) -> Hypergraph {
    assert!(branching >= 1 && depth >= 1);
    // Count vertices: 1 + b + b² + … + b^depth.
    let total: usize = (0..=depth as u32).map(|d| branching.pow(d)).sum();
    let mut h = Hypergraph::new(total);
    let mut next = 1u32;
    let mut frontier = vec![0u32];
    for _ in 0..depth {
        let mut new_frontier = Vec::new();
        for &p in &frontier {
            for _ in 0..branching {
                h.add_edge([Var(p), Var(next)]);
                new_frontier.push(next);
                next += 1;
            }
        }
        frontier = new_frontier;
    }
    h
}

/// An `rows × cols` grid graph (degeneracy 2): a classic constant-
/// treewidth-free but constant-degeneracy query family.
pub fn grid_query(rows: usize, cols: usize) -> Hypergraph {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2);
    let id = |r: usize, c: usize| Var((r * cols + c) as u32);
    let mut h = Hypergraph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                h.add_edge([id(r, c), id(r, c + 1)]);
            }
            if r + 1 < rows {
                h.add_edge([id(r, c), id(r + 1, c)]);
            }
        }
    }
    h
}

/// A random `d`-degenerate graph on `n` vertices: vertex `i` connects to
/// `min(i, d)` uniformly chosen earlier vertices, which bounds the
/// degeneracy by `d` by construction (Definition 3.3's peeling order is
/// the reverse insertion order). Deterministic in `seed`.
pub fn random_degenerate_query(n: usize, d: usize, seed: u64) -> Hypergraph {
    assert!(n >= 2 && d >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Hypergraph::new(n);
    for i in 1..n {
        let picks = sample(&mut rng, i, i.min(d));
        for p in picks {
            h.add_edge([Var(p as u32), Var(i as u32)]);
        }
    }
    h
}

/// A random `r`-uniform `d`-degenerate-ish hypergraph: each new vertex
/// joins `min(·, d)` hyperedges formed with `r−1` random earlier
/// vertices. Used by the Appendix F experiments.
pub fn random_uniform_hypergraph(n: usize, r: usize, d: usize, seed: u64) -> Hypergraph {
    assert!(n >= r && r >= 2 && d >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Hypergraph::new(n);
    for i in (r - 1)..n {
        let count = rng.random_range(1..=d);
        for _ in 0..count {
            let mut vars: Vec<Var> = sample(&mut rng, i, r - 1)
                .into_iter()
                .map(|p| Var(p as u32))
                .collect();
            vars.push(Var(i as u32));
            h.add_edge(vars);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h0_shape() {
        let h = example_h0();
        assert_eq!(h.num_vars(), 1);
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.arity(), 1);
    }

    #[test]
    fn h1_is_a_star() {
        let h = example_h1();
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.degree(Var(0)), 4);
        assert_eq!(h.degeneracy(), 1);
        assert_eq!(h.to_datalog(), "q() :- e0(A,B), e1(A,C), e2(A,D), e3(A,E)");
    }

    #[test]
    fn h2_shape() {
        let h = example_h2();
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.arity(), 3);
    }

    #[test]
    fn h3_shape() {
        let h = example_h3();
        assert_eq!(h.num_vars(), 8);
        assert_eq!(h.num_edges(), 7);
    }

    #[test]
    fn builders_shapes() {
        assert_eq!(star_query(7).num_edges(), 7);
        assert_eq!(path_query(5).num_edges(), 5);
        assert_eq!(cycle_query(4).num_edges(), 4);
        assert_eq!(clique_query(5).num_edges(), 10);
        assert_eq!(grid_query(3, 4).num_edges(), 3 * 3 + 2 * 4);
        // depth-2 binary tree: 2 + 4 edges.
        assert_eq!(tree_query(2, 2).num_edges(), 6);
    }

    #[test]
    fn random_degenerate_respects_bound() {
        for d in 1..=4 {
            let h = random_degenerate_query(30, d, 42 + d as u64);
            assert!(
                h.degeneracy() <= d,
                "construction promises degeneracy ≤ {d}, got {}",
                h.degeneracy()
            );
        }
    }

    #[test]
    fn random_degenerate_is_deterministic() {
        let a = random_degenerate_query(20, 3, 7);
        let b = random_degenerate_query(20, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn random_uniform_hypergraph_arity() {
        let h = random_uniform_hypergraph(20, 3, 2, 1);
        assert_eq!(h.arity(), 3);
        assert!(h.num_edges() >= 17);
    }

    #[test]
    fn grid_has_degeneracy_two() {
        assert_eq!(grid_query(4, 4).degeneracy(), 2);
    }
}
