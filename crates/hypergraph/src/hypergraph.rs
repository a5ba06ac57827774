//! The multi-hypergraph type `H = (V, E)`.

use std::collections::BTreeSet;
use std::fmt;

/// A variable (vertex) of a query hypergraph, identified by a dense index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A hyperedge identifier: the dense index of the edge in its hypergraph.
///
/// `H` is a *multi*-hypergraph (Section 1), so two distinct `EdgeId`s may
/// carry identical vertex sets; identity is positional.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A multi-hypergraph `H = (V, E)`: the structural skeleton of an FAQ.
///
/// Vertices are variables of the query; every hyperedge carries one input
/// function `f_e` in the FAQ instance. Vertex sets inside edges are kept
/// sorted and deduplicated, which makes subset tests and intersections
/// linear merges.
#[derive(Clone, PartialEq, Eq)]
pub struct Hypergraph {
    num_vars: usize,
    names: Vec<String>,
    edges: Vec<Vec<Var>>,
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypergraph(|V|={}, E=[", self.num_vars)?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, v) in e.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.names[v.index()])?;
            }
            write!(f, "}}")?;
        }
        write!(f, "])")
    }
}

impl Hypergraph {
    /// Creates a hypergraph with `num_vars` variables named `x0..` and no
    /// edges.
    pub fn new(num_vars: usize) -> Self {
        Hypergraph {
            num_vars,
            names: (0..num_vars).map(|i| format!("x{i}")).collect(),
            edges: Vec::new(),
        }
    }

    /// Creates a hypergraph whose variables carry the given names.
    pub fn with_names<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        Hypergraph {
            num_vars: names.len(),
            names,
            edges: Vec::new(),
        }
    }

    /// Adds a hyperedge over the given variables and returns its id.
    ///
    /// Duplicate vertex mentions are collapsed; an edge must mention at
    /// least one variable (self-loops `{v}` are allowed — the toy query
    /// `H0` of Example 2.1 is made of them).
    pub fn add_edge<I: IntoIterator<Item = Var>>(&mut self, vars: I) -> EdgeId {
        let set: BTreeSet<Var> = vars.into_iter().collect();
        assert!(!set.is_empty(), "hyperedge must be non-empty");
        for v in &set {
            assert!(v.index() < self.num_vars, "variable {v} out of range");
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(set.into_iter().collect());
        id
    }

    /// Number of variables `|V|`.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of hyperedges `k = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The sorted vertex set of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &[Var] {
        &self.edges[e.index()]
    }

    /// Iterates over `(EdgeId, vertex set)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &[Var])> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e.as_slice()))
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(|i| EdgeId(i as u32))
    }

    /// All variables.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.num_vars).map(|i| Var(i as u32))
    }

    /// The maximum arity `r = max_e |e|` (0 for an edgeless hypergraph).
    pub fn arity(&self) -> usize {
        self.edges.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The degree of `v`: the number of hyperedges containing it
    /// (Definition 3.2; multi-edges each count).
    pub fn degree(&self, v: Var) -> usize {
        self.edges.iter().filter(|e| contains(e, v)).count()
    }

    /// The degeneracy `d` of `H` (Definition 3.3): the smallest `d` such
    /// that every sub-hypergraph has a vertex of degree at most `d`.
    ///
    /// Computed by the standard peeling argument: repeatedly delete a
    /// minimum-degree vertex (removing it from its edges; edges that become
    /// empty disappear); the degeneracy is the maximum degree observed at
    /// deletion time. Runs in `O(|V|² · k)` which is ample for query-sized
    /// hypergraphs.
    pub fn degeneracy(&self) -> usize {
        let mut live_edges: Vec<BTreeSet<Var>> = self
            .edges
            .iter()
            .map(|e| e.iter().copied().collect())
            .collect();
        let mut alive: BTreeSet<Var> = self.vars().collect();
        // Restrict to vertices that actually occur in some edge.
        alive.retain(|v| self.degree(*v) > 0);
        let mut best = 0usize;
        while let Some((&v, deg)) = alive
            .iter()
            .map(|v| (v, live_edges.iter().filter(|e| e.contains(v)).count()))
            .min_by_key(|&(_, d)| d)
        {
            best = best.max(deg);
            alive.remove(&v);
            // Deleting a vertex deletes every hyperedge containing it:
            // the sub-hypergraph induced on the remaining vertex set.
            live_edges.retain(|e| !e.contains(&v));
        }
        best
    }

    /// Renders the query in Datalog-ish form, e.g.
    /// `q() :- e0(A,B), e1(A,C)`.
    pub fn to_datalog(&self) -> String {
        let mut s = String::from("q() :- ");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("e{i}("));
            for (j, v) in e.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&self.names[v.index()]);
            }
            s.push(')');
        }
        s
    }
}

/// Binary search membership test on a sorted vertex slice.
#[inline]
pub(crate) fn contains(edge: &[Var], v: Var) -> bool {
    edge.binary_search(&v).is_ok()
}

/// Sorted-slice intersection.
pub(crate) fn intersect(a: &[Var], b: &[Var]) -> Vec<Var> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Sorted-slice subset test: is `a ⊆ b`?
pub(crate) fn is_subset(a: &[Var], b: &[Var]) -> bool {
    let mut j = 0;
    for &v in a {
        while j < b.len() && b[j] < v {
            j += 1;
        }
        if j >= b.len() || b[j] != v {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h_triangle() -> Hypergraph {
        let mut h = Hypergraph::new(3);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(1), Var(2)]);
        h.add_edge([Var(0), Var(2)]);
        h
    }

    #[test]
    fn edge_storage_is_sorted_and_dedup() {
        let mut h = Hypergraph::new(4);
        let e = h.add_edge([Var(3), Var(1), Var(3), Var(0)]);
        assert_eq!(h.edge(e), &[Var(0), Var(1), Var(3)]);
        assert_eq!(h.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_unknown_var() {
        let mut h = Hypergraph::new(2);
        h.add_edge([Var(5)]);
    }

    #[test]
    fn degree_counts_multi_edges() {
        let mut h = Hypergraph::new(2);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(0)]);
        assert_eq!(h.degree(Var(0)), 3);
        assert_eq!(h.degree(Var(1)), 2);
    }

    #[test]
    fn triangle_degeneracy_is_two() {
        assert_eq!(h_triangle().degeneracy(), 2);
    }

    #[test]
    fn tree_degeneracy_is_one() {
        let mut h = Hypergraph::new(4);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(0), Var(2)]);
        h.add_edge([Var(2), Var(3)]);
        assert_eq!(h.degeneracy(), 1);
    }

    #[test]
    fn clique_degeneracy() {
        // K5 has degeneracy 4.
        let mut h = Hypergraph::new(5);
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                h.add_edge([Var(i), Var(j)]);
            }
        }
        assert_eq!(h.degeneracy(), 4);
    }

    #[test]
    fn subset_and_intersection_helpers() {
        let a = vec![Var(0), Var(2), Var(5)];
        let b = vec![Var(0), Var(1), Var(2), Var(5)];
        assert!(is_subset(&a, &b));
        assert!(!is_subset(&b, &a));
        assert_eq!(intersect(&a, &b), a);
        assert_eq!(intersect(&a, &[Var(1), Var(2)]), vec![Var(2)]);
    }

    #[test]
    fn datalog_rendering() {
        let mut h = Hypergraph::with_names(["A", "B", "C"]);
        h.add_edge([Var(0), Var(1)]);
        h.add_edge([Var(1), Var(2)]);
        assert_eq!(h.to_datalog(), "q() :- e0(A,B), e1(B,C)");
    }
}
