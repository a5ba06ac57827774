//! Query hypergraphs and their decompositions for the FAQ round-complexity
//! bounds of Langberg, Li, Mani Jayaraman and Rudra (PODS 2019).
//!
//! This crate implements the paper's structural machinery:
//!
//! * multi-hypergraphs `H = (V, E)` with degree, arity and **degeneracy**
//!   (Definition 3.3),
//! * the **GYO elimination** algorithm (Definition 2.6) and the resulting
//!   core/forest decomposition `C(H)` / `W(H)` with `n2(H) = |V(C(H))|`
//!   (Definitions 2.7 and 3.1),
//! * **generalized hypertree decompositions** `⟨T, χ, λ⟩` with running
//!   intersection property validation (Definition 2.4), acyclicity
//!   (Definition 2.5),
//! * the **GYO-GHD** of Construction 2.8 and the **MD-GHD** leaf-hoisting
//!   transformation of Construction F.6,
//! * the paper's new width notion, the **internal-node-width** `y(H)`
//!   (Definition 2.9), with both the constructive heuristic (sufficient
//!   for the paper's O(1)-approximation needs, Appendix F) and an exact
//!   search for small inputs,
//! * the combinatorial tools used by the lower bounds: greedy independent
//!   sets (Turán, Theorem E.1), short vertex-disjoint cycles (Moore's
//!   bound, Lemma E.1) and strong independent sets of hypergraphs
//!   (Definition F.4, Theorem F.5),
//! * builders for the paper's worked examples (`H0`, `H1`, `H2` of
//!   Figure 1, `H3` of Appendix C.2) and parameterised query families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builders;
mod combinatorics;
mod cover;
mod ghd;
mod graph;
mod gyo;
mod hypergraph;
mod width;

pub use builders::{
    clique_query, cycle_query, example_h0, example_h1, example_h2, example_h3, grid_query,
    path_query, random_degenerate_query, random_uniform_hypergraph, star_query, tree_query,
};
pub use combinatorics::{
    greedy_independent_set, is_strong_independent, short_vertex_disjoint_cycles,
    strong_independent_set,
};
pub use cover::{
    fractional_edge_cover, per_bag_fractional_covers, weighted_cover, CoverSolution,
    FractionalCover,
};
pub use ghd::{Ghd, GhdNode, GhdValidationError, NodeId};
pub use graph::SimpleGraph;
pub use gyo::{gyo, is_acyclic, Decomposition, GyoStep, GyoTrace};
pub use hypergraph::{EdgeId, Hypergraph, Var};
pub use width::{
    exact_internal_node_width, internal_node_width, QueryStructure, WidthReport, WidthTerms,
};
