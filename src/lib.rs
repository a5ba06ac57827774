//! # faqs — Topology Dependent Bounds For FAQs
//!
//! A production-quality Rust reproduction of *"Topology Dependent Bounds
//! For FAQs"* (Langberg, Li, Mani Jayaraman, Rudra — PODS 2019,
//! arXiv:2003.05575): a distributed FAQ/BCQ engine over arbitrary network
//! topologies, the paper's protocols and width machinery, its TRIBES-based
//! lower-bound reductions, and the matrix-chain min-entropy experiments.
//!
//! This crate is the facade: it re-exports the public API of every
//! workspace member. See the individual crates for details:
//!
//! * [`semiring`] — commutative semirings (`Boolean`, `Prob`, `Gf2`, …).
//! * [`hypergraph`] — query hypergraphs, GYO elimination, GHDs, the
//!   internal-node-width `y(H)`, core/forest decomposition.
//! * [`relation`] — listing-representation relations, joins, semijoins,
//!   aggregation, FAQ query definitions.
//! * [`network`] — communication topologies, min-cuts, Steiner-tree
//!   packings, multicommodity-flow routing, the synchronous round
//!   simulator of Model 2.1, and the pluggable `Transport` layer
//!   (in memory / loopback TCP) every distributed run ships its frames
//!   through.
//! * [`plan`] — the statistics-driven cost-based planner: per-factor
//!   stats, GHD candidate enumeration, join orders, placement-aware
//!   communication costs; the one `QueryPlan` it emits is what every
//!   consumer below runs.
//! * [`engine`] — the centralized FAQ engine (ground truth).
//! * [`exec`] — the plan-cached executor: the front door for repeated
//!   query traffic (`Executor::solve` reproduces `engine::solve_faq`
//!   exactly), plus
//!   `IncrementalFaq` sessions that absorb relation deltas and keep
//!   the answer maintained without re-solving.
//! * [`serve`] — the concurrent serving front-end over [`exec`]:
//!   snapshot-consistent reads over mutable relations (epoch/arc-swap
//!   registry) and cross-query batching of same-shape requests into
//!   single upward passes.
//! * [`protocols`] — the paper's distributed protocols (trivial, star,
//!   forest, d-degenerate, general-FAQ, hash-split).
//! * [`mcm`] — matrix-chain multiplication over `F₂` on a line, plus the
//!   min-entropy machinery of Section 6.
//! * [`lowerbounds`] — TRIBES instances and the reductions to BCQ.
//!
//! ## Quickstart
//!
//! ```
//! use faqs::prelude::*;
//!
//! // The star query H1 of Figure 1: R(A,B), S(A,C), T(A,D), U(A,E).
//! let h = star_query(4);
//! // The line topology G1 of Figure 1 with 4 players.
//! let g = Topology::line(4);
//!
//! // Build a BCQ instance with a common value witnessed by every relation.
//! let n = 16;
//! let mut builder = BcqBuilder::new(&h, n);
//! for e in 0..4 {
//!     builder.relation_from_pairs(e, (0..n as u32).map(|i| (i, 1)));
//! }
//! let query = builder.finish();
//!
//! // Centralized answer.
//! assert!(solve_bcq(&query));
//!
//! // Distributed answer: one relation per player, P1..P4 in order.
//! let assignment = Assignment::round_robin(&query, &g, &[0, 1, 2, 3]);
//! let outcome = run_bcq_protocol(&query, &g, &assignment, 1).unwrap();
//! assert!(outcome.answer);
//! // The paper's Example 2.2: N + O(k) rounds on the line, held live to
//! // the run's own bound.
//! assert!(outcome.report.stats.rounds <= (n as u64) + 16);
//! assert!(outcome.report.conforms());
//! ```

pub use faqs_core as engine;
pub use faqs_exec as exec;
pub use faqs_hypergraph as hypergraph;
pub use faqs_lowerbounds as lowerbounds;
pub use faqs_mcm as mcm;
pub use faqs_network as network;
pub use faqs_plan as plan;
pub use faqs_protocols as protocols;
pub use faqs_relation as relation;
pub use faqs_semiring as semiring;
pub use faqs_serve as serve;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use faqs_core::{solve_bcq, solve_faq, solve_faq_brute_force};
    pub use faqs_exec::{Executor, ExecutorConfig, IncrementalFaq};
    pub use faqs_hypergraph::{clique_query, cycle_query, path_query, star_query, Hypergraph, Var};
    pub use faqs_lowerbounds::{bcq_lower_bound, Tribes};
    pub use faqs_network::{Assignment, Topology, Transport, TransportKind, WireStats};
    pub use faqs_plan::{
        plan_query_with, CalibrationRegistry, CalibrationStats, PlanCost, QueryPlan, QueryStats,
    };
    pub use faqs_protocols::{
        run_bcq_protocol, run_faq_protocol, DistributedFaqRun, InputPlacement, RunReport,
    };
    pub use faqs_relation::{
        frame_bits, frame_bytes, BcqBuilder, CodecError, FaqQuery, Relation, RelationDelta,
        Snapshot, SnapshotCell,
    };
    pub use faqs_semiring::{Aggregate, Boolean, Count, Gf2, Prob, Semiring};
    pub use faqs_serve::{FaqServer, ServeConfig, ServeError, ShapeId};
}
