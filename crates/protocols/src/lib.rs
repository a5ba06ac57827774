//! The paper's distributed protocols, executed on the Model 2.1
//! scheduler of `faqs-network` with real data.
//!
//! * [`run_set_intersection`] — Theorem 3.11: bitwise AND of `{0,1}^N`
//!   vectors held by `K`, pipelined over a bounded-diameter Steiner-tree
//!   packing in `min_Δ (N / ST(G,K,Δ) + Δ)` rounds.
//! * [`run_trivial`] — Lemma 3.1: ship every relation to the output
//!   player (`τ_MCF` rounds) and solve locally.
//! * the star phase — Algorithm 1 (BCQ) / Algorithm 3 (general FAQ with
//!   aggregate push-down): broadcast the star's center relation over the
//!   packing, compute leaf messages locally, converge-cast their
//!   `⊗`-product back, each as one chunk train per tree edge.
//! * [`run_faq_protocol`] / [`run_bcq_protocol`] — the full d-degenerate
//!   pipeline of Theorem 4.1 / F.1 / G.4: peel `y(H)` stars off the
//!   GYO-GHD bottom-up, then finish the core with the trivial protocol
//!   (or a final star when the query is acyclic).
//! * [`run_hash_split_protocol`] — the Appendix G.6 variant where
//!   relations are split across players by a consistent hash family.
//! * [`DistributedFaqRun`] — the topology-general runtime: any
//!   [`faqs_network::Topology`], any [`InputPlacement`] of factor shards,
//!   one `faqs_plan::QueryPlan`; shards travel Steiner-tree /
//!   shortest-path schedules and the one GHD upward pass
//!   (`faqs_core::Pass`) runs at per-node aggregation players.
//!
//! Every run, of the paper's protocols and of the runtime alike, builds
//! one [`RunReport`] through one constructor and is checked against it
//! live ([`RunReport::check`]): the measured [`faqs_network::RunStats`],
//! [`faqs_network::WireStats`] and per-link bits confronted with the
//! run's own theorem's round bound (`upper_rounds`; [`BoundReport`]
//! where Theorem 4.1 prices the run). A run that escapes it fails with
//! [`ProtocolError::BoundViolated`]. A paper protocol returns its answer
//! with the report as a [`ProtocolOutcome`]; the runtime returns a
//! [`DistributedOutcome`]. The cut Model 2.2 charges is a reading of
//! any report ([`RunReport::bits_across`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod degenerate;
mod distributed;
mod hash_split;
mod outcome;
mod setint;
mod star;
mod trivial;

pub use bounds::{model_capacity_bits, BoundReport};
pub use degenerate::{run_bcq_protocol, run_faq_protocol};
pub use distributed::{DistributedFaqRun, DistributedOutcome, InputPlacement};
pub use hash_split::{run_hash_split_protocol, ConsistentHashSplit};
pub use outcome::{ProtocolError, ProtocolOutcome, RunReport, CONFORMANCE_SLACK};
pub use setint::run_set_intersection;
pub use trivial::run_trivial;
