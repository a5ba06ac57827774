//! Communication topologies and the synchronous distributed model of the
//! paper (Model 2.1).
//!
//! A query `q` over hypergraph `H` is computed on a *network topology*
//! `G = (V, E)` — a plain graph, distinct from `H` (Figure 1) — where
//! each edge can carry `O(r·log₂ D)` bits per round in each direction,
//! any subset of edges may be active simultaneously, and node-internal
//! computation is free. This crate provides:
//!
//! * [`Topology`] with the builders used across the paper's examples and
//!   experiments (line `G1`, clique `G2`, grids, trees, barbells, random
//!   connected graphs, and the MPC-style topology of Appendix A),
//! * `MinCut(G, K)` via Edmonds–Karp max-flow (Definition 3.6),
//! * bounded-diameter **Steiner tree packing** `ST(G, K, Δ)`
//!   (Definitions 3.8/3.9; greedily achieving the `Ω(MinCut)` guarantee
//!   of Theorem 3.10 on the families we use),
//! * the multicommodity-flow routing bound `τ_MCF(G, K, N′)`
//!   (Definition 3.12) by store-and-forward simulation — it, the cut and
//!   the packing read live links only, so a down link (capacity 0) is an
//!   absent one,
//! * [`NetRun`], a capacity-respecting transmission scheduler: every
//!   send is a [`ChunkTrain`] through one door, `send_train(link, from,
//!   train)`, fitted first-fit per directed link in one pass and yielding
//!   exact round counts under Model 2.1's constraints. A train keeps its
//!   chunks' rounds as runs of evenly spaced rounds, so a train of any
//!   length lands on an idle link in one step and `O(1)` map operations;
//!   `transmit` is a one-chunk train and a pipelined send along a checked
//!   simple path is one train per hop,
//! * [`InputPlacement`] of input functions to players (`K ⊆ V`), whole
//!   (Model 2.1) or hash-split (Appendix G.6),
//! * pluggable [`Transport`]s — in memory ([`SimTransport`]) and
//!   loopback TCP — that both deliver the frame's bytes and both
//!   shadow-account it on [`NetRun`], so a run reports byte-identical
//!   [`RunStats`] and [`WireStats`] on either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod cuts;
mod flow;
mod sim;
mod steiner;
mod topology;
mod transport;

pub use assignment::InputPlacement;
pub use cuts::{max_flow, min_cut, min_cut_partition};
pub use flow::tau_mcf;
pub use sim::{ChunkTrain, NetRun, RunStats, TransmitError};
pub use steiner::{steiner_packing, DeltaPackings, SteinerTree};
pub use topology::{LinkId, Player, Topology};
#[doc(hidden)]
pub use transport::ChannelTransport;
pub use transport::{Delivery, SimTransport, TcpTransport, Transport, TransportKind, WireStats};
