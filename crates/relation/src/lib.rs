//! Listing-representation relations and FAQ query definitions.
//!
//! The paper assumes every input function `f_e : ∏_{v∈e} Dom(v) → D` is
//! given in *listing representation*: the list of its non-zero entries
//! `R_e = {(y, f_e(y)) : f_e(y) ≠ 0}` (Section 1). [`Relation`] is exactly
//! that, stored columnar-style: one flat row-major `Vec<u32>` arena
//! (arity-strided, no per-tuple boxes) plus a parallel annotation column,
//! kept lexicographically sorted. The [`kernel`] module implements the
//! relational-algebra operators the engine and the distributed protocols
//! share — natural join (Definition 3.4), semijoin (Definition 3.5),
//! projection and per-variable `⊕`-aggregation, and the FAQ "push-down"
//! aggregation of Corollary G.2 — as sort-merge / galloping passes over
//! tuple views (`&[u32]` slices). No operator builds an index: a sorted
//! arena is its own, and a key's rows are one run found by binary search.
//!
//! [`FaqQuery`] bundles a hypergraph with one relation per hyperedge, the
//! set of free variables `F`, and a per-bound-variable [`Aggregate`]
//! operator — i.e. an instance of Equation (4) of the paper. [`BcqBuilder`]
//! is a convenience layer for the Boolean case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod builder;
mod codec;
mod delta;
mod generators;
mod genjoin;
pub mod kernel;
mod query;
mod relation;
mod snapshot;
mod stats;

pub use builder::BcqBuilder;
pub use codec::{
    frame_bits, frame_bytes, CodecError, FRAME_FIXED_BYTES, FRAME_MAGIC, FRAME_VERSION,
};
pub use delta::{AppliedDelta, DeltaOp, RelationDelta};
pub use faqs_semiring::Aggregate;
pub use generators::{
    irreducible_star_instance, random_boolean_instance, random_instance, skewed_star_instance,
    RandomInstanceConfig,
};
pub use genjoin::{generic_join, generic_join_aggregated};
pub use query::{FaqQuery, QueryError};
pub use relation::Relation;
pub use snapshot::{Snapshot, SnapshotCell};
pub use stats::{MaintainedStats, RelationStats};
