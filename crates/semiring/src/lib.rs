//! Commutative semiring abstractions for Functional Aggregate Queries (FAQs).
//!
//! The FAQ problem of Abo Khamis, Ngo and Rudra (PODS 2016) — and the
//! distributed round-complexity bounds of Langberg, Li, Mani Jayaraman and
//! Rudra (PODS 2019) reproduced by this workspace — are *semiring agnostic*:
//! every algorithm is parameterised by a commutative semiring `(D, ⊕, ⊗)`
//! with additive identity `0` and multiplicative identity `1`, where `⊗`
//! distributes over `⊕` and `0` is absorbing.
//!
//! This crate provides:
//!
//! * the [`Semiring`] trait (the paper's footnote 2 definition),
//! * concrete instances: the Boolean semiring ([`Boolean`], used for BCQ),
//!   the counting semiring ([`Count`], `#CQ`), the probability semiring
//!   ([`Prob`], PGM marginals), tropical semirings ([`MinPlus`], [`MaxPlus`],
//!   shortest paths / MAP), the max-product Viterbi semiring ([`MaxProd`]),
//!   and the two-element field ([`Gf2`], used by the matrix-chain problem of
//!   Section 6),
//! * the [`Aggregate`] operator descriptor for *general* FAQ queries, where
//!   each bound variable may carry its own aggregate (`⊕`, `⊗`, `max`, or
//!   `min`) as long as it forms a semiring with the shared identities
//!   (Section 5 / Appendix G of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod boolean;
mod counting;
mod gf2;
mod prob;
mod traits;
mod tropical;

pub use aggregate::{Aggregate, AggregateError};
pub use boolean::Boolean;
pub use counting::Count;
pub use gf2::Gf2;
pub use prob::{MaxProd, Prob};
pub use traits::{Ring, Semiring};
pub use tropical::{MaxPlus, MinPlus};

#[cfg(test)]
mod law_tests;
