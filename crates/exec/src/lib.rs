//! # faqs-exec — the plan-cached FAQ executor
//!
//! `faqs-core` is the *reference* engine: every call re-derives the
//! GYO-GHD of Construction 2.8, re-validates the elimination order, and
//! runs the Theorem G.3 upward pass. That is the right shape for an
//! oracle, and the wrong shape for serving repeated query traffic — the
//! ROADMAP's north star. This crate is the front door for that traffic:
//!
//! * **Plan cache** ([`PlanCache`]): a structural fingerprint of
//!   `(hypergraph shape, aggregates, free variables, semiring
//!   capabilities)` plus the planner's coarse statistics digest
//!   ([`PlanKey`]) maps to a cached, validated [`QueryPlan`] — the
//!   `faqs-plan`-chosen GHD, per-node join order, per-bag binding
//!   order. GHD construction, MD-hoisting, re-rooting, cost-based
//!   candidate selection and elimination-order validation run once per
//!   query shape and digest bucket instead of once per call;
//!   [`Executor::cache_stats`] exposes hit/miss counters, and negative
//!   results replay from the digest-free structural tier.
//! * **The same upward pass** ([`Executor`]): the executor runs
//!   `solve_faq`'s pass and reproduces it exactly, with calibration
//!   telemetry at its fold points and a panicking query surfaced as
//!   [`faqs_core::EngineError::WorkerPanic`] instead of an unwind.
//! * **Cross-query batching** ([`Executor::solve_batch`]): many
//!   bindings of one free parameter variable merge into a single
//!   upward pass — the parameter-carrying factors are restricted to the
//!   merged binding set in one pass each, the pass runs once, and
//!   the combined answer is sliced back per binding; bit-identical to
//!   independent `solve` calls on exact semirings. This is the engine
//!   under `faqs-serve`'s batcher.
//!
//! ```
//! use faqs_exec::Executor;
//! use faqs_hypergraph::star_query;
//! use faqs_relation::{random_instance, RandomInstanceConfig};
//! use faqs_semiring::Count;
//!
//! let ex = Executor::default();
//! let h = star_query(4);
//! let cfg = RandomInstanceConfig { tuples_per_factor: 32, domain: 8, seed: 1 };
//! for seed in 0..4 {
//!     let q = random_instance(&h, &RandomInstanceConfig { seed, ..cfg }, vec![], |_| Count(1));
//!     let answer = ex.solve(&q).unwrap().total();
//!     assert_eq!(answer, faqs_core::solve_faq(&q).unwrap().total());
//! }
//! // One plan build served all four calls.
//! assert_eq!(ex.cache_stats().misses, 1);
//! assert_eq!(ex.cache_stats().hits, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod executor;
mod incremental;

pub use cache::{CacheStats, PlanCache};
pub use executor::{Executor, ExecutorConfig};
pub use faqs_plan::{PlanKey, QueryPlan};
pub use incremental::{IncrementalFaq, IncrementalStats, MaintenanceMode};
