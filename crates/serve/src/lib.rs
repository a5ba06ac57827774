//! # faqs-serve — the concurrent query front-end
//!
//! `faqs-exec` answers one query per call; a *service* answers a
//! stream of them while the underlying relations mutate. This crate is
//! the thread-pool front-end the ROADMAP's north star asks for, built
//! from two pieces:
//!
//! * **Snapshot-consistent reads over mutable relations**: every
//!   registered query shape lives in an epoch-stamped
//!   [`faqs_relation::SnapshotCell`]; [`FaqServer::apply_delta`]
//!   writers publish new templates copy-on-write, so readers are never
//!   blocked and a pinned [`FaqServer::snapshot`] handle keeps
//!   observing its epoch no matter how many deltas land after it. A
//!   write costs `k` refcount bumps plus one columnar merge: the next
//!   template shares the rows of every factor the delta leaves alone
//!   (relations are copy-on-write), and the merge builds the targeted
//!   factor's new rows.
//! * **Cross-query batching**: every submit queues, and queued requests
//!   for the *same shape* — same structural `PlanKey` fingerprint,
//!   different bindings of the designated free parameter — merge into
//!   one [`faqs_exec::Executor::solve_batch`] pass: the shared plan is
//!   looked up once, the parameter-carrying factors restrict to the
//!   merged binding set in one pass, and each requester
//!   receives its slice, bit-identical (on exact semirings) to a solo
//!   pass. A pool worker runs the oldest request's batch; a
//!   [`Ticket::wait`] whose request is still queued runs that request's
//!   batch on the calling thread instead of waking a worker and parking.
//!   `ServeConfig { max_batch: 1, .. }` is per-query dispatch.
//!
//! ```
//! use faqs_serve::{FaqServer, ServeConfig};
//! use faqs_hypergraph::{star_query, Var};
//! use faqs_relation::{random_instance, RandomInstanceConfig};
//! use faqs_semiring::Count;
//!
//! let server = FaqServer::new(ServeConfig::default());
//! let template = random_instance(
//!     &star_query(3),
//!     &RandomInstanceConfig { tuples_per_factor: 32, domain: 8, seed: 1 },
//!     vec![Var(0)],
//!     |_| Count(1),
//! );
//! let shape = server.register(template, Var(0)).unwrap();
//! let answer = server.query(shape, 3).unwrap();
//! assert_eq!(answer.epoch, 0, "served from the initial version");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod registry;
mod server;

pub use error::ServeError;
pub use registry::ShapeId;
pub use server::{Answer, FaqServer, ServeConfig, ServeStats, Ticket};
