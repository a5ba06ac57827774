//! The centralized FAQ engine: ground truth for every distributed
//! protocol in the workspace.
//!
//! Implements the upward message-passing pass of Theorem G.3 of the paper
//! (a variable-elimination / "InsideOut"-style algorithm) on the GYO-GHDs
//! of Construction 2.8 — once: [`Pass::run`] is the only upward pass in
//! the workspace, and a [`PassSite`] is what the executor, the
//! incremental session and the distributed runtime plug into it. Every
//! site runs the [`QueryPlan`] `faqs-plan` emits (re-exported here), as
//! emitted: its join orders, child fold order, nests and binding
//! orders are read, never derived again.
//!
//! * [`solve_faq`] — general FAQ (Equation 4) over any commutative
//!   semiring, each bound variable under any aggregate the carrier
//!   admits (`Sum`/`Product` everywhere; `Max` where the carrier
//!   declares it, [`faqs_semiring::Semiring::admits`]);
//! * [`solve_bcq`] — Boolean Conjunctive Queries (`F = ∅`, Boolean
//!   semiring);
//! * [`solve_faq_brute_force`] — a direct evaluation of Equation (4) by
//!   nested-loop aggregation, used as the oracle in tests;
//! * [`solve_faq_reference`] — a deterministic re-solve on
//!   `faqs_plan::structural_plan`,
//!   the oracle the incremental executor's maintained answers are raced
//!   against;
//! * [`pgm`] — probabilistic-graphical-model conveniences (variable and
//!   factor marginals, the paper's motivating PGM application).
//!
//! The paper's bounds hold for free variables contained in the core,
//! `F ⊆ V(C(H))` (Appendix G.5); the engine enforces the same
//! restriction but first tries to *re-root* the decomposition so that the
//! restriction holds (any `F` inside a single hyperedge works, which
//! covers both PGM marginal flavours).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod engine;
mod pass;
pub mod pgm;

pub use brute::solve_faq_brute_force;
pub use engine::{solve_bcq, solve_faq, solve_faq_reference, solve_faq_with_plan, EngineError};
pub use faqs_plan::QueryPlan;
pub use pass::{CalProbe, Factors, Pass, PassSite, Sequential, Timed};
