//! The planner/engine error type.
//!
//! Historically this lived in `faqs-core`; it moved here when planning
//! was extracted into its own crate, because every error a query can
//! hit *before* execution — unplaceable free variables, illegal
//! aggregate exchanges, invalid instances — is a planning failure.
//! `faqs-core` re-exports it under the same name, so call sites are
//! unchanged.

use faqs_hypergraph::Var;
use faqs_semiring::AggregateError;

/// Planning / engine failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The free variables cannot be placed inside the core of any
    /// decomposition we can construct (the paper's restriction
    /// `F ⊆ V(C(H))`, Appendix G.5).
    FreeVarsOutsideCore(Vec<Var>),
    /// The variable's aggregate is not one the query's carrier admits
    /// (`Semiring::admits`): `(D, ⊕⁽ⁱ⁾, ⊗)` would not be a commutative
    /// semiring sharing `0`/`1` with the base one, which Equation (4)
    /// requires.
    RefusedAggregate(Var, AggregateError),
    /// A product aggregate (`⊕⁽ⁱ⁾ = ⊗`) on a semiring whose `⊗` is not
    /// idempotent: the GHD push-down cannot commute it past other
    /// aggregates (the `f^m ≠ f` multiplicity blow-up); see the
    /// semantics note in `faqs-core`'s brute-force module.
    NonIdempotentProduct(Var),
    /// The GHD elimination order would swap two differently-aggregated
    /// variables that co-occur in a hyperedge — an exchange Theorem G.1
    /// does not license (e.g. `Σ_x max_y f(x,y)` cannot become
    /// `max_y Σ_x f(x,y)`). The query is well-defined (the brute-force
    /// oracle evaluates it) but outside the engine's push-down fragment.
    IncompatibleAggregateOrder(Var, Var),
    /// The query failed validation.
    Invalid(String),
    /// The upward pass panicked mid-evaluation. The panic payload is
    /// captured so the *caller* of that one query sees an error instead
    /// of the panic unwinding through whatever pool thread happened to
    /// run the pass — one poisoned query must not take down a server.
    WorkerPanic(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::FreeVarsOutsideCore(vs) => {
                write!(
                    f,
                    "free variables {vs:?} cannot be placed in the core V(C(H))"
                )
            }
            EngineError::RefusedAggregate(v, e) => write!(f, "variable {v}: {e}"),
            EngineError::NonIdempotentProduct(v) => {
                write!(
                    f,
                    "variable {v} uses a product aggregate over a non-idempotent ⊗"
                )
            }
            EngineError::IncompatibleAggregateOrder(v, w) => {
                write!(
                    f,
                    "aggregates of co-occurring variables {v} and {w} cannot be exchanged"
                )
            }
            EngineError::Invalid(e) => write!(f, "invalid query: {e}"),
            EngineError::WorkerPanic(p) => write!(f, "executor worker panicked: {p}"),
        }
    }
}

impl std::error::Error for EngineError {}
