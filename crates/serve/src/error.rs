//! The serving-layer error type.

use faqs_core::EngineError;
use faqs_hypergraph::{EdgeId, Var};

/// Failures surfaced by the serving front-end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The shape id was never registered with this server.
    UnknownShape(usize),
    /// The edge id does not exist in the registered shape.
    UnknownEdge(usize),
    /// The batching parameter must be one of the template's free
    /// variables: bound variables are aggregated over, so slicing the
    /// answer on them would silently change the query's semantics.
    ParamNotFree(Var),
    /// A delta's schema does not match the targeted factor's schema.
    SchemaMismatch,
    /// A delta carries a value outside the template's domain
    /// `[0, domain)`. Nothing was applied: publishing it would leave a
    /// version every later query fails validation on.
    ValueOutOfDomain {
        /// The factor the delta targeted.
        edge: EdgeId,
    },
    /// Planning or execution failed (including a worker panic captured
    /// as [`EngineError::WorkerPanic`]).
    Engine(EngineError),
    /// The server shut down before the ticket was answered.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownShape(id) => write!(f, "unknown shape id {id}"),
            ServeError::UnknownEdge(e) => write!(f, "unknown edge id {e}"),
            ServeError::ParamNotFree(v) => {
                write!(f, "batch parameter {v} is not a free variable")
            }
            ServeError::SchemaMismatch => write!(f, "delta schema does not match the factor"),
            ServeError::ValueOutOfDomain { edge } => {
                write!(f, "delta for {edge} carries a value outside the domain")
            }
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Shutdown => write!(f, "server shut down before answering"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}
