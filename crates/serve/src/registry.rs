//! The epoch/arc-swap factor registry: mutable relations behind
//! snapshot-consistent read handles.
//!
//! Each registered query shape lives in a
//! [`SnapshotCell`]`<`[`FaqQuery`]`>`: readers (the batcher's workers,
//! external observers) pin an epoch-stamped
//! [`Snapshot`](faqs_relation::Snapshot) with a lock held only for an
//! `Arc` clone, while [`RelationDelta`] writers prepare the next
//! template copy-on-write *outside* any lock the readers touch and swap
//! it in. A write costs `k` refcount bumps plus one columnar merge:
//! cloning the template shares every factor's rows, and
//! [`Relation::apply_delta`](faqs_relation::Relation::apply_delta)
//! builds new rows for the one factor it touches. A writer therefore
//! never blocks a reader, and every query in a batch is answered
//! against one consistent epoch.
//!
//! The same boundary keeps the data valid: the template is validated
//! and planned once when it is registered, and every delta is checked
//! against the template's domain before it is applied, hence
//! *registered ∧ every applied delta in-domain ⇒ the current template
//! is valid*.

use crate::error::ServeError;
use faqs_hypergraph::{EdgeId, Var};
use faqs_plan::structural_plan;
use faqs_relation::{FaqQuery, RelationDelta, SnapshotCell};
use faqs_semiring::Semiring;
use std::sync::{Arc, Mutex, RwLock};

/// Handle to a registered query shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeId(pub usize);

/// One registered shape: the versioned template, its batching
/// parameter and the writer's lock.
pub(crate) struct ShapeEntry<S: Semiring> {
    pub(crate) cell: SnapshotCell<FaqQuery<S>>,
    pub(crate) param: Var,
    /// Serialises read-modify-write delta application; readers never
    /// take this lock.
    writer: Mutex<()>,
}

impl<S: Semiring> ShapeEntry<S> {
    /// Applies a delta to one factor copy-on-write and publishes the
    /// next version, which shares the other factors' rows with this
    /// one; returns its epoch. A delta for an unknown edge, of
    /// the wrong schema, or carrying a value outside the template's
    /// domain is refused before anything changes. Readers holding
    /// snapshots are untouched; concurrent writers serialise on
    /// `writer` so no read-modify-write update is lost.
    pub(crate) fn apply(&self, edge: EdgeId, delta: &RelationDelta<S>) -> Result<u64, ServeError> {
        // The guarded value is `()`: a holder that panicked left nothing
        // half-written, so a poisoned lock is adopted as is.
        let _writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cur = self.cell.load();
        let template = cur.value();
        let factor = template
            .factors
            .get(edge.index())
            .ok_or(ServeError::UnknownEdge(edge.index()))?;
        if factor.schema() != delta.schema() {
            return Err(ServeError::SchemaMismatch);
        }
        if !delta.fits_domain(template.domain) {
            return Err(ServeError::ValueOutOfDomain { edge });
        }
        let mut next = FaqQuery::clone(template);
        next.factors[edge.index()].apply_delta(delta);
        Ok(self.cell.store(next))
    }
}

/// The set of registered shapes. Registration is append-only;
/// `ShapeId`s are dense indices.
pub(crate) struct Registry<S: Semiring> {
    shapes: RwLock<Vec<Arc<ShapeEntry<S>>>>,
}

impl<S: Semiring> Registry<S> {
    pub(crate) fn new() -> Self {
        Registry {
            shapes: RwLock::new(Vec::new()),
        }
    }

    /// Registers a template; `param` must be free (slicing the answer
    /// on a bound variable would change semantics). This is where the
    /// data enters: the template gets its one full validation here, and
    /// its structural plan is built once, so shapes the planner rejects
    /// outright fail at registration, not per query.
    pub(crate) fn register(
        &self,
        template: FaqQuery<S>,
        param: Var,
    ) -> Result<ShapeId, ServeError> {
        if param.index() >= template.hypergraph.num_vars() || !template.is_free(param) {
            return Err(ServeError::ParamNotFree(param));
        }
        structural_plan(&template)?;
        let entry = Arc::new(ShapeEntry {
            cell: SnapshotCell::new(template),
            param,
            writer: Mutex::new(()),
        });
        let mut shapes = match self.shapes.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        shapes.push(entry);
        Ok(ShapeId(shapes.len() - 1))
    }

    pub(crate) fn get(&self, id: ShapeId) -> Result<Arc<ShapeEntry<S>>, ServeError> {
        let shapes = match self.shapes.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        shapes
            .get(id.0)
            .cloned()
            .ok_or(ServeError::UnknownShape(id.0))
    }
}
