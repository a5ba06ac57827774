//! The row arena of a [`Relation`](crate::Relation) and the profile
//! memoised over it.
//!
//! [`Arena`] is the one type that can name the tuple arena, the
//! annotation column and the memo: its fields are private to this file,
//! and each of its `&mut` doors ([`Arena::parts_mut`],
//! [`Arena::set_parts`]) drops the memo before it hands the rows out.
//! So a [`Profile`] read through [`Arena::profile`] describes the rows
//! as they are now — "a row changed and the profile did not" has no
//! spelling outside this file.

use crate::stats::Profile;
use faqs_hypergraph::Var;
use std::sync::{Arc, OnceLock};

/// Row-major tuple arena, its parallel annotation column, and the
/// [`Profile`] of the two once somebody has asked for it.
#[derive(Clone)]
pub(crate) struct Arena<S> {
    /// `values.len() * arity` entries.
    data: Vec<u32>,
    values: Vec<S>,
    /// Behind an `Arc` so a clone (the serve registry's copy-on-write
    /// template) shares the memo instead of copying it.
    profile: OnceLock<Arc<Profile>>,
}

/// Equal rows are equal arenas, profiled or not.
impl<S: PartialEq> PartialEq for Arena<S> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.values == other.values
    }
}

impl<S> Arena<S> {
    /// An arena over canonical rows, not yet profiled.
    pub(crate) fn new(data: Vec<u32>, values: Vec<S>) -> Self {
        Arena {
            data,
            values,
            profile: OnceLock::new(),
        }
    }

    #[inline]
    pub(crate) fn data(&self) -> &[u32] {
        &self.data
    }

    #[inline]
    pub(crate) fn values(&self) -> &[S] {
        &self.values
    }

    /// The rows for writing; whatever was known about them is dropped.
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<S>) {
        self.profile.take();
        (&mut self.data, &mut self.values)
    }

    /// Replaces the rows; whatever was known about the old ones is
    /// dropped.
    pub(crate) fn set_parts(&mut self, data: Vec<u32>, values: Vec<S>) {
        *self = Arena::new(data, values);
    }

    /// The profile of the rows under `schema` (the owning relation's,
    /// fixed at its construction): scanned on first use, read
    /// afterwards, until the next `&mut` door.
    pub(crate) fn profile(&self, schema: &[Var]) -> &Arc<Profile> {
        self.profile
            .get_or_init(|| Arc::new(Profile::scan(schema, &self.data, self.values.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> Arena<u64> {
        Arena::new(vec![1, 5, 2, 9], vec![1, 1])
    }

    #[test]
    fn a_clone_shares_the_memo_until_either_side_mutates() {
        let schema = [Var(0), Var(1)];
        let a = arena();
        let first = Arc::clone(a.profile(&schema));
        assert!(
            Arc::ptr_eq(&first, a.profile(&schema)),
            "read, not rescanned"
        );

        let mut b = a.clone();
        assert!(Arc::ptr_eq(&first, b.profile(&schema)));
        b.parts_mut().0[3] = 40;
        assert_eq!(b.profile(&schema).max_value, Some(40));
        assert!(
            Arc::ptr_eq(&first, a.profile(&schema)),
            "the original keeps its own"
        );

        let mut c = a.clone();
        c.set_parts(vec![7, 7], vec![1]);
        assert_eq!(c.profile(&schema).stats.rows, 1);
        assert_eq!(a.profile(&schema).stats.rows, 2);
    }

    #[test]
    fn equality_ignores_the_memo() {
        let schema = [Var(0), Var(1)];
        let (a, b) = (arena(), arena());
        a.profile(&schema);
        assert!(a == b);
    }
}
