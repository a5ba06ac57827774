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
//!
//! The rows are copy-on-write: a clone shares them (a refcount bump),
//! and [`Arena::parts_mut`] copies them only while another arena still
//! holds them. So the serve registry's next template shares every
//! factor a delta leaves alone, and a pinned snapshot never sees a
//! write.

use crate::stats::Profile;
use faqs_hypergraph::Var;
use std::sync::{Arc, OnceLock};

/// Row-major tuple arena, its parallel annotation column, and the
/// [`Profile`] of the two once somebody has asked for it.
#[derive(Clone)]
pub(crate) struct Arena<S> {
    /// Shared by every clone until one of them writes; `None` when
    /// there are no rows, so an empty relation allocates nothing.
    rows: Option<Arc<Rows<S>>>,
    /// Behind an `Arc` so a clone shares the memo until either side
    /// writes.
    profile: OnceLock<Arc<Profile>>,
}

#[derive(Clone)]
struct Rows<S> {
    /// `values.len() * arity` entries.
    data: Vec<u32>,
    values: Vec<S>,
}

/// Equal rows are equal arenas, profiled or not.
impl<S: PartialEq> PartialEq for Arena<S> {
    fn eq(&self, other: &Self) -> bool {
        self.data() == other.data() && self.values() == other.values()
    }
}

impl<S> Arena<S> {
    /// An arena over canonical rows, not yet profiled.
    pub(crate) fn new(data: Vec<u32>, values: Vec<S>) -> Self {
        Arena {
            rows: (!values.is_empty()).then(|| Arc::new(Rows { data, values })),
            profile: OnceLock::new(),
        }
    }

    #[inline]
    pub(crate) fn data(&self) -> &[u32] {
        self.rows.as_ref().map_or(&[], |r| &r.data)
    }

    #[inline]
    pub(crate) fn values(&self) -> &[S] {
        self.rows.as_ref().map_or(&[], |r| &r.values)
    }

    /// The rows for writing, copied first if another arena shares them;
    /// whatever was known about them is dropped. Call it once per
    /// build, not once per row: each call checks the sharing again.
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<S>)
    where
        S: Clone,
    {
        self.profile.take();
        let rows = self.rows.get_or_insert_with(|| {
            Arc::new(Rows {
                data: Vec::new(),
                values: Vec::new(),
            })
        });
        let rows = Arc::make_mut(rows);
        (&mut rows.data, &mut rows.values)
    }

    /// Replaces the rows; whatever was known about the old ones is
    /// dropped, and another arena sharing them keeps them.
    pub(crate) fn set_parts(&mut self, data: Vec<u32>, values: Vec<S>) {
        *self = Arena::new(data, values);
    }

    /// The profile of the rows under `schema` (the owning relation's,
    /// fixed at its construction): scanned on first use, read
    /// afterwards, until the next `&mut` door.
    pub(crate) fn profile(&self, schema: &[Var]) -> &Arc<Profile> {
        self.profile
            .get_or_init(|| Arc::new(Profile::scan(schema, self.data(), self.values().len())))
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

    fn shared(a: &Arena<u64>, b: &Arena<u64>) -> bool {
        match (&a.rows, &b.rows) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn a_clone_shares_rows_until_a_door_unshares_the_writer() {
        let schema = [Var(0), Var(1)];
        let a = arena();
        let memo = Arc::clone(a.profile(&schema));
        let (mut b, c) = (a.clone(), a.clone());
        assert!(shared(&a, &b) && shared(&a, &c), "a clone copies no row");

        // `parts_mut` copies the shared rows once, for the writer only.
        b.parts_mut().0[1] = 6;
        assert!(!shared(&a, &b));
        assert!(shared(&a, &c), "the other holders still share");
        assert_eq!((a.data(), a.values()), (&[1, 5, 2, 9][..], &[1, 1][..]));
        assert_eq!(b.data(), [1, 6, 2, 9]);
        assert!(Arc::ptr_eq(&memo, a.profile(&schema)));
        assert!(Arc::ptr_eq(&memo, c.profile(&schema)));
        assert!(!Arc::ptr_eq(&memo, b.profile(&schema)));

        // Once it owns its rows, the writer writes them in place.
        let rows = b.data().as_ptr();
        b.parts_mut().1[0] = 3;
        assert_eq!(b.data().as_ptr(), rows);

        // `set_parts` leaves the old rows to whoever else holds them.
        let mut d = a.clone();
        d.set_parts(vec![4, 4], vec![2]);
        assert!(shared(&a, &c));
        assert_eq!((a.data(), d.data()), (&[1, 5, 2, 9][..], &[4, 4][..]));
        assert!(Arc::ptr_eq(&memo, a.profile(&schema)));
    }

    #[test]
    fn an_empty_arena_allocates_nothing() {
        let mut e: Arena<u64> = Arena::new(Vec::new(), Vec::new());
        assert!(e.rows.is_none());
        assert!(e.data().is_empty() && e.values().is_empty());
        e.parts_mut().1.push(1);
        assert_eq!(e.values(), [1]);
        e.set_parts(Vec::new(), Vec::new());
        assert!(e.rows.is_none());
        assert!(e == Arena::new(Vec::new(), Vec::new()));
    }

    #[test]
    fn equality_ignores_the_memo() {
        let schema = [Var(0), Var(1)];
        let (a, b) = (arena(), arena());
        a.profile(&schema);
        assert!(a == b);
    }
}
