//! Epoch-stamped snapshot handles: the arc-swap primitive behind
//! snapshot-consistent serving over mutable relations.
//!
//! A [`SnapshotCell`] holds one immutable value (a relation, a whole
//! [`FaqQuery`](crate::FaqQuery), …) behind an `Arc`, stamped with a
//! monotonically increasing *epoch*. Readers take a [`Snapshot`] — an
//! `Arc` clone plus the epoch — under a lock held only for the clone
//! (a pointer bump), so writers installing a new version never block
//! readers for longer than that, and a reader's pinned snapshot stays
//! valid and unchanged no matter how many versions land after it.
//! Writers prepare the next value *outside* the lock (copy-on-write)
//! and [`SnapshotCell::store`] swaps it in. For a whole
//! [`FaqQuery`](crate::FaqQuery) that preparation costs `k` refcount
//! bumps plus one columnar merge: a clone shares every factor's rows,
//! and a write copies or rebuilds only the rows it touches.
//!
//! This is the hand-rolled std-only equivalent of the `arc-swap` crate
//! pattern: no external dependency, and the brief mutex keeps the
//! epoch-and-pointer pair atomic (a lock-free split would let a reader
//! observe version `n`'s epoch with version `n+1`'s data).

use std::sync::{Arc, Mutex};

/// An epoch-pinned, immutable handle to one published version.
///
/// Cloning is an `Arc` clone; the underlying value is never copied and
/// never mutates — `RelationDelta` writers publish *new* versions
/// through the owning [`SnapshotCell`] instead.
#[derive(Debug)]
pub struct Snapshot<T> {
    epoch: u64,
    value: Arc<T>,
}

// Manual impl: cloning shares the `Arc`, so `T: Clone` is not needed.
impl<T> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Snapshot {
            epoch: self.epoch,
            value: Arc::clone(&self.value),
        }
    }
}

impl<T> Snapshot<T> {
    /// The version counter this handle pins (the cell's first published
    /// value is epoch `0`; every [`SnapshotCell::store`] increments it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::Deref for Snapshot<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// A single publish point: writers swap in new versions, readers take
/// epoch-pinned [`Snapshot`] handles.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    current: Mutex<Snapshot<T>>,
}

impl<T> SnapshotCell<T> {
    /// A cell publishing `value` at epoch `0`.
    pub fn new(value: T) -> Self {
        SnapshotCell {
            current: Mutex::new(Snapshot {
                epoch: 0,
                value: Arc::new(value),
            }),
        }
    }

    /// The current version, pinned. The internal lock is held only for
    /// an `Arc` clone, so a concurrent [`SnapshotCell::store`] never
    /// blocks readers behind the writer's (potentially large)
    /// copy-on-write work.
    pub fn load(&self) -> Snapshot<T> {
        self.lock().clone()
    }

    /// The current epoch without pinning the value.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Publishes `value` as the next version and returns its epoch.
    /// Existing [`Snapshot`] handles keep their pinned versions.
    ///
    /// Concurrent writers are *last-write-wins* on the value; callers
    /// that read-modify-write (apply a delta to the current version)
    /// must serialise among themselves — see the serve layer's registry.
    pub fn store(&self, value: T) -> u64 {
        let mut cur = self.lock();
        cur.epoch += 1;
        cur.value = Arc::new(value);
        cur.epoch
    }

    /// Locks the cell, recovering from poison: the critical section is
    /// a pointer assignment (no tearing is possible), so a thread that
    /// panicked while holding the guard left a fully consistent
    /// snapshot behind and the cell serves on.
    fn lock(&self) -> std::sync::MutexGuard<'_, Snapshot<T>> {
        match self.current.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.current.clear_poison();
                poisoned.into_inner()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_pin_versions_across_stores() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let pinned = cell.load();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(cell.store(vec![4]), 1);
        assert_eq!(cell.store(vec![5]), 2);
        // The old handle is untouched; new loads see the latest.
        assert_eq!(*pinned.value(), vec![1, 2, 3]);
        let now = cell.load();
        assert_eq!(now.epoch(), 2);
        assert_eq!(*now.value(), vec![5]);
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn concurrent_readers_see_consistent_epoch_value_pairs() {
        let cell = std::sync::Arc::new(SnapshotCell::new(0u64));
        std::thread::scope(|s| {
            let c = std::sync::Arc::clone(&cell);
            let writer = s.spawn(move || {
                for i in 1..=500u64 {
                    c.store(i);
                }
            });
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..500 {
                        let snap = c.load();
                        // Epoch n must carry exactly value n.
                        assert_eq!(snap.epoch(), *snap.value());
                    }
                });
            }
            writer.join().unwrap();
        });
    }
}
