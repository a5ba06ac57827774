//! Batched mutation of relations: sorted deltas, their application to
//! the columnar arena, and signed (`⊕`/`⊖`) merging of delta relations.
//!
//! The incremental FAQ engine mutates a factor by building a
//! [`RelationDelta`] (any mix of inserts, deletes and overwrites, in any
//! order), then applying it in **one linear merge pass** over the sorted
//! arena — no per-tuple `Vec::splice`. The application reports exactly
//! which tuples changed annotation as an [`AppliedDelta`], which in turn
//! yields the two plain delta relations `Δ⁺` (new values at touched
//! rows) and `Δ⁻` (old values at touched rows) that propagate up a GHD
//! by multilinearity: `Δ(f ⋈ rest) = Δf ⋈ rest`.

use crate::kernel;
use crate::relation::{assert_distinct, Relation};
use faqs_hypergraph::Var;
use faqs_semiring::Semiring;
use std::borrow::Cow;

/// One pending mutation of a single tuple inside a [`RelationDelta`].
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp<S> {
    /// `⊕`-accumulate the value into the tuple's annotation (an
    /// *insert* when the tuple was absent).
    Add(S),
    /// Overwrite the tuple's annotation; `Set(0)` is a *delete*.
    Set(S),
}

impl<S: Semiring> DeltaOp<S> {
    /// Sequential composition: the op equivalent to applying `self`
    /// first and `next` second.
    fn then(&self, next: &DeltaOp<S>) -> DeltaOp<S> {
        match (self, next) {
            (DeltaOp::Add(a), DeltaOp::Add(b)) => DeltaOp::Add(a.add(b)),
            (DeltaOp::Set(a), DeltaOp::Add(b)) => DeltaOp::Set(a.add(b)),
            (_, DeltaOp::Set(b)) => DeltaOp::Set(b.clone()),
        }
    }

    /// The annotation after applying this op to `old`.
    fn apply_to(&self, old: &S) -> S {
        match self {
            DeltaOp::Add(d) => old.add(d),
            DeltaOp::Set(v) => v.clone(),
        }
    }
}

/// A batch of tuple mutations against one relation schema.
///
/// Ops may be recorded in any order and may hit the same tuple more
/// than once; application canonicalises the batch (sort + sequential
/// composition of same-tuple ops) before the merge, so `insert` /
/// `delete` / `set` on a delta mirror the one-shot semantics of calling
/// the corresponding [`Relation`] methods in recording order.
#[derive(Clone, Debug)]
pub struct RelationDelta<S: Semiring> {
    schema: Vec<Var>,
    /// Row-major tuple arena, `ops.len() * schema.len()` entries.
    rows: Vec<u32>,
    ops: Vec<DeltaOp<S>>,
}

impl<S: Semiring> RelationDelta<S> {
    /// An empty delta over the given schema (distinct variables).
    pub fn new<I: IntoIterator<Item = Var>>(schema: I) -> Self {
        let schema: Vec<Var> = schema.into_iter().collect();
        assert_distinct(&schema);
        RelationDelta {
            schema,
            rows: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// The schema, in tuple order.
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }

    /// Number of recorded ops (before same-tuple composition).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops are recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Records an `⊕`-accumulating insert of one entry.
    pub fn insert(&mut self, tuple: Vec<u32>, value: S) {
        self.push(tuple, DeltaOp::Add(value));
    }

    /// Records a delete of one tuple (overwrite with zero).
    pub fn delete(&mut self, tuple: Vec<u32>) {
        self.push(tuple, DeltaOp::Set(S::zero()));
    }

    /// Records an overwrite of one tuple's annotation.
    pub fn set(&mut self, tuple: Vec<u32>, value: S) {
        self.push(tuple, DeltaOp::Set(value));
    }

    /// Whether every recorded tuple lies in `[0, domain)` — the check a
    /// mutable store runs before applying a delta, so its instance
    /// stays valid without a re-scan.
    pub fn fits_domain(&self, domain: u32) -> bool {
        self.rows.iter().all(|&x| x < domain)
    }

    /// Iterates over the recorded `(tuple, op)` pairs in recording order.
    pub fn ops(&self) -> impl Iterator<Item = (&[u32], &DeltaOp<S>)> + '_ {
        let r = self.schema.len();
        self.ops
            .iter()
            .enumerate()
            .map(move |(i, op)| (&self.rows[i * r..i * r + r], op))
    }

    fn push(&mut self, tuple: Vec<u32>, op: DeltaOp<S>) {
        assert_eq!(tuple.len(), self.schema.len(), "tuple arity mismatch");
        self.rows.extend_from_slice(&tuple);
        self.ops.push(op);
    }

    /// Sorted, per-tuple-composed form: rows strictly ascending, one op
    /// per distinct tuple (same-tuple ops composed in recording order).
    fn canonical(&self) -> (Vec<u32>, Vec<DeltaOp<S>>) {
        let r = self.schema.len();
        let n = self.ops.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Tie-break on recording index so composition order is stable.
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.rows[a * r..a * r + r]
                .cmp(&self.rows[b * r..b * r + r])
                .then(a.cmp(&b))
        });
        let mut rows: Vec<u32> = Vec::with_capacity(self.rows.len());
        let mut ops: Vec<DeltaOp<S>> = Vec::with_capacity(n);
        for &i in &order {
            let i = i as usize;
            let t = &self.rows[i * r..i * r + r];
            if let Some(last) = ops.last_mut() {
                if &rows[rows.len() - r..] == t {
                    *last = last.then(&self.ops[i]);
                    continue;
                }
            }
            rows.extend_from_slice(t);
            ops.push(self.ops[i].clone());
        }
        (rows, ops)
    }
}

/// The record of what a [`Relation::apply_delta`] call actually changed:
/// the touched tuples (sorted) with their old and new annotations.
/// Tuples whose annotation ended up unchanged are not recorded.
#[derive(Clone, Debug)]
pub struct AppliedDelta<S: Semiring> {
    schema: Vec<Var>,
    rows: Vec<u32>,
    old: Vec<S>,
    new: Vec<S>,
}

impl<S: Semiring> AppliedDelta<S> {
    /// The schema of the mutated relation.
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }

    /// Number of tuples whose annotation changed.
    pub fn len(&self) -> usize {
        self.old.len()
    }

    /// Whether the delta changed nothing (all ops were no-ops).
    pub fn is_empty(&self) -> bool {
        self.old.is_empty()
    }

    /// Iterates over `(tuple, old_value, new_value)` in canonical order;
    /// absent-before (insert) reports `old = 0`, absent-after (delete)
    /// reports `new = 0`.
    pub fn changes(&self) -> impl Iterator<Item = (&[u32], &S, &S)> + '_ {
        let r = self.schema.len();
        (0..self.len()).map(move |i| (&self.rows[i * r..i * r + r], &self.old[i], &self.new[i]))
    }

    /// `Δ⁺`: the new annotations at the touched tuples, as a relation
    /// (zero-valued rows — deletions — drop out per the listing
    /// representation).
    pub fn inserted(&self) -> Relation<S> {
        self.side(&self.new)
    }

    /// `Δ⁻`: the old annotations at the touched tuples, as a relation.
    pub fn removed(&self) -> Relation<S> {
        self.side(&self.old)
    }

    fn side(&self, vals: &[S]) -> Relation<S> {
        let r = self.schema.len();
        let mut data: Vec<u32> = Vec::new();
        let mut values: Vec<S> = Vec::new();
        for (i, v) in vals.iter().enumerate() {
            if !v.is_zero() {
                data.extend_from_slice(&self.rows[i * r..i * r + r]);
                values.push(v.clone());
            }
        }
        // Rows are already strictly sorted: from_columns takes the
        // no-sort fast path.
        Relation::from_columns(self.schema.clone(), data, values)
    }
}

impl<S: Semiring> Relation<S> {
    /// Applies a batched delta in one merge over the sorted arena (block
    /// copies of the untouched runs between delta keys), returning the
    /// tuples whose annotation actually changed.
    ///
    /// Deleting an absent tuple and inserting a zero are no-ops; an
    /// insert hitting an existing tuple `⊕`-accumulates (matching
    /// [`Relation::insert`]); annotations that reach zero drop out of
    /// the listing.
    pub fn apply_delta(&mut self, delta: &RelationDelta<S>) -> AppliedDelta<S> {
        assert_eq!(self.schema(), delta.schema(), "delta schema mismatch");
        let r = self.schema().len();
        let (drows, dops) = delta.canonical();
        let (n, dn) = (self.len(), dops.len());

        let mut out_data: Vec<u32> = Vec::with_capacity((n + dn) * r);
        let mut out_values: Vec<S> = Vec::with_capacity(n + dn);
        let mut rows: Vec<u32> = Vec::new();
        let mut old: Vec<S> = Vec::new();
        let mut new: Vec<S> = Vec::new();

        // Delta keys are strictly ascending, so the rows between two
        // consecutive keys are untouched: one galloping search finds the
        // end of each such run and one block copy moves it.
        let mut i = 0usize;
        for (j, op) in dops.iter().enumerate() {
            let key = &drows[j * r..j * r + r];
            let end = kernel::gallop_rows(self.raw_data(), r, i, n, key);
            out_data.extend_from_slice(&self.raw_data()[i * r..end * r]);
            out_values.extend_from_slice(&self.raw_values()[i..end]);
            i = end;
            if i < n && self.tuple_at(i) == key {
                let prev = self.value_at(i);
                let next = op.apply_to(prev);
                if next != *prev {
                    rows.extend_from_slice(key);
                    old.push(prev.clone());
                    new.push(next.clone());
                }
                if !next.is_zero() {
                    out_data.extend_from_slice(key);
                    out_values.push(next);
                }
                i += 1;
            } else {
                let next = op.apply_to(&S::zero());
                if !next.is_zero() {
                    rows.extend_from_slice(key);
                    old.push(S::zero());
                    new.push(next.clone());
                    out_data.extend_from_slice(key);
                    out_values.push(next);
                }
            }
        }
        out_data.extend_from_slice(&self.raw_data()[i * r..]);
        out_values.extend_from_slice(&self.raw_values()[i..]);
        self.set_parts(out_data, out_values);
        AppliedDelta {
            schema: self.schema().to_vec(),
            rows,
            old,
            new,
        }
    }

    /// Signed merge `self ⊕ plus ⊖ minus` over three same-variable
    /// relations (column order of `plus`/`minus` is aligned to `self`'s
    /// first). `None` when some cancellation is not representable in the
    /// semiring — the incremental engine then recomputes instead.
    pub fn signed_apply(&self, plus: &Relation<S>, minus: &Relation<S>) -> Option<Relation<S>> {
        let plus = self.aligned(plus);
        let minus = self.aligned(minus);
        let (data, values) = kernel::merge_signed(self, &plus, &minus)?;
        let mut out = Relation::new(self.schema().to_vec());
        out.set_parts(data, values);
        Some(out)
    }

    /// `other` with its columns reordered to this relation's schema
    /// (borrowed when already aligned).
    fn aligned<'a>(&self, other: &'a Relation<S>) -> Cow<'a, Relation<S>> {
        if other.schema() == self.schema() {
            Cow::Borrowed(other)
        } else {
            Cow::Owned(other.reorder(self.schema()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::{Count, Gf2};

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    #[should_panic(expected = "schema variables must be distinct")]
    fn schema_rejects_duplicates() {
        let _: RelationDelta<Count> = RelationDelta::new([v(1), v(0), v(1)]);
    }

    fn rel(rows: &[([u32; 2], u64)]) -> Relation<Count> {
        Relation::from_pairs(
            vec![v(0), v(1)],
            rows.iter().map(|(t, c)| (t.to_vec(), Count(*c))),
        )
    }

    #[test]
    fn batched_delta_matches_one_shot_mutations() {
        let mut batched = rel(&[([1, 1], 2), ([2, 2], 3), ([3, 3], 4)]);
        let mut oneshot = batched.clone();

        let mut d = RelationDelta::new(vec![v(0), v(1)]);
        d.insert(vec![0, 9], Count(7)); // fresh tuple
        d.insert(vec![1, 1], Count(5)); // accumulate onto existing
        d.delete(vec![2, 2]); // delete existing
        d.delete(vec![8, 8]); // delete absent: no-op
        d.set(vec![3, 3], Count(1)); // overwrite
        let applied = batched.apply_delta(&d);

        oneshot.insert(vec![0, 9], Count(7));
        oneshot.insert(vec![1, 1], Count(5));
        assert_eq!(oneshot.delete(&[2, 2]), Some(Count(3)));
        assert_eq!(oneshot.delete(&[8, 8]), None);
        oneshot.delete(&[3, 3]);
        oneshot.insert(vec![3, 3], Count(1));

        assert_eq!(batched, oneshot);
        assert_eq!(applied.len(), 4, "the absent delete is not a change");
        // Δ⁺ lists new values, Δ⁻ old values; the delete appears only in Δ⁻.
        assert_eq!(applied.inserted().get(&[0, 9]), Some(&Count(7)));
        assert_eq!(applied.inserted().get(&[2, 2]), None);
        assert_eq!(applied.removed().get(&[2, 2]), Some(&Count(3)));
        assert_eq!(applied.removed().get(&[0, 9]), None);
    }

    #[test]
    fn same_tuple_ops_compose_in_recording_order() {
        let mut r = rel(&[([1, 1], 10)]);
        let mut d = RelationDelta::new(vec![v(0), v(1)]);
        d.delete(vec![1, 1]);
        d.insert(vec![1, 1], Count(4)); // delete-then-reinsert
        d.insert(vec![1, 1], Count(1));
        let applied = r.apply_delta(&d);
        assert_eq!(r.get(&[1, 1]), Some(&Count(5)));
        assert_eq!(applied.len(), 1);
        let (_, old, new) = applied.changes().next().unwrap();
        assert_eq!((old, new), (&Count(10), &Count(5)));
    }

    #[test]
    fn noop_delta_reports_empty() {
        let mut r = rel(&[([1, 1], 2)]);
        let mut d = RelationDelta::new(vec![v(0), v(1)]);
        d.insert(vec![1, 1], Count(0));
        d.delete(vec![7, 7]);
        d.set(vec![1, 1], Count(2)); // overwrite with the same value
        let applied = r.apply_delta(&d);
        assert!(applied.is_empty());
        assert_eq!(r.get(&[1, 1]), Some(&Count(2)));
    }

    #[test]
    fn accumulate_to_zero_drops_row() {
        let mut r: Relation<Gf2> =
            Relation::from_pairs(vec![v(0), v(1)], [(vec![1, 1], Gf2(true))]);
        let mut d = RelationDelta::new(vec![v(0), v(1)]);
        d.insert(vec![1, 1], Gf2(true)); // 1 ⊕ 1 = 0 in F₂
        let applied = r.apply_delta(&d);
        assert!(r.is_empty());
        assert_eq!(applied.len(), 1);
        assert!(applied.inserted().is_empty());
        assert_eq!(applied.removed().len(), 1);
    }

    #[test]
    fn signed_apply_cancels_and_refuses() {
        let base = rel(&[([1, 1], 5), ([2, 2], 3)]);
        let plus = rel(&[([3, 3], 7)]);
        let minus = rel(&[([2, 2], 3)]);
        let out = base.signed_apply(&plus, &minus).unwrap();
        assert_eq!(out, rel(&[([1, 1], 5), ([3, 3], 7)]));

        // Cancelling more than is present is unrepresentable in ℕ.
        let too_much = rel(&[([1, 1], 9)]);
        assert!(base.signed_apply(&plus, &too_much).is_none());
        // Cancelling an absent tuple likewise.
        let absent = rel(&[([9, 9], 1)]);
        assert!(base.signed_apply(&plus, &absent).is_none());
    }

    #[test]
    fn signed_apply_aligns_column_order() {
        let base = rel(&[([1, 2], 5)]);
        let plus: Relation<Count> =
            Relation::from_pairs(vec![v(1), v(0)], [(vec![7, 3], Count(2))]);
        let minus = Relation::new(vec![v(1), v(0)]);
        let out = base.signed_apply(&plus, &minus).unwrap();
        assert_eq!(out.get(&[3, 7]), Some(&Count(2)));
    }

    #[test]
    fn gf2_signed_apply_resurrects_cancelled_rows() {
        // Two F₂ contributions xor to zero, so the row is absent from
        // the base; removing one contribution must bring it back.
        let base: Relation<Gf2> = Relation::new(vec![v(0)]);
        let plus: Relation<Gf2> = Relation::new(vec![v(0)]);
        let minus: Relation<Gf2> = Relation::from_pairs(vec![v(0)], [(vec![4], Gf2(true))]);
        let out = base.signed_apply(&plus, &minus).unwrap();
        assert_eq!(out.get(&[4]), Some(&Gf2(true)));
    }

    #[test]
    fn delete_returns_old_value() {
        let mut r = rel(&[([1, 1], 2), ([2, 2], 3)]);
        assert_eq!(r.delete(&[1, 1]), Some(Count(2)));
        assert_eq!(r.delete(&[1, 1]), None);
        assert_eq!(r.len(), 1);
    }
}
