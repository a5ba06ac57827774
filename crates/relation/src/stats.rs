//! Relation statistics for the cost-based planner, profiled once per
//! relation state.
//!
//! The planner (`faqs-plan`) estimates join and message cardinalities
//! from two per-relation quantities: the listing size and the number of
//! distinct values per column. Both are gathered in a single pass over
//! the canonical sorted arena ([`Profile::scan`]): column 0's distinct
//! count is its number of runs (the arena is sorted on it), and the same
//! sweep records each non-leading column's value range, which decides
//! how that column's distinct values are then counted — in a bitmap over
//! the range when it is dense, by sorting a copy of the column when it
//! is not — and whose maxima are the relation's largest value, the
//! number instance validation compares with the domain.
//!
//! A relation pays that pass at most once per state: the arena keeps
//! the [`Profile`] until its rows next change, so [`Relation::stats`],
//! [`Relation::max_value`] and every door built on them
//! (`FaqQuery::validate`, `QueryStats::of`) read a memo on an unchanged
//! relation. A store that mutates by deltas keeps [`MaintainedStats`]
//! instead and never comes back here.

use crate::delta::AppliedDelta;
use crate::relation::Relation;
use faqs_hypergraph::Var;
use faqs_semiring::Semiring;
use std::collections::HashMap;

/// Per-relation statistics in the planner's vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationStats {
    /// The schema the statistics describe, in tuple order.
    pub schema: Vec<Var>,
    /// Listing size `|R_e|` (the paper's per-factor `N`).
    pub rows: usize,
    /// Distinct values per column, parallel to `schema`.
    pub distinct: Vec<usize>,
}

impl<S: Semiring> Relation<S> {
    /// The relation's [`RelationStats`]: one pass over the sorted arena
    /// the first time anything asks about this state of the relation, a
    /// copy of the memoised answer until its rows next change.
    pub fn stats(&self) -> RelationStats {
        self.profile().stats.clone()
    }

    /// The largest value any listed tuple mentions — `None` for an
    /// empty or nullary relation. Memoised with [`Relation::stats`].
    pub fn max_value(&self) -> Option<u32> {
        self.profile().max_value
    }
}

/// What one scan of a relation's arena learns: the planner's
/// statistics and the largest value any listed tuple mentions (`None`
/// when there is no row or no column) — what
/// [`FaqQuery::validate`](crate::FaqQuery::validate) holds against the
/// domain. Memoised by the arena ([`crate::arena`]), which drops it on
/// every mutation.
pub(crate) struct Profile {
    pub(crate) stats: RelationStats,
    pub(crate) max_value: Option<u32>,
}

impl Profile {
    /// The one scan of `rows` canonical rows under `schema`. Column 0's
    /// distinct count is its number of runs (the arena is sorted on it)
    /// and its maximum is the last row's; columns `1..` are counted
    /// exactly by [`distinct_in_column`] from the value range the sweep
    /// recorded.
    pub(crate) fn scan(schema: &[Var], data: &[u32], rows: usize) -> Profile {
        let arity = schema.len();
        let mut runs = 0usize;
        // (min, max) per column; column 0 needs none.
        let mut range = vec![(u32::MAX, 0u32); arity];
        let mut prev: Option<&[u32]> = None;
        // A nullary relation has no data to chunk (and nothing to learn
        // but `rows`).
        for t in data.chunks_exact(arity.max(1)) {
            if prev.is_none_or(|p| p[0] != t[0]) {
                runs += 1;
            }
            for ((lo, hi), &x) in range.iter_mut().zip(t).skip(1) {
                *lo = (*lo).min(x);
                *hi = (*hi).max(x);
            }
            prev = Some(t);
        }
        let mut distinct = Vec::with_capacity(arity);
        if arity > 0 {
            distinct.push(runs);
            distinct.extend((1..arity).map(|c| distinct_in_column(data, arity, c, range[c])));
        }
        // Column 0 ascends, so the last row holds its maximum.
        let max_value = prev.map(|last| range[1..].iter().fold(last[0], |m, &(_, hi)| m.max(hi)));
        Profile {
            stats: RelationStats {
                schema: schema.to_vec(),
                rows,
                distinct,
            },
            max_value,
        }
    }
}

/// Exact number of distinct values in column `c` of a row-major arena
/// of the given `arity`, all of them in `lo..=hi`: a bitmap over the
/// range when it holds at most 64 values per row (at most one word per
/// row), else a sorted copy of the column with its runs counted.
fn distinct_in_column(data: &[u32], arity: usize, c: usize, (lo, hi): (u32, u32)) -> usize {
    let rows = data.len() / arity;
    if rows == 0 {
        return 0;
    }
    let column = data.iter().skip(c).step_by(arity).copied();
    let words = ((hi - lo) / 64) as usize + 1;
    if words <= rows {
        let mut bits = vec![0u64; words];
        for x in column {
            let off = x - lo;
            bits[(off / 64) as usize] |= 1 << (off % 64);
        }
        bits.iter().map(|w| w.count_ones() as usize).sum()
    } else {
        let mut sorted: Vec<u32> = column.collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }
}

/// Incrementally-maintained [`RelationStats`]: one full build pass,
/// then `O(arity)` updates per changed tuple, so a mutating workload
/// never re-scans a factor to keep the planner's digest current.
///
/// Exactness (not an estimate) comes from multiplicity counting: each
/// per-column map stores how many listed rows carry that value, so
/// deletions know when a distinct count actually drops.
#[derive(Clone, Debug)]
pub struct MaintainedStats {
    schema: Vec<Var>,
    rows: usize,
    /// Multiplicity of each value, per column.
    col_counts: Vec<HashMap<u32, usize>>,
}

impl MaintainedStats {
    /// Builds the counters in one pass over the relation — the only
    /// full scan a maintained factor ever pays.
    pub fn of<S: Semiring>(rel: &Relation<S>) -> Self {
        let schema = rel.schema().to_vec();
        let arity = schema.len();
        let mut s = MaintainedStats {
            schema,
            rows: 0,
            col_counts: vec![HashMap::new(); arity],
        };
        for t in rel.tuples() {
            s.add_row(t);
        }
        s
    }

    /// Folds an applied delta into the counters: `O(arity)` hash
    /// updates per changed tuple, no scan of the relation.
    pub fn apply<S: Semiring>(&mut self, applied: &AppliedDelta<S>) {
        debug_assert_eq!(self.schema.as_slice(), applied.schema());
        for (t, old, new) in applied.changes() {
            match (old.is_zero(), new.is_zero()) {
                (true, false) => self.add_row(t),
                (false, true) => self.remove_row(t),
                // Annotation-only change: the listing is unchanged.
                _ => {}
            }
        }
    }

    /// The counters as a point-in-time [`RelationStats`], identical to
    /// what [`Relation::stats`] would compute from scratch.
    pub fn snapshot(&self) -> RelationStats {
        RelationStats {
            schema: self.schema.clone(),
            rows: self.rows,
            distinct: self.col_counts.iter().map(HashMap::len).collect(),
        }
    }

    fn add_row(&mut self, t: &[u32]) {
        self.rows += 1;
        for (counts, &x) in self.col_counts.iter_mut().zip(t) {
            *counts.entry(x).or_insert(0) += 1;
        }
    }

    fn remove_row(&mut self, t: &[u32]) {
        self.rows -= 1;
        for (counts, &x) in self.col_counts.iter_mut().zip(t) {
            if let Some(c) = counts.get_mut(&x) {
                *c -= 1;
                if *c == 0 {
                    counts.remove(&x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::Count;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn rel(rows: &[[u32; 2]]) -> Relation<Count> {
        Relation::from_pairs(
            vec![v(0), v(1)],
            rows.iter().map(|t| (t.to_vec(), Count(1))),
        )
    }

    #[test]
    fn counts_rows_and_distinct() {
        let r = rel(&[[1, 5], [1, 7], [2, 5], [2, 5], [3, 9]]);
        let s = r.stats();
        assert_eq!(s.rows, 4, "duplicate row collapses");
        assert_eq!(s.distinct, vec![3, 3], "values {{1,2,3}} and {{5,7,9}}");
        // One hot key: column 0 is a single run.
        assert_eq!(rel(&[[1, 0], [1, 1], [1, 2]]).stats().distinct, vec![1, 3]);
    }

    #[test]
    fn maintained_stats_track_full_rescan_under_churn() {
        use crate::delta::RelationDelta;
        // A ternary relation: three column maps under churn.
        let schema = vec![v(0), v(1), v(2)];
        let mut r: Relation<Count> = Relation::from_pairs(
            schema.clone(),
            (0..40u32).map(|i| (vec![i % 5, i % 7, i], Count(1 + u64::from(i) % 3))),
        );
        let mut m = MaintainedStats::of(&r);
        assert_eq!(m.snapshot(), r.stats(), "initial build matches");

        // Deterministic churn: inserts (fresh and accumulating),
        // deletes (including a last-occurrence delete that drops a
        // distinct value), overwrites, delete-to-empty of a value class.
        let mut step = |ops: &mut dyn FnMut(&mut RelationDelta<Count>)| {
            let mut d = RelationDelta::new(schema.clone());
            ops(&mut d);
            let applied = r.apply_delta(&d);
            m.apply(&applied);
            assert_eq!(m.snapshot(), r.stats());
        };
        step(&mut |d| d.insert(vec![9, 9, 100], Count(4)));
        step(&mut |d| {
            d.delete(vec![0, 0, 0]);
            d.insert(vec![0, 0, 0], Count(2)); // re-insert of a deleted tuple
        });
        step(&mut |d| {
            for i in 0..40u32 {
                d.delete(vec![i % 5, i % 7, i]); // drain the original rows
            }
        });
        step(&mut |d| d.delete(vec![0, 0, 0]));
        step(&mut |d| d.delete(vec![9, 9, 100])); // now empty
        assert_eq!(r.len(), 0);
        assert_eq!(m.snapshot().rows, 0);
    }

    #[test]
    fn degenerate_relations() {
        let empty: Relation<Count> = Relation::new([v(0)]);
        let s = empty.stats();
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct, vec![0]);

        let unit: Relation<Count> = Relation::unit();
        let s = unit.stats();
        assert_eq!(s.rows, 1);
        assert!(s.distinct.is_empty());
    }
}
