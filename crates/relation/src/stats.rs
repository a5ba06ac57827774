//! Relation statistics for the cost-based planner, profiled once per
//! relation state.
//!
//! The planner (`faqs-plan`) estimates join and message cardinalities
//! from three per-relation quantities: the listing size, the number of
//! distinct values per column, and the number of distinct *key
//! prefixes* (the selectivity of the prefix-keyed [`JoinIndex`]
//! fast path). All three are gathered in a single pass over the
//! canonical sorted arena ([`Profile::scan`]): prefix counts fall out of
//! comparing each row with its predecessor (equal prefixes are
//! contiguous in a lexicographically sorted arena), and the same sweep
//! records each non-leading column's value range, which decides how
//! that column's distinct values are then counted — in a bitmap over
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
//!
//! [`JoinIndex`]: crate::kernel::JoinIndex

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
    /// Distinct projections onto the schema prefix of length `i + 1` —
    /// `prefix_distinct[0] == distinct[0]`, and the last entry equals
    /// `rows` (rows are duplicate-free).
    pub prefix_distinct: Vec<usize>,
}

impl RelationStats {
    /// The distinct count of variable `v`, if it is in the schema.
    pub fn distinct_of(&self, v: Var) -> Option<usize> {
        self.schema
            .iter()
            .position(|w| *w == v)
            .map(|i| self.distinct[i])
    }

    /// Average rows per distinct key of the schema prefix of length
    /// `len` (clamped to the arity) — the expected group size a
    /// prefix-keyed join probe hits.
    pub fn prefix_selectivity(&self, len: usize) -> f64 {
        let len = len.min(self.prefix_distinct.len());
        if len == 0 || self.rows == 0 {
            return self.rows as f64;
        }
        let groups = self.prefix_distinct[len - 1].max(1);
        self.rows as f64 / groups as f64
    }

    /// The heaviest per-column skew: `rows / min_v distinct(v)` — `1.0`
    /// for key-like columns, large when one column concentrates on few
    /// values (the adversarial instances the stats digest must tell
    /// apart from uniform ones).
    pub fn max_skew(&self) -> f64 {
        if self.rows == 0 || self.distinct.is_empty() {
            return 1.0;
        }
        let min = self.distinct.iter().copied().min().unwrap_or(1).max(1);
        self.rows as f64 / min as f64
    }
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
    /// distinct count falls out of the prefix counter for free (the
    /// arena is sorted on it) and its maximum is the last row's; columns
    /// `1..` are counted exactly by [`distinct_in_column`] from the
    /// value range the sweep recorded.
    pub(crate) fn scan(schema: &[Var], data: &[u32], rows: usize) -> Profile {
        let arity = schema.len();
        let mut prefix_distinct = vec![0usize; arity];
        // (min, max) per column; column 0 needs none.
        let mut range = vec![(u32::MAX, 0u32); arity];
        let mut prev: Option<&[u32]> = None;
        // A nullary relation has no data to chunk (and nothing to learn
        // but `rows`).
        for t in data.chunks_exact(arity.max(1)) {
            // First column where this row departs from its predecessor:
            // every prefix from there on starts a new group.
            let diverge = match prev {
                None => 0,
                Some(p) => t
                    .iter()
                    .zip(p)
                    .position(|(a, b)| a != b)
                    .unwrap_or(arity.saturating_sub(1)),
            };
            for counter in prefix_distinct.iter_mut().skip(diverge) {
                *counter += 1;
            }
            for ((lo, hi), &x) in range.iter_mut().zip(t).skip(1) {
                *lo = (*lo).min(x);
                *hi = (*hi).max(x);
            }
            prev = Some(t);
        }
        let mut distinct = Vec::with_capacity(arity);
        if arity > 0 {
            distinct.push(prefix_distinct[0]);
            distinct.extend((1..arity).map(|c| distinct_in_column(data, arity, c, range[c])));
        }
        // Column 0 ascends, so the last row holds its maximum.
        let max_value = prev.map(|last| range[1..].iter().fold(last[0], |m, &(_, hi)| m.max(hi)));
        Profile {
            stats: RelationStats {
                schema: schema.to_vec(),
                rows,
                distinct,
                prefix_distinct,
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
/// per-column and per-prefix map stores how many listed rows carry that
/// value/prefix, so deletions know when a distinct count actually drops.
#[derive(Clone, Debug)]
pub struct MaintainedStats {
    schema: Vec<Var>,
    rows: usize,
    /// Multiplicity of each value, per column.
    col_counts: Vec<HashMap<u32, usize>>,
    /// Multiplicity of each row prefix of length `l`, for the "middle"
    /// lengths `l ∈ 2..arity` (length 1 is `col_counts[0]`, length
    /// `arity` is `rows` — rows are duplicate-free).
    prefix_counts: Vec<HashMap<Vec<u32>, usize>>,
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
            prefix_counts: vec![HashMap::new(); arity.saturating_sub(2)],
        };
        for t in rel.tuples() {
            s.add_row(t);
        }
        s
    }

    /// The schema the counters describe.
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }

    /// Current listing size.
    pub fn rows(&self) -> usize {
        self.rows
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
        let arity = self.schema.len();
        let mut prefix_distinct = Vec::with_capacity(arity);
        for l in 1..=arity {
            prefix_distinct.push(if l == arity {
                self.rows
            } else if l == 1 {
                self.col_counts[0].len()
            } else {
                self.prefix_counts[l - 2].len()
            });
        }
        RelationStats {
            schema: self.schema.clone(),
            rows: self.rows,
            distinct: self.col_counts.iter().map(HashMap::len).collect(),
            prefix_distinct,
        }
    }

    fn add_row(&mut self, t: &[u32]) {
        self.rows += 1;
        for (counts, &x) in self.col_counts.iter_mut().zip(t) {
            *counts.entry(x).or_insert(0) += 1;
        }
        let arity = self.schema.len();
        for l in 2..arity {
            *self.prefix_counts[l - 2]
                .entry(t[..l].to_vec())
                .or_insert(0) += 1;
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
        let arity = self.schema.len();
        for l in 2..arity {
            if let Some(c) = self.prefix_counts[l - 2].get_mut(&t[..l]) {
                *c -= 1;
                if *c == 0 {
                    self.prefix_counts[l - 2].remove(&t[..l]);
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
    fn counts_rows_distinct_and_prefixes() {
        let r = rel(&[[1, 5], [1, 7], [2, 5], [2, 5], [3, 9]]);
        let s = r.stats();
        assert_eq!(s.rows, 4, "duplicate row collapses");
        assert_eq!(s.distinct, vec![3, 3], "values {{1,2,3}} and {{5,7,9}}");
        assert_eq!(s.prefix_distinct, vec![3, 4]);
        assert_eq!(s.distinct_of(v(1)), Some(3));
        assert_eq!(s.distinct_of(v(9)), None);
    }

    #[test]
    fn skew_and_selectivity() {
        // One hot key: 4 rows share x0 = 1.
        let r = rel(&[[1, 0], [1, 1], [1, 2], [1, 3]]);
        let s = r.stats();
        assert_eq!(s.max_skew(), 4.0);
        assert_eq!(s.prefix_selectivity(1), 4.0, "one group of four rows");
        assert_eq!(s.prefix_selectivity(2), 1.0, "full rows are unique");

        let uniform = rel(&[[0, 0], [1, 1], [2, 2], [3, 3]]);
        assert_eq!(uniform.stats().max_skew(), 1.0);
    }

    #[test]
    fn maintained_stats_track_full_rescan_under_churn() {
        use crate::delta::RelationDelta;
        // A ternary relation exercises the middle prefix maps too.
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
        assert_eq!(m.rows(), 0);
    }

    #[test]
    fn degenerate_relations() {
        let empty: Relation<Count> = Relation::new([v(0)]);
        let s = empty.stats();
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct, vec![0]);
        assert_eq!(s.max_skew(), 1.0);

        let unit: Relation<Count> = Relation::unit();
        let s = unit.stats();
        assert_eq!(s.rows, 1);
        assert!(s.distinct.is_empty());
        assert_eq!(s.prefix_selectivity(0), 1.0);
        // Regression: asking for a longer prefix than the arity must
        // clamp, not underflow (nullary relations have no prefixes).
        assert_eq!(s.prefix_selectivity(1), 1.0);
        let single = rel(&[[1, 2], [1, 3]]);
        assert_eq!(
            single.stats().prefix_selectivity(7),
            1.0,
            "clamped to arity"
        );
    }
}
