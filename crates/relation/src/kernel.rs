//! The columnar relational-algebra kernel: flat-arena row utilities, the
//! binary searches over a sorted arena (one row, or the run of rows
//! sharing a key prefix) and the sort-merge / galloping operator
//! implementations behind [`Relation`]'s public API.
//!
//! Everything here works on *tuple views* — `&[u32]` slices into a
//! relation's row-major arena — so the steady-state join/semijoin path
//! performs no per-tuple heap allocation: scratch key buffers are
//! reused across rows and output arenas grow in bulk.

use crate::relation::Relation;
use faqs_hypergraph::Var;
use faqs_semiring::{Aggregate, Semiring};
use std::cmp::Ordering;
use std::ops::Range;

/// One row of a flat `arity`-strided arena.
#[inline]
pub(crate) fn row(data: &[u32], arity: usize, i: usize) -> &[u32] {
    &data[i * arity..i * arity + arity]
}

/// Lexicographic comparison of the projections of two rows onto `pos`.
#[inline]
fn cmp_projected(a: &[u32], b: &[u32], pos: &[usize]) -> Ordering {
    for &p in pos {
        match a[p].cmp(&b[p]) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

/// Binary search for `tuple` among the `n` sorted rows of an
/// `arity`-strided arena: `Ok(row)` on a hit, `Err(insertion_row)`
/// otherwise. Shared by [`Relation::get`]/`insert`/`delete` and
/// [`fold_keyed`]'s fallback.
/// A one-column arena is searched as the flat `u32` array it is: the
/// per-step row slice costs more than the scalar compare there.
pub(crate) fn binary_search_row(
    data: &[u32],
    arity: usize,
    n: usize,
    tuple: &[u32],
) -> Result<usize, usize> {
    if arity == 1 {
        return data[..n].binary_search(&tuple[0]);
    }
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match row(data, arity, mid).cmp(tuple) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Canonicalises a freshly gathered arena: sorts rows lexicographically,
/// `combine`-accumulates duplicate rows, and drops rows whose combined
/// annotation is the semiring zero. This is the single sort behind
/// `from_pairs`, `from_columns`, `reorder` and the general projection path —
/// no intermediate `HashMap` is ever built.
pub(crate) fn sort_merge_rows<S: Semiring>(
    arity: usize,
    data: Vec<u32>,
    values: Vec<S>,
    mut combine: impl FnMut(&mut S, &S),
) -> (Vec<u32>, Vec<S>) {
    let n = values.len();
    if arity == 0 {
        // Every row is the empty tuple: fold all annotations into one.
        let mut it = values.into_iter();
        let Some(mut acc) = it.next() else {
            return (Vec::new(), Vec::new());
        };
        for v in it {
            combine(&mut acc, &v);
        }
        return if acc.is_zero() {
            (Vec::new(), Vec::new())
        } else {
            (Vec::new(), vec![acc])
        };
    }

    if is_sorted_strict(&data, arity, n) {
        // Already canonical: no sort, no copy — at most one zero sweep.
        let (mut data, mut values) = (data, values);
        if values.iter().any(S::is_zero) {
            compact_zeros(arity, &mut data, &mut values);
        }
        return (data, values);
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        row(&data, arity, a as usize).cmp(row(&data, arity, b as usize))
    });

    let mut out_data: Vec<u32> = Vec::with_capacity(data.len());
    let mut out_values: Vec<S> = Vec::with_capacity(n);
    let mut any_zero = false;
    for &i in &order {
        let r = row(&data, arity, i as usize);
        if let Some(last) = out_values.last_mut() {
            if &out_data[out_data.len() - arity..] == r {
                combine(last, &values[i as usize]);
                any_zero |= last.is_zero();
                continue;
            }
        }
        out_data.extend_from_slice(r);
        let v = values[i as usize].clone();
        any_zero |= v.is_zero();
        out_values.push(v);
    }
    if any_zero {
        compact_zeros(arity, &mut out_data, &mut out_values);
    }
    (out_data, out_values)
}

/// Whether the arena's rows are already strictly increasing (sorted and
/// duplicate-free) — the fast path that lets pre-sorted construction
/// (e.g. `Relation::full`, the brute-force enumeration) skip the sort.
fn is_sorted_strict(data: &[u32], arity: usize, n: usize) -> bool {
    (1..n).all(|i| row(data, arity, i - 1) < row(data, arity, i))
}

/// Removes rows annotated with the semiring zero, in place.
pub(crate) fn compact_zeros<S: Semiring>(arity: usize, data: &mut Vec<u32>, values: &mut Vec<S>) {
    let mut kept = 0usize;
    for i in 0..values.len() {
        if values[i].is_zero() {
            continue;
        }
        if kept != i {
            values.swap(kept, i);
            data.copy_within(i * arity..(i + 1) * arity, kept * arity);
        }
        kept += 1;
    }
    values.truncate(kept);
    data.truncate(kept * arity);
}

/// [`Relation::union_all`]: merges canonical same-schema arenas into
/// one; a tuple several parts hold sums in part order, and a zero sum
/// is not a row. One column whose values span at most [`dense_span`] of
/// the rows is summed in one counting pass ([`merge_counted`]); wider
/// rows and a sparse column are merged by comparison
/// ([`merge_compared`]).
pub(crate) fn merge_parts<S: Semiring>(arity: usize, parts: &[Relation<S>]) -> (Vec<u32>, Vec<S>) {
    if arity == 0 {
        let mut values = parts.iter().flat_map(|p| p.raw_values());
        let sum = values.next().map(|first| {
            let mut sum = first.clone();
            values.for_each(|v| sum.add_assign(v));
            sum
        });
        return (
            Vec::new(),
            sum.into_iter().filter(|v| !v.is_zero()).collect(),
        );
    }
    let parts: Vec<(&[u32], &[S])> = parts
        .iter()
        .map(|p| (p.raw_data(), p.raw_values()))
        .collect();
    let rows = parts.iter().map(|(_, values)| values.len()).sum::<usize>();
    // Each part is sorted, so its first and last rows bound its leads.
    let held = parts.iter().filter(|(_, values)| !values.is_empty());
    let lo = held.clone().map(|(data, _)| data[0]).min();
    let hi = held.map(|(data, _)| data[data.len() - arity]).max();
    match (lo, hi) {
        (Some(lo), Some(hi)) if arity == 1 && u64::from(hi - lo) <= dense_span(rows) => {
            merge_counted(&parts, lo, hi, rows)
        }
        _ => merge_compared(arity, &parts, rows),
    }
}

/// [`merge_parts`] by comparison: each step takes the least front row
/// among the parts (the earliest part on a tie) and `⊕`s in the equal
/// front rows of the later parts, in part order. The fronts' leading
/// columns sit in one array, so a step is a scan of `parts.len()`
/// integers, and whole rows are compared only among fronts that share
/// the least leading value.
fn merge_compared<S: Semiring>(
    arity: usize,
    parts: &[(&[u32], &[S])],
    rows: usize,
) -> (Vec<u32>, Vec<S>) {
    let row = |j: usize, i: usize| &parts[j].0[i * arity..(i + 1) * arity];
    // The leading value of part `j`'s row `i`; `u64::MAX` past its end.
    let lead = |j: usize, i: usize| {
        parts[j]
            .0
            .get(i * arity)
            .map_or(u64::MAX, |&x| u64::from(x))
    };
    let mut at = vec![0usize; parts.len()];
    let mut leads: Vec<u64> = (0..parts.len()).map(|j| lead(j, 0)).collect();
    let mut data = Vec::with_capacity(rows * arity);
    let mut values = Vec::with_capacity(rows);
    loop {
        // The earliest part holding the least front row, and whether a
        // later part's front shares its leading value.
        let (mut first, mut shared) = (0, false);
        for j in 1..parts.len() {
            match leads[j].cmp(&leads[first]) {
                Ordering::Less => (first, shared) = (j, false),
                Ordering::Equal if leads[j] != u64::MAX => {
                    shared = true;
                    if row(j, at[j])[1..] < row(first, at[first])[1..] {
                        first = j;
                    }
                }
                _ => {}
            }
        }
        let least = leads[first];
        if least == u64::MAX {
            break;
        }
        let least_row = row(first, at[first]);
        let mut sum = parts[first].1[at[first]].clone();
        let later = if shared { first + 1 } else { parts.len() };
        for j in later..parts.len() {
            if leads[j] == least && row(j, at[j]) == least_row {
                sum.add_assign(&parts[j].1[at[j]]);
                at[j] += 1;
                leads[j] = lead(j, at[j]);
            }
        }
        if !sum.is_zero() {
            data.extend_from_slice(least_row);
            values.push(sum);
        }
        at[first] += 1;
        leads[first] = lead(first, at[first]);
    }
    (data, values)
}

/// [`merge_parts`] over `rows` rows of one column whose values lie in
/// `lo..=hi`: a row is its value, so one pass over the parts in order folds each
/// into a direct-address table of sums — in part order.
fn merge_counted<S: Semiring>(
    parts: &[(&[u32], &[S])],
    lo: u32,
    hi: u32,
    rows: usize,
) -> (Vec<u32>, Vec<S>) {
    let mut sums: Vec<Option<S>> = vec![None; (hi - lo) as usize + 1];
    for (part_data, part_values) in parts {
        for (&x, v) in part_data.iter().zip(*part_values) {
            match &mut sums[(x - lo) as usize] {
                Some(sum) => sum.add_assign(v),
                empty => *empty = Some(v.clone()),
            }
        }
    }
    let (mut data, mut values) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    for (k, sum) in sums.into_iter().enumerate() {
        if let Some(sum) = sum.filter(|sum| !sum.is_zero()) {
            data.push(lo + k as u32);
            values.push(sum);
        }
    }
    (data, values)
}

/// Galloping (exponential + binary) search over a flat `arity`-strided
/// sorted arena: the least `i ≥ lo` with `row(i) ≥ target`, or `n`.
pub(crate) fn gallop_rows(
    data: &[u32],
    arity: usize,
    mut lo: usize,
    n: usize,
    target: &[u32],
) -> usize {
    if lo >= n || row(data, arity, lo).cmp(target) != Ordering::Less {
        return lo;
    }
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < n && row(data, arity, hi).cmp(target) == Ordering::Less {
        lo = hi;
        step <<= 1;
        hi = (lo + step).min(n);
    }
    // Invariant: row(lo) < target ≤ row(hi) (or hi == n).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if row(data, arity, mid).cmp(target) == Ordering::Less {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The run of rows, within `rows` of a sorted `arity`-strided arena,
/// whose first `key.len()` columns equal `key`: two binary searches,
/// since the arena is sorted on every prefix of its columns. An empty
/// key's run is all of `rows`. A missed key's run is empty and starts
/// where the key would go, so a caller probing keys in ascending order
/// can search each one onward from the end of the last.
pub(crate) fn key_run(data: &[u32], arity: usize, rows: Range<usize>, key: &[u32]) -> Range<usize> {
    let prefix = |i: usize| &data[i * arity..i * arity + key.len()];
    // The least row from `lo` on whose prefix is at or above `key`, or
    // with `past`, above it.
    let first = |mut lo: usize, past: bool| {
        let mut hi = rows.end;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match prefix(mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal if past => lo = mid + 1,
                _ => hi = mid,
            }
        }
        lo
    };
    let start = first(rows.start, false);
    start..first(start, true)
}

/// How wide a value range (`max − min`) one column of `rows` rows may
/// span and still be addressed directly ([`KeyLookup::Table`],
/// [`counting_order`], [`merge_counted`]): a few words per row plus a
/// page, so filling the array costs no more than the scan it serves.
const fn dense_span(rows: usize) -> u64 {
    4 * rows as u64 + 1024
}

/// How [`fold_keyed`] finds a bag row's entry in one message: chosen
/// once from the two schemas, then asked once per bag row.
enum KeyLookup {
    /// `(k, at)`: the message's schema is the bag's first `k` columns in
    /// order, so both arenas are sorted on the key and one cursor that
    /// only moves forward (galloping when it lags) serves the whole
    /// scan. `k = 0` is the nullary message that scales every row.
    Cursor(usize, usize),
    /// `(col, min, rows)`: one column elsewhere, spanning at most
    /// [`dense_span`]; `rows[value − min]` is the message row plus one.
    Table(usize, u32, Vec<u32>),
    /// `(pos, key)`: any other key — the bag row's projection onto `pos`,
    /// gathered into `key` and binary-searched in the message's arena.
    Search(Vec<usize>, Vec<u32>),
}

/// What [`KeyLookup::find`] found; `Exhausted` when the cursor ran off
/// its message, so that no later bag row has an entry either.
enum Hit {
    Row(usize),
    Miss,
    Exhausted,
}

impl KeyLookup {
    fn new<S: Semiring>(bag: &[Var], message: &Relation<S>) -> KeyLookup {
        let vars = message.schema();
        let at = |v| bag.iter().position(|w| w == v);
        let pos: Vec<usize> = vars.iter().map_while(at).collect();
        assert!(
            pos.len() == vars.len(),
            "a folded message lists only variables of the bag: {vars:?} into {bag:?}"
        );
        if pos.iter().enumerate().all(|(i, &p)| p == i) {
            return KeyLookup::Cursor(pos.len(), 0);
        }
        // A one-column message is its own sorted key column.
        let keys = message.raw_data();
        if let (&[col], Some(&min), Some(&max)) = (&pos[..], keys.first(), keys.last()) {
            if u64::from(max - min) <= dense_span(keys.len()) {
                let mut rows = vec![0u32; (max - min) as usize + 1];
                for (j, x) in keys.iter().enumerate() {
                    rows[(x - min) as usize] = j as u32 + 1;
                }
                return KeyLookup::Table(col, min, rows);
            }
        }
        KeyLookup::Search(pos, vec![0; vars.len()])
    }

    /// The entry for bag row `t` in the message's `n` rows `data`.
    #[inline]
    fn find(&mut self, t: &[u32], data: &[u32], n: usize) -> Hit {
        let hit = |found: Option<usize>| found.map_or(Hit::Miss, Hit::Row);
        match self {
            KeyLookup::Cursor(k, at) => {
                *at = gallop_rows(data, *k, *at, n, &t[..*k]);
                if *at == n {
                    return Hit::Exhausted;
                }
                hit((row(data, *k, *at) == &t[..*k]).then_some(*at))
            }
            KeyLookup::Table(col, min, rows) => {
                let off = t[*col].checked_sub(*min).map(|off| off as usize);
                hit(off.and_then(|off| (*rows.get(off)? as usize).checked_sub(1)))
            }
            KeyLookup::Search(pos, key) => {
                key.iter_mut().zip(pos.iter()).for_each(|(k, &p)| *k = t[p]);
                hit(binary_search_row(data, key.len(), n, key).ok())
            }
        }
    }
}

/// [`Relation::fold_keyed`]: one scan over `bag`, survivors compacted in
/// place in their order — so the result is canonical without a sort.
pub(crate) fn fold_keyed<S: Semiring>(
    mut bag: Relation<S>,
    messages: &[&Relation<S>],
) -> Relation<S> {
    if messages.is_empty() {
        // A leaf: nothing to multiply in, so no scan (and the arena's
        // memo survives).
        return bag;
    }
    let schema = bag.schema();
    let mut lookups: Vec<_> = messages
        .iter()
        .map(|m| (KeyLookup::new(schema, m), m.raw_data(), m.raw_values()))
        .collect();
    let arity = schema.len();
    let (data, values) = bag.parts_mut();
    let mut kept = 0usize;
    'rows: for i in 0..values.len() {
        let mut v = values[i].clone();
        for (lookup, m_data, m_values) in lookups.iter_mut() {
            match lookup.find(&data[i * arity..(i + 1) * arity], m_data, m_values.len()) {
                Hit::Row(j) => v = v.mul(&m_values[j]),
                Hit::Miss => continue 'rows,
                Hit::Exhausted => break 'rows,
            }
            if v.is_zero() {
                continue 'rows;
            }
        }
        values[kept] = v;
        data.copy_within(i * arity..(i + 1) * arity, kept * arity);
        kept += 1;
    }
    values.truncate(kept);
    data.truncate(kept * arity);
    bag
}

/// Projection with `combine`-aggregation of collapsed rows. When `pos`
/// is a schema prefix the canonical order already groups equal keys
/// contiguously and a single merge scan suffices; otherwise the
/// projected rows are gathered and canonicalised with one sort.
pub(crate) fn project_with<S: Semiring>(
    rel: &Relation<S>,
    vars: &[Var],
    pos: &[usize],
    mut combine: impl FnMut(&mut S, &S),
) -> Relation<S> {
    let k = pos.len();
    let mut out = Relation::new(vars.to_vec());
    let is_prefix = pos.iter().enumerate().all(|(i, &p)| p == i);
    if is_prefix {
        let (out_data, out_values) = out.parts_mut();
        let mut any_zero = false;
        for (t, v) in rel.iter() {
            let keyed = &t[..k];
            if let Some(last) = out_values.last_mut() {
                // `k == 0` first: every row is the one empty key, and
                // the zero-length slice compare is not free.
                if k == 0 || &out_data[out_data.len() - k..] == keyed {
                    combine(last, v);
                    any_zero |= last.is_zero();
                    continue;
                }
            }
            out_data.extend_from_slice(keyed);
            let v = v.clone();
            any_zero |= v.is_zero();
            out_values.push(v);
        }
        if any_zero {
            let arity = k;
            compact_zeros(arity, out_data, out_values);
        }
        return out;
    }

    let mut data: Vec<u32> = Vec::with_capacity(rel.len() * k);
    let mut values: Vec<S> = Vec::with_capacity(rel.len());
    for (t, v) in rel.iter() {
        data.extend(pos.iter().map(|&p| t[p]));
        values.push(v.clone());
    }
    let (data, values) = sort_merge_rows(k, data, values, combine);
    out.set_parts(data, values);
    out
}

/// How many trailing columns of `schema` hold `nest`'s variables in
/// *layout order* — the variables of `nest` (innermost first) that occur
/// in `schema`, outermost first, so the innermost is the last column —
/// or `None` when one of them sits elsewhere and the rows must be
/// regrouped before one scan can fold the nest. The leading (kept)
/// columns may come in any order; a nest variable absent from the
/// schema was aggregated out earlier and is skipped.
pub(crate) fn trailing_nest(schema: &[Var], nest: &[(Var, Aggregate)]) -> Option<usize> {
    let mut kept = schema.len();
    for (v, _) in nest {
        if kept > 0 && schema[kept - 1] == *v {
            kept -= 1;
        } else if schema[..kept].contains(v) {
            return None;
        }
    }
    Some(schema.len() - kept)
}

/// Aggregates a nest of variables out of rows in layout order (see
/// [`trailing_nest`]): one open partial per nest level, each level
/// folding one trailing column under its own operator.
///
/// When the rows leave a level's group, the level closes: its partial
/// folds into the level above under *that* level's operator — level
/// 0's becomes an output row — unless it is the semiring zero, which is
/// dropped exactly where the listing representation drops the row
/// between two single-variable aggregations (so a `Product` or `Max`
/// level above a cancelling `Sum` sees the same operands). Every group
/// thus folds in ascending row order, as a chain of sorted-prefix
/// [`project_with`] scans does. It has two drivers: a stored arena
/// ([`NestFold::fold_rows`], which compares each row's group key with
/// the one before, column by column at a width fixed when the scan
/// compiles, and folds each innermost group into a plain accumulator),
/// and the generic join (`generic_join_aggregated`, which folds each binding
/// in with [`NestFold::fold`] and knows where a group ends — with the
/// loop that binds its level's variable — so it calls
/// [`NestFold::close`] itself).
pub(crate) struct NestFold<S: Semiring> {
    /// The kept columns' variables.
    schema: Vec<Var>,
    /// One row per kept prefix whose nest folded to a non-zero, listed
    /// here and published as a relation once, by [`NestFold::finish`].
    data: Vec<u32>,
    values: Vec<S>,
    /// `(operator, open partial)` per trailing column, outermost first:
    /// level `j` folds column `kept + j`.
    levels: Vec<(Aggregate, Option<S>)>,
}

impl<S: Semiring> NestFold<S> {
    /// A fold keeping the leading `kept` columns and aggregating one
    /// trailing column per entry of `ops` (outermost first).
    pub(crate) fn new(kept: Vec<Var>, ops: Vec<Aggregate>) -> Self {
        NestFold {
            schema: kept,
            data: Vec::new(),
            values: Vec::new(),
            levels: ops.into_iter().map(|op| (op, None)).collect(),
        }
    }

    /// Folds a canonical arena whose columns are the kept ones, then one
    /// per level, in one scan: rows that agree on all but the innermost
    /// column are that level's whole group, so their values fold into a
    /// plain accumulator, and the first column where the next row
    /// differs says which levels close.
    ///
    /// The group key — every column but the innermost — is compared
    /// column by column, never as a slice: the one scan body
    /// ([`NestFold::scan`]) is instantiated for a one-column key
    /// ([`Fixed`], the hash-split shard shape `[x0, xi]`), where the
    /// compare is one integer test, and once over a width read at run
    /// time for every other key. An innermost `Sum` is matched once per
    /// call, not per row ([`NestFold::scan_under`]).
    pub(crate) fn fold_rows(&mut self, data: &[u32], values: &[S]) {
        let Some(&(op, _)) = self.levels.last() else {
            // No level: every row is its own group.
            self.data.extend_from_slice(data);
            self.values.extend_from_slice(values);
            return;
        };
        match self.schema.len() + self.levels.len() - 1 {
            1 => self.scan_under(Fixed::<1>, op, data, values),
            width => self.scan_under(width, op, data, values),
        }
    }

    /// [`NestFold::scan`] folding under `op`. A `Sum` — what a shard
    /// sums out — is matched once per call, so its per-row fold is `⊕`
    /// itself; any other operator is matched per row.
    fn scan_under<K: KeyWidth>(&mut self, key: K, op: Aggregate, data: &[u32], values: &[S]) {
        match op {
            Aggregate::Sum => self.scan(key, data, values, |a, v| a.fold(Aggregate::Sum, v)),
            op => self.scan(key, data, values, |a, v| a.fold(op, v)),
        }
    }

    /// The one scan of [`NestFold::fold_rows`]: rows of `key` + 1
    /// columns, each innermost group folded with `fold`.
    #[inline]
    fn scan<K: KeyWidth>(
        &mut self,
        key: K,
        data: &[u32],
        values: &[S],
        fold: impl Fn(&S, &S) -> S,
    ) {
        let (kept, width) = (self.schema.len(), key.width());
        let mut rows = data.chunks_exact(width + 1).zip(values);
        let Some((row, value)) = rows.next() else {
            return;
        };
        let (mut head, mut acc) = (&row[..width], value.clone());
        for (row, value) in rows {
            // A level's group is keyed by the columns before its own.
            match key.first_difference(head, row) {
                None => acc = fold(&acc, value),
                Some(c) => {
                    self.fold(head, acc);
                    self.close((c + 1).saturating_sub(kept), head);
                    (head, acc) = (&row[..width], value.clone());
                }
            }
        }
        self.fold(head, acc);
        self.close(0, head);
    }

    /// Folds `value` into the innermost level's open partial; with no
    /// level, lists it under `prefix`'s kept columns.
    #[inline]
    pub(crate) fn fold(&mut self, prefix: &[u32], value: S) {
        match self.levels.last_mut() {
            Some((op, partial)) => fold_into(partial, *op, value),
            None => self.list(prefix, value),
        }
    }

    /// Closes levels `first..`, innermost first, once their groups are
    /// complete: a zero partial is dropped, any other folds into the
    /// level above under that level's operator, and level 0's lists
    /// under `prefix`'s kept columns.
    pub(crate) fn close(&mut self, first: usize, prefix: &[u32]) {
        for j in (first..self.levels.len()).rev() {
            let Some(partial) = self.levels[j].1.take().filter(|p| !p.is_zero()) else {
                continue;
            };
            match j.checked_sub(1) {
                Some(above) => {
                    let (op, acc) = &mut self.levels[above];
                    fold_into(acc, *op, partial);
                }
                None => self.list(prefix, partial),
            }
        }
    }

    /// Appends one output row; rows come in order, so the listing stays
    /// canonical.
    fn list(&mut self, prefix: &[u32], value: S) {
        self.data.extend_from_slice(&prefix[..self.schema.len()]);
        self.values.push(value);
    }

    /// The relation over the kept columns; every level has closed.
    pub(crate) fn finish(self) -> Relation<S> {
        debug_assert!(self.levels.iter().all(|(_, open)| open.is_none()));
        let mut out = Relation::new(self.schema);
        out.set_parts(self.data, self.values);
        out
    }
}

/// The width of [`NestFold::scan`]'s group key: a compile-time constant
/// ([`Fixed`]) or a `usize` read at run time.
trait KeyWidth: Copy {
    fn width(self) -> usize;

    /// The first of the key's columns where rows `a` and `b` differ.
    #[inline]
    fn first_difference(self, a: &[u32], b: &[u32]) -> Option<usize> {
        let (a, b) = (&a[..self.width()], &b[..self.width()]);
        (0..a.len()).find(|&c| a[c] != b[c])
    }
}

/// A key `W` columns wide, known when the scan compiles.
#[derive(Clone, Copy)]
struct Fixed<const W: usize>;

impl<const W: usize> KeyWidth for Fixed<W> {
    #[inline]
    fn width(self) -> usize {
        W
    }
}

impl KeyWidth for usize {
    #[inline]
    fn width(self) -> usize {
        self
    }
}

/// `acc ← acc op value`, or `value` when nothing folded in yet.
#[inline]
fn fold_into<S: Semiring>(acc: &mut Option<S>, op: Aggregate, value: S) {
    *acc = Some(match acc.take() {
        Some(a) => a.fold(op, &value),
        None => value,
    });
}

/// [`layout_order`] without a comparison. When `trailing` ascends as
/// `kept` does, rows that tie on the kept columns already stand in
/// layout order in the sorted arena, so one stable counting pass per
/// kept column, least significant first, yields the permutation. `None`
/// when it does not, or a kept column spans more than [`dense_span`].
fn counting_order<S: Semiring>(
    rel: &Relation<S>,
    kept: &[usize],
    trailing: &[usize],
) -> Option<Vec<u32>> {
    if !trailing.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    let (n, arity, data) = (rel.len(), rel.schema().len(), rel.raw_data());
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut next = vec![0u32; n];
    for &c in kept.iter().rev() {
        let column = (0..n).map(|i| data[i * arity + c]);
        let (lo, hi) = (column.clone().min().unwrap_or(0), column.max().unwrap_or(0));
        if u64::from(hi - lo) > dense_span(n) {
            return None;
        }
        // `slots[x − lo]`: where the next row valued `x` goes.
        let slot = |i: u32| (data[i as usize * arity + c] - lo) as usize;
        let mut slots = vec![0u32; (hi - lo) as usize + 2];
        order.iter().for_each(|&i| slots[slot(i) + 1] += 1);
        (1..slots.len()).for_each(|x| slots[x] += slots[x - 1]);
        for &i in &order {
            next[slots[slot(i)] as usize] = i;
            slots[slot(i)] += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    Some(order)
}

/// `rel`'s row ids sorted on the projection onto `kept` (ascending
/// positions) then `trailing`: counted, else one comparison sort (no
/// ties: the columns cover distinct rows).
fn layout_order<S: Semiring>(rel: &Relation<S>, kept: &[usize], trailing: &[usize]) -> Vec<u32> {
    counting_order(rel, kept, trailing).unwrap_or_else(|| {
        let pos = [kept, trailing].concat();
        let tuple = |i: u32| rel.tuple_at(i as usize);
        let mut order: Vec<u32> = (0..rel.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| cmp_projected(tuple(a), tuple(b), &pos));
        order
    })
}

/// [`Relation::aggregate_out_many`]: drives one [`NestFold`] over
/// `rel`'s rows — as they stand when [`trailing_nest`] finds them in
/// layout order, otherwise copied out in [`layout_order`]'s permutation
/// of the row ids, however many variables go.
pub(crate) fn aggregate_nest<S: Semiring>(
    rel: Relation<S>,
    nest: &[(Var, Aggregate)],
) -> Relation<S> {
    let in_layout = match trailing_nest(rel.schema(), nest) {
        Some(0) => return rel,
        found => found.is_some(),
    };
    // Layout order: the kept columns as they stand, then the nest's
    // variables outermost first.
    let schema = rel.schema();
    let column = |(v, op): &(Var, Aggregate)| Some((schema.iter().position(|w| w == v)?, *op));
    let (trailing, ops): (Vec<usize>, Vec<Aggregate>) =
        nest.iter().rev().filter_map(column).unzip();
    let kept: Vec<usize> = (0..schema.len())
        .filter(|c| !trailing.contains(c))
        .collect();

    let mut fold = NestFold::new(kept.iter().map(|&c| schema[c]).collect(), ops);
    let (data, values) = (rel.raw_data(), rel.raw_values());
    if in_layout {
        fold.fold_rows(data, values);
    } else {
        // The rows regrouped into layout order, columns and all.
        let (arity, order) = (schema.len(), layout_order(&rel, &kept, &trailing));
        let pos = [kept.as_slice(), trailing.as_slice()].concat();
        let mut moved = Vec::with_capacity(data.len());
        for &i in &order {
            let t = row(data, arity, i as usize);
            moved.extend(pos.iter().map(|&p| t[p]));
        }
        let moved_values: Vec<S> = order.iter().map(|&i| values[i as usize].clone()).collect();
        fold.fold_rows(&moved, &moved_values);
    }
    fold.finish()
}

/// Signed three-way merge `base ⊕ plus ⊖ minus` over three same-schema
/// sorted arenas, in one linear pass. Absent tuples count as zero on
/// every side (a `minus` hit on an absent tuple asks the semiring to
/// cancel out of zero — exact in F₂, a refusal in ℕ). Returns the new
/// canonical arena, or `None` as soon as one [`Semiring::checked_sub`]
/// cannot represent its cancellation.
pub(crate) fn merge_signed<S: Semiring>(
    base: &Relation<S>,
    plus: &Relation<S>,
    minus: &Relation<S>,
) -> Option<(Vec<u32>, Vec<S>)> {
    debug_assert_eq!(base.schema(), plus.schema());
    debug_assert_eq!(base.schema(), minus.schema());
    let (nb, np, nm) = (base.len(), plus.len(), minus.len());
    let mut data: Vec<u32> = Vec::with_capacity((nb + np) * base.schema().len());
    let mut values: Vec<S> = Vec::with_capacity(nb + np);
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < nb || j < np || k < nm {
        // Smallest tuple among the three fronts.
        let mut t: &[u32] = &[];
        let mut have = false;
        if i < nb {
            t = base.tuple_at(i);
            have = true;
        }
        if j < np {
            let u = plus.tuple_at(j);
            if !have || u < t {
                t = u;
            }
            have = true;
        }
        if k < nm {
            let u = minus.tuple_at(k);
            if !have || u < t {
                t = u;
            }
        }
        let mut v = S::zero();
        if i < nb && base.tuple_at(i) == t {
            v = base.value_at(i).clone();
            i += 1;
        }
        if j < np && plus.tuple_at(j) == t {
            v.add_assign(plus.value_at(j));
            j += 1;
        }
        if k < nm && minus.tuple_at(k) == t {
            v = v.checked_sub(minus.value_at(k))?;
            k += 1;
        }
        if !v.is_zero() {
            data.extend_from_slice(t);
            values.push(v);
        }
    }
    Some((data, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::{Count, Prob};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn rel(schema: &[u32], rows: &[(&[u32], u64)]) -> Relation<Count> {
        Relation::from_pairs(
            schema.iter().map(|i| v(*i)).collect(),
            rows.iter().map(|(t, c)| (t.to_vec(), Count(*c))),
        )
    }

    #[test]
    fn key_run_finds_each_prefix() {
        let r = rel(
            &[0, 1, 2],
            &[
                (&[1, 5, 0], 1),
                (&[2, 3, 1], 1),
                (&[2, 3, 4], 1),
                (&[2, 7, 0], 1),
                (&[4, 0, 0], 1),
            ],
        );
        let run = |key: &[u32]| key_run(r.raw_data(), 3, 0..r.len(), key);
        assert_eq!(run(&[2]), 1..4);
        assert_eq!(run(&[2, 3]), 1..3);
        assert_eq!(run(&[2, 3, 4]), 2..3);
        assert_eq!(run(&[4, 0]), 4..5);
        // A miss is empty and sits where the key would go: below,
        // between and above the rows.
        assert_eq!(run(&[0]), 0..0);
        assert_eq!(run(&[2, 5]), 3..3);
        assert_eq!(run(&[u32::MAX, 0, 0]), 5..5);
        // Only `rows` is searched.
        assert_eq!(key_run(r.raw_data(), 3, 2..5, &[2]), 2..4);
        assert_eq!(key_run(r.raw_data(), 3, 4..5, &[2]), 4..4);
    }

    #[test]
    fn nullary_key_groups_everything() {
        let r = rel(&[0], &[(&[1], 1), (&[2], 1)]);
        assert_eq!(key_run(r.raw_data(), 1, 0..r.len(), &[]), 0..2);
        let empty = rel(&[0], &[]);
        assert_eq!(key_run(empty.raw_data(), 1, 0..0, &[]), 0..0);
        assert_eq!(key_run(empty.raw_data(), 1, 0..0, &[3]), 0..0);
        // A nullary arena holds no data, only its one row's value.
        let unit: Relation<Count> = Relation::unit();
        assert_eq!(key_run(unit.raw_data(), 0, 0..unit.len(), &[]), 0..1);
    }

    #[test]
    fn sort_merge_accumulates_and_drops_zeros() {
        // Rows [2],[1],[2],[1]: duplicates ⊕-collapse after one sort.
        let data = vec![2, 1, 2, 1];
        let values = vec![Count(1), Count(2), Count(3), Count(4)];
        let (d, vals) = sort_merge_rows(1, data, values, |a, b| a.add_assign(b));
        assert_eq!(d, vec![1, 2]);
        assert_eq!(vals, vec![Count(6), Count(4)]);
        // A row whose accumulated value is zero is dropped.
        let (d, vals) = sort_merge_rows(
            1,
            vec![7, 8],
            vec![Count(0), Count(5)],
            |a: &mut Count, b| a.add_assign(b),
        );
        assert_eq!(d, vec![8]);
        assert_eq!(vals, vec![Count(5)]);
    }

    #[test]
    fn nullary_sort_merge_folds_all() {
        let (d, vals) = sort_merge_rows(
            0,
            vec![],
            vec![Count(1), Count(2), Count(3)],
            |a: &mut Count, b| a.add_assign(b),
        );
        assert!(d.is_empty());
        assert_eq!(vals, vec![Count(6)]);
    }

    #[test]
    fn layout_order_needs_no_regroup() {
        use Aggregate::{Product, Sum};
        // Every `var_order` the planner gives a generic-join bag (its
        // form is pinned in `faqs-plan`: the kept variables — free ones
        // in declared order at the root, ascending below it — then the
        // private ones ascending) over the 3 variables of a triangle and
        // the 4 of a 4-cycle or `K4`, kept set from empty (no free
        // variable) to everything, against the nest the `QueryPlan`
        // records for it: the private variables, highest first.
        fn kept_lists(n: u32, kept: &mut Vec<Var>, out: &mut Vec<Vec<Var>>) {
            out.push(kept.clone());
            for x in (0..n)
                .map(Var)
                .filter(|x| !kept.contains(x))
                .collect::<Vec<_>>()
            {
                kept.push(x);
                kept_lists(n, kept, out);
                kept.pop();
            }
        }
        for n in [3u32, 4] {
            let mut lists = Vec::new();
            kept_lists(n, &mut Vec::new(), &mut lists);
            for kept in lists {
                let private: Vec<Var> = (0..n).map(Var).filter(|x| !kept.contains(x)).collect();
                let nest: Vec<_> = private.iter().rev().map(|&x| (x, Sum)).collect();
                let var_order = [kept.as_slice(), private.as_slice()].concat();
                assert_eq!(
                    trailing_nest(&var_order, &nest),
                    Some(private.len()),
                    "{var_order:?} is in layout order for {nest:?}"
                );
            }
        }
        // A leaf whose one private variable is column 0 regroups; so
        // does a cascade's concatenation schema that interleaves.
        assert_eq!(trailing_nest(&[v(0), v(1)], &[(v(0), Sum)]), None);
        assert_eq!(trailing_nest(&[v(0), v(1)], &[(v(1), Sum)]), Some(1));
        let all = [(v(2), Sum), (v(1), Product), (v(0), Sum)];
        assert_eq!(trailing_nest(&[v(1), v(2), v(0)], &all), None);
        assert_eq!(trailing_nest(&[v(0), v(1), v(2)], &all), Some(3));
        // Variables the schema does not list are skipped, not missed.
        assert_eq!(trailing_nest(&[v(0), v(2)], &all), Some(2));
        assert_eq!(trailing_nest(&[v(5), v(4)], &all), Some(0));
        assert_eq!(trailing_nest(&[], &all), Some(0));
        assert_eq!(trailing_nest(&[v(2), v(5)], &all), None);
    }

    #[test]
    fn binary_search_row_on_one_column_arenas() {
        // The flat fast path keeps the strided contract: `Ok(row)` on a
        // hit, `Err(insertion row)` on a miss — below, between, above.
        let data = [3u32, 7, 9, u32::MAX];
        for (key, want) in [
            (3, Ok(0)),
            (9, Ok(2)),
            (u32::MAX, Ok(3)),
            (0, Err(0)),
            (8, Err(2)),
            (u32::MAX - 1, Err(3)),
        ] {
            assert_eq!(binary_search_row(&data, 1, 4, &[key]), want, "{key}");
        }
        // Only the first `n` rows are searched.
        assert_eq!(binary_search_row(&data, 1, 3, &[u32::MAX]), Err(3));
        assert_eq!(binary_search_row(&[], 1, 0, &[5]), Err(0));
        // And `get` / `insert` / `delete` on a unary relation ride it.
        let mut r = rel(&[0], &[(&[3], 1), (&[9], 2), (&[u32::MAX], 3)]);
        assert_eq!(r.get(&[u32::MAX]), Some(&Count(3)));
        assert_eq!(r.get(&[4]), None);
        r.insert(vec![4], Count(7));
        assert_eq!(r.tuples().collect::<Vec<_>>(), [[3], [4], [9], [u32::MAX]]);
        assert_eq!(r.delete(&[9]), Some(Count(2)));
        assert_eq!(r.delete(&[9]), None);
    }

    /// Every ordered non-empty selection of `0..arity`.
    fn ordered_subsets(arity: usize) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new()];
        let mut from = 0;
        while from < out.len() {
            let shorter = out[from].clone();
            for c in (0..arity).filter(|c| !shorter.contains(c)) {
                out.push([shorter.as_slice(), &[c]].concat());
            }
            from += 1;
        }
        out.split_off(1)
    }

    #[test]
    fn counting_regroup_is_the_comparison_sort() {
        use Aggregate::{Max, Product, Sum};
        let mut rng = StdRng::seed_from_u64(21);
        let mut draw = move |below: u32| rng.random_range(0..below);
        // Values per column (2: duplicate-heavy kept columns), rows
        // drawn, and whether one column is spread over the whole `u32`
        // range — a span no row count here brings inside the bound.
        let classes = [
            (2, 0, false),
            (2, 1, true),
            (2, 40, false),
            (5, 200, false),
            (5, 200, true),
        ];
        for arity in 2..=4usize {
            for trailing in ordered_subsets(arity) {
                for (class, &(domain, draws, spread)) in classes.iter().enumerate() {
                    let wide = (class + trailing.len()) % arity;
                    let stretch = |c: usize, x: u32| match spread && c == wide {
                        true => x * (u32::MAX / (domain - 1)),
                        false => x,
                    };
                    let rows = (0..draws).map(|_| {
                        let t = (0..arity).map(|c| stretch(c, draw(domain))).collect();
                        (t, Count(u64::from(draw(3))))
                    });
                    let schema: Vec<Var> = (0..arity as u32).map(Var).collect();
                    let rel = Relation::from_pairs(schema.clone(), rows);
                    let kept: Vec<usize> = (0..arity).filter(|c| !trailing.contains(c)).collect();
                    let what = format!("{arity} columns, nest {trailing:?}, class {class}");

                    // The permutation itself, not just what is folded
                    // through it.
                    let pos = [kept.as_slice(), trailing.as_slice()].concat();
                    let mut sorted: Vec<u32> = (0..rel.len() as u32).collect();
                    sorted.sort_unstable_by(|&a, &b| {
                        cmp_projected(rel.tuple_at(a as usize), rel.tuple_at(b as usize), &pos)
                    });
                    assert_eq!(layout_order(&rel, &kept, &trailing), sorted, "{what}");
                    // Counted exactly when the nest ascends and every
                    // kept column is dense; refused past the bound.
                    let counted = counting_order(&rel, &kept, &trailing);
                    let descends = trailing.windows(2).any(|w| w[0] > w[1]);
                    let sparse = spread && kept.contains(&wide) && rel.len() > 1;
                    assert_eq!(counted.is_none(), descends || sparse, "{what}");
                    assert_eq!(counted.unwrap_or(sorted.clone()), sorted, "{what}: counted");

                    // And the fold driven through it, operators mixed
                    // per level.
                    let ops = [Sum, Max, Product, Sum];
                    let nest: Vec<(Var, Aggregate)> = trailing
                        .iter()
                        .rev()
                        .map(|&c| (schema[c], ops[c]))
                        .collect();
                    let level_ops = trailing.iter().map(|&c| ops[c]).collect();
                    let mut fold =
                        NestFold::new(kept.iter().map(|&c| schema[c]).collect(), level_ops);
                    let t = |i: &u32| rel.tuple_at(*i as usize);
                    let moved: Vec<u32> = sorted
                        .iter()
                        .flat_map(|i| pos.iter().map(|&p| t(i)[p]))
                        .collect();
                    let values: Vec<Count> =
                        sorted.iter().map(|&i| *rel.value_at(i as usize)).collect();
                    fold.fold_rows(&moved, &values);
                    assert_eq!(aggregate_nest(rel, &nest), fold.finish(), "{what}");
                }
            }
        }
    }

    /// Canonical parts of `arity` columns drawn from a small domain, so
    /// they share tuples, with their leading column relabelled in order
    /// onto `base..=base + span` (both ends taken), every part alike.
    fn parts_spanning(
        arity: usize,
        span: impl Fn(usize) -> u64,
        top: bool,
        rng: &mut StdRng,
    ) -> Vec<Relation<Prob>> {
        let schema: Vec<Var> = (0..arity as u32).map(Var).collect();
        let drawn: Vec<Vec<(Vec<u32>, Prob)>> = (0..rng.random_range(1..=6))
            .map(|_| {
                (0..rng.random_range(0..40))
                    .map(|_| {
                        let t = (0..arity).map(|_| rng.random_range(0..4)).collect();
                        (t, Prob(f64::from(rng.random_range(1..1000u32)) / 7.0))
                    })
                    .collect()
            })
            .collect();
        let canonical = |rows: Vec<(Vec<u32>, Prob)>| {
            let rel = Relation::from_pairs(schema.clone(), rows);
            rel.iter()
                .map(|(t, p)| (t.to_vec(), *p))
                .collect::<Vec<_>>()
        };
        let drawn: Vec<Vec<(Vec<u32>, Prob)>> = drawn.into_iter().map(canonical).collect();
        let leads = drawn.iter().flatten().map(|(t, _)| t[0]);
        let (min, max) = (leads.clone().min().unwrap_or(0), leads.max().unwrap_or(0));
        let rows = drawn.iter().map(Vec::len).sum::<usize>();
        let span = span(rows).min(u64::from(u32::MAX));
        let base = if top { u64::from(u32::MAX) - span } else { 0 };
        let relabel = |x: u32| match max - min {
            0 => base as u32,
            gap => (base + u64::from(x - min) * span / u64::from(gap)) as u32,
        };
        drawn
            .into_iter()
            .map(|part| {
                let part = part.into_iter().map(|(mut t, p)| {
                    t[0] = relabel(t[0]);
                    (t, p)
                });
                Relation::from_pairs(schema.clone(), part)
            })
            .collect()
    }

    #[test]
    fn counted_and_compared_merges_sum_in_part_order() {
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(48);
        let bits = |(data, values): (Vec<u32>, Vec<Prob>), arity: usize| {
            let rows = data.chunks(arity.max(1)).map(<[u32]>::to_vec);
            rows.zip(values.iter().map(|p| p.0.to_bits()))
                .collect::<Vec<_>>()
        };
        // Leading spans just inside and just past the counted merge's
        // bound (one column counts, wider rows compare either way), and
        // the whole `u32` range.
        type Span = fn(usize) -> u64;
        let spans: [(&str, Span); 4] = [
            ("under", |rows| dense_span(rows) - 1),
            ("at", dense_span),
            ("over", |rows| dense_span(rows) + 1),
            ("whole", |_| u64::from(u32::MAX)),
        ];
        for arity in 1..=4 {
            for (what, span) in spans {
                for case in 0..40 {
                    let parts = parts_spanning(arity, span, case % 2 == 1, &mut rng);
                    // Each tuple summed over the parts, in part order.
                    let mut want: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
                    for (t, p) in parts.iter().flat_map(|part| part.iter()) {
                        *want.entry(t.to_vec()).or_insert(0.0) += p.0;
                    }
                    let want: Vec<_> = want.into_iter().map(|(t, p)| (t, p.to_bits())).collect();
                    let what = format!("{arity} columns, span {what}, case {case}");
                    assert_eq!(bits(merge_parts(arity, &parts), arity), want, "{what}");
                    let raw: Vec<(&[u32], &[Prob])> = parts
                        .iter()
                        .map(|p| (p.raw_data(), p.raw_values()))
                        .collect();
                    let rows = raw.iter().map(|(_, v)| v.len()).sum();
                    let compared = merge_compared(arity, &raw, rows);
                    assert_eq!(bits(compared, arity), want, "{what}: compared");
                }
            }
        }
    }
}
