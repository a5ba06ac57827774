//! The columnar relational-algebra kernel: flat-arena row utilities,
//! the reusable [`JoinIndex`], and the sort-merge / galloping operator
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

/// One row of a flat `arity`-strided arena.
#[inline]
pub(crate) fn row(data: &[u32], arity: usize, i: usize) -> &[u32] {
    &data[i * arity..i * arity + arity]
}

/// Chunked lexicographic row comparison: a first-lane early exit (on
/// sorted random data most comparisons are decided by column 0, and
/// that case must cost exactly what the scalar loop pays — one compare,
/// one branch), then a 4-lane XOR/OR equality prescan per chunk (one
/// wide, branch-free test the compiler lowers to SIMD) with the
/// lane-wise resolve paid only by the first differing chunk, and a
/// scalar tail for the remainder. Equivalent to `a.cmp(b)` on
/// equal-length rows.
#[inline]
fn cmp_rows_chunked(a: &[u32], b: &[u32]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    match (a.first(), b.first()) {
        (Some(x), Some(y)) if x != y => return x.cmp(y),
        (None, None) => return Ordering::Equal,
        _ => {}
    }
    let mut i = 1usize;
    while i + 4 <= a.len() {
        let (ca, cb) = (&a[i..i + 4], &b[i..i + 4]);
        let diff = (ca[0] ^ cb[0]) | (ca[1] ^ cb[1]) | (ca[2] ^ cb[2]) | (ca[3] ^ cb[3]);
        if diff != 0 {
            return ca.cmp(cb);
        }
        i += 4;
    }
    a[i..].cmp(&b[i..])
}

/// Row equality: the same first-lane early exit as
/// [`cmp_rows_chunked`], then one branch-free XOR/OR reduction over the
/// remaining lanes — rows sharing a first column are compared with one
/// wide pass, and mismatching rows (the probe-miss fast path) cost a
/// single compare.
#[inline]
fn rows_eq_chunked(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    if let (Some(x), Some(y)) = (a.first(), b.first()) {
        if x != y {
            return false;
        }
    }
    a.iter().zip(b).fold(0u32, |acc, (x, y)| acc | (x ^ y)) == 0
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

/// Compares the projection of `t` onto `pos` against a materialised key.
#[inline]
fn cmp_key(t: &[u32], pos: &[usize], key: &[u32]) -> Ordering {
    for (&p, &k) in pos.iter().zip(key) {
        match t[p].cmp(&k) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

/// Binary search for `tuple` among the `n` sorted rows of an
/// `arity`-strided arena: `Ok(row)` on a hit, `Err(insertion_row)`
/// otherwise. Shared by [`Relation::get`]/`insert`, the multi-column
/// key search of [`JoinIndex::group_of`] and [`fold_keyed`]'s fallback.
/// A one-column arena is searched as the flat `u32` array it is: the
/// per-step row slice and chunked compare cost four times the scalar
/// compare there.
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
        match cmp_rows_chunked(row(data, arity, mid), tuple) {
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
/// `from_pairs`, `union_all`, `reorder` and the general projection path —
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

/// A sorted index of one relation's rows grouped by a key — the join
/// key's answer to "which rows carry this key value?".
///
/// Built once per factor (O(n log n), or O(n) when the key is a schema
/// prefix of the already-sorted arena) and reused across every probe:
/// the Yannakakis passes build one index per factor per pass, and the
/// cascade over a multi-factor bag indexes each factor once per join
/// (child messages are never indexed: [`Relation::fold_keyed`] scans).
///
/// The index is self-contained (it copies the group keys out of the
/// relation), so it stays valid even if the indexed relation is later
/// replaced — but it describes the relation *as it was at build time*.
#[derive(Clone, Debug)]
pub struct JoinIndex {
    key_vars: Vec<Var>,
    key_arity: usize,
    /// Flattened group keys, `num_groups × key_arity`, sorted.
    keys: Vec<u32>,
    /// Row ids grouped by key; within a group, ascending (= canonical
    /// order of the indexed relation, which sorts each group by its
    /// non-key columns — exactly the order a join must emit them in).
    row_ids: Vec<u32>,
    /// Group boundaries into `row_ids`, `num_groups + 1` entries.
    offsets: Vec<u32>,
}

impl JoinIndex {
    /// Indexes `rel` by the projection onto `key_vars` (a subset of the
    /// schema, in any order).
    pub fn build<S: Semiring>(rel: &Relation<S>, key_vars: &[Var]) -> JoinIndex {
        let pos = rel.positions(key_vars);
        let key_arity = pos.len();
        let n = rel.len();

        let mut row_ids: Vec<u32> = (0..n as u32).collect();
        // When the key is a prefix of the schema the canonical sort
        // already groups equal keys contiguously; skip the sort.
        let is_prefix = pos.iter().enumerate().all(|(i, &p)| p == i);
        if !is_prefix {
            row_ids.sort_unstable_by(|&a, &b| {
                let ta = rel.tuple_at(a as usize);
                let tb = rel.tuple_at(b as usize);
                cmp_projected(ta, tb, &pos).then(a.cmp(&b))
            });
        }

        // An empty relation has zero groups (offsets stays `[0]`); a
        // zero-arity key over a non-empty relation has exactly one.
        let mut keys: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        if n > 0 {
            if key_arity > 0 {
                for (slot, &i) in row_ids.iter().enumerate() {
                    let t = rel.tuple_at(i as usize);
                    let new_group = keys.is_empty()
                        || cmp_key(t, &pos, &keys[keys.len() - key_arity..]) != Ordering::Equal;
                    if new_group {
                        if !keys.is_empty() {
                            offsets.push(slot as u32);
                        }
                        keys.extend(pos.iter().map(|&p| t[p]));
                    }
                }
            }
            offsets.push(n as u32);
        }
        JoinIndex {
            key_vars: key_vars.to_vec(),
            key_arity,
            keys,
            row_ids,
            offsets,
        }
    }

    /// The key variables this index groups by, in key order.
    #[inline]
    pub fn key_vars(&self) -> &[Var] {
        &self.key_vars
    }

    /// Number of distinct key values.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total indexed rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.row_ids.len()
    }

    #[inline]
    fn group_rows(&self, g: usize) -> &[u32] {
        &self.row_ids[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// The group holding `key`, by binary search over the sorted keys.
    /// Single-column keys (the overwhelmingly common join key) search
    /// the flat `u32` key array directly, skipping per-probe slice
    /// chunking.
    pub fn group_of(&self, key: &[u32]) -> Option<usize> {
        assert_eq!(key.len(), self.key_arity, "key arity mismatch");
        if self.num_rows() == 0 {
            return None;
        }
        if self.key_arity == 0 {
            return Some(0);
        }
        if self.key_arity == 1 {
            return self.keys.binary_search(&key[0]).ok();
        }
        binary_search_row(&self.keys, self.key_arity, self.num_groups(), key).ok()
    }

    /// The row ids carrying `key` (ascending), or `None`.
    #[inline]
    pub fn lookup(&self, key: &[u32]) -> Option<&[u32]> {
        self.group_of(key).map(|g| self.group_rows(g))
    }

    /// Whether any row carries `key`.
    #[inline]
    pub fn contains(&self, key: &[u32]) -> bool {
        self.group_of(key).is_some()
    }

    /// Probes the index with *many* keys in one galloping sweep.
    ///
    /// `probes` is a flat `key_arity`-strided arena of probe keys that
    /// must be sorted ascending (duplicates allowed). Because both the
    /// probe run and the group keys are sorted, a single merge with
    /// exponential (galloping) advance visits each side once:
    /// `O(k·log(g/k))` comparisons for `k` probes against `g` groups,
    /// instead of `k` independent `O(log g)` binary searches — the batch
    /// analogue of [`JoinIndex::lookup`] that cross-query batching uses
    /// to probe one factor for every binding of a batch at once.
    ///
    /// Calls `on_hit(probe_index, rows)` for every probe key present in
    /// the index, in ascending probe order; `rows` are the matching row
    /// ids, ascending (canonical relation order within the group).
    pub fn lookup_many(&self, probes: &[u32], mut on_hit: impl FnMut(usize, &[u32])) {
        let ka = self.key_arity;
        assert!(
            ka > 0 && probes.len().is_multiple_of(ka),
            "probe arena must be non-empty-keyed and {ka}-strided"
        );
        let n_probes = probes.len() / ka;
        debug_assert!(
            (1..n_probes).all(|i| probes[(i - 1) * ka..i * ka] <= probes[i * ka..(i + 1) * ka]),
            "probe keys must be sorted ascending"
        );
        let n_groups = self.num_groups();
        let mut g = 0usize;
        let mut hit = false;
        for p in 0..n_probes {
            let key = &probes[p * ka..(p + 1) * ka];
            // A probe equal to its predecessor reuses the previous
            // verdict outright: the previous hit position is the gallop
            // floor *and* ceiling, so neither the gallop nor the key
            // compare runs again — duplicate-heavy batches (Zipfian
            // bindings from cross-query batching) pay one search per
            // *distinct* key.
            if p > 0 && rows_eq_chunked(key, &probes[(p - 1) * ka..p * ka]) {
                if hit {
                    on_hit(p, self.group_rows(g));
                }
                continue;
            }
            g = gallop_rows(&self.keys, ka, g, n_groups, key);
            if g == n_groups {
                return;
            }
            hit = rows_eq_chunked(&self.keys[g * ka..(g + 1) * ka], key);
            if hit {
                on_hit(p, self.group_rows(g));
            }
        }
    }
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
    if lo >= n || cmp_rows_chunked(row(data, arity, lo), target) != Ordering::Less {
        return lo;
    }
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < n && cmp_rows_chunked(row(data, arity, hi), target) == Ordering::Less {
        lo = hi;
        step <<= 1;
        hi = (lo + step).min(n);
    }
    // Invariant: row(lo) < target ≤ row(hi) (or hi == n).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if cmp_rows_chunked(row(data, arity, mid), target) == Ordering::Less {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Natural join against a prebuilt index of `other` (keyed on exactly
/// the shared variables). Output rows are emitted left-row-major with
/// each group's matches in ascending row-id order, which keeps the
/// result in canonical sorted order without a re-sort.
pub(crate) fn join_via<S: Semiring>(
    left: &Relation<S>,
    other: &Relation<S>,
    idx: &JoinIndex,
) -> Relation<S> {
    assert_keyed_on_shared(left, other, idx);
    let my_pos = left.positions(idx.key_vars());
    let fresh: Vec<Var> = other
        .schema()
        .iter()
        .copied()
        .filter(|v| !left.schema().contains(v))
        .collect();
    let fresh_pos = other.positions(&fresh);

    let mut schema: Vec<Var> = left.schema().to_vec();
    schema.extend(fresh.iter().copied());
    let mut out = Relation::new(schema);
    let (out_data, out_values) = out.parts_mut();
    let mut key = vec![0u32; my_pos.len()];
    for i in 0..left.len() {
        let t = left.tuple_at(i);
        for (k, &p) in key.iter_mut().zip(&my_pos) {
            *k = t[p];
        }
        let Some(rows) = idx.lookup(&key) else {
            continue;
        };
        let v = left.value_at(i);
        for &j in rows {
            let u = other.tuple_at(j as usize);
            let prod = v.mul(other.value_at(j as usize));
            if prod.is_zero() {
                continue;
            }
            out_data.extend_from_slice(t);
            out_data.extend(fresh_pos.iter().map(|&p| u[p]));
            out_values.push(prod);
        }
    }
    out
}

/// A prebuilt index fed to a join/semijoin must key on *exactly* the
/// variables the two relations share — a partial key would silently
/// under-filter (semijoin) or emit rows disagreeing on the unchecked
/// shared variable (join). Cheap (O(r²) on arities ≤ a handful), so it
/// runs in release builds too.
fn assert_keyed_on_shared<S: Semiring>(left: &Relation<S>, other: &Relation<S>, idx: &JoinIndex) {
    let shared = left.shared_vars(other);
    assert!(
        idx.key_vars().len() == shared.len() && shared.iter().all(|v| idx.key_vars().contains(v)),
        "index keyed on {:?}, but the relations share {shared:?}",
        idx.key_vars()
    );
}

/// How wide a value range (`max − min`) one column of `rows` rows may
/// span and still be addressed directly ([`KeyLookup::Table`],
/// [`counting_order`]): a few words per row plus a page, so filling the
/// array costs no more than the scan it serves.
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

    #[inline]
    fn find<S: Semiring>(&mut self, t: &[u32], message: &Relation<S>) -> Hit {
        let (data, n) = (message.raw_data(), message.len());
        let hit = |found: Option<usize>| found.map_or(Hit::Miss, Hit::Row);
        match self {
            KeyLookup::Cursor(k, at) => {
                *at = gallop_rows(data, *k, *at, n, &t[..*k]);
                if *at == n {
                    return Hit::Exhausted;
                }
                hit(rows_eq_chunked(row(data, *k, *at), &t[..*k]).then_some(*at))
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
    let schema = bag.schema();
    let mut lookups: Vec<_> = messages.iter().map(|m| KeyLookup::new(schema, m)).collect();
    let arity = schema.len();
    let (data, values) = bag.parts_mut();
    let mut kept = 0usize;
    'rows: for i in 0..values.len() {
        let mut v = values[i].clone();
        for (lookup, m) in lookups.iter_mut().zip(messages) {
            match lookup.find(&data[i * arity..(i + 1) * arity], m) {
                Hit::Row(j) => v = v.mul(m.value_at(j)),
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

/// Semijoin `left ⋉ other` against a prebuilt index of `other` keyed on
/// the shared variables: keeps `left`'s rows (annotations untouched)
/// whose key projection appears in the index. Order-preserving.
pub(crate) fn semijoin_via<S: Semiring>(
    left: &Relation<S>,
    other: &Relation<S>,
    idx: &JoinIndex,
) -> Relation<S> {
    assert_keyed_on_shared(left, other, idx);
    let my_pos = left.positions(idx.key_vars());
    let mut out = Relation::new(left.schema().to_vec());
    let (out_data, out_values) = out.parts_mut();
    let mut key = vec![0u32; my_pos.len()];
    for i in 0..left.len() {
        let t = left.tuple_at(i);
        for (k, &p) in key.iter_mut().zip(&my_pos) {
            *k = t[p];
        }
        if idx.contains(&key) {
            out_data.extend_from_slice(t);
            out_values.push(left.value_at(i).clone());
        }
    }
    out
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
        for i in 0..rel.len() {
            let t = rel.tuple_at(i);
            let keyed = &t[..k];
            if let Some(last) = out_values.last_mut() {
                // `k == 0` first: every row is the one empty key, and
                // the zero-length slice compare is not free.
                if k == 0 || &out_data[out_data.len() - k..] == keyed {
                    combine(last, rel.value_at(i));
                    any_zero |= last.is_zero();
                    continue;
                }
            }
            out_data.extend_from_slice(keyed);
            let v = rel.value_at(i).clone();
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
    for i in 0..rel.len() {
        let t = rel.tuple_at(i);
        data.extend(pos.iter().map(|&p| t[p]));
        values.push(rel.value_at(i).clone());
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

/// Aggregates a nest of variables out of rows pushed in layout order
/// (see [`trailing_nest`]): one open partial per nest level, each level
/// folding one trailing column under its own operator.
///
/// When a pushed row leaves a level's group, the level closes: its
/// partial folds into the level above under *that* level's operator —
/// level 0's becomes an output row — unless it is the semiring zero,
/// which is dropped exactly where the listing representation drops the
/// row between two single-variable aggregations (so a `Product` or
/// `Max` level above a cancelling `Sum` sees the same operands). Every
/// group thus folds in ascending row order, as a chain of sorted-prefix
/// [`project_with`] scans does. Push-style, so that whatever produces
/// rows in layout order can drive it: a stored relation's scan today.
pub(crate) struct NestFold<S: Semiring> {
    /// One row per kept prefix whose nest folded to a non-zero.
    out: Relation<S>,
    kept: usize,
    /// `(operator, open partial)` per trailing column, outermost first:
    /// level `j` folds column `kept + j`.
    levels: Vec<(Aggregate, Option<S>)>,
    /// The previous row but for its innermost column; empty before
    /// the first push.
    last: Vec<u32>,
}

impl<S: Semiring> NestFold<S> {
    /// A fold keeping the leading `kept` columns and aggregating one
    /// trailing column per entry of `ops` (outermost first).
    pub(crate) fn new(kept: Vec<Var>, ops: Vec<Aggregate>) -> Self {
        NestFold {
            kept: kept.len(),
            out: Relation::new(kept),
            levels: ops.into_iter().map(|op| (op, None)).collect(),
            last: Vec::new(),
        }
    }

    /// Folds one row in; rows must arrive strictly increasing.
    pub(crate) fn push(&mut self, row: &[u32], value: &S) {
        // The innermost column only tells rows of one group apart.
        let head = &row[..row.len() - 1];
        if self.last.len() < head.len() {
            self.last.extend_from_slice(head);
        } else if let Some(same) = head.iter().zip(&self.last).position(|(a, b)| a != b) {
            debug_assert!(self.last[same] < head[same], "rows arrive in order");
            // A level's group is keyed by the columns before its own.
            self.close((same + 1).saturating_sub(self.kept));
            self.last[same..].copy_from_slice(&head[same..]);
        }
        let (op, partial) = self.levels.last_mut().expect("a nest has a level");
        *partial = Some(match partial.take() {
            Some(acc) => acc.fold(*op, value),
            None => value.clone(),
        });
    }

    /// Closes levels `first..`, innermost first.
    fn close(&mut self, first: usize) {
        for j in (first..self.levels.len()).rev() {
            let Some(partial) = self.levels[j].1.take().filter(|p| !p.is_zero()) else {
                continue;
            };
            if j == 0 {
                let (data, values) = self.out.parts_mut();
                data.extend_from_slice(&self.last[..self.kept]);
                values.push(partial);
            } else {
                let (op, above) = &mut self.levels[j - 1];
                *above = Some(match above.take() {
                    Some(acc) => acc.fold(*op, &partial),
                    None => partial,
                });
            }
        }
    }

    /// The relation over the kept columns.
    pub(crate) fn finish(mut self) -> Relation<S> {
        self.close(0);
        self.out
    }
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
/// layout order, otherwise through [`layout_order`]'s permutation of the
/// row ids, however many variables go.
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
    if in_layout {
        for (row, value) in rel.iter() {
            fold.push(row, value);
        }
    } else {
        let pos = [kept.as_slice(), trailing.as_slice()].concat();
        let mut row = vec![0u32; pos.len()];
        for i in layout_order(&rel, &kept, &trailing) {
            let t = rel.tuple_at(i as usize);
            for (x, &p) in row.iter_mut().zip(&pos) {
                *x = t[p];
            }
            fold.push(&row, rel.value_at(i as usize));
        }
    }
    fold.finish()
}

/// Galloping (exponential + binary) search: the least `i ≥ lo` with
/// `row(i) ≥ target`, over a sorted arena.
fn gallop<S: Semiring>(rel: &Relation<S>, mut lo: usize, target: &[u32]) -> usize {
    let n = rel.len();
    if lo >= n || rel.tuple_at(lo) >= target {
        return lo;
    }
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < n && rel.tuple_at(hi) < target {
        lo = hi;
        step <<= 1;
        hi = (lo + step).min(n);
    }
    // Invariant: row(lo) < target ≤ row(hi) (or hi == n).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if rel.tuple_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Pointwise `⊗`-product of two same-schema relations by a galloping
/// merge over the two sorted arenas (tuple intersection).
pub(crate) fn merge_product<S: Semiring>(a: &Relation<S>, b: &Relation<S>) -> Relation<S> {
    let mut out = Relation::new(a.schema().to_vec());
    let (out_data, out_values) = out.parts_mut();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a.tuple_at(i).cmp(b.tuple_at(j)) {
            Ordering::Less => i = gallop(a, i, b.tuple_at(j)),
            Ordering::Greater => j = gallop(b, j, a.tuple_at(i)),
            Ordering::Equal => {
                let prod = a.value_at(i).mul(b.value_at(j));
                if !prod.is_zero() {
                    out_data.extend_from_slice(a.tuple_at(i));
                    out_values.push(prod);
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
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
    use faqs_semiring::Count;
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
    fn index_groups_and_lookup() {
        let r = rel(
            &[0, 1],
            &[(&[1, 5], 1), (&[2, 3], 1), (&[2, 7], 1), (&[4, 0], 1)],
        );
        let idx = JoinIndex::build(&r, &[v(0)]);
        assert_eq!(idx.num_groups(), 3);
        assert_eq!(idx.lookup(&[2]), Some(&[1u32, 2][..]));
        assert_eq!(idx.lookup(&[3]), None);
        assert!(idx.contains(&[4]));
    }

    #[test]
    fn index_on_non_prefix_key() {
        let r = rel(&[0, 1], &[(&[1, 5], 1), (&[2, 5], 1), (&[3, 4], 1)]);
        let idx = JoinIndex::build(&r, &[v(1)]);
        assert_eq!(idx.num_groups(), 2);
        assert_eq!(idx.lookup(&[5]), Some(&[0u32, 1][..]));
        assert_eq!(idx.lookup(&[4]), Some(&[2u32][..]));
    }

    #[test]
    fn nullary_key_groups_everything() {
        let r = rel(&[0], &[(&[1], 1), (&[2], 1)]);
        let idx = JoinIndex::build(&r, &[]);
        assert_eq!(idx.num_groups(), 1);
        assert_eq!(idx.lookup(&[]), Some(&[0u32, 1][..]));
        let empty = rel(&[0], &[]);
        let idx = JoinIndex::build(&empty, &[]);
        assert_eq!(idx.num_groups(), 0, "empty relation has no key groups");
        assert_eq!(idx.lookup(&[]), None);
        let idx = JoinIndex::build(&empty, &[v(0)]);
        assert_eq!(idx.num_groups(), 0);
        assert_eq!(idx.lookup(&[3]), None);
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
    fn lookup_many_matches_per_key_lookup() {
        let r = rel(
            &[0, 1],
            &[
                (&[1, 5], 1),
                (&[2, 3], 1),
                (&[2, 7], 1),
                (&[4, 0], 1),
                (&[9, 9], 1),
            ],
        );
        let idx = JoinIndex::build(&r, &[v(0)]);
        // Sorted probes with a duplicate, a miss below, between, above.
        let probes = [0u32, 2, 2, 3, 4, 11];
        let mut hits: Vec<(usize, Vec<u32>)> = Vec::new();
        idx.lookup_many(&probes, |p, rows| hits.push((p, rows.to_vec())));
        let mut expect: Vec<(usize, Vec<u32>)> = Vec::new();
        for (p, key) in probes.iter().enumerate() {
            if let Some(rows) = idx.lookup(&[*key]) {
                expect.push((p, rows.to_vec()));
            }
        }
        assert_eq!(hits, expect);
    }

    #[test]
    fn lookup_many_reuses_verdicts_across_duplicate_keys() {
        // Zipf-shaped probe batches: long runs of consecutive duplicate
        // keys — duplicate hits, duplicate misses (below, between and
        // above the key range), and a duplicate run on the final key.
        // Pins the duplicate fast path (one gallop + one compare per
        // *distinct* key) to the per-key oracle.
        let r = rel(
            &[0, 1],
            &[
                (&[2, 0], 1),
                (&[2, 9], 1),
                (&[5, 1], 1),
                (&[8, 3], 1),
                (&[8, 4], 1),
            ],
        );
        let idx = JoinIndex::build(&r, &[v(0)]);
        let probes = [0u32, 0, 0, 2, 2, 2, 2, 3, 3, 5, 5, 5, 7, 7, 8, 8, 8, 9, 9];
        let mut hits: Vec<(usize, Vec<u32>)> = Vec::new();
        idx.lookup_many(&probes, |p, rows| hits.push((p, rows.to_vec())));
        let expect: Vec<(usize, Vec<u32>)> = probes
            .iter()
            .enumerate()
            .filter_map(|(p, key)| idx.lookup(&[*key]).map(|rows| (p, rows.to_vec())))
            .collect();
        assert_eq!(hits, expect);

        // Multi-column duplicates exercise the chunked equality too.
        let r = rel(
            &[0, 1, 2],
            &[(&[1, 1, 0], 1), (&[1, 2, 5], 1), (&[2, 1, 3], 1)],
        );
        let idx = JoinIndex::build(&r, &[v(0), v(1)]);
        let probes = [1u32, 1, 1, 1, 1, 1, 1, 2, 1, 2, 2, 1, 2, 1, 2, 9, 2, 9];
        let mut hits: Vec<(usize, Vec<u32>)> = Vec::new();
        idx.lookup_many(&probes, |p, rows| hits.push((p, rows.to_vec())));
        let expect: Vec<(usize, Vec<u32>)> = probes
            .chunks(2)
            .enumerate()
            .filter_map(|(p, key)| idx.lookup(key).map(|rows| (p, rows.to_vec())))
            .collect();
        assert_eq!(hits, expect);
    }

    #[test]
    fn chunked_row_comparison_matches_scalar() {
        // Wide rows hit the 4-lane chunks; equal prefixes force the
        // prescan through multiple chunks before the difference.
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[1], &[2]),
            (&[3, 4, 5], &[3, 4, 5]),
            (&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5]),
            (&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 6]),
            (&[1, 2, 3, 4, 0, 0, 0, 9], &[1, 2, 3, 4, 0, 0, 0, 8]),
            (&[9, 2, 3, 4], &[1, 2, 3, 4]),
            (&[1, 2, 3, 4, 5, 6, 7, 8, 9], &[1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ];
        for (a, b) in cases {
            assert_eq!(cmp_rows_chunked(a, b), a.cmp(b), "{a:?} vs {b:?}");
            assert_eq!(cmp_rows_chunked(b, a), b.cmp(a), "{b:?} vs {a:?}");
            assert_eq!(rows_eq_chunked(a, b), a == b);
        }
    }

    #[test]
    fn lookup_many_on_multi_column_keys() {
        let r = rel(
            &[0, 1, 2],
            &[(&[1, 1, 0], 1), (&[1, 2, 5], 1), (&[2, 1, 3], 1)],
        );
        let idx = JoinIndex::build(&r, &[v(0), v(1)]);
        let probes = [1u32, 1, 1, 2, 2, 1, 3, 3];
        let mut hits = Vec::new();
        idx.lookup_many(&probes, |p, rows| hits.push((p, rows.to_vec())));
        assert_eq!(hits, vec![(0, vec![0]), (1, vec![1]), (2, vec![2])]);
        // Empty index: no hits, no panic.
        let empty = rel(&[0, 1, 2], &[]);
        let idx = JoinIndex::build(&empty, &[v(0), v(1)]);
        idx.lookup_many(&probes, |_, _| panic!("no rows to hit"));
    }

    #[test]
    fn layout_order_needs_no_regroup() {
        use Aggregate::{Product, Sum};
        // Every `var_order` the planner gives a generic-join bag (its
        // form is pinned in `faqs-plan`: the kept variables — free ones
        // in declared order at the root, ascending below it — then the
        // private ones ascending) over the 3 variables of a triangle and
        // the 4 of a 4-cycle or `K4`, kept set from empty (no free
        // variable) to everything, against the nest `QueryPlan::lower`
        // derives for it: the private variables, highest first.
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
                    for &i in &sorted {
                        let t = rel.tuple_at(i as usize);
                        let row: Vec<u32> = pos.iter().map(|&p| t[p]).collect();
                        fold.push(&row, rel.value_at(i as usize));
                    }
                    assert_eq!(aggregate_nest(rel, &nest), fold.finish(), "{what}");
                }
            }
        }
    }

    #[test]
    fn gallop_finds_first_geq() {
        let r = rel(&[0], &[(&[1], 1), (&[3], 1), (&[5], 1), (&[9], 1)]);
        assert_eq!(gallop(&r, 0, &[0]), 0);
        assert_eq!(gallop(&r, 0, &[3]), 1);
        assert_eq!(gallop(&r, 0, &[4]), 2);
        assert_eq!(gallop(&r, 0, &[10]), 4);
    }
}
