//! The annotated relation type over a flat columnar arena.

use crate::arena::Arena;
use crate::kernel;
use crate::stats::Profile;
use faqs_hypergraph::Var;
use faqs_semiring::{Aggregate, Semiring};
use std::fmt;

/// A semiring-annotated relation in listing representation, stored
/// columnar-style: one flat row-major `Vec<u32>` arena (arity-strided,
/// no per-tuple boxes) plus a parallel annotation column.
///
/// Invariants maintained by every operation:
///
/// * the schema lists distinct variables and never changes; row `i`
///   occupies `data[i·r .. (i+1)·r]` for arity `r = schema.len()`;
/// * no row is annotated with the semiring zero (the listing
///   representation stores non-zero entries only);
/// * rows are lexicographically sorted and duplicate-free (duplicate
///   inserts `⊕`-accumulate), so equal relations compare equal
///   structurally and every operator can merge instead of hash;
/// * the profile memo ([`Relation::stats`], [`Relation::max_value`]) is
///   dropped by every mutation: the rows live in a private arena type
///   whose `&mut` doors forget it, so a profile that is read describes
///   the rows as they are. A clone shares the rows and the memo until
///   either side writes (copy-on-write); equality ignores the memo.
#[derive(Clone, PartialEq)]
pub struct Relation<S: Semiring> {
    schema: Vec<Var>,
    arena: Arena<S>,
}

/// How many leading entries [`Relation`]'s `Debug` impl prints before
/// eliding the tail — the `[N]×{1}` paddings of the lower-bound
/// constructions would otherwise flood test output.
const DEBUG_MAX_ENTRIES: usize = 16;

impl<S: Semiring> fmt::Debug for Relation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation{:?} {{", self.schema)?;
        for (t, v) in self.iter().take(DEBUG_MAX_ENTRIES) {
            write!(f, " {t:?}→{v:?}")?;
        }
        if self.len() > DEBUG_MAX_ENTRIES {
            write!(f, " … ({} more)", self.len() - DEBUG_MAX_ENTRIES)?;
        }
        write!(f, " }}")
    }
}

impl<S: Semiring> Relation<S> {
    /// An empty relation over the given schema (distinct variables).
    pub fn new<I: IntoIterator<Item = Var>>(schema: I) -> Self {
        let schema: Vec<Var> = schema.into_iter().collect();
        let mut sorted = schema.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            schema.len(),
            "schema variables must be distinct"
        );
        Relation {
            schema,
            arena: Arena::new(Vec::new(), Vec::new()),
        }
    }

    /// The nullary relation whose single (empty-tuple) annotation is `1`
    /// — the `⊗`-identity the engine seeds empty nodes with.
    pub fn unit() -> Self {
        Relation {
            schema: Vec::new(),
            arena: Arena::new(Vec::new(), vec![S::one()]),
        }
    }

    /// Builds a relation from `(tuple, value)` pairs, `⊕`-accumulating
    /// duplicates and dropping zeros. One gather and one sort-merge —
    /// no intermediate hash map, no second normalisation pass.
    pub fn from_pairs<I>(schema: Vec<Var>, pairs: I) -> Self
    where
        I: IntoIterator<Item = (Vec<u32>, S)>,
    {
        let mut r = Relation::new(schema);
        let arity = r.schema.len();
        let mut data: Vec<u32> = Vec::new();
        let mut values: Vec<S> = Vec::new();
        for (t, v) in pairs {
            assert_eq!(t.len(), arity, "tuple arity mismatch");
            data.extend_from_slice(&t);
            values.push(v);
        }
        let (data, values) = kernel::sort_merge_rows(arity, data, values, |a, b| a.add_assign(b));
        r.set_parts(data, values);
        r
    }

    /// Builds a relation directly from a row-major arena and its
    /// parallel annotation column (`values.len() * schema.len()` data
    /// entries). Rows are canonicalised with one sort-merge (skipped
    /// when the arena is already strictly sorted); zero annotations are
    /// dropped. This is the bulk-load path for enumerators that produce
    /// rows in order — no per-tuple allocation at all.
    pub fn from_columns(schema: Vec<Var>, data: Vec<u32>, values: Vec<S>) -> Self {
        let mut r = Relation::new(schema);
        let arity = r.schema.len();
        assert_eq!(data.len(), values.len() * arity, "arena shape mismatch");
        let (data, values) = kernel::sort_merge_rows(arity, data, values, |a, b| a.add_assign(b));
        r.set_parts(data, values);
        r
    }

    /// The "all ones" relation over a uniform domain `[0, domain)^r` —
    /// the `[N] × {1}`-style paddings of the lower-bound constructions.
    /// Panics if the result would exceed `2^24` tuples (guard against
    /// accidental blowup). Rows are generated in lexicographic order,
    /// so construction is a single allocation-free fill.
    pub fn full(schema: Vec<Var>, domain: u32) -> Self {
        let r = schema.len();
        let total = (domain as u64).pow(r as u32);
        assert!(total <= 1 << 24, "full relation too large: {total}");
        let mut rel = Relation::new(schema);
        let (data, values) = rel.parts_mut();
        data.reserve(total as usize * r);
        values.reserve(total as usize);
        for idx in 0..total {
            let mut rem = idx;
            let start = data.len();
            data.resize(start + r, 0);
            for slot in data[start..].iter_mut().rev() {
                *slot = (rem % domain as u64) as u32;
                rem /= domain as u64;
            }
            values.push(S::one());
        }
        rel
    }

    /// The schema, in tuple order.
    #[inline]
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }

    /// Number of listed (non-zero) tuples — the paper's `|R_e| ≤ N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.raw_values().len()
    }

    /// Whether the relation lists no tuples (the function is identically
    /// zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.raw_values().is_empty()
    }

    /// The `i`-th tuple as a view into the arena.
    #[inline]
    pub fn tuple_at(&self, i: usize) -> &[u32] {
        let r = self.schema.len();
        &self.raw_data()[i * r..i * r + r]
    }

    /// The `i`-th annotation.
    #[inline]
    pub fn value_at(&self, i: usize) -> &S {
        &self.raw_values()[i]
    }

    /// Iterates over tuple views in canonical order.
    pub fn tuples(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let (r, data) = (self.schema.len(), self.raw_data());
        (0..self.len()).map(move |i| kernel::row(data, r, i))
    }

    /// Iterates over `(tuple, value)` entries in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &S)> + '_ {
        let (r, data) = (self.schema.len(), self.raw_data());
        let rows = self.raw_values().iter().enumerate();
        rows.map(move |(i, v)| (kernel::row(data, r, i), v))
    }

    /// Inserts (⊕-accumulates) one entry.
    pub fn insert(&mut self, tuple: Vec<u32>, value: S) {
        let r = self.schema.len();
        assert_eq!(tuple.len(), r, "tuple arity mismatch");
        if value.is_zero() {
            return;
        }
        let at = self.row_search(&tuple);
        let (data, values) = self.parts_mut();
        match at {
            Ok(i) => {
                values[i].add_assign(&value);
                if values[i].is_zero() {
                    values.remove(i);
                    data.drain(i * r..(i + 1) * r);
                }
            }
            Err(i) => {
                values.insert(i, value);
                data.splice(i * r..i * r, tuple);
            }
        }
    }

    /// Removes one tuple's entry, returning its previous annotation
    /// (`None` when the tuple was not listed). The single-tuple
    /// counterpart of [`Relation::insert`]; batched mutations should go
    /// through [`Relation::apply_delta`] instead.
    ///
    /// [`Relation::apply_delta`]: Relation::apply_delta
    pub fn delete(&mut self, tuple: &[u32]) -> Option<S> {
        let r = self.schema.len();
        assert_eq!(tuple.len(), r, "tuple arity mismatch");
        let i = self.row_search(tuple).ok()?;
        let (data, values) = self.parts_mut();
        data.drain(i * r..(i + 1) * r);
        Some(values.remove(i))
    }

    /// The annotation of an exact tuple, if listed.
    pub fn get(&self, tuple: &[u32]) -> Option<&S> {
        self.row_search(tuple).ok().map(|i| self.value_at(i))
    }

    /// Binary search for a row in the sorted arena.
    fn row_search(&self, tuple: &[u32]) -> Result<usize, usize> {
        kernel::binary_search_row(self.raw_data(), self.schema.len(), self.len(), tuple)
    }

    /// Positions of `vars` inside this schema; panics when absent.
    pub(crate) fn positions(&self, vars: &[Var]) -> Vec<usize> {
        vars.iter()
            .map(|v| {
                self.schema
                    .iter()
                    .position(|w| w == v)
                    .unwrap_or_else(|| panic!("{v} not in schema {:?}", self.schema))
            })
            .collect()
    }

    /// Mutable access to the raw arena for kernel builders (same
    /// crate); drops the profile memo.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<S>) {
        self.arena.parts_mut()
    }

    /// Replaces the raw arena (kernel builders; rows must be
    /// canonical); drops the profile memo.
    pub(crate) fn set_parts(&mut self, data: Vec<u32>, values: Vec<S>) {
        debug_assert_eq!(data.len(), values.len() * self.schema.len());
        self.arena.set_parts(data, values);
    }

    /// The raw row-major tuple arena (generic-join range scans).
    #[inline]
    pub(crate) fn raw_data(&self) -> &[u32] {
        self.arena.data()
    }

    /// The raw annotation column, parallel to the rows.
    #[inline]
    pub(crate) fn raw_values(&self) -> &[S] {
        self.arena.values()
    }

    /// What the one scan of these rows learned, scanned now if nothing
    /// has asked since they last changed.
    pub(crate) fn profile(&self) -> &Profile {
        self.arena.profile(&self.schema)
    }

    /// The variables shared with `other`, in this schema's order.
    fn shared_vars(&self, other: &Relation<S>) -> Vec<Var> {
        self.schema
            .iter()
            .copied()
            .filter(|v| other.schema.contains(v))
            .collect()
    }

    /// The rows whose value at `var` appears in `values` (in any order,
    /// repeats allowed) — batched point selection `σ_{var ∈ values}`,
    /// how cross-query batching restricts a shared factor to a whole
    /// batch of bindings in a single pass.
    ///
    /// When `var` is the leading schema column the arena is sorted on
    /// it: each selection value's rows are one contiguous run, already
    /// in canonical order, found by binary search onward from the last.
    /// Any other column is one scan that keeps the rows whose value the
    /// selection lists.
    pub fn restrict_in(&self, var: Var, values: &[u32]) -> Relation<S> {
        let mut ascending;
        let values = if values.windows(2).all(|w| w[0] < w[1]) {
            values
        } else {
            ascending = values.to_vec();
            ascending.sort_unstable();
            ascending.dedup();
            &ascending
        };
        let (r, data) = (self.schema.len(), self.raw_data());
        let mut out = Relation::new(self.schema.clone());
        let (out_data, out_values) = out.parts_mut();
        if self.schema.first() == Some(&var) {
            let mut from = 0;
            for &x in values {
                let run = kernel::key_run(data, r, from..self.len(), &[x]);
                out_data.extend_from_slice(&data[run.start * r..run.end * r]);
                out_values.extend_from_slice(&self.raw_values()[run.clone()]);
                from = run.end;
            }
            return out;
        }
        let col = self.positions(&[var])[0];
        for (t, v) in self.iter() {
            if values.binary_search(&t[col]).is_ok() {
                out_data.extend_from_slice(t);
                out_values.push(v.clone());
            }
        }
        out
    }

    /// Projection `π_vars` with `⊕`-aggregation of collapsed tuples: the
    /// FAQ-SS marginalisation of every variable outside `vars`.
    pub fn project(&self, vars: &[Var]) -> Relation<S> {
        let pos = self.positions(vars);
        kernel::project_with(self, vars, &pos, |a, b| a.add_assign(b))
    }

    /// Aggregates out a single variable with the given operator — the
    /// push-down step of Corollary G.2. Which operators a carrier folds
    /// is its own declaration ([`Semiring::fold`]); the engine doors ask
    /// [`Semiring::admits`] before a query gets here.
    pub fn aggregate_out(&self, var: Var, op: Aggregate) -> Relation<S> {
        let drop = self.positions(&[var])[0];
        let rest: Vec<Var> = self.schema.iter().copied().filter(|v| *v != var).collect();
        let pos: Vec<usize> = (0..self.schema.len()).filter(|&i| i != drop).collect();
        kernel::project_with(self, &rest, &pos, |a, b| *a = a.fold(op, b))
    }

    /// Aggregates out a whole `nest` of variables — each with its own
    /// operator, innermost (aggregated first) first — in one scan: the
    /// push-down of Corollary G.2 for every variable a GHD node's
    /// parent does not see. Equal to [`Relation::aggregate_out`] applied
    /// once per entry of `nest`, in order; the remaining columns keep
    /// their schema order.
    ///
    /// The scan wants the rows in *layout order*: the nest's variables
    /// as the trailing columns, outermost first. A relation already
    /// there (what a generic-join bag is planned to be, and any relation
    /// whose one private variable is its last column) is folded as it
    /// stands: one scan that compares each row with the one before and
    /// folds each innermost group's values into a plain accumulator. The
    /// compare reads the group key — every column but the innermost —
    /// column by column, never as a slice, in a scan compiled for a
    /// one-column key (the hash-split shard shape) and once for any
    /// other width.
    /// Any other has its rows copied out in that order first, however
    /// many variables go — the row ids ordered by one counting pass per
    /// kept column when the nest's columns ascend and the kept ones are
    /// densely valued, else by one comparison sort. Variables of `nest`
    /// that the schema does not list are skipped; when none is listed,
    /// `self` comes back untouched. Each kept row's value folds its group
    /// in ascending order of the nest columns, outermost first — so on a
    /// float carrier the result does not depend on the column order the
    /// relation arrived in.
    pub fn aggregate_out_many(self, nest: &[(Var, Aggregate)]) -> Relation<S> {
        kernel::aggregate_nest(self, nest)
    }

    /// `⊗`-multiplies `messages` into this relation, each over a subset
    /// of this schema (so keyed on its whole schema: at most one entry
    /// per row) — how a GHD node folds its children's messages into its
    /// bag (Theorem G.3). Equal to `self.join(m₁).join(m₂)…`, bit for
    /// bit, in one scan of this arena: per row `v ⊗ m₁[key₁] ⊗ m₂[key₂] …`,
    /// dropped at the first missing entry or zero product. An entry is
    /// found by a forward-only cursor when the message's schema is a
    /// prefix of this one (the scan stops when it runs off the message),
    /// by a direct-address table for one densely valued column, else by
    /// binary search. Panics when a message lists a variable this schema
    /// lacks — that would be a join, not a fold.
    pub fn fold_keyed(self, messages: &[&Relation<S>]) -> Relation<S> {
        kernel::fold_keyed(self, messages)
    }

    /// Natural join `⋈` (Definition 3.4) with `⊗`-multiplied annotations:
    /// the output schema is this schema followed by `other`'s fresh
    /// variables. One scan of this relation: each row meets the run of
    /// rows carrying its key in `other` laid out on the shared variables
    /// (leading, in this schema's order), so the output comes out
    /// canonical without a sort.
    ///
    /// ```
    /// use faqs_relation::Relation;
    /// use faqs_hypergraph::Var;
    /// use faqs_semiring::Count;
    /// let r = Relation::from_pairs(vec![Var(0), Var(1)], [(vec![1, 2], Count(2))]);
    /// let s = Relation::from_pairs(vec![Var(1), Var(2)], [(vec![2, 7], Count(3))]);
    /// let j = r.join(&s);
    /// assert_eq!(j.get(&[1, 2, 7]), Some(&Count(6)));
    /// ```
    pub fn join(&self, other: &Relation<S>) -> Relation<S> {
        let (pos, other) = self.keyed_for(other);
        let k = pos.len();
        let mut out = Relation::new([&self.schema[..], &other.schema[k..]].concat());
        let (out_data, out_values) = out.parts_mut();
        let mut key = vec![0; k];
        for (t, v) in self.iter() {
            key.iter_mut().zip(&pos).for_each(|(x, &p)| *x = t[p]);
            let run = kernel::key_run(other.raw_data(), other.schema.len(), 0..other.len(), &key);
            for j in run {
                let prod = v.mul(other.value_at(j));
                if !prod.is_zero() {
                    out_data.extend_from_slice(t);
                    out_data.extend_from_slice(&other.tuple_at(j)[k..]);
                    out_values.push(prod);
                }
            }
        }
        out
    }

    /// Semijoin `⋉` (Definition 3.5): keeps this relation's entries whose
    /// projection onto the shared variables appears in `other`
    /// (annotations unchanged — the filtering semantics the BCQ protocols
    /// use, cf. Example 2.1's `((R ⋉ S) ⋉ T) ⋉ U`): the rows whose key
    /// finds a non-empty run in `other` laid out as for
    /// [`Relation::join`]. Order-preserving.
    pub fn semijoin(&self, other: &Relation<S>) -> Relation<S> {
        let (pos, other) = self.keyed_for(other);
        let mut out = Relation::new(self.schema.clone());
        let (out_data, out_values) = out.parts_mut();
        let mut key = vec![0; pos.len()];
        for (t, v) in self.iter() {
            key.iter_mut().zip(&pos).for_each(|(x, &p)| *x = t[p]);
            let run = kernel::key_run(other.raw_data(), other.schema.len(), 0..other.len(), &key);
            if !run.is_empty() {
                out_data.extend_from_slice(t);
                out_values.push(v.clone());
            }
        }
        out
    }

    /// The positions in this schema of the variables it shares with
    /// `other`, and `other` reordered onto them (in this schema's order)
    /// followed by its fresh variables (in its own): sorted on the join
    /// key, so the rows matching one key are one run. The reorder sorts
    /// nothing when `other` is laid out so already.
    fn keyed_for(&self, other: &Relation<S>) -> (Vec<usize>, Relation<S>) {
        let mut layout = self.shared_vars(other);
        let pos = self.positions(&layout);
        layout.extend(other.schema.iter().filter(|v| !self.schema.contains(v)));
        (pos, other.reorder(&layout))
    }

    /// Maps every annotation through `f`, dropping entries that map to
    /// zero. Order-preserving — only the annotation column is rebuilt.
    pub fn map_values(&self, mut f: impl FnMut(&S) -> S) -> Relation<S> {
        let mut data = self.raw_data().to_vec();
        let mut values: Vec<S> = self.raw_values().iter().map(&mut f).collect();
        if values.iter().any(S::is_zero) {
            kernel::compact_zeros(self.schema.len(), &mut data, &mut values);
        }
        Relation {
            schema: self.schema.clone(),
            arena: Arena::new(data, values),
        }
    }

    /// `⊕`-total of all annotations: with `F = ∅` this is the FAQ answer
    /// scalar (for BCQ, non-zero ⇔ `true`).
    pub fn total(&self) -> S {
        S::sum(self.raw_values().iter().cloned())
    }

    /// Reorders the schema (and all tuples) to the given permutation of
    /// the current schema.
    pub fn reorder(&self, schema: &[Var]) -> Relation<S> {
        let pos = self.positions(schema);
        assert_eq!(schema.len(), self.schema.len(), "must be a permutation");
        let mut data: Vec<u32> = Vec::with_capacity(self.raw_data().len());
        for t in self.tuples() {
            data.extend(pos.iter().map(|&p| t[p]));
        }
        let (data, values) =
            kernel::sort_merge_rows(schema.len(), data, self.raw_values().to_vec(), |a, b| {
                a.add_assign(b)
            });
        let mut out = Relation::new(schema.to_vec());
        out.set_parts(data, values);
        out
    }

    /// The number of bits needed to ship this relation in Model 2.1:
    /// every tuple costs `r · ⌈log₂ D⌉` bits plus the semiring
    /// annotation.
    pub fn bits(&self, domain: u32) -> u64 {
        let per_value = (32 - domain.saturating_sub(1).leading_zeros()).max(1) as u64;
        self.len() as u64 * (self.schema.len() as u64 * per_value + S::value_bits())
    }

    /// Approximate structural equality (same schema, same tuples,
    /// `approx_eq` values) — for float-carrying semirings in tests.
    pub fn approx_eq(&self, other: &Relation<S>) -> bool {
        self.schema == other.schema
            && self.raw_data() == other.raw_data()
            && self.len() == other.len()
            && self
                .raw_values()
                .iter()
                .zip(other.raw_values())
                .all(|(v, w)| v.approx_eq(w))
    }

    /// Partitions the listing by an owner function (e.g. a consistent
    /// hash of the join-key value): tuple `t` lands in part
    /// `owner_of(t) % parts`. `owner_of` is called once per row, in
    /// order; each part is sized before it is filled. Canonical order is
    /// preserved inside every part, so the parts reassemble with
    /// [`Relation::union_all`]'s merge.
    pub fn split_by(
        &self,
        parts: usize,
        mut owner_of: impl FnMut(&[u32]) -> usize,
    ) -> Vec<Relation<S>> {
        assert!(parts >= 1);
        let owners: Vec<usize> = self.tuples().map(|t| owner_of(t) % parts).collect();
        let mut sizes = vec![0usize; parts];
        owners.iter().for_each(|&o| sizes[o] += 1);
        let arity = self.schema.len();
        let mut out: Vec<(Vec<u32>, Vec<S>)> = sizes
            .iter()
            .map(|&n| (Vec::with_capacity(n * arity), Vec::with_capacity(n)))
            .collect();
        for ((t, v), &o) in self.iter().zip(&owners) {
            let (data, values) = &mut out[o];
            data.extend_from_slice(t);
            values.push(v.clone());
        }
        out.into_iter()
            .map(|(data, values)| Relation {
                schema: self.schema.clone(),
                arena: Arena::new(data, values),
            })
            .collect()
    }

    /// Union of same-schema relations with `⊕`-accumulation of duplicate
    /// tuples (inverse of [`Relation::split_by`]). Every part is
    /// canonical already, so the parts are merged, not re-sorted. One
    /// dense column — its values span at most `4·rows + 1024`, the bound
    /// the direct-address regroup and message lookup use — is summed by
    /// one counting pass into a direct-address table, the parts in
    /// order. Wider rows and a sparse column go by one pass that picks
    /// the least front row among the parts, comparing leading columns
    /// first. Either way a tuple held by several parts sums in part order —
    /// `((p₀ ⊕ p₁) ⊕ p₂) …` over the parts that hold it — and is dropped
    /// when that sum is zero.
    pub fn union_all(parts: &[Relation<S>]) -> Relation<S> {
        assert!(!parts.is_empty());
        let schema = parts[0].schema.clone();
        for p in parts {
            assert_eq!(p.schema, schema, "schemas must match");
        }
        let (data, values) = kernel::merge_parts(schema.len(), parts);
        Relation {
            schema,
            arena: Arena::new(data, values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::{Boolean, Count, Prob};

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn count_rel(schema: &[u32], rows: &[(&[u32], u64)]) -> Relation<Count> {
        Relation::from_pairs(
            schema.iter().map(|i| v(*i)).collect(),
            rows.iter().map(|(t, c)| (t.to_vec(), Count(*c))),
        )
    }

    #[test]
    fn restrict_in_selects_and_stays_canonical() {
        let r = count_rel(
            &[0, 1],
            &[(&[1, 5], 1), (&[2, 3], 2), (&[2, 7], 3), (&[4, 0], 4)],
        );
        // Select on the leading column, with a duplicate and misses.
        let got = r.restrict_in(v(0), &[0, 2, 2, 4, 9]);
        assert_eq!(
            got,
            count_rel(&[0, 1], &[(&[2, 3], 2), (&[2, 7], 3), (&[4, 0], 4)])
        );
        // Select on a non-leading column: one filtering scan, rows kept
        // in order.
        let got = r.restrict_in(v(1), &[0, 5]);
        assert_eq!(got, count_rel(&[0, 1], &[(&[1, 5], 1), (&[4, 0], 4)]));
        // Empty selection, empty relation.
        assert_eq!(r.restrict_in(v(0), &[]).len(), 0);
        let empty: Relation<Count> = Relation::new([v(0), v(1)]);
        assert_eq!(empty.restrict_in(v(0), &[1]).len(), 0);
    }

    #[test]
    fn insert_accumulates_and_drops_zero() {
        let mut r: Relation<Count> = Relation::new([v(0)]);
        r.insert(vec![1], Count(2));
        r.insert(vec![1], Count(3));
        assert_eq!(r.get(&[1]), Some(&Count(5)));
        r.insert(vec![2], Count(0));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn schema_rejects_duplicates() {
        let _: Relation<Count> = Relation::new([v(0), v(0)]);
    }

    #[test]
    fn from_pairs_accumulates_in_one_pass() {
        let r = count_rel(&[0, 1], &[(&[3, 3], 1), (&[1, 2], 2), (&[3, 3], 4)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(&[3, 3]), Some(&Count(5)));
        // Canonical order: rows sorted lexicographically.
        assert_eq!(r.tuple_at(0), &[1, 2]);
        assert_eq!(r.tuple_at(1), &[3, 3]);
    }

    #[test]
    fn from_columns_bulk_loads() {
        let r: Relation<Count> = Relation::from_columns(
            vec![v(0), v(1)],
            vec![2, 2, 1, 1, 2, 2],
            vec![Count(1), Count(2), Count(3)],
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(&[2, 2]), Some(&Count(4)));
    }

    #[test]
    fn unit_is_the_join_identity() {
        let u: Relation<Count> = Relation::unit();
        assert_eq!(u.len(), 1);
        assert_eq!(u.total(), Count(1));
        let r = count_rel(&[0], &[(&[1], 5)]);
        assert_eq!(u.join(&r), r);
    }

    #[test]
    fn debug_truncates_long_relations() {
        let r: Relation<Boolean> = Relation::full(vec![v(0), v(1)], 8);
        let s = format!("{r:?}");
        assert!(s.contains("… (48 more)"), "got {s}");
        let small = count_rel(&[0], &[(&[1], 1)]);
        assert!(!format!("{small:?}").contains("more"));
    }

    #[test]
    fn projection_aggregates() {
        let r = count_rel(&[0, 1], &[(&[1, 1], 2), (&[1, 2], 3), (&[2, 1], 5)]);
        let p = r.project(&[v(0)]);
        assert_eq!(p.get(&[1]), Some(&Count(5)));
        assert_eq!(p.get(&[2]), Some(&Count(5)));
    }

    #[test]
    fn projection_on_non_prefix_positions() {
        let r = count_rel(&[0, 1], &[(&[1, 7], 2), (&[2, 7], 3), (&[3, 5], 5)]);
        let p = r.project(&[v(1)]);
        assert_eq!(p.get(&[7]), Some(&Count(5)));
        assert_eq!(p.get(&[5]), Some(&Count(5)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn aggregate_out_matches_project_for_sum() {
        let r = count_rel(&[0, 1], &[(&[1, 1], 2), (&[1, 2], 3), (&[2, 1], 5)]);
        assert_eq!(r.aggregate_out(v(1), Aggregate::Sum), r.project(&[v(0)]));
    }

    #[test]
    fn aggregate_out_max() {
        let r = count_rel(&[0, 1], &[(&[1, 1], 2), (&[1, 2], 3)]);
        let m = r.aggregate_out(v(1), Aggregate::Max);
        assert_eq!(m.get(&[1]), Some(&Count(3)));
    }

    #[test]
    fn join_multiplies_annotations() {
        let r = count_rel(&[0, 1], &[(&[1, 2], 2)]);
        let s = count_rel(&[1, 2], &[(&[2, 7], 3), (&[9, 9], 1)]);
        let j = r.join(&s);
        assert_eq!(j.schema(), &[v(0), v(1), v(2)]);
        assert_eq!(j.len(), 1);
        assert_eq!(j.get(&[1, 2, 7]), Some(&Count(6)));
    }

    #[test]
    fn join_is_commutative_up_to_reorder() {
        let r = count_rel(&[0, 1], &[(&[1, 2], 2), (&[3, 4], 7)]);
        let s = count_rel(&[1, 2], &[(&[2, 7], 3), (&[4, 1], 5)]);
        let a = r.join(&s);
        let b = s.join(&r).reorder(&[v(0), v(1), v(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn join_output_stays_sorted_without_normalise() {
        let r = count_rel(&[0], &[(&[1], 1), (&[2], 1)]);
        let s = count_rel(&[1, 0], &[(&[9, 1], 1), (&[5, 1], 1), (&[7, 2], 1)]);
        let j = r.join(&s);
        assert_eq!(j.schema(), &[v(0), v(1)]);
        let tuples: Vec<&[u32]> = j.tuples().collect();
        assert_eq!(tuples, vec![&[1, 5][..], &[1, 9][..], &[2, 7][..]]);
    }

    #[test]
    fn cartesian_join_when_disjoint() {
        let r = count_rel(&[0], &[(&[1], 1), (&[2], 1)]);
        let s = count_rel(&[1], &[(&[5], 1), (&[6], 1)]);
        assert_eq!(r.join(&s).len(), 4);
    }

    #[test]
    fn semijoin_filters_without_changing_values() {
        let r = count_rel(&[0, 1], &[(&[1, 2], 2), (&[3, 4], 7)]);
        let s = count_rel(&[1, 2], &[(&[2, 9], 1)]);
        let sj = r.semijoin(&s);
        assert_eq!(sj.len(), 1);
        assert_eq!(sj.get(&[1, 2]), Some(&Count(2)));
    }

    #[test]
    fn semijoin_example_2_1_chain() {
        // Set intersection via chained semijoins on single-attribute
        // relations, as in Example 2.1.
        let mk = |xs: &[u32]| {
            Relation::<Boolean>::from_pairs(
                vec![v(0)],
                xs.iter().map(|x| (vec![*x], Boolean::TRUE)),
            )
        };
        let r = mk(&[1, 2, 3, 4]);
        let s = mk(&[2, 3, 9]);
        let t = mk(&[3, 2]);
        let u = mk(&[3]);
        let result = r.semijoin(&s).semijoin(&t).semijoin(&u);
        assert_eq!(result.len(), 1);
        assert!(result.get(&[3]).is_some());
    }

    #[test]
    fn identity_map_resets_values() {
        let r = count_rel(&[0], &[(&[1], 5), (&[2], 9)]);
        let id = r.map_values(|_| Count(1));
        assert_eq!(id.get(&[1]), Some(&Count(1)));
        assert_eq!(id.get(&[2]), Some(&Count(1)));
    }

    #[test]
    fn map_values_drops_new_zeros() {
        let r = count_rel(&[0], &[(&[1], 5), (&[2], 9)]);
        let halved = r.map_values(|c| Count(c.0 / 9));
        assert_eq!(halved.len(), 1);
        assert_eq!(halved.get(&[2]), Some(&Count(1)));
    }

    #[test]
    fn total_sums_annotations() {
        let r = count_rel(&[0], &[(&[1], 5), (&[2], 9)]);
        assert_eq!(r.total(), Count(14));
    }

    #[test]
    fn full_relation_enumerates_domain() {
        let r: Relation<Boolean> = Relation::full(vec![v(0), v(1)], 3);
        assert_eq!(r.len(), 9);
        // Already canonical: first and last rows bracket the domain.
        assert_eq!(r.tuple_at(0), &[0, 0]);
        assert_eq!(r.tuple_at(8), &[2, 2]);
    }

    #[test]
    fn split_and_union_roundtrip() {
        let r = count_rel(&[0], &[(&[1], 1), (&[2], 2), (&[3], 3), (&[4], 4)]);
        let mut next = 0;
        let parts = r.split_by(3, |_| {
            next += 1;
            next
        });
        let sizes: Vec<usize> = parts.iter().map(Relation::len).collect();
        assert_eq!(sizes, [1, 2, 1], "round robin");
        assert_eq!(Relation::union_all(&parts), r);
    }

    #[test]
    fn split_by_owner_partitions_and_roundtrips() {
        let r = count_rel(&[0], &[(&[1], 1), (&[2], 2), (&[3], 3), (&[4], 4)]);
        let parts = r.split_by(2, |t| t[0] as usize % 2);
        assert_eq!(parts[0].tuples().count(), 2, "even keys");
        assert!(parts[0].tuples().all(|t| t[0] % 2 == 0));
        assert!(parts[1].tuples().all(|t| t[0] % 2 == 1));
        assert_eq!(Relation::union_all(&parts), r);
    }

    #[test]
    fn bits_accounts_for_arity_and_domain() {
        let r = count_rel(&[0, 1], &[(&[1, 1], 1)]);
        // 2 vars × 4 bits (domain 16) + 64 value bits.
        assert_eq!(r.bits(16), 2 * 4 + 64);
        let b: Relation<Boolean> = Relation::from_pairs(vec![v(0)], [(vec![1], Boolean::TRUE)]);
        assert_eq!(b.bits(16), 4, "boolean annotations are free");
    }

    #[test]
    fn prob_join_and_project_compose() {
        let r: Relation<Prob> = Relation::from_pairs(
            vec![v(0), v(1)],
            [(vec![0, 0], Prob(0.5)), (vec![0, 1], Prob(0.5))],
        );
        let s: Relation<Prob> = Relation::from_pairs(
            vec![v(1), v(2)],
            [(vec![0, 0], Prob(0.25)), (vec![1, 0], Prob(0.75))],
        );
        let joint = r.join(&s);
        let marginal = joint.project(&[v(2)]);
        assert!(marginal.get(&[0]).unwrap().approx_eq(&Prob(0.5)));
    }

    #[test]
    fn reorder_permutes() {
        let r = count_rel(&[0, 1], &[(&[1, 2], 3)]);
        let p = r.reorder(&[v(1), v(0)]);
        assert_eq!(p.get(&[2, 1]), Some(&Count(3)));
    }

    #[test]
    fn nullary_relation_roundtrips() {
        let mut r: Relation<Count> = Relation::new([]);
        assert!(r.is_empty());
        r.insert(vec![], Count(2));
        r.insert(vec![], Count(3));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&[]), Some(&Count(5)));
        assert_eq!(r.total(), Count(5));
    }
}
