//! The worst-case-optimal **generic join**: a leapfrog intersection over
//! per-call tries of the sorted columnar arenas.
//!
//! A binary join cascade over a cyclic bag (triangle, 4-cycle, clique)
//! can materialise an intermediate quadratically larger than the final
//! output — exactly the blow-up the AGM bound says is avoidable. The
//! generic join of Ngo–Porat–Ré–Rudra instead binds one variable at a
//! time: at each depth it intersects, over every factor containing that
//! variable, the values the variable can still take under the prefix
//! bound so far. Its running time is within a log factor of the
//! fractional-edge-cover (AGM) output bound, for *any* query.
//!
//! **Trie levels.** Rows are lexicographically sorted and strictly
//! increasing, so once a factor's columns are in `var_order` order one
//! sweep over its arena (`trie`) turns it into CSR levels: level `l`
//! lists, parent by parent, the distinct values column `l` takes under
//! each distinct prefix of columns `0..l`, as one contiguous sorted run
//! per parent, with an offsets array saying where each parent's run
//! starts. The last level has one entry per row, in row order, so an
//! index into it *is* the row id the annotation is read from. It is
//! materialised rather than read in place through the arena's stride
//! because the innermost intersection — where almost every iteration
//! happens — then runs over two plain `&[u32]`; a prototype reading the
//! last column in place through a runtime stride gave back a third of
//! the gain (640 vs 470 µs on the benchmark suite's triangle). A trie
//! level lists each value once, so no run-end search exists anywhere.
//!
//! **Three loops.** The recursion reads a `Shape` (tries, annotation
//! columns, which levels meet at which depth) by `&` and writes a
//! `State` (selected entry per level, bound prefix, output fold) by
//! `&mut`, so the sibling lists meeting at a depth are slices held
//! across the recursive call. Per depth it dispatches on how many lists
//! meet: **one** — iterate; **two** — a two-pointer merge, both cursors
//! stepping branch-free when the lists are of similar length, the
//! lagging side `seek`ing (linear, then exponential, then binary) when
//! they are not; **three or more** — a max-driven leapfrog over the
//! same `seek`. The last depth folds the annotations of the selected
//! rows. Bindings are discovered in lexicographic `var_order` order, so
//! a plain join appends each non-zero product as a row and the output
//! is canonical as it stands: no sort, no zero sweep.
//!
//! **Aggregate as you join.** A GHD node's bag is never wanted for
//! itself: the pass needs its push-down message, the bag with the
//! node's nest aggregated out (Corollary G.2). The planner binds the
//! nest on the trailing depths of `var_order`, outermost first, so
//! [`generic_join_aggregated`] drives the push-down's own `NestFold`
//! with one level per trailing depth: a non-zero product folds into the
//! innermost level's open partial, and when the loop at a trailing
//! depth ends, its level closes — a zero partial is dropped, any other
//! folds into the level above under that level's operator, and the
//! outermost lists a row over the kept depths. Every group thus folds
//! in the ascending order the listed bag's one-scan push-down would
//! fold it in, bit for bit, and the listed bag is never built. Child
//! messages list only bag variables, so they join as further factors,
//! folded after the bag's own — `fold_keyed`'s per-row association —
//! and the leapfrog prunes on them too. An order whose nest does not
//! trail (a hand-built one) lists the bag and regroups it instead.
//!
//! **Cost.** One sweep per factor (at most `rows × arity` reads and as
//! many pushed `u32`s — 2.6 ns per row on 200 000-row factors, ≈ 4 on
//! 3 000-row ones) plus the leapfrog, which pays a small constant per
//! candidate binding: a merge step per entry of the lists that meet, a
//! `seek` per entry of the shorter list when they are lopsided. The
//! output costs one fold per non-zero binding and one row per kept
//! prefix: a BCQ count over the benchmark suite's triangle folds its
//! 3 013 bindings into one row, where listing them cost a
//! `from_columns` of 16–23 µs and a push-down scan of 43–53 µs of a
//! ≈ 500 µs solve (≈ 450 µs without them). Tries
//! are transient: built per call, dropped with it, nothing cached on
//! [`Relation`]. The sweep is what the planner's cost model charges a
//! generic-join bag (`prep = Σ r·(log₂ r + 1)` per factor in
//! `faqs-plan`'s `CostModel::simulate`). It is also
//! the one thing a cursor galloping over the raw arenas skipped:
//! joining 20 rows against two 200 000-row factors (domain 2 000, 99
//! rows out) takes 1.0 ms here against 23–29 µs for such a cursor — all
//! of it the sweep — while bags whose output is not dwarfed by their
//! inputs run 1.4–2.4× faster than it did (the benchmark suite's
//! triangle 1 140 → 500 µs, its 4-cycle 1 740 → 720 µs, a 50 000-row
//! triangle 45 → 25 ms, `K4` on 2 000-row edges 16.5 → 11.3 ms). This
//! is the one bag kernel: there is no size-switched second kernel, and
//! no second lowering, for a lopsided bag.
//!
//! **Bit-identity with the cascade.** At full depth the annotation is
//! the left-fold `(…(v₀ ⊗ v₁) ⊗ v₂…)` over the factors *in slice
//! order* — the same association order a binary cascade over the same
//! factor order produces. Exact semirings are trivially equal; for
//! float-carried ones (`MinPlus`) equal association order makes every
//! tuple's value bit-identical, which the differential suites assert.
//! Only the values: the columns come out in `var_order`, which the
//! planner picks for the push-down and which need not be the cascade's
//! concatenation schema.

use crate::kernel::{aggregate_nest, trailing_nest, NestFold};
use crate::relation::Relation;
use faqs_hypergraph::Var;
use faqs_semiring::{Aggregate, Semiring};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Entries `seek` walks before it gallops: a leapfrog target usually
/// sits a few entries ahead, and eight `u32`s are half a cache line.
const LINEAR_PROBES: usize = 8;

/// Two lists within this factor of each other's length merge entry by
/// entry; past it, stepping through the long side costs more than
/// seeking in it.
const SIMILAR_LENGTH: usize = 4;

/// One column of one factor's trie.
struct Level {
    /// The distinct values of this column under each distinct prefix of
    /// the columns before it: one strictly increasing run per parent,
    /// runs in parent order.
    vals: Vec<u32>,
    /// `vals[starts[p]..starts[p + 1]]` is the run under entry `p` of
    /// the level above (`[0, vals.len()]` at a factor's first level).
    starts: Vec<usize>,
    /// Where [`State::sel`] holds that `p`; this level's own selected
    /// entry is written one place after it.
    up: usize,
}

/// Sweeps a sorted, strictly increasing `arity`-strided arena into its
/// trie, one [`Level`] per column, selections living at `base..` of
/// [`State::sel`]. A row opens a new entry at every level from the first
/// column in which it differs from the row before it; the last level
/// gets every row, so its entry index is the row id.
fn trie(data: &[u32], arity: usize, base: usize) -> Vec<Level> {
    let last = arity - 1;
    let mut levels: Vec<Level> = (0..arity)
        .map(|l| Level {
            vals: Vec::new(),
            starts: Vec::new(),
            up: base + l,
        })
        .collect();
    levels[last].vals.reserve_exact(data.len() / arity);
    let mut prev: &[u32] = &[];
    for row in data.chunks_exact(arity) {
        let key = &row[..last];
        let fresh = prev.iter().zip(key).position(|(p, k)| p != k);
        // No row before it: every level is fresh. Equal key: none is.
        for l in fresh.unwrap_or(prev.len())..last {
            levels[l].vals.push(key[l]);
            let below = levels[l + 1].vals.len();
            levels[l + 1].starts.push(below);
        }
        levels[last].vals.push(row[last]);
        prev = key;
    }
    levels[0].starts.push(0);
    for level in &mut levels {
        level.starts.push(level.vals.len());
    }
    levels
}

/// First index `i >= lo` with `xs[i] >= target` (`xs.len()` when there
/// is none) in a sorted list: a few linear probes, then doubling steps,
/// then a binary search inside the last step.
#[inline]
fn seek(xs: &[u32], lo: usize, target: u32) -> usize {
    let mut lo = lo;
    let window = xs.len().min(lo + LINEAR_PROBES);
    while lo < window {
        if xs[lo] >= target {
            return lo;
        }
        lo += 1;
    }
    // Everything before `lo` is below `target`; probe the last entry of
    // a doubling step until one is not, or the list ends inside it.
    let mut step = 1;
    let hi = loop {
        let probe = lo + step - 1;
        if probe >= xs.len() {
            break xs.len();
        }
        if xs[probe] >= target {
            break probe;
        }
        lo = probe + 1;
        step <<= 1;
    };
    lo + xs[lo..hi].partition_point(|&x| x < target)
}

/// Calls `hit(i, j)` for every `xs[i] == ys[j]` of two strictly
/// increasing lists, in increasing order, stepping both cursors entry
/// by entry without a data-dependent branch on which one lags.
#[inline]
fn merge_stepping(xs: &[u32], ys: &[u32], mut hit: impl FnMut(usize, usize)) {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        let (x, y) = (xs[i], ys[j]);
        if x == y {
            hit(i, j);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
}

/// [`merge_stepping`]'s matches, the lagging cursor `seek`ing to the
/// other's head: sublinear in the longer list.
#[inline]
fn merge_seeking(xs: &[u32], ys: &[u32], mut hit: impl FnMut(usize, usize)) {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        let (x, y) = (xs[i], ys[j]);
        match x.cmp(&y) {
            Ordering::Equal => {
                hit(i, j);
                i += 1;
                j += 1;
            }
            Ordering::Less => i = seek(xs, i + 1, y),
            Ordering::Greater => j = seek(ys, j + 1, x),
        }
    }
}

/// The annotation sources at emit time, in original factor order, so the
/// `⊗`-fold associates exactly like the equivalent binary cascade.
enum EmitSource<'a, S> {
    /// Proper factor: its annotation column, read at the entry
    /// `sel[at]` selected in its last trie level — the row id.
    Row { values: &'a [S], at: usize },
    /// Nullary factor: its single annotation, folded in-position.
    Scalar(&'a S),
}

impl<'a, S> EmitSource<'a, S> {
    /// The annotation under the current selection.
    #[inline]
    fn value(&self, sel: &[usize]) -> &'a S {
        match *self {
            EmitSource::Row { values, at } => &values[sel[at]],
            EmitSource::Scalar(s) => s,
        }
    }
}

/// What the recursion reads.
struct Shape<'a, S> {
    /// Every proper factor's trie, factor after factor.
    levels: Vec<Level>,
    /// `active[d]` = the levels (indices into `levels`) whose column is
    /// `var_order[d]`.
    active: Vec<Vec<usize>>,
    /// The first factor's annotation, which seeds the `⊗`-fold, and the
    /// others', folded into it in slice order.
    first: EmitSource<'a, S>,
    rest: Vec<EmitSource<'a, S>>,
    /// Depths `kept..` bind the nest: when the loop at one of them ends,
    /// its level closes.
    kept: usize,
}

impl<S> Shape<'_, S> {
    /// The list level `level` offers under the entry selected one level
    /// up, and that list's offset within the level.
    #[inline]
    fn list(&self, level: usize, sel: &[usize]) -> (usize, &[u32]) {
        let level = &self.levels[level];
        let parent = sel[level.up];
        let (lo, hi) = (level.starts[parent], level.starts[parent + 1]);
        (lo, &level.vals[lo..hi])
    }
}

/// One list of a leapfrog over three or more.
struct Cursor<'a> {
    list: &'a [u32],
    pos: usize,
    /// The list's offset within its level, and where the selected entry
    /// goes in [`State::sel`].
    offset: usize,
    at: usize,
}

/// What the recursion writes.
struct State<'a, S: Semiring> {
    /// The selected entry of every level, each factor's levels preceded
    /// by a fixed `0` — the one parent of its first level's only run.
    sel: Vec<usize>,
    /// The values bound so far, one per depth.
    prefix: Vec<u32>,
    /// Per depth, the cursors of a leapfrog over three or more lists:
    /// taken on entry and put back on exit, so a depth allocates once.
    cursors: Vec<Vec<Cursor<'a>>>,
    /// Non-zero products so far: the rows of the un-aggregated join.
    rows: usize,
    /// The output: one level per nest depth — level `j` folds depth
    /// `kept + j` — and the rows over the kept depths.
    nest: NestFold<S>,
}

/// Binds `var_order[depth]` to every value all lists meeting there
/// offer under the current prefix, descending once per value.
fn recurse<'a, S: Semiring>(shape: &'a Shape<'a, S>, st: &mut State<'a, S>, depth: usize) {
    match *shape.active[depth].as_slice() {
        [a] => {
            let at = shape.levels[a].up + 1;
            let (offset, xs) = shape.list(a, &st.sel);
            for (i, &x) in xs.iter().enumerate() {
                st.sel[at] = offset + i;
                descend(shape, st, depth, x);
            }
        }
        [a, b] => {
            let (a_at, b_at) = (shape.levels[a].up + 1, shape.levels[b].up + 1);
            let (a_offset, xs) = shape.list(a, &st.sel);
            let (b_offset, ys) = shape.list(b, &st.sel);
            let hit = |i: usize, j: usize| {
                st.sel[a_at] = a_offset + i;
                st.sel[b_at] = b_offset + j;
                descend(shape, st, depth, xs[i]);
            };
            if xs.len() <= SIMILAR_LENGTH * ys.len() && ys.len() <= SIMILAR_LENGTH * xs.len() {
                merge_stepping(xs, ys, hit);
            } else {
                merge_seeking(xs, ys, hit);
            }
        }
        _ => {
            let mut cursors = std::mem::take(&mut st.cursors[depth]);
            cursors.clear();
            cursors.extend(shape.active[depth].iter().map(|&level| {
                let (offset, list) = shape.list(level, &st.sel);
                Cursor {
                    list,
                    pos: 0,
                    offset,
                    at: shape.levels[level].up + 1,
                }
            }));
            leapfrog(shape, st, depth, &mut cursors);
            st.cursors[depth] = cursors;
        }
    }
    // Every binding under the current prefix has been seen: at a nest
    // depth, that is the whole group its level folds.
    if let Some(level) = depth.checked_sub(shape.kept) {
        st.nest.close(level, &st.prefix);
    }
}

/// The intersection of three or more lists: cursors take turns seeking
/// the largest head seen so far; once as many in a row sit on it as
/// there are lists it is a match, and the cursor whose turn it is steps
/// past it to propose the next target.
fn leapfrog<'a, S: Semiring>(
    shape: &'a Shape<'a, S>,
    st: &mut State<'a, S>,
    depth: usize,
    cursors: &mut [Cursor<'a>],
) {
    let (mut target, mut agreeing, mut turn) = (0u32, 0usize, 0usize);
    loop {
        let c = &mut cursors[turn];
        c.pos = seek(c.list, c.pos, target);
        let Some(&head) = c.list.get(c.pos) else {
            return;
        };
        if head == target {
            agreeing += 1;
        } else {
            (target, agreeing) = (head, 1);
        }
        if agreeing >= cursors.len() {
            for c in cursors.iter() {
                st.sel[c.at] = c.offset + c.pos;
            }
            descend(shape, st, depth, target);
            let c = &mut cursors[turn];
            c.pos += 1;
            let Some(&next) = c.list.get(c.pos) else {
                return;
            };
            (target, agreeing) = (next, 1);
        }
        turn = if turn + 1 == cursors.len() {
            0
        } else {
            turn + 1
        };
    }
}

/// With `var_order[depth] = value` bound and every level meeting there
/// selected: one depth down, or — every variable bound — the output row.
#[inline(always)]
fn descend<'a, S: Semiring>(
    shape: &'a Shape<'a, S>,
    st: &mut State<'a, S>,
    depth: usize,
    value: u32,
) {
    st.prefix[depth] = value;
    if depth + 1 < shape.active.len() {
        recurse(shape, st, depth + 1);
    } else {
        emit(shape, st);
    }
}

/// The in-order `⊗`-fold of the selected rows' annotations, unless it is
/// zero: folded into the innermost nest level, or — no nest — listed
/// under the bound prefix.
#[inline]
fn emit<S: Semiring>(shape: &Shape<'_, S>, st: &mut State<'_, S>) {
    let mut acc = shape.first.value(&st.sel).clone();
    for src in &shape.rest {
        acc = acc.mul(src.value(&st.sel));
    }
    if !acc.is_zero() {
        st.rows += 1;
        st.nest.fold(&st.prefix, acc);
    }
}

/// Joins `factors` into one relation over exactly `var_order` (which
/// must equal the union of the factor schemas), visiting output tuples
/// in a single worst-case-optimal multiway pass.
///
/// Factors whose schema does not already bind its columns in
/// `var_order` order are reordered once up front; nullary factors
/// contribute their scalar annotation at emit time, in slice position.
/// The annotation of an output tuple is the in-order `⊗`-fold of the
/// matching factor annotations — the same association order as the
/// binary cascade over the same factor order, so the two lowerings
/// give every tuple the same value, bit for bit, on every semiring in
/// the workspace.
///
/// ```
/// use faqs_hypergraph::Var;
/// use faqs_relation::{generic_join, Relation};
/// use faqs_semiring::Count;
/// let e = |a, b| {
///     Relation::from_pairs(vec![Var(a), Var(b)], vec![
///         (vec![0, 1], Count(1)),
///         (vec![1, 2], Count(1)),
///         (vec![2, 0], Count(1)),
///         (vec![0, 2], Count(1)),
///     ])
/// };
/// // Triangles of the 3-cycle: one multiway pass, no quadratic
/// // intermediate.
/// let t = generic_join(&[&e(0, 1), &e(1, 2), &e(0, 2)], &[Var(0), Var(1), Var(2)]);
/// assert_eq!(t.len(), 1, "exactly the triangle (0,1,2) survives");
/// ```
pub fn generic_join<S: Semiring>(factors: &[&Relation<S>], var_order: &[Var]) -> Relation<S> {
    fold_join(factors, var_order, Vec::new()).0
}

/// [`generic_join`] with `nest` — variables each with its operator,
/// innermost (aggregated first) first — aggregated out as the join runs:
/// equal, bit for bit, to `generic_join(factors, var_order)
/// .aggregate_out_many(nest)`, and the number of rows that listed join
/// would have (its non-zero products).
///
/// When `var_order` binds the nest's variables last, outermost first —
/// the layout order the planner gives every generic-join bag — the bag
/// is never listed: each trailing depth keeps one open partial and
/// folds its group as the loop over it ends, so the output is one row
/// per kept prefix over `var_order` without its nest, in order. Any
/// other order lists the join and regroups it. Variables of `nest`
/// outside `var_order` are skipped.
///
/// A GHD node passes its child messages as further factors, after its
/// own: they list only bag variables, so the per-row fold
/// `((f₁ ⊗ f₂) ⊗ …) ⊗ m₁ ⊗ m₂` is [`Relation::fold_keyed`]'s, and the
/// result is the node's pushed-down message.
///
/// ```
/// use faqs_hypergraph::Var;
/// use faqs_relation::{generic_join, generic_join_aggregated, Aggregate, Relation};
/// use faqs_semiring::Count;
/// let e = |a, b, rows: &[(u32, u32)]| {
///     Relation::from_pairs(
///         vec![Var(a), Var(b)],
///         rows.iter().map(|&(x, y)| (vec![x, y], Count(1))),
///     )
/// };
/// let r = e(0, 1, &[(0, 1), (0, 2), (1, 2)]);
/// let s = e(1, 2, &[(1, 2), (2, 0), (2, 2)]);
/// let t = e(0, 2, &[(0, 2), (1, 0), (0, 0)]);
/// let order = [Var(0), Var(1), Var(2)];
/// // Per x0, the triangles through it: x1 and x2 summed out as they bind.
/// let nest = [(Var(2), Aggregate::Sum), (Var(1), Aggregate::Sum)];
/// let (per_x0, rows) = generic_join_aggregated(&[&r, &s, &t], &order, &nest);
/// let listed = generic_join(&[&r, &s, &t], &order);
/// assert_eq!(rows, listed.len());
/// assert_eq!(per_x0, listed.aggregate_out_many(&nest));
/// assert_eq!(per_x0.schema(), [Var(0)]);
/// ```
pub fn generic_join_aggregated<S: Semiring>(
    factors: &[&Relation<S>],
    var_order: &[Var],
    nest: &[(Var, Aggregate)],
) -> (Relation<S>, usize) {
    if trailing_nest(var_order, nest).is_none() {
        let (bag, rows) = fold_join(factors, var_order, Vec::new());
        return (aggregate_nest(bag, nest), rows);
    }
    // In layout order: the nest's listed variables, outermost first.
    let listed = nest.iter().rev().filter(|(v, _)| var_order.contains(v));
    fold_join(factors, var_order, listed.map(|&(_, op)| op).collect())
}

/// The join with its last `ops.len()` depths folded, one operator per
/// depth, as their loops close; the output is over the depths before
/// them. Also the count of non-zero products.
fn fold_join<S: Semiring>(
    factors: &[&Relation<S>],
    var_order: &[Var],
    ops: Vec<Aggregate>,
) -> (Relation<S>, usize) {
    assert!(!factors.is_empty(), "generic join over no factors");
    debug_assert!(
        factors
            .iter()
            .all(|f| f.schema().iter().all(|v| var_order.contains(v))),
        "factor schema outside var_order"
    );
    let kept = var_order.len() - ops.len();
    if factors.iter().any(|f| f.is_empty()) {
        return (Relation::new(var_order[..kept].to_vec()), 0);
    }

    // Each factor with its columns bound in var_order order — reordered
    // once, unless its schema already agrees — and each column's depth.
    let prepared: Vec<(Cow<'_, Relation<S>>, Vec<usize>)> = factors
        .iter()
        .map(|&f| {
            let (depths, target): (Vec<usize>, Vec<Var>) = var_order
                .iter()
                .enumerate()
                .filter(|(_, v)| f.schema().contains(v))
                .unzip();
            let f = match f.schema() == target {
                true => Cow::Borrowed(f),
                false => Cow::Owned(f.reorder(&target)),
            };
            (f, depths)
        })
        .collect();

    let mut levels = Vec::new();
    let mut active = vec![Vec::new(); var_order.len()];
    let mut slots = 0usize;
    let mut emit_sources: Vec<EmitSource<'_, S>> = prepared
        .iter()
        .map(|(f, depths)| {
            let arity = depths.len();
            if arity == 0 {
                return EmitSource::Scalar(f.value_at(0));
            }
            for (col, &d) in depths.iter().enumerate() {
                active[d].push(levels.len() + col);
            }
            levels.extend(trie(f.raw_data(), arity, slots));
            slots += arity + 1;
            EmitSource::Row {
                values: f.raw_values(),
                at: slots - 1,
            }
        })
        .collect();
    assert!(
        active.iter().all(|a| !a.is_empty()),
        "every var_order variable must be bound by some factor"
    );
    let shape = Shape {
        levels,
        active,
        first: emit_sources.remove(0),
        rest: emit_sources,
        kept,
    };

    let mut st = State {
        sel: vec![0; slots],
        prefix: vec![0; var_order.len()],
        cursors: var_order.iter().map(|_| Vec::new()).collect(),
        rows: 0,
        nest: NestFold::new(var_order[..kept].to_vec(), ops),
    };
    if var_order.is_empty() {
        // Only nullary factors: the one empty tuple, their product.
        emit(&shape, &mut st);
    } else {
        recurse(&shape, &mut st, 0);
    }
    // Bindings come in lexicographic order and every level has closed,
    // so the listed rows are canonical as they stand.
    (st.nest.finish(), st.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::{Count, MinPlus};

    fn edge(a: u32, b: u32, rows: &[(u32, u32)]) -> Relation<Count> {
        Relation::from_pairs(
            vec![Var(a), Var(b)],
            rows.iter()
                .map(|&(x, y)| (vec![x, y], Count(1)))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn triangle_matches_the_cascade() {
        let r = edge(0, 1, &[(0, 1), (0, 2), (1, 2), (3, 3)]);
        let s = edge(1, 2, &[(1, 2), (2, 0), (2, 2), (3, 3)]);
        let t = edge(0, 2, &[(0, 2), (1, 0), (3, 3)]);
        let cascade = r.join(&s).join(&t);
        let gj = generic_join(&[&r, &s, &t], &[Var(0), Var(1), Var(2)]);
        assert_eq!(gj, cascade.reorder(&[Var(0), Var(1), Var(2)]));
        assert!(!gj.is_empty());
    }

    #[test]
    fn empty_factor_short_circuits() {
        let r = edge(0, 1, &[(0, 1)]);
        let s: Relation<Count> = Relation::new(vec![Var(1), Var(2)]);
        let gj = generic_join(&[&r, &s], &[Var(0), Var(1), Var(2)]);
        assert!(gj.is_empty());
        assert_eq!(gj.schema(), &[Var(0), Var(1), Var(2)]);
    }

    #[test]
    fn scalars_fold_in_position() {
        let r = edge(0, 1, &[(0, 1), (1, 0)]);
        let two = Relation::from_pairs(vec![], vec![(vec![], Count(2))]);
        let gj = generic_join(&[&two, &r], &[Var(0), Var(1)]);
        assert_eq!(gj.len(), 2);
        assert!(gj.iter().all(|(_, v)| *v == Count(2)));
    }

    #[test]
    fn nullary_only_factors_fold_to_one_scalar() {
        let scalar = |c| Relation::from_pairs(vec![], vec![(vec![], Count(c))]);
        let (two, three) = (scalar(2), scalar(3));
        let gj = generic_join(&[&two, &three], &[]);
        assert_eq!(gj, scalar(6), "one empty tuple annotated 2 ⊗ 3");
        // `from_pairs` drops the zero entry: an empty factor, so the
        // join is the empty nullary relation.
        let gj = generic_join(&[&two, &scalar(0), &three], &[]);
        assert!(gj.is_empty() && gj.schema().is_empty());
    }

    #[test]
    fn minplus_is_bit_identical_to_the_cascade() {
        let w = |a: u32, b: u32, rows: &[(u32, u32, f64)]| {
            Relation::from_pairs(
                vec![Var(a), Var(b)],
                rows.iter()
                    .map(|&(x, y, c)| (vec![x, y], MinPlus(c)))
                    .collect::<Vec<_>>(),
            )
        };
        let r = w(0, 1, &[(0, 1, 0.1), (1, 2, 0.7), (2, 0, 1.3)]);
        let s = w(1, 2, &[(1, 2, 0.3), (2, 0, 2.9), (0, 1, 0.2)]);
        let t = w(0, 2, &[(0, 2, 1.7), (1, 0, 0.5), (2, 1, 0.9)]);
        let cascade = r.join(&s).join(&t).reorder(&[Var(0), Var(1), Var(2)]);
        let gj = generic_join(&[&r, &s, &t], &[Var(0), Var(1), Var(2)]);
        assert_eq!(gj.len(), cascade.len());
        for (i, (tu, v)) in gj.iter().enumerate() {
            assert_eq!(tu, cascade.tuple_at(i));
            assert_eq!(v.0.to_bits(), cascade.value_at(i).0.to_bits(), "bit drift");
        }
    }

    #[test]
    fn unsorted_factor_schemas_are_reordered() {
        // Factor listed as (2,0) — column order disagrees with
        // var_order and must be fixed up internally.
        let r = edge(0, 1, &[(0, 1), (1, 2)]);
        let s = Relation::from_pairs(
            vec![Var(2), Var(0)],
            vec![(vec![5, 0], Count(1)), (vec![7, 1], Count(1))],
        );
        let gj = generic_join(&[&r, &s], &[Var(0), Var(1), Var(2)]);
        let cascade = r.join(&s).reorder(&[Var(0), Var(1), Var(2)]);
        assert_eq!(gj, cascade);
    }

    /// ℤ/6ℤ: `2 ⊗ 3 = 0` with neither factor zero, which no workspace
    /// carrier offers.
    #[derive(Clone, PartialEq, Debug)]
    struct Z6(u8);

    impl Semiring for Z6 {
        const NAME: &'static str = "z6";
        fn zero() -> Self {
            Z6(0)
        }
        fn one() -> Self {
            Z6(1)
        }
        fn add(&self, other: &Self) -> Self {
            Z6((self.0 + other.0) % 6)
        }
        fn mul(&self, other: &Self) -> Self {
            Z6((self.0 * other.0) % 6)
        }
    }

    #[test]
    fn zero_products_are_dropped_at_emit() {
        // The fold's output keeps whatever is listed, zero or not.
        let (two, three, five) = (Z6(2), Z6(3), Z6(5));
        let scalars = |a, b| Shape {
            levels: Vec::new(),
            active: Vec::new(),
            first: EmitSource::Scalar(a),
            rest: vec![EmitSource::Scalar(b)],
            kept: 0,
        };
        let mut st = State {
            sel: Vec::new(),
            prefix: Vec::new(),
            cursors: Vec::new(),
            rows: 0,
            nest: NestFold::new(Vec::new(), Vec::new()),
        };
        emit(&scalars(&two, &three), &mut st);
        emit(&scalars(&two, &five), &mut st);
        assert_eq!(st.rows, 1, "only the non-zero product counts");
        let listed = st.nest.finish();
        let values: Vec<Z6> = listed.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(values, [Z6(4)], "2 ⊗ 3 = 0 is not a row");
    }

    #[test]
    fn a_cancelled_sum_under_a_product_is_dropped() {
        use Aggregate::{Product, Sum};
        // x0 kept; x1 under `Product`, outer; x2 under `Sum`, inner. Under
        // x0 = 0 the x1 = 0 group sums 2 + 4 = 0 (mod 6) and is dropped,
        // as the listing drops it between two single-variable steps, so
        // the product sees only x1 = 1's 5 — were it kept, 0 ⊗ 5 would
        // drop the row. Under x0 = 1 the groups are 2 and 5 + 3.
        let z6 = |schema: [u32; 2], rows: &[([u32; 2], u8)]| {
            Relation::from_pairs(
                schema.iter().map(|&v| Var(v)).collect(),
                rows.iter().map(|&(t, z)| (t.to_vec(), Z6(z))),
            )
        };
        let r = z6(
            [0, 1],
            &[([0, 0], 1), ([0, 1], 1), ([1, 0], 1), ([1, 1], 1)],
        );
        let s = z6(
            [1, 2],
            &[([0, 0], 2), ([0, 1], 4), ([1, 0], 5), ([1, 3], 3)],
        );
        let t = z6(
            [0, 2],
            &[([0, 0], 1), ([0, 1], 1), ([1, 0], 1), ([1, 3], 1)],
        );
        let (order, nest) = ([Var(0), Var(1), Var(2)], [(Var(2), Sum), (Var(1), Product)]);
        let (got, rows) = generic_join_aggregated(&[&r, &s, &t], &order, &nest);
        let listed = generic_join(&[&r, &s, &t], &order);
        assert_eq!((rows, listed.len()), (6, 6));
        assert_eq!(got, listed.aggregate_out_many(&nest));
        let want = [(vec![0], Z6(5)), (vec![1], Z6(4))];
        assert_eq!(
            got.iter()
                .map(|(t, v)| (t.to_vec(), v.clone()))
                .collect::<Vec<_>>(),
            want
        );
    }

    #[test]
    fn an_empty_factor_leaves_the_kept_schema() {
        let r = edge(0, 1, &[(0, 1)]);
        let s: Relation<Count> = Relation::new(vec![Var(1), Var(2)]);
        let nest = [(Var(2), Aggregate::Sum)];
        let (got, rows) = generic_join_aggregated(&[&r, &s], &[Var(0), Var(1), Var(2)], &nest);
        assert!(got.is_empty());
        assert_eq!(rows, 0);
        assert_eq!(got.schema(), &[Var(0), Var(1)]);
    }

    #[test]
    fn trie_levels_of_a_three_column_arena() {
        #[rustfmt::skip]
        let data = [
            1, 1, 4,
            1, 1, 7,
            1, 2, 0,
            3, 0, 0,
            3, 5, 2,
            3, 5, 3,
            3, 5, 9,
            8, 8, 8,
        ];
        let levels = trie(&data, 3, 10);
        assert_eq!(levels.len(), 3);
        // Level 0: the distinct first-column values, one run.
        assert_eq!(levels[0].vals, [1, 3, 8]);
        assert_eq!(levels[0].starts, [0, 3]);
        // Level 1: per first-column value its distinct second-column
        // values; 8 is a parent with one child, 3 closes at the end.
        assert_eq!(levels[1].vals, [1, 2, 0, 5, 8]);
        assert_eq!(levels[1].starts, [0, 2, 4, 5]);
        // Level 2: the last column row for row, so entry = row id; the
        // closing offset is the row count.
        assert_eq!(levels[2].vals, [4, 7, 0, 0, 2, 3, 9, 8]);
        assert_eq!(levels[2].starts, [0, 2, 3, 4, 7, 8]);
        assert_eq!(
            levels.iter().map(|l| l.up).collect::<Vec<_>>(),
            [10, 11, 12]
        );

        // One column: the arena itself under the single root.
        let unary = trie(&[2, 5, 6], 1, 0);
        assert_eq!(unary[0].vals, [2, 5, 6]);
        assert_eq!(unary[0].starts, [0, 3]);
    }

    /// Strictly increasing lists of the lengths on both sides of the
    /// linear window, with gaps so targets fall between entries.
    fn seek_lists() -> Vec<Vec<u32>> {
        [0usize, 1, 8, 9, 200]
            .iter()
            .map(|&n| (0..n as u32).map(|i| 3 * i + 2 + i % 2).collect())
            .collect()
    }

    #[test]
    fn seek_matches_a_linear_scan() {
        for xs in seek_lists() {
            let top = xs.last().map_or(3, |&x| x + 3);
            for lo in 0..=xs.len() {
                // Below, inside, between and above the list.
                for target in 0..=top {
                    let want = (lo..xs.len()).find(|&i| xs[i] >= target);
                    assert_eq!(
                        seek(&xs, lo, target),
                        want.unwrap_or(xs.len()),
                        "len {} lo {lo} target {target}",
                        xs.len()
                    );
                }
            }
        }
        assert_eq!(seek(&[0, u32::MAX], 0, u32::MAX), 1);
    }

    #[test]
    fn stepping_and_seeking_merges_agree() {
        let lists = seek_lists();
        let multiples_of_five: Vec<u32> = (0..130).map(|i| 5 * i).collect();
        for xs in lists.iter().chain([&multiples_of_five]) {
            for ys in lists.iter().chain([&multiples_of_five]) {
                let want: Vec<(usize, usize)> = xs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, x)| Some((i, ys.iter().position(|y| y == x)?)))
                    .collect();
                let (mut stepped, mut sought) = (Vec::new(), Vec::new());
                merge_stepping(xs, ys, |i, j| stepped.push((i, j)));
                merge_seeking(xs, ys, |i, j| sought.push((i, j)));
                assert_eq!(stepped, want, "{} vs {}", xs.len(), ys.len());
                assert_eq!(sought, want, "{} vs {}", xs.len(), ys.len());
            }
        }
    }
}
