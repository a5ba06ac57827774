//! The worst-case-optimal **generic join**: a multiway leapfrog
//! intersection over the sorted columnar arenas.
//!
//! A binary join cascade over a cyclic bag (triangle, 4-cycle, clique)
//! can materialise an intermediate quadratically larger than the final
//! output — exactly the blow-up the AGM bound says is avoidable. The
//! generic join of Ngo–Porat–Ré–Rudra instead binds one variable at a
//! time: at each depth it intersects the current-column value runs of
//! every factor containing that variable, narrowing each factor's live
//! row range before recursing. Its running time is within a log factor
//! of the fractional-edge-cover (AGM) output bound, for *any* query.
//!
//! The implementation leans on the crate's arena invariants: rows are
//! lexicographically sorted and strictly increasing, so once a factor is
//! reordered to bind its columns in `var_order` order, every per-depth
//! value run is contiguous and max-driven galloping (`gallop`) finds
//! intersection candidates in `O(log run)` per step. Output tuples are
//! discovered in lexicographic `var_order` order, so the final
//! [`Relation::from_columns`] takes the already-sorted fast path and the
//! whole operator performs a single bulk canonicalisation sweep.
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

use crate::kernel::row;
use crate::relation::Relation;
use faqs_hypergraph::Var;
use faqs_semiring::Semiring;

/// First row index in `[lo, hi)` whose `col`-column satisfies `pred`,
/// assuming `pred` is monotone (false… then true…) over the range —
/// which holds for `>= v` / `> v` predicates on a sorted column run.
/// Gallops from `lo` (runs are short and near), then binary-searches.
#[inline]
fn gallop(
    data: &[u32],
    arity: usize,
    col: usize,
    mut lo: usize,
    hi: usize,
    pred: impl Fn(u32) -> bool,
) -> usize {
    if lo >= hi || pred(data[lo * arity + col]) {
        return lo;
    }
    // Fixed-width strided prescan: leapfrog runs are short, so the
    // first match almost always sits within a lane of the cursor.
    // The lane tests accumulate branch-free (monotone `pred` makes
    // the miss count the offset of the first match), and only a
    // fully-missing prescan falls through to the exponential probe.
    const LANES: usize = 4;
    if hi - lo > LANES {
        let mut misses = 0usize;
        for j in 0..LANES {
            misses += usize::from(!pred(data[(lo + 1 + j) * arity + col]));
        }
        if misses < LANES {
            return lo + 1 + misses;
        }
        // All LANES lanes miss: `pred(lo + LANES)` is false, the
        // gallop invariant, so restart the exponential probe there.
        lo += LANES;
    }
    let mut step = 1usize;
    let mut base = lo;
    while base + step < hi && !pred(data[(base + step) * arity + col]) {
        base += step;
        step <<= 1;
    }
    let (mut l, mut h) = (base + 1, (base + step).min(hi));
    while l < h {
        let m = l + (h - l) / 2;
        if pred(data[m * arity + col]) {
            h = m;
        } else {
            l = m + 1;
        }
    }
    l
}

/// The annotation sources at emit time, in original factor order, so the
/// `⊗`-fold associates exactly like the equivalent binary cascade.
enum EmitSource<S> {
    /// Proper factor: index into the per-depth range table.
    Factor(usize),
    /// Nullary factor: its single annotation, folded in-position.
    Scalar(S),
}

struct GenJoin<'a, S: Semiring> {
    /// Arena + arity of each proper (arity ≥ 1) factor, reordered so its
    /// columns bind in `var_order` order.
    arenas: Vec<(&'a [u32], usize)>,
    values: Vec<&'a [S]>,
    /// `active[d]` = the `(factor, col)` pairs binding `var_order[d]`.
    active: Vec<Vec<(usize, usize)>>,
    /// `ranges[d][f]` = factor `f`'s live row range entering depth `d`.
    ranges: Vec<Vec<(usize, usize)>>,
    emit: Vec<EmitSource<S>>,
    prefix: Vec<u32>,
    out_data: Vec<u32>,
    out_values: Vec<S>,
}

impl<S: Semiring> GenJoin<'_, S> {
    fn recurse(&mut self, depth: usize) {
        if depth == self.active.len() {
            self.emit_row();
            return;
        }
        loop {
            // Max-driven alignment: propose the largest current head
            // value, gallop every active factor up to it, and repeat
            // until all heads agree (or some factor is exhausted).
            let mut v = 0u32;
            for &(f, c) in &self.active[depth] {
                let (lo, hi) = self.ranges[depth][f];
                if lo >= hi {
                    return;
                }
                let (data, ar) = self.arenas[f];
                v = v.max(row(data, ar, lo)[c]);
            }
            let mut aligned = false;
            while !aligned {
                aligned = true;
                for &(f, c) in &self.active[depth] {
                    let (lo, hi) = self.ranges[depth][f];
                    let (data, ar) = self.arenas[f];
                    let lo2 = gallop(data, ar, c, lo, hi, |x| x >= v);
                    if lo2 >= hi {
                        return;
                    }
                    self.ranges[depth][f].0 = lo2;
                    let head = row(data, ar, lo2)[c];
                    if head > v {
                        v = head;
                        aligned = false;
                    }
                }
            }
            // All active heads sit on `v`: narrow to the value runs and
            // bind `var_order[depth] = v` one level down.
            self.prefix[depth] = v;
            let (cur, rest) = self.ranges.split_at_mut(depth + 1);
            rest[0].copy_from_slice(&cur[depth]);
            for &(f, c) in &self.active[depth] {
                let (lo, hi) = cur[depth][f];
                let (data, ar) = self.arenas[f];
                let end = gallop(data, ar, c, lo, hi, |x| x > v);
                rest[0][f] = (lo, end);
            }
            self.recurse(depth + 1);
            // Advance each active factor past the consumed run.
            for &(f, _) in &self.active[depth] {
                let end = self.ranges[depth + 1][f].1;
                let (_, hi) = self.ranges[depth][f];
                if end >= hi {
                    return;
                }
                self.ranges[depth][f].0 = end;
            }
        }
    }

    fn emit_row(&mut self) {
        let depth = self.active.len();
        let mut acc: Option<S> = None;
        for src in &self.emit {
            let v = match src {
                EmitSource::Scalar(s) => s,
                EmitSource::Factor(f) => {
                    // Every column of factor `f` is bound and rows are
                    // strictly increasing, so the live range is 1 row.
                    let (lo, hi) = self.ranges[depth][*f];
                    debug_assert_eq!(hi - lo, 1, "fully bound factor run");
                    &self.values[*f][lo]
                }
            };
            acc = Some(match acc {
                None => v.clone(),
                Some(a) => a.mul(v),
            });
        }
        let acc = acc.expect("generic join over no factors");
        if !acc.is_zero() {
            self.out_data.extend_from_slice(&self.prefix);
            self.out_values.push(acc);
        }
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
    assert!(!factors.is_empty(), "generic join over no factors");
    debug_assert!(
        factors
            .iter()
            .all(|f| f.schema().iter().all(|v| var_order.contains(v))),
        "factor schema outside var_order"
    );
    if factors.iter().any(|f| f.is_empty()) {
        return Relation::new(var_order.to_vec());
    }

    // Reorder each proper factor so its columns bind in var_order
    // order; skip the copy when the schema already agrees.
    let mut reordered: Vec<Option<Relation<S>>> = Vec::with_capacity(factors.len());
    let mut emit = Vec::with_capacity(factors.len());
    let mut n_proper = 0usize;
    for f in factors {
        if f.schema().is_empty() {
            emit.push(EmitSource::Scalar(f.value_at(0).clone()));
            reordered.push(None);
            continue;
        }
        let target: Vec<Var> = var_order
            .iter()
            .copied()
            .filter(|v| f.schema().contains(v))
            .collect();
        emit.push(EmitSource::Factor(n_proper));
        n_proper += 1;
        reordered.push(if f.schema() == target {
            None
        } else {
            Some(f.reorder(&target))
        });
    }
    // `reordered` owns the copies; borrow originals or copies in one
    // pass (indices in `emit` were assigned in the same order).
    let proper: Vec<&Relation<S>> = factors
        .iter()
        .zip(&reordered)
        .filter(|(f, _)| !f.schema().is_empty())
        .map(|(f, r)| r.as_ref().unwrap_or(f))
        .collect();

    let k = var_order.len();
    let mut active: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k];
    for (fi, f) in proper.iter().enumerate() {
        for (col, v) in f.schema().iter().enumerate() {
            let d = var_order.iter().position(|w| w == v).expect("var in order");
            active[d].push((fi, col));
        }
    }
    assert!(
        active.iter().all(|a| !a.is_empty()),
        "every var_order variable must be bound by some factor"
    );

    let init: Vec<(usize, usize)> = proper.iter().map(|f| (0, f.len())).collect();
    let mut gj = GenJoin {
        arenas: proper
            .iter()
            .map(|f| (f.raw_data(), f.schema().len()))
            .collect(),
        values: proper.iter().map(|f| f.raw_values()).collect(),
        active,
        ranges: vec![init; k + 1],
        emit,
        prefix: vec![0; k],
        out_data: Vec::new(),
        out_values: Vec::new(),
    };
    gj.recurse(0);
    // Tuples were emitted in lexicographic order, so this is the
    // sorted fast path: no re-sort, one zero sweep at most.
    Relation::from_columns(var_order.to_vec(), gj.out_data, gj.out_values)
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

    #[test]
    fn gallop_finds_first_match() {
        let data: Vec<u32> = vec![0, 1, 1, 3, 3, 3, 7, 9];
        for target in 0..11 {
            let got = gallop(&data, 1, 0, 0, data.len(), |x| x >= target);
            let want = data.iter().position(|&x| x >= target).unwrap_or(data.len());
            assert_eq!(got, want, "target {target}");
        }
    }
}
