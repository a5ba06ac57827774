//! Property suite for the columnar kernel: the sort-merge / galloping
//! join, semijoin and projection operators must agree with a naive
//! nested-loop reference on random relations, across semirings with
//! different zero/duplicate behaviour (`Count`, `Boolean`, `MinPlus`).
//! The block-copy delta merge, the one-scan nest aggregation and the
//! bitmap / sorted-copy distinct counts of `Relation::stats` are raced
//! against the row-at-a-time / per-variable / hash-set algorithms they
//! replaced, kept here as references; the sorted-run selection against a
//! plain filter; the one-scan message fold against the join chain it
//! replaced in the upward pass.

use faqs_hypergraph::Var;
use faqs_relation::{Aggregate, DeltaOp, Relation, RelationDelta};
use faqs_semiring::{Boolean, Count, Gf2, MinPlus, Prob, Semiring};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Schema pairs exercising every key shape: full overlap, partial
/// overlap at prefix and non-prefix positions, disjoint (cartesian),
/// unary ⊆ binary containment, unsorted schema orders, and a nullary
/// relation on either side (a zero-arity key, so every row matches
/// every row — or none, when one side is empty).
const SCHEMAS: &[(&[u32], &[u32])] = &[
    (&[0, 1], &[1, 2]),
    (&[0, 1], &[0, 1]),
    (&[0], &[0, 1]),
    (&[0, 1, 2], &[1, 3]),
    (&[0, 1], &[2, 3]),
    (&[2, 0], &[1, 0]),
    (&[1, 0, 2], &[2, 1]),
    (&[], &[0, 1]),
    (&[0, 1], &[]),
];

fn vars(ids: &[u32]) -> Vec<Var> {
    ids.iter().map(|&i| Var(i)).collect()
}

/// A random relation over `schema` with `n` draws in `[0, domain)` and
/// values from `value_of` (duplicates ⊕-collapse; zero values test the
/// listing invariant).
fn random_rel<S: Semiring>(
    schema: &[u32],
    n: usize,
    domain: u32,
    rng: &mut StdRng,
    mut value_of: impl FnMut(&mut StdRng) -> S,
) -> Relation<S> {
    let pairs: Vec<(Vec<u32>, S)> = (0..n)
        .map(|_| {
            let t: Vec<u32> = schema.iter().map(|_| rng.random_range(0..domain)).collect();
            (t, value_of(rng))
        })
        .collect();
    Relation::from_pairs(vars(schema), pairs)
}

/// `rel` with its leading column, if any, spread over the whole `u32`
/// range (an order-preserving relabelling of values below 5).
fn spread_lead<S: Semiring>(rel: &Relation<S>) -> Relation<S> {
    let rows = rel.iter().map(|(t, v)| {
        let mut t = t.to_vec();
        t.iter_mut().take(1).for_each(|x| *x *= u32::MAX / 4);
        (t, v.clone())
    });
    Relation::from_pairs(rel.schema().to_vec(), rows)
}

/// A deep copy of the listing, tuple by tuple: holds nothing a clone
/// could share with `r`.
fn rows_of<S: Semiring>(r: &Relation<S>) -> Vec<(Vec<u32>, S)> {
    r.iter().map(|(t, v)| (t.to_vec(), v.clone())).collect()
}

/// Checks the canonical invariants: strictly sorted rows, no zero
/// annotations, arena shape consistent with the schema.
fn assert_canonical<S: Semiring>(r: &Relation<S>, what: &str) {
    let tuples: Vec<&[u32]> = r.tuples().collect();
    for w in tuples.windows(2) {
        assert!(w[0] < w[1], "{what}: rows not strictly sorted: {w:?}");
    }
    for (t, v) in r.iter() {
        assert_eq!(t.len(), r.schema().len(), "{what}: arity drift");
        assert!(!v.is_zero(), "{what}: zero annotation listed");
    }
}

/// The variables `a` shares with `b`, in `a`'s order.
fn shared_vars<S: Semiring>(a: &Relation<S>, b: &Relation<S>) -> Vec<Var> {
    let shared = a.schema().iter().copied();
    shared.filter(|v| b.schema().contains(v)).collect()
}

/// Nested-loop reference join: every pair of tuples agreeing on the
/// shared variables contributes the ⊗-product.
fn ref_join<S: Semiring>(a: &Relation<S>, b: &Relation<S>) -> Relation<S> {
    let shared = shared_vars(a, b);
    let a_pos: Vec<usize> = shared
        .iter()
        .map(|v| a.schema().iter().position(|w| w == v).unwrap())
        .collect();
    let b_pos: Vec<usize> = shared
        .iter()
        .map(|v| b.schema().iter().position(|w| w == v).unwrap())
        .collect();
    let fresh: Vec<Var> = b
        .schema()
        .iter()
        .copied()
        .filter(|v| !a.schema().contains(v))
        .collect();
    let fresh_pos: Vec<usize> = fresh
        .iter()
        .map(|v| b.schema().iter().position(|w| w == v).unwrap())
        .collect();
    let mut schema: Vec<Var> = a.schema().to_vec();
    schema.extend(fresh.iter().copied());
    let mut pairs: Vec<(Vec<u32>, S)> = Vec::new();
    for (t, v) in a.iter() {
        for (u, w) in b.iter() {
            if a_pos.iter().zip(&b_pos).all(|(&i, &j)| t[i] == u[j]) {
                let mut row = t.to_vec();
                row.extend(fresh_pos.iter().map(|&j| u[j]));
                pairs.push((row, v.mul(w)));
            }
        }
    }
    Relation::from_pairs(schema, pairs)
}

/// Nested-loop reference semijoin: keep `a`'s entries with a witness in
/// `b` on the shared variables, annotations untouched.
fn ref_semijoin<S: Semiring>(a: &Relation<S>, b: &Relation<S>) -> Relation<S> {
    let shared = shared_vars(a, b);
    let a_pos: Vec<usize> = shared
        .iter()
        .map(|v| a.schema().iter().position(|w| w == v).unwrap())
        .collect();
    let b_pos: Vec<usize> = shared
        .iter()
        .map(|v| b.schema().iter().position(|w| w == v).unwrap())
        .collect();
    let pairs: Vec<(Vec<u32>, S)> = a
        .iter()
        .filter(|(t, _)| {
            b.iter()
                .any(|(u, _)| a_pos.iter().zip(&b_pos).all(|(&i, &j)| t[i] == u[j]))
        })
        .map(|(t, v)| (t.to_vec(), v.clone()))
        .collect();
    Relation::from_pairs(a.schema().to_vec(), pairs)
}

/// Reference projection: ⊕-fold collapsed tuples with a quadratic scan.
fn ref_project<S: Semiring>(a: &Relation<S>, onto: &[Var]) -> Relation<S> {
    let pos: Vec<usize> = onto
        .iter()
        .map(|v| a.schema().iter().position(|w| w == v).unwrap())
        .collect();
    let mut keys: Vec<Vec<u32>> = Vec::new();
    let mut vals: Vec<S> = Vec::new();
    for (t, v) in a.iter() {
        let key: Vec<u32> = pos.iter().map(|&i| t[i]).collect();
        match keys.iter().position(|k| *k == key) {
            Some(i) => vals[i].add_assign(v),
            None => {
                keys.push(key);
                vals.push(v.clone());
            }
        }
    }
    Relation::from_pairs(
        onto.to_vec(),
        keys.into_iter().zip(vals).collect::<Vec<_>>(),
    )
}

/// `(tuple, old, new)` per changed tuple, as `AppliedDelta::changes` lists them.
type Changes<S> = Vec<(Vec<u32>, S, S)>;

/// The delta merge as it was before block copies: canonicalise the ops
/// (stable sort, same-tuple composition in recording order), then walk
/// relation and delta one row at a time. Returns the merged relation
/// and the `(tuple, old, new)` changes.
fn ref_apply_delta<S: Semiring>(
    rel: &Relation<S>,
    delta: &RelationDelta<S>,
) -> (Relation<S>, Changes<S>) {
    let apply = |op: &DeltaOp<S>, old: &S| match op {
        DeltaOp::Add(d) => old.add(d),
        DeltaOp::Set(v) => v.clone(),
    };
    let mut ops: Vec<(Vec<u32>, DeltaOp<S>)> = Vec::new();
    let mut recorded: Vec<(&[u32], &DeltaOp<S>)> = delta.ops().collect();
    recorded.sort_by(|a, b| a.0.cmp(b.0));
    for (t, op) in recorded {
        match ops.last_mut() {
            Some((last, composed)) if last.as_slice() == t => {
                *composed = match (&*composed, op) {
                    (DeltaOp::Add(a), DeltaOp::Add(b)) => DeltaOp::Add(a.add(b)),
                    (DeltaOp::Set(a), DeltaOp::Add(b)) => DeltaOp::Set(a.add(b)),
                    (_, DeltaOp::Set(b)) => DeltaOp::Set(b.clone()),
                }
            }
            _ => ops.push((t.to_vec(), op.clone())),
        }
    }
    let (mut data, mut values, mut changes) = (Vec::new(), Vec::new(), Vec::new());
    let (n, dn) = (rel.len(), ops.len());
    let (mut i, mut j) = (0, 0);
    while i < n || j < dn {
        let ord = if i >= n {
            std::cmp::Ordering::Greater
        } else if j >= dn {
            std::cmp::Ordering::Less
        } else {
            rel.tuple_at(i).cmp(&ops[j].0)
        };
        match ord {
            std::cmp::Ordering::Less => {
                data.extend_from_slice(rel.tuple_at(i));
                values.push(rel.value_at(i).clone());
                i += 1;
            }
            std::cmp::Ordering::Equal => {
                let prev = rel.value_at(i);
                let next = apply(&ops[j].1, prev);
                if next != *prev {
                    changes.push((ops[j].0.clone(), prev.clone(), next.clone()));
                }
                if !next.is_zero() {
                    data.extend_from_slice(&ops[j].0);
                    values.push(next);
                }
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Greater => {
                let next = apply(&ops[j].1, &S::zero());
                if !next.is_zero() {
                    changes.push((ops[j].0.clone(), S::zero(), next.clone()));
                    data.extend_from_slice(&ops[j].0);
                    values.push(next);
                }
                j += 1;
            }
        }
    }
    (
        Relation::from_columns(rel.schema().to_vec(), data, values),
        changes,
    )
}

/// Selection by a plain filter: every row whose value at `var` the
/// selection lists, in any order and with any repeats.
fn ref_restrict_in<S: Semiring>(rel: &Relation<S>, var: Var, values: &[u32]) -> Relation<S> {
    let at = rel.schema().iter().position(|w| *w == var).unwrap();
    let kept = rel.iter().filter(|(t, _)| values.contains(&t[at]));
    Relation::from_pairs(
        rel.schema().to_vec(),
        kept.map(|(t, v)| (t.to_vec(), v.clone())),
    )
}

/// Races `apply_delta` against [`ref_apply_delta`] on one relation and
/// one delta shape. Relation values sit in `[8, 8 + domain)` so a delta
/// can land wholly before (`0..8`) or after (`≥ 8 + domain`) every row.
fn check_apply_delta<S: Semiring>(
    schema: &[u32],
    seed: u64,
    n: usize,
    dn: usize,
    domain: u32,
    shape: usize,
    mut value_of: impl FnMut(&mut StdRng) -> S + Copy,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Relation<S> = random_rel(schema, n, domain, &mut rng, value_of);
    let mut rel = Relation::from_pairs(
        vars(schema),
        base.iter()
            .map(|(t, v)| (t.iter().map(|x| x + 8).collect(), v.clone())),
    );
    let mut delta = RelationDelta::new(vars(schema));
    let mut record = |t: Vec<u32>, rng: &mut StdRng| match rng.random_range(0..4) {
        0 => delta.delete(t),
        1 => delta.set(t, value_of(rng)),
        _ => delta.insert(t, value_of(rng)),
    };
    match shape {
        // No ops at all.
        0 => {}
        // Every key sorts before / after every row.
        1 | 2 => {
            let lo = if shape == 1 { 0 } else { 8 + domain };
            for _ in 0..dn {
                let t = schema
                    .iter()
                    .map(|_| lo + rng.random_range(0..8u32))
                    .collect();
                record(t, &mut rng);
            }
        }
        // One op on every listed row: no untouched run anywhere.
        3 => {
            let rows: Vec<Vec<u32>> = rel.tuples().map(<[u32]>::to_vec).collect();
            for t in rows {
                record(t, &mut rng);
            }
        }
        // Hits, misses and repeats anywhere in or around the rows.
        _ => {
            for _ in 0..dn {
                let t = schema
                    .iter()
                    .map(|_| 6 + rng.random_range(0..domain + 4))
                    .collect();
                record(t, &mut rng);
            }
        }
    }
    let (want, want_changes) = ref_apply_delta(&rel, &delta);
    let applied = rel.apply_delta(&delta);
    assert_canonical(&rel, "apply_delta");
    assert_eq!(rel, want, "apply_delta vs row-at-a-time merge");
    let got_changes: Changes<S> = applied
        .changes()
        .map(|(t, o, v)| (t.to_vec(), o.clone(), v.clone()))
        .collect();
    assert_eq!(got_changes, want_changes, "reported changes");
}

/// A push-down nest: variables with their operators, innermost first.
type Nest = Vec<(Var, Aggregate)>;

/// `rel` regrouped into `nest`'s layout order: the kept columns as they
/// stand, then the nest's variables outermost first.
fn in_layout_order<S: Semiring>(rel: &Relation<S>, nest: &[(Var, Aggregate)]) -> Relation<S> {
    let private = |v: &Var| nest.iter().any(|(w, _)| w == v);
    let mut layout: Vec<Var> = rel
        .schema()
        .iter()
        .copied()
        .filter(|v| !private(v))
        .collect();
    layout.extend(nest.iter().rev().map(|(v, _)| *v));
    rel.reorder(&layout)
}

/// The push-down as it was before the one-scan fold: one
/// single-variable aggregation per nest entry, innermost first — over
/// the relation in layout order, so that every step is a sorted-prefix
/// projection and folds its groups in ascending row order.
fn ref_aggregate_out_many<S: Semiring>(
    rel: &Relation<S>,
    nest: &[(Var, Aggregate)],
) -> Relation<S> {
    let laid_out = in_layout_order(rel, nest);
    nest.iter()
        .fold(laid_out, |out, &(v, op)| out.aggregate_out(v, op))
}

/// Same schema, same rows, and values `same` finds identical (`==`, or
/// `to_bits` on a float carrier).
fn assert_same<S: Semiring>(
    got: &Relation<S>,
    want: &Relation<S>,
    same: fn(&S, &S) -> bool,
    what: &str,
) {
    assert_eq!(got.schema(), want.schema(), "{what}: schema");
    assert_eq!(
        got.tuples().collect::<Vec<_>>(),
        want.tuples().collect::<Vec<_>>(),
        "{what}: rows"
    );
    for ((t, g), w) in got.iter().zip(want.iter().map(|(_, w)| w)) {
        assert!(same(g, w), "{what}: {t:?} ↦ {g:?}, reference {w:?}");
    }
}

/// Races `aggregate_out_many` against
/// [`ref_aggregate_out_many`] on one random relation: arity 1–7 (group
/// keys up to six columns wide, past the widest the scan is compiled
/// for), columns in a random order, up to 60 draws from a domain of
/// 1–3, a random subset of the variables — none to all — private, each
/// with an operator drawn from `ops`.
fn check_nest<S: Semiring>(
    seed: u64,
    ops: &[Aggregate],
    value_of: impl FnMut(&mut StdRng) -> S,
    same: fn(&S, &S) -> bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.random_range(1..8usize);
    let mut schema: Vec<u32> = (0..arity as u32).collect();
    for i in (1..arity).rev() {
        schema.swap(i, rng.random_range(0..=i));
    }
    let (n, domain) = (rng.random_range(0..60), rng.random_range(1..4));
    let rel: Relation<S> = random_rel(&schema, n, domain, &mut rng, value_of);
    // Half the cases spread one column over the whole `u32` range (an
    // order-preserving relabelling): a regroup that keeps it cannot
    // count it and falls back to the comparison sort.
    let wide = rng.random_bool(0.5).then(|| rng.random_range(0..arity));
    let spread = |(t, v): (&[u32], &S)| {
        let mut t = t.to_vec();
        t.iter_mut()
            .enumerate()
            .for_each(|(c, x)| *x *= if wide == Some(c) { u32::MAX / 3 } else { 1 });
        (t, v.clone())
    };
    let rel = Relation::from_pairs(vars(&schema), rel.iter().map(spread));
    let mut nest: Nest = (0..arity as u32)
        .rev()
        .filter_map(|v| {
            let op = ops[rng.random_range(0..ops.len())];
            rng.random_bool(0.6).then_some((Var(v), op))
        })
        .collect();

    let want = ref_aggregate_out_many(&rel, &nest);
    let got = rel.clone().aggregate_out_many(&nest);
    assert_canonical(&got, "aggregate_out_many");
    assert_same(&got, &want, same, "one scan vs per-variable loop");

    // The same relation presented in layout order (no regroup) and with
    // its columns rotated (another regroup) folds to the same values.
    let laid_out = in_layout_order(&rel, &nest).aggregate_out_many(&nest);
    assert_same(&laid_out, &want, same, "presented in layout order");
    let mut rotated = rel.schema().to_vec();
    rotated.rotate_left(1);
    let rotated = rel.reorder(&rotated).aggregate_out_many(&nest);
    assert_same(&rotated.reorder(want.schema()), &want, same, "rotated");

    // A nest variable the schema does not list was aggregated out
    // earlier: skipped, wherever it stands in the nest.
    nest.insert(rng.random_range(0..=nest.len()), (Var(9), ops[0]));
    assert_same(
        &rel.aggregate_out_many(&nest),
        &want,
        same,
        "absent variable",
    );
}

/// [`check_nest`] on mixed `Sum`/`Product` nests, which every semiring
/// folds.
fn check_plain_nest<S: Semiring>(
    seed: u64,
    value_of: impl FnMut(&mut StdRng) -> S,
    same: fn(&S, &S) -> bool,
) {
    check_nest(seed, &[Aggregate::Sum, Aggregate::Product], value_of, same);
}

/// ℤ/6ℤ: `2 ⊗ 3 = 0` with neither factor zero — a product that dies in
/// the middle of a chain of messages (as `genjoin_props.rs` has it).
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

/// The column lists a message into a bag of `arity` columns may carry,
/// one per lookup `fold_keyed` chooses between: every prefix in order
/// (the whole schema last; the empty one scales every row), a prefix out
/// of order, one inner column, the last column, two non-adjacent
/// columns, the whole schema reversed.
fn message_shapes(arity: usize) -> Vec<Vec<usize>> {
    let mut shapes: Vec<Vec<usize>> = (0..=arity).map(|k| (0..k).collect()).collect();
    shapes.push(vec![arity - 1]);
    shapes.push((0..arity).rev().collect());
    if arity >= 3 {
        shapes.extend([vec![1, 0], vec![1], vec![0, 2], vec![2, 0]]);
    }
    if arity == 4 {
        shapes.extend([vec![1, 3], vec![2, 1], vec![0, 1, 3]]);
    }
    shapes
}

/// Races `fold_keyed` against the join chain `bag ⋈ m₁ ⋈ m₂ …` on one
/// random bag (arity 1–4, columns in a random variable order, up to 60
/// rows) and 0–4 messages of random [`message_shapes`]. Each column
/// draws from its own palette: `0..d` (a one-column key fits the
/// direct-address table) or `d` values from `0` to `u32::MAX` (it does
/// not, and is binary-searched). A message lists random keys (about
/// half of them missing from the bag), the bag's own projection, only
/// the projection's lower half (a prefix cursor runs off it before the
/// bag ends), or nothing. `same` holds the values to the chain's;
/// `exact` says `⊗` is associative on the carrier, so that folding the
/// messages in another order must give the same values too.
fn check_fold<S: Semiring>(
    seed: u64,
    mut value_of: impl FnMut(&mut StdRng) -> S,
    same: fn(&S, &S) -> bool,
    exact: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.random_range(1..5usize);
    let mut schema: Vec<u32> = (0..arity as u32).collect();
    for i in (1..arity).rev() {
        schema.swap(i, rng.random_range(0..=i));
    }
    let palettes: Vec<Vec<u32>> = (0..arity)
        .map(|_| {
            let d = rng.random_range(2..5u32);
            let step = if rng.random_bool(0.5) {
                1
            } else {
                u32::MAX / (d - 1)
            };
            (0..d).map(|x| x * step).collect()
        })
        .collect();
    let var_ids = |cols: &[usize]| vars(&cols.iter().map(|&c| schema[c]).collect::<Vec<_>>());
    let random_rows = |cols: &[usize], n: usize, rng: &mut StdRng| -> Vec<Vec<u32>> {
        let pick = |rng: &mut StdRng, c: usize| palettes[c][rng.random_range(0..palettes[c].len())];
        (0..n)
            .map(|_| cols.iter().map(|&c| pick(rng, c)).collect())
            .collect()
    };
    let mut valued = |cols: &[usize], rows: Vec<Vec<u32>>, rng: &mut StdRng| -> Relation<S> {
        let pairs: Vec<(Vec<u32>, S)> = rows.into_iter().map(|t| (t, value_of(rng))).collect();
        Relation::from_pairs(var_ids(cols), pairs)
    };
    let all: Vec<usize> = (0..arity).collect();
    let rows = random_rows(&all, rng.random_range(0..60), &mut rng);
    let bag = valued(&all, rows, &mut rng);

    let shapes = message_shapes(arity);
    let messages: Vec<Relation<S>> = (0..rng.random_range(0..5))
        .map(|_| {
            let cols = &shapes[rng.random_range(0..shapes.len())];
            let own = bag.project(&var_ids(cols));
            let own: Vec<Vec<u32>> = own.tuples().map(<[u32]>::to_vec).collect();
            let rows = match rng.random_range(0..6) {
                0 => own,
                1 => own[..own.len() / 2].to_vec(),
                2 => Vec::new(),
                _ => random_rows(cols, rng.random_range(1..30), &mut rng),
            };
            valued(cols, rows, &mut rng)
        })
        .collect();
    let mut refs: Vec<&Relation<S>> = messages.iter().collect();

    let want = refs.iter().fold(bag.clone(), |acc, m| acc.join(m));
    let got = bag.clone().fold_keyed(&refs);
    assert_canonical(&got, "fold_keyed");
    assert_same(&got, &want, same, "one scan vs the join chain");

    // Any order of the messages keeps the same rows.
    refs.reverse();
    let reversed = bag.fold_keyed(&refs);
    assert_eq!(
        reversed.tuples().collect::<Vec<_>>(),
        want.tuples().collect::<Vec<_>>(),
        "messages reversed: rows"
    );
    if exact {
        assert_same(&reversed, &want, same, "messages reversed");
    }
}

/// Schemas for the single-relation properties: unary, binary, ternary,
/// and a variable order that is not ascending.
const SOLO_SCHEMAS: &[&[u32]] = &[&[0], &[0, 1], &[1, 0, 2], &[2, 0]];

/// Runs every operator comparison for one semiring.
fn check_ops<S: Semiring>(
    combo: usize,
    seed: u64,
    na: usize,
    nb: usize,
    domain: u32,
    value_of: impl FnMut(&mut StdRng) -> S + Copy,
) {
    let (sa, sb) = SCHEMAS[combo % SCHEMAS.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Relation<S> = random_rel(sa, na, domain, &mut rng, value_of);
    let b: Relation<S> = random_rel(sb, nb, domain, &mut rng, value_of);
    assert_canonical(&a, "from_pairs a");
    assert_canonical(&b, "from_pairs b");

    let j = a.join(&b);
    assert_canonical(&j, "join");
    assert_eq!(j, ref_join(&a, &b), "join vs nested loop");

    let sj = a.semijoin(&b);
    assert_canonical(&sj, "semijoin");
    assert_eq!(sj, ref_semijoin(&a, &b), "semijoin vs nested loop");

    // Project onto every suffix/prefix/single-var subset of a's schema,
    // and (`k = 0`) onto nothing: the nullary total.
    let schema = a.schema().to_vec();
    for k in 0..=schema.len() {
        let prefix = &schema[..k];
        let p = a.project(prefix);
        assert_canonical(&p, "project prefix");
        assert_eq!(p, ref_project(&a, prefix), "project prefix vs reference");
        let suffix = &schema[schema.len() - k..];
        let p = a.project(suffix);
        assert_canonical(&p, "project suffix");
        assert_eq!(p, ref_project(&a, suffix), "project suffix vs reference");
    }
}

/// `Relation::stats` as it was: one value set per column.
fn ref_distinct<S: Semiring>(rel: &Relation<S>) -> Vec<usize> {
    let distinct = |c: usize| rel.tuples().map(|t| t[c]).collect::<HashSet<u32>>().len();
    (0..rel.schema().len()).map(distinct).collect()
}

fn assert_stats_match<S: Semiring>(rel: &Relation<S>, what: &str) {
    let stats = rel.stats();
    assert_eq!(stats.rows, rel.len(), "{what}");
    assert_eq!(stats.distinct, ref_distinct(rel), "{what}: distinct");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stats_match_hash_set_reference(
        seed: u64,
        arity in 1usize..5,
        n in 0usize..120,
        // Dense ranges count in a bitmap, sparse ones (more than 64
        // values per row) in a sorted copy; `spread` reaches both, and
        // `high` pushes the values against `u32::MAX`.
        spread in 0u32..4,
        high: bool,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = [3, 64, 10_000, u32::MAX][spread as usize];
        let schema: Vec<u32> = (0..arity as u32).collect();
        let pairs: Vec<(Vec<u32>, Count)> = (0..n)
            .map(|_| {
                let t = schema.iter().map(|_| {
                    let x = rng.random_range(0..domain);
                    if high { u32::MAX - x } else { x }
                });
                (t.collect(), Count(1))
            })
            .collect();
        let rel = Relation::from_pairs(vars(&schema), pairs);
        assert_stats_match(&rel, &format!("arity {arity}, n {n}, domain {domain}, high {high}"));
    }

    #[test]
    fn counting_kernel_matches_reference(
        combo in 0usize..SCHEMAS.len(),
        seed: u64,
        na in 0usize..40,
        nb in 0usize..40,
        domain in 1u32..5,
    ) {
        // Count(0) draws exercise the zero-dropping path.
        check_ops::<Count>(combo, seed, na, nb, domain, |r| Count(r.random_range(0..4)));
    }

    #[test]
    fn boolean_kernel_matches_reference(
        combo in 0usize..SCHEMAS.len(),
        seed: u64,
        na in 0usize..40,
        nb in 0usize..40,
        domain in 1u32..5,
    ) {
        check_ops::<Boolean>(combo, seed, na, nb, domain, |r| Boolean(r.random_bool(0.8)));
    }

    #[test]
    fn tropical_kernel_matches_reference(
        combo in 0usize..SCHEMAS.len(),
        seed: u64,
        na in 0usize..40,
        nb in 0usize..40,
        domain in 1u32..5,
    ) {
        // Integer-valued costs keep min/+ exact; occasional +∞ draws
        // exercise the tropical zero.
        check_ops::<MinPlus>(combo, seed, na, nb, domain, |r| {
            if r.random_bool(0.1) {
                MinPlus::INFINITY
            } else {
                MinPlus::new(r.random_range(0..16) as f64)
            }
        });
    }

    #[test]
    fn aggregate_out_sum_equals_project(
        combo in 0usize..SCHEMAS.len(),
        seed: u64,
        n in 0usize..40,
        domain in 1u32..5,
    ) {
        let (sa, _) = SCHEMAS[combo % SCHEMAS.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Relation<Count> =
            random_rel(sa, n, domain, &mut rng, |r| Count(r.random_range(0..4)));
        for &v in a.schema() {
            let rest: Vec<Var> = a.schema().iter().copied().filter(|w| *w != v).collect();
            prop_assert_eq!(
                a.aggregate_out(v, faqs_relation::Aggregate::Sum),
                a.project(&rest)
            );
        }
    }

    #[test]
    fn aggregate_out_many_matches_per_variable_loop(seed: u64) {
        // Count(0) and false draws: rows that are never listed.
        check_plain_nest::<Count>(seed, |r| Count(r.random_range(0..3)), |a, b| a == b);
        check_plain_nest::<Boolean>(seed, |r| Boolean(r.random_bool(0.8)), |a, b| a == b);
        // 1 ⊕ 1 = 0: a Sum level's partial cancels and is dropped
        // before the Product level above it can see a zero.
        check_plain_nest::<Gf2>(seed, |_| Gf2(true), |a, b| a == b);
        check_plain_nest::<MinPlus>(
            seed,
            |r| MinPlus::new(r.random_range(0..16) as f64),
            |a, b| a == b,
        );
        // Non-dyadic weights: every fold order rounds differently.
        check_plain_nest::<Prob>(
            seed,
            |r| Prob(r.random_range(1..1000) as f64 / 1000.3),
            |a, b| a.0.to_bits() == b.0.to_bits(),
        );
        check_nest::<Count>(
            seed,
            &[Aggregate::Sum, Aggregate::Product, Aggregate::Max, Aggregate::Min],
            |r| Count(r.random_range(0..3)),
            |a, b| a == b,
        );
    }

    #[test]
    fn fold_keyed_matches_the_join_chain(seed: u64) {
        check_fold::<Count>(seed, |r| Count(r.random_range(0..4)), |a, b| a == b, true);
        check_fold::<Boolean>(seed, |r| Boolean(r.random_bool(0.8)), |a, b| a == b, true);
        // 2 ⊗ 3 = 0: rows die at the second or third message.
        check_fold::<Z6>(seed, |r| Z6(r.random_range(1..6)), |a, b| a == b, true);
        // Whole-number weights: tropical sums are exact in `f64`.
        check_fold::<MinPlus>(
            seed,
            |r| MinPlus::new(r.random_range(0..16) as f64),
            |a, b| a.0.to_bits() == b.0.to_bits(),
            true,
        );
        // Non-dyadic weights: only the chain's own association order
        // reproduces its bits.
        check_fold::<Prob>(
            seed,
            |r| Prob(r.random_range(1..1000) as f64 / 1000.3),
            |a, b| a.0.to_bits() == b.0.to_bits(),
            false,
        );
    }

    #[test]
    fn apply_delta_matches_row_at_a_time_merge(
        combo in 0usize..4,
        seed: u64,
        n in 0usize..60,
        dn in 0usize..24,
        domain in 1u32..6,
        shape in 0usize..8,
    ) {
        let schema = SOLO_SCHEMAS[combo];
        // Count(0) draws make inserts and sets no-ops or deletes.
        check_apply_delta::<Count>(schema, seed, n, dn, domain, shape, |r| {
            Count(r.random_range(0..4))
        });
        // 1 ⊕ 1 = 0: accumulating inserts that drop the row.
        check_apply_delta::<Boolean>(schema, seed, n, dn, domain, shape, |r| {
            Boolean(r.random_bool(0.8))
        });
    }

    #[test]
    fn restrict_in_matches_a_plain_filter(
        combo in 0usize..4,
        seed: u64,
        n in 0usize..80,
        picks in 0usize..12,
        domain in 1u32..8,
    ) {
        let schema = SOLO_SCHEMAS[combo];
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Relation<Count> =
            random_rel(schema, n, domain, &mut rng, |r| Count(r.random_range(1..4)));
        // Drawn unsorted, with repeats, and past the domain so some
        // values match nothing.
        let values: Vec<u32> = (0..picks).map(|_| rng.random_range(0..domain + 3)).collect();
        // Column 0 takes the sorted-run path, every other column the
        // filtering scan; both must equal the reference bit for bit.
        for &v in a.schema() {
            let got = a.restrict_in(v, &values);
            assert_canonical(&got, "restrict_in");
            prop_assert_eq!(&got, &ref_restrict_in(&a, v, &values));
        }
        // The extremes of the value range, on the leading column.
        let lead = a.schema()[0];
        for edge in [vec![], vec![0], vec![u32::MAX], vec![u32::MAX, 0]] {
            prop_assert_eq!(a.restrict_in(lead, &edge), ref_restrict_in(&a, lead, &edge));
        }
    }

    #[test]
    fn split_union_roundtrips(
        seed: u64,
        n in 0usize..60,
        parts in 1usize..5,
        domain in 1u32..6,
        wide: bool,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Relation<Count> =
            random_rel(&[0, 1], n, domain, &mut rng, |r| Count(r.random_range(1..4)));
        let a = if wide { spread_lead(&a) } else { a };
        let mut next = 0;
        let split = a.split_by(parts, |_| {
            next += 1;
            next
        });
        prop_assert_eq!(split.len(), parts);
        prop_assert_eq!(Relation::union_all(&split), a);
    }

    #[test]
    fn union_all_merges_overlapping_parts(
        seed: u64,
        schema in 0usize..5,
        parts in 1usize..6,
        n in 0usize..30,
        domain in 1u32..5,
        wide: bool,
    ) {
        // Parts drawn independently over a small domain share rows, so
        // the merge must `⊕` them; on `Gf2` equal rows can cancel. A
        // small domain is a dense leading column, which the union
        // counts; `wide` spreads it over the whole `u32` range, which
        // it merges by comparison.
        let schema: &[u32] = [&[0, 1][..], &[0], &[1, 0, 2], &[2, 0, 3, 1], &[]][schema];
        let mut rng = StdRng::seed_from_u64(seed);
        let spread = |r: Relation<_>| if wide { spread_lead(&r) } else { r };
        let counted: Vec<Relation<Count>> = (0..parts)
            .map(|_| random_rel(schema, n, domain, &mut rng, |r| Count(r.random_range(1..4))))
            .map(spread)
            .collect();
        let all = counted.iter().flat_map(rows_of);
        let union = Relation::union_all(&counted);
        assert_canonical(&union, "Count union");
        prop_assert_eq!(union, Relation::from_pairs(vars(schema), all));
        let parity: Vec<Relation<Gf2>> = (0..parts)
            .map(|_| random_rel(schema, n, domain, &mut rng, |r| Gf2(r.random_range(0..2) == 1)))
            .map(|r| if wide { spread_lead(&r) } else { r })
            .collect();
        let all = parity.iter().flat_map(rows_of);
        let union = Relation::union_all(&parity);
        assert_canonical(&union, "Gf2 union");
        prop_assert_eq!(union, Relation::from_pairs(vars(schema), all));
    }
}

/// A tuple several parts hold sums in part order, whichever rows lead:
/// `(0.1 ⊕ 0.2) ⊕ 0.3` and `(0.3 ⊕ 0.2) ⊕ 0.1` differ in the last bit.
/// Held on two columns and on one, each with its values 0–3 and spread
/// over the whole `u32` range: the union counts the dense single
/// column and merges every other case by comparison.
#[test]
fn union_all_sums_duplicates_in_part_order() {
    let forward = ((0.1f64 + 0.2) + 0.3).to_bits();
    let backward = ((0.3f64 + 0.2) + 0.1).to_bits();
    assert_ne!(forward, backward);
    let bits = |parts: &[Relation<Prob>]| -> Vec<(Vec<u32>, u64)> {
        let union = Relation::union_all(parts);
        union
            .iter()
            .map(|(t, p)| (t.to_vec(), p.0.to_bits()))
            .collect()
    };
    let check = |parts: [Relation<Prob>; 3], rows: &dyn Fn(u64) -> Vec<(Vec<u32>, u64)>| {
        assert_eq!(bits(&parts), rows(forward));
        let reversed: Vec<Relation<Prob>> = parts.iter().rev().cloned().collect();
        assert_eq!(bits(&reversed), rows(backward));
    };
    for scale in [1, u32::MAX / 2] {
        let part = |rows: &[(&[u32], f64)]| {
            let rows = rows
                .iter()
                .map(|(t, p)| (vec![t[0] * scale, t[1]], Prob(*p)));
            Relation::from_pairs(vars(&[0, 1]), rows)
        };
        let parts = [
            part(&[(&[1, 4], 0.1), (&[2, 0], 1.0)]),
            part(&[(&[1, 3], 0.5), (&[1, 4], 0.2)]),
            part(&[(&[0, 9], 0.25), (&[1, 4], 0.3)]),
        ];
        check(parts, &|at_14| {
            vec![
                (vec![0, 9], 0.25f64.to_bits()),
                (vec![scale, 3], 0.5f64.to_bits()),
                (vec![scale, 4], at_14),
                (vec![2 * scale, 0], 1.0f64.to_bits()),
            ]
        });
    }
    for scale in [1, u32::MAX / 3] {
        let part = |rows: &[(u32, f64)]| {
            let rows = rows.iter().map(|&(x, p)| (vec![x * scale], Prob(p)));
            Relation::from_pairs(vars(&[0]), rows)
        };
        let parts = [
            part(&[(1, 0.1), (2, 1.0)]),
            part(&[(1, 0.2), (3, 0.5)]),
            part(&[(0, 0.25), (1, 0.3)]),
        ];
        check(parts, &|at_1| {
            vec![
                (vec![0], 0.25f64.to_bits()),
                (vec![scale], at_1),
                (vec![2 * scale], 1.0f64.to_bits()),
                (vec![3 * scale], 0.5f64.to_bits()),
            ]
        });
    }
}

#[test]
fn stats_edge_cases() {
    for arity in 1..=4u32 {
        let schema: Vec<u32> = (0..arity).collect();
        let empty: Relation<Count> = Relation::new(vars(&schema));
        assert_stats_match(&empty, "empty");
        assert_eq!(empty.stats().distinct, vec![0; arity as usize]);
        for x in [0, 7, u32::MAX] {
            let row = Relation::from_pairs(vars(&schema), [(vec![x; arity as usize], Count(1))]);
            assert_stats_match(&row, "single row");
            assert_eq!(row.stats().distinct, vec![1; arity as usize]);
        }
    }
    // One column spanning the whole of `u32` beside a dense one: the
    // choice is per column.
    let mixed = Relation::from_pairs(
        vars(&[0, 1, 2]),
        (0..50u32).map(|i| (vec![i % 3, i.wrapping_mul(0x9E37_79B9), i % 7], Count(1))),
    );
    assert_stats_match(&mixed, "sparse and dense columns");
    // A dense column that fills its bitmap's last word exactly.
    let full = Relation::from_pairs(
        vars(&[0, 1]),
        (0..128u32).map(|i| (vec![0, u32::MAX - i], Count(1))),
    );
    assert_stats_match(&full, "whole words");
    assert_eq!(full.stats().distinct, vec![1, 128]);
}

#[test]
fn restrict_in_takes_unsorted_selections() {
    let rel: Relation<Count> = Relation::from_pairs(
        vars(&[0, 1]),
        [
            (vec![2, 5], Count(1)),
            (vec![2, 9], Count(2)),
            (vec![5, 2], Count(3)),
            (vec![7, 5], Count(4)),
        ],
    );
    // Descending, repeated, and a repeat after a larger value: the
    // leading column and the other one alike keep every listed row.
    for values in [&[5u32, 2][..], &[5, 2, 5], &[2, 7, 2, 5], &[9, 9, 5]] {
        for v in vars(&[0, 1]) {
            let got = rel.restrict_in(v, values);
            assert_canonical(&got, "restrict_in");
            assert_eq!(got, ref_restrict_in(&rel, v, values), "{v:?} ∈ {values:?}");
        }
    }
    assert_eq!(rel.restrict_in(Var(0), &[5, 2]).len(), 3);
    assert_eq!(rel.restrict_in(Var(1), &[9, 5, 9]).len(), 3);
}

#[test]
fn aggregate_out_many_edge_cases() {
    let sum = |ids: &[u32]| -> Nest { ids.iter().map(|&i| (Var(i), Aggregate::Sum)).collect() };
    let rel: Relation<Count> = Relation::from_pairs(
        vars(&[1, 0, 2]),
        [
            (vec![0, 1, 0], Count(2)),
            (vec![0, 1, 1], Count(3)),
            (vec![1, 0, 0], Count(5)),
        ],
    );

    // No private variable — an empty nest, or one naming only variables
    // the schema does not list: the input itself, not a copy.
    let arena = rel.tuple_at(0).as_ptr();
    let same = rel.clone().aggregate_out_many(&[]);
    assert_eq!(same, rel);
    let moved = rel.clone();
    let moved_arena = moved.tuple_at(0).as_ptr();
    let mut moved = moved.aggregate_out_many(&sum(&[7, 5]));
    assert_eq!(
        moved.tuple_at(0).as_ptr(),
        moved_arena,
        "returned without a copy"
    );
    // A clone shares the arena until one side writes; the write copies
    // for the writer and leaves the other side's rows as they were.
    assert_eq!(moved_arena, arena, "the clone shares the arena");
    let before = rows_of(&rel);
    moved.insert(vec![0, 1, 0], Count(1));
    assert_ne!(moved.tuple_at(0).as_ptr(), arena, "the writer copied");
    assert_eq!(rel.tuple_at(0).as_ptr(), arena);
    assert_eq!(rows_of(&rel), before);
    assert_eq!(moved.get(&[0, 1, 0]), Some(&Count(3)));

    // All private: the nullary total, whatever the column order.
    let total = rel.clone().aggregate_out_many(&sum(&[2, 1, 0]));
    assert!(total.schema().is_empty());
    assert_eq!(total.total(), Count(10));
    assert_eq!(total, rel.project(&[]));

    // Empty relation: empty result over the kept columns, in and out of
    // layout order.
    let empty: Relation<Count> = Relation::new(vars(&[1, 0, 2]));
    for nest in [sum(&[2]), sum(&[1]), sum(&[2, 1, 0])] {
        let out = empty.clone().aggregate_out_many(&nest);
        assert!(out.is_empty());
        assert_eq!(out.schema().len(), 3 - nest.len());
    }

    // Kept columns keep their schema order.
    let kept = rel.aggregate_out_many(&sum(&[2]));
    assert_eq!(kept.schema(), vars(&[1, 0]));
    assert_eq!(kept.get(&[0, 1]), Some(&Count(5)));
}

#[test]
fn fold_keyed_edge_cases() {
    let count = |ids: &[u32], rows: &[(&[u32], u64)]| -> Relation<Count> {
        let rows = rows.iter().map(|(t, c)| (t.to_vec(), Count(*c)));
        Relation::from_pairs(vars(ids), rows)
    };
    let bag = count(
        &[1, 0],
        &[
            (&[0, 5], 1),
            (&[0, 9], 2),
            (&[3, 5], 3),
            (&[7, 0], 4),
            (&[7, u32::MAX], 5),
        ],
    );
    let chain = |ms: &[&Relation<Count>]| ms.iter().fold(bag.clone(), |acc, m| acc.join(m));

    // No message: the input itself. One that drops rows: a uniquely
    // owned bag's own arena, compacted.
    let owned = Relation::from_pairs(bag.schema().to_vec(), rows_of(&bag));
    let arena = owned.tuple_at(0).as_ptr();
    let owned = owned.fold_keyed(&[]);
    assert_eq!(owned, bag);
    let on_leader = count(&[1], &[(&[3], 10), (&[7], 100)]);
    let expected = count(
        &[1, 0],
        &[(&[3, 5], 30), (&[7, 0], 400), (&[7, u32::MAX], 500)],
    );
    let folded = owned.fold_keyed(&[&on_leader]);
    assert_eq!(folded.tuple_at(0).as_ptr(), arena, "folded in place");
    assert_eq!(folded, expected);
    // A shared bag is copied once, for the fold; its other holder keeps
    // its rows and its arena.
    let (arena, before) = (bag.tuple_at(0).as_ptr(), rows_of(&bag));
    let shared = bag.clone();
    assert_eq!(shared.tuple_at(0).as_ptr(), arena);
    let folded = shared.fold_keyed(&[&on_leader]);
    assert_ne!(
        folded.tuple_at(0).as_ptr(),
        arena,
        "copied, not folded in place"
    );
    assert_eq!(folded, expected);
    assert_eq!(bag.tuple_at(0).as_ptr(), arena);
    assert_eq!(rows_of(&bag), before);

    // The nullary message scales every row; an empty one leaves none.
    let scalar = count(&[], &[(&[], 3)]);
    assert_eq!(bag.clone().fold_keyed(&[&scalar]), chain(&[&scalar]));
    assert_eq!(bag.clone().fold_keyed(&[&scalar]).total(), Count(45));
    let nothing: Relation<Count> = Relation::new(vars(&[]));
    assert!(bag.clone().fold_keyed(&[&scalar, &nothing]).is_empty());

    // A leading-column cursor that runs off its message (key 7 is past
    // it), one that starts past the bag's first rows, and the whole
    // schema as the key.
    for keys in [&[0u32, 3][..], &[3, 7, 8], &[1, 2], &[9]] {
        let rows: Vec<_> = keys.iter().map(|&k| (vec![k], Count(2))).collect();
        let m = Relation::from_pairs(vars(&[1]), rows);
        assert_eq!(
            bag.clone().fold_keyed(&[&m]),
            chain(&[&m]),
            "leader {keys:?}"
        );
    }
    let whole = count(&[1, 0], &[(&[0, 9], 7), (&[5, 5], 1), (&[7, u32::MAX], 2)]);
    assert_eq!(bag.clone().fold_keyed(&[&whole]), chain(&[&whole]));

    // The second column, densely valued (direct-address table: a bag key
    // below its least key, between two, equal to its greatest, above it)
    // and spread from 0 to `u32::MAX` (binary search).
    for keys in [
        &[5u32, 6][..],
        &[1, 9],
        &[0, 5, 9],
        &[0, u32::MAX],
        &[4, u32::MAX],
    ] {
        let rows: Vec<_> = keys.iter().map(|&k| (vec![k], Count(2))).collect();
        let m = Relation::from_pairs(vars(&[0]), rows);
        assert_eq!(
            bag.clone().fold_keyed(&[&m]),
            chain(&[&m]),
            "second {keys:?}"
        );
        // Alongside a cursor, either way round.
        let both = [&on_leader, &m];
        assert_eq!(bag.clone().fold_keyed(&both), chain(&both), "{keys:?}");
        let both = [&m, &on_leader];
        assert_eq!(bag.clone().fold_keyed(&both), chain(&both), "{keys:?}");
    }

    // An empty bag stays empty.
    let empty: Relation<Count> = Relation::new(vars(&[1, 0]));
    assert!(empty.fold_keyed(&[&on_leader, &scalar]).is_empty());
}

#[test]
fn writes_to_a_clone_leave_the_original_bit_identical() {
    let bits = |r: &Relation<Prob>| -> Vec<(Vec<u32>, u64)> {
        r.iter().map(|(t, v)| (t.to_vec(), v.0.to_bits())).collect()
    };
    let mut rng = StdRng::seed_from_u64(36);
    for round in 0..40 {
        let domain = 2 + round % 5;
        let original: Relation<Prob> =
            random_rel(&[0, 1], 1 + round as usize, domain, &mut rng, |r| {
                Prob(r.random_range(1..9) as f64 / 7.0)
            });
        let (arena, before) = (original.tuple_at(0).as_ptr(), bits(&original));
        let fresh = || Relation::from_pairs(vars(&[0, 1]), rows_of(&original));
        let row = |rng: &mut StdRng| vec![rng.random_range(0..domain), rng.random_range(0..domain)];

        // Each write on a clone, and the same write on a deep copy.
        let (mut clone, mut copy) = (original.clone(), fresh());
        let t = row(&mut rng);
        clone.insert(t.clone(), Prob(0.5));
        copy.insert(t, Prob(0.5));
        assert_eq!(bits(&clone), bits(&copy), "insert");

        let (mut clone, mut copy) = (original.clone(), fresh());
        let t = row(&mut rng);
        assert_eq!(clone.delete(&t), copy.delete(&t), "delete");
        assert_eq!(bits(&clone), bits(&copy), "delete");

        let mut delta = RelationDelta::new(vars(&[0, 1]));
        for _ in 0..4 {
            match rng.random_range(0..3) {
                0 => delta.delete(row(&mut rng)),
                1 => delta.set(row(&mut rng), Prob(0.25)),
                _ => delta.insert(row(&mut rng), Prob(0.75)),
            }
        }
        let (mut clone, mut copy) = (original.clone(), fresh());
        clone.apply_delta(&delta);
        copy.apply_delta(&delta);
        assert_eq!(bits(&clone), bits(&copy), "apply_delta");

        let rows = (0..domain).filter(|_| rng.random_range(0..2) == 0);
        let m = Relation::from_pairs(vars(&[0]), rows.map(|x| (vec![x], Prob(0.5))));
        let folded = original.clone().fold_keyed(&[&m]);
        assert_eq!(
            bits(&folded),
            bits(&fresh().fold_keyed(&[&m])),
            "fold_keyed"
        );

        assert_eq!(original.tuple_at(0).as_ptr(), arena, "round {round}");
        assert_eq!(bits(&original), before, "round {round}");
    }
}

#[test]
#[should_panic(expected = "lists only variables of the bag")]
fn fold_keyed_refuses_a_message_that_adds_a_column() {
    let bag: Relation<Count> = Relation::from_pairs(vars(&[0, 1]), [(vec![1, 2], Count(1))]);
    let wider = Relation::from_pairs(vars(&[1, 2]), [(vec![2, 3], Count(1))]);
    let _ = bag.fold_keyed(&[&wider]);
}
