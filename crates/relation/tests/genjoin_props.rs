//! Property suite for the worst-case-optimal generic join: on random
//! cyclic factor sets it must agree *exactly* — bit-for-bit on float
//! semirings — with the binary join cascade folded in the same factor
//! order, across `Count`, `Boolean`, `MinPlus` and a carrier with zero
//! divisors, under a random binding order, in two size classes. And its
//! aggregating form — a GHD node's bag with its child messages joined
//! in and its nest folded as the join binds — must agree, bit for bit,
//! with listing the bag, folding the messages into it and pushing the
//! nest down, whether the nest trails the binding order or not.

use faqs_hypergraph::Var;
use faqs_relation::{generic_join, generic_join_aggregated, Aggregate, Relation};
use faqs_semiring::{Boolean, Count, MinPlus, Prob, Semiring};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Factor-schema families: triangle, 4-cycle, K4 (all six edges), a
/// triangle with a pendant unary, a chordal square, a schema listed in
/// descending column order, two with ternary factors (three-level
/// tries, lists meeting at inner levels) and one variable bound by four
/// factors at once.
const SHAPES: &[&[&[u32]]] = &[
    &[&[0, 1], &[1, 2], &[0, 2]],
    &[&[0, 1], &[1, 2], &[2, 3], &[0, 3]],
    &[&[0, 1], &[0, 2], &[0, 3], &[1, 2], &[1, 3], &[2, 3]],
    &[&[0, 1], &[1, 2], &[0, 2], &[1]],
    &[&[0, 1], &[1, 2], &[2, 3], &[0, 3], &[0, 2]],
    &[&[1, 0], &[2, 1], &[2, 0]],
    &[&[0, 1, 2], &[1, 2, 3], &[0, 3]],
    &[&[0, 1, 2], &[0, 2, 3], &[1, 3]],
    &[&[0, 1], &[0, 2], &[0, 3], &[0]],
];

/// `(domain, largest factor)` of a case. Narrow: at most five values,
/// so tries are dense and every list sits inside the linear window of
/// the join's `seek`. Wide: hundreds of values and factor sizes drawn
/// independently, so one-entry lists meet lists of hundreds — the
/// doubling and binary legs of `seek`, the lopsided two-list merge and
/// long leapfrogs over three or more lists.
fn size_class(wide: bool, rng: &mut StdRng) -> (u32, usize) {
    if wide {
        (rng.random_range(200..=400), 3000)
    } else {
        (rng.random_range(1..=5), 59)
    }
}

/// A random binding order, so factors get reordered and rows come out
/// in an order no factor is stored in. Wide cases keep it *connected* —
/// every variable after the first shares a factor with an earlier one:
/// binding unrelated variables first makes any generic join enumerate
/// their Cartesian product (400³ bindings on the star), which prices
/// the order, not the kernel.
fn binding_order(schemas: &[&[u32]], connected: bool, rng: &mut StdRng) -> Vec<u32> {
    let mut rest: Vec<u32> = schemas.iter().flat_map(|s| s.iter().copied()).collect();
    rest.sort_unstable();
    rest.dedup();
    rest.shuffle(rng);
    if !connected {
        return rest;
    }
    let mut order = vec![rest.remove(0)];
    while !rest.is_empty() {
        let joins = |v: &u32| {
            let mut bound = schemas
                .iter()
                .filter(|s| s.iter().any(|w| order.contains(w)));
            bound.any(|s| s.contains(v))
        };
        let next = rest.iter().position(joins).expect("connected shape");
        order.push(rest.remove(next));
    }
    order
}

fn vars(ids: &[u32]) -> Vec<Var> {
    ids.iter().map(|&i| Var(i)).collect()
}

fn random_rel<S: Semiring>(
    schema: &[u32],
    n: usize,
    domain: u32,
    rng: &mut StdRng,
    mut value_of: impl FnMut(&mut StdRng) -> S,
) -> Relation<S> {
    // The domain's top value is listed as `u32::MAX`, so columns hold
    // both ends of the value range.
    let draw = |rng: &mut StdRng| match rng.random_range(0..domain) {
        x if x + 1 == domain => u32::MAX,
        x => x,
    };
    let pairs: Vec<(Vec<u32>, S)> = (0..n)
        .map(|_| {
            let t: Vec<u32> = schema.iter().map(|_| draw(rng)).collect();
            (t, value_of(rng))
        })
        .collect();
    Relation::from_pairs(vars(schema), pairs)
}

/// The reference: a left-fold binary cascade over the factor slice,
/// reordered onto `var_order` at the end. `generic_join` promises the
/// same association order, hence exact equality.
fn cascade<S: Semiring>(factors: &[Relation<S>], var_order: &[Var]) -> Relation<S> {
    let mut acc = factors[0].clone();
    for f in &factors[1..] {
        acc = acc.join(f);
    }
    if acc.schema() == var_order {
        acc
    } else {
        acc.reorder(var_order)
    }
}

fn check_shape<S: Semiring>(
    shape: usize,
    seed: u64,
    wide: bool,
    value_of: impl FnMut(&mut StdRng) -> S + Copy,
) {
    let schemas = SHAPES[shape];
    let mut rng = StdRng::seed_from_u64(seed);
    let (domain, max_rows) = size_class(wide, &mut rng);
    let factors: Vec<Relation<S>> = schemas
        .iter()
        .map(|s| {
            // A size below a size: small factors are common, so tiny
            // lists meet long ones in most wide cases.
            let cap = rng.random_range(0..=max_rows);
            let n = rng.random_range(0..=cap);
            random_rel(s, n, domain, &mut rng, value_of)
        })
        .collect();
    let var_order = vars(&binding_order(schemas, wide, &mut rng));

    let refs: Vec<&Relation<S>> = factors.iter().collect();
    let gj = generic_join(&refs, &var_order);
    let want = cascade(&factors, &var_order);

    assert_eq!(gj.schema(), var_order.as_slice());
    assert_eq!(gj.len(), want.len(), "shape {shape} cardinality");
    for i in 0..gj.len() {
        assert_eq!(gj.tuple_at(i), want.tuple_at(i), "shape {shape} row {i}");
        assert_eq!(
            gj.value_at(i),
            want.value_at(i),
            "shape {shape} annotation {i}"
        );
    }
    // Canonical invariants: strictly sorted, no zero annotations.
    for w in gj.tuples().collect::<Vec<_>>().windows(2) {
        assert!(w[0] < w[1], "rows not strictly sorted");
    }
    assert!(gj.iter().all(|(_, v)| !v.is_zero()), "zero listed");
}

/// Every aggregate `S` declares it folds.
fn admitted<S: Semiring>() -> Vec<Aggregate> {
    use Aggregate::{Max, Min, Product, Sum};
    [Sum, Product, Max, Min]
        .into_iter()
        .filter(|&op| S::admits(op))
        .collect()
}

/// Each row with its annotation's `Debug` form: the shortest decimal
/// that round-trips, so equal strings are equal bits on a float carrier.
fn bits<S: Semiring>(r: &Relation<S>) -> Vec<(Vec<u32>, String)> {
    r.iter()
        .map(|(t, v)| (t.to_vec(), format!("{v:?}")))
        .collect()
}

/// A random bag of `SHAPES[shape]` with zero to two child messages —
/// each over at most two of its variables, columns in any order — and a
/// nest of mixed admitted operators: a random suffix of the binding
/// order (`trailing`, so the join folds as it binds) or any subset in
/// any order (so it lists the bag and regroups).
fn check_aggregated<S: Semiring>(
    shape: usize,
    seed: u64,
    wide: bool,
    trailing: bool,
    value_of: impl FnMut(&mut StdRng) -> S + Copy,
) {
    let schemas = SHAPES[shape];
    let mut rng = StdRng::seed_from_u64(seed);
    let (domain, max_rows) = size_class(wide, &mut rng);
    let rel = |schema: &[u32], rng: &mut StdRng| {
        let cap = rng.random_range(0..=max_rows);
        let n = rng.random_range(0..=cap);
        random_rel(schema, n, domain, rng, value_of)
    };
    let factors: Vec<Relation<S>> = schemas.iter().map(|s| rel(s, &mut rng)).collect();
    let order = binding_order(schemas, wide, &mut rng);
    let messages: Vec<Relation<S>> = (0..rng.random_range(0..=2))
        .map(|_| {
            let mut listed = order.clone();
            listed.shuffle(&mut rng);
            listed.truncate(rng.random_range(0..=2));
            rel(&listed, &mut rng)
        })
        .collect();
    let nested: Vec<u32> = if trailing {
        let kept = rng.random_range(0..=order.len());
        order[kept..].iter().rev().copied().collect()
    } else {
        let mut any = order.clone();
        any.shuffle(&mut rng);
        any.truncate(rng.random_range(0..=order.len()));
        any
    };
    let ops = admitted::<S>();
    let nest: Vec<(Var, Aggregate)> = nested
        .iter()
        .map(|&v| (Var(v), ops[rng.random_range(0..ops.len())]))
        .collect();
    let var_order = vars(&order);

    let inputs: Vec<&Relation<S>> = factors.iter().chain(&messages).collect();
    let (got, rows) = generic_join_aggregated(&inputs, &var_order, &nest);
    let own: Vec<&Relation<S>> = factors.iter().collect();
    let folded: Vec<&Relation<S>> = messages.iter().collect();
    let listed = generic_join(&own, &var_order).fold_keyed(&folded);
    assert_eq!(rows, listed.len(), "shape {shape}: rows of the listed bag");
    let want = listed.aggregate_out_many(&nest);
    assert_eq!(got.schema(), want.schema(), "shape {shape}, nest {nest:?}");
    assert_eq!(bits(&got), bits(&want), "shape {shape}, nest {nest:?}");
}

/// ℤ/6ℤ: `2 ⊗ 3 = 0` although neither is zero. No workspace carrier
/// has zero divisors, so only this one reaches an output tuple whose
/// factors all match and whose product is still dropped.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counting_generic_join_matches_cascade(shape in 0..SHAPES.len(), seed: u64, wide: bool) {
        check_shape(shape, seed, wide, |r: &mut StdRng| {
            Count(r.random_range(0..4))
        });
    }

    #[test]
    fn boolean_generic_join_matches_cascade(shape in 0..SHAPES.len(), seed: u64, wide: bool) {
        check_shape(shape, seed, wide, |_: &mut StdRng| Boolean(true));
    }

    #[test]
    fn minplus_generic_join_is_bit_identical(shape in 0..SHAPES.len(), seed: u64, wide: bool) {
        // PartialEq on f64 is bitwise-equivalent here (no NaNs drawn),
        // so assert_eq in check_shape is the bit-identity check.
        check_shape(shape, seed, wide, |r: &mut StdRng| {
            MinPlus(f64::from(r.random_range(0..1000)) * 0.125)
        });
    }

    #[test]
    fn zero_divisor_products_drop_like_the_cascade(shape in 0..SHAPES.len(), seed: u64, wide: bool) {
        check_shape(shape, seed, wide, |r: &mut StdRng| Z6(r.random_range(1..6)));
    }

    #[test]
    fn counting_bag_aggregates_as_it_joins(
        shape in 0..SHAPES.len(), seed: u64, wide: bool, trailing: bool,
    ) {
        check_aggregated(shape, seed, wide, trailing, |r: &mut StdRng| {
            Count(r.random_range(0..4))
        });
    }

    #[test]
    fn boolean_bag_aggregates_as_it_joins(
        shape in 0..SHAPES.len(), seed: u64, wide: bool, trailing: bool,
    ) {
        check_aggregated(shape, seed, wide, trailing, |r: &mut StdRng| {
            Boolean(r.random_range(0..4) > 0)
        });
    }

    #[test]
    fn minplus_bag_aggregates_as_it_joins_to_the_bit(
        shape in 0..SHAPES.len(), seed: u64, wide: bool, trailing: bool,
    ) {
        // Not dyadic: any change of association shows in the last place.
        check_aggregated(shape, seed, wide, trailing, |r: &mut StdRng| {
            MinPlus(f64::from(r.random_range(0..1000u32)) / 7.3)
        });
    }

    #[test]
    fn prob_bag_aggregates_as_it_joins_to_the_bit(
        shape in 0..SHAPES.len(), seed: u64, wide: bool, trailing: bool,
    ) {
        check_aggregated(shape, seed, wide, trailing, |r: &mut StdRng| {
            Prob(f64::from(r.random_range(1..1000u32)) / 1000.3)
        });
    }

    #[test]
    fn zero_divisor_bag_drops_cancelled_groups_as_it_joins(
        shape in 0..SHAPES.len(), seed: u64, wide: bool, trailing: bool,
    ) {
        check_aggregated(shape, seed, wide, trailing, |r: &mut StdRng| {
            Z6(r.random_range(1..6))
        });
    }
}
