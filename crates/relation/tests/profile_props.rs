//! Property suite for the profile memo: whatever sequence of public
//! mutating or consuming operations a relation goes through, and
//! wherever in it `stats()` / `max_value()` were read, the answers are
//! those of a relation rebuilt from the same rows — a memo that
//! outlives a change of its rows would show up here as a stale answer.

use faqs_hypergraph::Var;
use faqs_relation::{Aggregate, Relation, RelationDelta};
use faqs_semiring::Count;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The same rows entered from scratch: nothing memoised, nothing shared.
fn rebuilt(r: &Relation<Count>) -> Relation<Count> {
    Relation::from_pairs(r.schema().to_vec(), r.iter().map(|(t, v)| (t.to_vec(), *v)))
}

/// Holds what `r` would answer now against a rebuild. Asked of a clone
/// (which keeps the memo), so whether `r` itself has been profiled
/// before its next mutation stays up to the walk's own random reads.
fn assert_profile_is_current(r: &Relation<Count>, after: &str) {
    let (probe, fresh) = (r.clone(), rebuilt(r));
    assert_eq!(probe.stats(), fresh.stats(), "stale stats after {after}");
    assert_eq!(
        probe.max_value(),
        fresh.max_value(),
        "stale max_value after {after}"
    );
    assert_eq!(
        probe.max_value(),
        r.tuples().flatten().copied().max(),
        "max_value after {after}"
    );
}

fn random_tuple(arity: usize, domain: u32, rng: &mut StdRng) -> Vec<u32> {
    (0..arity).map(|_| rng.random_range(0..domain)).collect()
}

/// A listed tuple when there is one (so deletes and accumulating
/// inserts hit), a random one otherwise.
fn some_tuple(r: &Relation<Count>, domain: u32, rng: &mut StdRng) -> Vec<u32> {
    if r.is_empty() || rng.random_range(0..3) == 0 {
        random_tuple(r.schema().len(), domain, rng)
    } else {
        r.tuple_at(rng.random_range(0..r.len())).to_vec()
    }
}

/// A message for `fold_keyed`: a random sub-schema of `r` (any order, so
/// cursor, table and search lookups all occur; possibly nullary), keyed
/// on about half of `r`'s own projections.
fn message(r: &Relation<Count>, rng: &mut StdRng) -> Relation<Count> {
    let mut schema: Vec<Var> = r
        .schema()
        .iter()
        .copied()
        .filter(|_| rng.random_range(0..2) == 0)
        .collect();
    if rng.random_range(0..2) == 0 {
        schema.reverse();
    }
    let pos: Vec<usize> = schema
        .iter()
        .map(|v| r.schema().iter().position(|w| w == v).unwrap())
        .collect();
    let rows: Vec<(Vec<u32>, Count)> = r
        .tuples()
        .filter(|_| rng.random_range(0..2) == 0)
        .map(|t| (pos.iter().map(|&p| t[p]).collect(), Count(1)))
        .collect();
    Relation::from_pairs(schema, rows).map_values(|_| Count(1))
}

/// One random operation on `r`; returns its name for failure messages.
fn step(r: &mut Relation<Count>, domain: u32, rng: &mut StdRng) -> &'static str {
    let arity = r.schema().len();
    match rng.random_range(0..13) {
        0 => {
            let _ = r.stats();
            "stats"
        }
        1 => {
            let _ = r.max_value();
            "max_value"
        }
        2 => {
            r.insert(some_tuple(r, domain, rng), Count(rng.random_range(1..4)));
            "insert"
        }
        3 => {
            r.delete(&some_tuple(r, domain, rng));
            "delete"
        }
        4 => {
            let mut d = RelationDelta::new(r.schema().to_vec());
            for _ in 0..rng.random_range(0..6) {
                let t = some_tuple(r, domain, rng);
                match rng.random_range(0..3) {
                    0 => d.insert(t, Count(rng.random_range(1..4))),
                    1 => d.delete(t),
                    _ => d.set(t, Count(rng.random_range(0..3))),
                }
            }
            r.apply_delta(&d);
            "apply_delta"
        }
        5 => {
            let m = message(r, rng);
            *r = std::mem::replace(r, Relation::unit()).fold_keyed(&[&m]);
            "fold_keyed"
        }
        6 => {
            // A nest that lists no variable of the schema hands `self`
            // back untouched, memo and all.
            let nest = if arity >= 2 && rng.random_range(0..4) == 0 {
                let op = [Aggregate::Sum, Aggregate::Max][rng.random_range(0..2usize)];
                (r.schema()[rng.random_range(0..arity)], op)
            } else {
                (Var(99), Aggregate::Sum)
            };
            *r = std::mem::replace(r, Relation::unit()).aggregate_out_many(&[nest]);
            "aggregate_out_many"
        }
        7 => {
            *r = r.map_values(|c| Count(c.0 / 2));
            "map_values"
        }
        8 => {
            let var = r.schema()[rng.random_range(0..arity)];
            let mut keep: Vec<u32> = (0..domain / 2 + 1)
                .map(|_| rng.random_range(0..domain))
                .collect();
            keep.sort_unstable();
            *r = r.restrict_in(var, &keep);
            "restrict_in"
        }
        9 => {
            let mut schema = r.schema().to_vec();
            schema.rotate_left(rng.random_range(0..arity.max(1)));
            *r = r.reorder(&schema);
            "reorder"
        }
        10 => {
            let mut next = 0;
            let mut parts = r.split_by(rng.random_range(1..4), |_| {
                next += 1;
                next
            });
            *r = if rng.random_range(0..2) == 0 {
                parts.swap_remove(0)
            } else {
                Relation::union_all(&parts)
            };
            "split_by / union_all"
        }
        11 => {
            *r = Relation::decode_frame(&r.encode_frame()).expect("own frame decodes");
            "decode_frame"
        }
        _ => {
            // Carry on with a clone: it starts with the original's memo.
            *r = r.clone();
            "clone"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_memo_never_outlives_a_mutation(
        seed: u64,
        arity in 1usize..4,
        n in 0usize..40,
        // Narrow domains make inserts accumulate and deletes hit; the
        // wide one moves `max_value` and the sparse distinct count.
        spread in 0u32..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = [4, 12, 5_000][spread as usize];
        let schema: Vec<Var> = (0..arity as u32).map(Var).collect();
        let rows: Vec<(Vec<u32>, Count)> = (0..n)
            .map(|_| (random_tuple(arity, domain, &mut rng), Count(rng.random_range(1..4))))
            .collect();
        let mut r = Relation::from_pairs(schema, rows);
        assert_profile_is_current(&r, "from_pairs");
        for _ in 0..40 {
            let what = step(&mut r, domain, &mut rng);
            assert_profile_is_current(&r, what);
        }
    }
}

#[test]
fn equality_does_not_see_the_memo() {
    let rows = [(vec![1, 2], Count(3)), (vec![4, 0], Count(1))];
    let a = Relation::from_pairs(vec![Var(0), Var(1)], rows.clone());
    let b = Relation::from_pairs(vec![Var(0), Var(1)], rows);
    let _ = a.stats();
    assert_eq!(a, b, "profiled vs unprofiled");
    assert_eq!(b, a);
    let _ = b.max_value();
    assert_eq!(a, b, "both profiled");
}

#[test]
fn degenerate_relations_have_no_max_value() {
    let empty: Relation<Count> = Relation::new([Var(0), Var(1)]);
    assert_eq!(empty.max_value(), None);
    assert_eq!(Relation::<Count>::unit().max_value(), None);
    let mut one = empty.clone();
    one.insert(vec![7, 2], Count(1));
    assert_eq!(one.max_value(), Some(7), "column 0 holds the maximum");
    assert_eq!(empty.max_value(), None, "the clone's insert is its own");
}
