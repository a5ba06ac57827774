//! The engine doors against a relation's memoised profile: a mutation
//! after a validated solve must be seen by the next `validate`, solve,
//! distributed run and plan-cache key (the memo is dropped, never
//! stale), and an `aggregates` vector of the wrong length is a typed
//! error at every door rather than an index panic behind it.

use faqs::engine::solve_faq;
use faqs::hypergraph::EdgeId;
use faqs::network::Player;
use faqs::plan::EngineError;
use faqs::prelude::*;
use faqs::protocols::ProtocolError;
use faqs::relation::QueryError;

const DOMAIN: u32 = 64;

/// A 3-star over `Count` with 32 rows per factor, values below 32.
fn star() -> FaqQuery<Count> {
    let h = star_query(3);
    let factors = h
        .edges()
        .map(|(e, vars)| {
            let rows =
                (0..32u32).map(|i| (vec![i % 8, (i * 7 + e.0) % 32], Count(1 + u64::from(i))));
            Relation::from_pairs(vars.to_vec(), rows)
        })
        .collect();
    FaqQuery::new_ss(h, factors, vec![Var(0)], DOMAIN)
}

fn distributed(q: &FaqQuery<Count>) -> Result<(), ProtocolError> {
    let g = Topology::line(3);
    let players: Vec<Player> = g.players().collect();
    let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
    DistributedFaqRun::new(q, &g, placement, 1).map(|_| ())
}

/// Each factor rebuilt row by row: same data, nothing memoised.
fn rebuilt(q: &FaqQuery<Count>) -> FaqQuery<Count> {
    let mut fresh = q.clone();
    for f in &mut fresh.factors {
        let rows = f.iter().map(|(t, v)| (t.to_vec(), *v));
        *f = Relation::from_pairs(f.schema().to_vec(), rows);
    }
    fresh
}

#[test]
fn a_mutation_after_validation_reaches_every_door() {
    type Mutation = fn(&mut Relation<Count>);
    let mutations: [(&str, Mutation); 2] = [
        ("apply_delta", |f| {
            let mut d = RelationDelta::new(f.schema().to_vec());
            d.insert(vec![3, DOMAIN], Count(1));
            f.apply_delta(&d);
        }),
        ("insert", |f| f.insert(vec![3, DOMAIN + 5], Count(1))),
    ];
    for (how, mutate) in mutations {
        let mut q = star();
        let ex = Executor::default();
        // Every door has profiled every factor before the mutation.
        q.validate().expect("in-domain instance");
        ex.solve(&q).expect("solves");
        distributed(&q).expect("plans");

        mutate(&mut q.factors[1]);
        assert_eq!(
            q.validate(),
            Err(QueryError::ValueOutOfDomain(EdgeId(1))),
            "{how}"
        );
        assert!(
            matches!(ex.solve(&q), Err(EngineError::Invalid(_))),
            "{how}"
        );
        assert!(
            matches!(solve_faq(&q), Err(EngineError::Invalid(_))),
            "{how}"
        );
        assert!(
            matches!(distributed(&q), Err(ProtocolError::Invalid(_))),
            "{how}"
        );
    }
}

#[test]
fn the_plan_cache_key_follows_the_data() {
    let mut q = star();
    let ex = Executor::default();
    let before = QueryStats::of(&q);
    assert_eq!(ex.solve(&q).unwrap(), solve_faq(&q).unwrap());
    assert_eq!(ex.solve(&q).unwrap(), solve_faq(&q).unwrap());
    assert_eq!((ex.cache_stats().misses, ex.cache_stats().hits), (1, 1));

    // Factor 0 shrinks 32 → 4 rows: an 8× size gap is its own bucket.
    let mut d = RelationDelta::new(q.factors[0].schema().to_vec());
    for t in q.factors[0].tuples().skip(4) {
        d.delete(t.to_vec());
    }
    q.factors[0].apply_delta(&d);

    let after = QueryStats::of(&q);
    assert_eq!(after, QueryStats::of(&rebuilt(&q)), "the memo was dropped");
    assert_ne!(after.digest(), before.digest());
    assert_eq!(ex.solve(&q).unwrap(), solve_faq(&rebuilt(&q)).unwrap());
    assert_eq!(ex.cache_stats().misses, 2, "a new digest is a new key");
}

#[test]
fn a_short_aggregate_vector_is_a_typed_error_at_every_door() {
    let mut q = star();
    q.aggregates.pop();
    assert_eq!(
        q.validate_structure(),
        Err(QueryError::AggregateCountMismatch {
            vars: 4,
            aggregates: 3
        })
    );
    assert!(matches!(
        Executor::default().solve(&q),
        Err(EngineError::Invalid(_))
    ));
    assert!(matches!(solve_faq(&q), Err(EngineError::Invalid(_))));
    let server: FaqServer<Count> = FaqServer::new(ServeConfig::default());
    assert!(matches!(
        server.register(q.clone(), Var(0)),
        Err(ServeError::Engine(EngineError::Invalid(_)))
    ));
    assert!(matches!(distributed(&q), Err(ProtocolError::Invalid(_))));
}
