//! End-to-end serving-layer tests: batched answers vs the executor
//! oracle, cost-based admission, and snapshot isolation under
//! concurrent writers.

use faqs_exec::Executor;
use faqs_hypergraph::{star_query, EdgeId, Var};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig, Relation, RelationDelta};
use faqs_semiring::Count;
use faqs_serve::{FaqServer, PricedOn, ServeConfig, ServeError};

fn template(seed: u64) -> FaqQuery<Count> {
    random_instance(
        &star_query(3),
        &RandomInstanceConfig {
            tuples_per_factor: 48,
            domain: 8,
            seed,
        },
        vec![Var(0)],
        |_| Count(1),
    )
}

/// The oracle: the template with every param-carrying factor restricted
/// to one binding, solved by a fresh executor.
fn solo(q: &FaqQuery<Count>, param: Var, b: u32) -> Relation<Count> {
    let factors = q
        .hypergraph
        .edges()
        .zip(&q.factors)
        .map(|((_, e), f)| {
            if e.contains(&param) {
                f.restrict_in(param, &[b])
            } else {
                f.clone()
            }
        })
        .collect();
    let one = FaqQuery {
        hypergraph: q.hypergraph.clone(),
        factors,
        free_vars: q.free_vars.clone(),
        aggregates: q.aggregates.clone(),
        domain: q.domain,
    };
    Executor::default().solve(&one).unwrap()
}

/// The quote of a fresh statistics scan under `registry`'s current
/// correction, with the default executor's operators — what the served
/// (maintained, memoised) quote must equal.
fn scanned_quote(
    q: &FaqQuery<Count>,
    registry: &faqs_plan::CalibrationRegistry,
) -> faqs_plan::PlanCost {
    let stats = faqs_plan::QueryStats::of(q);
    let correction = registry.correction(&stats.digest());
    faqs_plan::cost_quote_with_stats(q, &Default::default(), &stats, correction).unwrap()
}

#[test]
fn served_answers_match_the_executor_oracle() {
    // The batching server and per-query dispatch (width 1).
    for max_batch in [8, 1] {
        let server = FaqServer::new(ServeConfig {
            workers: 2,
            max_batch,
            ..ServeConfig::default()
        });
        let q = template(3);
        let shape = server.register(q.clone(), Var(0)).unwrap();

        // Flood the queue so the batcher has merging opportunities, then
        // check every slice against the solo oracle.
        let bindings: Vec<u32> = (0..32).map(|i| i % 8).collect();
        let tickets: Vec<_> = bindings
            .iter()
            .map(|&b| server.submit(shape, b).unwrap())
            .collect();
        for (i, (b, t)) in bindings.iter().zip(tickets).enumerate() {
            let answer = t.wait().unwrap();
            assert_eq!(answer.epoch, 0, "no writers, initial version");
            assert_eq!(answer.relation, solo(&q, Var(0), *b), "binding {b}");
            // The first quote precedes any execution of this shape, so
            // it can only rest on raw estimates; later answers may
            // already be measurement-priced — executions race telemetry
            // absorption.
            if i == 0 {
                assert_eq!(
                    answer.priced_on,
                    PricedOn::Estimates,
                    "nothing has executed when the first quote is taken"
                );
            }
        }
        let stats = server.stats();
        assert_eq!(server.batch_width(), max_batch);
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.inline + stats.batched, 32, "every request answered");
        assert!(stats.max_width as usize <= max_batch);
        if max_batch == 1 {
            assert_eq!(stats.max_width, 1, "width 1 merges nothing");
            assert_eq!(stats.batches, stats.batched, "one pass per request");
        }
    }
}

#[test]
fn registration_rejects_bound_params_and_bad_shapes() {
    let server: FaqServer<Count> = FaqServer::new(ServeConfig::default());
    let q = template(1);
    // Var(1) is aggregated over — batching on it would change semantics.
    assert!(matches!(
        server.register(q.clone(), Var(1)),
        Err(ServeError::ParamNotFree(_))
    ));
    // A shape the planner rejects fails at registration, not per query:
    // ℕ admits `max` (it registers and serves), not `min`.
    let bad = q
        .clone()
        .with_aggregate(Var(2), faqs_semiring::Aggregate::Min);
    assert!(matches!(
        server.register(bad, Var(0)),
        Err(ServeError::Engine(_))
    ));
    let max = q.with_aggregate(Var(2), faqs_semiring::Aggregate::Max);
    let shape = server.register(max, Var(0)).unwrap();
    assert!(server.query(shape, 0).is_ok());
    // Unknown handles are reported, not panicked on.
    assert!(matches!(
        server.query(faqs_serve::ShapeId(42), 0),
        Err(ServeError::UnknownShape(42))
    ));
}

#[test]
fn admission_fast_path_and_budget() {
    // Everything is cheap: the queue is never touched.
    let inline = FaqServer::new(ServeConfig {
        cheap_cpu: u64::MAX,
        ..ServeConfig::default()
    });
    let q = template(5);
    let shape = inline.register(q.clone(), Var(0)).unwrap();
    for b in 0..4 {
        assert_eq!(
            inline.query(shape, b).unwrap().relation,
            solo(&q, Var(0), b)
        );
    }
    let stats = inline.stats();
    assert_eq!(stats.inline, 4, "all served on the submitting thread");
    assert_eq!(stats.batches, 0, "the pool never woke up");

    // Nothing fits the budget: admission rejects before any join work.
    let strict = FaqServer::new(ServeConfig {
        cost_budget: 0,
        ..ServeConfig::default()
    });
    let shape = strict.register(q, Var(0)).unwrap();
    match strict.submit(shape, 1) {
        Err(ServeError::TooExpensive {
            quoted,
            budget,
            priced_on,
        }) => {
            assert!(quoted > budget);
            assert_eq!(priced_on, PricedOn::Estimates, "unseen shape");
        }
        other => panic!("expected TooExpensive, got {other:?}"),
    }
    assert_eq!(strict.stats().rejected, 1);
    assert_eq!(strict.stats().submitted, 0);
}

/// A tiny one-edge marginal shape whose per-version answers are easy to
/// precompute: answer(a) = Σ_b R(a, b).
fn marginal_template() -> FaqQuery<Count> {
    let r = Relation::from_pairs(
        vec![Var(0), Var(1)],
        (0..8u32).flat_map(|a| (0..4u32).map(move |b| (vec![a, b], Count(1)))),
    );
    FaqQuery::new_ss(star_query(1), vec![r], vec![Var(0)], 256)
}

#[test]
fn snapshot_isolation_pins_the_readers_epoch() {
    let server = FaqServer::new(ServeConfig::default());
    let shape = server.register(marginal_template(), Var(0)).unwrap();

    let before = server.query(shape, 2).unwrap();
    assert_eq!(before.epoch, 0);
    assert_eq!(before.relation.total(), Count(4));

    // Pin the initial version, then land two deltas.
    let pinned = server.snapshot(shape).unwrap();
    let mut delta = RelationDelta::new([Var(0), Var(1)]);
    delta.insert(vec![2, 40], Count(10));
    assert_eq!(server.apply_delta(shape, EdgeId(0), &delta).unwrap(), 1);
    let mut delta2 = RelationDelta::new([Var(0), Var(1)]);
    delta2.delete(vec![2, 0]);
    assert_eq!(server.apply_delta(shape, EdgeId(0), &delta2).unwrap(), 2);

    // The pinned handle still observes epoch 0's data, bit for bit.
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(
        Executor::default().solve(pinned.value()).unwrap(),
        Executor::default().solve(&marginal_template()).unwrap(),
        "the reader's epoch pins the factor state across writes"
    );

    // New queries see the latest version: 4 + 10 - 1 rows' worth.
    let after = server.query(shape, 2).unwrap();
    assert_eq!(after.epoch, 2);
    assert_eq!(after.relation.total(), Count(13));

    // Writer-side validation.
    assert!(matches!(
        server.apply_delta(shape, EdgeId(9), &delta),
        Err(ServeError::UnknownEdge(9))
    ));
    let mismatched = RelationDelta::<Count>::new([Var(0), Var(2)]);
    assert!(matches!(
        server.apply_delta(shape, EdgeId(0), &mismatched),
        Err(ServeError::SchemaMismatch)
    ));
}

#[test]
fn concurrent_writers_never_tear_reader_batches() {
    // A writer lands 16 deltas while readers hammer the server; every
    // answer must match the *exact* version its epoch names — no torn
    // reads, no half-applied deltas.
    const DELTAS: u64 = 16;
    let base = marginal_template();

    // Precompute the expected answer of every version.
    let mut versions: Vec<FaqQuery<Count>> = vec![base.clone()];
    for k in 0..DELTAS {
        let mut next = versions.last().unwrap().clone();
        let mut delta = RelationDelta::new([Var(0), Var(1)]);
        delta.insert(vec![(k % 8) as u32, 100 + k as u32], Count(1));
        next.factors[0].apply_delta(&delta);
        versions.push(next);
    }
    let oracle = Executor::default();
    let expected: Vec<Vec<Relation<Count>>> = versions
        .iter()
        .map(|v| {
            (0..8)
                .map(|b| {
                    let mut q = v.clone();
                    q.factors[0] = q.factors[0].restrict_in(Var(0), &[b]);
                    oracle.solve(&q).unwrap()
                })
                .collect()
        })
        .collect();

    let server = FaqServer::new(ServeConfig {
        workers: 3,
        max_batch: 8,
        ..ServeConfig::default()
    });
    let shape = server.register(base, Var(0)).unwrap();

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for k in 0..DELTAS {
                let mut delta = RelationDelta::new([Var(0), Var(1)]);
                delta.insert(vec![(k % 8) as u32, 100 + k as u32], Count(1));
                server.apply_delta(shape, EdgeId(0), &delta).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        for reader in 0..4u32 {
            let expected = &expected;
            let server = &server;
            s.spawn(move || {
                for i in 0..24u32 {
                    let b = (reader + i) % 8;
                    let answer = server.query(shape, b).unwrap();
                    let e = answer.epoch as usize;
                    assert!(e < expected.len(), "epoch {e} out of range");
                    assert_eq!(
                        answer.relation, expected[e][b as usize],
                        "reader {reader} binding {b} epoch {e}"
                    );
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(server.snapshot(shape).unwrap().epoch(), DELTAS);
}

/// Cyclic shapes are first-class at the serving layer: a triangle
/// template registers (admission's quote prices the merged-core
/// candidate), batched answers match the solo oracle, and the cost
/// budget still gates submission.
#[test]
fn cyclic_templates_serve_and_admit() {
    let q: FaqQuery<Count> = faqs_relation::random_instance(
        &faqs_hypergraph::cycle_query(3),
        &faqs_relation::RandomInstanceConfig {
            tuples_per_factor: 64,
            domain: 8,
            seed: 23,
        },
        vec![Var(0)],
        |_| Count(1),
    );
    let server = FaqServer::new(ServeConfig {
        workers: 2,
        max_batch: 8,
        ..ServeConfig::default()
    });
    let shape = server.register(q.clone(), Var(0)).unwrap();
    let tickets: Vec<_> = (0..16u32)
        .map(|b| server.submit(shape, b % 8).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let b = (i as u32) % 8;
        assert_eq!(
            t.wait().unwrap().relation,
            solo(&q, Var(0), b),
            "triangle slice at binding {b}"
        );
    }

    // The quote is real work (a triangle join), so a zero budget must
    // reject the same shape before any join runs.
    let strict = FaqServer::new(ServeConfig {
        cost_budget: 0,
        ..ServeConfig::default()
    });
    let shape = strict.register(q, Var(0)).unwrap();
    assert!(matches!(
        strict.submit(shape, 1),
        Err(ServeError::TooExpensive { .. })
    ));
}

/// Admission control prices with the executor's learned corrections: a
/// quote memoised before the registry learns this shape runs far larger
/// than modelled must be re-priced upward on the next submit, without a
/// delta landing.
#[test]
fn admission_quotes_track_learned_corrections() {
    use faqs_plan::{CalibrationLog, CalibrationRegistry, QueryStats};
    use std::sync::Arc;

    let q = template(11);
    let digest = QueryStats::of(&q).digest();
    let registry = Arc::new(CalibrationRegistry::forced(f64::INFINITY));
    let server = FaqServer::with_executor(
        ServeConfig {
            cost_budget: 0,
            ..ServeConfig::default()
        },
        Executor::default().with_calibration(Arc::clone(&registry)),
    );
    let shape = server.register(q, Var(0)).unwrap();
    let quoted = |server: &FaqServer<Count>| match server.submit(shape, 1) {
        Err(ServeError::TooExpensive {
            quoted, priced_on, ..
        }) => (quoted, priced_on),
        other => panic!("zero budget must reject, got {other:?}"),
    };

    let (before, basis_before) = quoted(&server);
    assert_eq!(
        basis_before,
        PricedOn::Estimates,
        "no samples yet: the rejection is estimate-priced"
    );
    // Teach the registry that this shape's cardinalities come out ~256x
    // over the model's estimate; the memoised quote is now stale.
    let log = CalibrationLog::new();
    for _ in 0..32 {
        log.record(0, 16, 1 << 12);
    }
    registry.absorb(&digest, &log);
    let (after, basis_after) = quoted(&server);
    assert_eq!(
        basis_after,
        PricedOn::Measurements,
        "absorbed telemetry flips the pricing basis"
    );
    assert!(
        after > before,
        "learned under-estimation must raise the admission quote: {after} !> {before}"
    );
}

/// The tentpole's contract, epoch by epoch: over a long random delta
/// stream on all three factors, the statistics published with each
/// version are exactly what a fresh scan of that version would gather,
/// and the quote admission serves is field for field the quote of a
/// fresh scan — though nothing scans any more.
#[test]
fn published_stats_and_quotes_track_every_epoch_exactly() {
    use faqs_plan::{CalibrationRegistry, QueryStats};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    const DOMAIN: u32 = 8;
    let registry = Arc::new(CalibrationRegistry::forced(f64::INFINITY));
    let server = FaqServer::with_executor(
        ServeConfig::default(),
        Executor::default().with_calibration(Arc::clone(&registry)),
    );
    let mut shadow = template(17);
    let shape = server.register(shadow.clone(), Var(0)).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5ca9);

    for epoch in 1..=600u64 {
        let edge = EdgeId(rng.random_range(0..3));
        let factor = shadow.factor(edge);
        let mut delta = RelationDelta::new(factor.schema().to_vec());
        let listed = |rng: &mut StdRng| {
            (!factor.is_empty())
                .then(|| factor.tuple_at(rng.random_range(0..factor.len())).to_vec())
        };
        let anywhere =
            |rng: &mut StdRng| vec![rng.random_range(0..DOMAIN), rng.random_range(0..DOMAIN)];
        for _ in 0..rng.random_range(0..6) {
            match rng.random_range(0..8) {
                // Fresh insert, or an accumulating one when it hits.
                0 | 1 => delta.insert(anywhere(&mut rng), Count(rng.random_range(1..4))),
                // Accumulate onto a row that is certainly listed.
                2 => {
                    if let Some(t) = listed(&mut rng) {
                        delta.insert(t, Count(2));
                    }
                }
                // Delete a listed row …
                3 => {
                    if let Some(t) = listed(&mut rng) {
                        delta.delete(t);
                    }
                }
                // … or every row carrying one leaf value: the last of
                // them takes a distinct value out of the column.
                4 => {
                    let x = rng.random_range(0..DOMAIN);
                    for t in factor.tuples().filter(|t| t[1] == x) {
                        delta.delete(t.to_vec());
                    }
                }
                5 => delta.set(anywhere(&mut rng), Count(rng.random_range(0..3))),
                // No-ops: an absent delete, a zero insert, a same-value set.
                6 => {
                    delta.delete(vec![DOMAIN - 1, rng.random_range(0..DOMAIN)]);
                    delta.insert(anywhere(&mut rng), Count(0));
                }
                _ => {
                    if let Some(t) = listed(&mut rng) {
                        let same = *factor.get(&t).unwrap();
                        delta.set(t, same);
                    }
                }
            }
        }
        assert_eq!(server.apply_delta(shape, edge, &delta).unwrap(), epoch);
        shadow.factors[edge.index()].apply_delta(&delta);

        let version = server.version(shape).unwrap();
        assert_eq!(version.epoch(), epoch);
        assert_eq!(version.template.factors, shadow.factors, "epoch {epoch}");
        assert_eq!(
            version.stats,
            QueryStats::of(&shadow),
            "epoch {epoch}: maintained statistics drifted from a rescan"
        );
        let (cost, _) = server.quote(shape).unwrap();
        assert_eq!(
            cost,
            scanned_quote(&shadow, &registry),
            "epoch {epoch}: served quote vs scanning quote"
        );
        // Reads keep flowing (and keep teaching the registry, so later
        // epochs are priced under a moving correction).
        if epoch % 50 == 0 {
            let b = rng.random_range(0..DOMAIN);
            let answer = server.query(shape, b).unwrap();
            assert_eq!(answer.epoch, epoch);
            assert_eq!(answer.relation, solo(&shadow, Var(0), b));
        }
    }
}

/// A learned correction that leaves the hysteresis band re-prices the
/// memoised quote to the calibrated value inside one epoch; one that
/// stays inside the band only flips the pricing basis.
#[test]
fn same_epoch_repricing_lands_on_the_calibrated_quote() {
    use faqs_plan::{CalibrationLog, CalibrationRegistry, QueryStats};
    use std::sync::Arc;

    let q = template(11);
    let digest = QueryStats::of(&q).digest();
    let registry = Arc::new(CalibrationRegistry::forced(f64::INFINITY));
    let server = FaqServer::with_executor(
        ServeConfig::default(),
        Executor::default().with_calibration(Arc::clone(&registry)),
    );
    let shape = server.register(q.clone(), Var(0)).unwrap();
    let raw = scanned_quote(&q, &registry);
    assert_eq!(server.quote(shape).unwrap(), (raw, PricedOn::Estimates));

    // ~1.25× under-estimation: inside the factor-2 band, so the memo
    // stands although a fresh calibrated quote would already differ.
    let log = CalibrationLog::new();
    for _ in 0..4 {
        log.record(0, 16, 20);
    }
    registry.absorb(&digest, &log);
    assert_ne!(scanned_quote(&q, &registry), raw);
    assert_eq!(server.quote(shape).unwrap(), (raw, PricedOn::Measurements));

    // ~256×: far outside it. Same epoch, new price.
    for _ in 0..64 {
        log.record(0, 16, 1 << 12);
    }
    registry.absorb(&digest, &log);
    let calibrated = scanned_quote(&q, &registry);
    assert!(calibrated.cpu > raw.cpu);
    assert_eq!(
        server.quote(shape).unwrap(),
        (calibrated, PricedOn::Measurements)
    );
    assert_eq!(server.version(shape).unwrap().epoch(), 0, "no delta landed");
}

/// Template and statistics are one published value: with two writers
/// and three readers racing, every pinned version carries exactly its
/// own template's statistics and every answer is the one its epoch
/// names — never version n's template beside version n±1's statistics.
#[test]
fn concurrent_writers_publish_template_and_stats_together() {
    use faqs_plan::QueryStats;
    use std::sync::Barrier;

    const WRITERS: u64 = 2;
    const DELTAS_EACH: u64 = 40;
    let server = FaqServer::new(ServeConfig {
        workers: 2,
        max_batch: 4,
        ..ServeConfig::default()
    });
    // 8 × 4 rows; every delta adds one fresh row under binding 2, so
    // whichever order the writers land in, epoch e lists 32 + e rows,
    // 4 + e distinct leaf values, and answers 4 + e at binding 2.
    let shape = server.register(marginal_template(), Var(0)).unwrap();
    let start = Barrier::new(WRITERS as usize + 3);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (server, start) = (&server, &start);
            s.spawn(move || {
                start.wait();
                for k in 0..DELTAS_EACH {
                    let mut delta = RelationDelta::new([Var(0), Var(1)]);
                    delta.insert(vec![2, 100 + (w * DELTAS_EACH + k) as u32], Count(1));
                    server.apply_delta(shape, EdgeId(0), &delta).unwrap();
                }
            });
        }
        for _ in 0..3 {
            let (server, start) = (&server, &start);
            s.spawn(move || {
                start.wait();
                let mut last = 0;
                while last < WRITERS * DELTAS_EACH {
                    let version = server.version(shape).unwrap();
                    let e = version.epoch();
                    assert!(e >= last, "epochs only move forward");
                    assert_eq!(
                        version.stats,
                        QueryStats::of(&version.template),
                        "epoch {e}"
                    );
                    assert_eq!(version.stats.factors[0].rows as u64, 32 + e);
                    assert_eq!(version.stats.factors[0].distinct[1] as u64, 4 + e);
                    let answer = server.query(shape, 2).unwrap();
                    assert!(answer.epoch >= e, "a read never goes back in time");
                    assert_eq!(
                        answer.relation.total(),
                        Count(4 + answer.epoch),
                        "answer at epoch {}",
                        answer.epoch
                    );
                    last = e;
                }
            });
        }
    });
    let end = server.version(shape).unwrap();
    assert_eq!(end.epoch(), WRITERS * DELTAS_EACH);
    assert_eq!(end.stats, QueryStats::of(&end.template));
}

/// Regression: a delta carrying a value outside the template's domain
/// used to be published, after which every submit for the shape failed
/// validation until the tuple was deleted. It is refused whole, and the
/// shape serves on as if it had never arrived.
#[test]
fn out_of_domain_deltas_are_refused_and_change_nothing() {
    let server = FaqServer::new(ServeConfig::default());
    let q = template(9);
    let shape = server.register(q.clone(), Var(0)).unwrap();
    let before = server.quote(shape).unwrap();

    let mut poison = RelationDelta::new(q.factors[1].schema().to_vec());
    poison.insert(vec![1, 1], Count(1)); // fine on its own
    poison.insert(vec![3, q.domain], Count(1)); // one past the domain
    assert_eq!(
        server.apply_delta(shape, EdgeId(1), &poison),
        Err(ServeError::ValueOutOfDomain { edge: EdgeId(1) })
    );

    let version = server.version(shape).unwrap();
    assert_eq!(version.epoch(), 0, "nothing was published");
    assert_eq!(version.template.factors, q.factors);
    assert_eq!(version.stats, faqs_plan::QueryStats::of(&q));
    assert_eq!(server.quote(shape).unwrap(), before);
    assert_eq!(
        server.query(shape, 3).unwrap().relation,
        solo(&q, Var(0), 3)
    );

    // The invariant the scan-free quote rests on: registered and only
    // in-domain deltas applied ⇒ the current version validates.
    let mut fine = RelationDelta::new(q.factors[1].schema().to_vec());
    fine.insert(vec![3, q.domain - 1], Count(1));
    assert_eq!(server.apply_delta(shape, EdgeId(1), &fine).unwrap(), 1);
    server.snapshot(shape).unwrap().validate().unwrap();

    // The same boundary at registration: bad data never gets in.
    let mut bad = q.clone();
    bad.domain = 4;
    assert!(matches!(
        server.register(bad, Var(0)),
        Err(ServeError::Engine(faqs_core::EngineError::Invalid(_)))
    ));
}

/// Admission prices under the server's own `PlannerConfig`, handed to
/// the planner explicitly — the default planner and the cascade
/// reference both.
/// (Today the quote prices the structural default GHD, whose bags hold
/// one factor each, so the two lowerings agree on every quote's value;
/// this pins the plumbing, for the day a quoted bag has a choice.)
#[test]
fn admission_prices_under_the_servers_own_planner() {
    use faqs_plan::{cost_quote_with_stats, PlannerConfig, QueryStats};

    let q: FaqQuery<Count> = random_instance(
        &faqs_hypergraph::cycle_query(3),
        &RandomInstanceConfig {
            tuples_per_factor: 64,
            domain: 8,
            seed: 23,
        },
        vec![Var(0)],
        |_| Count(1),
    );
    let stats = QueryStats::of(&q);
    for use_wcoj in [true, false] {
        let planner = PlannerConfig {
            use_stats: true,
            use_wcoj,
        };
        let server =
            FaqServer::with_executor(ServeConfig::default(), Executor::with_planner(planner));
        let shape = server.register(q.clone(), Var(0)).unwrap();
        assert_eq!(
            server.quote(shape).unwrap().0,
            cost_quote_with_stats(&q, &planner, &stats, 1.0).unwrap(),
            "use_wcoj = {use_wcoj}"
        );
    }
}
