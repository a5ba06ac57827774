//! End-to-end serving-layer tests: batched answers vs the executor
//! oracle (batches run by workers and by waiting callers), shutdown with
//! outstanding tickets, registration and delta refusals, and snapshot
//! isolation under concurrent writers.

use faqs_core::EngineError;
use faqs_exec::Executor;
use faqs_hypergraph::{path_query, star_query, EdgeId, Var};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig, Relation, RelationDelta};
use faqs_semiring::Count;
use faqs_serve::{FaqServer, ServeConfig, ServeError};

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

#[test]
fn served_answers_match_the_executor_oracle() {
    // The batching server and per-query dispatch (width 1), each waited
    // in submission order and in reverse: a reverse waiter finds its
    // request mid-queue and runs its batch itself.
    for (max_batch, reverse) in [(8, false), (8, true), (1, false), (1, true)] {
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
        let mut tickets: Vec<_> = bindings
            .iter()
            .map(|&b| (b, server.submit(shape, b).unwrap()))
            .collect();
        if reverse {
            tickets.reverse();
        }
        for (b, t) in tickets {
            let answer = t.wait().unwrap();
            assert_eq!(answer.epoch, 0, "no writers, initial version");
            assert_eq!(answer.relation, solo(&q, Var(0), b), "binding {b}");
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 32);
        assert_eq!(
            stats.batched, 32,
            "every request answered once, by a worker or a waiting caller"
        );
        assert!(stats.caller_batches <= stats.batches);
        assert!(stats.max_width as usize <= max_batch);
        if max_batch == 1 {
            assert_eq!(stats.max_width, 1, "width 1 merges nothing");
            assert_eq!(stats.batches, stats.batched, "one pass per request");
        }
    }
}

/// A waiter whose request no worker has taken runs its batch on its own
/// thread. The one worker is busy with a large shape's passes (bound at
/// a leaf, so each pass scans two whole 60 000-row factors), so a small
/// shape's read queued behind them is still queued when its ticket is
/// waited on. It reads its own write, and is the solo oracle's answer.
#[test]
fn a_waiting_caller_runs_its_still_queued_batch() {
    let server = FaqServer::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let large = random_instance(
        &star_query(3),
        &RandomInstanceConfig {
            tuples_per_factor: 60_000,
            domain: 4096,
            seed: 5,
        },
        vec![Var(1)],
        |_| Count(1),
    );
    let large = server.register(large, Var(1)).unwrap();
    let mut q = template(7);
    let small = server.register(q.clone(), Var(0)).unwrap();
    let busy: Vec<_> = (0..4).map(|b| server.submit(large, b).unwrap()).collect();

    let mut delta = RelationDelta::new(q.factors[0].schema().to_vec());
    delta.insert(vec![3, 5], Count(2));
    let epoch = server.apply_delta(small, EdgeId(0), &delta).unwrap();
    q.factors[0].apply_delta(&delta);
    let answer = server.submit(small, 3).unwrap().wait().unwrap();
    assert!(
        server.stats().caller_batches >= 1,
        "the waiter ran its own batch"
    );
    assert!(answer.epoch >= epoch, "a read sees the write before it");
    assert_eq!(answer.relation, solo(&q, Var(0), 3));

    for t in busy {
        t.wait().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.batched, stats.submitted);
}

/// Dropping the server while it holds unwaited tickets hangs neither the
/// drop nor a later wait: each ticket gets its answer or `Shutdown`, and
/// a ticket dropped unwaited leaves the others answered.
#[test]
fn tickets_outstanding_at_shutdown_never_hang() {
    let q = template(11);
    let (done, finished) = std::sync::mpsc::channel();
    let waits = std::thread::spawn(move || {
        let server = FaqServer::new(ServeConfig {
            workers: 1,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let shape = server.register(q.clone(), Var(0)).unwrap();
        let mut tickets: Vec<_> = (0..24u32)
            .map(|i| (i % 8, server.submit(shape, i % 8).unwrap()))
            .collect();
        drop(tickets.remove(5));
        drop(server);
        for (b, t) in tickets {
            match t.wait() {
                Ok(answer) => assert_eq!(answer.relation, solo(&q, Var(0), b), "binding {b}"),
                Err(e) => assert_eq!(e, ServeError::Shutdown),
            }
        }
        let _ = done.send(());
    });
    let outcome = finished.recv_timeout(std::time::Duration::from_secs(120));
    assert_ne!(
        outcome,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "the drop and every wait return"
    );
    waits.join().unwrap();
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
    // Free ends of a path no bag holds together: no GHD of the path
    // roots at both, so the structural plan refuses the shape.
    let ends: FaqQuery<Count> = random_instance(
        &path_query(5),
        &RandomInstanceConfig {
            tuples_per_factor: 2,
            domain: 2,
            seed: 1,
        },
        vec![Var(0), Var(5)],
        |_| Count(1),
    );
    assert!(matches!(
        server.register(ends, Var(0)),
        Err(ServeError::Engine(EngineError::FreeVarsOutsideCore(_)))
    ));
    // Unknown handles are reported, not panicked on.
    assert!(matches!(
        server.query(faqs_serve::ShapeId(42), 0),
        Err(ServeError::UnknownShape(42))
    ));
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

/// A deep copy of every factor's listing: holds nothing a published
/// template could share.
fn listings(q: &FaqQuery<Count>) -> Vec<Vec<(Vec<u32>, u64)>> {
    let rows = |f: &Relation<Count>| f.iter().map(|(t, v)| (t.to_vec(), v.0)).collect();
    q.factors.iter().map(rows).collect()
}

/// Where each factor's rows live.
fn arenas(q: &FaqQuery<Count>) -> Vec<*const u32> {
    q.factors.iter().map(|f| f.tuple_at(0).as_ptr()).collect()
}

/// Every epoch shares the factors its delta left alone with the epoch
/// before, and a snapshot pinned at any epoch keeps every factor, bit
/// for bit and in place, however many deltas land on each factor after.
#[test]
fn pinned_snapshots_keep_every_factor_across_writes_to_each() {
    let server = FaqServer::new(ServeConfig::default());
    let shape = server.register(template(29), Var(0)).unwrap();
    let pin = || {
        let p = server.snapshot(shape).unwrap();
        let (copy, at) = (listings(&p), arenas(&p));
        (p, copy, at)
    };
    let mut pinned = vec![pin()];
    for epoch in 1..=9u64 {
        let edge = EdgeId((epoch % 3) as u32);
        let (prev, _, prev_at) = pinned.last().unwrap();
        let factor = prev.factor(edge);
        let mut delta = RelationDelta::new(factor.schema().to_vec());
        delta.delete(factor.tuple_at(0).to_vec());
        delta.insert(vec![epoch as u32 % 8, 7], Count(epoch));
        assert_eq!(server.apply_delta(shape, edge, &delta).unwrap(), epoch);

        let next = pin();
        for (e, (a, b)) in prev_at.iter().zip(&next.2).enumerate() {
            assert_eq!(a == b, e != edge.index(), "epoch {epoch}, factor {e}");
        }
        pinned.push(next);
    }
    for (e, (p, copy, at)) in pinned.iter().enumerate() {
        assert_eq!(p.epoch(), e as u64);
        assert_eq!(&listings(p), copy, "epoch {e}'s factors");
        assert_eq!(&arenas(p), at, "epoch {e}'s arenas");
    }
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
/// template registers and its batched answers match the solo oracle.
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
}

/// Epoch by epoch over a long random delta stream on all three
/// factors: each published template is exactly the shadow copy the
/// same deltas built, and the sampled answers are the shadow's.
#[test]
fn published_templates_track_every_epoch_exactly() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DOMAIN: u32 = 8;
    let server = FaqServer::new(ServeConfig::default());
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

        let published = server.snapshot(shape).unwrap();
        assert_eq!(published.epoch(), epoch);
        assert_eq!(published.factors, shadow.factors, "epoch {epoch}");
        if epoch % 50 == 0 {
            let b = rng.random_range(0..DOMAIN);
            let answer = server.query(shape, b).unwrap();
            assert_eq!(answer.epoch, epoch);
            assert_eq!(answer.relation, solo(&shadow, Var(0), b));
        }
    }
}

/// With two writers and three readers racing, epochs only move
/// forward, every pinned template is the one its epoch names, and every
/// answer is the one its epoch names.
#[test]
fn concurrent_writers_publish_epochs_in_order() {
    use std::sync::Barrier;

    const WRITERS: u64 = 2;
    const DELTAS_EACH: u64 = 40;
    let server = FaqServer::new(ServeConfig {
        workers: 2,
        max_batch: 4,
        ..ServeConfig::default()
    });
    // 8 × 4 rows; every delta adds one fresh row under binding 2, so
    // whichever order the writers land in, epoch e lists 32 + e rows
    // and answers 4 + e at binding 2.
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
                    let published = server.snapshot(shape).unwrap();
                    let e = published.epoch();
                    assert!(e >= last, "epochs only move forward");
                    assert_eq!(published.factors[0].len() as u64, 32 + e, "epoch {e}");
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
    let end = server.snapshot(shape).unwrap();
    assert_eq!(end.epoch(), WRITERS * DELTAS_EACH);
    assert_eq!(end.factors[0].len() as u64, 32 + end.epoch());
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

    let mut poison = RelationDelta::new(q.factors[1].schema().to_vec());
    poison.insert(vec![1, 1], Count(1)); // fine on its own
    poison.insert(vec![3, q.domain], Count(1)); // one past the domain
    assert_eq!(
        server.apply_delta(shape, EdgeId(1), &poison),
        Err(ServeError::ValueOutOfDomain { edge: EdgeId(1) })
    );

    let published = server.snapshot(shape).unwrap();
    assert_eq!(published.epoch(), 0, "nothing was published");
    assert_eq!(published.factors, q.factors);
    assert_eq!(
        server.query(shape, 3).unwrap().relation,
        solo(&q, Var(0), 3)
    );

    // Registered and only in-domain deltas applied ⇒ the current
    // version validates.
    let mut fine = RelationDelta::new(q.factors[1].schema().to_vec());
    fine.insert(vec![3, q.domain - 1], Count(1));
    assert_eq!(server.apply_delta(shape, EdgeId(1), &fine).unwrap(), 1);
    server.snapshot(shape).unwrap().validate().unwrap();

    // The same boundary at registration: bad data never gets in.
    let mut bad = q.clone();
    bad.domain = 4;
    assert!(matches!(
        server.register(bad, Var(0)),
        Err(ServeError::Engine(EngineError::Invalid(_)))
    ));
}
