//! A player the topology does not have is refused with a typed error at
//! every door — `ProtocolError::Invalid("P… not in topology")` at the
//! protocols, `TransmitError::NoRoute` / `NotAdjacent` at the scheduler,
//! `None` from the public bound helpers — never an index-out-of-bounds
//! panic.
//!
//! The fixture: the line of three players `P0 — P1 — P2`, and `P7`.

use faqs_hypergraph::star_query;
use faqs_network::{
    min_cut, min_cut_partition, steiner_packing, tau_mcf, Assignment, ChunkTrain, DeltaPackings,
    LinkId, NetRun, Player, RunStats, Topology, TransmitError,
};
use faqs_protocols::{
    run_bcq_protocol, run_faq_protocol, run_hash_split_protocol, run_set_intersection, run_trivial,
    BoundReport, DistributedFaqRun, InputPlacement, ProtocolError,
};
use faqs_relation::{random_boolean_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::Boolean;

const FOREIGN: Player = Player(7);

fn line() -> Topology {
    Topology::line(3).with_uniform_capacity(8)
}

fn star_bcq() -> FaqQuery<Boolean> {
    random_boolean_instance(
        &star_query(3),
        &RandomInstanceConfig {
            tuples_per_factor: 8,
            domain: 8,
            seed: 1,
        },
        true,
    )
}

fn assert_foreign<T>(got: Result<T, ProtocolError>) {
    assert_eq!(
        got.map(|_| ()),
        Err(ProtocolError::Invalid(format!("{FOREIGN} not in topology")))
    );
}

/// The three factors on the line, once with a foreign holder and once
/// with a foreign output.
fn foreign_assignments() -> [Assignment; 2] {
    [
        Assignment::new(vec![Player(0), FOREIGN, Player(2)], Player(2)),
        Assignment::new(vec![Player(0), Player(1), Player(2)], FOREIGN),
    ]
}

#[test]
fn faq_and_bcq_protocols_refuse_a_foreign_player() {
    let q = star_bcq();
    for a in foreign_assignments() {
        assert_foreign(run_faq_protocol(&q, &line(), &a, 1));
        assert_foreign(run_bcq_protocol(&q, &line(), &a, 1));
    }
}

#[test]
fn trivial_protocol_refuses_a_foreign_player() {
    for a in foreign_assignments() {
        assert_foreign(run_trivial(&star_bcq(), &line(), &a));
    }
}

#[test]
fn hash_split_protocol_refuses_a_foreign_player() {
    let q = star_bcq();
    let shards = [Player(0), FOREIGN, Player(2)];
    assert_foreign(run_hash_split_protocol(&q, &line(), &shards, Player(0)));
    let shards = [Player(0), Player(1), Player(2)];
    assert_foreign(run_hash_split_protocol(&q, &line(), &shards, FOREIGN));
}

#[test]
fn set_intersection_refuses_a_foreign_player() {
    let vector = vec![true, false, true];
    let inputs = [(Player(0), vector.clone()), (FOREIGN, vector.clone())];
    assert_foreign(run_set_intersection(&line(), &inputs, Player(0)));
    let inputs = [(Player(0), vector.clone()), (Player(2), vector)];
    assert_foreign(run_set_intersection(&line(), &inputs, FOREIGN));
}

#[test]
fn distributed_run_refuses_a_foreign_player() {
    let q = star_bcq();
    let placement = InputPlacement::hash_split(q.k(), &[Player(0), FOREIGN], Player(0));
    assert_foreign(DistributedFaqRun::new(&q, &line(), placement, 1));
}

#[test]
fn scheduler_doors_refuse_a_foreign_player() {
    let g = line();
    let mut run = NetRun::new(&g);
    for bits in [0, 9] {
        assert_eq!(
            run.send_via_shortest_path(FOREIGN, Player(1), bits, 1),
            Err(TransmitError::NoRoute(FOREIGN, Player(1)))
        );
        assert_eq!(
            run.send_via_shortest_path(Player(1), FOREIGN, bits, 1),
            Err(TransmitError::NoRoute(Player(1), FOREIGN))
        );
        assert_eq!(
            run.transmit(FOREIGN, Player(1), bits, 1),
            Err(TransmitError::NotAdjacent(FOREIGN, Player(1)))
        );
        assert_eq!(
            run.transmit(Player(1), FOREIGN, bits, 1),
            Err(TransmitError::NotAdjacent(Player(1), FOREIGN))
        );
    }
    // A sender that is not an end of the link it names.
    assert_eq!(
        run.send_train(LinkId(0), Player(2), &mut ChunkTrain::new(9, 9, 0)),
        Err(TransmitError::NotAdjacent(Player(2), Player(0)))
    );
    assert_eq!(run.stats(), RunStats::default(), "nothing was accounted");
}

#[test]
fn bound_helpers_refuse_a_foreign_terminal() {
    let g = line();
    for k in [[Player(0), FOREIGN], [FOREIGN, Player(0)]] {
        assert_eq!(min_cut(&g, &k), None, "{k:?}");
        assert_eq!(min_cut_partition(&g, &k), None, "{k:?}");
        assert_eq!(tau_mcf(&g, &k, 64), None, "{k:?}");
        assert!(DeltaPackings::new(&g, &k).best(64).is_none(), "{k:?}");
        assert!(steiner_packing(&g, &k, 4).is_empty(), "{k:?}");
        assert_eq!(BoundReport::evaluate(&star_bcq(), &g, &k), None, "{k:?}");
    }
    // A lone foreign player: no cut, no routing, no packing, no bound.
    assert_eq!(min_cut(&g, &[FOREIGN]), None);
    assert_eq!(tau_mcf(&g, &[FOREIGN], 64), None);
    assert!(DeltaPackings::new(&g, &[FOREIGN]).best(64).is_none());
    assert!(steiner_packing(&g, &[FOREIGN], 4).is_empty());
    assert_eq!(BoundReport::evaluate(&star_bcq(), &g, &[FOREIGN]), None);
    // A lone player of the line has nothing to connect: no packing.
    assert!(DeltaPackings::new(&g, &[Player(1)]).best(64).is_none());
    assert!(steiner_packing(&g, &[Player(1)], 4).is_empty());
    // The same helpers on the line's own players answer.
    let k = [Player(0), Player(2)];
    assert_eq!(min_cut(&g, &k), Some(1));
    assert!(tau_mcf(&g, &k, 64).is_some());
    assert!(DeltaPackings::new(&g, &k).best(64).is_some());
    assert!(BoundReport::evaluate(&star_bcq(), &g, &k).is_some());
}
