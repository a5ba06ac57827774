//! A player set the topology does not connect is refused with a typed
//! `ProtocolError::Unreachable` at every protocol entry point, before
//! anything is transmitted: no Steiner tree spans it, so neither the
//! protocols nor the paper's bound have anything to stand on.
//!
//! The fixture: four players in two halves, links 0–1 and 2–3 only,
//! with every player in `K`.

use faqs_hypergraph::star_query;
use faqs_network::{Assignment, Player, Topology};
use faqs_protocols::{
    run_bcq_protocol, run_bcq_protocol_with_cut, run_faq_protocol, run_hash_split_protocol,
    run_set_intersection, run_trivial, BoundReport, DistributedFaqRun, InputPlacement,
    ProtocolError,
};
use faqs_relation::{random_boolean_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::{Boolean, Semiring};

fn split_topology() -> Topology {
    let mut g = Topology::empty("split", 4);
    g.add_link(Player(0), Player(1), 1);
    g.add_link(Player(2), Player(3), 1);
    g
}

fn everyone() -> Vec<Player> {
    (0..4).map(Player).collect()
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

/// The three factors at players 0, 1 and 2; player 3 learns the answer.
fn spread() -> Assignment {
    Assignment::new(vec![Player(0), Player(1), Player(2)], Player(3))
}

fn assert_unreachable<T: std::fmt::Debug>(got: Result<T, ProtocolError>) {
    assert!(
        matches!(got, Err(ProtocolError::Unreachable(_))),
        "expected Unreachable, got {got:?}"
    );
}

#[test]
fn bcq_protocol_refuses_a_disconnected_player_set() {
    assert_unreachable(run_bcq_protocol(
        &star_bcq(),
        &split_topology(),
        &spread(),
        1,
    ));
}

#[test]
fn faq_protocol_refuses_a_disconnected_player_set() {
    assert_unreachable(run_faq_protocol(
        &star_bcq(),
        &split_topology(),
        &spread(),
        1,
    ));
}

#[test]
fn bcq_protocol_with_cut_refuses_a_disconnected_player_set() {
    let side = [true, true, false, false];
    assert_unreachable(run_bcq_protocol_with_cut(
        &star_bcq(),
        &split_topology(),
        &spread(),
        1,
        &side,
    ));
}

#[test]
fn hash_split_protocol_refuses_a_disconnected_player_set() {
    assert_unreachable(run_hash_split_protocol(
        &star_bcq(),
        &split_topology(),
        &everyone(),
        Player(0),
    ));
}

#[test]
fn set_intersection_refuses_a_disconnected_player_set() {
    let inputs: Vec<(Player, Vec<bool>)> = everyone()
        .into_iter()
        .map(|p| (p, vec![true, false, true]))
        .collect();
    assert_unreachable(run_set_intersection(&split_topology(), &inputs, Player(0)));
}

#[test]
fn trivial_protocol_refuses_a_disconnected_player_set() {
    assert_unreachable(run_trivial(&star_bcq(), &split_topology(), &spread()));
}

#[test]
fn distributed_run_refuses_a_disconnected_player_set() {
    let q = star_bcq();
    let placement = InputPlacement::hash_split(q.k(), &everyone(), Player(0));
    match DistributedFaqRun::new(&q, &split_topology(), placement, 1) {
        Err(ProtocolError::Unreachable(msg)) => assert!(msg.contains("unreachable"), "{msg}"),
        Err(e) => panic!("expected Unreachable, got {e:?}"),
        Ok(_) => panic!("a run over a disconnected player set was prepared"),
    }
}

#[test]
#[should_panic(expected = "the topology connects the players")]
fn bound_report_documents_its_connectivity_precondition() {
    BoundReport::evaluate(&star_bcq(), &split_topology(), &everyone());
}

#[test]
fn each_connected_half_still_runs() {
    // Control: the same fixture with `K` inside one half.
    let q = star_bcq();
    let half = Assignment::new(vec![Player(0), Player(1), Player(0)], Player(1));
    let out = run_bcq_protocol(&q, &split_topology(), &half, 1).unwrap();
    assert_eq!(out.answer, faqs_core::solve_bcq(&q));
    let placement = InputPlacement::hash_split(q.k(), &[Player(2), Player(3)], Player(3));
    let run = DistributedFaqRun::new(&q, &split_topology(), placement, 1).unwrap();
    assert_eq!(
        !run.execute().unwrap().result.total().is_zero(),
        faqs_core::solve_bcq(&q)
    );
}
