//! A player set the topology does not connect is refused with a typed
//! `ProtocolError::Unreachable` at every protocol entry point, before
//! anything is transmitted: no Steiner tree spans it, so neither the
//! protocols nor the paper's bound have anything to stand on.
//!
//! The fixture: four players in two halves, links 0–1 and 2–3 only,
//! with every player in `K`.
//!
//! A second fixture keeps the player set connected over live links but
//! holds one down link (capacity 0): every paper protocol on it answers
//! as the engine does, sends nothing over the down link, and none
//! divides by its capacity. Nor does the bound count it: the run reports
//! what it reports on the same ring with that link absent.

use faqs_hypergraph::star_query;
use faqs_network::{min_cut, tau_mcf, Assignment, LinkId, Player, Topology};
use faqs_protocols::{
    run_bcq_protocol, run_faq_protocol, run_hash_split_protocol, run_set_intersection, run_trivial,
    BoundReport, DistributedFaqRun, InputPlacement, ProtocolError, ProtocolOutcome, RunReport,
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
fn bound_report_documents_its_connectivity_precondition() {
    assert!(BoundReport::evaluate(&star_bcq(), &split_topology(), &everyone()).is_none());
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

/// A connected topology with a down link: the ring of four players at
/// 8 bits per round, its link 0 (players 0–1) at capacity 0.
fn ring_with_a_down_link() -> Topology {
    let mut g = Topology::ring(4).with_uniform_capacity(8);
    g.set_capacity(LinkId(0), 0);
    g
}

/// The three factors at players 0, 1 and 2 of the ring, output at 3:
/// the players are connected over live links.
fn around_the_down_link() -> Assignment {
    Assignment::new(vec![Player(0), Player(1), Player(2)], Player(3))
}

/// A door on the ring with a down link answers as the engine does and
/// sends nothing over the down link.
fn answers_around_the_down_link<T: PartialEq + std::fmt::Debug>(
    got: Result<ProtocolOutcome<T>, ProtocolError>,
    engine: T,
) {
    let out = got.expect("live links connect the players");
    assert_eq!(out.answer, engine);
    assert_eq!(out.report.link_bits[0], 0, "{:?}", out.report.link_bits);
}

#[test]
fn faq_protocol_survives_a_down_link() {
    let q = star_bcq();
    let engine = faqs_core::solve_faq(&q).unwrap();
    for capacity_tuples in [0, 1] {
        let got = run_faq_protocol(
            &q,
            &ring_with_a_down_link(),
            &around_the_down_link(),
            capacity_tuples,
        );
        answers_around_the_down_link(got, engine.clone());
    }
}

#[test]
fn bcq_protocol_survives_a_down_link() {
    let q = star_bcq();
    let got = run_bcq_protocol(&q, &ring_with_a_down_link(), &around_the_down_link(), 0);
    answers_around_the_down_link(got, faqs_core::solve_bcq(&q));
}

#[test]
fn trivial_protocol_survives_a_down_link() {
    let q = star_bcq();
    let got = run_trivial(&q, &ring_with_a_down_link(), &around_the_down_link());
    answers_around_the_down_link(got, faqs_core::solve_faq(&q).unwrap());
}

#[test]
fn set_intersection_survives_a_down_link() {
    let inputs: Vec<(Player, Vec<bool>)> = everyone()
        .into_iter()
        .map(|p| (p, vec![true, p.0 != 2, true]))
        .collect();
    let got = run_set_intersection(&ring_with_a_down_link(), &inputs, Player(0));
    answers_around_the_down_link(got, vec![true, false, true]);
}

#[test]
fn hash_split_protocol_survives_a_down_link() {
    let q = star_bcq();
    let got = run_hash_split_protocol(&q, &ring_with_a_down_link(), &everyone(), Player(0));
    answers_around_the_down_link(got, faqs_core::solve_bcq(&q));
}

#[test]
fn distributed_run_survives_a_down_link() {
    let q = star_bcq();
    let placement = InputPlacement::hash_split(q.k(), &everyone(), Player(0));
    let run = DistributedFaqRun::new(&q, &ring_with_a_down_link(), placement, 1).unwrap();
    let out = run.execute().unwrap();
    assert_eq!(!out.result.total().is_zero(), faqs_core::solve_bcq(&q));
    assert_eq!(out.report.link_bits[0], 0, "{:?}", out.report.link_bits);
}

/// [`ring_with_a_down_link`] with its link 0 absent rather than down.
fn ring_without_the_down_link() -> Topology {
    let mut g = Topology::empty("ring4", 4);
    for (a, b) in [(1, 2), (2, 3), (3, 0)] {
        g.add_link(Player(a), Player(b), 8);
    }
    g
}

/// What a run reports of the network: the paper's bound, its round
/// bound, the rounds, the total bits and the live oracle's bit and wire
/// envelopes.
fn network_terms(r: &RunReport) -> (Option<BoundReport>, [u64; 5]) {
    (
        r.bound.clone(),
        [
            r.upper_rounds,
            r.stats.rounds,
            r.stats.total_bits,
            r.upper_bits,
            r.upper_wire_bits,
        ],
    )
}

#[test]
fn a_down_link_counts_as_an_absent_one() {
    let (down, absent) = (ring_with_a_down_link(), ring_without_the_down_link());
    let k = everyone();
    assert_eq!(min_cut(&down, &k), Some(1));
    assert_eq!(min_cut(&down, &k), min_cut(&absent, &k));
    assert_eq!(tau_mcf(&down, &k, 64), tau_mcf(&absent, &k, 64));
    let q = star_bcq();
    assert_eq!(
        BoundReport::evaluate(&q, &down, &k),
        BoundReport::evaluate(&q, &absent, &k)
    );

    let same = |door: &str, run: &dyn Fn(&Topology) -> RunReport| {
        let (on_down, on_absent) = (run(&down), run(&absent));
        assert_eq!(network_terms(&on_down), network_terms(&on_absent), "{door}");
    };
    let spread = around_the_down_link();
    for capacity_tuples in [0, 1] {
        same("run_faq_protocol", &|g| {
            run_faq_protocol(&q, g, &spread, capacity_tuples)
                .unwrap()
                .report
        });
        same("run_bcq_protocol", &|g| {
            run_bcq_protocol(&q, g, &spread, capacity_tuples)
                .unwrap()
                .report
        });
    }
    same("run_trivial", &|g| {
        run_trivial(&q, g, &spread).unwrap().report
    });
    let inputs: Vec<(Player, Vec<bool>)> =
        k.iter().map(|&p| (p, vec![true, p.0 != 2, true])).collect();
    same("run_set_intersection", &|g| {
        run_set_intersection(g, &inputs, Player(0)).unwrap().report
    });
    same("run_hash_split_protocol", &|g| {
        run_hash_split_protocol(&q, g, &k, Player(0))
            .unwrap()
            .report
    });
    same("DistributedFaqRun", &|g| {
        let placement = InputPlacement::hash_split(q.k(), &k, Player(0));
        let run = DistributedFaqRun::new(&q, g, placement, 1).unwrap();
        run.execute().unwrap().report
    });
}
