//! Differential suite for the transport layer: the same plan raced in
//! memory and over loopback TCP must produce bit-identical answers,
//! byte-identical `RunStats` (both transports drive the same shadow
//! oracle) and the same wire traffic to the byte, and the measured wire
//! bits must sit inside the run's `RunReport` wire envelope derived
//! from the Model 2.1 upper bound. The Theorem 3.1 fixture is pinned
//! under TCP so the socket path guards the exact measurement the
//! conformance suite pins in memory.

use faqs_core::{solve_bcq, solve_faq};
use faqs_hypergraph::{path_query, star_query};
use faqs_network::{Player, SimTransport, TcpTransport, Topology, TransportKind};
use faqs_protocols::{DistributedFaqRun, DistributedOutcome, InputPlacement};
use faqs_relation::{
    irreducible_star_instance, random_instance, BcqBuilder, FaqQuery, RandomInstanceConfig,
};
use faqs_semiring::{Count, Semiring};

fn all_players(g: &Topology) -> Vec<Player> {
    g.players().collect()
}

/// Races one plan in memory and over TCP and checks every
/// cross-transport invariant; returns the TCP outcome for pinning.
fn race_transports<S: Semiring>(
    q: &FaqQuery<S>,
    g: &Topology,
    output: Player,
) -> DistributedOutcome<S> {
    let placement = InputPlacement::hash_split(q.k(), &all_players(g), output);
    let run = DistributedFaqRun::new(q, g, placement, 1).unwrap();

    let sim = run
        .execute_on(&mut SimTransport::new(run.topology()))
        .unwrap();
    let mut tcp_t = TcpTransport::new(run.topology()).expect("loopback sockets");
    let tcp = run.execute_on(&mut tcp_t).unwrap();

    assert_eq!(sim.transport, TransportKind::Sim);
    assert_eq!(tcp.transport, TransportKind::Tcp);

    // The decoded relations, not just their totals, must agree.
    assert_eq!(sim.result, tcp.result, "sim vs tcp on {}", g.name());

    // Identical shadow accounting: the model-unit ledger may not depend
    // on which transport carried the bytes.
    assert_eq!(sim.stats, tcp.stats, "stats sim vs tcp");
    assert_eq!(sim.completed_at, tcp.completed_at);
    assert_eq!(sim.node_player, tcp.node_player);

    // Both move the same frames (length prefixes are transport-private
    // and excluded), so both judge them against the same envelopes.
    assert_eq!(sim.wire, tcp.wire, "wire ledger sim vs tcp");
    let envelopes =
        |out: &DistributedOutcome<S>| (out.report.upper_bits, out.report.upper_wire_bits);
    assert_eq!(envelopes(&sim), envelopes(&tcp), "envelopes sim vs tcp");

    // The per-link tallies are the shadow's too: the same on both
    // transports, one entry per link, summing to the run's model bits.
    assert_eq!(
        sim.report.link_bits, tcp.report.link_bits,
        "link bits sim vs tcp"
    );
    assert_eq!(tcp.report.link_bits.len(), g.num_links());
    let tallied: u64 = tcp.report.link_bits.iter().sum();
    assert_eq!(
        tallied,
        tcp.report.stats.total_bits,
        "link bits sum on {}",
        g.name()
    );

    // The measurement inside both envelopes (execute_on checks the upper
    // sides live; re-read here so the test fails with the full ledger)
    // and above the nominal lower bound of this spread placement.
    let report = &tcp.report;
    assert!(report.conforms(), "{report:?} on {}", g.name());
    let bound = report
        .bound
        .as_ref()
        .expect("Theorem 4.1 prices the runtime");
    assert!(tcp.stats.total_bits >= bound.lower_rounds, "{report:?}");
    tcp
}

#[test]
fn boolean_star_and_path_race_identically() {
    let star = irreducible_star_instance(4, 48);
    let out = race_transports(&star, &Topology::star(5), Player(1));
    assert_eq!(!out.result.total().is_zero(), solve_bcq(&star));
    assert!(out.wire.frames > 0, "spread placement must ship frames");

    let h = path_query(4);
    let mut b = BcqBuilder::new(&h, 48);
    for e in 0..4 {
        b.relation_from_pairs(e, (0..48u32).map(|x| (x, x)));
    }
    let path = b.finish();
    let out = race_transports(&path, &Topology::line(5), Player(0));
    assert_eq!(!out.result.total().is_zero(), solve_bcq(&path));
}

#[test]
fn counting_payloads_survive_the_wire() {
    // Count annotations exercise the 8-byte value column end to end:
    // encode at the shard holder, decode at the aggregator, compare
    // against the single-machine reference.
    let h = star_query(4);
    let q: FaqQuery<Count> = random_instance(
        &h,
        &RandomInstanceConfig {
            tuples_per_factor: 24,
            domain: 16,
            seed: 0xD0D0,
        },
        vec![],
        |r| {
            use rand::Rng;
            Count(r.random_range(1..4))
        },
    );
    let out = race_transports(&q, &Topology::grid(2, 3), Player(5));
    assert_eq!(out.result, solve_faq(&q).unwrap());
}

#[test]
fn colocated_runs_ship_no_frames_on_any_transport() {
    // Everything placed at the output player: zero model bits and zero
    // wire frames, whichever transport is plugged in.
    let q = irreducible_star_instance(4, 16);
    let g = Topology::star(5);
    let placement = InputPlacement::new(vec![vec![Player(0)]; q.k()], Player(0));
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    let mut tcp = TcpTransport::new(run.topology()).expect("loopback sockets");
    for out in [run.execute(), run.execute_on(&mut tcp)] {
        let out = out.unwrap();
        assert_eq!(out.stats, faqs_network::RunStats::default());
        assert_eq!(out.wire.frames, 0);
        assert_eq!(out.wire.payload_bytes, 0);
    }
}

#[test]
fn theorem_3_1_fixture_is_pinned_under_tcp() {
    // Same instance, topology, and pinned measurement as the simulator
    // conformance suite — a socket run may not drift from it.
    let q = irreducible_star_instance(4, 64);
    let g = Topology::line(4);
    let placement = InputPlacement::hash_split(q.k(), &all_players(&g), Player(3));
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    let mut tcp = TcpTransport::new(run.topology()).expect("loopback sockets");
    let out = run.execute_on(&mut tcp).unwrap();
    assert_eq!(!out.result.total().is_zero(), solve_bcq(&q));
    assert_eq!(
        (
            out.stats.rounds,
            out.stats.total_bits,
            out.stats.transmissions,
        ),
        (122, 4056, 342),
        "TCP run drifted from the pinned Theorem 3.1 fixture"
    );
}
