//! The live conformance oracle of every distributed run answers with a
//! typed error, not a panic: a run whose measured model bits (or wire
//! bytes) escape the paper's upper envelope returns
//! `ProtocolError::BoundViolated` (`WireBoundViolated`) to its caller.
//! No protocol in the repository violates its bound, so the measurement
//! is inflated by a test-local transport wrapper.

use faqs_hypergraph::{star_query, Var};
use faqs_network::{
    Delivery, LinkId, Player, RunStats, SimTransport, Topology, TransmitError, Transport,
    TransportKind, WireStats,
};
use faqs_protocols::{run_faq_protocol, DistributedFaqRun, InputPlacement, ProtocolError};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig, Relation};
use faqs_semiring::Count;

/// The in-memory transport underneath; the reported measurements are
/// padded.
struct Inflated<'a> {
    inner: SimTransport<'a>,
    extra_model_bits: u64,
    extra_wire_bytes: u64,
}

impl Transport for Inflated<'_> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        self.inner.route(from, to, frame, model_bits, learned_at)
    }

    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        frame: &[u8],
        model_bits: u64,
        ready_at: u64,
    ) -> Result<Delivery, TransmitError> {
        self.inner
            .send_along_path(nodes, links, frame, model_bits, ready_at)
    }

    fn stats(&self) -> RunStats {
        let mut stats = self.inner.stats();
        stats.total_bits += self.extra_model_bits;
        stats
    }

    fn wire(&self) -> WireStats {
        let mut wire = self.inner.wire();
        wire.payload_bytes += self.extra_wire_bytes;
        wire
    }

    fn link_bits(&self) -> &[u64] {
        self.inner.link_bits()
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

#[test]
fn a_run_outside_its_envelope_is_a_typed_error() {
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 24,
        domain: 8,
        seed: 5,
    };
    let q = random_instance(&star_query(3), &cfg, vec![], |_| Count(1));
    for g in [Topology::line(4), Topology::grid(2, 3)] {
        let players: Vec<Player> = g.players().collect();
        let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
        let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
        let execute = |extra_model_bits: u64, extra_wire_bytes: u64| {
            run.execute_on(&mut Inflated {
                inner: SimTransport::new(run.topology()),
                extra_model_bits,
                extra_wire_bytes,
            })
        };

        let clean = execute(0, 0).expect("an honest run conforms");
        let report = &clean.report;
        assert!(report.conforms(), "{report:?}");

        // One bit past the model envelope.
        let excess = report.upper_bits - clean.stats.total_bits + 1;
        assert_eq!(
            execute(excess, 0).unwrap_err(),
            ProtocolError::BoundViolated {
                measured_bits: report.upper_bits + 1,
                upper_bits: report.upper_bits,
            },
            "{}",
            g.name()
        );
        // Exactly on it: still inside.
        assert!(execute(excess - 1, 0).is_ok(), "{}", g.name());

        // One byte past the wire envelope, model bits honest.
        let spare = (report.upper_wire_bits - clean.wire.wire_bits()) / 8;
        assert_eq!(
            execute(0, spare + 1).unwrap_err(),
            ProtocolError::WireBoundViolated {
                measured_bits: clean.wire.wire_bits() + 8 * (spare + 1),
                upper_bits: report.upper_wire_bits,
            },
            "{}",
            g.name()
        );
        assert!(execute(0, spare).is_ok(), "{}", g.name());
    }
}

#[test]
fn links_thinner_than_a_tuple_still_carry_a_tuple_per_model_round() {
    // The round bound counts Model 2.1 rounds of one tuple per link, so
    // a run on links thinner than a tuple (`capacity_tuples = 0` on the
    // stock one-bit links) is priced at a tuple per link and round too.
    // One row of `star_query(1)` held by player 1: 64 bits over one link.
    let f = Relation::from_pairs(vec![Var(0), Var(1)], [(vec![1, 2], Count(3))]);
    let q = FaqQuery::new_ss(star_query(1), vec![f], vec![], 4);
    let line = Topology::line(2);
    let upper = |capacity_tuples| {
        let placement = InputPlacement::new(vec![vec![Player(1)]], Player(0));
        let run = DistributedFaqRun::new(&q, &line, placement, capacity_tuples).unwrap();
        let out = run.execute().expect("a correct run conforms");
        assert_eq!(out.stats.total_bits, 64);
        out.report.upper_bits
    };
    assert_eq!(
        upper(0),
        upper(1),
        "one tuple per link and round either way"
    );

    // 2 048 rows of `star_query(4)`, hash-split over every player of
    // five stock topologies, at their own one-bit capacities.
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 2048,
        domain: 64,
        seed: 3,
    };
    let q = random_instance(&star_query(4), &cfg, vec![], |_| Count(1));
    let assignment =
        InputPlacement::whole(vec![Player(1), Player(2), Player(3), Player(0)], Player(0));
    for g in [
        Topology::line(4),
        Topology::star(5),
        Topology::grid(3, 3),
        Topology::clique(5),
        Topology::ring(6),
    ] {
        let players: Vec<Player> = g.players().collect();
        let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
        let run = DistributedFaqRun::new(&q, &g, placement, 0).unwrap();
        let out = run.execute();
        assert!(out.is_ok(), "{}: {:?}", g.name(), out.err());
        let out = run_faq_protocol(&q, &g, &assignment, 0);
        assert!(out.is_ok(), "{}: {:?}", g.name(), out.err());
    }
}
