//! The live conformance oracle of every distributed run answers with a
//! typed error, not a panic: a run whose measured model bits (or wire
//! bytes) escape the paper's upper envelope returns
//! `ProtocolError::BoundViolated` (`WireBoundViolated`) to its caller.
//! No protocol in the repository violates its bound, so the measurement
//! is inflated by a test-local transport wrapper.

use faqs_hypergraph::star_query;
use faqs_network::{
    Delivery, LinkId, Player, RunStats, SimTransport, Topology, TransmitError, Transport,
    TransportKind, WireStats,
};
use faqs_protocols::{DistributedFaqRun, InputPlacement, ProtocolError};
use faqs_relation::{random_instance, RandomInstanceConfig};
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
