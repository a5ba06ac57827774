//! A distributed run that dies on the wire fails with a typed error at
//! every delivery, shards and messages alike: a link lost mid-run is
//! `ProtocolError::Unreachable`, and a frame the medium cut or
//! corrupted is a typed `ProtocolError::Frame`, never a panic. (The
//! planner refuses marooned placements up front, so only a transport
//! failing *mid-run* reaches these paths — hence the test-local
//! wrapper.)

use faqs_hypergraph::path_query;
use faqs_network::{
    Delivery, LinkId, Player, RunStats, SimTransport, Topology, TransmitError, Transport,
    TransportKind, WireStats,
};
use faqs_protocols::{DistributedFaqRun, InputPlacement, ProtocolError};
use faqs_relation::{random_instance, CodecError, RandomInstanceConfig, FRAME_MAGIC};
use faqs_semiring::Count;

/// What goes wrong with the faulty delivery.
#[derive(Clone, Copy)]
enum Fault {
    /// The link is gone: nothing is delivered.
    NoRoute,
    /// The frame arrives one byte short.
    Truncate,
    /// The frame arrives with its magic overwritten.
    BadMagic,
}

/// The in-memory transport, except that its `fail_at`-th delivery
/// suffers `fault` (`0` never fails).
struct Faulty<'a> {
    inner: SimTransport<'a>,
    deliveries: usize,
    fail_at: usize,
    fault: Fault,
}

impl Faulty<'_> {
    /// Counts one delivery and, if it is the faulty one, applies the
    /// fault to what `ship` delivers.
    fn deliver(
        &mut self,
        from: Player,
        to: Player,
        ship: impl FnOnce(&mut SimTransport<'_>) -> Result<Delivery, TransmitError>,
    ) -> Result<Delivery, TransmitError> {
        self.deliveries += 1;
        if self.deliveries != self.fail_at {
            return ship(&mut self.inner);
        }
        let mut d = match self.fault {
            Fault::NoRoute => return Err(TransmitError::NoRoute(from, to)),
            _ => ship(&mut self.inner)?,
        };
        match self.fault {
            Fault::Truncate => {
                d.payload.pop();
            }
            Fault::BadMagic => d.payload[..4].copy_from_slice(&(!FRAME_MAGIC).to_le_bytes()),
            Fault::NoRoute => {}
        }
        Ok(d)
    }
}

impl Transport for Faulty<'_> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        self.deliver(from, to, |t| {
            t.route(from, to, frame, model_bits, learned_at)
        })
    }

    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        frame: &[u8],
        model_bits: u64,
        ready_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let (from, to) = (nodes[0], nodes[nodes.len() - 1]);
        self.deliver(from, to, |t| {
            t.send_along_path(nodes, links, frame, model_bits, ready_at)
        })
    }

    fn stats(&self) -> RunStats {
        self.inner.stats()
    }

    fn wire(&self) -> WireStats {
        self.inner.wire()
    }

    fn link_bits(&self) -> &[u64] {
        self.inner.link_bits()
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

/// A length-4 path with one factor per player of a line: every inner
/// GHD node folds its own factor with a child message before its own
/// message is routed onwards. Runs it with `fault` at delivery
/// `fail_at`, and returns the outcome and the number of deliveries.
fn run_path(
    fail_at: usize,
    fault: Fault,
) -> (
    Result<faqs_protocols::DistributedOutcome<Count>, ProtocolError>,
    usize,
) {
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 12,
        domain: 4,
        seed: 3,
    };
    let q = random_instance(&path_query(4), &cfg, vec![], |_| Count(1));
    let g = Topology::line(4);
    let holders = (0..4).map(|p| vec![Player(p)]).collect();
    let placement = InputPlacement::new(holders, Player(3));
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    let mut transport = Faulty {
        inner: SimTransport::new(run.topology()),
        deliveries: 0,
        fail_at,
        fault,
    };
    let out = run.execute_on(&mut transport);
    (out, transport.deliveries)
}

#[test]
fn a_run_that_dies_on_the_wire_is_unreachable() {
    let (clean, deliveries) = run_path(0, Fault::NoRoute);
    clean.expect("the clean run completes");
    assert!(
        deliveries >= 2,
        "messages and shards travelled: {deliveries} deliveries"
    );
    // Every delivery in turn: the inner bags may have folded by then,
    // yet the run fails with the typed error, never a panic.
    for k in 1..=deliveries {
        let (failed, _) = run_path(k, Fault::NoRoute);
        assert!(
            matches!(failed, Err(ProtocolError::Unreachable(_))),
            "delivery {k}: {failed:?}"
        );
    }
}

#[test]
fn a_corrupt_frame_is_a_typed_error() {
    let (clean, deliveries) = run_path(0, Fault::Truncate);
    clean.expect("the clean run completes");
    // Every delivery in turn, shards and messages alike.
    for k in 1..=deliveries {
        let (cut, _) = run_path(k, Fault::Truncate);
        assert!(
            matches!(cut, Err(ProtocolError::Frame(CodecError::Truncated { .. }))),
            "delivery {k}: {cut:?}"
        );

        let (mangled, _) = run_path(k, Fault::BadMagic);
        assert!(
            matches!(mangled, Err(ProtocolError::Frame(CodecError::BadMagic(_)))),
            "delivery {k}: {mangled:?}"
        );
    }
}
