//! Only successful passes teach the planner. A distributed run that
//! dies on the wire after some of its bags already folded must leave
//! the attached `CalibrationRegistry` untouched: its telemetry
//! describes a pass that never finished. (The planner refuses marooned
//! placements up front, so only a transport failing *mid-run* reaches
//! this path — hence the test-local wrapper.) A frame the medium cut or
//! corrupted is a typed `ProtocolError::Frame`, never a panic.

use faqs_hypergraph::path_query;
use faqs_network::{
    Delivery, LinkId, Player, RunStats, SimTransport, Topology, TransmitError, Transport,
    TransportKind, WireStats,
};
use faqs_plan::CalibrationRegistry;
use faqs_protocols::{DistributedFaqRun, InputPlacement, ProtocolError};
use faqs_relation::{random_instance, CodecError, RandomInstanceConfig, FRAME_MAGIC};
use faqs_semiring::Count;
use std::sync::Arc;

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

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

/// A length-4 path with one factor per player of a line: every inner
/// GHD node folds its own factor with a child message (two inputs, so
/// it observes) before its own message is routed onwards. Runs it with
/// `fault` at delivery `fail_at`, and returns the outcome, the number of
/// deliveries and the samples the attached registry absorbed.
fn run_path(
    fail_at: usize,
    fault: Fault,
) -> (
    Result<faqs_protocols::DistributedOutcome<Count>, ProtocolError>,
    usize,
    u64,
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
    let registry = Arc::new(CalibrationRegistry::new());
    let run = DistributedFaqRun::new(&q, &g, placement, 1)
        .unwrap()
        .with_calibration(Arc::clone(&registry));
    let mut transport = Faulty {
        inner: SimTransport::new(run.topology()),
        deliveries: 0,
        fail_at,
        fault,
    };
    let out = run.execute_on(&mut transport);
    (out, transport.deliveries, registry.stats().samples)
}

#[test]
fn a_run_that_dies_on_the_wire_feeds_no_samples() {
    let (clean, deliveries, samples) = run_path(0, Fault::NoRoute);
    clean.expect("the clean run completes");
    assert!(
        deliveries >= 2,
        "messages and shards travelled: {deliveries} deliveries"
    );
    assert!(
        samples >= 2,
        "inner bags observe, not just the root: {samples}"
    );

    // The same run, losing its last delivery: the inner bags have
    // folded and observed by then, yet none of it may reach the
    // registry.
    let (failed, _, samples) = run_path(deliveries, Fault::NoRoute);
    assert!(matches!(failed, Err(ProtocolError::Unreachable(_))));
    assert_eq!(samples, 0, "an unfinished pass teaches nothing");
}

#[test]
fn a_corrupt_frame_is_a_typed_error_and_teaches_nothing() {
    let (clean, deliveries, _) = run_path(0, Fault::Truncate);
    clean.expect("the clean run completes");
    // Every delivery in turn, shards and messages alike.
    for k in 1..=deliveries {
        let (cut, _, samples) = run_path(k, Fault::Truncate);
        assert!(
            matches!(cut, Err(ProtocolError::Frame(CodecError::Truncated { .. }))),
            "delivery {k}: {cut:?}"
        );
        assert_eq!(samples, 0, "delivery {k}: a cut frame teaches nothing");

        let (mangled, _, samples) = run_path(k, Fault::BadMagic);
        assert!(
            matches!(mangled, Err(ProtocolError::Frame(CodecError::BadMagic(_)))),
            "delivery {k}: {mangled:?}"
        );
        assert_eq!(samples, 0, "delivery {k}: a bad frame teaches nothing");
    }
}
