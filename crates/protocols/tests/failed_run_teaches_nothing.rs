//! Only successful passes teach the planner. A distributed run that
//! dies on the wire after some of its bags already folded must leave
//! the attached `CalibrationRegistry` untouched: its telemetry
//! describes a pass that never finished. (The planner refuses marooned
//! placements up front, so only a transport failing *mid-run* reaches
//! this path — hence the test-local wrapper.)

use faqs_hypergraph::path_query;
use faqs_network::{
    Delivery, LinkId, Player, RunStats, SimTransport, Topology, TransmitError, Transport,
    TransportKind, WireStats,
};
use faqs_plan::CalibrationRegistry;
use faqs_protocols::{DistributedFaqRun, InputPlacement, ProtocolError};
use faqs_relation::{random_instance, RandomInstanceConfig};
use faqs_semiring::Count;
use std::sync::Arc;

/// The causal simulator, except that the `fail_at`-th `route` call
/// finds its link gone (`0` never fails).
struct FlakyRoutes<'a> {
    inner: SimTransport<'a>,
    routes: usize,
    fail_at: usize,
}

impl Transport for FlakyRoutes<'_> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        self.routes += 1;
        if self.routes == self.fail_at {
            return Err(TransmitError::NoRoute(from, to));
        }
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

    fn carries_payload(&self) -> bool {
        self.inner.carries_payload()
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

#[test]
fn a_run_that_dies_on_the_wire_feeds_no_samples() {
    // A length-4 path with one factor per player of a line: every inner
    // GHD node folds its own factor with a child message (two inputs, so
    // it observes) before its own message is routed onwards.
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 12,
        domain: 4,
        seed: 3,
    };
    let q = random_instance(&path_query(4), &cfg, vec![], |_| Count(1));
    let g = Topology::line(4);
    let holders = (0..4).map(|p| vec![Player(p)]).collect();
    let placement = InputPlacement::new(holders, Player(3));
    let run = |fail_at: usize| {
        let registry = Arc::new(CalibrationRegistry::new());
        let run = DistributedFaqRun::new(&q, &g, placement.clone(), 1)
            .unwrap()
            .with_calibration(Arc::clone(&registry));
        let mut transport = FlakyRoutes {
            inner: SimTransport::new(run.topology()),
            routes: 0,
            fail_at,
        };
        let out = run.execute_on(&mut transport);
        (out, transport.routes, registry.stats().samples)
    };

    let (clean, routes, samples) = run(0);
    clean.expect("the clean run completes");
    assert!(
        routes >= 2,
        "messages and shards travelled: {routes} routes"
    );
    assert!(
        samples >= 2,
        "inner bags observe, not just the root: {samples}"
    );

    // The same run, losing its last route: the inner bags have folded
    // and observed by then, yet none of it may reach the registry.
    let (failed, _, samples) = run(routes);
    assert!(matches!(failed, Err(ProtocolError::Unreachable(_))));
    assert_eq!(samples, 0, "an unfinished pass teaches nothing");
}
