//! Pluggable byte transports under the distributed runtime, each
//! shadowed by the causal [`NetRun`] simulator.
//!
//! The paper's Model 2.1 accounting lives in [`NetRun`]; a [`Transport`]
//! decides what *physically* happens to a frame of bytes when the
//! runtime routes it:
//!
//! * [`SimTransport`] — nothing: the frame is dropped and the caller
//!   keeps using its local copy. Pure simulation, the historical
//!   behaviour.
//! * [`ChannelTransport`] — the frame travels through a real in-process
//!   mpsc channel into the destination player's inbox and the *received*
//!   bytes are handed back to the caller.
//! * [`TcpTransport`] — the frame crosses the kernel's TCP stack over
//!   localhost: one listening socket per player, one lazily-connected
//!   stream per directed pair, length-prefixed frames. The bytes the
//!   caller gets back are the bytes read off the destination socket —
//!   the same path a cross-machine deployment would take, minus the
//!   physical cable.
//!
//! Every implementation embeds a shadow [`NetRun`] and performs the
//! *identical* model-bit accounting on every call, so a run over any
//! transport reports byte-identical [`RunStats`] and can be held to the
//! same conformance envelope — the simulator becomes a live oracle
//! monitoring the real wire. Real wire traffic is tallied separately in
//! [`WireStats`] (frames and exact payload bytes, excluding
//! transport-private length prefixes, so the channel and TCP transports
//! report identical wire numbers for the same run).

use crate::sim::{NetRun, RunStats, TransmitError};
use crate::topology::{LinkId, Player, Topology};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Which transport a distributed run executed on (reported by
/// [`Transport::kind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Causal simulator only — frames are never materialised.
    Sim,
    /// In-process mpsc channels moving real encoded frames.
    Channel,
    /// Loopback TCP sockets moving length-prefixed frames.
    Tcp,
}

/// Real bytes moved by a transport, tallied per shipped frame.
///
/// Separate from [`RunStats`] on purpose: the shadow simulator accounts
/// *model* bits (per hop, Model 2.1 prices), while this counts the exact
/// encoded frame bytes that crossed the real medium (once per logical
/// ship — channels and sockets don't relay hop by hop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames shipped.
    pub frames: u64,
    /// Exact encoded payload bytes across all frames.
    pub payload_bytes: u64,
}

impl WireStats {
    /// Payload bytes in bit units, comparable to a bit envelope.
    pub fn wire_bits(&self) -> u64 {
        self.payload_bytes.saturating_mul(8)
    }

    fn record(&mut self, frame: &[u8]) {
        self.frames += 1;
        self.payload_bytes += frame.len() as u64;
    }
}

/// One delivered frame: when it arrived (shadow-simulator round) and
/// what physically arrived (`None` on the pure simulator).
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Round at whose end the message is fully at the destination,
    /// exactly as the shadow [`NetRun`] schedules it.
    pub arrived_at: u64,
    /// The bytes read back out of the real medium; `None` when the
    /// transport carries no payload and the caller must keep its local
    /// copy.
    pub payload: Option<Vec<u8>>,
}

/// A byte transport with Model 2.1 shadow accounting.
///
/// Both entry points mirror the two routing schedules the distributed
/// runtime uses ([`NetRun::route_causal`] and [`NetRun::send_along_path`]);
/// `model_bits` is the Model 2.1 price of the frame's relation, charged
/// to the shadow simulator identically on every implementation.
pub trait Transport {
    /// Ships `frame` from `from` to `to` along a shortest live path,
    /// with the payload learned at the end of round `learned_at`
    /// (shadow: [`NetRun::route_causal`]).
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError>;

    /// Ships `frame` along an explicit hop path (shadow:
    /// [`NetRun::send_along_path`] with chunk pipelining), e.g. one
    /// Steiner-tree leg of a converge-cast.
    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        frame: &[u8],
        model_bits: u64,
        ready_at: u64,
    ) -> Result<Delivery, TransmitError>;

    /// Whether deliveries carry real bytes (`false` only on the pure
    /// simulator — callers then skip encoding entirely).
    fn carries_payload(&self) -> bool;

    /// The shadow simulator's measurements — byte-identical across all
    /// transports for the same sequence of calls.
    fn stats(&self) -> RunStats;

    /// Real bytes moved (all-zero on the pure simulator).
    fn wire(&self) -> WireStats;

    /// Which implementation this is.
    fn kind(&self) -> TransportKind;
}

/// The pure causal simulator: shadow accounting only, no payload.
pub struct SimTransport<'a> {
    shadow: NetRun<'a>,
}

impl<'a> SimTransport<'a> {
    /// A simulator-only transport on `g`.
    pub fn new(g: &'a Topology) -> Self {
        SimTransport {
            shadow: NetRun::new(g),
        }
    }
}

impl Transport for SimTransport<'_> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        _frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let arrived_at = self.shadow.route_causal(from, to, model_bits, learned_at)?;
        Ok(Delivery {
            arrived_at,
            payload: None,
        })
    }

    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        _frame: &[u8],
        model_bits: u64,
        ready_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let arrived_at = self
            .shadow
            .send_along_path(nodes, links, model_bits, ready_at)?;
        Ok(Delivery {
            arrived_at,
            payload: None,
        })
    }

    fn carries_payload(&self) -> bool {
        false
    }

    fn stats(&self) -> RunStats {
        self.shadow.stats()
    }

    fn wire(&self) -> WireStats {
        WireStats::default()
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }
}

/// One player's frame inbox: the sending and receiving half of its
/// mpsc queue.
type Inbox = (Sender<Vec<u8>>, Receiver<Vec<u8>>);

/// In-process channel transport: every frame is moved through the
/// destination player's mpsc inbox and read back out, so the caller's
/// copy of the data really did a store-and-forward round trip.
pub struct ChannelTransport<'a> {
    shadow: NetRun<'a>,
    inboxes: Vec<Inbox>,
    wire: WireStats,
}

impl<'a> ChannelTransport<'a> {
    /// A channel transport with one inbox per player of `g`.
    pub fn new(g: &'a Topology) -> Self {
        ChannelTransport {
            shadow: NetRun::new(g),
            inboxes: (0..g.num_players()).map(|_| channel()).collect(),
            wire: WireStats::default(),
        }
    }

    fn ship(&mut self, to: Player, frame: &[u8]) -> Vec<u8> {
        self.wire.record(frame);
        self.inboxes[to.index()]
            .0
            .send(frame.to_vec())
            .expect("inbox receiver lives as long as the transport");
        self.inboxes[to.index()]
            .1
            .recv()
            .expect("frame was just enqueued")
    }
}

impl Transport for ChannelTransport<'_> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let arrived_at = self.shadow.route_causal(from, to, model_bits, learned_at)?;
        let payload = self.ship(to, frame);
        Ok(Delivery {
            arrived_at,
            payload: Some(payload),
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
        let arrived_at = self
            .shadow
            .send_along_path(nodes, links, model_bits, ready_at)?;
        let to = *nodes.last().expect("paths have at least one node");
        let payload = self.ship(to, frame);
        Ok(Delivery {
            arrived_at,
            payload: Some(payload),
        })
    }

    fn carries_payload(&self) -> bool {
        true
    }

    fn stats(&self) -> RunStats {
        self.shadow.stats()
    }

    fn wire(&self) -> WireStats {
        self.wire
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Channel
    }
}

/// Loopback TCP transport: one listening socket per player, one
/// lazily-accepted stream per directed player pair, `u32`-LE
/// length-prefixed frames. Every frame physically crosses the kernel's
/// TCP stack; the caller receives the bytes read off the destination
/// socket. Deliveries are synchronous (the runtime ships one frame at a
/// time), so no reader threads or reordering concerns arise; large
/// frames are written from a scoped helper thread so a full socket
/// buffer can never deadlock the single-process read side.
pub struct TcpTransport<'a> {
    shadow: NetRun<'a>,
    listeners: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
    /// `(from, to) → (write end at `from`, read end at `to`)`.
    conns: HashMap<(u32, u32), (TcpStream, TcpStream)>,
    wire: WireStats,
}

impl<'a> TcpTransport<'a> {
    /// Binds one localhost listener per player of `g`.
    pub fn new(g: &'a Topology) -> std::io::Result<Self> {
        let listeners: Vec<TcpListener> = (0..g.num_players())
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;
        Ok(TcpTransport {
            shadow: NetRun::new(g),
            listeners,
            addrs,
            conns: HashMap::new(),
            wire: WireStats::default(),
        })
    }

    fn ship(&mut self, from: Player, to: Player, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        self.wire.record(frame);
        let key = (from.index() as u32, to.index() as u32);
        if !self.conns.contains_key(&key) {
            let out = TcpStream::connect(self.addrs[to.index()])?;
            let (inbound, _) = self.listeners[to.index()].accept()?;
            self.conns.insert(key, (out, inbound));
        }
        let (out, inbound) = self.conns.get_mut(&key).expect("just inserted");
        let len = (frame.len() as u32).to_le_bytes();
        let payload = std::thread::scope(|s| -> std::io::Result<Vec<u8>> {
            // Writer on its own scoped thread: loopback buffers are
            // finite, and the reader below is this same process.
            let writer = s.spawn(|| -> std::io::Result<()> {
                let mut w: &TcpStream = out;
                w.write_all(&len)?;
                w.write_all(frame)?;
                w.flush()
            });
            let mut r: &TcpStream = inbound;
            let mut len_buf = [0u8; 4];
            r.read_exact(&mut len_buf)?;
            let mut payload = vec![0u8; u32::from_le_bytes(len_buf) as usize];
            r.read_exact(&mut payload)?;
            writer.join().expect("writer thread never panics")?;
            Ok(payload)
        })?;
        Ok(payload)
    }

    fn ship_or_io_err(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
    ) -> Result<Vec<u8>, TransmitError> {
        // An I/O failure means the localhost medium itself broke; map it
        // onto the closest scheduler error so callers have one error
        // surface. (The shadow call has already vetted routability.)
        self.ship(from, to, frame)
            .map_err(|_| TransmitError::NoRoute(from, to))
    }
}

impl Transport for TcpTransport<'_> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let arrived_at = self.shadow.route_causal(from, to, model_bits, learned_at)?;
        let payload = self.ship_or_io_err(from, to, frame)?;
        Ok(Delivery {
            arrived_at,
            payload: Some(payload),
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
        let arrived_at = self
            .shadow
            .send_along_path(nodes, links, model_bits, ready_at)?;
        let from = *nodes.first().expect("paths have at least one node");
        let to = *nodes.last().expect("paths have at least one node");
        let payload = self.ship_or_io_err(from, to, frame)?;
        Ok(Delivery {
            arrived_at,
            payload: Some(payload),
        })
    }

    fn carries_payload(&self) -> bool {
        true
    }

    fn stats(&self) -> RunStats {
        self.shadow.stats()
    }

    fn wire(&self) -> WireStats {
        self.wire
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Vec<u8> {
        (0u8..100).collect()
    }

    #[test]
    fn shadow_accounting_is_transport_independent() {
        let g = Topology::line(4).with_uniform_capacity(8);
        let mut sim = SimTransport::new(&g);
        let mut chan = ChannelTransport::new(&g);
        let mut tcp = TcpTransport::new(&g).unwrap();
        let f = frame();
        let runs: [&mut dyn Transport; 3] = [&mut sim, &mut chan, &mut tcp];
        let mut stats = Vec::new();
        for t in runs {
            let d1 = t.route(Player(0), Player(3), &f, 40, 0).unwrap();
            let d2 = t
                .route(Player(3), Player(0), &f, 12, d1.arrived_at)
                .unwrap();
            assert_eq!(t.carries_payload(), d2.payload.is_some());
            if let Some(p) = d2.payload {
                assert_eq!(p, f, "delivered bytes are the sent bytes");
            }
            stats.push((t.stats(), d1.arrived_at, d2.arrived_at));
        }
        assert_eq!(stats[0], stats[1]);
        assert_eq!(stats[0], stats[2]);
        assert_eq!(sim.wire(), WireStats::default());
        assert_eq!(chan.wire(), tcp.wire(), "identical wire tally");
        assert_eq!(chan.wire().frames, 2);
        assert_eq!(chan.wire().payload_bytes, 200);
    }

    #[test]
    fn tcp_reuses_streams_and_survives_large_frames() {
        let g = Topology::line(2).with_uniform_capacity(1024);
        let mut tcp = TcpTransport::new(&g).unwrap();
        // Larger than typical loopback socket buffers: the scoped-writer
        // ship must not deadlock.
        let big = vec![0xabu8; 1 << 21];
        for round in 0..3u64 {
            let d = tcp
                .route(Player(0), Player(1), &big, 8, round * 10)
                .unwrap();
            assert_eq!(d.payload.as_deref(), Some(&big[..]));
        }
        assert_eq!(tcp.conns.len(), 1, "one stream per directed pair");
    }

    #[test]
    fn shadow_errors_abort_before_bytes_move() {
        let mut g = Topology::line(2).with_uniform_capacity(4);
        g.set_capacity(LinkId(0), 0);
        let mut chan = ChannelTransport::new(&g);
        assert!(chan.route(Player(0), Player(1), &frame(), 8, 0).is_err());
        assert_eq!(chan.wire(), WireStats::default(), "nothing shipped");
    }
}
