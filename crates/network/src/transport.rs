//! Pluggable byte transports under the distributed runtime, each
//! shadowed by the causal [`NetRun`] simulator.
//!
//! Model 2.1 has one kind of link: a private point-to-point channel that
//! carries a bounded number of bits per round. Its accounting lives in
//! [`NetRun`]; a [`Transport`] decides how the frame of bytes the runtime
//! routes physically reaches its destination, and always hands back the
//! bytes that arrived:
//!
//! * [`SimTransport`] — in memory: the frame is copied to the
//!   destination.
//! * [`TcpTransport`] — the frame crosses the kernel's TCP stack over
//!   localhost: one listening socket per player, one lazily-connected
//!   stream per directed pair, length-prefixed frames. The bytes the
//!   caller gets back are the bytes read off the destination socket —
//!   the same path a cross-machine deployment would take, minus the
//!   physical cable.
//!
//! The Model 2.1 bookkeeping is written once, in [`SimTransport`], and
//! [`TcpTransport`] reuses it: every frame is scheduled on a shadow
//! [`NetRun`] and, once it has arrived, tallied in [`WireStats`] (frames
//! and exact payload bytes, excluding transport-private length
//! prefixes). So a run over either transport reports byte-identical
//! [`RunStats`] and [`WireStats`] and is held to the same conformance
//! envelope.

use crate::sim::{NetRun, RunStats, TransmitError};
use crate::topology::{LinkId, Player, Topology};
use std::collections::{hash_map::Entry, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Which transport a distributed run executed on (reported by
/// [`Transport::kind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In memory: every frame is copied to its destination.
    Sim,
    /// Loopback TCP sockets moving length-prefixed frames.
    Tcp,
}

/// Bytes moved by a transport, tallied per delivered frame.
///
/// Separate from [`RunStats`] on purpose: the shadow simulator accounts
/// *model* bits (per hop, Model 2.1 prices), while this counts the exact
/// encoded frame bytes that crossed the medium (once per logical ship —
/// memory and sockets don't relay hop by hop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames delivered.
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
/// the bytes that arrived.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Round at whose end the message is fully at the destination,
    /// exactly as the shadow [`NetRun`] schedules it.
    pub arrived_at: u64,
    /// The bytes read back out of the medium.
    pub payload: Vec<u8>,
}

/// A byte transport with Model 2.1 shadow accounting.
///
/// Both entry points mirror the two routing schedules the distributed
/// runtime uses ([`NetRun::send_via_shortest_path`] and
/// [`NetRun::send_along_path`]);
/// `model_bits` is the Model 2.1 price of the frame's relation, charged
/// to the shadow simulator identically on every implementation.
pub trait Transport {
    /// Ships `frame` from `from` to `to` along a shortest live path,
    /// with the payload learned at the end of round `learned_at`, so it
    /// departs at `learned_at + 1` (shadow:
    /// [`NetRun::send_via_shortest_path`]).
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

    /// The shadow simulator's measurements — byte-identical across all
    /// transports for the same sequence of calls.
    fn stats(&self) -> RunStats;

    /// Bytes delivered — identical across all transports for the same
    /// sequence of calls.
    fn wire(&self) -> WireStats;

    /// The shadow simulator's per-link bit tallies
    /// ([`NetRun::link_bits`]) — identical across all transports for the
    /// same sequence of calls.
    fn link_bits(&self) -> &[u64];

    /// Which implementation this is.
    fn kind(&self) -> TransportKind;
}

/// The in-memory transport: each frame is scheduled on the shadow
/// simulator, copied to its destination and tallied.
pub struct SimTransport<'a> {
    shadow: NetRun<'a>,
    wire: WireStats,
}

/// The in-memory transport under its former name (frames once went
/// through per-player channel inboxes, which amounted to a copy).
#[doc(hidden)]
pub type ChannelTransport<'a> = SimTransport<'a>;

impl<'a> SimTransport<'a> {
    /// An in-memory transport on `g`.
    pub fn new(g: &'a Topology) -> Self {
        SimTransport {
            shadow: NetRun::new(g),
            wire: WireStats::default(),
        }
    }

    /// Finishes a ship the shadow has scheduled (`arrived`): `carry`
    /// moves the frame, and the bytes that arrived are tallied. A
    /// shadow or medium error returns before anything is tallied.
    fn land(
        &mut self,
        arrived: Result<u64, TransmitError>,
        carry: impl FnOnce() -> Result<Vec<u8>, TransmitError>,
    ) -> Result<Delivery, TransmitError> {
        let arrived_at = arrived?;
        let payload = carry()?;
        self.wire.record(&payload);
        Ok(Delivery {
            arrived_at,
            payload,
        })
    }
}

impl Transport for SimTransport<'_> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let ready_at = learned_at.saturating_add(1);
        let arrived = self
            .shadow
            .send_via_shortest_path(from, to, model_bits, ready_at);
        self.land(arrived, || Ok(frame.to_vec()))
    }

    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        frame: &[u8],
        model_bits: u64,
        ready_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let arrived = self
            .shadow
            .send_along_path(nodes, links, model_bits, ready_at);
        self.land(arrived, || Ok(frame.to_vec()))
    }

    fn stats(&self) -> RunStats {
        self.shadow.stats()
    }

    fn wire(&self) -> WireStats {
        self.wire
    }

    fn link_bits(&self) -> &[u64] {
        self.shadow.link_bits()
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }
}

/// Loopback TCP transport: one listening socket per player, one
/// lazily-accepted stream per directed player pair, `u32`-LE
/// length-prefixed frames. Every frame physically crosses the kernel's
/// TCP stack; the caller receives the bytes read off the destination
/// socket. Deliveries are synchronous (the runtime ships one frame at a
/// time), so no reader threads or reordering concerns arise; frames are
/// written from a scoped helper thread so a full socket buffer can never
/// deadlock the single-process read side.
pub struct TcpTransport<'a> {
    /// The shadow schedule and wire tally, exactly as in memory.
    memory: SimTransport<'a>,
    sockets: Sockets,
}

struct Sockets {
    listeners: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
    /// `(from, to) → (write end at `from`, read end at `to`)`.
    conns: HashMap<(u32, u32), (TcpStream, TcpStream)>,
}

impl<'a> TcpTransport<'a> {
    /// Binds one localhost listener per player of `g`.
    pub fn new(g: &'a Topology) -> io::Result<Self> {
        let listeners: Vec<TcpListener> = (0..g.num_players())
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;
        Ok(TcpTransport {
            memory: SimTransport::new(g),
            sockets: Sockets {
                listeners,
                addrs,
                conns: HashMap::new(),
            },
        })
    }
}

impl Sockets {
    /// Writes `frame` into the `from → to` stream and reads it back off
    /// the destination's end; an I/O failure is reported as one.
    fn ship(&mut self, from: Player, to: Player, frame: &[u8]) -> Result<Vec<u8>, TransmitError> {
        self.carry(from, to, frame).map_err(|e| TransmitError::Io {
            from,
            to,
            kind: e.kind(),
        })
    }

    fn carry(&mut self, from: Player, to: Player, frame: &[u8]) -> io::Result<Vec<u8>> {
        let key = (from.index() as u32, to.index() as u32);
        let (out, inbound) = match self.conns.entry(key) {
            Entry::Occupied(conn) => conn.into_mut(),
            Entry::Vacant(slot) => {
                let out = TcpStream::connect(self.addrs[to.index()])?;
                let (inbound, _) = self.listeners[to.index()].accept()?;
                slot.insert((out, inbound))
            }
        };
        let len = (frame.len() as u32).to_le_bytes();
        std::thread::scope(|s| {
            // Writer on its own scoped thread: loopback buffers are
            // finite, and the reader below is this same process.
            let writer = s.spawn(|| -> io::Result<()> {
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
            writer
                .join()
                .map_err(|_| io::Error::other("frame writer panicked"))??;
            Ok(payload)
        })
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
        let ready_at = learned_at.saturating_add(1);
        let arrived = self
            .memory
            .shadow
            .send_via_shortest_path(from, to, model_bits, ready_at);
        self.memory
            .land(arrived, || self.sockets.ship(from, to, frame))
    }

    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        frame: &[u8],
        model_bits: u64,
        ready_at: u64,
    ) -> Result<Delivery, TransmitError> {
        let arrived = self
            .memory
            .shadow
            .send_along_path(nodes, links, model_bits, ready_at);
        // The shadow panics on an empty `nodes`, so the path has both
        // ends.
        let (from, to) = (nodes[0], nodes[nodes.len() - 1]);
        self.memory
            .land(arrived, || self.sockets.ship(from, to, frame))
    }

    fn stats(&self) -> RunStats {
        self.memory.stats()
    }

    fn wire(&self) -> WireStats {
        self.memory.wire()
    }

    fn link_bits(&self) -> &[u64] {
        self.memory.link_bits()
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
        let mut tcp = TcpTransport::new(&g).unwrap();
        let f = frame();
        let runs: [&mut dyn Transport; 2] = [&mut sim, &mut tcp];
        let mut ledgers = Vec::new();
        for t in runs {
            let d1 = t.route(Player(0), Player(3), &f, 40, 0).unwrap();
            let d2 = t
                .route(Player(3), Player(0), &f, 12, d1.arrived_at)
                .unwrap();
            assert_eq!(d1.payload, f, "delivered bytes are the sent bytes");
            assert_eq!(d2.payload, f, "delivered bytes are the sent bytes");
            ledgers.push((t.stats(), t.wire(), d1.arrived_at, d2.arrived_at));
        }
        assert_eq!(ledgers[0], ledgers[1], "identical model and wire tally");
        assert_eq!(sim.wire().frames, 2);
        assert_eq!(sim.wire().payload_bytes, 200);
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
            assert_eq!(d.payload, big);
        }
        assert_eq!(tcp.sockets.conns.len(), 1, "one stream per directed pair");
    }

    #[test]
    fn shadow_errors_abort_before_bytes_move() {
        let mut g = Topology::line(2).with_uniform_capacity(4);
        g.set_capacity(LinkId(0), 0);
        let mut sim = SimTransport::new(&g);
        assert!(sim.route(Player(0), Player(1), &frame(), 8, 0).is_err());
        // A link the topology does not have is a refused hop.
        let path = [Player(0), Player(1)];
        assert_eq!(
            sim.send_along_path(&path, &[LinkId(9)], &frame(), 8, 1)
                .unwrap_err(),
            TransmitError::NotAdjacent(Player(0), Player(1))
        );
        assert_eq!(sim.wire(), WireStats::default(), "nothing shipped");
    }

    #[test]
    fn socket_failures_are_io_errors_and_tally_nothing() {
        let g = Topology::line(2).with_uniform_capacity(64);
        let mut tcp = TcpTransport::new(&g).unwrap();
        // A port that was bound and then released: nothing listens there.
        let gone = TcpListener::bind("127.0.0.1:0").unwrap();
        tcp.sockets.addrs[1] = gone.local_addr().unwrap();
        drop(gone);
        assert_eq!(
            tcp.route(Player(0), Player(1), &frame(), 8, 0).unwrap_err(),
            TransmitError::Io {
                from: Player(0),
                to: Player(1),
                kind: io::ErrorKind::ConnectionRefused,
            }
        );
        assert_eq!(tcp.wire(), WireStats::default(), "nothing arrived");
    }
}
